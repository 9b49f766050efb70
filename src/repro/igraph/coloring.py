"""Graph-coloring heuristics.

Minimum graph coloring is NP-hard; the paper (and every register allocator
since Chaitin) uses heuristics.  We provide:

* :func:`greedy_color` -- smallest-available color in a caller-given order;
* :func:`dsatur_color` -- Brelaz's DSATUR, usually the tightest here;
* :func:`simplify_color` -- Chaitin/Briggs-style simplify-select, the shape
  register allocators traditionally use;
* :func:`min_color` -- run both and keep whichever used fewer colors.

All orders break ties on ``str(node)``, so results are deterministic.

DSATUR and simplify-select each have a bitmask twin walking the graph's
:meth:`~repro.igraph.graph.UndirectedGraph.dense_view` (saturation and
used-color sets as int masks, tie-breaks on the dense index, which is
assigned in ``str`` order).  They are used when the dense analysis
kernels are the process default (:mod:`repro.core.dense`) and produce
identical colorings, insertion order included.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Iterable, List, Optional

from repro.igraph.graph import Node, UndirectedGraph, popcount

Coloring = Dict[Node, int]


def _lowest_clear_bit(mask: int) -> int:
    """Index of the lowest zero bit: ``first_free_color`` on a mask."""
    return (~mask & (mask + 1)).bit_length() - 1


def first_free_color(used: Iterable[int]) -> int:
    """The smallest non-negative integer not in ``used``."""
    taken = set(used)
    c = 0
    while c in taken:
        c += 1
    return c


def greedy_color(
    graph: UndirectedGraph,
    order: Optional[List[Node]] = None,
    fixed: Optional[Coloring] = None,
) -> Coloring:
    """Color nodes in ``order`` with the smallest available color.

    ``fixed`` pre-assigns colors that are respected and not changed
    (pre-colored nodes need not appear in ``order``).
    """
    coloring: Coloring = dict(fixed) if fixed else {}
    if order is None:
        order = graph.nodes()
    for node in order:
        if node in coloring:
            continue
        used = {
            coloring[nbr]
            for nbr in graph.neighbor_set(node)
            if nbr in coloring
        }
        coloring[node] = first_free_color(used)
    return coloring


def dsatur_color(graph: UndirectedGraph) -> Coloring:
    """Brelaz's DSATUR: always color the node whose neighbors currently use
    the most distinct colors (saturation), breaking ties by degree."""
    from repro.core.dense import analysis_is_dense

    if analysis_is_dense():
        return _dsatur_dense(graph)
    coloring: Coloring = {}
    uncolored = set(graph.nodes())
    sat: Dict[Node, set] = {n: set() for n in uncolored}
    while uncolored:
        node = max(
            uncolored,
            key=lambda n: (len(sat[n]), graph.degree(n), str(n)),
        )
        color = first_free_color(sat[node])
        coloring[node] = color
        uncolored.discard(node)
        for nbr in graph.neighbor_set(node):
            if nbr in uncolored:
                sat[nbr].add(color)
    return coloring


def _dsatur_dense(graph: UndirectedGraph) -> Coloring:
    """DSATUR over the dense adjacency view.

    Saturation sets are color masks; the selection maximum is taken over
    ``(popcount(sat), degree, index)``, which equals the reference key
    ``(len(sat), degree, str(node))`` because dense indices are assigned
    in ``str`` order and node strings are pairwise distinct.  Selection
    pops a lazy heap keyed ``(-sat, -degree, -index)``: a node is pushed
    again whenever its saturation grows, and stale entries (colored
    node, or a saturation that has since grown) are skipped on pop.
    """
    view = graph.dense_view()
    nodes = view.nodes
    masks = view.masks
    k = len(nodes)
    deg = [popcount(m) for m in masks]
    sat = [0] * k
    sat_cnt = [0] * k
    uncolored = (1 << k) - 1
    heap = [(0, -deg[x], -x) for x in range(k)]
    heapq.heapify(heap)
    coloring: Coloring = {}
    while heap:
        neg_sat, _, neg_i = heapq.heappop(heap)
        i = -neg_i
        if not uncolored >> i & 1 or -neg_sat != sat_cnt[i]:
            continue
        color = _lowest_clear_bit(sat[i])
        coloring[nodes[i]] = color
        uncolored ^= 1 << i
        bit = 1 << color
        m = masks[i] & uncolored
        while m:
            low = m & -m
            m ^= low
            nbr = low.bit_length() - 1
            if not sat[nbr] & bit:
                sat[nbr] |= bit
                sat_cnt[nbr] += 1
                heapq.heappush(heap, (-sat_cnt[nbr], -deg[nbr], -nbr))
    return coloring


def simplify_color(graph: UndirectedGraph) -> Coloring:
    """Chaitin-style simplify-select.

    Repeatedly remove a minimum-degree node onto a stack, then color in
    reverse removal order with the smallest available color.
    """
    from repro.core.dense import analysis_is_dense

    if analysis_is_dense():
        return _simplify_dense(graph)
    work = graph.copy()
    stack: List[Node] = []
    remaining = set(work.nodes())
    while remaining:
        node = min(remaining, key=lambda n: (work.degree(n), str(n)))
        stack.append(node)
        work.remove_node(node)
        remaining.discard(node)
    coloring: Coloring = {}
    for node in reversed(stack):
        used = {
            coloring[nbr]
            for nbr in graph.neighbor_set(node)
            if nbr in coloring
        }
        coloring[node] = first_free_color(used)
    return coloring


def _simplify_dense(graph: UndirectedGraph) -> Coloring:
    """Simplify-select over the dense adjacency view.

    Degrees decrement in place instead of mutating a graph copy; the
    removal minimum ``(degree, index)`` equals the reference key
    ``(degree, str(node))`` by the dense-index order invariant.  It is
    popped from a lazy heap keyed ``(degree, index)``: a node is pushed
    again whenever its degree drops, and entries of removed nodes or
    with a since-lowered degree are skipped on pop.
    """
    view = graph.dense_view()
    nodes = view.nodes
    masks = view.masks
    k = len(nodes)
    deg = [popcount(m) for m in masks]
    heap = [(deg[x], x) for x in range(k)]
    heapq.heapify(heap)
    remaining = (1 << k) - 1
    stack: List[int] = []
    while heap:
        d, i = heapq.heappop(heap)
        if not remaining >> i & 1 or d != deg[i]:
            continue
        stack.append(i)
        remaining ^= 1 << i
        m = masks[i] & remaining
        while m:
            low = m & -m
            m ^= low
            nbr = low.bit_length() - 1
            deg[nbr] -= 1
            heapq.heappush(heap, (deg[nbr], nbr))
    colarr = [0] * k
    colored_mask = 0
    coloring: Coloring = {}
    for i in reversed(stack):
        used = 0
        m = masks[i] & colored_mask
        while m:
            low = m & -m
            m ^= low
            used |= 1 << colarr[low.bit_length() - 1]
        color = _lowest_clear_bit(used)
        colarr[i] = color
        colored_mask |= 1 << i
        coloring[nodes[i]] = color
    return coloring


def num_colors(coloring: Coloring) -> int:
    """Number of distinct colors used (0 for an empty coloring)."""
    return len(set(coloring.values())) if coloring else 0


def min_color(graph: UndirectedGraph) -> Coloring:
    """Best of DSATUR and simplify-select; deterministic."""
    a = dsatur_color(graph)
    b = simplify_color(graph)
    return a if num_colors(a) <= num_colors(b) else b


def validate_coloring(graph: UndirectedGraph, coloring: Coloring) -> None:
    """Raise ``ValueError`` when an edge's endpoints share a color or a
    node is missing from the coloring."""
    for node in graph.nodes():
        if node not in coloring:
            raise ValueError(f"node {node!r} is uncolored")
    for a, b in graph.edges():
        if coloring[a] == coloring[b]:
            raise ValueError(
                f"edge ({a!r}, {b!r}) endpoints share color {coloring[a]}"
            )
