"""Region-wise coloring merge with conflict-edge resolution (paper Fig. 7).

The upper-bound estimation colors the BIG and each IIG *independently* --
much cheaper than coloring the whole GIG -- and then merges the colorings:

1. color the BIG minimally; its color count is the initial ``MaxPR``;
2. color every IIG minimally; ``MaxR`` starts as the maximum of ``MaxPR``
   and the largest IIG color count;
3. walk the GIG edges not covered by a single region ("conflict edges");
   whenever both endpoints carry the same color, try in order:

   a. recolor one endpoint within its legal palette (``[0, MaxPR)`` for
      boundary nodes, ``[0, MaxR)`` for internal nodes) avoiding all its
      GIG neighbors;
   b. recolor one *neighbor* of an endpoint to free a color for it (the
      paper's "heuristically try to change their neighbors' colors");
   c. give up and widen: bump ``MaxR`` for a conflict with an internal
      endpoint (the internal node takes the brand-new color), or bump
      ``MaxPR`` for a boundary-boundary conflict (shared-range colors are
      shifted up by one to keep the private palette contiguous).

The result is a valid GIG coloring in which every boundary node's color is
below ``MaxPR`` -- exactly the paper's "coloring scheme" conditions 1-3.

The merge runs in the GIG's index space
(:meth:`~repro.igraph.graph.UndirectedGraph.dense_view`, bit order ==
``str`` order): a color array plus one node bitmask per color class, so
"some neighbor of ``x`` uses ``c``" is ``adj[x] & cls[c]``.  Edges are
walked as ascending ``(i, j > i)`` pairs -- the order of
:meth:`~repro.igraph.graph.UndirectedGraph.edges` -- and each node's
remaining same-colored neighbors are re-masked after every fix, so every
decision, and hence the coloring, matches an edge-by-edge walk over
``Reg``-keyed sets.  Widening ``MaxPR`` inserts an empty class at the old
``MaxPR``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.igraph.coloring import Coloring, min_color, num_colors
from repro.igraph.interference import InterferenceGraphs


@dataclass
class MergeResult:
    """Outcome of the region merge.

    Attributes:
        coloring: valid GIG coloring; boundary nodes use colors
            ``0 .. max_pr-1``.
        max_pr: the paper's ``MaxPR`` upper bound.
        max_r: the paper's ``MaxR`` upper bound.
    """

    coloring: Coloring
    max_pr: int
    max_r: int


def merge_region_colorings(graphs: InterferenceGraphs) -> MergeResult:
    """Run the Figure-7 estimation over a thread's interference graphs."""
    big_coloring = min_color(graphs.big)
    max_pr = num_colors(big_coloring)

    coloring: Coloring = dict(big_coloring)
    max_r = max_pr
    for rid in sorted(graphs.iigs):
        iig_coloring = min_color(graphs.iigs[rid])
        max_r = max(max_r, num_colors(iig_coloring))
        coloring.update(iig_coloring)

    # Nodes that interfere with nothing may not appear in any region graph
    # (isolated GIG nodes); give them color 0 so the coloring is total.
    for node in graphs.gig.nodes():
        coloring.setdefault(node, 0)
    if coloring and max_r == 0:
        max_r = 1

    view = graphs.gig.dense_view()
    k = len(view.nodes)
    # Region nodes outside the GIG (possible only for hand-built graphs)
    # have no edges; they take part in the widening shift alone.
    order = view.nodes + [n for n in coloring if n not in view.index]
    adj = view.masks + [0] * (len(order) - k)
    col = [coloring[n] for n in order]
    cls = [0] * max_r  # min_color's colors are contiguous from 0
    for x, c in enumerate(col):
        cls[c] |= 1 << x
    boundary = graphs.boundary
    bmask = 0
    for x, n in enumerate(order):
        if n in boundary:
            bmask |= 1 << x

    def set_color(x: int, c: int) -> None:
        bit = 1 << x
        cls[col[x]] ^= bit
        cls[c] |= bit
        col[x] = c

    def free_color(x: int) -> Optional[int]:
        """Lowest color of ``x``'s palette, other than its own, that no
        GIG neighbor uses."""
        cur = col[x]
        nbrs = adj[x]
        for c in range(max_pr if bmask >> x & 1 else max_r):
            if c != cur and not nbrs & cls[c]:
                return c
        return None

    def try_recolor(x: int) -> bool:
        """Recolor ``x`` within its palette avoiding GIG neighbors."""
        c = free_color(x)
        if c is None:
            return False
        set_color(x, c)
        return True

    def try_recolor_neighbors(x: int) -> bool:
        """Free some palette color for ``x`` by moving its neighbors."""
        cur = col[x]
        nbrs = adj[x]
        for c in range(max_pr if bmask >> x & 1 else max_r):
            blockers = nbrs & cls[c]
            if c == cur or not blockers:
                continue
            moved: List[Tuple[int, int]] = []
            while blockers:
                low = blockers & -blockers
                blockers ^= low
                y = low.bit_length() - 1
                choice = free_color(y)
                if choice is None:
                    break
                moved.append((y, col[y]))
                set_color(y, choice)
            else:
                if not nbrs & cls[c]:
                    set_color(x, c)
                    return True
            for y, old in reversed(moved):
                set_color(y, old)
        return False

    def widen_for(x: int) -> None:
        nonlocal max_pr, max_r
        if bmask >> x & 1:
            # New private color: shift every shared-range color up by one
            # so private colors stay the contiguous prefix [0, max_pr).
            cls.insert(max_pr, 0)
            col[:] = [c + 1 if c >= max_pr else c for c in col]
            set_color(x, max_pr)
            max_pr += 1
            max_r = max(max_r + 1, max_pr)
        else:
            cls.extend([0] * (max_r + 1 - len(cls)))
            set_color(x, max_r)
            max_r += 1

    # Conflict-edge worklist.  Resolving one edge can only change colors,
    # never remove constraint edges, so we loop until a full pass is clean.
    changed = True
    passes = 0
    while changed:
        passes += 1
        if passes > len(coloring) + 10:
            raise AssertionError("region merge failed to converge")
        changed = False
        for a in range(k):
            # Same-colored neighbors above ``a``: the conflicting edges
            # (a, b > a), lowest first, re-masked after every fix.
            same = adj[a] & cls[col[a]] & ~((2 << a) - 1)
            while same:
                low = same & -same
                b = low.bit_length() - 1
                changed = True
                # Prefer to move an internal endpoint (wider palette, and a
                # widening there costs a shared register, not a private
                # one).
                first, second = a, b
                if bmask >> a & 1 and not bmask & low:
                    first, second = b, a
                if not (
                    try_recolor(first)
                    or try_recolor(second)
                    or try_recolor_neighbors(first)
                    or try_recolor_neighbors(second)
                ):
                    widen_for(first)
                same = adj[a] & cls[col[a]] & ~((low << 1) - 1)

    for x, node in enumerate(order):
        coloring[node] = col[x]
    return MergeResult(coloring=coloring, max_pr=max_pr, max_r=max_r)
