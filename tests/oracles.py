"""Reference oracles for the index-space kernels.

Straightforward set- and pair-based versions of computations that
``src/repro`` now runs over dense bitmasks.  They are slow and obviously
correct, and exist only so the tests can check the fast versions
against them, result for result and order for order:

* :func:`merge_region_colorings_sets` -- the Figure-7 region merge over
  ``Reg``-keyed color dicts and neighbor sets;
* :func:`rename_webs_per_variable` -- web renaming with one
  reaching-definitions fixpoint per variable;
* :func:`conflict_masks_from_pairs` -- a range's ``conflicts_at`` pairs
  regrouped as ``{other: slot mask}``;
* :func:`dsatur_quadratic` / :func:`simplify_quadratic` -- the coloring
  heuristics with an O(n) ``max``/``min`` scan per selection;
* :func:`check_defined_before_use_sets` -- the may-be-uninitialised
  check over Python sets.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.cfg.webs import (
    ENTRY,
    _apply_replacements,
    _name_and_replace,
    _UnionFind,
)
from repro.errors import ValidationError
from repro.igraph.coloring import (
    Coloring,
    _lowest_clear_bit,
    min_color,
    num_colors,
)
from repro.igraph.graph import Node, UndirectedGraph, popcount
from repro.igraph.interference import InterferenceGraphs
from repro.igraph.merge import MergeResult
from repro.ir.operands import Reg, VirtualReg
from repro.ir.program import Program


# ---------------------------------------------------------------------------
# Figure-7 merge over sets.
# ---------------------------------------------------------------------------
def merge_region_colorings_sets(
    graphs: InterferenceGraphs, tally: Optional[Dict[str, int]] = None
) -> MergeResult:
    """The region merge walking ``gig.edges()`` over a ``Reg`` dict.

    ``tally``, when given, counts how each conflict edge was resolved:
    ``recolor``, ``neighbors``, ``widen_boundary`` or ``widen_internal``.
    """
    tally = {} if tally is None else tally

    def hit(branch: str) -> None:
        tally[branch] = tally.get(branch, 0) + 1

    big_coloring = min_color(graphs.big)
    max_pr = max(num_colors(big_coloring), 0)

    coloring: Coloring = dict(big_coloring)
    max_r = max_pr
    for rid in sorted(graphs.iigs):
        iig_coloring = min_color(graphs.iigs[rid])
        max_r = max(max_r, num_colors(iig_coloring))
        coloring.update(iig_coloring)

    for node in graphs.gig.nodes():
        coloring.setdefault(node, 0)
    if coloring and max_r == 0:
        max_r = 1
    boundary = graphs.boundary

    def palette_limit(node: Node) -> int:
        return max_pr if node in boundary else max_r

    def neighbor_colors(node: Node) -> Set[int]:
        return {
            coloring[nbr]
            for nbr in graphs.gig.neighbor_set(node)
            if nbr in coloring
        }

    def try_recolor(node: Node) -> bool:
        used = neighbor_colors(node)
        for c in range(palette_limit(node)):
            if c != coloring[node] and c not in used:
                coloring[node] = c
                return True
        return False

    def try_recolor_neighbors(node: Node) -> bool:
        used = neighbor_colors(node)
        for c in range(palette_limit(node)):
            if c == coloring[node] or c not in used:
                continue
            blockers = [
                nbr
                for nbr in graphs.gig.neighbors(node)
                if coloring.get(nbr) == c
            ]
            moved: List[Tuple[Node, int]] = []
            ok = True
            for blocker in blockers:
                old = coloring[blocker]
                b_used = neighbor_colors(blocker)
                choice = next(
                    (
                        bc
                        for bc in range(palette_limit(blocker))
                        if bc != old and bc not in b_used
                    ),
                    None,
                )
                if choice is None:
                    ok = False
                    break
                coloring[blocker] = choice
                moved.append((blocker, old))
            if ok and c not in neighbor_colors(node):
                coloring[node] = c
                return True
            for blocker, old in reversed(moved):
                coloring[blocker] = old
        return False

    def widen_for(node: Node) -> None:
        nonlocal max_pr, max_r
        hit("widen_boundary" if node in boundary else "widen_internal")
        if node in boundary:
            for other, c in list(coloring.items()):
                if c >= max_pr:
                    coloring[other] = c + 1
            coloring[node] = max_pr
            max_pr += 1
            max_r = max(max_r + 1, max_pr)
        else:
            coloring[node] = max_r
            max_r += 1

    changed = True
    passes = 0
    while changed:
        passes += 1
        if passes > len(coloring) + 10:
            raise AssertionError("region merge failed to converge")
        changed = False
        for a, b in graphs.gig.edges():
            if coloring[a] != coloring[b]:
                continue
            changed = True
            first, second = (a, b)
            if a in boundary and b not in boundary:
                first, second = b, a
            if try_recolor(first) or try_recolor(second):
                hit("recolor")
                continue
            if try_recolor_neighbors(first) or try_recolor_neighbors(second):
                hit("neighbors")
                continue
            widen_for(first)

    return MergeResult(coloring=coloring, max_pr=max_pr, max_r=max_r)


# ---------------------------------------------------------------------------
# Web renaming with one reaching-definitions fixpoint per variable.
# ---------------------------------------------------------------------------
def reaching_defs_one_variable(
    n: int,
    succs: List[Tuple[int, ...]],
    preds: List[List[int]],
    is_def: List[bool],
) -> List[int]:
    """Bitmask reaching definitions of one variable: bit ``i`` is "the
    def at ``i`` reaches here", bit ``n`` the entry pseudo-def."""
    entry_bit = 1 << n
    reach_in = [0] * n
    out = [0] * n
    if n:
        reach_in[0] = entry_bit
        out[0] = 1 if is_def[0] else entry_bit
    worklist = list(range(n))
    in_list = [True] * n
    while worklist:
        i = worklist.pop()
        in_list[i] = False
        new_in = entry_bit if i == 0 else 0
        for p in preds[i]:
            new_in |= out[p]
        changed = new_in != reach_in[i]
        reach_in[i] = new_in
        new_out = (1 << i) if is_def[i] else new_in
        if new_out != out[i] or changed:
            out[i] = new_out
            for s in succs[i]:
                if not in_list[s]:
                    in_list[s] = True
                    worklist.append(s)
    return reach_in


def web_partitions_per_variable(
    program: Program,
) -> Dict[Reg, Tuple[_UnionFind, Dict[int, int], List[int], List[int]]]:
    """Per variable with work to do: its union-find over def sites (plus
    :data:`ENTRY`), the per-use representative, def and use sites."""
    n = len(program.instrs)
    succs = [program.successors(i) for i in range(n)]
    preds: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        for s in succs[i]:
            preds[s].append(i)
    def_sites_of: Dict[Reg, List[int]] = {}
    use_sites_of: Dict[Reg, List[int]] = {}
    for i, ins in enumerate(program.instrs):
        for v in set(ins.defs):
            def_sites_of.setdefault(v, []).append(i)
        for v in set(ins.uses):
            use_sites_of.setdefault(v, []).append(i)
    out = {}
    for var in sorted(program.virtual_regs(), key=str):
        def_sites = def_sites_of.get(var, [])
        use_sites = use_sites_of.get(var, [])
        if len(def_sites) <= 1 and not use_sites:
            continue
        is_def = [False] * n
        for d in def_sites:
            is_def[d] = True
        reach_in = reaching_defs_one_variable(n, succs, preds, is_def)
        entry_bit = 1 << n
        uf = _UnionFind()
        for d in def_sites + [ENTRY]:
            uf.find(d)
        use_webs: Dict[int, int] = {}
        for u in use_sites:
            m = reach_in[u]
            has_entry = bool(m & entry_bit)
            m &= entry_bit - 1
            if not m:
                use_webs[u] = ENTRY
                continue
            low = m & -m
            first = low.bit_length() - 1
            m ^= low
            while m:
                low = m & -m
                uf.union(first, low.bit_length() - 1)
                m ^= low
            if has_entry:
                uf.union(first, ENTRY)
            use_webs[u] = first
        out[var] = (uf, use_webs, def_sites, use_sites)
    return out


def rename_webs_per_variable(program: Program) -> Program:
    """:func:`repro.cfg.webs.rename_webs` with a fixpoint per variable."""
    replace: Dict[Tuple[int, int], VirtualReg] = {}
    taken = {v.name for v in program.virtual_regs()}
    for var, (uf, use_webs, defs, uses) in web_partitions_per_variable(
        program
    ).items():
        _name_and_replace(
            program, var, uf, use_webs, defs, uses, taken, replace
        )
    if not replace:
        return program.copy()
    return _apply_replacements(program, replace)


def partition_of(uf: _UnionFind, members: List[int]) -> Set[frozenset]:
    """The union-find's blocks over ``members``."""
    blocks: Dict[int, Set[int]] = {}
    for m in members:
        blocks.setdefault(uf.find(m), set()).add(m)
    return {frozenset(b) for b in blocks.values()}


# ---------------------------------------------------------------------------
# Conflict model.
# ---------------------------------------------------------------------------
def conflict_masks_from_pairs(
    pairs: Tuple[Tuple[int, Reg], ...]
) -> Dict[Reg, int]:
    """One range's ``conflicts_at`` pairs regrouped as ``{other: mask}``."""
    cm: Dict[Reg, int] = {}
    for s, b in pairs:
        cm[b] = cm.get(b, 0) | 1 << s
    return cm


# ---------------------------------------------------------------------------
# Coloring heuristics with linear-scan selection.
# ---------------------------------------------------------------------------
def dsatur_quadratic(graph: UndirectedGraph) -> Coloring:
    """DSATUR picking ``max(sat, degree, index)`` by a scan each step."""
    view = graph.dense_view()
    nodes = view.nodes
    masks = view.masks
    k = len(nodes)
    deg = [popcount(m) for m in masks]
    sat = [0] * k
    sat_cnt = [0] * k
    uncolored = set(range(k))
    coloring: Coloring = {}
    while uncolored:
        i = max(uncolored, key=lambda x: (sat_cnt[x], deg[x], x))
        color = _lowest_clear_bit(sat[i])
        coloring[nodes[i]] = color
        uncolored.discard(i)
        bit = 1 << color
        m = masks[i]
        while m:
            low = m & -m
            m ^= low
            nbr = low.bit_length() - 1
            if nbr in uncolored and not (sat[nbr] & bit):
                sat[nbr] |= bit
                sat_cnt[nbr] += 1
    return coloring


def simplify_quadratic(graph: UndirectedGraph) -> Coloring:
    """Simplify-select removing ``min(degree, index)`` by a scan."""
    view = graph.dense_view()
    nodes = view.nodes
    masks = view.masks
    k = len(nodes)
    deg = [popcount(m) for m in masks]
    remaining = set(range(k))
    removed_mask = 0
    stack: List[int] = []
    while remaining:
        i = min(remaining, key=lambda x: (deg[x], x))
        stack.append(i)
        remaining.discard(i)
        removed_mask |= 1 << i
        m = masks[i] & ~removed_mask
        while m:
            low = m & -m
            m ^= low
            deg[low.bit_length() - 1] -= 1
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


# ---------------------------------------------------------------------------
# May-be-uninitialised check over sets.
# ---------------------------------------------------------------------------
def check_defined_before_use_sets(program: Program) -> None:
    """Raise the first :class:`ValidationError` for a possibly
    uninitialised read: lowest instruction, then ``instr.uses`` order."""
    n = len(program.instrs)
    all_regs = program.virtual_regs()
    maybe_undef = [set(all_regs) if i == 0 else None for i in range(n)]
    worklist = [0]
    while worklist:
        i = worklist.pop()
        cur: Set[VirtualReg] = maybe_undef[i]  # type: ignore[assignment]
        instr = program.instrs[i]
        out = cur - set(instr.defs)
        for succ in program.successors(i):
            prev = maybe_undef[succ]
            if prev is None:
                maybe_undef[succ] = set(out)
                worklist.append(succ)
            elif not out <= prev:
                prev |= out
                worklist.append(succ)
    for i, instr in enumerate(program.instrs):
        state = maybe_undef[i]
        if state is None:
            continue
        for reg in instr.uses:
            if isinstance(reg, VirtualReg) and reg in state:
                raise ValidationError(
                    f"program {program.name!r}: {reg} may be read "
                    f"uninitialised at instruction {i} ({instr.opcode})"
                )
