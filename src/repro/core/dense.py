"""Dense-index bitset kernels for the cold analysis path.

The analysis cache makes *warm* allocation cheap by keeping whole
analyses; this module makes the cache *miss* cheap.  Every per-program
analysis pass -- the liveness fixpoint, interference-graph construction,
and the slot/occupant/conflict model behind the intra-thread allocator --
has a rewrite here that renumbers live ranges and instruction slots to
contiguous ints and runs on pure-Python big-int bitmasks instead of sets
of rich operand objects.  No new dependencies: a Python ``int`` is the
bit vector.

The layout invariant everything rests on: :class:`DenseMap` numbers
registers in ``str``-sorted order, so **ascending bit order equals the
``str`` order** the reference implementation sorts by.  Expanding a mask
low-bit-first therefore reproduces every reference iteration order
(occupant tuples, ``conflicts_at`` pair order, tie-breaks in the
coloring heuristics and the Figure-7 merge) without ever calling
``sorted``.  That is what makes the two implementations bit-identical
rather than merely equivalent: same
:class:`~repro.core.analysis.ThreadAnalysis` contents, same allocations,
same benchmark JSON.

Implementation selection mirrors :mod:`repro.sim.engine`: the process
default comes from ``REPRO_ANALYSIS`` (``dense``, the default, or
``reference``), is changed via :func:`set_default_analysis_impl` (the
CLI's ``--analysis-impl``), and is consulted once per analysis at
:func:`repro.cfg.liveness.compute_liveness`.  Everything downstream keys
off the presence of the :class:`DenseLiveness` payload the dense path
attaches, so one switch point keeps a whole analysis internally
consistent.

The conflict model lives in index space too
(:class:`DenseAnalysisIndex`).  The def-vs-dying-use exception (see
:func:`repro.core.analysis.true_conflict`) is three mask formulas at one
slot.  For an occupant ``a`` of slot ``s`` with occupant mask ``occ``,
def mask ``defs`` and dying mask ``dying``::

    a in defs:   conf = (occ & ~(dying & ~defs)) & ~bit(a)
    a in dying:  conf = (occ & ~defs)            & ~bit(a)
    otherwise:   conf =  occ                     & ~bit(a)

and the same rule applied slot-parallel to per-range slot masks ``S``,
def-slot masks ``D`` and dying-not-def-slot masks ``Y`` gives the slots
where two ranges conflict::

    S_a & S_b & ~((D_a & Y_b) | (Y_a & D_b))

The allocator's probes read these masks; the ``(slot, other)`` pair
lists of ``ThreadAnalysis.conflicts_at`` are derived only on first
access.  ``tests/test_dense.py`` checks the formulas against the shared
predicate over every membership combination, and differentially checks
whole analyses, conflict masks, bounds and allocations against the
reference implementation.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.cfg.liveness import Liveness
from repro.cfg.nsr import NsrInfo
from repro.igraph.graph import (
    UndirectedGraph,
    bit_indices,
    graph_from_dense,
    popcount,
)
from repro.igraph.interference import InterferenceGraphs
from repro.ir.operands import Reg
from repro.ir.program import Program

__all__ = [
    "ANALYSIS_IMPLS",
    "ENV_ANALYSIS",
    "DenseAnalysisIndex",
    "DenseLiveness",
    "DenseMap",
    "analysis_is_dense",
    "build_interference_dense",
    "compute_liveness_dense",
    "finish_analysis_dense",
    "get_default_analysis_impl",
    "mask_of_slots",
    "popcount",
    "set_default_analysis_impl",
]

#: Recognised analysis implementations.
ANALYSIS_IMPLS = ("dense", "reference")

#: Environment variable consulted once at import for the initial default.
ENV_ANALYSIS = "REPRO_ANALYSIS"


def _check_name(name: str) -> None:
    if name not in ANALYSIS_IMPLS:
        raise ValueError(
            f"unknown analysis implementation {name!r}; expected one of "
            f"{', '.join(ANALYSIS_IMPLS)}"
        )


def _initial_impl() -> str:
    name = os.environ.get(ENV_ANALYSIS, "dense")
    if name not in ANALYSIS_IMPLS:
        warnings.warn(
            f"{ENV_ANALYSIS}={name!r} is not one of "
            f"{', '.join(ANALYSIS_IMPLS)}; using 'dense'",
            RuntimeWarning,
            stacklevel=2,
        )
        return "dense"
    return name


_default_impl = _initial_impl()


def get_default_analysis_impl() -> str:
    """The implementation new analyses use (``dense`` or ``reference``)."""
    return _default_impl


def set_default_analysis_impl(name: str) -> str:
    """Set the process-wide analysis implementation; returns the previous
    one (so callers can restore it in a ``finally``)."""
    global _default_impl
    _check_name(name)
    previous = _default_impl
    _default_impl = name
    return previous


def analysis_is_dense() -> bool:
    """True when the dense kernels are the process default."""
    return _default_impl == "dense"


def mask_of_slots(slots: Iterable[int]) -> int:
    """Bitmask over instruction-slot indices."""
    m = 0
    for s in slots:
        m |= 1 << s
    return m


# ---------------------------------------------------------------------------
# Dense renumbering.
# ---------------------------------------------------------------------------
class DenseMap:
    """Contiguous renumbering of a program's registers.

    Registers are numbered in ``str``-sorted order, making ascending bit
    order identical to the reference implementation's deterministic sort
    order -- the invariant every bit-identity argument relies on.
    """

    __slots__ = ("regs", "index", "_frozen")

    def __init__(self, regs: Iterable[Reg]) -> None:
        self.regs: Tuple[Reg, ...] = tuple(sorted(set(regs), key=str))
        self.index: Dict[Reg, int] = {r: i for i, r in enumerate(self.regs)}
        #: mask -> frozenset memo; liveness reuses a handful of masks
        #: across many program points, so interning pays for itself.
        self._frozen: Dict[int, FrozenSet[Reg]] = {0: frozenset()}

    def __len__(self) -> int:
        return len(self.regs)

    def mask_of(self, regs: Iterable[Reg]) -> int:
        index = self.index
        m = 0
        for r in regs:
            m |= 1 << index[r]
        return m

    def expand(self, mask: int) -> List[Reg]:
        """Registers of ``mask``, ascending bit (== ``str``) order."""
        regs = self.regs
        return [regs[i] for i in bit_indices(mask)]

    def frozen(self, mask: int) -> FrozenSet[Reg]:
        """Memoized frozenset materialization of ``mask``."""
        f = self._frozen.get(mask)
        if f is None:
            f = frozenset(self.expand(mask))
            self._frozen[mask] = f
        return f


class DenseLiveness:
    """Bitmask payload attached to a dense-built :class:`Liveness`.

    Register masks are indexed by :class:`DenseMap` bit; slot masks are
    indexed by instruction slot.  Downstream passes (:mod:`repro.cfg.nsr`,
    :func:`build_interference_dense`, :func:`finish_analysis_dense`) key
    off this payload's presence instead of re-consulting the registry, so
    one analysis never mixes implementations.
    """

    __slots__ = (
        "dmap",
        "live_in",
        "live_out",
        "defs",
        "uses",
        "occ",
        "dying",
        "_slot_masks",
        "_occupied",
    )

    def __init__(
        self,
        dmap: DenseMap,
        live_in: List[int],
        live_out: List[int],
        defs: List[int],
        uses: List[int],
    ) -> None:
        self.dmap = dmap
        self.live_in = live_in
        self.live_out = live_out
        self.defs = defs
        self.uses = uses
        #: A range occupies slot ``i`` when live into it or defined there.
        self.occ = [li | d for li, d in zip(live_in, defs)]
        #: A range dies at ``i`` when used there but not live out.
        self.dying = [u & ~o for u, o in zip(uses, live_out)]
        self._slot_masks: Optional[List[int]] = None
        self._occupied: Dict[Reg, FrozenSet[int]] = {}

    def slot_masks(self) -> List[int]:
        """Per register (by dense index), the mask of occupied slots."""
        if self._slot_masks is None:
            sm = [0] * len(self.dmap)
            for i, m in enumerate(self.occ):
                bit = 1 << i
                while m:
                    low = m & -m
                    sm[low.bit_length() - 1] |= bit
                    m ^= low
            self._slot_masks = sm
        return self._slot_masks

    def occupied_frozen(self, reg: Reg) -> FrozenSet[int]:
        """Memoized occupied-slot frozenset (the fast path behind
        :func:`repro.cfg.liveness.occupied_slots`)."""
        f = self._occupied.get(reg)
        if f is None:
            i = self.dmap.index.get(reg)
            mask = self.slot_masks()[i] if i is not None else 0
            f = frozenset(bit_indices(mask))
            self._occupied[reg] = f
        return f


# ---------------------------------------------------------------------------
# Liveness.
# ---------------------------------------------------------------------------
def compute_liveness_dense(program: Program) -> Liveness:
    """The backward liveness worklist over bitmasks.

    Returns a :class:`Liveness` whose frozensets are materialized only at
    this API boundary (and interned through the :class:`DenseMap` memo);
    the raw masks ride along as the ``_dense`` payload.
    """
    instrs = program.instrs
    n = len(instrs)
    defs_l = [ins.defs for ins in instrs]
    uses_l = [ins.uses for ins in instrs]
    universe: set = set()
    for d in defs_l:
        universe.update(d)
    for u in uses_l:
        universe.update(u)
    dmap = DenseMap(universe)
    index = dmap.index

    def mask(regs: Tuple[Reg, ...]) -> int:
        m = 0
        for r in regs:
            m |= 1 << index[r]
        return m

    defs_m = [mask(d) for d in defs_l]
    uses_m = [mask(u) for u in uses_l]

    succs = [program.successors(i) for i in range(n)]
    preds: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        for s in succs[i]:
            preds[s].append(i)

    live_in = [0] * n
    live_out = [0] * n
    worklist = list(range(n))
    in_list = [True] * n
    while worklist:
        i = worklist.pop()
        in_list[i] = False
        out = 0
        for s in succs[i]:
            out |= live_in[s]
        new_in = (out & ~defs_m[i]) | uses_m[i]
        live_out[i] = out
        if new_in != live_in[i]:
            live_in[i] = new_in
            for p in preds[i]:
                if not in_list[p]:
                    in_list[p] = True
                    worklist.append(p)

    payload = DenseLiveness(dmap, live_in, live_out, defs_m, uses_m)
    frozen = dmap.frozen
    return Liveness(
        program=program,
        live_in=[frozen(m) for m in live_in],
        live_out=[frozen(m) for m in live_out],
        def_sets=[frozen(m) for m in defs_m],
        _dense=payload,
    )


# ---------------------------------------------------------------------------
# Interference graphs.
# ---------------------------------------------------------------------------
def build_interference_dense(
    liveness: Liveness, nsr: NsrInfo
) -> InterferenceGraphs:
    """GIG/BIG/IIG construction from adjacency bitmasks.

    Mirrors :func:`repro.igraph.interference.build_interference` exactly:
    the GIG gets every register as a node and the
    :func:`~repro.cfg.liveness.co_live_pairs` relation as edges (a def
    interferes with everything live-out plus the simultaneous-writes
    clique, entry-live registers form a clique); the BIG holds per-CSB
    cliques over boundary ranges; the IIGs carry GIG edges between
    internal ranges, asserting the paper's claim 2.
    """
    dl: DenseLiveness = liveness._dense  # type: ignore[assignment]
    dmap = dl.dmap
    regs = dmap.regs
    nregs = len(regs)
    n = len(liveness.program.instrs)

    adj = [0] * nregs
    entry_m = dl.live_in[0] if n else 0
    m = entry_m
    while m:
        low = m & -m
        adj[low.bit_length() - 1] |= entry_m & ~low
        m ^= low
    for i in range(n):
        d = dl.defs[i]
        if not d:
            continue
        out = dl.live_out[i]
        both = out | d
        m = d
        while m:
            low = m & -m
            adj[low.bit_length() - 1] |= both & ~low
            m ^= low
        m = out & ~d
        while m:
            low = m & -m
            adj[low.bit_length() - 1] |= d
            m ^= low
    gig = graph_from_dense(regs, (1 << nregs) - 1 if nregs else 0, adj)

    badj = [0] * nregs
    m = entry_m
    while m:
        low = m & -m
        badj[low.bit_length() - 1] |= entry_m & ~low
        m ^= low
    for c in nsr.csbs:
        am = dl.live_out[c] & ~dl.defs[c]
        m = am
        while m:
            low = m & -m
            badj[low.bit_length() - 1] |= am & ~low
            m ^= low
    boundary_mask = dmap.mask_of(nsr.boundary)
    big = graph_from_dense(regs, boundary_mask, badj)

    iigs: Dict[int, UndirectedGraph] = {
        rid: UndirectedGraph() for rid in range(nsr.n_regions)
    }
    for reg in nsr.internal:
        iigs[nsr.nsr_of_internal[reg]].add_node(reg)
    internal_mask = dmap.mask_of(nsr.internal)
    m = internal_mask
    while m:
        low = m & -m
        ai = low.bit_length() - 1
        m ^= low
        # Only pairs with the higher-indexed endpoint: each edge once, in
        # the reference's ``gig.edges()`` (str-sorted) order.
        pairs = adj[ai] & internal_mask & ~((low << 1) - 1)
        if not pairs:
            continue
        a = regs[ai]
        rid_a = nsr.nsr_of_internal[a]
        while pairs:
            lo2 = pairs & -pairs
            b = regs[lo2.bit_length() - 1]
            pairs ^= lo2
            rid_b = nsr.nsr_of_internal[b]
            if rid_a != rid_b:
                raise AssertionError(
                    f"internal ranges {a} (NSR {rid_a}) and {b} "
                    f"(NSR {rid_b}) interfere across regions; "
                    f"claim 2 violated"
                )
            iigs[rid_a].add_edge(a, b)

    return InterferenceGraphs(
        gig=gig,
        big=big,
        iigs=iigs,
        boundary=nsr.boundary,
        internal=nsr.internal,
    )


# ---------------------------------------------------------------------------
# The slot/occupant/conflict model.
# ---------------------------------------------------------------------------
class DenseAnalysisIndex:
    """Bitmask companion to a dense-built ``ThreadAnalysis``.

    Holds the analysis' :class:`DenseLiveness` -- per-slot occupant,
    def and dying masks over register indices -- and answers the
    allocation context's conflict probes in that index space:

    * :meth:`conflicts_at_slot` -- the three-formula kernel at one slot;
    * :meth:`conflict_masks` -- per other range, the slots where it
      truly conflicts with a given range, built per range on first use
      from per-range slot/def/dying-not-def masks;
    * :meth:`conflicts_at` -- the ``ThreadAnalysis.conflicts_at`` pair
      lists, derived on demand (no cold-path consumer needs them).
    """

    __slots__ = ("dmap", "_dl", "_exceptions", "_conflict_masks")

    def __init__(self, dl: DenseLiveness) -> None:
        self.dmap = dl.dmap
        self._dl = dl
        self._exceptions: Optional[Tuple[List[int], List[int]]] = None
        self._conflict_masks: Dict[Reg, Dict[Reg, int]] = {}

    def conflicts_at_slot(self, i: int, s: int) -> int:
        """Register-index mask of the ranges truly conflicting with range
        ``i`` at slot ``s`` (which it must occupy)."""
        dl = self._dl
        low = 1 << i
        d = dl.defs[s]
        if d & low:
            return dl.occ[s] & ~(dl.dying[s] & ~d) & ~low
        if dl.dying[s] & low:
            return dl.occ[s] & ~d & ~low
        return dl.occ[s] & ~low

    def _exception_masks(self) -> Tuple[List[int], List[int]]:
        """Per register index, the slots where it is defined and the slots
        where it dies without being defined.

        Built once and published in a single store, so a thread sharing
        the analysis sees either nothing or both lists.
        """
        exceptions = self._exceptions
        if exceptions is None:
            dl = self._dl
            nregs = len(self.dmap)
            dm = [0] * nregs
            ym = [0] * nregs
            for s, (d, y) in enumerate(zip(dl.defs, dl.dying)):
                bit = 1 << s
                for i in bit_indices(d):
                    dm[i] |= bit
                for i in bit_indices(y & ~d):
                    ym[i] |= bit
            exceptions = self._exceptions = (dm, ym)
        return exceptions

    def conflict_masks(self, reg: Reg) -> Dict[Reg, int]:
        """``{other: slot mask}`` of every range truly conflicting with
        ``reg``, ascending ``str`` order; memoized per register.

        With ``S`` a range's slot mask, ``D`` its def slots and ``Y`` its
        dying-not-def slots, ranges ``a`` and ``b`` conflict at
        ``S_a & S_b & ~((D_a & Y_b) | (Y_a & D_b))`` -- the
        def-vs-dying-use exception of
        :func:`repro.core.analysis.true_conflict` applied slot-parallel --
        and only ranges co-occupying one of ``a``'s slots can conflict.
        """
        cm = self._conflict_masks.get(reg)
        if cm is None:
            cm = {}
            a = self.dmap.index.get(reg)
            if a is not None:
                dl = self._dl
                sm = dl.slot_masks()
                dm, ym = self._exception_masks()
                occ = dl.occ
                sa, da, ya = sm[a], dm[a], ym[a]
                co = 0
                for s in bit_indices(sa):
                    co |= occ[s]
                co &= ~(1 << a)
                regs = self.dmap.regs
                for b in bit_indices(co):
                    m = sa & sm[b] & ~((da & ym[b]) | (ya & dm[b]))
                    if m:
                        cm[regs[b]] = m
            self._conflict_masks[reg] = cm
        return cm

    def conflicts_at(self) -> Dict[Reg, Tuple[Tuple[int, Reg], ...]]:
        """Every range's ``(slot, other)`` conflict pairs, ascending slot
        then ``str`` -- equal, order included, to the reference
        builder's ``conflicts_at``.

        Pair volume dominates large kernels (hundreds of thousands of
        tuples), so each slot's ``(s, b)`` tuples are built once and
        shared by all its occupants' lists: the clique case is two slice
        copies around the occupant's own entry, and the exception cases
        (:func:`repro.core.analysis.true_conflict`: a def skips the
        dying-not-def ranges, a dying use skips the defs) filter the
        shared list.
        """
        dl = self._dl
        dmap = self.dmap
        frozen = dmap.frozen
        conflicts: Dict[Reg, List[Tuple[int, Reg]]] = {
            r: [] for r in dmap.regs
        }
        for s, om in enumerate(dl.occ):
            if not (om & (om - 1)):
                continue  # fewer than two occupants: no pairs
            occ_list = dmap.expand(om)
            dm = dl.defs[s] & om
            dym = dl.dying[s] & om
            all_pairs = [(s, b) for b in occ_list]
            if not (dm and dym):
                # No def/dying-use exception possible: full clique.
                for p, a in enumerate(occ_list):
                    lst = conflicts[a]
                    lst.extend(all_pairs[:p])
                    lst.extend(all_pairs[p + 1 :])
                continue
            dnd_set = frozen(dym & ~dm)
            def_set = frozen(dm)
            m = om
            for p, a in enumerate(occ_list):
                low = m & -m
                m ^= low
                if dm & low:
                    excl = dnd_set
                elif dym & low:
                    excl = def_set
                else:
                    excl = None
                lst = conflicts[a]
                if excl:
                    lst.extend(
                        [
                            t
                            for t in all_pairs
                            if t[1] is not a and t[1] not in excl
                        ]
                    )
                else:
                    lst.extend(all_pairs[:p])
                    lst.extend(all_pairs[p + 1 :])
        return {r: tuple(v) for r, v in conflicts.items()}


def finish_analysis_dense(
    program: Program,
    liveness: Liveness,
    nsr: NsrInfo,
    graphs: InterferenceGraphs,
) -> "ThreadAnalysis":  # noqa: F821 - imported lazily to avoid a cycle
    """Build every ``ThreadAnalysis`` field from the liveness masks.

    Every dict/tuple is produced pre-sorted (slots ascend, mask bits
    ascend == ``str`` ascends), so no field needs a final sort and the
    result compares equal, order included, to the reference builder's.
    ``conflicts_at`` is left to :meth:`DenseAnalysisIndex.conflicts_at`,
    on first access: the conflict probes read the masks instead.
    """
    from repro.core.analysis import ThreadAnalysis

    dl: DenseLiveness = liveness._dense  # type: ignore[assignment]
    dmap = dl.dmap
    regs = dmap.regs
    frozen = dmap.frozen
    n = len(program.instrs)
    occ = dl.occ

    slots = {r: dl.occupied_frozen(r) for r in regs}

    flow: Dict[Reg, List[Tuple[int, int]]] = {r: [] for r in regs}
    for i in range(n):
        occ_i = occ[i]
        if not occ_i:
            continue
        for j in program.successors(i):
            m = liveness._dense.live_in[j] & occ_i  # type: ignore[union-attr]
            while m:
                low = m & -m
                flow[regs[low.bit_length() - 1]].append((i, j))
                m ^= low
    flow_edges = {r: tuple(sorted(e)) for r, e in flow.items()}

    occupants: Dict[int, Tuple[Reg, ...]] = {}
    for i in range(n):
        m = occ[i]
        if m:
            occupants[i] = tuple(dmap.expand(m))

    live_across = {
        c: frozen(dl.live_out[c] & ~dl.defs[c]) for c in nsr.csbs
    }
    csb_sets: Dict[Reg, set] = {r: set() for r in regs}
    for c, across in live_across.items():
        for reg in across:
            csb_sets[reg].add(c)
    for reg in liveness.entry_live():
        csb_sets[reg].add(-1)

    defs_at = {i: frozen(dl.defs[i]) for i in range(n) if dl.defs[i]}
    dying_at = {i: frozen(dl.dying[i]) for i in range(n) if dl.dying[i]}

    return ThreadAnalysis(
        program=program,
        liveness=liveness,
        nsr=nsr,
        graphs=graphs,
        slots=slots,
        flow_edges=flow_edges,
        occupants=occupants,
        live_across=live_across,
        csb_slots_of={r: frozenset(s) for r, s in csb_sets.items()},
        defs_at=defs_at,
        dying_at=dying_at,
        dense=DenseAnalysisIndex(dl),
    )
