"""Allocation contexts: colored live-range pieces.

The intra-thread allocator (paper section 7) works by *live-range
splitting*: an original live range is partitioned into **pieces**, each a
set of occupied instruction slots with its own color.  A ``mov`` is paid on
every control-flow edge that carries the range between two pieces of
different colors.

Color convention: colors ``0 .. pr-1`` are **private** (they will map to
this thread's private physical registers), colors ``pr .. pr+sr-1`` are
**shared**.  A piece that holds its range at a CSB slot the range is live
across (or at program entry while the range is entry-live) is a *boundary
piece* and must use a private color; every other piece may use any color.

:class:`AllocContext` is a value object: the reduction operators copy it,
mutate the copy, and either commit or discard -- this is the paper's
"record the context of the last 2 invocations" machinery made explicit.
Copies are cheap: the slot->piece assignment is stored per variable and
copied lazily on first write (the reduction operators touch only a handful
of variables per step).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.core.analysis import ThreadAnalysis, true_conflict
from repro.core.dense import mask_of_slots
from repro.errors import AllocationError
from repro.ir.operands import Reg

#: A :meth:`AllocContext.conflict_profile` entry: the conflicting pieces
#: (in first-conflict order) and the bitmask of slots where the conflicts
#: occur.  A mutable 2-list rather than a tuple so both builders can
#: accumulate in place.
ProfileEntry = List  # [List[Piece], int]


@dataclass
class Piece:
    """One piece of a split live range."""

    pid: int
    reg: Reg
    slots: FrozenSet[int]
    color: int


class AllocContext:
    """A full coloring-with-splits of one thread.

    Attributes:
        analysis: the thread's static analysis (shared, never copied).
        pr: number of private colors in use (palette ``[0, pr)``).
        sr: number of shared colors in use (palette ``[pr, pr + sr)``).
    """

    def __init__(self, analysis: ThreadAnalysis, pr: int, sr: int):
        self.analysis = analysis
        self.pr = pr
        self.sr = sr
        self.pieces: Dict[int, Piece] = {}
        #: Per-variable slot -> pid assignment (copy-on-write).
        self._assign: Dict[Reg, Dict[int, int]] = {}
        #: Variables whose assignment map this context owns (mutable).
        self._owned: Set[Reg] = set()
        #: Piece count per variable (for the multi-piece fast path).
        self._piece_count: Dict[Reg, int] = {}
        self._next_pid = 0

    @property
    def multi_piece_regs(self) -> List[Reg]:
        """Variables split into more than one piece (the only ones that
        can contribute moves)."""
        return [r for r, n in self._piece_count.items() if n > 1]

    # ------------------------------------------------------------------
    # Basic accounting.
    # ------------------------------------------------------------------
    @property
    def r(self) -> int:
        return self.pr + self.sr

    def copy(self) -> "AllocContext":
        c = AllocContext(self.analysis, self.pr, self.sr)
        c.pieces = {
            pid: Piece(p.pid, p.reg, p.slots, p.color)
            for pid, p in self.pieces.items()
        }
        c._assign = dict(self._assign)  # shared var maps, cloned on write
        c._owned = set()
        c._piece_count = dict(self._piece_count)
        c._next_pid = self._next_pid
        return c

    def _writable_map(self, reg: Reg) -> Dict[int, int]:
        m = self._assign.get(reg)
        if m is None:
            m = {}
            self._assign[reg] = m
            self._owned.add(reg)
        elif reg not in self._owned:
            m = dict(m)
            self._assign[reg] = m
            self._owned.add(reg)
        return m

    def new_piece(self, reg: Reg, slots: FrozenSet[int], color: int) -> Piece:
        pid = self._next_pid
        self._next_pid += 1
        piece = Piece(pid, reg, slots, color)
        self.pieces[pid] = piece
        m = self._writable_map(reg)
        for s in slots:
            m[s] = pid
        self._piece_count[reg] = self._piece_count.get(reg, 0) + 1
        return piece

    def drop_piece(self, pid: int) -> None:
        piece = self.pieces.pop(pid)
        m = self._writable_map(piece.reg)
        for s in piece.slots:
            if m.get(s) == pid:
                del m[s]
        self._piece_count[piece.reg] -= 1

    def piece_of(self, reg: Reg, slot: int) -> Piece:
        return self.pieces[self._assign[reg][slot]]

    def pieces_of(self, reg: Reg) -> List[Piece]:
        seen: Set[int] = set()
        out: List[Piece] = []
        m = self._assign.get(reg, {})
        for s in sorted(m):
            pid = m[s]
            if pid not in seen:
                seen.add(pid)
                out.append(self.pieces[pid])
        return out

    def all_pieces(self) -> List[Piece]:
        return [self.pieces[pid] for pid in sorted(self.pieces)]

    # ------------------------------------------------------------------
    # Boundary classification.
    # ------------------------------------------------------------------
    def boundary_slots(self, piece: Piece) -> FrozenSet[int]:
        """CSB slots at which this piece holds its range across a switch.

        Slot ``-1`` (program entry) is reported when the range is live at
        entry and the piece owns slot 0.
        """
        out: Set[int] = set()
        for c in self.analysis.csb_slots_of.get(piece.reg, frozenset()):
            if c == -1:
                if 0 in piece.slots:
                    out.add(-1)
            elif c in piece.slots:
                out.add(c)
        return frozenset(out)

    def is_boundary(self, piece: Piece) -> bool:
        an = self.analysis
        for c in an.csb_slots_of.get(piece.reg, ()):
            if c == -1:
                if 0 in piece.slots:
                    return True
            elif c in piece.slots:
                return True
        return False

    # ------------------------------------------------------------------
    # Interference and conflicts.
    # ------------------------------------------------------------------
    def conflict_profile(self, piece: Piece) -> Dict[int, ProfileEntry]:
        """One sweep over the piece's slots: for every color used by a
        truly-conflicting piece, the conflicting pieces and the slots where
        the conflicts occur.

        ``profile[c] = [pieces, slot_mask]`` means coloring ``piece`` with
        ``c`` clashes with ``pieces`` at the slots of ``slot_mask``.

        A dense-built analysis answers from the precomputed per-range
        conflict masks; the reference sweep below walks the conflict pairs
        directly.  Both produce the same entries, piece order included.
        """
        dense = getattr(self.analysis, "dense", None)
        if dense is not None:
            return self._conflict_profile_dense(piece, dense)
        by_color: Dict[int, ProfileEntry] = {}
        seen_pids: Set[int] = set()
        pieces = self.pieces
        assign = self._assign
        slots = piece.slots
        whole = len(slots) == len(self.analysis.slots[piece.reg])
        if whole:
            pairs = self.analysis.conflicts_at.get(piece.reg, ())
        else:
            # Split piece: visit only the slots it owns, via the per-slot
            # index.  Ascending slots, original order within each slot --
            # the exact subsequence the linear scan above would keep.
            index = self.analysis.conflicts_by_slot(piece.reg)
            pairs = [
                pair
                for s in sorted(slots)
                for pair in index.get(s, ())
            ]
        for s, other_reg in pairs:
            other = pieces[assign[other_reg][s]]
            entry = by_color.get(other.color)
            if entry is None:
                entry = [[], 0]
                by_color[other.color] = entry
            if other.pid not in seen_pids:
                seen_pids.add(other.pid)
                entry[0].append(other)
            entry[1] |= 1 << s
        return by_color

    def _conflict_profile_dense(
        self, piece: Piece, dense: object
    ) -> Dict[int, ProfileEntry]:
        """Mask-backed :meth:`conflict_profile`.

        The per-other-range conflict masks are built once per range
        (:meth:`repro.core.dense.DenseAnalysisIndex.conflict_masks`); a
        probe intersects them with the piece's slot mask and groups the
        surviving bits by occupying piece.  Entries are emitted in the
        reference order -- ascending (first conflicting slot, other-range
        rank), which is exactly the first-occurrence order of the sorted
        conflict-pair walk above.
        """
        an = self.analysis
        reg = piece.reg
        masks = dense.conflict_masks(reg)  # type: ignore[attr-defined]
        if not masks:
            return {}
        whole = len(piece.slots) == len(an.slots[reg])
        pmask = None if whole else mask_of_slots(piece.slots)
        rank = dense.dmap.index  # type: ignore[attr-defined]
        pieces = self.pieces
        assign = self._assign
        counts = self._piece_count
        entries: List[Tuple[int, int, int, Piece]] = []
        for other_reg, m in masks.items():
            if pmask is not None:
                m &= pmask
                if not m:
                    continue
            oidx = rank[other_reg]
            om = assign[other_reg]
            if counts.get(other_reg, 0) <= 1:
                low = m & -m
                entries.append(
                    (low.bit_length() - 1, oidx, m, pieces[om[low.bit_length() - 1]])
                )
            else:
                # Split other range: group its conflict slots by piece.
                groups: Dict[int, List[int]] = {}
                while m:
                    low = m & -m
                    m ^= low
                    pid = om[low.bit_length() - 1]
                    g = groups.get(pid)
                    if g is None:
                        groups[pid] = [low.bit_length() - 1, low]
                    else:
                        g[1] |= low
                for pid, (first, gm) in groups.items():
                    entries.append((first, oidx, gm, pieces[pid]))
        entries.sort(key=lambda e: (e[0], e[1]))
        by_color: Dict[int, ProfileEntry] = {}
        for _, _, gm, other in entries:
            entry = by_color.get(other.color)
            if entry is None:
                entry = [[], 0]
                by_color[other.color] = entry
            entry[0].append(other)
            entry[1] |= gm
        return by_color

    def conflicts_with_color(
        self, piece: Piece, color: int
    ) -> List[Tuple[Piece, int]]:
        """Pieces that clash with ``piece`` if it were colored ``color``.

        Returns ``(other_piece, slot)`` pairs, one entry per conflicting
        piece (the slot is one witness).
        """
        seen: Set[int] = set()
        out: List[Tuple[Piece, int]] = []
        an = self.analysis
        for s in sorted(piece.slots):
            for other_reg in an.occupants.get(s, ()):
                if other_reg == piece.reg:
                    continue
                other = self.pieces[self._assign[other_reg][s]]
                if other.pid in seen or other.color != color:
                    continue
                if an.interferes_at(piece.reg, other_reg, s):
                    seen.add(other.pid)
                    out.append((other, s))
        return out

    def conflicts_any(self, piece: Piece, color: int) -> bool:
        """Would coloring ``piece`` with ``color`` clash with anything?

        Boolean-only form of :meth:`conflicts_with_color` for the
        allocator's yes/no probes; a dense-built analysis answers from
        :meth:`colors_in_conflict`.
        """
        if getattr(self.analysis, "dense", None) is None:
            return bool(self.conflicts_with_color(piece, color))
        return color in self.colors_in_conflict(piece)

    def colors_in_conflict(self, piece: Piece) -> Set[int]:
        """All colors used by pieces truly conflicting with ``piece``.

        The key set of :meth:`conflict_profile`, for membership-only
        probes.  A dense-built analysis answers in register index space
        and builds no ordered entry lists: a split piece reads each of
        its slots' conflict mask
        (:meth:`~repro.core.dense.DenseAnalysisIndex.conflicts_at_slot`),
        touching just the co-occupants there; a piece holding its whole
        range reads the range's per-other-range conflict masks.
        """
        dense = getattr(self.analysis, "dense", None)
        if dense is None:
            return set(self.conflict_profile(piece))
        reg = piece.reg
        slots = piece.slots
        pieces = self.pieces
        assign = self._assign
        colors: Set[int] = set()
        add = colors.add
        whole = len(slots) == len(self.analysis.slots[reg])
        if not whole:
            i = dense.dmap.index[reg]  # type: ignore[attr-defined]
            regs = dense.dmap.regs  # type: ignore[attr-defined]
            at_slot = dense.conflicts_at_slot  # type: ignore[attr-defined]
            for s in slots:
                m = at_slot(i, s)
                while m:
                    low = m & -m
                    m ^= low
                    add(pieces[assign[regs[low.bit_length() - 1]][s]].color)
            return colors
        counts = self._piece_count
        masks = dense.conflict_masks(reg)  # type: ignore[attr-defined]
        for other_reg, m in masks.items():
            om = assign[other_reg]
            if counts.get(other_reg, 0) <= 1:
                add(pieces[om[(m & -m).bit_length() - 1]].color)
                continue
            while m:
                low = m & -m
                m ^= low
                add(pieces[om[low.bit_length() - 1]].color)
        return colors

    def color_users(self, color: int) -> List[Piece]:
        """All pieces currently holding ``color``."""
        return [p for p in self.all_pieces() if p.color == color]

    # ------------------------------------------------------------------
    # Cost.
    # ------------------------------------------------------------------
    def move_cost(self) -> int:
        """Number of ``mov`` instructions this context requires: one per
        flow edge whose endpoints live in pieces of different colors.

        Only variables split into several pieces can contribute.
        """
        cost = 0
        for reg in self.multi_piece_regs:
            m = self._assign[reg]
            pieces = self.pieces
            for i, j in self.analysis.flow_edges.get(reg, ()):
                if pieces[m[i]].color != pieces[m[j]].color:
                    cost += 1
        return cost

    def flow_neighbor_colors(self, piece: Piece) -> Dict[int, int]:
        """Colors of the other pieces of ``piece``'s range across its flow
        edges, each with its edge count: the crossings that recoloring
        ``piece`` to that color would remove.

        Visits only the edges incident to the piece's own slots
        (:meth:`ThreadAnalysis.flow_edges_by_slot`).  An edge with both
        ends in the piece counts for nothing, so seeing it once from each
        end changes no count.
        """
        m = self._assign[piece.reg]
        pieces = self.pieces
        pid = piece.pid
        index = self.analysis.flow_edges_by_slot(piece.reg)
        gains: Dict[int, int] = {}
        for s in piece.slots:
            for i, j in index.get(s, ()):
                other = m[j if i == s else i]
                if other != pid:
                    color = pieces[other].color
                    gains[color] = gains.get(color, 0) + 1
        return gains

    def crossing_edges(self) -> List[Tuple[Reg, int, int]]:
        """The flow edges that need a materialized move: ``(reg, i, j)``."""
        out: List[Tuple[Reg, int, int]] = []
        for reg in sorted(self.multi_piece_regs, key=str):
            m = self._assign[reg]
            for i, j in self.analysis.flow_edges.get(reg, ()):
                if self.pieces[m[i]].color != self.pieces[m[j]].color:
                    out.append((reg, i, j))
        return out

    # ------------------------------------------------------------------
    # Splitting primitive.
    # ------------------------------------------------------------------
    def split_piece(
        self, piece: Piece, part: FrozenSet[int], color: int
    ) -> Piece:
        """Carve ``part`` out of ``piece`` into a new piece with ``color``.

        ``part`` must be a non-empty proper subset of the piece's slots.
        Returns the new piece; the original keeps the remaining slots.
        """
        if not part or not part < piece.slots:
            raise AllocationError(
                f"split of piece {piece.pid} ({piece.reg}) must take a "
                f"non-empty proper subset of its slots"
            )
        piece.slots = piece.slots - part
        return self.new_piece(piece.reg, part, color)

    # ------------------------------------------------------------------
    # Validation.
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every invariant; raise :class:`AllocationError` on failure.

        * every occupied slot of every range belongs to exactly one piece;
        * colors fit the palette; boundary pieces use private colors;
        * no two truly-conflicting pieces share a color.
        """
        an = self.analysis
        for reg, slots in an.slots.items():
            m = self._assign.get(reg, {})
            if m.keys() >= slots:
                continue
            for s in slots:
                if s not in m:
                    raise AllocationError(f"{reg} slot {s} unassigned")
        for piece in self.all_pieces():
            if not 0 <= piece.color < self.r:
                raise AllocationError(
                    f"piece {piece.pid} ({piece.reg}) color {piece.color} "
                    f"outside palette [0, {self.r})"
                )
            if self.is_boundary(piece) and piece.color >= self.pr:
                raise AllocationError(
                    f"boundary piece {piece.pid} ({piece.reg}) uses shared "
                    f"color {piece.color} (pr={self.pr})"
                )
        # Only co-occupants of one slot can conflict, and only those
        # sharing a color can clash: group each slot's occupants by piece
        # color and test true_conflict within a group.  O(occupancy), and
        # the same check for dense and reference analyses.  A slot whose
        # occupants all hold distinct colors needs no grouping.
        pieces = self.pieces
        assign = self._assign
        empty: FrozenSet[Reg] = frozenset()
        for s, occ in an.occupants.items():
            if len(occ) < 2:
                continue
            colors = [pieces[assign[reg][s]].color for reg in occ]
            if len(set(colors)) == len(colors):
                continue
            groups: Dict[int, List[Reg]] = {}
            for reg, color in zip(occ, colors):
                group = groups.setdefault(color, [])
                for other in group:
                    if true_conflict(
                        other,
                        reg,
                        an.defs_at.get(s, empty),
                        an.dying_at.get(s, empty),
                    ):
                        raise AllocationError(
                            f"{other} and {reg} conflict at slot {s} but "
                            f"share color {color}"
                        )
                group.append(reg)


def initial_context(
    analysis: ThreadAnalysis,
    coloring: Dict[Reg, int],
    pr: int,
    sr: int,
) -> AllocContext:
    """Build the unsplit context from an estimation coloring.

    Every live range becomes a single piece covering all its slots, colored
    per ``coloring``.  The context is validated before being returned.
    """
    ctx = AllocContext(analysis, pr, sr)
    for reg in analysis.all_regs:
        ctx.new_piece(reg, analysis.slots[reg], coloring[reg])
    ctx.validate()
    return ctx
