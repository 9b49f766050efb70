"""Differential tests for the allocator's touch-proportional probes.

* :meth:`AllocContext.validate` checks conflict-freedom slot by slot; it
  must reject a context exactly when a brute-force oracle over the
  analysis' ``conflicts_at`` pairs finds two truly conflicting pieces on
  one color (or a boundary piece on a shared color).
* :meth:`IntraAllocator._try_absorb` visits only the flow edges incident
  to a piece; it must decide exactly as a full scan of the range's edges.
* :meth:`AllocContext.colors_in_conflict` is the key set of
  :meth:`AllocContext.conflict_profile`.

Contexts come from every suite kernel (or md5/wraps_recv for the probe
tests), initial and ``pointwise``, under both analysis implementations.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.core.analysis import analyze_thread
from repro.core.bounds import estimate_bounds
from repro.core.context import initial_context
from repro.core.intra import IntraAllocator
from repro.errors import AllocationError
from repro.suite.registry import BENCHMARKS, load
from tests.test_dense import using

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

IMPLS = ("dense", "reference")


@pytest.fixture(autouse=True, scope="module")
def _release_contexts():
    """The memoized analyses and contexts below live for this module only."""
    yield
    for memo in (_allocator, _context, _conflict_pairs, _scrambled):
        memo.cache_clear()


@functools.lru_cache(maxsize=None)
def _allocator(name, impl):
    with using(impl):
        an = analyze_thread(load(name))
    assert (an.dense is not None) == (impl == "dense")
    return IntraAllocator(an, estimate_bounds(an))


@functools.lru_cache(maxsize=None)
def _context(name, impl, kind):
    """A valid context to mutate: the unsplit initial coloring at the
    upper bounds, or the one-piece-per-slot rebuild at the floor."""
    alloc = _allocator(name, impl)
    b = alloc.bounds
    if kind == "initial":
        return initial_context(
            alloc.analysis, b.coloring, b.max_pr, b.max_r - b.max_pr
        )
    return alloc.pointwise(b.min_pr, b.min_r - b.min_pr)


@functools.lru_cache(maxsize=None)
def _conflict_pairs(name):
    """Each truly conflicting range pair once, with its conflict slots,
    regrouped from ``conflicts_at`` (identical for both implementations,
    see ``tests/test_dense.py``)."""
    an = _allocator(name, "dense").analysis
    out = []
    for a, pairs in an.conflicts_at.items():
        by_other = {}
        for s, b in pairs:
            by_other.setdefault(b, []).append(s)
        out.extend(
            ((a, b), ss) for b, ss in by_other.items() if str(a) < str(b)
        )
    return tuple(out)


def oracle_rejects(ctx, pairs):
    """Brute force: a boundary piece on a shared color, or two truly
    conflicting pieces on one color at any of their conflict slots."""
    an = ctx.analysis
    for piece in ctx.pieces.values():
        csbs = an.csb_slots_of.get(piece.reg, ())
        holds = any((0 if c == -1 else c) in piece.slots for c in csbs)
        if holds and piece.color >= ctx.pr:
            return True
    color = {pid: piece.color for pid, piece in ctx.pieces.items()}
    for (a, b), slots in pairs:
        ma, mb = ctx._assign[a], ctx._assign[b]
        if any(color[ma[s]] == color[mb[s]] for s in slots):
            return True
    return False


def _legal_colors(ctx, piece):
    palette = range(ctx.pr) if ctx.is_boundary(piece) else range(ctx.r)
    taken = set(ctx.conflict_profile(piece))
    return [c for c in palette if c not in taken and c != piece.color]


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_validate_matches_conflict_oracle(name, impl, data):
    kind = data.draw(st.sampled_from(["initial", "pointwise"]))
    ctx = _context(name, impl, kind).copy()
    for _ in range(data.draw(st.integers(1, 4))):
        pieces = ctx.all_pieces()
        piece = pieces[data.draw(st.integers(0, len(pieces) - 1))]
        op = data.draw(st.sampled_from(["recolor", "legal", "split"]))
        if op == "legal":
            legal = _legal_colors(ctx, piece)
            if legal:
                piece.color = data.draw(st.sampled_from(legal))
            continue
        color = data.draw(st.integers(0, ctx.r - 1))
        if op == "split" and len(piece.slots) > 1:
            slots = sorted(piece.slots)
            part = data.draw(
                st.lists(
                    st.sampled_from(slots),
                    min_size=1,
                    max_size=len(slots) - 1,
                    unique=True,
                )
            )
            ctx.split_piece(piece, frozenset(part), color)
        else:
            piece.color = color
    if oracle_rejects(ctx, _conflict_pairs(name)):
        with pytest.raises(AllocationError):
            ctx.validate()
    else:
        ctx.validate()


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_validate_rejects_shared_boundary_pieces(name, impl):
    for kind in ("initial", "pointwise"):
        ctx = _context(name, impl, kind).copy()
        ctx.validate()
        if ctx.sr == 0:
            continue
        boundary = [p for p in ctx.all_pieces() if ctx.is_boundary(p)]
        if not boundary:
            continue
        boundary[0].color = ctx.pr
        with pytest.raises(AllocationError, match="boundary"):
            ctx.validate()


# ---------------------------------------------------------------------------
# Move elimination and the membership probe.

PROBE_KERNELS = ("md5", "wraps_recv")


@functools.lru_cache(maxsize=None)
def _scrambled(name):
    """The dense ``pointwise`` context with a seeded third of its pieces
    moved to other legal colors, so move elimination has work to do."""
    ctx = _context(name, "dense", "pointwise").copy()
    rng = random.Random(name)
    for piece in ctx.all_pieces():
        if rng.random() < 0.3:
            legal = _legal_colors(ctx, piece)
            if legal:
                piece.color = rng.choice(legal)
    ctx.validate()
    return ctx


def full_scan_absorb(ctx, piece, palette):
    """``_try_absorb``'s decision from a scan of every flow edge of the
    range: the color it would move ``piece`` to, or None."""
    gains = {}
    for i, j in ctx.analysis.flow_edges.get(piece.reg, ()):
        pa = ctx.piece_of(piece.reg, i)
        pb = ctx.piece_of(piece.reg, j)
        if pa.pid == piece.pid and pb.pid != piece.pid:
            gains[pb.color] = gains.get(pb.color, 0) + 1
        elif pb.pid == piece.pid and pa.pid != piece.pid:
            gains[pa.color] = gains.get(pa.color, 0) + 1
    current = gains.get(piece.color, 0)
    profile = ctx.conflict_profile(piece)
    for col, gain in sorted(gains.items()):
        if gain > current and col != piece.color and col in palette:
            if col not in profile:
                return col
    return None


@pytest.mark.parametrize("name", PROBE_KERNELS)
def test_try_absorb_matches_full_edge_scan(name):
    alloc = _allocator(name, "dense")
    ctx = _scrambled(name).copy()
    pieces = ctx.all_pieces()
    sample = random.Random(1).sample(pieces, min(len(pieces), 1000))
    moved = 0
    for piece in sample:
        want = full_scan_absorb(ctx, piece, alloc._palette(ctx, piece))
        old = piece.color
        got = piece.color if alloc._try_absorb(ctx, piece) else None
        piece.color = old
        assert got == want, (piece.reg, piece.pid)
        moved += want is not None
    assert moved, "no piece had a profitable recoloring"


@pytest.mark.parametrize("kind", ["initial", "pointwise", "scrambled"])
@pytest.mark.parametrize("name", PROBE_KERNELS)
def test_colors_in_conflict_is_profile_key_set(name, kind):
    if kind == "scrambled":
        ctx = _scrambled(name)
    else:
        ctx = _context(name, "dense", kind)
    pieces = ctx.all_pieces()
    for piece in random.Random(2).sample(pieces, min(len(pieces), 2000)):
        want = set(ctx.conflict_profile(piece))
        assert ctx.colors_in_conflict(piece) == want


def _halved(name, impl):
    """The initial context with every range of more than eight slots
    split into two halves: pieces that own many, but not all, of their
    range's slots."""
    ctx = _context(name, impl, "initial").copy()
    for piece in ctx.all_pieces():
        slots = sorted(piece.slots)
        if len(slots) > 8:
            half = frozenset(slots[: len(slots) // 2])
            ctx.split_piece(piece, half, piece.color)
    return ctx


@pytest.mark.parametrize("kind", ["initial", "pointwise", "halved"])
@pytest.mark.parametrize("name", PROBE_KERNELS)
def test_dense_probes_match_reference_analysis(name, kind):
    # Both implementations build identical contexts; the dense probes --
    # slot by slot for small pieces, per-range masks otherwise -- must
    # give the reference analysis' answers, profile order included.
    if kind == "halved":
        dctx, rctx = _halved(name, "dense"), _halved(name, "reference")
    else:
        dctx = _context(name, "dense", kind)
        rctx = _context(name, "reference", kind)
    assert sorted(dctx.pieces) == sorted(rctx.pieces)
    rng = random.Random(3)
    sample = rng.sample(sorted(dctx.pieces), min(len(dctx.pieces), 300))
    for pid in sample:
        dp, rp = dctx.pieces[pid], rctx.pieces[pid]
        assert (dp.reg, dp.slots, dp.color) == (rp.reg, rp.slots, rp.color)
        want = rctx.colors_in_conflict(rp)
        assert dctx.colors_in_conflict(dp) == want
        clash = min(want) if want else dp.color
        for color in (dp.color, clash, rng.randrange(dctx.r)):
            assert dctx.conflicts_any(dp, color) == rctx.conflicts_any(
                rp, color
            )
        got_profile = [
            (c, [p.pid for p in e[0]], e[1])
            for c, e in dctx.conflict_profile(dp).items()
        ]
        want_profile = [
            (c, [p.pid for p in e[0]], e[1])
            for c, e in rctx.conflict_profile(rp).items()
        ]
        assert got_profile == want_profile
