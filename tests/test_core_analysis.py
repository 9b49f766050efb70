"""Unit tests for the per-thread analysis bundle."""

import pytest

from repro.core.analysis import analyze_thread
from repro.ir.operands import VirtualReg
from repro.ir.parser import parse_program
from repro.suite.registry import BENCHMARKS, load


def v(name):
    return VirtualReg(name)


def test_slots_cover_def_and_liveness(straight):
    an = analyze_thread(straight)
    assert an.slots[v("a")] == frozenset({0, 1, 2, 3, 4})
    # %b: defined at 2, used at 3.
    assert an.slots[v("b")] == frozenset({2, 3})


def test_flow_edges_follow_control_flow(straight):
    an = analyze_thread(straight)
    assert (0, 1) in an.flow_edges[v("a")]
    assert (3, 4) in an.flow_edges[v("c")]
    # %b dies at 3: no edge (3, 4).
    assert (3, 4) not in an.flow_edges[v("b")]


def test_occupants_sorted_and_complete(straight):
    an = analyze_thread(straight)
    occ3 = an.occupants[3]
    assert v("a") in occ3 and v("b") in occ3
    assert list(occ3) == sorted(occ3, key=str)


def test_live_across_matches_liveness(straight):
    an = analyze_thread(straight)
    assert an.live_across[1] == frozenset({v("a")})


def test_csb_slots_of_entry_sentinel():
    p = parse_program("store %x, [%x]\nhalt\n", "t")
    an = analyze_thread(p)
    assert -1 in an.csb_slots_of[v("x")]


def test_interferes_at_exception(straight):
    an = analyze_thread(straight)
    # At instruction 3 (add %c, %a, %b): %c defined, %b dies there.
    assert not an.interferes_at(v("c"), v("b"), 3)
    # %a survives (used by the store at 4): conflicts with the def.
    assert an.interferes_at(v("c"), v("a"), 3)


def test_conflicts_at_symmetry(straight):
    an = analyze_thread(straight)
    for reg, pairs in an.conflicts_at.items():
        for s, other in pairs:
            assert (s, reg) in an.conflicts_at[other]


def test_web_renaming_applied():
    p = parse_program(
        """
        movi %t, 1
        store %t, [%t]
        movi %t, 2
        store %t, [%t]
        halt
        """,
        "t",
    )
    an = analyze_thread(p)
    assert len(an.program.virtual_regs()) == 2


def test_nsr_of_slot(straight):
    an = analyze_thread(straight)
    assert an.nsr_of_slot(1) == -1  # the ctx
    assert an.nsr_of_slot(2) >= 0


def test_conflicts_by_slot_matches_linear_scan(straight):
    an = analyze_thread(straight)
    for reg, pairs in an.conflicts_at.items():
        index = an.conflicts_by_slot(reg)
        # Regrouping preserves content and per-slot order...
        rebuilt = [p for s in sorted(index) for p in index[s]]
        assert sorted(rebuilt) == sorted(pairs)
        # ...and walking any slot subset replays the filtered subsequence.
        slots = sorted({s for s, _ in pairs})[::2]
        want = [p for p in pairs if p[0] in set(slots)]
        got = [p for s in slots for p in index.get(s, ())]
        assert sorted(got) == sorted(want)


SELF_LOOP = """
    movi %a, 3
spin:
    bnei %a, 0, spin
    store %a, [%a]
    halt
"""


@pytest.mark.parametrize(
    "name", ["straight", "self_loop", *sorted(BENCHMARKS)]
)
def test_flow_edges_by_slot_indexes_both_endpoints(straight, name):
    if name == "straight":
        program = straight
    elif name == "self_loop":
        program = parse_program(SELF_LOOP, name)
    else:
        program = load(name)
    an = analyze_thread(program)
    if name == "self_loop":
        assert (1, 1) in an.flow_edges[v("a")]
    for reg, edges in an.flow_edges.items():
        index = an.flow_edges_by_slot(reg)
        # Every edge sits under each endpoint, once for a self-loop...
        want = {}
        for i, j in edges:
            for s in {i, j}:
                want.setdefault(s, []).append((i, j))
        assert {s: sorted(es) for s, es in index.items()} == want
        # ...and nothing else is indexed.
        total = sum(len(es) for es in index.values())
        assert total == sum(1 if i == j else 2 for i, j in edges)
        assert an.flow_edges_by_slot(reg) is index  # cached
