"""Unit tests for web renaming."""

import random

import pytest

from repro.cfg.webs import (
    ENTRY,
    _rename_webs_dense,
    _web_partitions_dense,
    rename_webs,
)
from repro.ir.operands import VirtualReg
from repro.ir.parser import parse_program
from repro.sim.run import outputs_match, run_reference
from repro.suite.registry import BENCHMARKS, load
from tests.oracles import (
    partition_of,
    rename_webs_per_variable,
    web_partitions_per_variable,
)


def names(program):
    return {r.name for r in program.virtual_regs()}


def test_disconnected_reuses_are_split():
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
    out = rename_webs(p)
    assert len(names(out)) == 2


def test_connected_def_use_kept_together():
    p = parse_program(
        """
        movi %x, 1
        beqi %x, 0, other
        movi %a, 2
        br join
    other:
        movi %a, 3
    join:
        store %a, [%x]
        halt
        """,
        "t",
    )
    out = rename_webs(p)
    # Both defs of %a reach the same use: one web.
    a_names = {n for n in names(out) if n.startswith("a")}
    assert a_names == {"a"}


def test_loop_carried_value_is_one_web():
    p = parse_program(
        """
        movi %i, 0
    loop:
        addi %i, %i, 1
        blti %i, 5, loop
        store %i, [%i]
        halt
        """,
        "t",
    )
    out = rename_webs(p)
    assert {n for n in names(out) if n.startswith("i")} == {"i"}


def test_renaming_preserves_semantics(mini_kernel):
    out = rename_webs(mini_kernel)
    a = run_reference([mini_kernel], packets_per_thread=4)
    b = run_reference([out], packets_per_thread=4)
    assert outputs_match(a, b)


def test_renaming_is_idempotent():
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
    once = rename_webs(p)
    twice = rename_webs(once)
    assert [str(i) for i in once.instrs] == [str(i) for i in twice.instrs]


def test_entry_live_uses_form_one_web():
    p = parse_program(
        "store %x, [%x]\nstore %x, [%x + 1]\nhalt\n", "t"
    )
    out = rename_webs(p)
    assert {n for n in names(out) if n.startswith("x")} == {"x"}


def test_benchmark_scratch_reuse_is_split():
    from repro.suite import load

    md5 = load("md5")
    out = rename_webs(md5)
    nb_webs = {n for n in names(out) if n.startswith("nb")}
    assert len(nb_webs) > 1  # the per-step scratch splits into many webs


# ---------------------------------------------------------------------------
# One all-variables reaching-definitions fixpoint vs one per variable


def random_program_text(rng: random.Random, nregs: int = 4) -> str:
    """A random program with branches, loops, ``ctx`` and name reuse.

    Registers may be read before any def (entry-live or uninitialised
    reads) and code after an unconditional branch may be unreachable;
    every label is placed and the program ends in ``halt``, so it passes
    the structural checks of :func:`repro.ir.validate.validate_program`.
    """
    regs = [f"%r{i}" for i in range(nregs)]
    n = rng.randint(1, 16)
    labels = [f"L{k}" for k in range(rng.randint(0, 3))]
    place = {label: rng.randint(0, n) for label in labels}
    lines = []
    for i in range(n + 1):
        lines.extend(f"{label}:" for label, at in place.items() if at == i)
        if i == n:
            break
        c = rng.randrange(7)
        d, a, b = (rng.choice(regs) for _ in range(3))
        if c <= 1:
            lines.append(f"movi {d}, {rng.randint(0, 9)}")
        elif c == 2:
            lines.append(f"add {d}, {a}, {b}")
        elif c == 3:
            lines.append(f"store {a}, [{b} + 1]")
        elif c == 4 and labels:
            lines.append(f"beqi {a}, {rng.randint(0, 2)}, {rng.choice(labels)}")
        elif c == 5 and labels:
            lines.append(f"br {rng.choice(labels)}")
        else:
            lines.append("ctx")
    lines.append("halt")
    return "\n".join(lines) + "\n"


def _block(uf, members, x):
    root = uf.find(x)
    return frozenset(m for m in members if uf.find(m) == root)


def assert_same_web_partitions(program):
    got = _web_partitions_dense(program)
    want = web_partitions_per_variable(program)
    assert list(got) == list(want)
    for var, (uf, use_webs, defs, uses) in got.items():
        wuf, wuse_webs, wdefs, wuses = want[var]
        assert (defs, uses) == (wdefs, wuses)
        members = defs + [ENTRY]
        assert partition_of(uf, members) == partition_of(wuf, members)
        for u in uses:
            assert _block(uf, members, use_webs[u]) == _block(
                wuf, members, wuse_webs[u]
            )
    renamed = _rename_webs_dense(program)
    oracle = rename_webs_per_variable(program)
    assert renamed.instrs == oracle.instrs
    assert renamed.labels == oracle.labels


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_suite_web_partitions_match_per_variable_fixpoints(name):
    assert_same_web_partitions(load(name))


def test_random_web_partitions_match_per_variable_fixpoints():
    for seed in range(300):
        text = random_program_text(random.Random(seed))
        assert_same_web_partitions(parse_program(text, f"gen{seed}"))
