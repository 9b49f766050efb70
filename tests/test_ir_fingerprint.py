"""Tests for ``Program.fingerprint`` -- the analysis-cache key.

The cache in :mod:`repro.core.cache` is content-addressed, so the whole
correctness story rests on two properties checked here: any structural
mutation changes the digest (no stale entry can ever be served), and
parse -> print -> parse round trips preserve it (re-loading a kernel
hits the cache).
"""

from __future__ import annotations

from typing import List

import pytest

from repro.ir.parser import parse_program
from repro.ir.printer import format_program
from tests.conftest import FIG3_T1, MINI_KERNEL

BASE = """
start:
  movi %a, 1
  movi %b, 2
  add %c, %a, %b
  beqi %c, 3, start
  store %c, [%a + 4]
  halt
"""


def fp(text, name="k"):
    return parse_program(text, name).fingerprint()


def test_deterministic_across_objects():
    assert fp(BASE) == fp(BASE)
    assert fp(MINI_KERNEL) == fp(MINI_KERNEL)


def test_name_is_part_of_identity():
    assert fp(BASE, "a") != fp(BASE, "b")


@pytest.mark.parametrize(
    "mutation",
    [
        BASE.replace("%a, 1", "%a, 9"),           # immediate
        BASE.replace("add %c", "sub %c"),          # opcode
        BASE.replace("%c, %a, %b", "%c, %b, %a"),  # operand order
        BASE.replace("%b", "%bb"),                 # register rename
        BASE.replace("+ 4", "+ 5"),                # memory offset
        BASE.replace("  halt", "  ctx\n  halt"),   # inserted instruction
        BASE.replace("  store %c, [%a + 4]\n", ""),  # deleted instruction
    ],
)
def test_mutation_changes_digest(mutation):
    assert mutation != BASE
    assert fp(mutation) != fp(BASE)


def test_label_rename_changes_digest():
    renamed = BASE.replace("start", "begin")
    assert fp(renamed) != fp(BASE)


def test_round_trip_stable():
    for text in (BASE, MINI_KERNEL, FIG3_T1):
        p = parse_program(text, "k")
        q = parse_program(format_program(p), "k")
        assert q.fingerprint() == p.fingerprint()


def test_suite_kernels_distinct_and_stable():
    from repro.suite.registry import BENCHMARKS, load

    digests = {}
    for name in BENCHMARKS:
        p = load(name)
        assert load(name).fingerprint() == p.fingerprint()
        digests[name] = p.fingerprint()
    assert len(set(digests.values())) == len(digests)


# ----------------------------------------------------------------------
# Property: random programs round-trip and are mutation-sensitive.
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

REG_NAMES = ["a", "b", "c", "d"]

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def random_program_text(draw):
    """A random-but-valid straight-line program (defs before uses)."""
    defined: List[str] = ["a"]
    lines: List[str] = ["movi %a, 1"]
    n = draw(st.integers(min_value=1, max_value=10))
    for _ in range(n):
        c = draw(st.integers(0, 3))
        if c == 0:
            r = draw(st.sampled_from(REG_NAMES))
            lines.append(f"movi %{r}, {draw(st.integers(0, 255))}")
            if r not in defined:
                defined.append(r)
        elif c == 1:
            d = draw(st.sampled_from(REG_NAMES))
            x = draw(st.sampled_from(defined))
            y = draw(st.sampled_from(defined))
            op = draw(st.sampled_from(["add", "sub", "xor"]))
            lines.append(f"{op} %{d}, %{x}, %{y}")
            if d not in defined:
                defined.append(d)
        elif c == 2:
            lines.append("ctx")
        else:
            x = draw(st.sampled_from(defined))
            y = draw(st.sampled_from(defined))
            lines.append(f"store %{x}, [%{y} + {draw(st.integers(0, 7))}]")
    lines.append("halt")
    return "\n".join(lines)


@SETTINGS
@given(random_program_text())
def test_property_round_trip_preserves_fingerprint(text):
    p = parse_program(text, "rand")
    q = parse_program(format_program(p), "rand")
    assert q.fingerprint() == p.fingerprint()


@SETTINGS
@given(random_program_text(), st.data())
def test_property_instruction_edit_changes_fingerprint(text, data):
    p = parse_program(text, "rand")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    i = data.draw(
        st.integers(min_value=0, max_value=len(lines) - 1), label="line"
    )
    mutated = lines[:i] + ["ctx"] + lines[i:]  # insert a context switch
    q = parse_program("\n".join(mutated), "rand")
    assert q.fingerprint() != p.fingerprint()


def _field_stream_digest(program) -> str:
    """The digest fed field by field, as persisted cache and store keys
    were first written: one ``update`` per name, label and operand."""
    import hashlib

    h = hashlib.sha256()
    h.update(program.name.encode())
    for label, index in sorted(program.labels.items()):
        h.update(b"\x1eL")
        h.update(label.encode())
        h.update(b"\x1f")
        h.update(str(index).encode())
    for instr in program.instrs:
        h.update(b"\x1eI")
        h.update(instr.opcode.name.encode())
        for op in instr.operands:
            h.update(b"\x1f")
            h.update(type(op).__name__.encode())
            h.update(b"\x1f")
            h.update(str(op).encode())
    return h.hexdigest()


def test_digest_matches_field_stream_on_every_kernel():
    # On-disk analyses and stored results are keyed by this digest, so
    # its bytes must never drift.
    from repro.suite.registry import BENCHMARKS, load

    programs = [parse_program(BASE, "k"), parse_program(FIG3_T1, "t1")]
    programs += [load(name) for name in BENCHMARKS]
    for program in programs:
        assert program.fingerprint() == _field_stream_digest(program)
