"""Unit tests for program validation."""

import random

import pytest

from repro.errors import ValidationError
from repro.ir.instruction import Instruction
from repro.ir.opcodes import Opcode
from repro.ir.operands import Imm, Label, PhysReg, VirtualReg
from repro.ir.parser import parse_program
from repro.ir.program import Program
from repro.ir.validate import validate_program
from tests.oracles import check_defined_before_use_sets
from tests.test_cfg_webs import random_program_text


def test_valid_program_passes(mini_kernel):
    validate_program(mini_kernel)


def test_undefined_branch_target():
    p = parse_program("br nowhere_else\nhalt\n", "t")
    p.labels.clear()
    with pytest.raises(ValidationError):
        validate_program(p)


def test_fall_off_the_end():
    p = parse_program("movi %a, 1\nhalt\n", "t")
    p.instrs.pop()  # drop the halt
    with pytest.raises(ValidationError):
        validate_program(p)


def test_conditional_branch_cannot_be_last():
    with pytest.raises(ValidationError):
        validate_program(parse_program("x:\n beqi %a, 0, x\n", "t"), check_init=False)


def test_mixed_register_kinds_rejected():
    p = Program(
        "t",
        [
            Instruction(Opcode.MOVI, (VirtualReg("a"), Imm(1))),
            Instruction(Opcode.MOV, (PhysReg(0), VirtualReg("a"))),
            Instruction(Opcode.HALT, ()),
        ],
    )
    with pytest.raises(ValidationError):
        validate_program(p)


def test_uninitialised_read_rejected():
    p = parse_program("add %a, %b, %b\nhalt\n", "t")
    with pytest.raises(ValidationError):
        validate_program(p)


def test_uninitialised_read_allowed_when_disabled():
    p = parse_program("add %a, %b, %b\nhalt\n", "t")
    validate_program(p, check_init=False)


def test_uninitialised_on_one_path_rejected():
    p = parse_program(
        """
        movi %x, 1
        beqi %x, 0, skip
        movi %a, 2
    skip:
        add %b, %a, %x
        halt
        """,
        "t",
    )
    with pytest.raises(ValidationError):
        validate_program(p)


def test_defined_on_all_paths_accepted():
    p = parse_program(
        """
        movi %x, 1
        beqi %x, 0, other
        movi %a, 2
        br join
    other:
        movi %a, 3
    join:
        add %b, %a, %x
        halt
        """,
        "t",
    )
    validate_program(p)


def test_label_out_of_range():
    p = parse_program("movi %a, 1\nhalt\n", "t")
    p.labels["ghost"] = 99
    with pytest.raises(ValidationError):
        validate_program(p)


# ---------------------------------------------------------------------------
# The bitmask may-be-uninitialised check vs the set-based oracle


def _first_error(check, program):
    try:
        check(program)
    except ValidationError as exc:
        return str(exc)
    return None


def test_init_check_raises_the_oracles_first_error():
    # Random programs with reads before defs, loops and unreachable code:
    # the same first error (lowest instruction, then ``uses`` order), or
    # none at all.
    outcomes = set()
    for seed in range(400):
        program = parse_program(
            random_program_text(random.Random(seed)), f"gen{seed}"
        )
        want = _first_error(check_defined_before_use_sets, program)
        assert _first_error(validate_program, program) == want, seed
        outcomes.add(want is None)
    assert outcomes == {True, False}


def test_init_check_skips_unreachable_code():
    p = parse_program(
        """
        movi %a, 1
        br done
        add %b, %c, %a
    done:
        store %a, [%a]
        halt
        """,
        "t",
    )
    validate_program(p)
    assert check_defined_before_use_sets(p) is None
