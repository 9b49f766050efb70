"""Unit tests for the assembly parser."""

import pytest

from repro.errors import AsmSyntaxError
from repro.ir.opcodes import Opcode
from repro.ir.operands import Imm, Label, PhysReg, VirtualReg
from repro.ir.parser import parse_instruction, parse_program


def test_parse_alu():
    i = parse_instruction("add %a, %b, %c")
    assert i.opcode is Opcode.ADD
    assert i.operands == (VirtualReg("a"), VirtualReg("b"), VirtualReg("c"))


def test_parse_alu_immediate():
    i = parse_instruction("addi %a, %b, 42")
    assert i.operands[2] == Imm(42)


def test_parse_hex_immediate():
    i = parse_instruction("andi %a, %a, 0xFFFF")
    assert i.operands[2] == Imm(0xFFFF)


def test_parse_negative_immediate_wraps():
    i = parse_instruction("movi %a, -1")
    assert i.operands[1] == Imm(0xFFFFFFFF)


def test_parse_physical_registers():
    i = parse_instruction("mov $r3, $r12")
    assert i.operands == (PhysReg(3), PhysReg(12))


def test_parse_load_memory_operand():
    i = parse_instruction("load %w, [%buf + 4]")
    assert i.opcode is Opcode.LOAD
    assert i.operands == (VirtualReg("w"), VirtualReg("buf"), Imm(4))


def test_parse_load_without_offset():
    i = parse_instruction("load %w, [%buf]")
    assert i.operands[2] == Imm(0)


def test_parse_store_negative_offset():
    i = parse_instruction("store %w, [%buf - 2]")
    assert i.operands[2] == Imm(-2)


def test_parse_branch():
    i = parse_instruction("beq %a, %b, loop")
    assert i.target == Label("loop")


def test_parse_branch_immediate():
    i = parse_instruction("beqi %a, 0, done")
    assert i.operands == (VirtualReg("a"), Imm(0), Label("done"))


def test_unknown_mnemonic():
    with pytest.raises(AsmSyntaxError):
        parse_instruction("frobnicate %a")


def test_wrong_operand_count():
    with pytest.raises(AsmSyntaxError):
        parse_instruction("add %a, %b")


def test_register_where_immediate_expected():
    with pytest.raises(AsmSyntaxError):
        parse_instruction("addi %a, %b, %c")


def test_parse_program_labels(mini_kernel):
    assert mini_kernel.labels["start"] == 0
    assert "loop" in mini_kernel.labels
    assert mini_kernel.instrs[-1].opcode is Opcode.HALT


def test_comments_and_blank_lines():
    p = parse_program(
        """
        ; leading comment
        movi %a, 1   ; trailing comment

        halt
        """,
        "c",
    )
    assert len(p.instrs) == 2


def test_duplicate_label_rejected():
    with pytest.raises(AsmSyntaxError):
        parse_program("x:\n movi %a, 1\nx:\n halt\n", "dup")


def test_trailing_label_rejected():
    with pytest.raises(AsmSyntaxError):
        parse_program("movi %a, 1\nhalt\nend:\n", "t")


def test_empty_program_rejected():
    with pytest.raises(AsmSyntaxError):
        parse_program("; nothing\n", "e")


def test_error_carries_line_number():
    try:
        parse_program("movi %a, 1\nbogus %a\nhalt\n", "n")
    except AsmSyntaxError as e:
        assert e.line_no == 2
    else:  # pragma: no cover
        raise AssertionError("expected AsmSyntaxError")


def test_multiple_labels_share_an_instruction():
    p = parse_program("a:\nb:\n movi %x, 1\n halt\n", "m")
    assert p.labels["a"] == 0 and p.labels["b"] == 0


def _split_by_scan(text):
    """Bracket-aware comma split, one character at a time."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "%a",
        "%a, %b, %c",
        " %a ,%b,  7 ",
        "%a,, %b",
        "%a, %b,",
        ",",
        "%a, [%b + 4]",
        "%a, %b, %c, %d, [%e - 0x10]",
        "[%a, %b], %c",
    ],
)
def test_split_operands_matches_bracket_scan(text):
    from repro.ir.parser import _split_operands

    assert _split_operands(text) == _split_by_scan(text)
