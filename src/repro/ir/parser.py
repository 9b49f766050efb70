"""Parser for the npir textual assembly syntax.

Syntax (one statement per line)::

    ; full-line or trailing comment
    loop:                       ; a label
        movi  %i, 0
        load  %w, [%buf + 4]    ; memory operand sugar for LOAD/STORE
        add   %sum, %sum, %w
        blti  %i, 16, loop
        ctx
        halt

Registers are ``%name`` (virtual) or ``$rN`` (physical).  Immediates are
decimal or ``0x`` hexadecimal, optionally negative (wrapped to 32 bits).
Branch targets are bare identifiers.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import AsmSyntaxError
from repro.ir.instruction import Instruction
from repro.ir.opcodes import D, I, L, MNEMONICS, Opcode, U, spec
from repro.ir.operands import Imm, Label, Operand, PhysReg, VirtualReg
from repro.ir.program import Program

_LABEL_RE = re.compile(r"^([A-Za-z_.][\w.]*):$")
_VREG_RE = re.compile(r"^%([A-Za-z_.][\w.]*)$")
_PREG_RE = re.compile(r"^\$r(\d+)$")
_IMM_RE = re.compile(r"^-?(0[xX][0-9a-fA-F]+|\d+)$")
_IDENT_RE = re.compile(r"^[A-Za-z_.][\w.]*$")
_MEM_RE = re.compile(
    r"^\[\s*([^\s\]]+)\s*(?:([+-])\s*([^\s\]]+)\s*)?\]$"
)


def _strip_comment(line: str) -> str:
    pos = line.find(";")
    if pos >= 0:
        return line[:pos]
    return line


def _parse_reg(token: str, line_no: int, line: str) -> Operand:
    m = _VREG_RE.match(token)
    if m:
        return VirtualReg(m.group(1))
    m = _PREG_RE.match(token)
    if m:
        return PhysReg(int(m.group(1)))
    raise AsmSyntaxError(f"expected a register, got {token!r}", line_no, line)


def _parse_imm(token: str, line_no: int, line: str) -> Imm:
    if not _IMM_RE.match(token):
        raise AsmSyntaxError(f"expected an immediate, got {token!r}", line_no, line)
    return Imm(int(token, 0))


def _split_operands(text: str) -> List[str]:
    """Split an operand list on commas that are outside brackets."""
    if "[" not in text:
        parts = [part.strip() for part in text.split(",")]
        if not parts[-1]:
            parts.pop()  # an empty tail is dropped, as below
        return parts
    parts: List[str] = []
    depth = 0
    cur = []
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


def _parse_mem(token: str, line_no: int, line: str) -> Tuple[Operand, Imm]:
    """Parse ``[%base]``, ``[%base + off]`` or ``[%base - off]``."""
    m = _MEM_RE.match(token)
    if not m:
        raise AsmSyntaxError(
            f"expected a memory operand [reg + imm], got {token!r}", line_no, line
        )
    base = _parse_reg(m.group(1), line_no, line)
    if m.group(3) is None:
        return base, Imm(0)
    off = _parse_imm(m.group(3), line_no, line)
    if m.group(2) == "-":
        off = Imm(-off.value)
    return base, off


def parse_instruction(text: str, line_no: int = 0) -> Instruction:
    """Parse a single instruction (no label, no comment)."""
    stripped = text.strip()
    parts = stripped.split(None, 1)
    mnemonic = parts[0].lower()
    opcode = MNEMONICS.get(mnemonic)
    if opcode is None:
        raise AsmSyntaxError(f"unknown mnemonic {mnemonic!r}", line_no, text)
    rest = parts[1] if len(parts) > 1 else ""
    tokens = _split_operands(rest)

    # Memory-operand sugar: memory ops write as  op reg..., [base + off].
    if opcode in (Opcode.LOAD, Opcode.STORE, Opcode.LOADQ, Opcode.STOREQ):
        n_regs = 4 if opcode in (Opcode.LOADQ, Opcode.STOREQ) else 1
        if len(tokens) != n_regs + 1:
            raise AsmSyntaxError(
                f"{mnemonic} expects {n_regs} registers and '[base + off]'",
                line_no,
                text,
            )
        regs = [_parse_reg(t, line_no, text) for t in tokens[:n_regs]]
        base, off = _parse_mem(tokens[n_regs], line_no, text)
        return Instruction(opcode, (*regs, base, off))

    sig = spec(opcode).signature
    if len(tokens) != len(sig):
        raise AsmSyntaxError(
            f"{mnemonic} expects {len(sig)} operands, got {len(tokens)}",
            line_no,
            text,
        )
    operands: List[Operand] = []
    for role, token in zip(sig, tokens):
        if role in (D, U):
            operands.append(_parse_reg(token, line_no, text))
        elif role == I:
            operands.append(_parse_imm(token, line_no, text))
        elif role == L:
            if not _IDENT_RE.match(token):
                raise AsmSyntaxError(
                    f"expected a label, got {token!r}", line_no, text
                )
            operands.append(Label(token))
    return Instruction(opcode, tuple(operands))


def parse_program(text: str, name: str = "program") -> Program:
    """Parse a full assembly listing into a :class:`Program`.

    Labels may share a line index (several labels before one instruction).
    A label at end-of-file (pointing past the last instruction) is a syntax
    error, as is a completely empty program.
    """
    program = Program(name=name)
    pending_labels: List[Tuple[str, int, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        m = _LABEL_RE.match(line)
        if m:
            label = m.group(1)
            if label in program.labels or any(
                label == p[0] for p in pending_labels
            ):
                raise AsmSyntaxError(f"duplicate label {label!r}", line_no, raw)
            pending_labels.append((label, line_no, raw))
            continue
        instr = parse_instruction(line, line_no)
        for label, _, _ in pending_labels:
            program.labels[label] = len(program.instrs)
        pending_labels = []
        program.instrs.append(instr)
    if pending_labels:
        label, line_no, raw = pending_labels[0]
        raise AsmSyntaxError(
            f"label {label!r} points past the last instruction", line_no, raw
        )
    if not program.instrs:
        raise AsmSyntaxError("empty program", 0, "")
    return program
