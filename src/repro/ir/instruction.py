"""The :class:`Instruction` value type.

An instruction is an opcode plus a tuple of operands matching the opcode's
signature.  Defs and uses are derived from the signature, so analyses never
need opcode-specific cases.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Tuple

from repro.errors import ValidationError
from repro.ir.opcodes import D, I, L, Opcode, OpSpec, U, spec
from repro.ir.operands import Imm, Label, Operand, Reg, is_reg


@dataclass(frozen=True)
class Instruction:
    """One npir instruction: an opcode and its operands.

    Instances are immutable; rewriting passes build new instructions with
    :meth:`with_operands` or :func:`dataclasses.replace`.
    """

    opcode: Opcode
    operands: Tuple[Operand, ...] = ()

    def __post_init__(self) -> None:
        sig = self.spec.signature
        if len(sig) != len(self.operands):
            raise ValidationError(
                f"{self.opcode} expects {len(sig)} operands, "
                f"got {len(self.operands)}"
            )
        for role, op in zip(sig, self.operands):
            if role in (D, U) and not is_reg(op):
                raise ValidationError(
                    f"{self.opcode}: operand {op!r} must be a register"
                )
            if role == I and not isinstance(op, Imm):
                raise ValidationError(
                    f"{self.opcode}: operand {op!r} must be an immediate"
                )
            if role == L and not isinstance(op, Label):
                raise ValidationError(
                    f"{self.opcode}: operand {op!r} must be a label"
                )

    @property
    def spec(self) -> OpSpec:
        return spec(self.opcode)

    @property
    def defs(self) -> Tuple[Reg, ...]:
        """Registers written by this instruction."""
        ops = self.operands
        return tuple([ops[i] for i in spec(self.opcode).def_positions])  # type: ignore[misc]

    @property
    def uses(self) -> Tuple[Reg, ...]:
        """Registers read by this instruction."""
        ops = self.operands
        return tuple([ops[i] for i in spec(self.opcode).use_positions])  # type: ignore[misc]

    @property
    def regs(self) -> Tuple[Reg, ...]:
        """All register operands, defs first."""
        return self.defs + self.uses

    @property
    def target(self) -> Label:
        """The branch-target label (branches only)."""
        if not self.spec.is_branch:
            raise ValidationError(f"{self.opcode} has no branch target")
        for op in self.operands:
            if isinstance(op, Label):
                return op
        raise ValidationError(f"{self.opcode} is missing its label operand")

    @property
    def is_csb(self) -> bool:
        """True when this instruction is a context-switch boundary."""
        return self.spec.is_csb

    def with_operands(self, operands: Iterable[Operand]) -> "Instruction":
        """Return a copy with ``operands`` substituted."""
        return replace(self, operands=tuple(operands))

    def substitute_regs(self, mapping: Dict[Reg, Reg]) -> "Instruction":
        """Return a copy with register operands remapped through ``mapping``.

        Registers absent from ``mapping`` are kept unchanged.
        """
        new_ops = tuple(
            mapping.get(op, op) if is_reg(op) else op for op in self.operands
        )
        if new_ops == self.operands:
            return self
        return self.with_operands(new_ops)

    def __str__(self) -> str:
        from repro.ir.printer import format_instruction

        return format_instruction(self)
