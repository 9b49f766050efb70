"""The npir instruction set.

The set mirrors the flavour of IXP1200 microcode (about 40 RISC
instructions): single-cycle ALU operations, explicit memory operations that
block the issuing thread and hand the processing unit to another thread, and
a voluntary context-switch instruction.

Each opcode is described by an :class:`OpSpec` giving its operand signature
and its scheduling class.  The signature is a tuple of operand *roles*:

``D``
    a register the instruction writes (a *def*),
``U``
    a register the instruction reads (a *use*),
``I``
    an immediate constant,
``L``
    a branch-target label.

Scheduling classes (mutually exclusive flags on the spec):

* ``is_memory`` -- the instruction accesses SRAM or a packet queue; issuing
  it blocks the thread for the machine's memory latency and causes a context
  switch (these instructions are *context-switch boundaries*, CSBs).
* ``is_ctx`` -- the voluntary ``ctx`` instruction; also a CSB.
* ``is_branch`` -- transfers control; ``is_cond`` marks the conditional ones.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Tuple

# Operand role characters used in signatures.
D, U, I, L = "D", "U", "I", "L"


class Opcode(enum.Enum):
    """Enumeration of every npir opcode."""

    # ALU, register-register.
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    MUL = "mul"
    # ALU, register-immediate.
    ADDI = "addi"
    SUBI = "subi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SHLI = "shli"
    SHRI = "shri"
    MULI = "muli"
    # Data movement.
    MOV = "mov"
    MOVI = "movi"
    NOP = "nop"
    # Memory (SRAM) -- context-switch boundaries.  The Q forms are burst
    # accesses (IXP SRAM reads/writes up to 8 words per reference through
    # transfer registers); they move four words in one blocking access.
    LOAD = "load"
    STORE = "store"
    LOADQ = "loadq"
    STOREQ = "storeq"
    # Packet queues -- context-switch boundaries.
    RECV = "recv"
    SEND = "send"
    # Control flow.
    BR = "br"
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BEQI = "beqi"
    BNEI = "bnei"
    BLTI = "blti"
    BGEI = "bgei"
    # Voluntary context switch and termination.
    CTX = "ctx"
    HALT = "halt"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    # Members are singletons that compare by identity, so they hash by
    # identity too: a C-level hash, where ``Enum``'s is a Python call
    # (``hash(self._name_)``) paid by every :func:`spec` lookup.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class OpSpec:
    """Static description of one opcode.

    Attributes:
        signature: operand roles in source order (see module docstring).
        is_branch: instruction may transfer control to a label.
        is_cond: branch is conditional (falls through when untaken).
        is_memory: SRAM or packet-queue access (blocking, CSB).
        is_ctx: the voluntary context switch (CSB).
        is_halt: terminates the thread.
    """

    signature: Tuple[str, ...]
    is_branch: bool = False
    is_cond: bool = False
    is_memory: bool = False
    is_ctx: bool = False
    is_halt: bool = False
    #: Operand positions of the defs and of the uses, in source order.
    def_positions: Tuple[int, ...] = field(init=False, repr=False)
    use_positions: Tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sig = self.signature
        object.__setattr__(
            self, "def_positions", tuple(i for i, r in enumerate(sig) if r == D)
        )
        object.__setattr__(
            self, "use_positions", tuple(i for i, r in enumerate(sig) if r == U)
        )

    @property
    def is_csb(self) -> bool:
        """True when the instruction is a context-switch boundary."""
        return self.is_memory or self.is_ctx

    @property
    def n_defs(self) -> int:
        return len(self.def_positions)

    @property
    def n_uses(self) -> int:
        return len(self.use_positions)


def _alu_rr() -> OpSpec:
    return OpSpec(signature=(D, U, U))


def _alu_ri() -> OpSpec:
    return OpSpec(signature=(D, U, I))


SPECS: Dict[Opcode, OpSpec] = {
    Opcode.ADD: _alu_rr(),
    Opcode.SUB: _alu_rr(),
    Opcode.AND: _alu_rr(),
    Opcode.OR: _alu_rr(),
    Opcode.XOR: _alu_rr(),
    Opcode.SHL: _alu_rr(),
    Opcode.SHR: _alu_rr(),
    Opcode.MUL: _alu_rr(),
    Opcode.ADDI: _alu_ri(),
    Opcode.SUBI: _alu_ri(),
    Opcode.ANDI: _alu_ri(),
    Opcode.ORI: _alu_ri(),
    Opcode.XORI: _alu_ri(),
    Opcode.SHLI: _alu_ri(),
    Opcode.SHRI: _alu_ri(),
    Opcode.MULI: _alu_ri(),
    Opcode.MOV: OpSpec(signature=(D, U)),
    Opcode.MOVI: OpSpec(signature=(D, I)),
    Opcode.NOP: OpSpec(signature=()),
    # load dst, [base + off]
    Opcode.LOAD: OpSpec(signature=(D, U, I), is_memory=True),
    # store src, [base + off]
    Opcode.STORE: OpSpec(signature=(U, U, I), is_memory=True),
    # loadq d0, d1, d2, d3, [base + off] : di <- mem[base + off + i]
    Opcode.LOADQ: OpSpec(signature=(D, D, D, D, U, I), is_memory=True),
    # storeq s0, s1, s2, s3, [base + off] : mem[base + off + i] <- si
    Opcode.STOREQ: OpSpec(signature=(U, U, U, U, U, I), is_memory=True),
    # recv dst : dst <- address of next packet buffer, 0 when queue empty
    Opcode.RECV: OpSpec(signature=(D,), is_memory=True),
    # send src : enqueue the packet whose buffer address is in src
    Opcode.SEND: OpSpec(signature=(U,), is_memory=True),
    Opcode.BR: OpSpec(signature=(L,), is_branch=True),
    Opcode.BEQ: OpSpec(signature=(U, U, L), is_branch=True, is_cond=True),
    Opcode.BNE: OpSpec(signature=(U, U, L), is_branch=True, is_cond=True),
    Opcode.BLT: OpSpec(signature=(U, U, L), is_branch=True, is_cond=True),
    Opcode.BGE: OpSpec(signature=(U, U, L), is_branch=True, is_cond=True),
    Opcode.BEQI: OpSpec(signature=(U, I, L), is_branch=True, is_cond=True),
    Opcode.BNEI: OpSpec(signature=(U, I, L), is_branch=True, is_cond=True),
    Opcode.BLTI: OpSpec(signature=(U, I, L), is_branch=True, is_cond=True),
    Opcode.BGEI: OpSpec(signature=(U, I, L), is_branch=True, is_cond=True),
    Opcode.CTX: OpSpec(signature=(), is_ctx=True),
    Opcode.HALT: OpSpec(signature=(), is_halt=True),
}

#: Map from mnemonic text to opcode, used by the parser.
MNEMONICS: Dict[str, Opcode] = {op.value: op for op in Opcode}


def spec(op: Opcode) -> OpSpec:
    """Return the :class:`OpSpec` for ``op``."""
    return SPECS[op]
