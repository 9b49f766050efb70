"""Materialize an allocation: physical registers plus split moves.

Rewriting replaces every virtual-register occurrence with the physical
register of the piece covering that occurrence's slot, then inserts one
``mov`` per crossing flow edge (a flow edge whose endpoints lie in pieces
of different colors).

When several ranges cross pieces on the *same* control-flow edge the moves
form a parallel copy and must be sequenced so no source is overwritten
before it is read.  :func:`sequence_parallel_copy` emits copies in
topological order of the "dst feeds another copy's src" relation and breaks
register-permutation cycles with XOR swaps (the ISA has no scratch register
to spare by construction, but ``xor`` needs none).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cfg.edit import ProgramEditor
from repro.core.analysis import ThreadAnalysis
from repro.core.assign import ThreadRegisterMap
from repro.core.context import AllocContext
from repro.errors import AllocationError
from repro.ir.instruction import Instruction
from repro.ir.opcodes import Opcode
from repro.ir.operands import PhysReg, Reg
from repro.ir.program import Program


def sequence_parallel_copy(
    copies: Sequence[Tuple[PhysReg, PhysReg]]
) -> List[Instruction]:
    """Order ``(dst, src)`` copies so each source is read before being
    overwritten; break cycles with XOR swaps.

    Duplicate destinations are illegal (two values cannot land in one
    register); identity copies are dropped.
    """
    pending = [(d, s) for d, s in copies if d != s]
    dsts = [d for d, _ in pending]
    if len(set(dsts)) != len(dsts):
        raise AllocationError(f"parallel copy writes a register twice: {copies}")
    out: List[Instruction] = []
    while pending:
        srcs = {s for _, s in pending}
        ready = [(d, s) for d, s in pending if d not in srcs]
        if ready:
            for d, s in ready:
                out.append(Instruction(Opcode.MOV, (d, s)))
            pending = [c for c in pending if c not in ready]
            continue
        # Pure cycle: every dst is someone's src.  Swap the first copy's
        # endpoints with XORs; that resolves one copy and shortens the
        # cycle, so the loop terminates.
        d, s = pending[0]
        out.append(Instruction(Opcode.XOR, (d, d, s)))
        out.append(Instruction(Opcode.XOR, (s, s, d)))
        out.append(Instruction(Opcode.XOR, (d, d, s)))
        # After the swap, d holds the value that was in s (copy done) and
        # s holds d's old value; rewrite remaining copies reading d to
        # read s instead, dropping any that become identities.
        rest = []
        for d2, s2 in pending[1:]:
            s2 = s if s2 == d else s2
            if d2 != s2:
                rest.append((d2, s2))
        pending = rest
    return out


def rewrite_program(
    analysis: ThreadAnalysis,
    context: AllocContext,
    regmap: ThreadRegisterMap,
) -> Program:
    """Produce the physical-register program for one allocated thread."""
    program = analysis.program

    # One PhysReg per color: operands equal by value either way.
    phys_of: Dict[int, PhysReg] = {}

    def phys_at(reg: Reg, slot: int) -> PhysReg:
        color = context.piece_of(reg, slot).color
        phys = phys_of.get(color)
        if phys is None:
            phys = phys_of[color] = regmap.phys(color)
        return phys

    rewritten: List[Instruction] = []
    for i, instr in enumerate(program.instrs):
        sp = instr.spec
        new_ops = list(instr.operands)
        for k in sp.def_positions:
            new_ops[k] = phys_at(new_ops[k], i)  # type: ignore[arg-type]
        for k in sp.use_positions:
            new_ops[k] = phys_at(new_ops[k], i)  # type: ignore[arg-type]
        rewritten.append(Instruction(instr.opcode, tuple(new_ops)))
    base = Program(name=program.name, instrs=rewritten, labels=dict(program.labels))

    # Group crossing flow edges by control-flow edge, then sequence each
    # group as a parallel copy.
    by_edge: Dict[Tuple[int, int], List[Tuple[PhysReg, PhysReg]]] = {}
    for reg, i, j in context.crossing_edges():
        src = phys_at(reg, i)
        dst = phys_at(reg, j)
        by_edge.setdefault((i, j), []).append((dst, src))

    if not by_edge:
        return base
    editor = ProgramEditor(base)
    for (i, j), copies in sorted(by_edge.items()):
        editor.insert_on_edge(i, j, sequence_parallel_copy(copies))
    return editor.commit()
