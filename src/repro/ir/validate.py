"""Structural validation of npir programs.

:func:`validate_program` checks the rules every later pass assumes:

* all branch targets resolve to an in-range instruction;
* no label points outside the instruction list;
* control flow cannot fall off the end of the program;
* register operands are uniformly virtual or uniformly physical (a mixed
  program would confuse the allocator and the simulator);
* every virtual register is defined on every path before each use
  (a dataflow check, so uninitialised reads never reach the simulator).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.errors import ValidationError
from repro.ir.operands import PhysReg, Reg, VirtualReg
from repro.ir.program import Program


def validate_program(program: Program, check_init: bool = True) -> None:
    """Raise :class:`ValidationError` on any structural problem."""
    n = len(program.instrs)
    if n == 0:
        raise ValidationError(f"program {program.name!r} is empty")
    for label, index in program.labels.items():
        if not 0 <= index < n:
            raise ValidationError(
                f"program {program.name!r}: label {label!r} points at "
                f"{index}, outside [0, {n})"
            )
    for index, instr in enumerate(program.instrs):
        sp = instr.spec
        if sp.is_branch:
            program.resolve(instr.target.name)  # raises when undefined
        terminal = sp.is_halt or (sp.is_branch and not sp.is_cond)
        if index == n - 1 and not terminal:
            raise ValidationError(
                f"program {program.name!r}: control falls off the end "
                f"(last instruction is {instr.opcode})"
            )

    # Operand roles are derived from the opcode signature on every access;
    # read them once per instruction for all the checks below.
    defs_l = [instr.defs for instr in program.instrs]
    uses_l = [instr.uses for instr in program.instrs]
    regs: Set[Reg] = set().union(*defs_l, *uses_l)
    has_virtual = any(isinstance(r, VirtualReg) for r in regs)
    has_phys = any(isinstance(r, PhysReg) for r in regs)
    if has_virtual and has_phys:
        raise ValidationError(
            f"program {program.name!r} mixes virtual and physical registers"
        )

    if check_init and has_virtual:
        _check_defined_before_use(program, regs, defs_l, uses_l)


def _check_defined_before_use(
    program: Program,
    regs: Set[Reg],
    defs_l: List[Tuple[Reg, ...]],
    uses_l: List[Tuple[Reg, ...]],
) -> None:
    """Forward may-be-uninitialised analysis over virtual registers.

    ``regs`` are the program's registers (all virtual here) and
    ``defs_l``/``uses_l`` each instruction's defs and uses.  States are
    register bitmasks, one bit per register in any fixed order (the
    order of the first error is set by instructions and ``uses``, never
    by bits).  The first read found -- lowest instruction, then
    ``instr.uses`` order -- raises; unreachable code is skipped.
    """
    n = len(program.instrs)
    index = {reg: i for i, reg in enumerate(regs)}
    kill = []
    for defs in defs_l:
        mask = 0
        for reg in defs:
            mask |= 1 << index[reg]
        kill.append(mask)
    # maybe_undef[i]: registers possibly uninitialised before instruction
    # i; None while i has not been reached.
    maybe_undef: List[Optional[int]] = [None] * n
    maybe_undef[0] = (1 << len(index)) - 1
    worklist = [0]
    while worklist:
        i = worklist.pop()
        out = maybe_undef[i] & ~kill[i]  # type: ignore[operator]
        for succ in program.successors(i):
            prev = maybe_undef[succ]
            if prev is None:
                maybe_undef[succ] = out
                worklist.append(succ)
            elif out & ~prev:
                maybe_undef[succ] = prev | out
                worklist.append(succ)
    for i, state in enumerate(maybe_undef):
        if not state:
            continue  # unreachable code, or nothing undefined here
        for reg in uses_l[i]:
            if isinstance(reg, VirtualReg) and state >> index[reg] & 1:
                instr = program.instrs[i]
                raise ValidationError(
                    f"program {program.name!r}: {reg} may be read "
                    f"uninitialised at instruction {i} ({instr.opcode})"
                )
