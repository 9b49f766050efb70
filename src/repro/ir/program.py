"""The :class:`Program` container: an ordered instruction list with labels.

A program is one thread's code: a flat list of instructions plus a mapping
from label names to instruction indices.  Labels attach to the instruction
*at* their index (a label at ``len(instrs)`` would be dangling and is
rejected by validation).

Programs are the unit the whole pipeline operates on: the CFG builder, the
allocators and the simulator all take a ``Program``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import ValidationError
from repro.ir.instruction import Instruction
from repro.ir.opcodes import Opcode
from repro.ir.operands import PhysReg, Reg, VirtualReg


@dataclass
class Program:
    """A named, single-entry instruction sequence for one thread.

    Attributes:
        name: human-readable program name (used in reports).
        instrs: the instruction list; entry is index 0.
        labels: label name -> instruction index.
    """

    name: str
    instrs: List[Instruction] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.instrs)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instrs)

    def label_at(self, index: int) -> Optional[str]:
        """Return a label attached to ``index``, or None."""
        for name, i in self.labels.items():
            if i == index:
                return name
        return None

    def labels_at(self, index: int) -> List[str]:
        """Return all labels attached to ``index`` (sorted for determinism)."""
        return sorted(name for name, i in self.labels.items() if i == index)

    def resolve(self, label: str) -> int:
        """Return the instruction index a label points at."""
        try:
            return self.labels[label]
        except KeyError:
            raise ValidationError(
                f"program {self.name!r}: undefined label {label!r}"
            ) from None

    def target_pcs(self) -> Tuple[Optional[int], ...]:
        """Per-instruction pre-resolved branch targets.

        Entry ``i`` is the integer PC of instruction ``i``'s branch
        target; non-branches get ``None``, and so does a branch whose
        label is undefined (executing it still raises lazily through
        :meth:`resolve`, and :func:`~repro.ir.validate.validate_program`
        rejects it up front).  Engines call this once per run and index
        the result instead of paying a ``resolve`` call on every taken
        branch; the tuple is recomputed on each call so structural
        edits between runs can never serve stale targets.
        """
        labels = self.labels
        return tuple(
            labels.get(instr.target.name) if instr.spec.is_branch else None
            for instr in self.instrs
        )

    def fingerprint(self) -> str:
        """Stable content hash of the program (a sha256 hex digest).

        Two programs share a fingerprint exactly when their name, label
        table, and full instruction stream (opcode plus every operand,
        in order) coincide -- the same identity the binary encoding
        (:mod:`repro.ir.encoding`) captures, extended to virtual-register
        programs so pre-allocation artifacts can be content-addressed.
        Any instruction, operand, or label mutation therefore changes the
        digest, while parse -> print -> parse round trips preserve it.

        Like :meth:`target_pcs`, the digest is recomputed on each call so
        structural edits between calls can never serve a stale identity.
        """
        # One text, encoded and hashed once: the separators are ASCII,
        # so the bytes equal the per-field encodings concatenated.
        parts = [self.name]
        for label, index in sorted(self.labels.items()):
            parts.append(f"\x1eL{label}\x1f{index}")
        for instr in self.instrs:
            parts.append("\x1eI" + instr.opcode.name)
            for op in instr.operands:
                parts.append(f"\x1f{type(op).__name__}\x1f{op}")
        return hashlib.sha256("".join(parts).encode()).hexdigest()

    def successors(self, index: int) -> Tuple[int, ...]:
        """Instruction-level control-flow successors of instruction ``index``.

        Fallthrough goes to ``index + 1``; a fallthrough off the end of the
        program is rejected by validation, so it is not produced here.
        """
        instr = self.instrs[index]
        s = instr.spec
        if s.is_halt:
            return ()
        if s.is_branch:
            target = self.resolve(instr.target.name)
            if s.is_cond:
                return (index + 1, target)
            return (target,)
        return (index + 1,)

    def virtual_regs(self) -> Set[VirtualReg]:
        """The set of virtual registers referenced anywhere in the program."""
        out: Set[VirtualReg] = set()
        for instr in self.instrs:
            for reg in instr.regs:
                if isinstance(reg, VirtualReg):
                    out.add(reg)
        return out

    def phys_regs(self) -> Set[PhysReg]:
        """The set of physical registers referenced anywhere in the program."""
        out: Set[PhysReg] = set()
        for instr in self.instrs:
            for reg in instr.regs:
                if isinstance(reg, PhysReg):
                    out.add(reg)
        return out

    def count_opcode(self, opcode: Opcode) -> int:
        """Number of instructions with the given opcode."""
        return sum(1 for instr in self.instrs if instr.opcode == opcode)

    def count_csb(self) -> int:
        """Number of context-switch-boundary instructions."""
        return sum(1 for instr in self.instrs if instr.is_csb)

    def fresh_label(self, stem: str) -> str:
        """Return a label name based on ``stem`` not yet used in the program."""
        if stem not in self.labels:
            return stem
        i = 1
        while f"{stem}.{i}" in self.labels:
            i += 1
        return f"{stem}.{i}"

    def fresh_vreg(self, stem: str) -> VirtualReg:
        """Return a virtual register named after ``stem`` not yet referenced."""
        existing = {r.name for r in self.virtual_regs()}
        if stem not in existing:
            return VirtualReg(stem)
        i = 1
        while f"{stem}.{i}" in existing:
            i += 1
        return VirtualReg(f"{stem}.{i}")

    def copy(self) -> "Program":
        """Return a shallow-ish copy safe to mutate structurally."""
        return Program(self.name, list(self.instrs), dict(self.labels))
