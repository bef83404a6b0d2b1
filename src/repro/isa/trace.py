"""Trace container and builder."""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from repro.isa.instructions import Instruction, Opcode
from repro.isa.packed import PackedTrace

__all__ = ["Trace", "TraceBuilder"]


@dataclass
class Trace:
    """A dynamic instruction stream plus identifying metadata."""

    name: str
    instructions: list[Instruction] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    @property
    def dynamic_instruction_count(self) -> int:
        """Total dynamic instructions, expanding compressed ALU bursts."""
        return sum(inst.dynamic_count for inst in self.instructions)

    @property
    def memory_reference_count(self) -> int:
        return sum(1 for inst in self.instructions if inst.is_memory)

    def opcode_histogram(self) -> Counter:
        """Dynamic instruction count per opcode."""
        histogram: Counter = Counter()
        for inst in self.instructions:
            histogram[inst.op] += inst.dynamic_count
        return histogram

    def extend(self, other: "Trace") -> None:
        self.instructions.extend(other.instructions)

    def marker_balance(self) -> int:
        """(#HW_ON - #HW_OFF); useful sanity check in tests."""
        balance = 0
        for inst in self.instructions:
            if inst.op is Opcode.HW_ON:
                balance += 1
            elif inst.op is Opcode.HW_OFF:
                balance -= 1
        return balance


class TraceBuilder:
    """Mutable helper for emitting a :class:`Trace` or :class:`PackedTrace`.

    Program counters are synthetic: callers set ``pc`` before emitting
    the instructions of a static statement; consecutive instructions get
    consecutive word addresses so loop bodies map onto stable I-cache
    lines.

    Records accumulate directly in three packed columns, so emitting a
    full benchmark never allocates per-instruction objects;
    :meth:`build` materializes them only on demand.
    """

    PC_STRIDE = 4  # bytes per synthetic instruction slot

    def __init__(self, name: str):
        self._name = name
        self._ops = array("q")
        self._args = array("q")
        self._pcs = array("q")
        self._pc = 0x1000

    def set_pc(self, pc: int) -> None:
        self._pc = pc

    def _emit(self, op: int, arg: int) -> None:
        self._ops.append(op)
        self._args.append(arg)
        self._pcs.append(self._pc)
        self._pc += self.PC_STRIDE

    def load(self, addr: int) -> None:
        self._emit(Opcode.LOAD, addr)

    def store(self, addr: int) -> None:
        self._emit(Opcode.STORE, addr)

    def alu(self, count: int = 1) -> None:
        if count <= 0:
            return
        self._emit(Opcode.ALU, count)

    def branch(self, taken: bool) -> None:
        self._emit(Opcode.BRANCH, 1 if taken else 0)

    def hw_on(self) -> None:
        self._emit(Opcode.HW_ON, 0)

    def hw_off(self) -> None:
        self._emit(Opcode.HW_OFF, 0)

    def build(self) -> Trace:
        return Trace(
            self._name,
            [
                Instruction(Opcode(op), arg, pc)
                for op, arg, pc in zip(self._ops, self._args, self._pcs)
            ],
        )

    def build_packed(self) -> PackedTrace:
        """Emit the packed columnar form without materializing records."""
        return PackedTrace(self._name, self._ops, self._args, self._pcs)
