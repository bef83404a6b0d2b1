"""Packed columnar trace representation.

A :class:`repro.isa.trace.Trace` stores one :class:`Instruction`
NamedTuple per record — convenient for tests and small programs, but a
full benchmark trace holds hundreds of thousands of records, and the
per-object overhead (allocation, attribute access, pickling) dominates
both the simulator hot loop and the cost of shipping traces to worker
processes.

:class:`PackedTrace` stores the same information as three parallel
``array('q')`` columns (op, arg, pc): one machine word per field, no
per-record objects.  Conversion to and from :class:`Trace` is lossless,
iteration yields ordinary :class:`Instruction` records, and the summary
properties (``dynamic_instruction_count``, ``memory_reference_count``,
``opcode_histogram``, ``marker_balance``) agree exactly with the
object form.  Packed traces pickle roughly an order of magnitude
smaller and faster, which is what makes process fan-out of the sweep
grid cheap (see :mod:`repro.core.parallel`).
"""

from __future__ import annotations

import hashlib
from array import array
from collections import Counter
from typing import TYPE_CHECKING, Iterable, Iterator, Union

from repro.isa.instructions import Instruction, Opcode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.isa.trace import Trace

__all__ = ["PackedTrace", "AnyTrace", "as_packed"]

_LOAD = int(Opcode.LOAD)
_STORE = int(Opcode.STORE)
_ALU = int(Opcode.ALU)
_HW_ON = int(Opcode.HW_ON)
_HW_OFF = int(Opcode.HW_OFF)


class PackedTrace:
    """A dynamic instruction stream in structure-of-arrays form."""

    # ``__weakref__`` lets per-trace caches (the simulator's replay
    # memo) live exactly as long as the trace.
    __slots__ = ("name", "_ops", "_args", "_pcs", "__weakref__")

    def __init__(
        self,
        name: str,
        ops: Union[array, Iterable[int], None] = None,
        args: Union[array, Iterable[int], None] = None,
        pcs: Union[array, Iterable[int], None] = None,
    ):
        self.name = name
        self._ops = ops if isinstance(ops, array) else array("q", ops or ())
        self._args = args if isinstance(args, array) else array("q", args or ())
        self._pcs = pcs if isinstance(pcs, array) else array("q", pcs or ())
        if not (len(self._ops) == len(self._args) == len(self._pcs)):
            raise ValueError(
                f"column length mismatch: {len(self._ops)} ops, "
                f"{len(self._args)} args, {len(self._pcs)} pcs"
            )

    # ------------------------------------------------------------------
    # container protocol

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Instruction]:
        for op, arg, pc in zip(self._ops, self._args, self._pcs):
            yield Instruction(Opcode(op), arg, pc)

    def __getitem__(self, index: int) -> Instruction:
        return Instruction(
            Opcode(self._ops[index]), self._args[index], self._pcs[index]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedTrace):
            return NotImplemented
        return (
            self.name == other.name
            and self._ops == other._ops
            and self._args == other._args
            and self._pcs == other._pcs
        )

    def __repr__(self) -> str:
        return f"PackedTrace({self.name!r}, {len(self)} records)"

    # ------------------------------------------------------------------
    # columnar access (the simulator hot loop reads these directly)

    def columns(self) -> tuple[array, array, array]:
        """The (op, arg, pc) columns, by reference — do not mutate."""
        return self._ops, self._args, self._pcs

    def numpy_columns(self):
        """Zero-copy numpy ``int64`` views of the (op, arg, pc) columns.

        The views alias the live ``array('q')`` buffers — treat them as
        read-only.  Requires numpy (the simulator's replay-and-fold
        kernels are the only caller).
        """
        import numpy as np

        return (
            np.frombuffer(self._ops, dtype=np.int64),
            np.frombuffer(self._args, dtype=np.int64),
            np.frombuffer(self._pcs, dtype=np.int64),
        )

    def marker_positions(self):
        """Record indices of HW_ON/HW_OFF markers as a numpy array.

        The simulator reads each data access's gate state from them,
        and under telemetry ends a segment at each one.  Requires
        numpy.
        """
        ops, _, _ = self.numpy_columns()
        import numpy as np

        return np.nonzero((ops == _HW_ON) | (ops == _HW_OFF))[0]

    @property
    def instructions(self) -> list[Instruction]:
        """Materialize the records as :class:`Instruction` objects.

        Provided for interoperability with object-trace consumers;
        full-suite code paths should iterate the columns instead.
        """
        return [
            Instruction(Opcode(op), arg, pc)
            for op, arg, pc in zip(self._ops, self._args, self._pcs)
        ]

    # ------------------------------------------------------------------
    # summary properties (contract shared with Trace)

    @property
    def dynamic_instruction_count(self) -> int:
        """Total dynamic instructions, expanding compressed ALU bursts."""
        total = len(self._ops)
        for op, arg in zip(self._ops, self._args):
            if op == _ALU and arg > 1:
                total += arg - 1
        return total

    @property
    def memory_reference_count(self) -> int:
        ops = self._ops
        return sum(1 for op in ops if op == _LOAD or op == _STORE)

    def opcode_histogram(self) -> Counter:
        """Dynamic instruction count per opcode."""
        histogram: Counter = Counter()
        for op, arg in zip(self._ops, self._args):
            histogram[Opcode(op)] += arg if (op == _ALU and arg > 1) else 1
        return histogram

    def marker_balance(self) -> int:
        """(#HW_ON - #HW_OFF); useful sanity check in tests."""
        balance = 0
        for op in self._ops:
            if op == _HW_ON:
                balance += 1
            elif op == _HW_OFF:
                balance -= 1
        return balance

    def checksum(self) -> str:
        """Cheap content digest over the three columns.

        Hashes the raw column bytes (length-prefixed, so column
        boundaries are unambiguous) with BLAKE2b; the trace *name* is
        deliberately excluded — two traces with identical streams
        digest identically.  The run store keys sweep cells by this
        digest, so any single flipped word changes the key.  Column
        bytes are machine-endian: digests are stable per machine, not
        across byte orders.
        """
        digest = hashlib.blake2b(digest_size=16)
        for column in (self._ops, self._args, self._pcs):
            digest.update(len(column).to_bytes(8, "little"))
            digest.update(column.tobytes())
        return digest.hexdigest()

    def extend(self, other: "PackedTrace") -> None:
        self._ops.extend(other._ops)
        self._args.extend(other._args)
        self._pcs.extend(other._pcs)

    # ------------------------------------------------------------------
    # conversions

    @classmethod
    def from_trace(cls, trace: "Trace") -> "PackedTrace":
        """Pack an object trace; lossless."""
        ops = array("q")
        args = array("q")
        pcs = array("q")
        for op, arg, pc in trace.instructions:
            ops.append(op)
            args.append(arg)
            pcs.append(pc)
        return cls(trace.name, ops, args, pcs)

    def to_trace(self) -> "Trace":
        """Unpack into an object trace; lossless."""
        from repro.isa.trace import Trace

        return Trace(self.name, self.instructions)


#: Either trace form; everything downstream of the trace generator
#: (simulator, encoder, experiment drivers) accepts both.
AnyTrace = Union["Trace", PackedTrace]


def as_packed(trace: AnyTrace) -> PackedTrace:
    """``trace`` in packed form: packed traces pass through unchanged,
    object traces are packed once with :meth:`PackedTrace.from_trace`.

    Every simulator and locality loop reads packed columns only; public
    entry points that also accept object traces call this first.
    """
    if isinstance(trace, PackedTrace):
        return trace
    return PackedTrace.from_trace(trace)
