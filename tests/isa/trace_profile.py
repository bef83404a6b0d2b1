"""Trace summary statistics for validating workload models.

How big is a trace's working set, how sequential are its accesses, and
how concentrated are its reuses: the workload tests use
:func:`profile_trace` to confirm each benchmark model exhibits the
access character its SPEC/TPC namesake is modelled after.  Either
trace form is accepted; object traces are packed on entry and the scan
reads the columns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.isa.instructions import Opcode
from repro.isa.packed import AnyTrace, as_packed

__all__ = ["TraceProfile", "profile_trace"]

_LOAD = int(Opcode.LOAD)
_STORE = int(Opcode.STORE)


@dataclass(frozen=True)
class TraceProfile:
    """Summary statistics of one trace's memory behaviour."""

    memory_refs: int
    distinct_lines: int
    working_set_bytes: int
    sequential_fraction: float
    read_fraction: float
    top_line_share: float

    @property
    def locality_flavor(self) -> str:
        """A coarse label: "streaming", "reuse-heavy", or "scattered".

        Hot-spot concentration is checked before sequentiality: a loop
        hammering one line is reuse-heavy even though consecutive
        accesses trivially hit the same line.
        """
        if self.top_line_share > 0.05 or (
            self.memory_refs > 4 * max(self.distinct_lines, 1)
        ):
            return "reuse-heavy"
        if self.sequential_fraction > 0.5:
            return "streaming"
        return "scattered"


def profile_trace(trace: AnyTrace, line_size: int = 32) -> TraceProfile:
    """Compute a :class:`TraceProfile` in one pass.

    The packed columns are scanned directly (no instruction objects),
    so workload validation over full benchmark traces stays cheap.
    """
    refs = 0
    reads = 0
    sequential = 0
    last_line = None
    line_counts: Counter = Counter()
    ops, args, _pcs = as_packed(trace).columns()
    for op, arg in zip(ops, args):
        if op == _LOAD:
            reads += 1
        elif op != _STORE:
            continue
        refs += 1
        line = arg // line_size
        line_counts[line] += 1
        if last_line is not None and line in (last_line, last_line + 1):
            sequential += 1
        last_line = line
    distinct = len(line_counts)
    top = max(line_counts.values()) if line_counts else 0
    return TraceProfile(
        memory_refs=refs,
        distinct_lines=distinct,
        working_set_bytes=distinct * line_size,
        sequential_fraction=sequential / refs if refs else 0.0,
        read_fraction=reads / refs if refs else 0.0,
        top_line_share=top / refs if refs else 0.0,
    )
