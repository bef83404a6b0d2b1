"""Trace analysis utilities: working sets, strides, reuse distances.

Small, dependency-free diagnostics for validating workload models —
how big is a trace's working set, how sequential are its accesses, and
how far apart are its reuses.  The workload tests use these to confirm
each benchmark model exhibits the access character its SPEC/TPC
namesake is modelled after.

Both entry points accept either trace form; object traces are packed
on entry, and the scan reads the columns without materializing
per-instruction objects.  The reuse histogram rides on
:mod:`repro.locality` — O(N log M) via the Fenwick-indexed LRU stack
instead of the former O(N·M) ordered-dict scan, with identical labels
and counts (pinned by
``tests/isa/test_histogram_equivalence.py``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.isa.instructions import Opcode
from repro.isa.packed import AnyTrace, as_packed
from repro.locality.mrc import distance_histogram

__all__ = ["TraceProfile", "profile_trace", "reuse_distance_histogram"]

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


def reuse_distance_histogram(
    trace: AnyTrace,
    line_size: int = 32,
    buckets: tuple[int, ...] = (16, 64, 256, 1024),
) -> dict[str, int]:
    """LRU stack (reuse) distances of line accesses, bucketed.

    The returned dict maps "<=N" labels (plus ">last" for colder reuses
    and "cold" for first touches) to access counts.  Exact stack
    distances come from the Fenwick-indexed LRU stack of
    :mod:`repro.locality` — O(refs · log lines), usable on full
    benchmark traces, not just test-scale ones.
    """
    full = distance_histogram(trace, line_size=line_size)
    bucketed = full.bucketed(buckets)
    # Preserve the historical label order: buckets, overflow, cold.
    labels = [f"<={b}" for b in buckets] + [f">{buckets[-1]}", "cold"]
    return {label: bucketed[label] for label in labels}
