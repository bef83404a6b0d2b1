"""Distance histograms and miss-ratio curves (MRCs).

One pass over a trace through the :class:`~repro.locality.stack.\
ReuseStackEngine` yields the full stack-distance histogram; by Mattson's
stack-inclusion property that histogram *is* the miss profile of every
fully-associative LRU cache at once: an access with stack distance ``d``
hits in any LRU cache of capacity > ``d`` lines and misses in every
smaller one.  So

    misses(C) = cold accesses + #{accesses with distance >= C}

exactly — not approximately — which is pinned against direct
:class:`repro.memory.cache.SetAssociativeCache` simulation by
``tests/locality/test_mrc_cache_agreement.py``.

:func:`distance_histogram` scans the columns of a
:class:`~repro.isa.packed.PackedTrace` (ints compared against ints, no
per-record :class:`Instruction` objects), like the simulator's hot
loop; object traces are packed on entry.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.isa.instructions import Opcode
from repro.isa.packed import AnyTrace, as_packed
from repro.locality.stack import COLD, ReuseStackEngine

__all__ = ["DistanceHistogram", "MissRatioCurve", "distance_histogram"]

_LOAD = int(Opcode.LOAD)
_STORE = int(Opcode.STORE)


class DistanceHistogram:
    """Counts of accesses per exact LRU stack distance, plus cold misses."""

    __slots__ = ("counts", "cold")

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.cold = 0

    def record(self, distance: int) -> None:
        if distance == COLD:
            self.cold += 1
        else:
            counts = self.counts
            counts[distance] = counts.get(distance, 0) + 1

    @property
    def total(self) -> int:
        """Total accesses recorded (reuses plus cold)."""
        return self.cold + sum(self.counts.values())

    @property
    def max_distance(self) -> int:
        """Largest observed distance, or -1 if no reuse occurred."""
        return max(self.counts) if self.counts else -1

    def merged(self, other: "DistanceHistogram") -> "DistanceHistogram":
        merged = DistanceHistogram()
        merged.cold = self.cold + other.cold
        counts = dict(self.counts)
        for distance, count in other.counts.items():
            counts[distance] = counts.get(distance, 0) + count
        merged.counts = counts
        return merged

    def bucketed(self, buckets: tuple[int, ...]) -> dict[str, int]:
        """Bucket the distances under the legacy histogram labels.

        Returns the same ``{"<=N": ..., ">last": ..., "cold": ...}``
        mapping as the original ``reuse_distance_histogram``.
        """
        labels = [f"<={b}" for b in buckets]
        histogram = {label: 0 for label in labels}
        histogram[f">{buckets[-1]}"] = 0
        histogram["cold"] = self.cold
        for distance, count in self.counts.items():
            for bucket, label in zip(buckets, labels):
                if distance <= bucket:
                    histogram[label] += count
                    break
            else:
                histogram[f">{buckets[-1]}"] += count
        return histogram

    def curve(self) -> "MissRatioCurve":
        return MissRatioCurve(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistanceHistogram):
            return NotImplemented
        return self.cold == other.cold and self.counts == other.counts

    def __repr__(self) -> str:
        return (
            f"DistanceHistogram({self.total} accesses, {self.cold} cold, "
            f"max distance {self.max_distance})"
        )


class MissRatioCurve:
    """Predicted fully-associative LRU miss counts for *every* capacity.

    Built once from a :class:`DistanceHistogram`; each query is a binary
    search over the distinct observed distances.
    """

    __slots__ = ("total", "cold", "_distances", "_at_least")

    def __init__(self, histogram: DistanceHistogram):
        self.total = histogram.total
        self.cold = histogram.cold
        self._distances = sorted(histogram.counts)
        # _at_least[i] = accesses with distance >= _distances[i]
        suffix = 0
        at_least = [0] * len(self._distances)
        for i in range(len(self._distances) - 1, -1, -1):
            suffix += histogram.counts[self._distances[i]]
            at_least[i] = suffix
        self._at_least = at_least

    def misses(self, cache_lines: int) -> int:
        """Predicted misses in an LRU cache of ``cache_lines`` lines.

        ``cache_lines`` of 0 means every access misses.
        """
        if cache_lines <= 0:
            return self.total
        index = bisect_left(self._distances, cache_lines)
        reuse_misses = (
            self._at_least[index] if index < len(self._distances) else 0
        )
        return self.cold + reuse_misses

    def miss_ratio(self, cache_lines: int) -> float:
        """Predicted miss ratio at ``cache_lines``; 0.0 on an empty trace."""
        if self.total == 0:
            return 0.0
        return self.misses(cache_lines) / self.total

    def sizes(self) -> list[int]:
        """Capacities (in lines) where the curve steps down.

        The miss count changes only at ``distance + 1`` boundaries;
        capacity 1 is always included as the left edge.
        """
        steps = {1}
        steps.update(d + 1 for d in self._distances)
        return sorted(steps)

    def as_points(self) -> list[tuple[int, float]]:
        """The full curve as (capacity, miss ratio) at its step points."""
        return [(size, self.miss_ratio(size)) for size in self.sizes()]

    def __repr__(self) -> str:
        return (
            f"MissRatioCurve({self.total} accesses, "
            f"{len(self._distances)} distinct distances)"
        )


def distance_histogram(
    trace: AnyTrace,
    line_size: int = 32,
    engine: ReuseStackEngine | None = None,
) -> DistanceHistogram:
    """Stack-distance histogram of a trace's memory references, one pass.

    ``engine`` lets callers thread one LRU stack through several trace
    segments (see :mod:`repro.locality.profile`); by default a fresh
    stack is used, i.e. the first touch of every line is cold.
    """
    engine = engine or ReuseStackEngine()
    histogram = DistanceHistogram()
    access = engine.access
    record = histogram.record
    ops, args, _pcs = as_packed(trace).columns()
    for op, arg in zip(ops, args):
        if op == _LOAD or op == _STORE:
            record(access(arg // line_size))
    return histogram
