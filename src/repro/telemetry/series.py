"""Columnar time-series storage for interval samples.

One row is appended per sampling interval (and at every span boundary,
so per-region deltas are exact).  Columns are ``array('q')`` — one
machine word per field, no per-sample objects — matching the packed
trace representation the rest of the stack uses for bulk data.
"""

from __future__ import annotations

from array import array
from typing import Iterator

__all__ = ["SAMPLE_FIELDS", "TimeSeries"]

#: Column order of one sample row.  All cumulative counts except
#: ``cycle`` (the sample's simulated-cycle timestamp), the two
#: occupancy gauges, and ``gate_on`` (0/1 hardware gate state).
SAMPLE_FIELDS = (
    "cycle",
    "instructions",
    "l1d_accesses",
    "l1d_misses",
    "l2_accesses",
    "l2_misses",
    "l1d_occupancy",
    "assist_occupancy",
    "mem_traffic",
    "assist_hits",
    "bypassed_fills",
    "gate_on",
)


class TimeSeries:
    """Fixed-schema columnar sample buffer (see :data:`SAMPLE_FIELDS`)."""

    __slots__ = ("_columns",)

    def __init__(self) -> None:
        self._columns = {name: array("q") for name in SAMPLE_FIELDS}

    def __len__(self) -> int:
        return len(self._columns["cycle"])

    def append(self, row: tuple[int, ...]) -> None:
        """Append one sample; ``row`` must match :data:`SAMPLE_FIELDS`."""
        if len(row) != len(SAMPLE_FIELDS):
            raise ValueError(
                f"sample row has {len(row)} fields, "
                f"expected {len(SAMPLE_FIELDS)}"
            )
        for name, value in zip(SAMPLE_FIELDS, row):
            self._columns[name].append(value)

    def extend(self, columns) -> None:
        """Append many samples given column-wise, in :data:`SAMPLE_FIELDS`
        order (one sequence of ints per field, all the same length)."""
        if len(columns) != len(SAMPLE_FIELDS):
            raise ValueError(
                f"sample columns have {len(columns)} fields, "
                f"expected {len(SAMPLE_FIELDS)}"
            )
        if len({len(column) for column in columns}) > 1:
            raise ValueError("sample columns differ in length")
        for name, column in zip(SAMPLE_FIELDS, columns):
            self._columns[name].extend(column)

    def column(self, name: str) -> array:
        """One column by field name, by reference — do not mutate."""
        return self._columns[name]

    def last_cycle(self) -> int:
        """Timestamp of the most recent sample (-1 when empty)."""
        cycles = self._columns["cycle"]
        return cycles[-1] if cycles else -1

    def rows(self) -> Iterator[dict[str, int]]:
        """Samples as dicts, in time order (reporting, not hot-path)."""
        columns = [self._columns[name] for name in SAMPLE_FIELDS]
        for values in zip(*columns):
            yield dict(zip(SAMPLE_FIELDS, values))

    def interval_rates(
        self, numerator: str, denominator: str
    ) -> list[tuple[int, float]]:
        """Per-interval ratio of two cumulative columns.

        Returns ``(cycle, rate)`` per sample, where ``rate`` is the
        delta of ``numerator`` over the delta of ``denominator`` since
        the previous sample (0.0 for an idle interval).  This is how
        cumulative miss columns become the interval miss-ratio track.
        """
        nums = self._columns[numerator]
        dens = self._columns[denominator]
        cycles = self._columns["cycle"]
        out: list[tuple[int, float]] = []
        prev_num = prev_den = 0
        for cycle, num, den in zip(cycles, nums, dens):
            delta_den = den - prev_den
            rate = (num - prev_num) / delta_den if delta_den else 0.0
            out.append((cycle, rate))
            prev_num, prev_den = num, den
        return out
