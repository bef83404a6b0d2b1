"""Wall-clock timeline of a sweep: where the hours actually go.

The sweep drivers built on the cell lifecycle of
:mod:`repro.core.parallel` record one :class:`WallSpan` per cell
*attempt* into a :class:`SweepTimeline` — so retries, timeouts,
in-process fallbacks, and store-restored cells are all visible — plus
instant events for cells resumed from the run store.  Export via
:func:`repro.telemetry.chrometrace.sweep_trace_events` renders one
timeline row per machine configuration in Perfetto.

Timestamps are ``time.monotonic()`` seconds from the timeline's own
start, taken in whichever process does the work; all spans of one
sweep share the parent's clock (worker attempts are timed by the
parent around the worker's lifetime).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["SweepTimeline", "WallSpan"]


@dataclass(frozen=True)
class WallSpan:
    """One wall-clock interval of sweep work.

    ``status`` is ``ok``, ``error``, ``crash``, ``timeout``,
    ``restored`` (cell skipped via the run store), or ``prepare``
    (parent-side optimizer + trace generation).  ``attempt`` counts
    from 1; annotations carry scheduler context (retry delay, failure
    message, in-process fallback, ...).
    """

    name: str
    benchmark: str
    config: str
    start: float
    end: float
    status: str
    attempt: int = 1
    annotations: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SweepTimeline:
    """Collects :class:`WallSpan` records for one sweep invocation."""

    def __init__(self) -> None:
        self.origin = time.monotonic()
        self.spans: list[WallSpan] = []

    def clock(self) -> float:
        """Seconds since the timeline was created."""
        return time.monotonic() - self.origin

    def record(
        self,
        name: str,
        benchmark: str,
        config: str,
        start: float,
        status: str,
        attempt: int = 1,
        end: Optional[float] = None,
        **annotations,
    ) -> WallSpan:
        """Append a span; ``start``/``end`` are :meth:`clock` values."""
        span = WallSpan(
            name=name,
            benchmark=benchmark,
            config=config,
            start=start,
            end=self.clock() if end is None else end,
            status=status,
            attempt=attempt,
            annotations=annotations,
        )
        self.spans.append(span)
        return span

    def attempt(
        self,
        benchmark: str,
        config: str,
        record,
        ended: Optional[float] = None,
    ) -> WallSpan:
        """Record one finished :class:`~repro.core.parallel.CellAttempt`.

        ``ended`` is the attempt's ``time.monotonic()`` end stamp
        (default: now); the failure message and an in-process fallback
        ride along as annotations.
        """
        end = self.clock() if ended is None else ended - self.origin
        annotations = {}
        if record.message:
            annotations["message"] = record.message
        if record.fallback:
            annotations["fallback"] = "in-process"
        return self.record(
            benchmark,
            benchmark,
            config,
            start=max(end - record.seconds, 0.0),
            end=end,
            status=record.status,
            attempt=record.attempt,
            **annotations,
        )

    def restored(self, benchmark: str, config: str, **annotations) -> WallSpan:
        """Record a cell skipped because its stored result verified."""
        now = self.clock()
        return self.record(
            f"{benchmark} (restored)",
            benchmark,
            config,
            start=now,
            end=now,
            status="restored",
            **annotations,
        )

    def total_busy_seconds(self) -> float:
        """Sum of span durations (not wall time: spans overlap)."""
        return sum(span.duration for span in self.spans)

    def by_status(self, status: str) -> list[WallSpan]:
        return [span for span in self.spans if span.status == status]

    def __len__(self) -> int:
        return len(self.spans)
