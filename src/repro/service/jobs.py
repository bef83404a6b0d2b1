"""Job lifecycle and event streams for the sweep service.

A :class:`Job` is one ``POST /v1/jobs`` request: a set of cell specs
plus mutable progress state.  Everything a client can observe — cell
transitions (``warm``/``coalesced``/``running``/``done``/``failed``),
scheduler attempts, and the terminal job event — is an entry in the
job's append-only event log, numbered by ``seq``.  ``GET
/v1/jobs/{id}/events`` streams the log as NDJSON: the server replays
existing events and then blocks on :meth:`Job.wait_events` for new
ones, so a client never misses or double-sees an event regardless of
when it connects.

All mutation happens on the event loop (worker threads hand records
over via ``loop.call_soon_threadsafe``), so no locks are needed.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.service.cells import CellSpec

__all__ = ["TERMINAL", "CellState", "Job"]

_JOB_IDS = itertools.count(1)

#: Terminal job states (``state`` in the job document).  Shared with
#: the client so both sides agree on when to stop waiting.
TERMINAL = ("done", "failed", "cancelled")


@dataclass
class CellState:
    """Client-visible progress of one cell within a job.

    ``source`` records how the value was obtained: ``store`` (warm
    hit), ``coalesced`` (another job's in-flight computation),
    ``scheduler`` (cold execution), or ``""`` while undecided.
    """

    spec: CellSpec
    state: str = "queued"  # queued|preparing|running|done|failed|cancelled
    source: str = ""
    attempts: int = 0
    key: str = ""
    message: str = ""

    def to_json(self) -> dict:
        return {
            "benchmark": self.spec.benchmark,
            "config": self.spec.config,
            "kind": self.spec.kind,
            "state": self.state,
            "source": self.source,
            "attempts": self.attempts,
            "key": self.key,
            "message": self.message,
        }


@dataclass
class Job:
    """One submitted request and its observable lifecycle."""

    kind: str
    params: dict
    cells: list[CellState]
    id: str = field(default_factory=lambda: f"job-{next(_JOB_IDS):06d}")
    state: str = "queued"  # queued|running|done|failed|cancelled
    created: float = field(default_factory=time.time)
    finished: Optional[float] = None
    error: str = ""
    #: Admission identity (``X-Repro-Client`` header or peer address);
    #: the per-client in-flight cap is keyed on it.
    client: str = ""
    events: list[dict] = field(default_factory=list)
    #: Canonical result document bytes, set exactly once at completion.
    result_bytes: Optional[bytes] = None
    #: Chrome-trace artifact (traceEvents document), set at completion.
    trace_document: Optional[dict] = None
    #: Set (from any thread) to abort the job: in-flight cell workers
    #: are killed via :func:`repro.core.parallel.execute_cell`'s cancel
    #: path, queued cells never start.  Checked by the event-loop side
    #: at every cell boundary.
    cancel_event: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )
    #: Why the job was cancelled (client request, deadline, drain).
    cancel_reason: str = ""
    #: state → number of jobs in it, shared by every job of a service
    #: and kept by :meth:`_set_state`.
    state_counts: dict[str, int] = field(
        default_factory=dict, repr=False, compare=False
    )
    _waiters: list[asyncio.Future] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.state_counts[self.state] = (
            self.state_counts.get(self.state, 0) + 1
        )

    @property
    def cancelling(self) -> bool:
        return self.cancel_event.is_set()

    # ------------------------------------------------------------------
    # event log

    def emit(self, event: str, **fields: Any) -> dict:
        """Append one event and wake every pending :meth:`wait_events`."""
        record = {"seq": len(self.events), "event": event, "job": self.id}
        record.update(fields)
        self.events.append(record)
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)
        return record

    async def wait_events(self, since: int) -> list[dict]:
        """Events with ``seq >= since``, blocking until at least one."""
        while len(self.events) <= since:
            waiter = asyncio.get_running_loop().create_future()
            self._waiters.append(waiter)
            await waiter
        return self.events[since:]

    # ------------------------------------------------------------------
    # transitions (event-loop only)

    def cell_event(self, cell: CellState, state: str, **fields) -> None:
        cell.state = state
        for name, value in fields.items():
            if hasattr(cell, name):
                setattr(cell, name, value)
        self.emit(
            "cell",
            benchmark=cell.spec.benchmark,
            config=cell.spec.config,
            state=state,
            source=cell.source,
            attempts=cell.attempts,
            **{
                name: value
                for name, value in fields.items()
                if not hasattr(cell, name)
            },
        )

    def _set_state(self, state: str) -> None:
        """The one place a job changes state."""
        counts = self.state_counts
        left = counts[self.state] - 1
        if left:
            counts[self.state] = left
        else:
            del counts[self.state]
        counts[state] = counts.get(state, 0) + 1
        self.state = state

    def start(self) -> None:
        self._set_state("running")
        self.emit("job", state="running")

    def finish(self, state: str, error: str = "") -> None:
        self._set_state(state)
        self.error = error
        self.finished = time.time()
        self.emit("job", state=state, error=error)

    @property
    def done(self) -> bool:
        return self.state in TERMINAL

    async def wait(self) -> None:
        """Block until the job reaches a terminal state."""
        seq = 0
        while not self.done:
            events = await self.wait_events(seq)
            seq = events[-1]["seq"] + 1

    # ------------------------------------------------------------------

    def to_json(self) -> dict:
        counts: dict[str, int] = {}
        for cell in self.cells:
            counts[cell.state] = counts.get(cell.state, 0) + 1
        return {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "params": self.params,
            "created": self.created,
            "finished": self.finished,
            "error": self.error,
            "client": self.client,
            "cancel_reason": self.cancel_reason,
            "cells": [cell.to_json() for cell in self.cells],
            "cell_counts": counts,
            "events": len(self.events),
        }
