"""The sweep service: asyncio HTTP front end over the run store.

Request lifecycle::

    POST /v1/jobs ──▶ decompose() ──▶ one CellState per store cell
                                           │
                          ┌────────────────┼─────────────────┐
                          ▼                ▼                 ▼
                     warm (store)    in-flight (dup)    cold (miss)
                     store.get()     await the same     execute_cell()
                     microseconds    future — one       in a worker
                     no scheduler    computation for    process, with
                     involvement     N requests         timeout/retry

    ──▶ aggregate_result() ──▶ canonical JSON, byte-identical to the
        offline runner's payload for the same store keys.

Single-flight coalescing leans on the event loop for atomicity: the
in-flight check, the (synchronous) store probe, and the future
registration happen with **no await in between**, so two concurrent
requests for one cold cell can never both miss the registry.  Cold
cells run on :func:`repro.core.parallel.execute_cell` in worker
threads (one blocking call per cell), so a hung or killed worker
process is the scheduler's problem — never the event loop's — and a
``REPRO_FAULTS`` chaos spec degrades to a structured per-cell failure
while the server keeps serving.

Concurrency is capped twice: a global semaphore sized to the service's
worker budget, and a per-job semaphore sized to the request's explicit
``jobs`` override (threaded end to end as a parameter; the service
never mutates ``REPRO_JOBS``).

On top of that sits the resilience layer:

* **Admission control** — at most ``max_pending`` non-terminal jobs
  and ``client_cap`` per client (``X-Repro-Client`` header, else peer
  address); excess submissions are shed with a structured ``429`` and
  a ``Retry-After`` header while admitted jobs run to completion.
* **Lifecycle control** — ``DELETE /v1/jobs/{id}`` (and per-job
  ``deadline`` seconds) sets the job's cancel event: in-flight cell
  workers are killed through :func:`execute_cell`'s kill path, queued
  cells never start, and the job finishes ``cancelled``.
* **Graceful drain** — SIGTERM/SIGINT stop admission (503 +
  ``Retry-After``), emit a ``draining`` event on every live stream,
  let in-flight jobs finish within ``drain_grace`` seconds (completed
  cells are already checkpointed to the store as they land), cancel
  stragglers, then exit cleanly.
* **Circuit breaker** — ``breaker_threshold`` consecutive worker-pool
  failures trip warm-only mode: store hits keep serving, cold work is
  shed with a structured ``503`` until a half-open probe succeeds
  after ``breaker_cooldown`` seconds.

``/v1/healthz`` answers whenever the event loop does; ``/v1/readyz``
additionally requires admission to be open (not draining, executor
accepting) and reports the breaker state.

``POST /v1/predict`` sits apart from the job machinery: it answers
with the *analytic* locality model (:mod:`repro.analytic`) — a
predicted MRC, per-region gating, and tile choices computed straight
from the IR in milliseconds — so it responds synchronously, runs no
simulation, and touches no store cell.  The model runs once per
(benchmark, scale), single-flighted; every ``threshold`` and
``miss_floor`` is answered by re-gating that analysis.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

from repro.analytic.predict import predict_benchmark, regate_prediction
from repro.core.faults import FaultPlan, corrupt_stored_entry
from repro.core.parallel import (
    DEFAULT_BACKOFF,
    DEFAULT_RETRIES,
    POLL_SECONDS,
    CellAttempt,
    CellFailure,
    execute_cell,
    resolve_jobs,
)
from repro.core.runner import _slim_codes
from repro.core.runstore import RunStore, trace_checksum
from repro.core.versions import prepare_codes
from repro.hwopt.policy import DEFAULT_MISS_FLOOR
from repro.service.cells import (
    MACHINES,
    SCALES,
    CellSpec,
    JobRequest,
    aggregate_result,
    canonical_json,
    decompose,
    is_integer,
    is_number,
)
from repro.service.jobs import CellState, Job
from repro.telemetry import SweepTimeline, sweep_trace_events
from repro.workloads.base import SMALL, Scale
from repro.workloads.registry import get_spec

__all__ = [
    "BackgroundServer",
    "CircuitBreaker",
    "JobOptions",
    "ServiceConfig",
    "SweepService",
    "serve_forever",
]

#: Hard ceilings on what one HTTP request may carry.
_MAX_BODY = 1 << 20
_MAX_HEADERS = 100

_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class ServiceConfig:
    """Startup parameters of one service instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (the bound port is reported)
    store: Union[str, Path] = "runs"
    #: Baseline worker budget; ``None`` resolves REPRO_JOBS/CPU count
    #: once at startup.  Per-request ``jobs`` overrides never exceed it.
    jobs: Optional[int] = None
    scale: Scale = SMALL
    timeout: Optional[float] = None
    retries: int = DEFAULT_RETRIES
    backoff: float = DEFAULT_BACKOFF
    #: Service-wide chaos plan; ``None`` reads ``REPRO_FAULTS``.
    faults: Optional[FaultPlan] = None
    #: Admission high-water mark: max non-terminal jobs before load
    #: shedding (429 + Retry-After).
    max_pending: int = 64
    #: Per-client in-flight job cap (X-Repro-Client header, else the
    #: peer address).
    client_cap: int = 16
    #: Retry-After hint (seconds) attached to shed responses.
    shed_retry_after: float = 1.0
    #: Seconds a SIGTERM drain waits for in-flight jobs before
    #: cancelling them (killing their workers).
    drain_grace: float = 20.0
    #: Consecutive worker-pool failures that trip the circuit breaker
    #: into warm-only mode.
    breaker_threshold: int = 5
    #: Seconds an open breaker waits before the half-open probe.
    breaker_cooldown: float = 30.0


@dataclass(frozen=True)
class JobOptions:
    """Per-request execution knobs (all optional in the body)."""

    jobs: int
    timeout: Optional[float]
    retries: int
    backoff: float
    plan: FaultPlan
    #: Wall-clock budget for the whole job; exceeded → cancelled.
    deadline: Optional[float] = None
    semaphore: asyncio.Semaphore = field(compare=False, repr=False, default=None)


class CircuitBreaker:
    """Worker-pool circuit breaker (closed → open → half-open).

    Counts *consecutive* scheduler-execution failures (error, crash,
    timeout — never cancellations or breaker refusals).  At
    ``threshold`` the breaker opens: cold cells are refused (the
    service serves warm store hits only) until ``cooldown`` seconds
    pass, after which exactly one cold execution is admitted as the
    half-open probe.  A probe success closes the breaker; a probe
    failure reopens it for another cooldown.
    """

    def __init__(
        self,
        threshold: int = 5,
        cooldown: float = 30.0,
        clock=time.monotonic,
    ):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = "closed"  # closed|open|half-open
        self.failures = 0  # consecutive
        self.trips = 0
        self._clock = clock
        self._opened_at = 0.0
        self._probing = False

    def allow_cold(self) -> bool:
        """May a cold execution start right now?  (May start a probe.)"""
        if self.state == "closed":
            return True
        if self.state == "open":
            if self._clock() - self._opened_at < self.cooldown:
                return False
            self.state = "half-open"
            self._probing = False
        if self._probing:
            return False  # one probe at a time
        self._probing = True
        return True

    def record_success(self) -> None:
        self.failures = 0
        self._probing = False
        self.state = "closed"

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == "half-open" or self.failures >= self.threshold:
            if self.state != "open":
                self.trips += 1
            self.state = "open"
            self._opened_at = self._clock()
            self._probing = False

    def release_probe(self) -> None:
        """Abort an admitted cold slot without a verdict (cancellation).

        Without this, a cancelled half-open probe would leave the
        breaker waiting forever for a result that never comes.
        """
        self._probing = False

    def retry_after(self) -> float:
        """Seconds until a cold retry could be admitted (>= 0)."""
        if self.state != "open":
            return 0.0
        return max(
            0.0, self.cooldown - (self._clock() - self._opened_at)
        )

    def to_json(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self.failures,
            "threshold": self.threshold,
            "cooldown": self.cooldown,
            "trips": self.trips,
            "retry_after": round(self.retry_after(), 3),
        }


class _BadRequest(ValueError):
    """Client error surfaced as an HTTP 400."""


class _Shed(Exception):
    """An admission refusal: HTTP 429/503 + Retry-After + JSON body."""

    def __init__(
        self,
        status: int,
        reason: str,
        message: str,
        retry_after: float,
        **extra: Any,
    ):
        super().__init__(message)
        self.status = status
        self.reason = reason
        self.message = message
        self.retry_after = retry_after
        self.extra = extra

    def body(self) -> dict:
        return {
            "error": self.message,
            "reason": self.reason,
            "retry_after": round(self.retry_after, 3),
            **self.extra,
        }


class SweepService:
    """All service state; every method runs on the event loop."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.store = (
            config.store
            if isinstance(config.store, RunStore)
            else RunStore(config.store)
        )
        self.workers = resolve_jobs(config.jobs)
        self.faults = (
            config.faults if config.faults is not None else FaultPlan.from_env()
        )
        self.jobs: dict[str, Job] = {}
        self.metrics: dict[str, int] = {
            "requests": 0,
            "jobs_submitted": 0,
            "admitted": 0,
            "shed_overload": 0,
            "shed_client_cap": 0,
            "shed_breaker": 0,
            "shed_draining": 0,
            "jobs_cancelled": 0,
            "cells_total": 0,
            "warm_hits": 0,
            "coalesced": 0,
            "scheduler_executions": 0,
            "cell_failures": 0,
            "degraded_cells": 0,
            "attempts": 0,
            "prepares": 0,
            "predicts": 0,
            "errors": 0,
            "drains": 0,
        }
        self.breaker = CircuitBreaker(
            threshold=config.breaker_threshold,
            cooldown=config.breaker_cooldown,
        )
        self.draining = False
        #: client id → number of that client's non-terminal jobs.
        self._client_inflight: dict[str, int] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # +2 so benchmark preparation never starves behind a full grid
        # of executing cells.
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers + 2,
            thread_name_prefix="repro-service",
        )
        self._sem = asyncio.Semaphore(self.workers)
        #: Single-flight registry: store key → future of the in-flight
        #: computation.  Entries exist only while a cell is executing.
        self._inflight: dict[str, asyncio.Future] = {}
        #: (benchmark, scale.name) → (slimmed codes, trace digests).
        self._prep_cache: dict[tuple[str, str], tuple] = {}
        self._prep_inflight: dict[tuple[str, str], asyncio.Future] = {}
        #: (benchmark, scale.name) → analytic payload at the default
        #: gating, which every request re-gates.
        self._analyses: dict[tuple[str, str], dict] = {}
        self._analysis_inflight: dict[tuple[str, str], asyncio.Future] = {}

    # ------------------------------------------------------------------
    # lifecycle

    def attach(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    def close(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # job submission and execution

    def parse_options(self, body: dict) -> JobOptions:
        jobs = body.get("jobs")
        if jobs is not None and (not is_integer(jobs) or jobs < 1):
            raise _BadRequest(f"jobs must be a positive integer, got {jobs!r}")
        jobs = min(resolve_jobs(jobs, default=self.workers), self.workers)
        timeout = body.get("timeout", self.config.timeout)
        if timeout is not None and (not is_number(timeout) or timeout <= 0):
            raise _BadRequest(f"timeout must be positive, got {timeout!r}")
        retries = body.get("retries", self.config.retries)
        if not is_integer(retries) or retries < 0:
            raise _BadRequest(f"retries must be an integer >= 0, got {retries!r}")
        faults = body.get("faults")
        if faults is not None and not isinstance(faults, str):
            raise _BadRequest("faults must be a spec string")
        try:
            plan = (
                FaultPlan.parse(faults) if faults is not None else self.faults
            )
        except ValueError as exc:
            raise _BadRequest(str(exc)) from None
        deadline = body.get("deadline")
        if deadline is not None and (
            not is_number(deadline) or deadline <= 0
        ):
            raise _BadRequest(
                f"deadline must be positive seconds, got {deadline!r}"
            )
        return JobOptions(
            jobs=jobs,
            timeout=timeout,
            retries=retries,
            backoff=self.config.backoff,
            plan=plan,
            deadline=deadline,
            semaphore=asyncio.Semaphore(jobs),
        )

    # ------------------------------------------------------------------
    # admission control

    def pending_jobs(self) -> int:
        """Jobs admitted and not yet finished, summed over clients."""
        return sum(self._client_inflight.values())

    def _all_warm(self, request: JobRequest) -> bool:
        """Can every cell of ``request`` be served from the store now?

        Used by the open-breaker admission gate: warm-only mode still
        serves jobs that will never touch the scheduler.  Cells that
        need prepared codes are only resolvable if their benchmark's
        trace digests are already cached; otherwise computing the key
        itself would need a (cold) prepare, so they count as cold.
        """
        for spec in request.specs:
            digests: tuple = ()
            if spec.needs_codes:
                cached = self._prep_cache.get(
                    (spec.benchmark, spec.scale.name)
                )
                if cached is None:
                    return False
                digests = cached[1]
            key = spec.store_key(self.store, digests)
            if not spec.payload_valid(self.store.get(key)):
                return False
        return True

    def _admit(self, request: JobRequest, client: str) -> None:
        """Shed-or-admit; raises :class:`_Shed` to refuse."""
        if self.draining:
            self.metrics["shed_draining"] += 1
            raise _Shed(
                503,
                "draining",
                "service is draining; not accepting new jobs",
                self.config.drain_grace,
            )
        pending = self.pending_jobs()
        if pending >= self.config.max_pending:
            self.metrics["shed_overload"] += 1
            raise _Shed(
                429,
                "overload",
                f"pending job high-water mark reached "
                f"({pending}/{self.config.max_pending})",
                self.config.shed_retry_after,
                pending=pending,
                high_water=self.config.max_pending,
            )
        inflight = self._client_inflight.get(client, 0)
        if inflight >= self.config.client_cap:
            self.metrics["shed_client_cap"] += 1
            raise _Shed(
                429,
                "client_cap",
                f"client {client!r} has {inflight} jobs in flight "
                f"(cap {self.config.client_cap})",
                self.config.shed_retry_after,
                client=client,
                inflight=inflight,
                cap=self.config.client_cap,
            )
        if (
            self.breaker.state == "open"
            and self.breaker.retry_after() > 0
            and not self._all_warm(request)
        ):
            self.metrics["shed_breaker"] += 1
            raise _Shed(
                503,
                "breaker_open",
                "circuit breaker open: serving warm store cells only",
                max(self.breaker.retry_after(), 0.1),
                breaker=self.breaker.to_json(),
            )

    def submit(self, body: dict, client: str = "") -> Job:
        """Validate, admit, decompose, and launch one job.

        Returns immediately; raises :class:`_BadRequest` (400) on an
        invalid body and :class:`_Shed` (429/503) on admission refusal.
        """
        try:
            request = decompose(body, self.config.scale)
            options = self.parse_options(body)
        except ValueError as exc:
            raise _BadRequest(str(exc)) from None
        self._admit(request, client)
        job = Job(
            kind=request.kind,
            params=request.params,
            cells=[CellState(spec) for spec in request.specs],
            client=client,
        )
        self.jobs[job.id] = job
        self._client_inflight[client] = (
            self._client_inflight.get(client, 0) + 1
        )
        self.metrics["jobs_submitted"] += 1
        self.metrics["admitted"] += 1
        self.metrics["cells_total"] += len(job.cells)
        job.emit("job", state="queued", cells=len(job.cells))
        self._loop.create_task(self._run_job(job, request, options))
        return job

    # ------------------------------------------------------------------
    # cancellation and drain

    def cancel_job(self, job: Job, reason: str) -> bool:
        """Request cancellation; False if already terminal/cancelling.

        Sets the job's cancel event: executing cell workers are killed
        by :func:`execute_cell` within one poll period, cells queued on
        the worker semaphores abort before starting, and the job
        finishes in state ``cancelled``.
        """
        if job.done or job.cancelling:
            return False
        job.cancel_reason = reason
        job.cancel_event.set()
        self.metrics["jobs_cancelled"] += 1
        job.emit("job", state="cancelling", reason=reason)
        return True

    async def drain(self, budget: Optional[float] = None) -> dict:
        """Graceful shutdown: stop admitting, finish or cancel jobs.

        Emits a ``draining`` event on every live job's stream, waits up
        to ``budget`` seconds for in-flight jobs to finish (their
        completed cells are already checkpointed to the run store as
        they land), cancels the stragglers (killing their worker
        processes), and returns a summary once every job is terminal.
        Idempotent; admission stays closed afterwards.
        """
        budget = (
            budget if budget is not None else self.config.drain_grace
        )
        first = not self.draining
        self.draining = True
        if first:
            self.metrics["drains"] += 1
        active = [job for job in self.jobs.values() if not job.done]
        for job in active:
            job.emit("draining", budget=budget)
        deadline = self._loop.time() + budget
        while (
            any(not job.done for job in active)
            and self._loop.time() < deadline
        ):
            await asyncio.sleep(0.05)
        stragglers = [job for job in active if not job.done]
        for job in stragglers:
            self.cancel_job(job, "drain budget exceeded")
        # Cancellation lands within ~one scheduler poll period; give it
        # a hard bound so drain always returns.
        grace = self._loop.time() + 10.0
        while (
            any(not job.done for job in active)
            and self._loop.time() < grace
        ):
            await asyncio.sleep(0.05)
        return {
            "jobs": len(active),
            "finished": len(active) - len(stragglers),
            "cancelled": len(stragglers),
        }

    async def _run_job(
        self, job: Job, request: JobRequest, options: JobOptions
    ) -> None:
        job.state = "running"
        job.emit("job", state="running")
        deadline_handle = None
        if options.deadline is not None:
            deadline_handle = self._loop.call_later(
                options.deadline,
                self.cancel_job,
                job,
                f"deadline of {options.deadline:g}s exceeded",
            )
        timeline = SweepTimeline()
        try:
            values = await asyncio.gather(
                *(
                    self._resolve_cell(job, cell, options, timeline)
                    for cell in job.cells
                ),
                return_exceptions=True,
            )
        finally:
            if deadline_handle is not None:
                deadline_handle.cancel()
            count = self._client_inflight.get(job.client, 0) - 1
            if count > 0:
                self._client_inflight[job.client] = count
            else:
                self._client_inflight.pop(job.client, None)
        values = [
            value
            if not isinstance(value, BaseException)
            else CellFailure(
                benchmark=cell.spec.benchmark,
                config=cell.spec.config,
                kind="error",
                attempts=max(cell.attempts, 1),
                message=f"{type(value).__name__}: {value}",
            )
            for cell, value in zip(job.cells, values)
        ]
        document = aggregate_result(
            request.kind,
            [cell.spec for cell in job.cells],
            [cell.key for cell in job.cells],
            values,
        )
        job.result_bytes = canonical_json(document)
        job.trace_document = self._trace_document(job, timeline, values)
        if job.cancelling:
            job.finish("cancelled", error=job.cancel_reason)
            return
        failed = any(isinstance(value, CellFailure) for value in values)
        job.finish("failed" if failed else "done")

    async def _resolve_cell(
        self,
        job: Job,
        cell: CellState,
        options: JobOptions,
        timeline: SweepTimeline,
    ) -> Any:
        spec = cell.spec
        digests: tuple = ()
        codes = None
        if spec.needs_codes:
            job.cell_event(cell, "preparing")
            try:
                codes, digests = await self._prepared(spec.benchmark, spec.scale)
            except Exception as exc:  # noqa: BLE001 - degrade per-cell
                failure = CellFailure(
                    benchmark=spec.benchmark,
                    config=spec.config,
                    kind="error",
                    attempts=1,
                    message=f"prepare failed: {type(exc).__name__}: {exc}",
                )
                self.metrics["cell_failures"] += 1
                job.cell_event(cell, "failed", message=failure.message)
                return failure
        key = spec.store_key(self.store, digests)
        cell.key = key

        while True:
            if job.cancelling:
                value = self._cancelled_failure(cell)
                break
            # --- single-flight critical section: the in-flight probe,
            # the store probe, and the future registration must see a
            # consistent world, so there is deliberately NO await
            # between them.
            existing = self._inflight.get(key)
            if existing is not None:
                self.metrics["coalesced"] += 1
                job.cell_event(cell, "running", source="coalesced")
                value = await self._leader_value(job, cell, existing)
                if (
                    isinstance(value, CellFailure)
                    and value.kind == "cancelled"
                    and not job.cancelling
                ):
                    # We coalesced onto a job that got cancelled; this
                    # job is still live, so re-resolve from scratch
                    # (store probe or own execution).
                    continue
                break
            cached = self.store.get(key)
            if spec.payload_valid(cached):
                self.metrics["warm_hits"] += 1
                timeline.restored(spec.benchmark, spec.config)
                job.cell_event(cell, "done", source="store")
                return cached
            future: asyncio.Future = self._loop.create_future()
            self._inflight[key] = future
            job.cell_event(cell, "running", source="scheduler")
            try:
                value = await self._execute(job, cell, options, timeline, codes)
            except Exception as exc:  # noqa: BLE001 - degrade per-cell
                value = CellFailure(
                    benchmark=spec.benchmark,
                    config=spec.config,
                    kind="error",
                    attempts=max(cell.attempts, 1),
                    message=f"{type(exc).__name__}: {exc}",
                )
            if not isinstance(value, CellFailure):
                self.store.put(key, value, meta=spec.store_meta())
                fault = options.plan.store_fault(
                    spec.benchmark, spec.config, max(cell.attempts - 1, 0)
                )
                if fault is not None:
                    corrupt_stored_entry(self.store, key)
                    job.emit(
                        "store-corruption",
                        benchmark=spec.benchmark,
                        config=spec.config,
                        fault=fault.spec(),
                    )
            self._inflight.pop(key, None)
            future.set_result(value)
            break

        if isinstance(value, CellFailure):
            if value.kind == "cancelled":
                job.cell_event(
                    cell,
                    "cancelled",
                    attempts=value.attempts,
                    message=value.message,
                )
            else:
                self.metrics["cell_failures"] += 1
                job.cell_event(
                    cell,
                    "failed",
                    attempts=value.attempts,
                    message=f"{value.kind}: {value.message}",
                )
        else:
            job.cell_event(cell, "done")
        return value

    async def _leader_value(
        self, job: Job, cell: CellState, leader: asyncio.Future
    ) -> Any:
        """The value of the cell ``job`` coalesced onto, or a cancelled
        failure within one poll period of ``job``'s own cancellation;
        the leader runs on for its job either way."""
        while not job.cancelling:
            done, _ = await asyncio.wait((leader,), timeout=POLL_SECONDS)
            if done:
                return leader.result()
        return self._cancelled_failure(cell)

    @staticmethod
    def _cancelled_failure(cell: CellState) -> CellFailure:
        return CellFailure(
            benchmark=cell.spec.benchmark,
            config=cell.spec.config,
            kind="cancelled",
            attempts=cell.attempts,
            message="cell cancelled",
        )

    async def _execute(
        self,
        job: Job,
        cell: CellState,
        options: JobOptions,
        timeline: SweepTimeline,
        codes,
    ) -> Any:
        """Run one cold cell on the scheduler, off the event loop."""
        spec = cell.spec
        if not self.breaker.allow_cold():
            self.metrics["degraded_cells"] += 1
            return CellFailure(
                benchmark=spec.benchmark,
                config=spec.config,
                kind="degraded",
                attempts=0,
                message=(
                    "circuit breaker open (warm-only mode); retry after "
                    f"{self.breaker.retry_after():.1f}s"
                ),
            )
        fn, make_task = spec.worker(codes)

        def on_attempt(record: CellAttempt) -> None:
            self._loop.call_soon_threadsafe(
                self._note_attempt, job, cell, record, timeline
            )

        def run() -> Any:
            value, _attempts = execute_cell(
                fn,
                make_task,
                benchmark=spec.benchmark,
                config=spec.config,
                timeout=options.timeout,
                retries=options.retries,
                backoff=options.backoff,
                plan=options.plan or None,
                on_attempt=on_attempt,
                cancel=job.cancel_event,
            )
            return value

        async with options.semaphore, self._sem:
            if job.cancelling:
                # Cancelled while queued behind the worker semaphores;
                # never executed, so the admitted slot yields no
                # breaker verdict.
                self.breaker.release_probe()
                return self._cancelled_failure(cell)
            self.metrics["scheduler_executions"] += 1
            try:
                value = await self._loop.run_in_executor(self._executor, run)
            except Exception:
                self.breaker.record_failure()
                raise
        if isinstance(value, CellFailure):
            if value.kind == "cancelled":
                self.breaker.release_probe()
            else:
                self.breaker.record_failure()
        else:
            self.breaker.record_success()
        return value

    def _note_attempt(
        self,
        job: Job,
        cell: CellState,
        record: CellAttempt,
        timeline: SweepTimeline,
    ) -> None:
        cell.attempts = record.attempt
        self.metrics["attempts"] += 1
        timeline.attempt(cell.spec.benchmark, cell.spec.config, record)
        job.emit(
            "attempt",
            benchmark=cell.spec.benchmark,
            config=cell.spec.config,
            attempt=record.attempt,
            status=record.status,
            seconds=round(record.seconds, 4),
            fallback=record.fallback,
            message=record.message,
        )

    # ------------------------------------------------------------------
    # preparation (parent-side codes + digests for "cell" kind)

    async def _prepared(self, benchmark: str, scale: Scale) -> tuple:
        key = (benchmark, scale.name)
        cached = self._prep_cache.get(key)
        if cached is not None:
            return cached
        pending = self._prep_inflight.get(key)
        if pending is not None:
            status, value = await asyncio.shield(pending)
            if status == "error":
                raise RuntimeError(value)
            return value

        pending = self._loop.create_future()
        self._prep_inflight[key] = pending

        def build() -> tuple:
            # Exactly the offline driver's preparation (run_suite):
            # optimizer planned against the base machine, traces slimmed
            # before digesting — so keys match cells written by
            # ``repro table3 --store``.
            spec = get_spec(benchmark)
            reference = MACHINES["Base Confg.", scale.name]
            codes = _slim_codes(prepare_codes(spec, scale, reference))
            digests = (
                trace_checksum(codes.base_trace),
                trace_checksum(codes.optimized_trace),
                trace_checksum(codes.selective_trace),
            )
            return codes, digests

        try:
            self.metrics["prepares"] += 1
            value = await self._loop.run_in_executor(self._executor, build)
        except Exception as exc:  # noqa: BLE001 - waiters fail too
            self._prep_inflight.pop(key, None)
            pending.set_result(("error", f"{type(exc).__name__}: {exc}"))
            raise
        self._prep_cache[key] = value
        self._prep_inflight.pop(key, None)
        pending.set_result(("ok", value))
        return value

    # ------------------------------------------------------------------
    # analytic prediction ("predict" endpoint — no trace, no cells)

    async def predict(self, body: dict) -> dict:
        """Closed-form locality prediction for one benchmark.

        The model runs once per (benchmark, scale), in the executor —
        milliseconds of model evaluation, no simulation, no store cell
        — and each request re-gates that analysis at its own
        ``threshold`` and ``miss_floor``, which equals running
        :func:`repro.analytic.predict.predict_benchmark` with them
        (``elapsed_ms`` reports the analysis's original computation).
        """
        benchmark = body.get("benchmark")
        if not isinstance(benchmark, str) or not benchmark:
            raise _BadRequest("predict requires a 'benchmark' string")
        scale_name = body.get("scale", self.config.scale.name)
        if scale_name not in SCALES:
            raise _BadRequest(
                f"unknown scale {scale_name!r}; "
                f"known: {', '.join(sorted(SCALES))}"
            )
        threshold = body.get("threshold")
        if threshold is not None and not is_number(threshold):
            raise _BadRequest(
                f"threshold must be a number, got {threshold!r}"
            )
        miss_floor = body.get("miss_floor", DEFAULT_MISS_FLOOR)
        if not is_number(miss_floor) or not 0.0 <= miss_floor <= 1.0:
            raise _BadRequest(
                f"miss_floor must be a ratio in [0, 1], got {miss_floor!r}"
            )
        analysis = await self._analysis(benchmark, SCALES[scale_name])
        return regate_prediction(analysis, threshold, miss_floor)

    async def _analysis(self, benchmark: str, scale: Scale) -> dict:
        """The default-gated prediction, built once per (benchmark,
        scale): concurrent duplicates await the first build, and a
        failed build is not kept."""
        key = (benchmark, scale.name)
        cached = self._analyses.get(key)
        if cached is not None:
            return cached
        pending = self._analysis_inflight.get(key)
        if pending is not None:
            status, value = await asyncio.shield(pending)
            if status == "bad":
                raise _BadRequest(value)
            if status == "error":
                raise RuntimeError(value)
            return value

        pending = self._loop.create_future()
        self._analysis_inflight[key] = pending
        try:
            self.metrics["predicts"] += 1
            value = await self._loop.run_in_executor(
                self._executor, predict_benchmark, benchmark, scale
            )
        except KeyError as exc:
            self._analysis_inflight.pop(key, None)
            message = str(exc.args[0] if exc.args else exc)
            pending.set_result(("bad", message))
            raise _BadRequest(message) from None
        except Exception as exc:  # noqa: BLE001 - waiters fail too
            self._analysis_inflight.pop(key, None)
            pending.set_result(("error", f"{type(exc).__name__}: {exc}"))
            raise
        self._analyses[key] = value
        self._analysis_inflight.pop(key, None)
        pending.set_result(("ok", value))
        return value

    # ------------------------------------------------------------------
    # artifacts and introspection documents

    def _trace_document(
        self, job: Job, timeline: SweepTimeline, values: list
    ) -> dict:
        if job.kind == "profile" and values and isinstance(values[0], dict):
            events = values[0]["trace_events"]
        else:
            events = sweep_trace_events(timeline)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.service",
                "job": job.id,
                "kind": job.kind,
            },
        }

    def status_json(self) -> dict:
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "service": {
                "workers": self.workers,
                "scale": self.config.scale.name,
                "faults": self.faults.spec(),
            },
            "store": {
                "root": str(self.store.root),
                **self.store.stats().to_json(),
            },
            "jobs": {"total": len(self.jobs), "states": states},
            "inflight_cells": len(self._inflight),
            "draining": self.draining,
            "admission": {
                "pending": self.pending_jobs(),
                "high_water": self.config.max_pending,
                "client_cap": self.config.client_cap,
                "clients_inflight": len(self._client_inflight),
                "admitted": self.metrics["admitted"],
                "shed": {
                    "overload": self.metrics["shed_overload"],
                    "client_cap": self.metrics["shed_client_cap"],
                    "breaker": self.metrics["shed_breaker"],
                    "draining": self.metrics["shed_draining"],
                },
            },
            "breaker": self.breaker.to_json(),
        }

    def ready_json(self) -> tuple[bool, dict]:
        """(ready?, body) for ``/v1/readyz``.

        Ready means the service would admit a new job right now, modulo
        per-client caps: not draining and pending below the high-water
        mark.  An open breaker degrades (warm-only) but stays ready —
        warm jobs are still served.
        """
        ready = (
            not self.draining
            and self.pending_jobs() < self.config.max_pending
        )
        return ready, {
            "ready": ready,
            "draining": self.draining,
            "pending": self.pending_jobs(),
            "high_water": self.config.max_pending,
            "breaker": self.breaker.to_json(),
        }

    def cells_json(self) -> list[dict]:
        return [
            {
                "key": entry.key,
                "kind": entry.kind,
                "benchmark": entry.benchmark,
                "config": entry.config,
                "bytes": entry.size,
                "ok": entry.ok,
                "error": entry.error,
            }
            for entry in self.store.entries()
        ]


# ----------------------------------------------------------------------
# HTTP layer (asyncio streams; one request per connection)


async def _read_request(reader: asyncio.StreamReader):
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1", "replace").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _BadRequest(f"malformed request line {line!r}")
    method, target = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1", "replace").partition(":")
        headers[name.strip().lower()] = value.strip()
        if len(headers) > _MAX_HEADERS:
            raise _BadRequest("too many headers")
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise _BadRequest("bad Content-Length") from None
    if not 0 <= length <= _MAX_BODY:
        raise _BadRequest(f"body too large ({length} bytes)")
    body = await reader.readexactly(length) if length else b""
    path, _, query = target.partition("?")
    return method, path, urllib.parse.parse_qs(query), headers, body


def _response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Optional[dict] = None,
) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
    )
    for name, value in (extra_headers or {}).items():
        head += f"{name}: {value}\r\n"
    head += "\r\n"
    return head.encode() + body


def _json_response(
    status: int, payload: Any, extra_headers: Optional[dict] = None
) -> bytes:
    return _response(
        status, canonical_json(payload), extra_headers=extra_headers
    )


def _shed_response(exc: _Shed) -> bytes:
    """Structured load-shed response with a Retry-After header."""
    return _json_response(
        exc.status,
        exc.body(),
        extra_headers={
            "Retry-After": str(max(1, math.ceil(exc.retry_after)))
        },
    )


def _error(status: int, message: str) -> bytes:
    return _json_response(status, {"error": message})


async def _stream_events(
    writer: asyncio.StreamWriter, job: Job, since: int
) -> None:
    """NDJSON event stream: replay from ``since``, then follow live."""
    writer.write(
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: application/x-ndjson\r\n"
        b"Connection: close\r\n"
        b"\r\n"
    )
    seq = since
    while True:
        pending = job.events[seq:]
        if pending:
            for event in pending:
                writer.write(canonical_json(event))
            seq = pending[-1]["seq"] + 1
            await writer.drain()
        if job.done and len(job.events) <= seq:
            return
        if not pending:
            await job.wait_events(seq)


async def _handle_request(
    service: SweepService, method, path, query, body, headers=None, peer=""
):
    """Route one parsed request; returns response bytes or a coroutine
    marker ``("stream", job, since)`` for NDJSON endpoints."""
    service.metrics["requests"] += 1
    headers = headers or {}

    if path == "/v1/healthz" and method == "GET":
        # Liveness: answers whenever the event loop does.
        return _json_response(200, {"ok": True})
    if path == "/v1/readyz" and method == "GET":
        ready, payload = service.ready_json()
        return _json_response(200 if ready else 503, payload)
    if path == "/v1/status" and method == "GET":
        return _json_response(200, service.status_json())
    if path == "/v1/metrics" and method == "GET":
        return _json_response(200, service.metrics)
    if path == "/v1/cells" and method == "GET":
        return _json_response(200, {"cells": service.cells_json()})
    if path == "/v1/jobs" and method == "POST":
        try:
            payload = json.loads(body.decode() or "{}")
        except ValueError:
            return _error(400, "request body is not valid JSON")
        client = headers.get("x-repro-client") or peer or "anonymous"
        try:
            job = service.submit(payload, client=client)
        except _Shed as exc:
            return _shed_response(exc)
        return _json_response(201, job.to_json())
    if path == "/v1/jobs" and method == "GET":
        return _json_response(
            200, {"jobs": [job.to_json() for job in service.jobs.values()]}
        )
    if path == "/v1/predict" and method == "POST":
        try:
            payload = json.loads(body.decode() or "{}")
        except ValueError:
            return _error(400, "request body is not valid JSON")
        if not isinstance(payload, dict):
            return _error(400, "request body must be a JSON object")
        return _json_response(200, await service.predict(payload))

    if path.startswith("/v1/jobs/"):
        rest = path[len("/v1/jobs/"):]
        job_id, _, sub = rest.partition("/")
        job = service.jobs.get(job_id)
        if job is None:
            return _error(404, f"no such job {job_id!r}")
        if method == "DELETE" and sub == "":
            if job.done:
                return _error(
                    409, f"job {job.id} is already {job.state}"
                )
            service.cancel_job(job, "cancelled by client request")
            return _json_response(202, job.to_json())
        if method != "GET":
            return _error(405, "only GET and DELETE on job endpoints")
        since = 0
        if "since" in query:
            try:
                since = int(query["since"][0])
            except ValueError:
                return _error(400, "since must be an integer")
        if sub == "" and "events" not in query:
            return _json_response(200, job.to_json())
        if sub == "events" or (sub == "" and "events" in query):
            return ("stream", job, since)
        if sub == "result":
            if not job.done:
                return _error(409, f"job {job.id} is {job.state}")
            return _response(200, job.result_bytes)
        if sub == "trace":
            if not job.done:
                return _error(409, f"job {job.id} is {job.state}")
            return _json_response(200, job.trace_document)
        return _error(404, f"unknown job endpoint {sub!r}")

    return _error(404, f"no route for {method} {path}")


async def _handle_connection(service, reader, writer) -> None:
    try:
        try:
            request = await _read_request(reader)
            if request is None:
                return
            method, path, query, headers, body = request
            peername = writer.get_extra_info("peername")
            peer = peername[0] if peername else ""
            result = await _handle_request(
                service, method, path, query, body, headers, peer
            )
        except _BadRequest as exc:
            service.metrics["errors"] += 1
            result = _error(400, str(exc))
        except asyncio.IncompleteReadError:
            return
        except Exception as exc:  # noqa: BLE001 - keep serving
            service.metrics["errors"] += 1
            result = _error(500, f"{type(exc).__name__}: {exc}")
        if isinstance(result, tuple):
            _, job, since = result
            await _stream_events(writer, job, since)
        else:
            writer.write(result)
            await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass  # client went away mid-response; nothing to salvage
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def start_server(
    config: ServiceConfig,
) -> tuple[asyncio.AbstractServer, SweepService, int]:
    """Bind and start serving; returns (server, service, bound port)."""
    service = SweepService(config)
    service.attach(asyncio.get_running_loop())

    async def handler(reader, writer):
        await _handle_connection(service, reader, writer)

    server = await asyncio.start_server(handler, config.host, config.port)
    port = server.sockets[0].getsockname()[1]
    return server, service, port


def serve_forever(config: ServiceConfig, notify=print) -> None:
    """``repro serve``: run until SIGTERM/SIGINT, then drain and exit.

    The first signal starts a graceful drain: admission closes (503 +
    Retry-After), live event streams get a ``draining`` event,
    in-flight jobs finish or checkpoint within ``config.drain_grace``
    seconds, stragglers are cancelled (their workers killed), and the
    process exits 0.  Completed cells are already in the run store, so
    a restarted server resumes warm.
    """

    async def main() -> None:
        server, service, port = await start_server(config)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix loop; KeyboardInterrupt still works
        notify(
            f"repro service listening on http://{config.host}:{port} "
            f"(store {service.store.root}, {service.workers} worker(s), "
            f"scale {config.scale.name})"
        )
        try:
            async with server:
                await stop.wait()
                notify(
                    "repro service draining "
                    f"(budget {config.drain_grace:g}s)"
                )
                summary = await service.drain(config.drain_grace)
                notify(
                    f"repro service drained: {summary['finished']} "
                    f"finished, {summary['cancelled']} cancelled"
                )
        finally:
            service.close()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    notify("repro service stopped")


class BackgroundServer:
    """A service running on a daemon thread (tests, bench harness).

    Usage::

        with BackgroundServer(ServiceConfig(store=tmp)) as server:
            client = ServiceClient("127.0.0.1", server.port)
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.port: Optional[int] = None
        self.service: Optional[SweepService] = None
        self._started = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._failure: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-service-main", daemon=True
        )

    def _run(self) -> None:
        async def main() -> None:
            try:
                server, service, port = await start_server(self.config)
            except BaseException as exc:
                self._failure = exc
                self._started.set()
                raise
            self.service = service
            self.port = port
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self._started.set()
            try:
                async with server:
                    await self._stop.wait()
            finally:
                service.close()

        try:
            asyncio.run(main())
        except BaseException:  # noqa: BLE001 - surfaced via _failure
            pass

    def __enter__(self) -> "BackgroundServer":
        self._thread.start()
        self._started.wait(timeout=30)
        if self._failure is not None:
            raise RuntimeError(
                f"service failed to start: {self._failure}"
            ) from self._failure
        if self.port is None:
            raise RuntimeError("service did not start within 30s")
        self._await_ready()
        return self

    def _await_ready(self, timeout: float = 30.0) -> None:
        """Block until ``/v1/readyz`` answers 200 over real HTTP.

        The port being bound does not mean the accept loop is serving;
        polling readiness closes that gap (and is exactly what an
        external orchestrator would do).
        """
        from repro.service.client import ServiceClient, ServiceError

        client = ServiceClient("127.0.0.1", self.port, timeout=5.0)
        deadline = time.monotonic() + timeout
        while True:
            try:
                ready, _ = client.readyz()
                if ready:
                    return
            except (ServiceError, OSError):
                pass
            if time.monotonic() >= deadline:
                raise RuntimeError(
                    f"service on port {self.port} did not become ready "
                    f"within {timeout:g}s"
                )
            time.sleep(0.02)

    def drain(self, budget: Optional[float] = None) -> dict:
        """Run a graceful drain on the service loop; returns a summary."""
        if self._loop is None or self.service is None:
            raise RuntimeError("service is not running")
        future = asyncio.run_coroutine_threadsafe(
            self.service.drain(budget), self._loop
        )
        wait = (
            budget if budget is not None else self.config.drain_grace
        )
        return future.result(timeout=wait + 30)

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)
