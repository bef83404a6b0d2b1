"""One cell lifecycle: run, retry, time out, kill, degrade.

The paper's evaluation grid — 13 benchmarks × 6 machine configurations
× 11 version/mechanism simulations — is embarrassingly parallel: every
cell is a fresh machine instance timing a pre-generated trace.  Every
set of cells in the repository runs through the two functions here:
:func:`execute_cell` runs one cell, and :func:`run_cells` fans a lazily
pulled stream of cells out over at most ``jobs`` threads, each driving
:func:`execute_cell`.  The lifecycle survives the ways long sweeps die:

* **Per-cell timeouts** — with ``jobs > 1`` each attempt runs in its own
  forked worker process, killed at ``timeout`` seconds and retried (a
  ``future.result(timeout=...)`` would abandon the worker but leave it
  running, which is why the lifecycle manages its own processes).
* **Bounded retry with exponential backoff** — crashed (``os._exit``,
  OOM kill, segfault), raising, and timed-out cells are retried up to
  ``retries`` times, waiting ``backoff * 2**attempt`` (capped at 5 s)
  between attempts.  A cell waiting to retry holds its thread slot for
  the backoff.
* **Graceful degradation** — a cell that exhausts its retries becomes a
  structured :class:`CellFailure` (``on_failure="record"``) instead of
  throwing hours of finished cells away; ``on_failure="raise"`` aborts
  with :class:`SweepInterrupted`.  If worker processes cannot be
  spawned at all, cells fall back to in-process execution.
* **Cancellation** — ``on_failure="raise"`` and any exception in the
  caller (including Ctrl-C) set a shared cancel event, and every
  in-flight worker is killed before :func:`run_cells` returns.

With ``jobs == 1`` cells run one at a time on the calling thread.
They run in-process, with retries but with no per-cell kill and no
execution fault injection (an ``os._exit`` fired there would end the
whole sweep), unless a ``timeout`` or an execution fault plan needs a
killable worker: then each cell forks one, as with ``jobs > 1``.
Recovery paths are exercised end-to-end by the fault-injection harness
(:mod:`repro.core.faults`, ``REPRO_FAULTS``).  The benchmark grid
built on this lifecycle (preparation, store lookup, checkpointing)
lives in :mod:`repro.core.runner`.
"""

from __future__ import annotations

import functools
import multiprocessing as mp
import os
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, Iterable, Optional, Union

from repro.core.experiment import BenchmarkRun
from repro.core.faults import EXECUTION_KINDS, FaultPlan

__all__ = [
    "DEFAULT_BACKOFF",
    "DEFAULT_RETRIES",
    "Cell",
    "CellAttempt",
    "CellFailure",
    "GridValue",
    "POLL_SECONDS",
    "SweepInterrupted",
    "execute_cell",
    "resolve_jobs",
    "run_cells",
    "task_factory",
]

#: Default attempt budget: 1 initial try + 2 retries per cell.
DEFAULT_RETRIES = 2
#: First retry delay in seconds; doubles per attempt, capped below.
DEFAULT_BACKOFF = 0.25
_BACKOFF_CAP = 5.0
#: Upper bound on one worker poll, so deadlines and cancels are prompt.
POLL_SECONDS = 0.5


def resolve_jobs(jobs: Optional[int], default: Optional[int] = None) -> int:
    """Number of worker processes to use.

    ``None`` consults the ``REPRO_JOBS`` environment variable, falling
    back to ``default`` (when given) and then ``os.cpu_count()``.
    Non-integer and non-positive values (from any source) raise
    ``ValueError`` — silently clamping ``REPRO_JOBS=0`` to one worker
    used to hide misconfigured CI environments.

    ``default`` exists for long-lived callers (the sweep service) that
    resolve a baseline worker count once at startup and then thread an
    explicit per-request override as a *parameter*; mutating
    ``REPRO_JOBS`` process-globally to influence nested calls is never
    required.
    """
    source = "jobs"
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            source = "REPRO_JOBS"
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_JOBS must be an integer, got {env!r}"
                ) from None
        elif default is not None:
            source = "default"
            jobs = default
        else:
            jobs = os.cpu_count() or 1
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"{source} must be a positive integer, got {jobs}")
    return jobs


@dataclass(frozen=True)
class CellFailure:
    """A grid cell that exhausted its retry budget.

    Recorded in the result grid in place of a :class:`BenchmarkRun` so
    the sweep can complete with partial results; ``kind`` is ``error``
    (the cell raised), ``timeout`` (killed at the per-cell deadline),
    ``crash`` (the worker died without reporting), ``cancelled`` (the
    caller's cancel event killed it), or ``degraded`` (the service's
    circuit breaker refused to execute it).  ``duration`` is the
    wall-clock seconds from the cell's first launch to its permanent
    failure (all attempts plus backoff waits), so failure reports and
    the sweep timeline show what the dead cell actually cost.
    """

    benchmark: str
    config: str
    kind: str
    attempts: int
    message: str
    duration: float = 0.0

    def describe(self) -> str:
        return (
            f"{self.benchmark} on {self.config}: {self.kind} after "
            f"{self.attempts} attempt(s) in {self.duration:.1f}s — "
            f"{self.message}"
        )


class SweepInterrupted(RuntimeError):
    """A cell failed permanently under ``on_failure="raise"``.

    Completed cells already checkpointed to the run store survive the
    abort; rerunning with ``resume=True`` picks up from them.
    """

    def __init__(self, failure: CellFailure):
        super().__init__(failure.describe())
        self.failure = failure


#: What one grid slot holds once the sweep finishes.
GridValue = Union[BenchmarkRun, CellFailure]


@dataclass(frozen=True)
class CellAttempt:
    """Outcome of one execution attempt of a single cell.

    ``status`` is ``ok``, ``error``, ``crash``, ``timeout`` or
    ``cancelled``; ``fallback`` marks an attempt that ran in-process
    because no worker could be spawned.  Attempts are numbered from 1.
    """

    attempt: int
    status: str
    seconds: float
    message: str = ""
    fallback: bool = False


@dataclass(frozen=True)
class Cell:
    """One unit of work for :func:`run_cells`.

    ``fn`` and ``make_task`` are exactly :func:`execute_cell`'s;
    ``benchmark``/``config`` name the cell in failures and fault plans.
    """

    benchmark: str
    config: str
    fn: Callable
    make_task: Callable[[int, Optional[FaultPlan]], tuple]


def task_factory(*payload) -> Callable[[int, Optional[FaultPlan]], tuple]:
    """A ``make_task`` whose task is ``payload + (attempt, plan)``."""
    return lambda attempt, plan: payload + (attempt, plan)


def _check_budget(retries: int, timeout: Optional[float]) -> None:
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")


def execute_cell(
    fn: Callable,
    make_task: Callable[[int, Optional[FaultPlan]], tuple],
    *,
    benchmark: str,
    config: str,
    timeout: Optional[float] = None,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    plan: Optional[FaultPlan] = None,
    on_attempt: Optional[Callable[[CellAttempt], None]] = None,
    cancel: Optional["threading.Event"] = None,
):
    """Run one cell in its own worker process with full resilience.

    The building block of the lifecycle (:func:`run_cells` drives it
    from threads, as does the sweep service): the cell runs in a child
    process (killable at ``timeout``), crashed/raising/timed-out
    attempts are retried up to ``retries`` times with exponential
    backoff, an unspawnable worker falls back to in-process execution
    (fault plan stripped), and a cell that exhausts its budget returns
    a structured :class:`CellFailure` instead of raising.

    ``fn`` must be a picklable module-level worker entry;
    ``make_task(attempt, plan)`` builds its (picklable) task tuple per
    attempt so deterministic fault injection sees the attempt number.
    ``on_attempt`` is invoked from the calling thread after every
    attempt (including the successful one) — the sweep service streams
    these as per-cell job events.

    ``cancel`` (a ``threading.Event``, settable from any thread) aborts
    the cell cooperatively: a set event kills the in-flight worker
    process within one poll period, skips any pending backoff wait, and
    returns a :class:`CellFailure` of kind ``"cancelled"`` — never
    retried.  This is the kill path job cancellation, per-job deadlines,
    graceful drain and :func:`run_cells` aborts all ride.

    Returns ``(value_or_CellFailure, attempts)``.  Blocking: callers
    that need concurrency run it from threads.
    """
    return _run_attempts(
        Cell(benchmark, config, fn, make_task),
        fork=True,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        plan=plan,
        on_attempt=on_attempt,
        cancel=cancel,
    )


def _run_attempts(
    cell: Cell,
    *,
    fork: bool,
    timeout: Optional[float],
    retries: int,
    backoff: float,
    plan: Optional[FaultPlan],
    on_attempt: Optional[Callable[[CellAttempt], None]],
    cancel: Optional["threading.Event"],
):
    """:func:`execute_cell`'s retry loop; ``fork=False`` runs every
    attempt in-process (no kill, no timeout, faults stripped)."""
    _check_budget(retries, timeout)
    attempts: list[CellAttempt] = []
    first_started = time.monotonic()
    attempt = 0
    while True:
        started = time.monotonic()
        status, value, fallback = _attempt(
            cell, attempt, fork, timeout, plan, cancel
        )
        record = CellAttempt(
            attempt + 1,
            status,
            time.monotonic() - started,
            "" if status == "ok" else value,
            fallback,
        )
        attempts.append(record)
        if on_attempt is not None:
            on_attempt(record)
        if status == "ok":
            return value, attempts
        attempt += 1
        if status == "cancelled" or attempt > retries:
            failure = CellFailure(
                benchmark=cell.benchmark,
                config=cell.config,
                kind=status,
                attempts=attempt,
                message="cell cancelled" if status == "cancelled" else value,
                duration=time.monotonic() - first_started,
            )
            return failure, attempts
        delay = min(backoff * (2 ** (attempt - 1)), _BACKOFF_CAP)
        if cancel is None:
            time.sleep(delay)
        else:
            # A cancel during the wait is reported by the next attempt.
            cancel.wait(delay)


def _attempt(
    cell: Cell,
    attempt: int,
    fork: bool,
    timeout: Optional[float],
    plan: Optional[FaultPlan],
    cancel: Optional["threading.Event"],
) -> tuple[str, Any, bool]:
    """One attempt: ``(status, value or message, ran in-process)``."""
    if cancel is not None and cancel.is_set():
        return "cancelled", "cancelled", False
    if fork:
        try:
            proc, conn = _start_worker(cell.fn, cell.make_task(attempt, plan))
        except OSError:
            pass  # broken pool: fall back to running in-process
        else:
            status, value = _await_worker(proc, conn, timeout, cancel)
            return status, value, False
    # Faults stripped: an os._exit fired here would kill the caller.
    try:
        return "ok", cell.fn(cell.make_task(attempt, None)), fork
    except Exception as exc:  # noqa: BLE001 - report, don't die
        return "error", f"{type(exc).__name__}: {exc}", fork


def _await_worker(proc, conn, timeout, cancel) -> tuple[str, Any]:
    """Wait for a worker's report, killing it at a deadline or cancel."""
    deadline = time.monotonic() + timeout if timeout is not None else None
    try:
        while True:
            wait_for = POLL_SECONDS
            if deadline is not None:
                wait_for = min(wait_for, max(0.0, deadline - time.monotonic()))
            if _connection_wait([conn], timeout=wait_for):
                try:
                    return conn.recv()
                except (EOFError, OSError):
                    proc.join(1.0)
                    return (
                        "crash",
                        f"worker died without reporting "
                        f"(exit code {proc.exitcode})",
                    )
            if cancel is not None and cancel.is_set():
                _stop_worker(proc)
                return "cancelled", "cancelled"
            if deadline is not None and time.monotonic() >= deadline:
                _stop_worker(proc)
                return (
                    "timeout",
                    f"cell exceeded the {timeout:g}s per-cell timeout",
                )
    except BaseException:
        _stop_worker(proc)  # e.g. Ctrl-C while cells run on this thread
        raise
    finally:
        conn.close()
        proc.join(1.0)


def run_cells(
    cells: Iterable[Cell],
    jobs: int,
    *,
    on_attempt: Optional[Callable[[Cell, CellAttempt, float], None]] = None,
    on_done: Optional[Callable[[Cell, Any, list[CellAttempt]], None]] = None,
    on_failure: str = "raise",
    timeout: Optional[float] = None,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    plan: Optional[FaultPlan] = None,
) -> list:
    """Run ``cells`` through :func:`execute_cell` on at most ``jobs``
    threads; return their values in the order the cells were pulled.

    ``cells`` is pulled lazily on the calling thread, one cell per free
    slot, so a generator can prepare the next benchmark while workers
    simulate the last.  With ``jobs == 1`` each cell runs on the calling
    thread as soon as it is pulled: in-process, unless a ``timeout`` or
    an execution fault in ``plan`` needs a killable worker, in which
    case it forks one exactly as :func:`execute_cell` does.

    ``on_attempt(cell, attempt, ended)`` (``ended`` is the attempt's
    ``time.monotonic()`` end stamp) and ``on_done(cell, value,
    attempts)`` are invoked only from the calling thread.  A cell that
    exhausts its retries yields a :class:`CellFailure` value under
    ``on_failure="record"`` and raises :class:`SweepInterrupted` (after
    ``on_done``) under ``"raise"``.  Any exception leaving this function
    first kills every in-flight worker.
    """
    if on_failure not in ("record", "raise"):
        raise ValueError(
            f"on_failure must be 'record' or 'raise', got {on_failure!r}"
        )
    _check_budget(retries, timeout)
    values: list = []
    cancel = threading.Event()
    events: queue.SimpleQueue = queue.SimpleQueue()
    attempted = on_attempt or (lambda cell, record, ended: None)
    execute = functools.partial(
        _run_attempts,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        plan=plan,
        cancel=cancel,
    )

    def finish(index: int, cell: Cell, value, attempts) -> None:
        values[index] = value
        if on_done is not None:
            on_done(cell, value, attempts)
        if on_failure == "raise" and isinstance(value, CellFailure):
            raise SweepInterrupted(value)

    if jobs == 1:
        faults = plan.entries if plan is not None else ()
        fork = timeout is not None or any(
            fault.kind in EXECUTION_KINDS for fault in faults
        )
        for index, cell in enumerate(cells):
            values.append(None)
            value, attempts = execute(
                cell,
                fork=fork,
                on_attempt=lambda r: attempted(cell, r, time.monotonic()),
            )
            finish(index, cell, value, attempts)
        return values

    def work(index: int, cell: Cell) -> None:
        def note(record: CellAttempt) -> None:
            events.put((index, cell, record, time.monotonic()))

        try:
            outcome: Any = execute(cell, fork=True, on_attempt=note)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome = exc
        events.put((index, cell, outcome, None))

    source = iter(cells)
    running = 0
    pool = ThreadPoolExecutor(max_workers=jobs)
    try:
        while True:
            while running < jobs:
                cell = next(source, None)
                if cell is None:
                    break
                values.append(None)
                pool.submit(work, len(values) - 1, cell)
                running += 1
            if not running:
                return values
            index, cell, payload, ended = events.get()
            if ended is not None:
                attempted(cell, payload, ended)
                continue
            running -= 1
            if isinstance(payload, BaseException):
                raise payload
            finish(index, cell, *payload)
    finally:
        cancel.set()
        pool.shutdown(wait=True)


def _cell_worker(conn, fn, task) -> None:
    """Child-process main: run ``fn(task)``, report through the pipe."""
    try:
        result = fn(task)
    except BaseException as exc:  # noqa: BLE001 - report, parent decides
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    conn.send(("ok", result))
    conn.close()


def _mp_context():
    """Prefer fork (cheap, no re-import); everything is spawn-safe too."""
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


def _start_worker(fn, task):
    """Spawn one worker; returns (process, parent_conn).

    Module-level so tests can monkeypatch it to simulate a broken pool
    (``OSError`` here triggers the in-process fallback).
    """
    ctx = _mp_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_cell_worker, args=(child_conn, fn, task), daemon=True
    )
    try:
        proc.start()
    except BaseException:
        parent_conn.close()
        raise
    finally:
        child_conn.close()
    return proc, parent_conn


def _stop_worker(proc) -> None:
    proc.terminate()
    proc.join(1.0)
    if proc.is_alive():
        proc.kill()
        proc.join(1.0)


def __getattr__(name: str):
    # The grid drivers are built on this module, so they live in
    # repro.core.runner (which imports it); they stay importable here.
    if name in ("run_grid", "run_benchmark_parallel"):
        from repro.core import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
