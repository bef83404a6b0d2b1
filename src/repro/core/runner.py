"""High-level suite driver: benchmarks × configurations.

Every suite is one (benchmark × configuration) grid run through the
cell lifecycle of :mod:`repro.core.parallel` by :func:`run_grid`.  The
parent prepares one benchmark at a time (optimizer + three trace
generations) and pulls its cells lazily, so at most a few benchmarks'
traces are alive at once.  ``jobs=1`` (the :func:`run_suite` default)
runs each cell on the calling thread: in-process, with retries but
with no per-cell kill and no execution fault injection, unless a
``timeout`` or an execution fault needs a killable worker.
``jobs > 1`` forks one worker per cell, killable at the per-cell
``timeout``.  Results are bit-identical for every job count.

Resilience: pass ``store=`` (a :class:`~repro.core.runstore.RunStore`
or a directory path) and every completed cell is checkpointed the
moment it finishes; with ``resume=True`` (the default when a store is
given) a re-run skips cells whose stored results verify, so a sweep
killed mid-grid restarts where it left off and produces a suite
bit-identical to an uninterrupted run.  Under ``on_failure="record"``
(default) a cell that exhausts its retries becomes a structured
:class:`~repro.core.parallel.CellFailure` on ``SuiteResult.failures``
and the sweep completes with partial results.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Union,
)

from repro.compiler.optimizer import LocalityOptimizer
from repro.core.experiment import (
    BenchmarkRun,
    collect_run,
    distinct_runs,
    expected_version_keys,
    run_benchmark,
    simulate_trace,
    version_simulations,
)
from repro.core.faults import FaultPlan, corrupt_stored_entry
from repro.core.parallel import (
    DEFAULT_BACKOFF,
    DEFAULT_RETRIES,
    Cell,
    CellAttempt,
    CellFailure,
    GridValue,
    resolve_jobs,
    run_cells,
    task_factory,
)
from repro.core.runstore import RunStore, trace_checksum
from repro.core.sweep import SweepResult
from repro.core.versions import MECHANISMS, BenchmarkCodes, prepare_codes
from repro.params import SENSITIVITY_CONFIGS, MachineParams, base_config
from repro.workloads.base import SMALL, Scale, WorkloadSpec
from repro.workloads.registry import all_specs, get_spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.sweeptrace import SweepTimeline

__all__ = ["SuiteResult", "run_benchmark_parallel", "run_grid", "run_suite"]


@dataclass
class SuiteResult:
    """Results for a set of benchmarks across configurations.

    ``failures`` lists cells that exhausted their retry budget under
    ``on_failure="record"``; such cells are absent from their sweep's
    ``runs``, so averages/figures are computed over the surviving
    benchmarks (a partial-results report, not an exception).
    """

    scale_name: str
    sweeps: dict[str, SweepResult] = field(default_factory=dict)
    failures: list[CellFailure] = field(default_factory=list)

    def sweep(self, config_name: str) -> SweepResult:
        return self.sweeps[config_name]

    def config_names(self) -> list[str]:
        return list(self.sweeps)

    @property
    def complete(self) -> bool:
        return not self.failures

    def failure_report(self) -> str:
        """Human-readable summary of permanently failed cells."""
        if not self.failures:
            return "all cells completed"
        lines = [f"{len(self.failures)} cell(s) failed permanently:"]
        lines += [f"  - {failure.describe()}" for failure in self.failures]
        return "\n".join(lines)


def run_suite(
    scale: Scale = SMALL,
    benchmarks: Optional[Sequence[str]] = None,
    configs: Optional[dict[str, Callable[[], MachineParams]]] = None,
    mechanisms: tuple[str, ...] = MECHANISMS,
    classify_misses: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = 1,
    *,
    store: Union[RunStore, str, Path, None] = None,
    resume: bool = True,
    timeout: Optional[float] = None,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    faults: Optional[FaultPlan] = None,
    on_failure: str = "record",
    timeline: Optional["SweepTimeline"] = None,
) -> SuiteResult:
    """Run the benchmark suite across machine configurations.

    ``configs`` defaults to all six Table 3 rows; machines are scaled
    by the scale's divisor so the working-set/cache ratio matches the
    paper's full-size runs (see DESIGN.md).  ``benchmarks`` defaults to
    all 13 names in Table 2 order.

    ``jobs`` controls parallelism: 1 (the default) runs every cell
    on the calling thread; N > 1 forks one worker process per cell, at
    most N at a time; ``None`` resolves from ``REPRO_JOBS`` / CPU
    count.  Results are identical for every job count — only
    wall-clock changes.

    Every job count runs through :func:`run_grid`, so ``store``/
    ``resume`` checkpointing, ``retries``/``backoff``/``on_failure``
    and ``faults`` apply to all of them.  With ``jobs=1`` cells run
    in-process, with no per-cell kill, unless a ``timeout`` or an
    execution fault needs a killable worker; then each cell forks one.

    With ``jobs=1`` ``progress`` receives ``preparing {benchmark}``
    before each benchmark is prepared and ``  {benchmark} on {config}``
    just before each cell runs; with ``jobs > 1`` it receives
    ``  {benchmark} on {config} done`` after each cell finishes.

    ``timeline`` optionally collects wall-clock
    :class:`~repro.telemetry.sweeptrace.WallSpan` records (prepare
    steps, cell attempts, restores) for Chrome-trace export; observing
    the sweep never changes its results.
    """
    if configs is None:
        configs = dict(SENSITIVITY_CONFIGS)
    specs = (
        [get_spec(name) for name in benchmarks]
        if benchmarks is not None
        else all_specs()
    )
    machines = {
        name: factory().scaled(scale.machine_divisor)
        for name, factory in configs.items()
    }
    reference = base_config().scaled(scale.machine_divisor)
    optimizer = LocalityOptimizer(reference)

    suite = SuiteResult(scale.name)
    for name, machine in machines.items():
        suite.sweeps[name] = SweepResult(machine.name)

    grid = run_grid(
        specs,
        machines,
        prepare=lambda spec: prepare_codes(spec, scale, reference, optimizer),
        mechanisms=mechanisms,
        classify_misses=classify_misses,
        jobs=jobs,
        progress=progress,
        store=store,
        resume=resume,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        faults=faults,
        on_failure=on_failure,
        timeline=timeline,
    )
    # Reassemble in benchmark-major order; permanently failed cells
    # land on ``failures`` instead.
    for spec in specs:
        for config_name in machines:
            value = grid[(config_name, spec.name)]
            if isinstance(value, CellFailure):
                suite.failures.append(value)
            else:
                suite.sweeps[config_name].runs[spec.name] = value
    return suite


def _slim_codes(codes: BenchmarkCodes) -> BenchmarkCodes:
    """Copy ``codes`` without the compiler reports.

    The reports reference IR nodes (loops, expression trees) that are
    expensive to pickle and that no simulation cell needs.
    """
    return dataclasses.replace(
        codes, optimization=None, markers=None, regions=None
    )


def _run_cell(task) -> BenchmarkRun:
    """Worker entry: simulate all versions of one benchmark × config.

    ``plan``/``attempt`` drive deterministic fault injection; a ``None``
    plan (the normal case, and always in-process) runs the cell
    untouched.
    """
    (codes, machine, mechanisms, classify_misses, config_name,
     attempt, plan) = task
    if plan is not None:
        plan.apply_execution(codes.name, config_name, attempt)
    return run_benchmark(codes, machine, mechanisms, classify_misses)


def _simulate_cell(task):
    """Worker entry: one :func:`simulate_trace` call."""
    args, _, _ = task
    return simulate_trace(*args)


def run_grid(
    specs: Iterable[WorkloadSpec],
    machines: dict[str, MachineParams],
    prepare: Callable[[WorkloadSpec], BenchmarkCodes],
    mechanisms: tuple[str, ...] = MECHANISMS,
    classify_misses: bool = False,
    jobs: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    *,
    store: Union[RunStore, str, Path, None] = None,
    resume: bool = True,
    timeout: Optional[float] = None,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    faults: Optional[FaultPlan] = None,
    on_failure: str = "record",
    timeline: Optional["SweepTimeline"] = None,
) -> dict[tuple[str, str], GridValue]:
    """Run the (benchmark × configuration) grid through :func:`run_cells`.

    ``prepare`` runs on the calling thread, once per benchmark
    (optimizer + trace generation); cells are pulled lazily, so workers
    simulate one benchmark while the parent prepares the next.

    Returns results keyed ``(config_name, benchmark_name)``; a cell
    that exhausted its retries maps to a :class:`CellFailure` (under
    the default ``on_failure="record"``).  With a ``store``, completed
    cells are checkpointed as they arrive and — when ``resume`` is true
    — cells whose stored result verifies are not re-executed.  The
    ``progress`` callback, checkpoints and timeline spans all run on
    the calling thread.

    A :class:`~repro.telemetry.sweeptrace.SweepTimeline` passed as
    ``timeline`` collects wall-clock spans for every prepare step and
    every cell attempt (including retries, timeouts, in-process
    fallbacks, and store restores) for Chrome-trace export.
    """
    workers = resolve_jobs(jobs)
    notify = progress if progress is not None else lambda message: None
    plan = faults if faults is not None else FaultPlan.from_env()
    if isinstance(store, (str, Path)):
        store = RunStore(store)
    # A cell's line precedes it at jobs=1 and follows it at jobs > 1.
    done = "" if workers == 1 else " done"

    results: dict[tuple[str, str], GridValue] = {}
    checkpoints: dict[tuple[str, str], tuple[str, dict]] = {}

    def cells() -> Iterator[Cell]:
        expected = expected_version_keys(mechanisms)
        for spec in specs:
            notify(f"preparing {spec.name}")
            prep_start = time.monotonic()
            codes = _slim_codes(prepare(spec))
            if timeline is not None:
                timeline.record(
                    f"prepare {spec.name}",
                    spec.name,
                    "prepare",
                    start=prep_start - timeline.origin,
                    status="prepare",
                )
            digests = (
                [
                    trace_checksum(codes.base_trace),
                    trace_checksum(codes.optimized_trace),
                    trace_checksum(codes.selective_trace),
                ]
                if store is not None
                else []
            )
            for config_name, machine in machines.items():
                key = (config_name, spec.name)
                if store is not None:
                    skey = store.cell_key(
                        "cell",
                        spec.name,
                        config_name,
                        scale=codes.scale,
                        machine=machine,
                        mechanisms=mechanisms,
                        classify_misses=classify_misses,
                        digests=digests,
                    )
                    checkpoints[key] = (
                        skey,
                        {
                            "kind": "cell",
                            "benchmark": spec.name,
                            "config": config_name,
                            "scale": codes.scale.name,
                        },
                    )
                    cached = store.get(skey) if resume else None
                    if (
                        isinstance(cached, BenchmarkRun)
                        and list(cached.results) == expected
                    ):
                        results[key] = cached
                        if timeline is not None:
                            timeline.restored(spec.name, config_name)
                        notify(
                            f"  {spec.name} on {config_name}{done} "
                            "(restored from store)"
                        )
                        continue
                if workers == 1:
                    notify(f"  {spec.name} on {config_name}")
                yield Cell(
                    spec.name,
                    config_name,
                    _run_cell,
                    task_factory(
                        codes,
                        machine,
                        mechanisms,
                        classify_misses,
                        config_name,
                    ),
                )

    def attempted(cell: Cell, record: CellAttempt, ended: float) -> None:
        if timeline is not None:
            timeline.attempt(cell.benchmark, cell.config, record, ended)
        if record.fallback:
            notify(
                f"  worker unavailable; ran {cell.benchmark} on "
                f"{cell.config} in-process"
            )
        retrying = record.attempt <= retries
        if record.status not in ("ok", "cancelled") and retrying:
            notify(
                f"  {cell.benchmark} on {cell.config} {record.status} "
                f"({record.message}); retrying "
                f"(attempt {record.attempt + 1}/{retries + 1})"
            )

    def finished(cell: Cell, value, attempts: list[CellAttempt]) -> None:
        key = (cell.config, cell.benchmark)
        results[key] = value
        if isinstance(value, CellFailure):
            notify(f"  FAILED {value.describe()}")
            return
        if workers > 1:
            notify(f"  {cell.benchmark} on {cell.config} done")
        if store is None:
            return
        skey, meta = checkpoints[key]
        store.put(skey, value, meta=meta)
        fault = plan.store_fault(
            cell.benchmark, cell.config, len(attempts) - 1
        )
        if fault is not None:
            corrupt_stored_entry(store, skey)
            notify(
                f"  injected store corruption on {cell.benchmark} "
                f"on {cell.config} ({fault.spec()})"
            )

    run_cells(
        cells(),
        workers,
        on_attempt=attempted,
        on_done=finished,
        on_failure=on_failure,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        plan=plan or None,
    )
    return results


def run_benchmark_parallel(
    codes: BenchmarkCodes,
    machine: MachineParams,
    mechanisms: tuple[str, ...] = MECHANISMS,
    classify_misses: bool = False,
    jobs: Optional[int] = None,
) -> BenchmarkRun:
    """Parallel drop-in for :func:`repro.core.experiment.run_benchmark`.

    Fans the distinct version simulations (finer-grained than
    :func:`run_grid`'s cells; see
    :func:`~repro.core.experiment.distinct_runs`) through
    :func:`run_cells`; used by the single-benchmark CLI path where
    there is only one grid cell to split.  Results are reassembled in
    the canonical version-key order, repeats copied, so the returned
    :class:`BenchmarkRun` is indistinguishable from a sequential one.
    A simulation that exhausts its retries raises
    :class:`~repro.core.parallel.SweepInterrupted`.
    """
    plan = version_simulations(codes, machine, mechanisms, classify_misses)
    firsts = distinct_runs(codes, plan)
    distinct = list(dict.fromkeys(firsts))
    values = run_cells(
        (
            Cell(
                f"{codes.name}/{plan[i][0]}",
                machine.name,
                _simulate_cell,
                task_factory(plan[i][1]),
            )
            for i in distinct
        ),
        resolve_jobs(jobs),
    )
    simulated = dict(zip(distinct, values))
    return collect_run(codes, machine, plan, firsts, simulated)
