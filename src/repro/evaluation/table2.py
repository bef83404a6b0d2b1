"""Table 2 — benchmark characteristics under the base configuration.

The paper reports, per benchmark: the input, the number of dynamic
instructions executed, and the L1/L2 data-cache miss rates of the base
code on the base machine.  We reproduce the same columns from the base
run of each benchmark (inputs become the synthetic-workload scale) and
additionally report the conflict-miss fraction, since Section 4.2's
"conflict misses constitute approximately between 53% and 72%" claim
is an explicit characterization target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.experiment import simulate_trace
from repro.core.parallel import Cell, resolve_jobs, run_cells, task_factory
from repro.core.runstore import RunStore
from repro.core.versions import prepare_codes
from repro.params import MachineParams, base_config
from repro.workloads.base import SMALL, Scale
from repro.workloads.registry import all_specs, get_spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.sweeptrace import SweepTimeline

__all__ = ["Table2Row", "table2_rows"]


@dataclass(frozen=True)
class Table2Row:
    """One benchmark's characteristics row."""

    benchmark: str
    category: str
    instructions: int
    l1_miss_rate: float
    l2_miss_rate: float
    conflict_fraction: float


def _characterize(name: str, scale: Scale, machine: MachineParams) -> Table2Row:
    """Prepare and simulate one benchmark's base code into its row."""
    spec = get_spec(name)
    codes = prepare_codes(spec, scale, machine)
    result = simulate_trace(codes.base_trace, machine, classify_misses=True)
    return Table2Row(
        benchmark=spec.name,
        category=spec.category,
        instructions=result.instructions,
        l1_miss_rate=result.l1d_miss_rate * 100.0,
        l2_miss_rate=result.l2_miss_rate * 100.0,
        conflict_fraction=result.memory.l1d.conflict_fraction * 100.0,
    )


def _table2_cell(task) -> Table2Row:
    """Worker entry: ships (name, scale, machine), not traces."""
    name, scale, machine, attempt, plan = task
    if plan is not None:
        plan.apply_execution(name, machine.name, attempt)
    return _characterize(name, scale, machine)


def table2_rows(
    scale: Scale = SMALL,
    machine: MachineParams | None = None,
    jobs: Optional[int] = 1,
    store: Optional[RunStore] = None,
    resume: bool = True,
    timeline: Optional["SweepTimeline"] = None,
) -> list[Table2Row]:
    """Simulate every benchmark's base code; return Table 2 rows.

    With ``jobs`` > 1 (or ``None`` for the ``REPRO_JOBS``/CPU-count
    default) each benchmark is prepared and simulated in its own worker
    process, retried if it dies; row order and values are identical
    either way.  A row that exhausts its retries raises
    :class:`~repro.core.parallel.SweepInterrupted`.

    With a ``store``, each row is checkpointed as it completes and —
    when ``resume`` is true — rows with verified stored results are
    skipped.  Rows are keyed over scale + machine only (no trace
    digests: preparation happens inside the worker, and workloads are
    deterministic functions of benchmark × scale).

    ``timeline`` optionally collects one wall-clock span per attempt
    plus restore events, for Chrome-trace export via
    :mod:`repro.telemetry`.
    """
    if machine is None:
        machine = base_config().scaled(scale.machine_divisor)
    names = [spec.name for spec in all_specs()]
    keys = {
        name: store.cell_key(
            "table2",
            name,
            machine.name,
            scale=scale,
            machine=machine,
            classify_misses=True,
        )
        for name in names
    } if store is not None else {}
    rows: dict[str, Table2Row] = {}
    if store is not None and resume:
        for name in names:
            cached = store.get(keys[name])
            if isinstance(cached, Table2Row) and cached.benchmark == name:
                rows[name] = cached
                if timeline is not None:
                    timeline.restored(name, machine.name)
    missing = [name for name in names if name not in rows]

    def record(cell: Cell, row: Table2Row, attempts) -> None:
        rows[cell.benchmark] = row
        if store is not None:
            store.put(
                keys[cell.benchmark],
                row,
                meta={
                    "kind": "table2",
                    "benchmark": cell.benchmark,
                    "config": machine.name,
                    "scale": scale.name,
                },
            )

    def span(cell: Cell, attempt, ended: float) -> None:
        if timeline is not None:
            timeline.attempt(cell.benchmark, cell.config, attempt, ended)

    run_cells(
        (
            Cell(
                name,
                machine.name,
                _table2_cell,
                task_factory(name, scale, machine),
            )
            for name in missing
        ),
        resolve_jobs(jobs),
        on_attempt=span,
        on_done=record,
    )
    return [rows[name] for name in names]
