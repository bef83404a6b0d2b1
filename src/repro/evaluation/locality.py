"""Locality-model evaluation: per-benchmark MRC and gating comparison.

For every benchmark this builds the selective trace (markers in place),
profiles each dynamic region's miss-ratio curve, and scores the
model-driven gating policy of :mod:`repro.hwopt.policy` against the
compiler's static marker placement — the reproduction's analogue of a
"how good is the heuristic?" figure.  The base trace's predicted
fully-associative miss ratio at the L1 capacity rides along as context:
it is the locality the whole exercise is trying to fix.

Benchmarks are independent, so :func:`locality_rows` fans them out
through the sweep engine's cell lifecycle (``--jobs`` / ``REPRO_JOBS``,
results identical for any job count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from repro.core.parallel import Cell, resolve_jobs, run_cells, task_factory
from repro.core.versions import prepare_codes
from repro.hwopt.policy import (
    DEFAULT_MISS_FLOOR,
    GatingComparison,
    check_miss_floor,
    recommend_gating,
)
from repro.locality.mrc import distance_histogram
from repro.params import MachineParams, base_config
from repro.workloads.base import Scale, WorkloadSpec
from repro.workloads.registry import all_specs, get_spec

__all__ = ["LocalityRow", "locality_row", "locality_rows"]


@dataclass(frozen=True)
class LocalityRow:
    """One benchmark's locality profile and gating-policy comparison."""

    benchmark: str
    category: str
    #: Memory references in the selective trace.
    memory_refs: int
    #: Distinct cache lines touched (LRU stack depth at trace end).
    distinct_lines: int
    #: Predicted fully-associative LRU miss ratio of the *base* trace
    #: at the scaled L1D capacity — the locality being optimized.
    base_miss_ratio: float
    #: Same prediction for the selective (optimized + marked) trace.
    selective_miss_ratio: float
    #: Dynamic regions that issued memory references.
    regions: int
    compiler_on_regions: int
    model_on_regions: int
    #: Region-count and reference-weighted agreement, in percent.
    region_agreement: float
    ref_agreement: float

    @classmethod
    def from_comparison(
        cls,
        benchmark: str,
        category: str,
        base_miss_ratio: float,
        selective_miss_ratio: float,
        distinct_lines: int,
        comparison: GatingComparison,
    ) -> "LocalityRow":
        return cls(
            benchmark=benchmark,
            category=category,
            memory_refs=sum(
                r.memory_refs for r in comparison.recommendations
            ),
            distinct_lines=distinct_lines,
            base_miss_ratio=base_miss_ratio,
            selective_miss_ratio=selective_miss_ratio,
            regions=comparison.regions,
            compiler_on_regions=comparison.compiler_on_regions,
            model_on_regions=comparison.model_on_regions,
            region_agreement=100.0 * comparison.region_agreement,
            ref_agreement=100.0 * comparison.ref_agreement,
        )


def locality_row(
    spec: WorkloadSpec,
    scale: Scale,
    machine: MachineParams,
    miss_floor: float = DEFAULT_MISS_FLOOR,
) -> LocalityRow:
    """Build and analyze one benchmark (runs inside pool workers)."""
    codes = prepare_codes(spec, scale, machine)
    line_size = machine.l1d.block_size
    cache_lines = machine.l1d.num_blocks
    # Hold only the traces still to be profiled: each stack-distance
    # pass allocates a few integer columns per memory reference.
    base_trace, selective_trace = codes.base_trace, codes.selective_trace
    del codes
    base_curve = distance_histogram(base_trace, line_size=line_size).curve()
    del base_trace
    selective_histogram = distance_histogram(
        selective_trace, line_size=line_size
    )
    comparison = recommend_gating(
        selective_trace,
        machine,
        initially_on=False,
        miss_floor=miss_floor,
    )
    return LocalityRow.from_comparison(
        benchmark=spec.name,
        category=spec.category,
        base_miss_ratio=base_curve.miss_ratio(cache_lines),
        selective_miss_ratio=selective_histogram.curve().miss_ratio(
            cache_lines
        ),
        # Every cold access is the first touch of a new line.
        distinct_lines=selective_histogram.cold,
        comparison=comparison,
    )


def _locality_cell(task) -> LocalityRow:
    """Worker entry: one benchmark's row."""
    name, scale, machine, miss_floor, attempt, plan = task
    if plan is not None:
        plan.apply_execution(name, machine.name, attempt)
    return locality_row(get_spec(name), scale, machine, miss_floor)


def locality_rows(
    scale: Scale,
    benchmarks: Optional[Iterable[str]] = None,
    jobs: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    miss_floor: float = DEFAULT_MISS_FLOOR,
) -> list[LocalityRow]:
    """Locality rows for the suite (or a subset), in registry order.

    ``jobs`` follows the sweep-engine convention (``None`` → the
    ``REPRO_JOBS`` environment variable or the CPU count); results are
    assembled in submission order, identical for any job count.
    ``progress`` receives ``profiling {benchmark}`` as each benchmark
    starts.  A benchmark that exhausts its retries raises
    :class:`~repro.core.parallel.SweepInterrupted`.
    """
    # Bad arguments fail here, before any cell is prepared or retried.
    check_miss_floor(miss_floor)
    names = (
        [get_spec(name).name for name in benchmarks]
        if benchmarks is not None
        else [spec.name for spec in all_specs()]
    )
    machine = base_config().scaled(scale.machine_divisor)

    def cells() -> Iterator[Cell]:
        for name in names:
            if progress:
                progress(f"profiling {name}")
            yield Cell(
                name,
                machine.name,
                _locality_cell,
                task_factory(name, scale, machine, miss_floor),
            )

    return run_cells(cells(), resolve_jobs(jobs))
