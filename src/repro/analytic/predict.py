"""One-call analytic prediction for a benchmark: the CLI/service entry.

:func:`predict_benchmark` packages the whole analytic subsystem behind
a single JSON-ready payload: rebuild the selective program exactly as
the simulation pipeline would (markers, then the locality optimizer —
so the model sees post-transformation layouts, tiles included), run
the closed-form :class:`repro.analytic.model.LocalityModel` over it,
and report the predicted miss-ratio curve, the per-region gating
verdicts, and the tiling decisions the optimizer took.  No trace is
generated and nothing is simulated; this is the O(milliseconds) path
that ``repro predict`` and ``POST /v1/predict`` expose.

Only the gating verdicts depend on ``threshold`` and ``miss_floor``,
so :func:`regate_prediction` answers another threshold or floor from
one payload, without running the model again.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.analytic.gating import analytic_gating_for_program
from repro.analytic.model import LocalityModel
from repro.hwopt.policy import (
    DEFAULT_MISS_FLOOR,
    GatingComparison,
    gate_regions,
)
from repro.locality.mrc import MissRatioCurve
from repro.params import MachineParams, base_config
from repro.workloads.base import Scale
from repro.workloads.registry import get_spec

__all__ = ["predict_benchmark", "regate_prediction"]


def _curve_points(
    curve: MissRatioCurve, cache_lines: int
) -> list[list[float]]:
    """Sample the predicted MRC at power-of-two capacities.

    The full step curve can have thousands of knees at medium scale;
    powers of two (plus the target L1 capacity) keep the payload small
    while preserving the shape evaluation cares about.  Sampling a
    monotone curve keeps it monotone.
    """
    top = max(curve.sizes())
    sizes = {cache_lines} if cache_lines > 0 else set()
    size = 1
    while size <= top:
        sizes.add(size)
        size *= 2
    sizes.add(top)
    return [
        [size, curve.miss_ratio(size)] for size in sorted(sizes)
    ]


def predict_benchmark(
    benchmark: str,
    scale: Scale,
    machine: Optional[MachineParams] = None,
    threshold: Optional[float] = None,
    miss_floor: float = DEFAULT_MISS_FLOOR,
) -> dict:
    """Analytic locality prediction for one benchmark, JSON-ready.

    Raises ``KeyError`` for an unknown benchmark (the service maps it
    to a 400) and ``ValueError`` for an out-of-range ``miss_floor``.
    """
    from repro.compiler.optimizer import LocalityOptimizer
    from repro.compiler.regions.markers import insert_markers

    started = time.perf_counter()
    spec = get_spec(benchmark)
    machine = machine or base_config().scaled(scale.machine_divisor)
    cache_lines = machine.l1d.num_blocks
    line_size = machine.l1d.block_size

    program = spec.instantiate(scale)
    insert_markers(program)
    report = LocalityOptimizer(machine).optimize(program)

    model = LocalityModel(program, line_size)
    comparison = analytic_gating_for_program(
        program,
        cache_lines=cache_lines,
        line_size=line_size,
        threshold=threshold,
        miss_floor=miss_floor,
        model=model,
    )
    curve = model.curve()
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return {
        "benchmark": spec.name,
        "category": spec.category,
        "scale": scale.name,
        "machine": machine.name,
        "cache_lines": cache_lines,
        "line_size": line_size,
        "miss_floor": miss_floor,
        "threshold": comparison.threshold,
        "memory_refs": curve.total,
        "miss_ratio": curve.miss_ratio(cache_lines),
        "mrc": _curve_points(curve, cache_lines),
        **_verdicts(comparison),
        "tilings": [
            {
                "applied": tiling.applied,
                "tile_size": tiling.tile_size,
                "tiled_vars": list(tiling.tiled_vars),
                "reason": tiling.reason,
            }
            for tiling in report.tilings
        ],
        "elapsed_ms": elapsed_ms,
    }


def regate_prediction(
    prediction: dict,
    threshold: Optional[float] = None,
    miss_floor: float = DEFAULT_MISS_FLOOR,
) -> dict:
    """``prediction`` gated again at ``threshold`` / ``miss_floor``.

    Equal to :func:`predict_benchmark` run with these arguments: the
    curve, the tilings and every region's miss ratio do not depend on
    them, so the gating rule is applied to the payload's own ratios
    (``miss_ratio`` is the program's).  ``elapsed_ms`` stays that of
    the model run behind ``prediction``.
    """
    comparison = gate_regions(
        f"{prediction['benchmark']}/analytic",
        prediction["cache_lines"],
        (
            (
                region["index"],
                region["compiler_on"],
                region["miss_ratio"],
                region["memory_refs"],
            )
            for region in prediction["regions"]
        ),
        lambda: prediction["miss_ratio"],
        threshold,
        miss_floor,
    )
    return {
        **prediction,
        "miss_floor": miss_floor,
        "threshold": comparison.threshold,
        **_verdicts(comparison),
    }


def _verdicts(comparison: GatingComparison) -> dict:
    """The payload fields that the gating threshold decides."""
    return {
        "regions": [
            {
                "index": rec.region_index,
                "compiler_on": rec.compiler_on,
                "model_on": rec.model_on,
                "miss_ratio": rec.miss_ratio,
                "memory_refs": rec.memory_refs,
            }
            for rec in comparison.recommendations
        ],
        "model_on_regions": comparison.model_on_regions,
        "compiler_on_regions": comparison.compiler_on_regions,
    }
