"""Analytic ON/OFF gating: the MRC policy evaluated without a trace.

:func:`analytic_gating` rebuilds exactly the program the selective
pipeline simulates — instantiate, insert markers, run the locality
optimizer — but instead of tracing it, scores each *static* uniform
region with the closed-form model of :mod:`repro.analytic.model` and
applies the same decision rule as
:func:`repro.hwopt.policy.compare_policies`: ON where the predicted
miss ratio at the L1 capacity is at or above the program's predicted
ratio floored at ``miss_floor``.  The result reuses the policy
dataclasses, so rendering and evaluation code works on either source.

The simulator's comparison operates on *dynamic* regions (a marker
inside a loop produces one region per iteration — tpcc has hundreds),
the analytic one on *static* regions, so region lists are not
index-comparable.  :func:`gating_agreement` therefore compares the two
at the level that matters for the hardware: for each gate class the
compiler emitted (OFF regions, ON regions), does the model-driven
policy reach the same reference-weighted majority verdict on both
sides?  This is the benchmark-level agreement score reported in
EXPERIMENTS.md against the simulator-driven 12/13 template.
"""

from __future__ import annotations

from typing import Optional

from repro.analytic.model import LocalityModel
from repro.compiler.ir.program import Program
from repro.hwopt.policy import (
    DEFAULT_MISS_FLOOR,
    GatingComparison,
    gate_regions,
)
from repro.params import MachineParams

__all__ = [
    "analytic_gating",
    "analytic_gating_for_program",
    "gating_agreement",
]


def analytic_gating_for_program(
    program: Program,
    cache_lines: int,
    line_size: int = 32,
    threshold: Optional[float] = None,
    miss_floor: float = DEFAULT_MISS_FLOOR,
    model: Optional[LocalityModel] = None,
) -> GatingComparison:
    """Model-vs-compiler gating for an already-prepared program.

    ``program`` must carry region annotations (the optimizer or
    :func:`repro.compiler.regions.detect.detect_regions` leaves them
    in place); ``model`` lets callers reuse an existing
    :class:`LocalityModel` instead of rebuilding one.
    """
    model = model or LocalityModel(program, line_size)
    return gate_regions(
        f"{program.name}/analytic",
        cache_lines,
        (
            (
                region.index,
                region.gate_on,
                region.curve().miss_ratio(cache_lines),
                region.memory_refs,
            )
            for region in model.occupied_regions()
        ),
        lambda: model.miss_ratio(cache_lines),
        threshold,
        miss_floor,
    )


def analytic_gating(
    spec,
    scale,
    machine: MachineParams,
    threshold: Optional[float] = None,
    miss_floor: float = DEFAULT_MISS_FLOOR,
) -> GatingComparison:
    """Analytic gating for one benchmark, end to end — no trace.

    Rebuilds the selective program exactly as
    :func:`repro.core.versions.prepare_codes` does (markers first, then
    the optimizer planned against the same machine) and scores it with
    the closed-form model at the machine's L1D geometry.
    """
    from repro.compiler.optimizer import LocalityOptimizer
    from repro.compiler.regions.markers import insert_markers

    program = spec.instantiate(scale)
    insert_markers(program)
    LocalityOptimizer(machine).optimize(program)
    return analytic_gating_for_program(
        program,
        cache_lines=machine.l1d.num_blocks,
        line_size=machine.l1d.block_size,
        threshold=threshold,
        miss_floor=miss_floor,
    )


def _class_verdicts(comparison: GatingComparison) -> dict[bool, bool]:
    """Reference-weighted majority model verdict per compiler class."""
    weights: dict[bool, dict[bool, int]] = {}
    for rec in comparison.recommendations:
        votes = weights.setdefault(rec.compiler_on, {True: 0, False: 0})
        votes[rec.model_on] += max(rec.memory_refs, 1)
    return {
        compiler_on: votes[True] >= votes[False]
        for compiler_on, votes in weights.items()
    }


def gating_agreement(
    analytic: GatingComparison, simulated: GatingComparison
) -> bool:
    """Do the analytic and simulated policies reach the same verdicts?

    True when, for every compiler gate class present on both sides,
    the reference-weighted majority model decision matches.  Classes
    present on only one side (e.g. a static region whose dynamic spans
    issued no references) are skipped — there is nothing to compare.
    """
    analytic_verdicts = _class_verdicts(analytic)
    simulated_verdicts = _class_verdicts(simulated)
    shared = analytic_verdicts.keys() & simulated_verdicts.keys()
    return all(
        analytic_verdicts[cls] == simulated_verdicts[cls] for cls in shared
    )
