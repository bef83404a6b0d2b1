"""Model-driven ON/OFF gating policy.

The compiler places ON/OFF markers by *static* analyzability (Section
2.2: hardware ON where references resist compile-time analysis).  The
miss-ratio-curve machinery of :mod:`repro.locality` enables an
independent, *quantitative* placement: profile each dynamic region's
stack-distance stream, predict its miss ratio at the target L1
capacity, and turn the pollution-control hardware ON exactly in the
regions whose predicted locality is worse than the threshold — by
default the whole-trace miss ratio floored at
:data:`DEFAULT_MISS_FLOOR`, i.e. "assist the regions that miss more
than this program's average, provided they miss enough to matter".

:func:`recommend_gating` runs the model over a marked trace and scores
its agreement with the compiler's placement, region-by-region and
weighted by memory references.  The evaluation layer turns this into a
per-benchmark table (``python -m repro locality``), the reproduction's
analogue of a model-vs-heuristic ablation figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.isa.packed import AnyTrace
from repro.locality.profile import LocalityProfile, split_profiles
from repro.params import MachineParams

__all__ = [
    "DEFAULT_MISS_FLOOR",
    "GatingRecommendation",
    "GatingComparison",
    "check_miss_floor",
    "compare_policies",
    "gate_regions",
    "recommend_gating",
]

#: Minimum predicted miss ratio before the model recommends ON.  The
#: adaptive threshold ("worse than this program's average") is floored
#: here so that programs whose locality is already good everywhere —
#: notably the fully-optimized regular codes, which form one uniform
#: region — are not flagged just for sitting at their own average.
#: 0.2 reads as "at least every fifth reference would still miss a
#: fully-associative L1": below that, a pollution-control assist has
#: too few misses to recover to justify being ON.
DEFAULT_MISS_FLOOR = 0.2


def check_miss_floor(miss_floor: float) -> None:
    """Reject a ``miss_floor`` outside [0, 1] with ``ValueError``."""
    if not 0.0 <= miss_floor <= 1.0:
        raise ValueError(
            f"miss_floor must be a ratio in [0, 1], got {miss_floor!r}"
        )


@dataclass(frozen=True)
class GatingRecommendation:
    """The model's verdict on one dynamic region."""

    region_index: int
    compiler_on: bool
    model_on: bool
    miss_ratio: float
    memory_refs: int

    @property
    def agrees(self) -> bool:
        return self.compiler_on == self.model_on


@dataclass(frozen=True)
class GatingComparison:
    """Model-driven vs compiler marker placement for one trace."""

    trace_name: str
    cache_lines: int
    threshold: float
    recommendations: tuple[GatingRecommendation, ...]

    @property
    def regions(self) -> int:
        return len(self.recommendations)

    @property
    def compiler_on_regions(self) -> int:
        return sum(1 for r in self.recommendations if r.compiler_on)

    @property
    def model_on_regions(self) -> int:
        return sum(1 for r in self.recommendations if r.model_on)

    @property
    def region_agreement(self) -> float:
        """Fraction of regions where model and compiler agree."""
        if not self.recommendations:
            return 1.0
        agree = sum(1 for r in self.recommendations if r.agrees)
        return agree / len(self.recommendations)

    @property
    def ref_agreement(self) -> float:
        """Agreement weighted by each region's memory references."""
        total = sum(r.memory_refs for r in self.recommendations)
        if not total:
            return 1.0
        agree = sum(r.memory_refs for r in self.recommendations if r.agrees)
        return agree / total


def gate_regions(
    trace_name: str,
    cache_lines: int,
    regions: Iterable[tuple[int, bool, float, int]],
    program_ratio: Callable[[], float],
    threshold: Optional[float] = None,
    miss_floor: float = DEFAULT_MISS_FLOOR,
) -> GatingComparison:
    """The MRC gating rule over per-region miss ratios.

    ``regions`` yields ``(index, compiler_on, miss_ratio, memory_refs)``
    for each region that issues memory references.  A region is ON
    where its miss ratio is at or above ``threshold``; ``None`` uses
    ``max(program_ratio(), miss_floor)``, and ``program_ratio`` is only
    called then.  The trace-driven, analytic and served predictions
    all gate through here.
    """
    if cache_lines <= 0:
        raise ValueError("cache_lines must be positive")
    check_miss_floor(miss_floor)
    if threshold is None:
        threshold = max(program_ratio(), miss_floor)
    return GatingComparison(
        trace_name=trace_name,
        cache_lines=cache_lines,
        threshold=threshold,
        recommendations=tuple(
            GatingRecommendation(
                region_index=index,
                compiler_on=compiler_on,
                model_on=ratio >= threshold,
                miss_ratio=ratio,
                memory_refs=refs,
            )
            for index, compiler_on, ratio, refs in regions
        ),
    )


def compare_policies(
    profile: LocalityProfile,
    cache_lines: int,
    threshold: Optional[float] = None,
    miss_floor: float = DEFAULT_MISS_FLOOR,
) -> GatingComparison:
    """Score the MRC policy against the marker placement in ``profile``.

    ``threshold`` is the miss ratio at ``cache_lines`` at or above which
    the model recommends ON; ``None`` uses the whole-trace miss ratio
    floored at ``miss_floor`` — "assist the regions that miss more than
    this program's average, provided they miss enough to matter at
    all".  ``miss_floor`` is the named policy knob behind that clause
    (default :data:`DEFAULT_MISS_FLOOR`); it is wired through the CLI
    (``--miss-floor``) and the service (``miss_floor`` request field),
    and is ignored when an explicit ``threshold`` is given.  Only
    regions that issue memory references participate — an empty span
    between back-to-back markers has no locality to judge.
    """
    return gate_regions(
        profile.trace_name,
        cache_lines,
        (
            (
                region.index,
                region.gate_on,
                region.curve().miss_ratio(cache_lines),
                region.memory_refs,
            )
            for region in profile.occupied_regions()
        ),
        lambda: profile.total_histogram().curve().miss_ratio(cache_lines),
        threshold,
        miss_floor,
    )


def recommend_gating(
    trace: AnyTrace,
    machine: MachineParams,
    threshold: Optional[float] = None,
    initially_on: bool = False,
    miss_floor: float = DEFAULT_MISS_FLOOR,
) -> GatingComparison:
    """Profile ``trace`` and compare model vs compiler gating.

    The target capacity is the machine's L1D size in lines, and the
    profile uses the L1D line size, so the predicted miss ratios are
    the fully-associative envelope of the cache the assists protect.
    ``miss_floor`` parameterizes the adaptive threshold (see
    :func:`compare_policies`).
    """
    profile = split_profiles(
        trace,
        line_size=machine.l1d.block_size,
        initially_on=initially_on,
    )
    return compare_policies(
        profile, machine.l1d.num_blocks, threshold, miss_floor=miss_floor
    )
