"""Code-version preparation (paper Section 4.4).

For each benchmark three codes exist:

* **base** — the program as written, no locality transformations (the
  paper's O3-without-loop-nest-optimization build);
* **optimized** — the locality-optimized program (interchange, layout,
  tiling, unroll-and-jam, scalar replacement on every analyzable
  region), shared by the Pure-Software, Combined, and Selective
  versions;
* **selective** — the same optimization pipeline applied to a program
  that *first* received the region markers of Section 2, so the
  optimized code carries ON/OFF instructions at region boundaries
  (matching the paper's tool order: mark, transform, simulate).

Optimization is done once against the experiment's reference machine;
per the paper, the same optimized code is then run on every
sensitivity configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.compiler.optimizer import LocalityOptimizer, OptimizationReport
from repro.compiler.regions.detect import RegionReport
from repro.compiler.regions.markers import MarkerReport, insert_markers
from repro.hwopt.controller import CacheBypassAssist, VictimCacheAssist
from repro.isa.packed import AnyTrace, as_packed
from repro.memory.assist import AssistInterface
from repro.params import MachineParams
from repro.tracegen.interpreter import TraceGenerator
from repro.workloads.base import Scale, WorkloadSpec

__all__ = [
    "VERSIONS",
    "MECHANISMS",
    "BYPASS",
    "VICTIM",
    "BenchmarkCodes",
    "TraceKind",
    "prepare_codes",
    "make_assist",
]

#: The four simulated versions of Section 4.3 (plus the baseline run
#: they are all normalized against).
VERSIONS = ("base", "pure_hw", "pure_sw", "combined", "selective")

BYPASS = "bypass"
VICTIM = "victim"
#: The paper's two evaluated mechanisms.
MECHANISMS = (BYPASS, VICTIM)
#: Extension mechanism (stream-buffer prefetching): the selective
#: framework is mechanism-agnostic, so any assist can be gated.
PREFETCH = "prefetch"


@dataclass
class BenchmarkCodes:
    """The three traces (plus compiler reports) of one benchmark.

    Traces are packed columnar by default (see ``prepare_codes``); the
    compiler reports are ``None`` on the slim copies the parallel
    engine ships to worker processes.
    """

    name: str
    category: str
    scale: Scale
    base_trace: AnyTrace
    optimized_trace: AnyTrace
    selective_trace: AnyTrace
    optimization: Optional[OptimizationReport]
    markers: Optional[MarkerReport]
    regions: Optional[RegionReport]
    _kinds: tuple["TraceKind", ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._kinds = _trace_kinds(self.traces())

    def traces(self) -> tuple[AnyTrace, AnyTrace, AnyTrace]:
        """The base, optimized and selective traces."""
        return (self.base_trace, self.optimized_trace, self.selective_trace)

    def trace_kinds(self) -> tuple["TraceKind", ...]:
        """A :class:`TraceKind` per trace of :meth:`traces`.

        Worked out when the codes are built (a copy made with
        ``dataclasses.replace`` works them out again) and pickled with
        them, so worker processes never compare traces; worked out
        again if a trace's length has changed since.
        """
        traces = self.traces()
        if any(len(t) != kind.records for t, kind in zip(traces, self._kinds)):
            self._kinds = _trace_kinds(traces)
        return self._kinds


class TraceKind(NamedTuple):
    """What a run's identity needs to know of one trace of a benchmark."""

    #: Its length when the kind was worked out.
    records: int
    #: Index (in :meth:`BenchmarkCodes.traces`) of the first trace with
    #: the same records.  The optimizer leaves irregular codes as they
    #: are (optimized == base), and regular codes get no markers
    #: (selective == optimized).
    same_as: int
    #: Whether it holds HW_ON/HW_OFF markers.
    markers: bool


def _trace_kinds(traces) -> tuple[TraceKind, ...]:
    packed = [as_packed(trace) for trace in traces]
    kinds: list[TraceKind] = []
    for i, trace in enumerate(packed):
        same_as = next(
            j
            for j, other in enumerate(packed[: i + 1])
            # Lengths first: equal columns compare with one memcmp each.
            if len(other) == len(trace)
            and other.columns() == trace.columns()
        )
        markers = bool(trace.marker_positions().size)
        kinds.append(TraceKind(len(trace), same_as, markers))
    return tuple(kinds)


def prepare_codes(
    spec: WorkloadSpec,
    scale: Scale,
    machine: MachineParams,
    optimizer: Optional[LocalityOptimizer] = None,
) -> BenchmarkCodes:
    """Build, optimize, mark, and trace one benchmark.

    Workload builders are deterministic, so the three programs start
    from identical IR and identical address maps; they diverge only
    through the transformations applied.  Traces are emitted in packed
    columnar form, so full-suite runs never materialize per-instruction
    objects.
    """
    base_program = spec.instantiate(scale)
    base_trace = TraceGenerator(
        base_program, trace_name=f"{spec.name}/base"
    ).generate_packed()

    opt = optimizer or LocalityOptimizer(machine)

    optimized_program = spec.instantiate(scale)
    optimization_report = opt.optimize(optimized_program)
    optimized_trace = TraceGenerator(
        optimized_program, trace_name=f"{spec.name}/optimized"
    ).generate_packed()

    selective_program = spec.instantiate(scale)
    marker_report = insert_markers(selective_program)
    region_report = opt.optimize(selective_program).regions
    selective_trace = TraceGenerator(
        selective_program, trace_name=f"{spec.name}/selective"
    ).generate_packed()

    return BenchmarkCodes(
        name=spec.name,
        category=spec.category,
        scale=scale,
        base_trace=base_trace,
        optimized_trace=optimized_trace,
        selective_trace=selective_trace,
        optimization=optimization_report,
        markers=marker_report,
        regions=region_report,
    )


def make_assist(mechanism: str, machine: MachineParams) -> AssistInterface:
    """Instantiate the requested hardware mechanism."""
    if mechanism == BYPASS:
        return CacheBypassAssist(machine)
    if mechanism == VICTIM:
        return VictimCacheAssist(machine)
    if mechanism == PREFETCH:
        from repro.hwopt.prefetch import StreamBufferAssist

        return StreamBufferAssist(machine)
    raise ValueError(
        f"unknown mechanism {mechanism!r}; expected one of "
        f"{MECHANISMS + (PREFETCH,)}"
    )
