"""Running the four simulated versions of one benchmark."""

from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass, field
from typing import Optional

from repro.cpu.pipeline import CPUSimulator
from repro.cpu.results import SimulationResult
from repro.hwopt.gate import HardwareGate
from repro.isa.packed import AnyTrace, PackedTrace
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.stats import clone_stats
from repro.params import MachineParams
from repro.core.versions import MECHANISMS, BenchmarkCodes, make_assist
from repro.cpu.vector import MIN_VECTOR_SPAN, retime, shortest_span

__all__ = [
    "BenchmarkRun",
    "collect_run",
    "distinct_runs",
    "expected_version_keys",
    "run_benchmark",
    "simulate_trace",
    "version_simulations",
]


def expected_version_keys(
    mechanisms: tuple[str, ...] = MECHANISMS,
) -> list[str]:
    """Version keys of a complete run, in :func:`run_benchmark` order.

    The run store validates restored cells against this before trusting
    them, so an entry written under a different mechanism set (or a
    partial/stale payload) is recomputed rather than silently merged.
    """
    keys = ["base", "pure_sw"]
    for mechanism in mechanisms:
        keys += [
            f"pure_hw/{mechanism}",
            f"combined/{mechanism}",
            f"selective/{mechanism}",
        ]
    return keys


def simulate_trace(
    trace: AnyTrace,
    machine: MachineParams,
    mechanism: Optional[str] = None,
    initially_on: bool = True,
    classify_misses: bool = False,
    telemetry=None,
    vectorize: Optional[bool] = None,
) -> SimulationResult:
    """Time one trace on a fresh machine instance.

    ``mechanism`` None means no hardware assist at all; otherwise the
    named assist is attached with the given initial gate state (the
    Selective version starts OFF — marker placement assumes the program
    begins in compiler mode).

    ``telemetry`` optionally attaches a
    :class:`repro.telemetry.hub.Telemetry` hub; observation is passive,
    so the returned result is bit-identical either way.

    ``vectorize`` forwards to :class:`CPUSimulator`: None runs the
    numpy kernels (short spans, and markers under telemetry, step
    through the scalar loop), False pins the scalar loop, True forces
    the kernels onto short spans too (benchmarks and equivalence
    tests).  All three settings produce bit-identical results and
    telemetry.

    A run whose every span the kernels take (a packed trace, with or
    without HW_ON/HW_OFF markers, and no telemetry) keeps its
    whole-trace replay in a memo on the trace: one entry per assist
    setting (``mechanism``, ``initially_on``, ``classify_misses``),
    holding the machine's structure (every field but the timing ones,
    see :func:`_structure`).
    A later run of the same trace object with that setting, on a
    machine of the same structure — Table 3's "Higher Mem. Lat."
    against the base machine — runs the timing fold alone on that
    replay.  Nothing the replay records depends on timing, so its
    result is the one a full run gives.  A run on another structure
    replaces the entry.  The memo lives as long as the trace and is
    never pickled.  Runs with a span under ``MIN_VECTOR_SPAN`` and
    telemetry runs never touch it.

    :func:`run_benchmark` also skips the versions that repeat another
    one (see :func:`distinct_runs`); this function simulates whatever
    it is given.
    """
    key = _memo_key(
        trace, machine, mechanism, initially_on, classify_misses,
        telemetry, vectorize,
    )
    if key is not None:
        setting, shape = key
        memo = _replay_memo(trace)
        entry = memo.get(setting)
        if entry is not None and entry[0] == shape:
            _, replay, result = entry
            return _copy(
                result,
                trace_name=trace.name,
                machine_name=machine.name,
                cycles=retime(machine, trace, replay),
            )
    assist = make_assist(mechanism, machine) if mechanism else None
    hierarchy = MemoryHierarchy(machine, assist, classify_misses)
    gate = HardwareGate(assist, initially_on=initially_on)
    simulator = CPUSimulator(
        machine, hierarchy, gate, telemetry=telemetry, vectorize=vectorize
    )
    result = simulator.run(trace)
    if key is not None and simulator.replay is not None:
        memo[setting] = (shape, simulator.replay, _copy(result))
    return result


#: Replay memo of :func:`simulate_trace`: ``id(trace)`` to a dict from
#: assist setting to ``(shape, replay, result)``.  A finalizer drops a
#: trace's entry when the trace is freed, so an id is never reused
#: while it is here.
_REPLAYS: dict[int, dict] = {}

#: The machine fields the replay never reads, with the values
#: :func:`_structure` gives them: the name, and the timing fields, which
#: reach a result only through
#: :func:`repro.memory.hierarchy.outcome_timing` and the timing fold.
_TIMING = {
    "name": "",
    "issue_width": 1,
    "mem_latency": 0,
    "mem_bus_width": 1,
    "mem_ports": 1,
    "ruu_entries": 0,
    "lsq_entries": 0,
    "max_outstanding_misses": 0,
    "branch_mispredict_penalty": 0,
}


def _structure(machine: MachineParams) -> MachineParams:
    """``machine`` with its timing fields set to fixed values."""
    return dataclasses.replace(
        machine,
        l1d=dataclasses.replace(machine.l1d, latency=0),
        l1i=dataclasses.replace(machine.l1i, latency=0),
        l2=dataclasses.replace(machine.l2, latency=0),
        dtlb=dataclasses.replace(machine.dtlb, miss_penalty=0),
        itlb=dataclasses.replace(machine.itlb, miss_penalty=0),
        **_TIMING,
    )


def _memo_key(
    trace, machine, mechanism, initially_on, classify_misses, telemetry,
    vectorize,
):
    """``(assist setting, shape)`` of a run for the replay memo, or
    None when the memo does not apply: the scalar loop, telemetry, an
    object trace (packed afresh for every run), or a run in which the
    scalar loop takes a span."""
    if (
        telemetry is not None
        or vectorize is False
        or not isinstance(trace, PackedTrace)
    ):
        return None
    records = len(trace)
    if records == 0:
        return None
    if not vectorize and shortest_span(trace) < MIN_VECTOR_SPAN:
        return None
    # The length guards against a trace extended after its replay.
    return (
        (mechanism, initially_on, classify_misses),
        (records, _structure(machine)),
    )


def _replay_memo(trace: PackedTrace) -> dict:
    """The memo dict of ``trace``, created (with its finalizer) on
    first use."""
    fresh: dict = {}
    # One atomic call, so threads racing on a trace share one dict.
    memo = _REPLAYS.setdefault(id(trace), fresh)
    if memo is fresh:
        weakref.finalize(trace, _REPLAYS.pop, id(trace), None)
    return memo


def _copy(result: SimulationResult, **changes) -> SimulationResult:
    """``result`` with ``changes`` and its own copy of the mutable
    cache counters."""
    memory = result.memory
    memory = dataclasses.replace(
        memory,
        l1d=clone_stats(memory.l1d),
        l1i=clone_stats(memory.l1i),
        l2=clone_stats(memory.l2),
    )
    return dataclasses.replace(result, memory=memory, **changes)


@dataclass
class BenchmarkRun:
    """All version results for one benchmark on one configuration.

    ``results`` maps version keys to simulation results.  Version keys
    are "base", "pure_sw", and mechanism-qualified "pure_hw/bypass",
    "combined/victim", "selective/bypass", ...
    """

    benchmark: str
    category: str
    machine_name: str
    results: dict[str, SimulationResult] = field(default_factory=dict)

    @property
    def baseline(self) -> SimulationResult:
        return self.results["base"]

    def improvement(self, version_key: str) -> float:
        """% execution-cycle improvement of a version over the baseline
        (the paper's Figures 4-9 metric)."""
        return self.results[version_key].improvement_over(self.baseline)

    def version_keys(self) -> list[str]:
        return list(self.results)

    def is_complete(self, mechanisms: tuple[str, ...] = MECHANISMS) -> bool:
        """True iff every version of a full run is present, in order."""
        return list(self.results) == expected_version_keys(mechanisms)


def version_simulations(
    codes: BenchmarkCodes,
    machine: MachineParams,
    mechanisms: tuple[str, ...] = MECHANISMS,
    classify_misses: bool = False,
) -> list[tuple[str, tuple]]:
    """``(version key, simulate_trace arguments)`` of every version of a
    benchmark, in :func:`run_benchmark` order.

    Version → (code, hardware) wiring per Section 4.3:

    ==============  ================  =========================
    version         code              hardware mechanism
    ==============  ================  =========================
    base            base trace        none
    pure_hw         base trace        always on
    pure_sw         optimized trace   none
    combined        optimized trace   always on
    selective       selective trace   toggled by ON/OFF markers
    ==============  ================  =========================
    """
    base, optimized = codes.base_trace, codes.optimized_trace
    plan = [
        ("base", (base, machine, None, True, classify_misses)),
        ("pure_sw", (optimized, machine, None, True, classify_misses)),
    ]
    for mechanism in mechanisms:
        plan += [
            (f"pure_hw/{mechanism}", (base, machine, mechanism, True)),
            (f"combined/{mechanism}", (optimized, machine, mechanism, True)),
            (
                f"selective/{mechanism}",
                (codes.selective_trace, machine, mechanism, False),
            ),
        ]
    return plan


def distinct_runs(codes: BenchmarkCodes, plan) -> list[int]:
    """For each entry of ``plan`` (from :func:`version_simulations`),
    the index of its first entry that is the same run.

    A run is its trace's records, its effective assist setting and
    ``classify_misses``.  The gate of a marker-free trace that starts
    off never opens, so the run is one with no assist: on regular codes
    ``selective/*`` repeats ``pure_sw``.  Irregular codes
    leave the optimizer unchanged, so there ``pure_sw`` repeats
    ``base`` and ``combined/*`` repeats ``pure_hw/*``.  Two runs with
    one identity give equal results in every field but ``trace_name``.
    """
    traces = codes.traces()
    kinds = codes.trace_kinds()
    seen: dict[tuple, int] = {}
    firsts = []
    for i, (_, args) in enumerate(plan):
        trace, _, mechanism, initially_on, *rest = args
        kind = kinds[next(j for j, t in enumerate(traces) if t is trace)]
        if mechanism and not initially_on and not kind.markers:
            mechanism, initially_on = None, True
        classify = bool(rest and rest[0])
        identity = (kind.same_as, mechanism, initially_on, classify)
        firsts.append(seen.setdefault(identity, i))
    return firsts


def collect_run(
    codes: BenchmarkCodes,
    machine: MachineParams,
    plan,
    firsts: list[int],
    simulated: dict[int, SimulationResult],
) -> BenchmarkRun:
    """The :class:`BenchmarkRun` of ``plan`` from the results of its
    distinct runs (``simulated``, keyed by plan index; ``firsts`` from
    :func:`distinct_runs`).  A repeat is a copy of its first run's
    result under its own trace name."""
    run = BenchmarkRun(codes.name, codes.category, machine.name)
    for i, ((key, args), first) in enumerate(zip(plan, firsts)):
        run.results[key] = (
            simulated[i]
            if first == i
            else _copy(simulated[first], trace_name=args[0].name)
        )
    return run


def run_benchmark(
    codes: BenchmarkCodes,
    machine: MachineParams,
    mechanisms: tuple[str, ...] = MECHANISMS,
    classify_misses: bool = False,
) -> BenchmarkRun:
    """Simulate base + the four versions (per mechanism) of a benchmark,
    wired as :func:`version_simulations` lists them, each distinct run
    once (see :func:`distinct_runs`)."""
    plan = version_simulations(codes, machine, mechanisms, classify_misses)
    firsts = distinct_runs(codes, plan)
    simulated = {
        i: simulate_trace(*plan[i][1]) for i in dict.fromkeys(firsts)
    }
    return collect_run(codes, machine, plan, firsts, simulated)
