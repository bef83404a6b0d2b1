"""Running the four simulated versions of one benchmark."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cpu.pipeline import CPUSimulator
from repro.cpu.results import SimulationResult
from repro.hwopt.gate import HardwareGate
from repro.isa.packed import AnyTrace
from repro.memory.hierarchy import MemoryHierarchy
from repro.params import MachineParams
from repro.core.versions import MECHANISMS, BenchmarkCodes, make_assist

__all__ = [
    "BenchmarkRun",
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
    numpy kernels (markers and short spans step through the scalar
    loop), False pins the scalar loop, True forces the kernels onto
    short spans too (benchmarks and equivalence tests).  All three
    settings produce bit-identical results and telemetry.
    """
    assist = make_assist(mechanism, machine) if mechanism else None
    hierarchy = MemoryHierarchy(machine, assist, classify_misses)
    gate = HardwareGate(assist, initially_on=initially_on)
    simulator = CPUSimulator(
        machine, hierarchy, gate, telemetry=telemetry, vectorize=vectorize
    )
    return simulator.run(trace)


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


def run_benchmark(
    codes: BenchmarkCodes,
    machine: MachineParams,
    mechanisms: tuple[str, ...] = MECHANISMS,
    classify_misses: bool = False,
) -> BenchmarkRun:
    """Simulate base + the four versions (per mechanism) of a benchmark,
    wired as :func:`version_simulations` lists them."""
    run = BenchmarkRun(codes.name, codes.category, machine.name)
    for key, args in version_simulations(
        codes, machine, mechanisms, classify_misses
    ):
        run.results[key] = simulate_trace(*args)
    return run
