"""Telemetry must be invisible: attached or not, results are bit-identical.

Golden values below were captured from the simulator *before* the
telemetry subsystem existed (commit 43d12d5), so these tests pin three
properties at once:

1. this PR did not change any simulated number;
2. running with a telemetry hub attached yields the exact same
   ``SimulationResult`` as running without one;
3. an object trace, packed on entry, simulates and samples exactly
   like its packed form.
"""

from __future__ import annotations

import pytest

from repro.core.experiment import simulate_trace
from repro.core.versions import prepare_codes
from repro.params import base_config
from repro.telemetry import Telemetry
from repro.workloads.base import TINY
from repro.workloads.registry import get_spec

#: Pre-telemetry golden values at TINY scale on the scaled base machine.
#: key -> field subset of the SimulationResult (identical for the packed
#: and object trace forms).
GOLDEN = {
    ("vpenta", "base"): {
        "cycles": 72196,
        "instructions": 68046,
        "loads": 26208,
        "stores": 6552,
        "branches": 4539,
        "branch_mispredictions": 175,
        "l1d_misses": 16044,
        "l2_misses": 339,
        "mem_reads": 339,
    },
    # Re-pinned when the dependence-relation engine landed: it proves
    # the forward-elimination nests' (1, 0)/(2, 0) vectors safe for
    # unroll-and-jam (inner suffix all-"="), so the optimized variant
    # now runs with half the branches.  Address multiset vs. the base
    # program is unchanged (checked by the transform tests).
    ("vpenta", "selective"): {
        "cycles": 44899,
        "instructions": 63498,
        "branches": 2265,
        "branch_mispredictions": 85,
        "hw_toggles": 0,
        "l1d_misses": 6090,
        "l2_misses": 348,
        "mem_reads": 348,
    },
    ("compress", "base"): {
        "cycles": 125159,
        "instructions": 86016,
        "loads": 43008,
        "stores": 6144,
        "branches": 6144,
        "branch_mispredictions": 1,
        "l1d_misses": 13293,
        "l2_misses": 2652,
        "mem_reads": 2652,
    },
    ("compress", "selective"): {
        "cycles": 128549,
        "instructions": 86017,
        "hw_toggles": 1,
        "l1d_misses": 17453,
        "l2_misses": 2650,
        "mem_reads": 2650,
        "assist_hits": 2087,
    },
    ("tpcd_q3", "base"): {
        "cycles": 61604,
        "instructions": 32934,
        "loads": 11760,
        "stores": 3528,
        "branches": 3531,
        "branch_mispredictions": 10,
        "l1d_misses": 6816,
        "l2_misses": 3001,
        "mem_reads": 3001,
    },
    ("tpcd_q3", "selective"): {
        "cycles": 55101,
        "instructions": 32940,
        "hw_toggles": 6,
        "l1d_misses": 4306,
        "l2_misses": 1629,
        "mem_reads": 1629,
        "assist_hits": 119,
    },
}

BENCHMARKS = ("vpenta", "compress", "tpcd_q3")


@pytest.fixture(scope="module")
def machine():
    return base_config().scaled(TINY.machine_divisor)


@pytest.fixture(scope="module")
def codes_by_name(machine):
    return {
        name: prepare_codes(get_spec(name), TINY, machine)
        for name in BENCHMARKS
    }


def _simulate(codes, machine, version, telemetry=None):
    if version == "base":
        return simulate_trace(
            codes.base_trace, machine, telemetry=telemetry
        )
    return simulate_trace(
        codes.selective_trace,
        machine,
        "bypass",
        initially_on=False,
        telemetry=telemetry,
    )


def _extract(result):
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "loads": result.loads,
        "stores": result.stores,
        "branches": result.branches,
        "branch_mispredictions": result.branch_mispredictions,
        "hw_toggles": result.hw_toggles,
        "l1d_misses": result.memory.l1d.misses,
        "l2_misses": result.memory.l2.misses,
        "mem_reads": result.memory.mem_reads,
        "assist_hits": result.memory.assist_hits,
    }


class TestGoldenPins:
    """Simulated numbers match the pre-telemetry seed exactly."""

    @pytest.mark.parametrize("name", BENCHMARKS)
    @pytest.mark.parametrize("version", ["base", "selective"])
    def test_packed(self, codes_by_name, machine, name, version):
        result = _simulate(codes_by_name[name], machine, version)
        got = _extract(result)
        for field, expected in GOLDEN[(name, version)].items():
            assert got[field] == expected, (name, version, field)

    @pytest.mark.parametrize("name", BENCHMARKS)
    @pytest.mark.parametrize("version", ["base", "selective"])
    def test_objects(self, codes_by_name, machine, name, version):
        codes = codes_by_name[name]
        trace = (
            codes.base_trace if version == "base" else codes.selective_trace
        ).to_trace()
        if version == "base":
            result = simulate_trace(trace, machine)
        else:
            result = simulate_trace(
                trace, machine, "bypass", initially_on=False
            )
        got = _extract(result)
        for field, expected in GOLDEN[(name, version)].items():
            assert got[field] == expected, (name, version, field)


class TestTelemetryIsPassive:
    """With a hub attached, every result field is bit-identical."""

    @pytest.mark.parametrize("name", BENCHMARKS)
    @pytest.mark.parametrize("version", ["base", "selective"])
    @pytest.mark.parametrize("interval", [0, 500])
    def test_packed_identical(
        self, codes_by_name, machine, name, version, interval
    ):
        codes = codes_by_name[name]
        plain = _simulate(codes, machine, version)
        hub = Telemetry(interval=interval, name=f"{name}/{version}")
        observed = _simulate(codes, machine, version, telemetry=hub)
        assert observed == plain  # full dataclass equality, all fields

    @pytest.mark.parametrize("name", BENCHMARKS)
    @pytest.mark.parametrize("version", ["base", "selective"])
    def test_objects_identical(self, codes_by_name, machine, name, version):
        """The object-trace boundary: ``CPUSimulator.run`` packs an
        object trace on entry, so it yields the packed result and the
        same interval samples."""
        codes = codes_by_name[name]
        trace = (
            codes.base_trace if version == "base" else codes.selective_trace
        )
        kwargs = (
            {}
            if version == "base"
            else {"mechanism": "bypass", "initially_on": False}
        )
        plain = simulate_trace(trace, machine, **kwargs)
        packed_hub = Telemetry(interval=250)
        packed = simulate_trace(
            trace, machine, telemetry=packed_hub, **kwargs
        )
        object_hub = Telemetry(interval=250)
        observed = simulate_trace(
            trace.to_trace(), machine, telemetry=object_hub, **kwargs
        )
        assert observed == packed == plain
        assert list(object_hub.series.rows()) == list(
            packed_hub.series.rows()
        )

    def test_hub_observes_the_run(self, codes_by_name, machine):
        """The hub actually recorded something while staying passive."""
        codes = codes_by_name["tpcd_q3"]
        hub = Telemetry(interval=500)
        result = _simulate(codes, machine, "selective", telemetry=hub)
        assert hub.total_cycles == result.cycles
        assert len(hub.series) > 0
        assert hub.counters["gate_activations"] == result.hw_toggles / 2
        # Boundary snapshots bracket the run: first at t=0, last at end.
        assert hub.boundaries[0].cycle == 0
        assert hub.boundaries[-1].cycle == result.cycles
        assert hub.boundaries[-1].memory == result.memory
