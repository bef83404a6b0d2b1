"""The packed and vectorized hot loops must be bit-identical to the
object reference loop.

``CPUSimulator.run`` keeps three implementations: the original
per-instruction reference loop, the columnar scalar fast path, and the
block-batched numpy kernels (:mod:`repro.cpu.vector`).  These tests run
all three on real benchmark traces — every benchmark, base and
selective versions, both machine configurations — and assert the
*entire* :class:`SimulationResult` (cycles, instruction counts, memory
snapshot) matches.  Any timing-model change must keep them in lockstep.
Victim-cache and bypass runs additionally compare the hierarchy's end
state (:func:`tests.cpu.test_vector_property.assert_same_state`), which
catches divergence no result field shows.

``vectorize=True`` forces the numpy kernels even on spans below the
``MIN_VECTOR_SPAN`` heuristic floor, so the TINY-scale traces here
genuinely exercise the vector path rather than falling back to scalar.
"""

from __future__ import annotations

import pytest

from repro.core.experiment import simulate_trace
from repro.core.versions import prepare_codes
from repro.params import base_config, higher_mem_latency
from repro.workloads.base import TINY
from repro.workloads.registry import all_specs, get_spec
from tests.cpu.test_vector_property import assert_same_state

ALL_BENCHMARKS = [spec.name for spec in all_specs()]

CONFIGS = {
    "base_machine": base_config,
    "higher_mem_latency": higher_mem_latency,
}

#: Every (benchmark, config) pair under both mechanisms; bypass cases
#: keep the plain ``name-config`` ids.
GATED_CASES = [
    pytest.param(
        name,
        config,
        mechanism,
        id=f"{name}-{config_id}"
        + ("" if mechanism == "bypass" else f"-{mechanism}"),
    )
    for mechanism in ("bypass", "victim")
    for name in ALL_BENCHMARKS
    for config_id, config in CONFIGS.items()
]


@pytest.fixture(scope="module")
def codes_by_name():
    machine = base_config().scaled(TINY.machine_divisor)
    return {
        name: prepare_codes(get_spec(name), TINY, machine)
        for name in ALL_BENCHMARKS
    }


def _assert_equivalent(packed_trace, config, **kwargs):
    """Object loop == scalar packed loop == vectorized kernels."""
    divisor = TINY.machine_divisor
    objects = simulate_trace(
        packed_trace.to_trace(), config().scaled(divisor), **kwargs
    )
    scalar = simulate_trace(
        packed_trace, config().scaled(divisor), vectorize=False, **kwargs
    )
    vector = simulate_trace(
        packed_trace, config().scaled(divisor), vectorize=True, **kwargs
    )
    assert scalar == objects
    assert vector == objects


class TestPackedEquivalence:
    """Three-way matrix: 13 benchmarks x base/selective x both configs."""

    @pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_base_trace_no_assist(self, codes_by_name, name, config):
        _assert_equivalent(
            codes_by_name[name].base_trace, config, classify_misses=True
        )

    @pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_base_trace_victim(self, codes_by_name, name, config):
        """``pure_hw/victim``: the victim caches filter every span."""
        _assert_equivalent(
            codes_by_name[name].base_trace,
            config,
            mechanism="victim",
            classify_misses=True,
        )

    @pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_base_trace_prefetch(self, codes_by_name, name, config):
        """``pure_hw`` with stream buffers: an assist that promotes its
        hits into L1 runs through the same record-order L1 filter as
        bypassing."""
        _assert_equivalent(
            codes_by_name[name].base_trace,
            config,
            mechanism="prefetch",
            classify_misses=True,
        )

    @pytest.mark.parametrize("name, config, mechanism", GATED_CASES)
    def test_selective_trace_gated(
        self, codes_by_name, name, config, mechanism
    ):
        """ON/OFF markers must toggle the gate identically in all loops."""
        _assert_equivalent(
            codes_by_name[name].selective_trace,
            config,
            mechanism=mechanism,
            initially_on=False,
        )

    @pytest.mark.parametrize("mechanism", ["bypass", "victim"])
    def test_optimized_trace_with_mechanism(self, codes_by_name, mechanism):
        """Assist always on: bypass runs the bulk replay with its
        record-order L1 filter, victim with its victim-cache filters."""
        _assert_equivalent(
            codes_by_name["vpenta"].optimized_trace,
            base_config,
            mechanism=mechanism,
        )

    @pytest.mark.parametrize("mechanism", ["bypass", "victim"])
    def test_selective_victim_mechanism(self, codes_by_name, mechanism):
        _assert_equivalent(
            codes_by_name["compress"].selective_trace,
            base_config,
            mechanism=mechanism,
            initially_on=False,
        )


class TestVictimStateEquality:
    """Vector and scalar runs leave the same hierarchy behind."""

    @pytest.mark.parametrize("name", ["vpenta", "compress", "tpcd_q3"])
    def test_base_trace(self, codes_by_name, name):
        assert_same_state(
            codes_by_name[name].base_trace, classify_misses=True
        )

    @pytest.mark.parametrize("name", ["vpenta", "compress", "tpcd_q3"])
    def test_selective_trace(self, codes_by_name, name):
        assert_same_state(
            codes_by_name[name].selective_trace, initially_on=False
        )


class TestBypassStateEquality:
    """Vector and scalar runs leave the same MAT, SLDT and buffer."""

    @pytest.mark.parametrize("name", ["vpenta", "compress", "tpcd_q3"])
    def test_base_trace(self, codes_by_name, name):
        assert_same_state(
            codes_by_name[name].base_trace,
            mechanism="bypass",
            classify_misses=True,
        )

    @pytest.mark.parametrize("name", ["vpenta", "compress", "tpcd_q3"])
    def test_selective_trace(self, codes_by_name, name):
        assert_same_state(
            codes_by_name[name].selective_trace,
            mechanism="bypass",
            initially_on=False,
        )
