"""The vectorized kernels must be bit-identical to the scalar loop.

``CPUSimulator.run`` keeps two implementations: the columnar scalar
reference loop (``vectorize=False``) and the block-batched numpy
kernels (:mod:`repro.cpu.vector`).  These tests run both on real
benchmark traces — every benchmark, base and selective versions, both
machine configurations — and assert the *entire*
:class:`SimulationResult` (cycles, instruction counts, memory
snapshot) matches.  Any timing-model change must keep them in lockstep.
Victim-cache and bypass runs additionally compare the hierarchy's end
state (:func:`tests.cpu.test_vector_property.assert_same_state`), which
catches divergence no result field shows.  Sampled runs compare every
telemetry interval-sample column, boundary snapshot, span and counter
too (:func:`tests.cpu.test_vector_property.run_sampled`).

``vectorize=True`` forces the numpy kernels even on spans below the
``MIN_VECTOR_SPAN`` heuristic floor, so the TINY-scale traces here
genuinely exercise the vector path rather than falling back to scalar.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.experiment import simulate_trace
from repro.core.versions import prepare_codes
from repro.params import base_config, higher_mem_latency
from repro.telemetry import Telemetry
from repro.workloads.base import TINY
from repro.workloads.registry import all_specs, get_spec
from tests.cpu.test_vector_property import assert_same_state, run_sampled

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
    """Scalar loop == vectorized kernels."""
    divisor = TINY.machine_divisor
    scalar = simulate_trace(
        packed_trace, config().scaled(divisor), vectorize=False, **kwargs
    )
    vector = simulate_trace(
        packed_trace, config().scaled(divisor), vectorize=True, **kwargs
    )
    assert vector == scalar


class TestPackedEquivalence:
    """Two-way matrix: 13 benchmarks x base/selective x both configs."""

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
        """ON/OFF markers must toggle the gate identically in both paths."""
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


#: Sampled legs: the trace version and assist of each run; selective
#: traces start with the gate off, as the Selective version does.
SAMPLED_RUNS = [
    pytest.param("base", None, id="base"),
    pytest.param("base", "victim", id="base-victim"),
    pytest.param("base", "bypass", id="base-bypass"),
    pytest.param("base", "prefetch", id="base-prefetch"),
    pytest.param("selective", "victim", id="selective-victim"),
    pytest.param("selective", "bypass", id="selective-bypass"),
]

#: Every cycle, an odd period, the CLI default, and longer than any
#: TINY run (only the final sample).
SAMPLE_INTERVALS = [1, 97, 1000, 10**9]


def _sampled_leg(codes, version, mechanism):
    """The trace and ``simulate_trace`` arguments of one sampled leg."""
    kwargs = {"mechanism": mechanism} if mechanism else {}
    if version == "selective":
        kwargs["initially_on"] = False
    return getattr(codes, f"{version}_trace"), kwargs


class TestSampledEquivalence:
    """Interval sampling takes the kernels and samples as the scalar
    loop does: results, every series column, the boundaries, spans and
    counters, bit for bit."""

    @pytest.mark.parametrize("interval", SAMPLE_INTERVALS)
    @pytest.mark.parametrize("version, mechanism", SAMPLED_RUNS)
    @pytest.mark.parametrize("name", ["vpenta", "compress", "tpcd_q3"])
    def test_series_identical(
        self, codes_by_name, name, version, mechanism, interval
    ):
        trace, kwargs = _sampled_leg(codes_by_name[name], version, mechanism)
        scalar = run_sampled(trace, False, interval, **kwargs)
        assert run_sampled(trace, None, interval, **kwargs) == scalar
        assert run_sampled(trace, True, interval, **kwargs) == scalar

    @pytest.mark.parametrize(
        "version, mechanism", [SAMPLED_RUNS[0], SAMPLED_RUNS[-1]]
    )
    def test_odd_issue_width(self, codes_by_name, version, mechanism):
        """An issue width that is not a power of two takes the fold's
        floor-divide loop, which samples the same way."""
        machine = dataclasses.replace(
            base_config().scaled(TINY.machine_divisor), issue_width=3
        )
        trace, kwargs = _sampled_leg(
            codes_by_name["tpcd_q3"], version, mechanism
        )
        scalar = run_sampled(trace, False, 97, machine, **kwargs)
        assert run_sampled(trace, True, 97, machine, **kwargs) == scalar

    def test_sampled_run_takes_the_kernels(self, codes_by_name, monkeypatch):
        """A sampling hub must not send the run back to the scalar loop."""
        from repro.cpu import vector

        dispatched, spans = [], []
        run_vectorized = vector.run_vectorized
        simulate_span = vector._simulate_span

        def dispatch_spy(sim, trace):
            dispatched.append(sim.telemetry.interval)
            return run_vectorized(sim, trace)

        def span_spy(sim, state, *args):
            spans.append(state.next_sample is not None)
            simulate_span(sim, state, *args)

        monkeypatch.setattr(vector, "run_vectorized", dispatch_spy)
        monkeypatch.setattr(vector, "_simulate_span", span_spy)
        hub = Telemetry(interval=1000)
        simulate_trace(
            codes_by_name["tpcd_q3"].selective_trace,
            base_config().scaled(TINY.machine_divisor),
            mechanism="bypass",
            initially_on=False,
            telemetry=hub,
        )
        assert dispatched == [1000]
        assert spans and all(spans)
        assert len(hub.series) > len(spans)
