"""Each distinct run of a cell is simulated once.

The optimizer leaves irregular codes as they are (optimized == base),
and regular codes get no markers (selective == optimized), where a
gate that never opens is no assist.  ``run_benchmark`` and
``run_benchmark_parallel`` simulate each distinct run once and copy
its result for the versions that repeat it.  These tests pin that the
copies equal fresh simulations field for field, ``trace_name``
included, and which versions repeat which.
"""

from __future__ import annotations

import pytest

import repro.core.experiment as experiment
import repro.core.runner as runner
from repro.cli import _run_with_telemetry
from repro.core.experiment import (
    distinct_runs,
    run_benchmark,
    simulate_trace,
    version_simulations,
)
from repro.core.runner import run_benchmark_parallel
from repro.core.versions import prepare_codes
from repro.isa.packed import PackedTrace
from repro.params import base_config, higher_mem_latency
from repro.workloads.base import TINY
from repro.workloads.registry import get_spec, workload_names
from tests.cpu import oracle

MECHANISMS = ("bypass", "victim", "prefetch")
CONFIGS = {"base": base_config, "higher_mem_latency": higher_mem_latency}


def _machine(config: str = "base"):
    return CONFIGS[config]().scaled(TINY.machine_divisor)


@pytest.fixture(scope="module", params=workload_names())
def codes(request):
    return prepare_codes(get_spec(request.param), TINY, _machine())


def _fresh(codes, machine, classify_misses=False) -> dict:
    """One simulate_trace per version, each on its own copy of its
    trace, so neither the replay memo nor the dedupe serves any."""
    results = {}
    for key, args in version_simulations(
        codes, machine, MECHANISMS, classify_misses
    ):
        trace = args[0]
        copy = PackedTrace(trace.name, *(col[:] for col in trace.columns()))
        results[key] = simulate_trace(copy, *args[1:])
    return results


def _assert_same(results: dict, fresh: dict) -> None:
    assert list(results) == list(fresh)
    for key, result in fresh.items():
        assert results[key] == result, key


@pytest.mark.parametrize("config", CONFIGS)
def test_runs_equal_fresh_simulations(codes, config):
    machine = _machine(config)
    fresh = _fresh(codes, machine)
    _assert_same(run_benchmark(codes, machine, MECHANISMS).results, fresh)
    _assert_same(
        run_benchmark_parallel(codes, machine, MECHANISMS, jobs=1).results,
        fresh,
    )


def test_classify_misses_is_part_of_a_run(codes):
    """``classify_misses`` reaches every version, and the copies of a
    classifying cell equal fresh classifying runs."""
    machine = _machine()
    fresh = _fresh(codes, machine, classify_misses=True)
    _assert_same(
        run_benchmark(codes, machine, MECHANISMS, True).results, fresh
    )


def test_every_version_classifies_its_misses(codes):
    """Each version of a ``classify_misses`` cell splits its L1D and
    L2 misses into the three classes, wherever it misses."""
    run = run_benchmark(codes, _machine(), MECHANISMS, True)
    for key, result in run.results.items():
        for level in (result.memory.l1d, result.memory.l2):
            classes = (
                level.compulsory_misses,
                level.capacity_misses,
                level.conflict_misses,
            )
            assert sum(classes) == level.misses, key
            assert level.misses == 0 or level.compulsory_misses > 0, key


_IRREGULAR = {
    "pure_sw": "base",
    **{f"combined/{m}": f"pure_hw/{m}" for m in MECHANISMS},
}
_REGULAR = {f"selective/{m}": "pure_sw" for m in MECHANISMS}


def test_parallel_workers_get_only_distinct_runs(monkeypatch):
    codes = prepare_codes(get_spec("compress"), TINY, _machine())
    machine = _machine("higher_mem_latency")
    sent = []
    original = runner.run_cells

    def recorded(cells, *args, **kwargs):
        cells = list(cells)
        sent.extend(cell.benchmark for cell in cells)
        return original(cells, *args, **kwargs)

    monkeypatch.setattr(runner, "run_cells", recorded)
    run = run_benchmark_parallel(codes, machine, MECHANISMS, jobs=2)
    _assert_same(run.results, _fresh(codes, machine))
    repeats = set(_IRREGULAR)
    assert sent == [
        f"compress/{key}" for key in run.results if key not in repeats
    ]


@pytest.mark.parametrize(
    "name, classify_misses, repeats",
    [
        ("compress", False, _IRREGULAR),
        ("perl", True, _IRREGULAR),
        # Mixed, but the optimizer finds nothing to change.
        ("chaos", False, _IRREGULAR),
        ("vpenta", False, _REGULAR),
        ("swim", True, _REGULAR),
        ("tpcd_q3", False, {}),
        ("tpcc", True, {}),
    ],
)
def test_which_versions_repeat(name, classify_misses, repeats, monkeypatch):
    codes = prepare_codes(get_spec(name), TINY, _machine())
    plan = version_simulations(codes, _machine(), MECHANISMS, classify_misses)
    firsts = distinct_runs(codes, plan)
    assert {
        plan[i][0]: plan[first][0]
        for i, first in enumerate(firsts)
        if first != i
    } == repeats

    simulated = []
    original = experiment.simulate_trace

    def counted(*args, **kwargs):
        simulated.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment, "simulate_trace", counted)
    run_benchmark(codes, _machine(), MECHANISMS, classify_misses)
    assert len(simulated) == len(plan) - len(repeats)


@pytest.mark.parametrize("mechanism", MECHANISMS)
# ``vectorize`` names the two legs as the ids have always read: None
# runs the simulator, False the per-record loop of its oracle.
@pytest.mark.parametrize("vectorize", [None, False])
@pytest.mark.parametrize("classify_misses", [False, True])
def test_gate_that_never_opens_is_no_assist(
    mechanism, vectorize, classify_misses
):
    """A marker-free trace whose gate starts off gives the no-assist
    result, field for field."""
    trace = prepare_codes(
        get_spec("vpenta"), TINY, _machine()
    ).selective_trace
    assert trace.marker_positions().size == 0
    simulate = oracle.simulate_trace if vectorize is False else simulate_trace
    gated = simulate(
        trace, _machine(), mechanism, initially_on=False,
        classify_misses=classify_misses,
    )
    assert gated == simulate(
        trace, _machine(), classify_misses=classify_misses
    )


def test_trace_kinds_follow_a_changed_trace():
    """A trace extended after the codes were built is compared
    afresh, so it stops repeating its former twin."""
    codes = prepare_codes(get_spec("compress"), TINY, _machine())
    assert [kind.same_as for kind in codes.trace_kinds()] == [0, 0, 2]
    codes.optimized_trace.extend(codes.base_trace)
    assert [kind.same_as for kind in codes.trace_kinds()] == [0, 1, 2]
    plan = version_simulations(codes, _machine(), MECHANISMS)
    assert distinct_runs(codes, plan) == list(range(len(plan)))


def test_telemetry_runs_simulate_every_version(monkeypatch):
    """Each version has its own hub, so none is a copy."""
    codes = prepare_codes(get_spec("vpenta"), TINY, _machine())
    simulated = []
    original = experiment.simulate_trace

    def counted(*args, **kwargs):
        simulated.append(kwargs["telemetry"])
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment, "simulate_trace", counted)
    run, hubs = _run_with_telemetry(codes, _machine(), 0)
    assert list(hubs) == list(run.results)
    assert simulated == list(hubs.values())
    monkeypatch.setattr(experiment, "simulate_trace", original)
    assert run.results == run_benchmark(codes, _machine()).results
