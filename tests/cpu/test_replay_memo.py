"""The replay memo of ``simulate_trace``.

A vector run of a packed trace whose every span took the kernels
keeps its whole-trace replay (the outcome codes of every access, fetch
and branch, markers' fetches included) on the trace.  A later run of
the same trace object on a machine that differs only in timing fields
runs the timing fold alone.  These tests pin what that may and may not
do: a memo-served result equals a fresh scalar run for every timing
field, with or without markers, a structural change never hits, the
scalar loop, telemetry and runs with a short span never touch the
memo, an entry dies with its trace, and the memo never rides along
when traces are pickled.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import pickle
import weakref
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.experiment as experiment
from repro.core.experiment import run_benchmark, simulate_trace
from repro.core.runner import _slim_codes
from repro.core.versions import make_assist, prepare_codes
from repro.cpu.pipeline import CPUSimulator
from repro.isa.instructions import Opcode
from repro.isa.packed import PackedTrace
from repro.memory.assist import ASSIST_HIT_CYCLES
from repro.memory.hierarchy import MemoryHierarchy
from repro.params import base_config, higher_mem_latency
from repro.telemetry import Telemetry
from repro.workloads.base import TINY
from repro.workloads.registry import get_spec
from tests.cpu.test_vector_property import packed_traces

_MARKERS = (int(Opcode.HW_ON), int(Opcode.HW_OFF))

MECHANISMS = [None, "victim", "bypass", "prefetch"]


def _machine():
    return base_config().scaled(TINY.machine_divisor)


def _strip_markers(trace: PackedTrace) -> PackedTrace:
    ops, args, pcs = trace.columns()
    kept = [
        record for record in zip(ops, args, pcs) if record[0] not in _MARKERS
    ]
    return PackedTrace("memo", *zip(*kept))


marker_free_traces = packed_traces().map(_strip_markers)


def _head_marker(trace: PackedTrace) -> PackedTrace:
    """``trace`` without markers but one HW_ON at record 0."""
    ops, args, pcs = _strip_markers(trace).columns()
    return PackedTrace(
        "memo", [int(Opcode.HW_ON), *ops], [0, *args], [0x3FFFFC, *pcs]
    )


def _has_mid_marker(trace: PackedTrace) -> bool:
    return bool((trace.marker_positions() > 0).any())


#: Traces without markers, with one marker at record 0, and with
#: markers after record 0.
TRACE_SHAPES = {
    "marker_free": marker_free_traces,
    "head_marker": packed_traces().map(_head_marker),
    "mid_markers": packed_traces().filter(_has_mid_marker),
}

#: Every timing field and a strategy for a new value of it.  Cache and
#: TLB fields are ``"l1d.latency"`` style paths.
TIMING_FIELDS = {
    "name": st.sampled_from(["a", "mem200", "x" * 12]),
    "issue_width": st.integers(1, 8),
    "mem_latency": st.integers(0, 400),
    "mem_bus_width": st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
    "mem_ports": st.integers(1, 4),
    "ruu_entries": st.integers(1, 128),
    "lsq_entries": st.integers(1, 64),
    "max_outstanding_misses": st.integers(1, 16),
    "branch_mispredict_penalty": st.integers(0, 12),
    "l1d.latency": st.integers(0, 12),
    "l1i.latency": st.integers(0, 12),
    "l2.latency": st.integers(0, 40),
    "dtlb.miss_penalty": st.integers(0, 80),
    "itlb.miss_penalty": st.integers(0, 80),
}


def _with(machine, path: str, value):
    """``machine`` with one (possibly nested) field replaced."""
    if "." not in path:
        return dataclasses.replace(machine, **{path: value})
    part, field = path.split(".")
    inner = dataclasses.replace(getattr(machine, part), **{field: value})
    return dataclasses.replace(machine, **{part: inner})


def _entries(trace) -> int:
    return len(experiment._REPLAYS.get(id(trace), {}))


@contextlib.contextmanager
def _hits():
    """Count the runs served from the memo (each runs ``retime``)."""
    served = []
    retime = experiment.retime

    def counted(*args):
        served.append(args[0].name)
        return retime(*args)

    with mock.patch.object(experiment, "retime", counted):
        yield served


class TestMemoServedResults:
    @pytest.mark.parametrize("field", TIMING_FIELDS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_timing_change_equals_scalar(self, field, data):
        """Fill the memo on the base machine, then change one timing
        field: the run is served from the memo and equals a fresh run
        of the scalar loop, with or without markers."""
        shape = data.draw(st.sampled_from(sorted(TRACE_SHAPES)))
        trace = data.draw(TRACE_SHAPES[shape])
        assume(len(trace) > 0)  # the memo skips empty traces
        mechanism = data.draw(st.sampled_from(MECHANISMS))
        classify = data.draw(st.booleans())
        machine = _with(_machine(), field, data.draw(TIMING_FIELDS[field]))
        kwargs = dict(
            mechanism=mechanism,
            initially_on=data.draw(st.booleans()),
            classify_misses=classify,
        )
        simulate_trace(trace, _machine(), vectorize=True, **kwargs)
        assert _entries(trace) == 1
        with _hits() as hits:
            served = simulate_trace(trace, machine, vectorize=True, **kwargs)
        assert len(hits) == 1
        assert _entries(trace) == 1  # a hit adds no entry
        assert served == simulate_trace(
            trace, machine, vectorize=False, **kwargs
        )

    def test_every_timing_field_at_once(self):
        trace = prepare_codes(get_spec("vpenta"), TINY, _machine()).base_trace
        machine = dataclasses.replace(
            _machine(),
            name="slow",
            issue_width=3,
            mem_latency=250,
            mem_bus_width=16,
            mem_ports=3,
            lsq_entries=20,
            max_outstanding_misses=5,
            branch_mispredict_penalty=7,
        )
        for path, value in (
            ("l1d.latency", 3),
            ("l1i.latency", 1),
            ("l2.latency", 14),
            ("dtlb.miss_penalty", 45),
            ("itlb.miss_penalty", 9),
        ):
            machine = _with(machine, path, value)
        for mechanism in MECHANISMS:
            simulate_trace(trace, _machine(), mechanism=mechanism)
            with _hits() as hits:
                served = simulate_trace(trace, machine, mechanism=mechanism)
            assert hits == ["slow"], mechanism
            scalar = simulate_trace(
                trace, machine, mechanism=mechanism, vectorize=False
            )
            assert served == scalar, mechanism
            assert served.machine_name == "slow"
        assert _entries(trace) == len(MECHANISMS)

    def test_served_counters_are_copies(self):
        """Mutating a returned result's cache counters cannot reach
        the memo or a later result."""
        trace = _long_trace()
        first = simulate_trace(trace, _machine())
        first.memory.l1d.misses += 1000
        second = simulate_trace(trace, higher_mem_latency().scaled(
            TINY.machine_divisor
        ))
        second.memory.l2.hits += 1000
        third = simulate_trace(trace, _machine())
        assert third == simulate_trace(trace, _machine(), vectorize=False)

    def test_extended_trace_misses(self):
        """A trace extended after its replay is replayed afresh."""
        trace = _long_trace()
        simulate_trace(trace, _machine())
        trace.extend(_long_trace())
        assert simulate_trace(trace, _machine()) == simulate_trace(
            trace, _machine(), vectorize=False
        )


def _gated(trace: PackedTrace, at: int) -> PackedTrace:
    """``trace`` with an HW_ON inserted before record ``at``."""
    ops, args, pcs = trace.columns()
    pc = pcs[at] if at < len(pcs) else pcs[-1] + 4
    return PackedTrace(
        "gated",
        [*ops[:at], int(Opcode.HW_ON), *ops[at:]],
        [*args[:at], 0, *args[at:]],
        [*pcs[:at], pc, *pcs[at:]],
    )


def _long_trace() -> PackedTrace:
    """A marker-free trace long enough for the auto-dispatched kernels."""
    records = []
    pc = 0x400000
    for i in range(1500):
        pc += 4
        if i % 11 == 0:
            records.append((int(Opcode.BRANCH), i % 3 == 0, pc))
        elif i % 4 == 0:
            records.append((int(Opcode.ALU), 1 + i % 5, pc))
        else:
            op = Opcode.STORE if i % 3 == 0 else Opcode.LOAD
            records.append((int(op), (i * 4160) % (1 << 18), pc))
    return PackedTrace("long", *zip(*records))


class TestStructuralChangesMiss:
    @pytest.mark.parametrize(
        "path, value",
        [
            ("l1d.assoc", 8),
            ("l1d.size", 2048),
            ("l2.assoc", 8),
            ("l1i.size", 2048),
            ("dtlb.entries", 32),
            ("bimodal_entries", 64),
        ],
    )
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_machine_geometry(self, path, value, mechanism):
        trace = _long_trace()
        simulate_trace(trace, _machine(), mechanism=mechanism)
        machine = _with(_machine(), path, value)
        with _hits() as hits:
            result = simulate_trace(trace, machine, mechanism=mechanism)
        assert hits == []
        assert result == simulate_trace(
            trace, machine, mechanism=mechanism, vectorize=False
        )

    @pytest.mark.parametrize(
        "path, value, mechanism",
        [
            ("bypass.mat_entries", 32, "bypass"),
            ("bypass.buffer_words", 8, "bypass"),
            ("victim.l1_entries", 2, "victim"),
            ("victim.l2_entries", 4, "victim"),
        ],
    )
    def test_assist_parameters(self, path, value, mechanism):
        trace = _long_trace()
        simulate_trace(trace, _machine(), mechanism=mechanism)
        machine = _with(_machine(), path, value)
        with _hits() as hits:
            result = simulate_trace(trace, machine, mechanism=mechanism)
        assert hits == []
        assert result == simulate_trace(
            trace, machine, mechanism=mechanism, vectorize=False
        )

    @pytest.mark.parametrize(
        "change",
        [
            {"mechanism": "victim"},
            {"mechanism": "bypass", "initially_on": False},
            {"classify_misses": True},
        ],
    )
    def test_run_settings(self, change):
        trace = _long_trace()
        simulate_trace(trace, _machine())
        with _hits() as hits:
            result = simulate_trace(trace, _machine(), **change)
        assert hits == []
        assert _entries(trace) == 2
        assert result == simulate_trace(
            trace, _machine(), vectorize=False, **change
        )


class TestOneEntryPerSetting:
    def test_new_structure_replaces_the_entry(self):
        """A run on another structure takes the setting's one entry:
        its timing variants are then served, the first machine's are
        replayed afresh."""
        trace = _long_trace()
        simulate_trace(trace, _machine())
        larger = _with(_machine(), "l2.assoc", 8)
        simulate_trace(trace, larger)
        assert _entries(trace) == 1
        later = _with(larger, "mem_latency", 300)
        slower = higher_mem_latency().scaled(TINY.machine_divisor)
        with _hits() as hits:
            served = simulate_trace(trace, later)
            fresh = simulate_trace(trace, slower)
        assert hits == [later.name]
        assert served == simulate_trace(trace, later, vectorize=False)
        assert fresh == simulate_trace(trace, slower, vectorize=False)


class TestMemoScope:
    @pytest.fixture
    def untouchable(self, monkeypatch):
        """Fail any run that reads or fills a memo."""

        def refuse(trace):
            raise AssertionError("the replay memo was used")

        monkeypatch.setattr(experiment, "_replay_memo", refuse)

    def test_scalar_runs(self, untouchable):
        simulate_trace(_long_trace(), _machine(), vectorize=False)

    def test_telemetry_runs(self, untouchable):
        for interval in (0, 500):
            hub = Telemetry(interval=interval)
            simulate_trace(_long_trace(), _machine(), telemetry=hub)

    def test_marker_traces(self):
        """A marker heads the span after it, so a markered run whose
        spans all take the kernels keeps its replay and is served."""
        slower = higher_mem_latency().scaled(TINY.machine_divisor)
        for at in (0, 700):
            for mechanism in MECHANISMS:
                trace = _gated(_long_trace(), at)
                kwargs = dict(mechanism=mechanism, initially_on=False)
                simulate_trace(trace, _machine(), **kwargs)
                assert _entries(trace) == 1, (at, mechanism)
                with _hits() as hits:
                    served = simulate_trace(trace, slower, **kwargs)
                assert hits == [slower.name], (at, mechanism)
                assert served == simulate_trace(
                    trace, slower, vectorize=False, **kwargs
                ), (at, mechanism)

    @pytest.mark.parametrize("at", [1200, 1500])
    def test_short_marker_spans(self, untouchable, at):
        """The span a marker heads is under the floor: it takes the
        scalar loop and leaves no replay, so the run does not reach the
        memo."""
        trace = _gated(_long_trace(), at)
        simulate_trace(trace, _machine(), mechanism="bypass")

    def test_object_traces(self, untouchable):
        simulate_trace(_long_trace().to_trace(), _machine())

    def test_short_traces_on_the_scalar_loop(self, untouchable):
        ops, args, pcs = _long_trace().columns()
        short = PackedTrace("short", ops[:100], args[:100], pcs[:100])
        simulate_trace(short, _machine())

    def test_entry_freed_with_its_trace(self):
        trace = _long_trace()
        simulate_trace(trace, _machine())
        key = id(trace)
        assert key in experiment._REPLAYS
        alive = weakref.ref(trace)
        del trace
        gc.collect()
        assert alive() is None
        assert key not in experiment._REPLAYS


def test_assist_hits_must_cost_the_coded_latency():
    """The replay records only that an access was assist-served, so an
    assist hit with another extra latency is refused, not mistimed.
    Stream buffers run the hook-driven L1 filter, which checks it."""
    machine = _machine()
    assist = make_assist("prefetch", machine)
    assist.lookup_alternate = lambda addr, line, is_write=False: (2, None)
    simulator = CPUSimulator(
        machine, MemoryHierarchy(machine, assist), vectorize=True
    )
    with pytest.raises(ValueError, match="assist hit costs 2 cycles"):
        simulator.run(_long_trace())


def test_bypass_buffer_hits_cost_the_coded_latency():
    """The bypass assist's fused L1 filter never calls
    ``lookup_alternate`` and charges every buffer hit
    ``ASSIST_HIT_CYCLES``, so the scalar hook must cost the same."""
    assist = make_assist("bypass", _machine())
    assert assist.lookup_alternate(0x1000, 0x1000 >> 5) is None
    assist.buffer.insert(0x1000)
    assert assist.lookup_alternate(0x1000, 0x1000 >> 5, True) == (
        ASSIST_HIT_CYCLES,
        None,
    )


def test_pickled_codes_never_carry_the_memo():
    """Slim codes pickle to the same bytes before and after a run that
    fills the memo and one served from it: neither the workers nor the
    run store ever receive it."""
    codes = _slim_codes(prepare_codes(get_spec("vpenta"), TINY, _machine()))
    before = pickle.dumps(codes)
    run_benchmark(codes, _machine())
    run_benchmark(codes, higher_mem_latency().scaled(TINY.machine_divisor))
    assert _entries(codes.base_trace) > 0
    assert pickle.dumps(codes) == before
    clone = pickle.loads(before)
    assert _entries(clone.base_trace) == 0
