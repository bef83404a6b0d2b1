"""Unit tests for the telemetry hub, time series, and sweep timeline."""

from __future__ import annotations

import pytest

from repro.memory.stats import CacheStats, HierarchySnapshot
from repro.telemetry import SweepTimeline, Telemetry
from repro.telemetry.hub import GATE_SPAN
from repro.telemetry.series import SAMPLE_FIELDS, TimeSeries


def _snapshot(**overrides):
    base = dict(
        l1d=CacheStats(),
        l1i=CacheStats(),
        l2=CacheStats(),
        dtlb_misses=0,
        itlb_misses=0,
        mem_reads=0,
        mem_writes=0,
    )
    base.update(overrides)
    return HierarchySnapshot(**base)


def _bind(hub, gate_on=False):
    counters = tuple(0 for _ in range(len(SAMPLE_FIELDS) - 3))
    hub.bind(lambda: counters, _snapshot, gate_on=gate_on)
    return hub


class TestTimeSeries:
    def test_append_and_columns(self):
        series = TimeSeries()
        row = tuple(range(len(SAMPLE_FIELDS)))
        series.append(row)
        assert len(series) == 1
        assert series.column("cycle")[0] == 0
        assert next(iter(series.rows())) == dict(zip(SAMPLE_FIELDS, row))

    def test_append_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            TimeSeries().append((1, 2, 3))

    def test_extend_appends_columns(self):
        series = TimeSeries()
        series.append(tuple(range(len(SAMPLE_FIELDS))))
        series.extend([[10 + k, 20 + k] for k in range(len(SAMPLE_FIELDS))])
        assert len(series) == 3
        assert list(series.column("cycle")) == [0, 10, 20]
        assert list(series.column("gate_on")) == [
            len(SAMPLE_FIELDS) - 1, 10 + len(SAMPLE_FIELDS) - 1,
            20 + len(SAMPLE_FIELDS) - 1,
        ]

    def test_extend_rejects_ragged_or_short_columns(self):
        with pytest.raises(ValueError):
            TimeSeries().extend([[1], [2]])
        columns = [[0]] * len(SAMPLE_FIELDS)
        columns[-1] = [0, 1]
        with pytest.raises(ValueError):
            TimeSeries().extend(columns)

    def test_interval_rates_are_deltas(self):
        series = TimeSeries()
        template = [0] * len(SAMPLE_FIELDS)
        for cycle, accesses, misses in [(0, 0, 0), (10, 100, 10), (20, 300, 20)]:
            row = list(template)
            row[SAMPLE_FIELDS.index("cycle")] = cycle
            row[SAMPLE_FIELDS.index("l1d_accesses")] = accesses
            row[SAMPLE_FIELDS.index("l1d_misses")] = misses
            series.append(tuple(row))
        rates = series.interval_rates("l1d_misses", "l1d_accesses")
        # Interval 1: 10/100; interval 2: 10/200.
        assert rates[1] == (10, pytest.approx(0.1))
        assert rates[2] == (20, pytest.approx(0.05))


class TestTelemetryHub:
    def test_rejects_negative_interval(self):
        with pytest.raises(ValueError):
            Telemetry(interval=-1)

    def test_bind_is_once_only(self):
        hub = _bind(Telemetry())
        with pytest.raises(RuntimeError):
            _bind(hub)

    def test_sample_requires_binding(self):
        with pytest.raises(RuntimeError):
            Telemetry(interval=10).sample(0, 0)

    def test_sample_rows_match_single_samples(self):
        """The vector path's bulk rows equal one ``sample`` per row."""
        counters = tuple(range(3, len(SAMPLE_FIELDS)))
        single = Telemetry(interval=10)
        single.bind(lambda: counters, _snapshot, gate_on=True)
        bulk = Telemetry(interval=10)
        bulk.bind(lambda: counters, _snapshot, gate_on=True)
        for cycle, instructions in [(10, 4), (25, 9)]:
            single.sample(cycle, instructions)
        bulk.sample_rows(
            [10, 25], [4, 9], [[value, value] for value in counters]
        )
        assert list(bulk.series.rows()) == list(single.series.rows())

    def test_sample_rows_require_binding(self):
        with pytest.raises(RuntimeError):
            Telemetry(interval=10).sample_rows([], [], [])

    def test_gate_transitions_make_spans_and_boundaries(self):
        hub = _bind(Telemetry(), gate_on=False)
        hub.now, hub.instructions = 100, 50
        hub.gate_changed(True)
        hub.now, hub.instructions = 300, 150
        hub.gate_changed(False)
        hub.finish(1000, 400)
        spans = hub.gate_spans()
        assert [(s.begin, s.end) for s in spans] == [(100, 300)]
        assert spans[0].name == GATE_SPAN
        # Boundaries: t=0, both transitions, run end.
        assert [b.cycle for b in hub.boundaries] == [0, 100, 300, 1000]
        assert [b.gate_on for b in hub.boundaries] == [
            False, True, False, False,
        ]
        assert hub.counters["gate_activations"] == 1
        assert hub.counters["gate_deactivations"] == 1

    def test_redundant_markers_counted_not_spanned(self):
        hub = _bind(Telemetry(), gate_on=True)
        hub.now = 10
        hub.gate_changed(True)  # double ON
        hub.finish(100, 10)
        assert hub.counters["redundant_gate_markers"] == 1
        assert len(hub.gate_spans()) == 1  # just the initial span

    def test_initially_on_gate_opens_span_at_zero(self):
        hub = _bind(Telemetry(), gate_on=True)
        hub.finish(500, 100)
        spans = hub.gate_spans()
        assert [(s.begin, s.end) for s in spans] == [(0, 500)]
        assert spans[0].args.get("unterminated") is True

    def test_unbalanced_end_is_counted(self):
        hub = _bind(Telemetry())
        assert hub.end_span() is None
        assert hub.counters["unbalanced_span_ends"] == 1

    def test_forced_sample_at_transition(self):
        hub = _bind(Telemetry(interval=1000))
        hub.now, hub.instructions = 42, 10
        hub.gate_changed(True)
        assert len(hub.series) == 1
        assert hub.series.column("cycle")[0] == 42
        assert hub.series.column("gate_on")[0] == 1


class TestSweepTimeline:
    def test_record_and_totals(self):
        timeline = SweepTimeline()
        timeline.record(
            "cell", "vpenta", "base", start=0.0, end=2.0, status="ok"
        )
        timeline.record(
            "cell", "vpenta", "base", start=2.0, end=2.5,
            status="timeout", attempt=2, timeout_seconds=0.5,
        )
        assert len(timeline) == 2
        assert timeline.total_busy_seconds() == pytest.approx(2.5)
        assert len(timeline.by_status("timeout")) == 1
        assert timeline.spans[1].annotations["timeout_seconds"] == 0.5

    def test_restored_is_zero_length(self):
        timeline = SweepTimeline()
        span = timeline.restored("vpenta", "base")
        assert span.duration == 0.0
        assert span.status == "restored"
