"""The numpy stack-distance kernel against the per-access oracle.

:func:`repro.locality.stack.stack_distances` computes every distance of
a trace at once; ``tests/locality/oracle.py`` keeps the Fenwick-indexed
LRU stack it replaced, one access at a time.  These tests hold the two
equal on drawn line streams and marker placements, and on the base,
optimized and selective traces of every benchmark at TINY, through the
histogram, the per-region profiles and the locality row built on them.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.versions import prepare_codes
from repro.evaluation import locality
from repro.hwopt import policy
from repro.isa.instructions import Opcode
from repro.isa.packed import PackedTrace
from repro.locality.mrc import DistanceHistogram, distance_histogram
from repro.locality.profile import split_profiles
from repro.locality.stack import COLD, stack_distances
from repro.params import base_config
from repro.workloads.base import TINY
from repro.workloads.registry import all_specs, get_spec
from tests.locality import oracle

LINE = 32


def assert_matches_oracle(lines):
    distances = stack_distances(lines)
    assert distances.dtype == np.int64
    assert distances.tolist() == oracle.stack_distances(lines)


class TestStreams:
    @pytest.mark.parametrize(
        "lines",
        [
            [],
            [7],
            [5] * 40,
            list(range(300)),
            [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5],
        ],
        ids=["empty", "one", "same", "distinct", "digits"],
    )
    def test_edge_streams(self, lines):
        assert_matches_oracle(lines)

    def test_known_distances(self):
        assert stack_distances([1, 2, 3, 1, 3, 3]).tolist() == [
            COLD, COLD, COLD, 2, 1, 0,
        ]

    @pytest.mark.parametrize("period", [1, 2, 3, 7, 64])
    def test_period_cycles(self, period):
        lines = [i % period for i in range(20 * period + 3)]
        distances = stack_distances(lines).tolist()
        assert distances == oracle.stack_distances(lines)
        assert distances[period:] == [period - 1] * (len(lines) - period)

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    @pytest.mark.parametrize("k", [1, 2, 5, 10, 12])
    def test_reuse_counts_around_powers_of_two(self, k, delta):
        # The kernel's levels follow the number of reuses: 2**k - 1,
        # 2**k and 2**k + 1 reuses straddle the step to a new level.
        reuses = (1 << k) + delta
        rng = np.random.default_rng(k * 3 + delta)
        distinct = 17
        lines = np.concatenate(
            [np.arange(distinct), rng.integers(0, distinct, reuses)]
        )
        distances = stack_distances(lines)
        assert int((distances != COLD).sum()) == reuses
        assert distances.tolist() == oracle.stack_distances(lines)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 7), max_size=300))
    def test_small_alphabet(self, lines):
        assert_matches_oracle(lines)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.one_of(st.integers(0, 50), st.integers(0, 1 << 40)),
            max_size=200,
        )
    )
    @example([1 << 40, 0, 1 << 40, (1 << 40) - 1, 0])
    def test_wide_line_ids(self, lines):
        assert_matches_oracle(lines)

    def test_refuses_traces_past_32_bit_positions(self):
        # A zero-stride view: 2**31 references without the memory.
        lines = np.broadcast_to(np.int64(0), (1 << 31,))
        with pytest.raises(ValueError, match="2\\*\\*31"):
            stack_distances(lines)

    def test_matches_the_recency_list(self):
        # A second, independent ground truth: the O(N*M) list scan.
        rng = np.random.default_rng(11)
        lines = rng.integers(0, 300, 5000).tolist()
        assert stack_distances(lines).tolist() == oracle.lru_distances(lines)


_MEMORY = (int(Opcode.LOAD), int(Opcode.STORE))
_MARKERS = (int(Opcode.HW_ON), int(Opcode.HW_OFF))

#: One record: a memory reference to a line, a marker, or an ALU op.
records = st.one_of(
    st.tuples(st.sampled_from(_MEMORY), st.integers(0, 12)),
    st.tuples(st.sampled_from(_MARKERS), st.just(0)),
    st.tuples(st.just(int(Opcode.ALU)), st.integers(1, 3)),
)


def packed(rows, name="drawn"):
    ops = [op for op, _ in rows]
    args = [line * LINE + 4 if op in _MEMORY else line for op, line in rows]
    return PackedTrace(name, ops, args, range(len(rows)))


class TestMarkerPlacement:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(records, max_size=120), st.booleans())
    @example([(int(Opcode.HW_ON), 0), (int(Opcode.LOAD), 1)], False)
    @example([(int(Opcode.LOAD), 1), (int(Opcode.HW_OFF), 0)], True)
    @example(
        [
            (int(Opcode.LOAD), 1),
            (int(Opcode.HW_ON), 0),
            (int(Opcode.HW_ON), 0),
            (int(Opcode.HW_OFF), 0),
            (int(Opcode.LOAD), 1),
            (int(Opcode.HW_OFF), 0),
        ],
        False,
    )
    @example([], True)
    def test_regions_match_the_oracle(self, rows, initially_on):
        trace = packed(rows)
        got = split_profiles(trace, LINE, initially_on)
        want = oracle.split_profiles(trace, LINE, initially_on)
        assert len(got.regions) == len(want.regions)
        for mine, theirs in zip(got.regions, want.regions):
            assert mine.index == theirs.index
            assert mine.gate_on == theirs.gate_on
            assert mine.start == theirs.start
            assert mine.histogram == theirs.histogram
        assert got == want

    def test_every_marker_opens_a_region(self):
        on, off, load = (
            int(Opcode.HW_ON), int(Opcode.HW_OFF), int(Opcode.LOAD),
        )
        trace = packed([(on, 0), (off, 0), (load, 2), (on, 0)])
        profile = split_profiles(trace, LINE, True)
        assert [
            (r.index, r.gate_on, r.start, r.memory_refs)
            for r in profile.regions
        ] == [(0, True, 0, 0), (1, True, 0, 0), (2, False, 1, 1),
              (3, True, 3, 0)]


class TestHistogramColumn:
    def test_plain_int_keys_and_values(self):
        histogram = DistanceHistogram.of(
            np.array([COLD, 0, 3, 0, COLD, 2], dtype=np.int64)
        )
        assert histogram.cold == 2
        assert histogram.counts == {0: 2, 2: 1, 3: 1}
        assert all(
            type(key) is int and type(value) is int
            for key, value in histogram.counts.items()
        )

    def test_empty_column(self):
        assert DistanceHistogram.of(np.empty(0, np.int64)) == (
            DistanceHistogram()
        )


MACHINE = base_config().scaled(TINY.machine_divisor)
NAMES = [spec.name for spec in all_specs()]


class TestBenchmarks:
    @pytest.mark.parametrize("name", NAMES)
    def test_traces_match_the_oracle(self, name):
        codes = prepare_codes(get_spec(name), TINY, MACHINE)
        for trace in codes.traces():
            assert distance_histogram(trace, LINE) == (
                oracle.distance_histogram(trace, LINE)
            )
            assert split_profiles(trace, LINE) == (
                oracle.split_profiles(trace, LINE)
            )

    @pytest.mark.parametrize("name", ["vpenta", "compress", "tpcd_q3"])
    def test_locality_row_matches_the_oracle(self, name, monkeypatch):
        spec = get_spec(name)
        row = locality.locality_row(spec, TINY, MACHINE)
        monkeypatch.setattr(
            locality, "distance_histogram", oracle.distance_histogram
        )
        monkeypatch.setattr(policy, "split_profiles", oracle.split_profiles)
        assert locality.locality_row(spec, TINY, MACHINE) == row
