"""Unit tests for the SLDT and the bypass buffer, one access at a time
(the per-access methods of ``tests/cpu/oracle.py``)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hwopt.bypass import BypassBuffer
from repro.hwopt.sldt import SpatialLocalityDetector
from repro.params import BypassParams
from tests.cpu.oracle import as_oracle


class TestSLDT:
    def make(self, entries=4):
        params = BypassParams(sldt_entries=entries, spatial_threshold=2)
        return as_oracle(SpatialLocalityDetector(params, line_size=32))

    def test_unknown_block_not_spatial(self):
        sldt = self.make()
        assert sldt.spatial_quality(0x9000) == 0
        assert not sldt.expects_spatial(0x9000)

    def test_sequential_touches_promote(self):
        sldt = self.make(entries=2)
        # Touch several words of each line; retirements judge spatial.
        for line in range(8):
            base = line * 32
            for word in range(4):
                sldt.observe(base + word * 8)
        sldt.flush_judgements()
        assert sldt.expects_spatial(0)
        assert sldt.spatial_promotions > 0

    def test_single_word_touches_demote(self):
        sldt = self.make(entries=2)
        for line in range(8):
            sldt.observe(line * 32)  # one word per line
        sldt.flush_judgements()
        assert sldt.spatial_quality(0) < 0
        assert not sldt.expects_spatial(0)

    def test_counter_saturates_at_bounds(self):
        params = BypassParams(
            sldt_entries=1, spatial_counter_max=3, spatial_counter_min=-2
        )
        sldt = as_oracle(SpatialLocalityDetector(params, line_size=32))
        for line in range(50):
            sldt.observe(line * 32)
        sldt.flush_judgements()
        assert sldt.spatial_quality(0) == -2

    def test_line_size_must_exceed_word(self):
        with pytest.raises(ValueError):
            SpatialLocalityDetector(BypassParams(), line_size=8)


class TestBypassBuffer:
    def test_insert_then_hit(self):
        buffer = as_oracle(BypassBuffer(4))
        buffer.insert(0x100)
        assert buffer.lookup(0x100)
        assert buffer.hits == 1

    def test_dword_granularity(self):
        buffer = as_oracle(BypassBuffer(4))
        buffer.insert(0x100)
        assert buffer.lookup(0x104)       # same double word
        assert not buffer.lookup(0x108)   # next double word: miss

    def test_lru_displacement_returns_dirty_addr(self):
        buffer = as_oracle(BypassBuffer(2))
        buffer.insert(0x100, dirty=True)
        buffer.insert(0x200)
        displaced = buffer.insert(0x300)
        assert displaced == 0x100

    def test_clean_displacement_returns_none(self):
        buffer = as_oracle(BypassBuffer(1))
        buffer.insert(0x100, dirty=False)
        assert buffer.insert(0x200) is None

    def test_write_hit_marks_dirty(self):
        buffer = as_oracle(BypassBuffer(2))
        buffer.insert(0x100)
        buffer.lookup(0x100, is_write=True)
        buffer.insert(0x200)
        displaced = buffer.insert(0x300)
        assert displaced == 0x100  # became dirty via the write hit

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            BypassBuffer(0)

    @given(st.lists(st.integers(0, 1 << 12), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_capacity_invariant(self, addrs):
        buffer = as_oracle(BypassBuffer(8))
        for addr in addrs:
            buffer.insert(addr)
        assert len(buffer) <= 8
