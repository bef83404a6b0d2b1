"""Unit tests for victim cache, TLB, and DRAM model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.block import CacheBlock
from repro.memory.dram import MainMemory
from repro.memory.tlb import TLB
from repro.memory.victim import VictimCache
from repro.params import MachineParams, TLBParams
from tests.cpu.oracle import as_oracle


class TestVictimCache:
    def test_insert_then_extract(self):
        victim = as_oracle(VictimCache(4))
        victim.insert(CacheBlock(10))
        block = victim.extract(10)
        assert block is not None and block.block_addr == 10
        assert not victim.contains(10)  # extraction removes

    def test_extract_miss_counted(self):
        victim = as_oracle(VictimCache(4))
        assert victim.extract(99) is None
        assert victim.stats.misses == 1

    def test_lru_displacement(self):
        victim = as_oracle(VictimCache(2))
        victim.insert(CacheBlock(1))
        victim.insert(CacheBlock(2))
        displaced = victim.insert(CacheBlock(3))
        assert displaced.block_addr == 1

    def test_displaced_dirty_counts_writeback(self):
        victim = as_oracle(VictimCache(1))
        victim.insert(CacheBlock(1, dirty=True))
        victim.insert(CacheBlock(2))
        assert victim.stats.writebacks == 1

    def test_reinsert_merges_dirty(self):
        victim = as_oracle(VictimCache(2))
        victim.insert(CacheBlock(5, dirty=False))
        assert victim.insert(CacheBlock(5, dirty=True)) is None
        block = victim.extract(5)
        assert block.dirty

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            VictimCache(0)

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_bounded(self, lines):
        victim = as_oracle(VictimCache(8))
        for line in lines:
            victim.insert(CacheBlock(line))
        assert len(victim) <= 8


class TestTLB:
    def test_miss_then_hit_same_page(self):
        tlb = TLB(TLBParams("T", 16, 4))
        assert not tlb.lookup(0x1234)
        assert tlb.lookup(0x1FFF)  # same 4K page

    def test_different_pages_miss(self):
        tlb = TLB(TLBParams("T", 16, 4))
        tlb.lookup(0x0000)
        assert not tlb.lookup(0x100000)

    def test_lru_within_set(self):
        # 4 entries, assoc 4 -> single set.
        tlb = TLB(TLBParams("T", 4, 4, page_size=4096))
        for page in range(4):
            tlb.lookup(page * 4096)
        tlb.lookup(0)              # refresh page 0
        tlb.lookup(4 * 4096)       # evicts page 1
        assert tlb.lookup(0)       # still resident
        assert not tlb.lookup(1 * 4096)

    def test_miss_rate(self):
        tlb = TLB(TLBParams("T", 16, 4))
        tlb.lookup(0)
        tlb.lookup(0)
        assert tlb.miss_rate == pytest.approx(0.5)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            TLBParams("bad", 10, 4)  # not divisible
        with pytest.raises(ValueError):
            TLBParams("bad", 16, 4, page_size=1000)


class TestMainMemory:
    def test_read_latency_includes_transfer(self):
        machine = MachineParams()
        memory = MainMemory(machine)
        # 128-byte L2 block over an 8-byte bus: 100 + 15 extra beats.
        assert memory.read_block(128) == 115
        assert memory.reads == 1

    def test_write_is_buffered(self):
        memory = MainMemory(MachineParams())
        assert memory.write_block(128) == 0
        assert memory.writes == 1

    def test_transfer_cycles_formula(self):
        machine = MachineParams()
        assert machine.block_transfer_cycles(8) == 0
        assert machine.block_transfer_cycles(32) == 3
        assert machine.block_transfer_cycles(128) == 15
