"""Integration tests for the memory hierarchy's per-access walk.

The walk (``data_access``/``inst_fetch``) lives in the oracle
:class:`tests.cpu.oracle.OracleHierarchy`, which the simulator's bulk
replay is checked against.
"""

import pytest

from repro.hwopt.controller import CacheBypassAssist, VictimCacheAssist
from repro.params import base_config
from tests.cpu.oracle import OracleHierarchy


@pytest.fixture
def machine():
    return base_config()


class TestDataPath:
    def test_l1_hit_latency(self, machine):
        h = OracleHierarchy(machine)
        h.data_access(0x1000)  # warm (includes TLB miss)
        result = h.data_access(0x1000)
        assert result.l1_hit
        assert result.latency == machine.l1d.latency
        assert result.served_by == "l1"

    def test_cold_miss_goes_to_memory(self, machine):
        h = OracleHierarchy(machine)
        result = h.data_access(0x4000)
        assert not result.l1_hit
        assert result.served_by == "mem"
        assert result.latency >= machine.mem_latency

    def test_l2_hit_after_l1_eviction(self, machine):
        h = OracleHierarchy(machine)
        base = 0x100000
        h.data_access(base)
        # Evict base from L1 by filling its set (L1: 256 sets, 4 ways;
        # same-set lines are 8 KB apart).
        span = machine.l1d.num_sets * machine.l1d.block_size
        for way in range(1, 5):
            h.data_access(base + way * span)
        result = h.data_access(base)
        assert result.served_by == "l2"
        assert (
            result.latency
            == machine.l1d.latency + machine.l2.latency
        )

    def test_tlb_miss_penalty_added(self, machine):
        h = OracleHierarchy(machine)
        first = h.data_access(0x200000)
        h2 = OracleHierarchy(machine)
        h2.dtlb.lookup(0x200000)  # pre-warm the page
        second = h2.data_access(0x200000)
        assert first.latency == second.latency + machine.dtlb.miss_penalty

    def test_write_allocates_and_dirties(self, machine):
        h = OracleHierarchy(machine)
        h.data_access(0x3000, is_write=True)
        assert h.l1d.probe(0x3000)
        line = h.l1d.line_of(0x3000)
        # Evicting the dirty line must count a writeback.
        span = machine.l1d.num_sets * machine.l1d.block_size
        for way in range(1, 5):
            h.data_access(0x3000 + way * span)
        assert h.l1d.stats.writebacks == 1

    def test_snapshot_counts(self, machine):
        h = OracleHierarchy(machine)
        for i in range(10):
            h.data_access(0x1000 + 64 * i)
        snap = h.snapshot()
        assert snap.l1d.accesses == 10
        assert snap.mem_reads > 0


class TestInstructionPath:
    def test_ifetch_hits_after_warm(self, machine):
        h = OracleHierarchy(machine)
        h.inst_fetch(0x400000)
        assert h.inst_fetch(0x400000) == machine.l1i.latency

    def test_ifetch_separate_from_data(self, machine):
        h = OracleHierarchy(machine)
        h.inst_fetch(0x400000)
        assert not h.l1d.probe(0x400000)
        assert h.l1i.probe(0x400000)


class TestAssistGating:
    def test_disabled_assist_is_ignored(self, machine):
        assist = VictimCacheAssist(machine)
        assist.enabled = False
        h = OracleHierarchy(machine, assist)
        span = machine.l1d.num_sets * machine.l1d.block_size
        h.data_access(0x100000)
        for way in range(1, 5):
            h.data_access(0x100000 + way * span)
        # With the mechanism off, the eviction must not be captured.
        assert len(assist.l1_victim) == 0

    def test_enabled_victim_captures_evictions(self, machine):
        assist = VictimCacheAssist(machine)
        h = OracleHierarchy(machine, assist)
        span = machine.l1d.num_sets * machine.l1d.block_size
        h.data_access(0x100000)
        for way in range(1, 5):
            h.data_access(0x100000 + way * span)
        assert len(assist.l1_victim) >= 1

    def test_victim_hit_swaps_back_into_l1(self, machine):
        assist = VictimCacheAssist(machine)
        h = OracleHierarchy(machine, assist)
        span = machine.l1d.num_sets * machine.l1d.block_size
        h.data_access(0x100000)
        for way in range(1, 5):
            h.data_access(0x100000 + way * span)
        assert not h.l1d.probe(0x100000)
        result = h.data_access(0x100000)
        assert result.served_by == "assist"
        assert result.latency == machine.l1d.latency + 1
        assert h.l1d.probe(0x100000)

    def test_bypass_assist_attaches(self, machine):
        assist = CacheBypassAssist(machine)
        h = OracleHierarchy(machine, assist)
        for i in range(100):
            h.data_access(0x100000 + i * 8)
        snap = h.snapshot()
        assert snap.l1d.accesses == 100


class TestInstanceIsolation:
    def test_last_source_not_shared_between_instances(self, machine):
        """Provenance state must live on the instance, not the class.

        Two hierarchies run side by side (parallel sweeps, tests); a
        class-level ``_last_source`` would leak the last access's
        provenance from one into the other.
        """
        a = OracleHierarchy(machine)
        b = OracleHierarchy(machine)
        assert "_last_source" not in OracleHierarchy.__dict__
        # Drive `a` to an L2 hit: miss once (fills L2+L1), evict from
        # L1 is irrelevant — a fresh address misses L1 but hits L2 after
        # the first fill.
        a.data_access(0x8000)
        a._last_source = "l2"
        assert b._last_source == "mem"
        result_b = b.data_access(0x8000)
        assert result_b.served_by == "mem"
        assert a._last_source == "l2"
