"""Unit tests for the two hardware assists and the ON/OFF gate.  The
assist tests run the per-access hooks of ``tests/cpu/oracle.py``."""

import pytest

from repro.hwopt.controller import CacheBypassAssist, VictimCacheAssist
from repro.hwopt.gate import HardwareGate
from repro.memory.block import CacheBlock
from repro.params import base_config
from tests.cpu.oracle import as_oracle


@pytest.fixture
def machine():
    return base_config()


class TestCacheBypassAssist:
    def test_free_way_always_caches(self, machine):
        assist = as_oracle(CacheBypassAssist(machine))
        decision = assist.fill_decision(0x1000, victim_line=None)
        assert decision.cache_in_l1

    def test_bypass_requires_hot_victim(self, machine):
        assist = as_oracle(CacheBypassAssist(machine))
        # Victim macro-block untrained: frequency 0 < min_victim_freq.
        decision = assist.fill_decision(0x1000, victim_line=0x2000 // 32)
        assert decision.cache_in_l1

    def test_bypass_fires_for_cold_incoming_hot_victim(self, machine):
        assist = as_oracle(CacheBypassAssist(machine))
        victim_addr = 0x2000
        for _ in range(64):
            assist.mat.record(victim_addr)
        # Keep the victim looking non-spatial (single-word touches).
        decision = assist.fill_decision(
            0x80000, victim_line=victim_addr // 32
        )
        assert not decision.cache_in_l1

    def test_no_bypass_when_incoming_also_hot(self, machine):
        assist = as_oracle(CacheBypassAssist(machine))
        for _ in range(64):
            assist.mat.record(0x2000)
            assist.mat.record(0x80000)
        decision = assist.fill_decision(0x80000, victim_line=0x2000 // 32)
        assert decision.cache_in_l1

    def test_spatial_incoming_never_bypassed(self, machine):
        assist = as_oracle(CacheBypassAssist(machine))
        for _ in range(64):
            assist.mat.record(0x2000)
        # Teach the SLDT that the incoming macro-block is spatial.
        for line in range(16):
            for word in range(4):
                assist.sldt.observe(0x80000 + line * 32 + word * 8)
        assist.sldt.flush_judgements()
        assert assist.sldt.expects_spatial(0x80000)
        decision = assist.fill_decision(0x80000, victim_line=0x2000 // 32)
        assert decision.cache_in_l1

    def test_spatial_victim_not_protected(self, machine):
        """A streaming victim's lines are dead; evicting them is fine."""
        assist = as_oracle(CacheBypassAssist(machine))
        victim_addr = 0x2000
        for _ in range(64):
            assist.mat.record(victim_addr)
        for line in range(16):
            for word in range(4):
                assist.sldt.observe(victim_addr + line * 32 + word * 8)
        assist.sldt.flush_judgements()
        decision = assist.fill_decision(
            0x80000, victim_line=victim_addr // 32
        )
        assert decision.cache_in_l1

    def test_bypassed_data_served_from_buffer(self, machine):
        assist = as_oracle(CacheBypassAssist(machine))
        assist.accept_bypassed(0x3000, CacheBlock(0x3000 // 32))
        served = assist.lookup_alternate(0x3000, 0x3000 // 32)
        assert served is not None
        extra_latency, promoted = served
        assert extra_latency == 1
        assert promoted is None  # bypass buffer serves in place
        assert assist.assist_hits == 1

    def test_buffer_miss_returns_none(self, machine):
        assist = as_oracle(CacheBypassAssist(machine))
        assert assist.lookup_alternate(0x3000, 0x3000 // 32) is None

    def test_note_access_trains_mat_and_sldt(self, machine):
        assist = as_oracle(CacheBypassAssist(machine))
        assist.note_access(0x4000, is_write=False, l1_hit=True)
        assert assist.mat.frequency(0x4000) == 1

    def test_evictions_not_captured(self, machine):
        assist = as_oracle(CacheBypassAssist(machine))
        block = CacheBlock(7, dirty=True)
        assert assist.on_l1_evict(block) is block


class TestVictimCacheAssist:
    def test_eviction_capture_and_swap(self, machine):
        assist = as_oracle(VictimCacheAssist(machine))
        assert assist.on_l1_evict(CacheBlock(42)) is None
        served = assist.lookup_alternate(42 * 32, 42)
        assert served is not None
        extra_latency, promoted = served
        assert extra_latency == 1
        assert promoted.block_addr == 42  # promoted back into L1

    def test_write_on_victim_hit_dirties(self, machine):
        assist = as_oracle(VictimCacheAssist(machine))
        assist.on_l1_evict(CacheBlock(42, dirty=False))
        _lat, promoted = assist.lookup_alternate(42 * 32, 42, is_write=True)
        assert promoted.dirty

    def test_l2_victim_path(self, machine):
        assist = as_oracle(VictimCacheAssist(machine))
        assert assist.on_l2_evict(CacheBlock(9)) is None
        assert assist.lookup_l2_alternate(9) is not None
        assert assist.lookup_l2_alternate(9) is None  # removed by hit

    def test_never_bypasses(self, machine):
        assist = as_oracle(VictimCacheAssist(machine))
        decision = assist.fill_decision(0x1000, victim_line=5)
        assert decision.cache_in_l1

    def test_counters(self, machine):
        assist = as_oracle(VictimCacheAssist(machine))
        assert assist.bypassed_fills == 0
        assert assist.prefetched_blocks == 0


class TestHardwareGate:
    def test_initial_state_applied(self, machine):
        assist = VictimCacheAssist(machine)
        HardwareGate(assist, initially_on=False)
        assert not assist.enabled

    def test_toggle_counting(self, machine):
        assist = VictimCacheAssist(machine)
        gate = HardwareGate(assist, initially_on=False)
        gate.activate()
        gate.deactivate()
        gate.activate()
        assert assist.enabled
        assert gate.activations == 2
        assert gate.deactivations == 1
        assert gate.toggles == 3

    def test_gate_without_assist_is_safe(self):
        gate = HardwareGate(None)
        gate.activate()
        gate.deactivate()
        assert not gate.enabled
