"""Coverage for smaller paths: L2 victim integration, scales, misc."""


from repro.hwopt.controller import VictimCacheAssist
from repro.params import base_config
from repro.workloads.base import MEDIUM, SMALL, TINY
from repro.workloads.registry import all_specs
from tests.cpu.oracle import OracleHierarchy


class TestL2VictimIntegration:
    def test_l2_victim_recovers_l2_eviction(self):
        machine = base_config()
        assist = VictimCacheAssist(machine)
        hierarchy = OracleHierarchy(machine, assist)
        # Fill one L2 set (4 ways) plus one: same L2 set = addresses
        # a way-span apart (128 KB for 512K/4w/128B).
        span = machine.l2.num_sets * machine.l2.block_size
        base = 0x1000000
        hierarchy.data_access(base)
        for way in range(1, 5):
            hierarchy.data_access(base + way * span)
        assert len(assist.l2_victim) >= 1
        # The original line was evicted from L1 (into the L1 victim)
        # and from L2 (into the L2 victim): whichever assist level
        # serves the re-access, DRAM must not be touched again.
        reads_before = hierarchy.memory.reads
        result = hierarchy.data_access(base)
        assert result.served_by != "mem"
        assert hierarchy.memory.reads == reads_before

    def test_l2_victim_capacity_respected(self):
        machine = base_config()
        assist = VictimCacheAssist(machine)
        assert assist.l2_victim.entries == machine.victim.l2_entries


class TestScales:
    def test_all_scales_instantiate_all_benchmarks(self):
        # Program construction only (tracing MEDIUM is a benchmark-time
        # activity, not a unit-test one).
        for scale in (TINY, SMALL, MEDIUM):
            for spec in all_specs():
                program = spec.instantiate(scale)
                assert program.arrays
                assert program.body

    def test_scales_ordered(self):
        assert TINY.n2d < SMALL.n2d < MEDIUM.n2d
        assert TINY.n1d < SMALL.n1d < MEDIUM.n1d

    def test_footprints_grow_with_scale(self):
        small = all_specs()[0].instantiate(SMALL)
        medium = all_specs()[0].instantiate(MEDIUM)
        assert (
            medium.total_footprint_bytes() > small.total_footprint_bytes()
        )


class TestSnapshotImmutability:
    def test_snapshot_does_not_alias_live_stats(self):
        machine = base_config()
        hierarchy = OracleHierarchy(machine)
        hierarchy.data_access(0x1000)
        snap = hierarchy.snapshot()
        before = snap.l1d.accesses
        hierarchy.data_access(0x2000)
        assert snap.l1d.accesses == before  # frozen copy
