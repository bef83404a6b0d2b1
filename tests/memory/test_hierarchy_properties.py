"""Property-based tests on the memory hierarchy's per-access walk
(:class:`tests.cpu.oracle.OracleHierarchy`)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hwopt.controller import CacheBypassAssist, VictimCacheAssist
from repro.params import base_config
from tests.cpu.oracle import OracleHierarchy


@st.composite
def access_streams(draw):
    """A short mixed access stream over a few distinct regions."""
    length = draw(st.integers(20, 150))
    seed = draw(st.integers(0, 2**16))
    rng = random.Random(seed)
    stream = []
    for _ in range(length):
        region = rng.choice([0x10000, 0x20000, 0x80000])
        addr = region + rng.randrange(0, 4096) & ~7
        stream.append((addr, rng.random() < 0.3))
    return stream


class TestHierarchyProperties:
    @given(access_streams())
    @settings(max_examples=40, deadline=None)
    def test_latency_bounds(self, stream):
        machine = base_config()
        hierarchy = OracleHierarchy(machine)
        l1_min = machine.l1d.latency
        worst = (
            machine.dtlb.miss_penalty
            + machine.l1d.latency
            + machine.l2.latency
            + machine.mem_latency
            + machine.block_transfer_cycles(machine.l2.block_size)
        )
        for addr, is_write in stream:
            result = hierarchy.data_access(addr, is_write)
            assert l1_min <= result.latency <= worst

    @given(access_streams())
    @settings(max_examples=40, deadline=None)
    def test_stats_are_consistent(self, stream):
        hierarchy = OracleHierarchy(base_config(), classify_misses=True)
        for addr, is_write in stream:
            hierarchy.data_access(addr, is_write)
        snap = hierarchy.snapshot()
        assert snap.l1d.accesses == len(stream)
        assert snap.l1d.hits + snap.l1d.misses == snap.l1d.accesses
        assert (
            snap.l1d.compulsory_misses
            + snap.l1d.capacity_misses
            + snap.l1d.conflict_misses
            == snap.l1d.misses
        )
        # Every DRAM read was provoked by an L2 miss.
        assert snap.mem_reads == snap.l2.misses

    @given(access_streams())
    @settings(max_examples=30, deadline=None)
    def test_repeat_access_hits(self, stream):
        """Accessing the same address twice in a row always hits L1."""
        hierarchy = OracleHierarchy(base_config())
        for addr, is_write in stream:
            hierarchy.data_access(addr, is_write)
            repeat = hierarchy.data_access(addr, False)
            assert repeat.l1_hit

    @given(
        access_streams(),
        st.sampled_from(["bypass", "victim"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_assists_never_lose_dirty_data(self, stream, mechanism):
        """Writebacks + resident dirty lines account for every write.

        With an assist attached, dirty lines may live in L1, the
        victim caches, or the bypass buffer, but a store's dirtiness
        must never silently vanish into untracked state (no exceptions,
        consistent counters)."""
        machine = base_config()
        assist = (
            CacheBypassAssist(machine)
            if mechanism == "bypass"
            else VictimCacheAssist(machine)
        )
        hierarchy = OracleHierarchy(machine, assist)
        writes = 0
        for addr, is_write in stream:
            hierarchy.data_access(addr, is_write)
            writes += is_write
        snap = hierarchy.snapshot()
        assert snap.l1d.accesses == len(stream)
        # Sanity: the machine never reports more writebacks than writes.
        total_writebacks = (
            snap.l1d.writebacks + snap.l2.writebacks + snap.mem_writes
        )
        assert total_writebacks <= 3 * writes + 5

    @given(access_streams())
    @settings(max_examples=30, deadline=None)
    def test_disabled_assist_equals_no_assist(self, stream):
        """With the gate off, the hierarchy must behave exactly as if
        no assist were attached — the paper's 'simply ignore the
        mechanism' semantics."""
        machine = base_config()
        plain = OracleHierarchy(machine)
        assist = VictimCacheAssist(machine)
        assist.enabled = False
        gated = OracleHierarchy(machine, assist)
        for addr, is_write in stream:
            a = plain.data_access(addr, is_write)
            b = gated.data_access(addr, is_write)
            assert a == b
