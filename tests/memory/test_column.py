"""Tests for the column-associative cache extension.

The cache lives beside its one user, ``examples/hardware_mechanisms.py``.
"""

import random

import pytest

from examples.column_assoc import ColumnAssociativeCache
from repro.memory.cache import SetAssociativeCache
from repro.params import CacheParams


def make(sets=8, block=32):
    return ColumnAssociativeCache(
        CacheParams("CA", sets * block, 1, block, 1)
    )


class TestColumnAssociative:
    def test_requires_direct_mapped(self):
        with pytest.raises(ValueError):
            ColumnAssociativeCache(CacheParams("bad", 1024, 2, 32, 1))

    def test_basic_hit(self):
        cache = make()
        cache.fill(0x100)
        assert cache.lookup(0x100)

    def test_rehash_resolves_conflict(self):
        cache = make(sets=8)
        # Lines 0 and 8 share primary index 0; the rehash slot (index 4)
        # keeps both resident.
        cache.fill(0 * 32)
        cache.fill(8 * 32)
        assert cache.lookup(0 * 32)
        assert cache.lookup(8 * 32)
        assert cache.rehash_hits >= 1

    def test_swap_promotes_hot_line(self):
        cache = make(sets=8)
        cache.fill(0 * 32)
        cache.fill(8 * 32)      # line 0 displaced to rehash slot
        cache.lookup(0 * 32)     # rehash hit: swap back to primary
        # Now line 0 hits on the first probe (no rehash increment).
        before = cache.rehash_hits
        assert cache.lookup(0 * 32)
        assert cache.rehash_hits == before

    def test_eviction_from_rehash_slot(self):
        cache = make(sets=8)
        cache.fill(0 * 32)
        cache.fill(8 * 32)
        evicted = cache.fill(16 * 32)  # third conflicting line
        assert evicted is not None

    def test_dirty_writeback_counted(self):
        cache = make(sets=8)
        cache.fill(0 * 32)
        cache.lookup(0 * 32, is_write=True)
        cache.fill(8 * 32)
        cache.fill(16 * 32)
        assert cache.stats.writebacks >= 1

    def test_beats_direct_mapped_on_conflicts(self):
        """The Agarwal & Pudar result: fewer conflict misses than a
        direct-mapped cache of the same size on a ping-pong pattern."""
        params = CacheParams("DM", 8 * 32, 1, 32, 1)
        direct = SetAssociativeCache(params)
        column = make(sets=8)
        rng = random.Random(3)
        addresses = []
        for _ in range(600):
            # Two streams that collide in a direct-mapped cache.
            base = rng.choice([0x0000, 0x0100])
            addresses.append(base + rng.randrange(4) * 32)
        for cache in (direct, column):
            for addr in addresses:
                if not cache.lookup(addr):
                    cache.fill(addr)
        assert column.stats.misses < direct.stats.misses

    def test_occupancy_bounded(self):
        cache = make(sets=4)
        for line in range(32):
            if not cache.lookup(line * 32):
                cache.fill(line * 32)
        assert cache.occupancy() <= 4
