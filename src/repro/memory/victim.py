"""Fully-associative victim cache (Jouppi, ISCA 1990).

A small LRU buffer that receives lines evicted from a primary cache.  On
a primary-cache miss the victim cache is probed; a hit returns the line
to the primary cache (the hierarchy performs the swap), avoiding the
trip to the next level.  The paper uses 64-entry (L1) and 512-entry (L2)
victim caches as one of its two hardware locality mechanisms.  The
replay runs a victim cache as a miss-stream filter over its primary
cache's misses (:func:`repro.memory.bulk.filter_victims`).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.memory.block import CacheBlock
from repro.memory.stats import CacheStats

__all__ = ["VictimCache"]


class VictimCache:
    """Fully-associative LRU buffer of evicted cache lines."""

    def __init__(self, entries: int, name: str = "victim"):
        if entries <= 0:
            raise ValueError("victim cache needs at least one entry")
        self.name = name
        self.entries = entries
        self.stats = CacheStats()
        self._blocks: OrderedDict[int, CacheBlock] = OrderedDict()

    def __len__(self) -> int:
        return len(self._blocks)
