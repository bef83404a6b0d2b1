"""Set-associative cache with true-LRU replacement.

This is the core building block for L1D, L1I and L2 in the paper's
Table 1 machine.  The cache is write-back / write-allocate; data
contents are not modelled, only tags and dirty bits.

Optional *miss classification* implements the standard three-C
decomposition the paper relies on ("conflict misses constitute between
53% and 72% of total cache misses", Section 4.2): a miss on a
never-before-seen line is compulsory; otherwise it is replayed against a
same-capacity fully-associative LRU shadow — a shadow hit means the miss
was a conflict miss, a shadow miss a capacity miss.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.memory.block import CacheBlock
from repro.memory.stats import CacheStats
from repro.params import CacheParams

__all__ = ["SetAssociativeCache"]


class SetAssociativeCache:
    """A single level of set-associative, true-LRU, write-back cache.

    The external address unit is the *byte address*; internally the cache
    works on line numbers (``addr // block_size``).  Lookups and fills are
    separate operations so that a per-access walk (the simulator's
    oracle, ``tests/cpu/oracle.py``) can interpose bypass / victim
    decisions between a miss and the corresponding fill.
    """

    def __init__(self, params: CacheParams, classify_misses: bool = False):
        self.params = params
        self.stats = CacheStats()
        self._offset_bits = params.block_size.bit_length() - 1
        self._num_sets = params.num_sets
        # All Table 1 configurations have power-of-two set counts, so
        # set selection is a mask; fall back to modulo otherwise.
        self._set_mask = (
            self._num_sets - 1
            if self._num_sets & (self._num_sets - 1) == 0
            else -1
        )
        self._assoc = params.assoc
        # One OrderedDict per set, keyed by line number; insertion order
        # is LRU order (least-recent first).
        self._sets: list[OrderedDict[int, CacheBlock]] = [
            OrderedDict() for _ in range(self._num_sets)
        ]
        self._classify = classify_misses
        if classify_misses:
            self._seen_lines: set[int] = set()
            # Fully-associative LRU shadow with the same total capacity.
            self._shadow: OrderedDict[int, None] = OrderedDict()
            self._shadow_capacity = params.num_blocks

    # ------------------------------------------------------------------
    # address helpers

    def line_of(self, addr: int) -> int:
        """Line number containing byte address ``addr``."""
        return addr >> self._offset_bits

    def _set_index(self, line: int) -> int:
        """Set number holding ``line`` (mask when sets are a power of two)."""
        mask = self._set_mask
        return line & mask if mask >= 0 else line % self._num_sets

    # ------------------------------------------------------------------
    # main operations

    def lookup(self, addr: int, is_write: bool = False) -> bool:
        """Access the cache; return True on hit.

        Updates LRU order and the dirty bit on a write hit.  On a miss
        the caller is expected to follow up with :meth:`fill` (unless the
        block is bypassed).  Statistics are updated here for both
        outcomes, including miss classification when enabled.
        """
        # line_of / _set_index inlined: this is the hottest call in the
        # simulator (every load, store and ifetch lands here).
        line = addr >> self._offset_bits
        mask = self._set_mask
        cache_set = self._sets[
            line & mask if mask >= 0 else line % self._num_sets
        ]
        stats = self.stats
        stats.accesses += 1
        block = cache_set.get(line)
        if block is not None:
            cache_set.move_to_end(line)
            if is_write:
                block.dirty = True
            stats.hits += 1
            if self._classify:
                self._touch_shadow(line)
            return True
        stats.misses += 1
        if self._classify:
            self._classify_miss(line)
        return False

    def probe(self, addr: int) -> bool:
        """Check presence without disturbing LRU state or statistics."""
        line = addr >> self._offset_bits
        return line in self._sets[self._set_index(line)]

    def fill(
        self, addr: int, dirty: bool = False
    ) -> Optional[CacheBlock]:
        """Install the line containing ``addr``; return the victim if any.

        If the line is already present this only refreshes its LRU
        position (and ORs in ``dirty``).  An eviction of a dirty line
        increments the writeback counter; the evicted block is returned
        so the caller can forward it to a victim cache or the next level.
        """
        line = addr >> self._offset_bits
        cache_set = self._sets[self._set_index(line)]
        existing = cache_set.get(line)
        if existing is not None:
            cache_set.move_to_end(line)
            existing.dirty = existing.dirty or dirty
            return None
        victim: Optional[CacheBlock] = None
        if len(cache_set) >= self._assoc:
            _, victim = cache_set.popitem(last=False)
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.writebacks += 1
        cache_set[line] = CacheBlock(line, dirty)
        return victim

    def victim_candidate(self, addr: int) -> Optional[int]:
        """Line that a fill for ``addr`` would evict right now, if any.

        Returns None when the set still has a free way or already holds
        the line.  Used by the Johnson & Hwu bypass logic, which compares
        the access frequency of the incoming line's macro-block against
        that of the line it would displace.
        """
        line = addr >> self._offset_bits
        cache_set = self._sets[self._set_index(line)]
        if line in cache_set or len(cache_set) < self._assoc:
            return None
        return next(iter(cache_set))

    def invalidate(self, addr: int) -> Optional[CacheBlock]:
        """Remove the line containing ``addr`` (e.g. for a victim swap)."""
        line = self.line_of(addr)
        return self._sets[self._set_index(line)].pop(line, None)

    def flush(self) -> int:
        """Empty the cache; return the number of dirty lines dropped."""
        dirty = 0
        for cache_set in self._sets:
            dirty += sum(1 for b in cache_set.values() if b.dirty)
            cache_set.clear()
        return dirty

    # ------------------------------------------------------------------
    # bulk replay (the simulator's replay phase)

    def bulk_replay(self, lines, writes=None, need_hits=True):
        """Replay a whole line-number access stream at once.

        Numpy-kernel equivalent of per-access ``lookup`` + miss
        ``fill`` against the live sets, which it leaves as those calls
        would.  See
        :func:`repro.memory.bulk.replay_cache` for the contract.
        """
        from repro.memory import bulk

        return bulk.replay_cache(self, lines, writes, need_hits)

    def bulk_replay_events(self, memory, lines, kinds):
        """Replay a chronological demand/writeback event stream (L2).

        See :func:`repro.memory.bulk.replay_l2`.
        """
        from repro.memory import bulk

        return bulk.replay_l2(self, memory, lines, kinds)

    def bulk_classify_shadow(self, lines, hit) -> None:
        """Three-C classification post-pass over a replayed stream.

        See :func:`repro.memory.bulk.replay_shadow`; no-op unless the
        cache was built with ``classify_misses=True``.
        """
        from repro.memory import bulk

        bulk.replay_shadow(self, lines, hit)

    # ------------------------------------------------------------------
    # introspection

    def resident_lines(self) -> set[int]:
        """Set of line numbers currently resident (for tests)."""
        resident: set[int] = set()
        for cache_set in self._sets:
            resident.update(cache_set.keys())
        return resident

    def occupancy(self) -> int:
        """Number of valid lines currently held."""
        return sum(len(s) for s in self._sets)

    def lru_order(self, set_index: int) -> list[int]:
        """Lines of one set from least- to most-recently used (tests)."""
        if not 0 <= set_index < self._num_sets:
            raise IndexError(f"set index {set_index} out of range")
        return list(self._sets[set_index].keys())

    # ------------------------------------------------------------------
    # three-C miss classification (shadow fully-associative cache)

    def _touch_shadow(self, line: int) -> None:
        shadow = self._shadow
        if line in shadow:
            shadow.move_to_end(line)
        else:
            shadow[line] = None
            if len(shadow) > self._shadow_capacity:
                shadow.popitem(last=False)

    def _classify_miss(self, line: int) -> None:
        if line not in self._seen_lines:
            self._seen_lines.add(line)
            self.stats.compulsory_misses += 1
        elif line in self._shadow:
            # The fully-associative cache would have hit: pure conflict.
            self.stats.conflict_misses += 1
        else:
            self.stats.capacity_misses += 1
        self._touch_shadow(line)
