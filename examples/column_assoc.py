"""Column-associative cache (Agarwal & Pudar, ISCA 1993).

Another extension from the paper's Section 1.1 menu of hardware
techniques: a direct-mapped cache that, on a primary miss, probes a
second location obtained by flipping the top index bit (the *rehash*
location).  A rehash hit swaps the two lines so the more recent one
sits in its primary slot.  Offers much of 2-way associativity's
conflict-miss reduction at direct-mapped access time.

Implements the same operational surface as
:class:`repro.memory.cache.SetAssociativeCache` (lookup/fill/probe and
a stats block), so ``hardware_mechanisms.py`` replays it beside
direct-mapped and set-associative caches.  Nothing in the ``repro``
package uses it, so it lives beside that example.
"""

from __future__ import annotations

from typing import Optional

from repro.memory.block import CacheBlock
from repro.memory.stats import CacheStats
from repro.params import CacheParams

__all__ = ["ColumnAssociativeCache"]


class ColumnAssociativeCache:
    """Direct-mapped cache with a rehash second probe."""

    def __init__(self, params: CacheParams):
        if params.assoc != 1:
            raise ValueError(
                "a column-associative cache is direct-mapped; build it "
                "with assoc=1"
            )
        if params.num_sets < 2:
            raise ValueError("need at least two sets to rehash")
        self.params = params
        self.stats = CacheStats()
        #: Rehash hits (second-probe hits) — the organization's win.
        self.rehash_hits = 0
        self._offset_bits = params.block_size.bit_length() - 1
        self._num_sets = params.num_sets
        self._flip = params.num_sets >> 1  # top index bit
        self._slots: list[Optional[CacheBlock]] = [None] * params.num_sets

    def line_of(self, addr: int) -> int:
        return addr >> self._offset_bits

    def _index(self, line: int) -> int:
        return line % self._num_sets

    def lookup(self, addr: int, is_write: bool = False) -> bool:
        """Two-probe lookup; a rehash hit swaps the lines."""
        line = self.line_of(addr)
        index = line % self._num_sets
        self.stats.accesses += 1
        block = self._slots[index]
        if block is not None and block.block_addr == line:
            if is_write:
                block.dirty = True
            self.stats.hits += 1
            return True
        rehash_index = index ^ self._flip
        rehash_block = self._slots[rehash_index]
        if rehash_block is not None and rehash_block.block_addr == line:
            # Rehash hit: swap so the hot line claims its primary slot.
            self._slots[index], self._slots[rehash_index] = (
                rehash_block,
                block,
            )
            if is_write:
                rehash_block.dirty = True
            self.stats.hits += 1
            self.rehash_hits += 1
            return True
        self.stats.misses += 1
        return False

    def probe(self, addr: int) -> bool:
        line = self.line_of(addr)
        index = line % self._num_sets
        for slot in (index, index ^ self._flip):
            block = self._slots[slot]
            if block is not None and block.block_addr == line:
                return True
        return False

    def fill(self, addr: int, dirty: bool = False) -> Optional[CacheBlock]:
        """Install in the primary slot, displacing its occupant to the
        rehash slot (whose occupant is evicted)."""
        line = self.line_of(addr)
        index = line % self._num_sets
        if self.probe(addr):
            # Refresh dirty state only; placement already correct enough.
            for slot in (index, index ^ self._flip):
                block = self._slots[slot]
                if block is not None and block.block_addr == line:
                    block.dirty = block.dirty or dirty
            return None
        rehash_index = index ^ self._flip
        evicted = self._slots[rehash_index]
        self._slots[rehash_index] = self._slots[index]
        self._slots[index] = CacheBlock(line, dirty)
        if evicted is not None:
            self.stats.evictions += 1
            if evicted.dirty:
                self.stats.writebacks += 1
        return evicted

    def occupancy(self) -> int:
        return sum(1 for slot in self._slots if slot is not None)

    def resident_lines(self) -> set[int]:
        return {
            slot.block_addr for slot in self._slots if slot is not None
        }
