"""Spatial Locality Detection Table (Johnson, Merten & Hwu, MICRO'97 [9]).

A small fully-associative table tracks the cache lines touched most
recently.  Each entry records which words of the line were referenced.
When an entry is displaced, the detector judges whether the line showed
spatial locality (several distinct words touched) and updates a
per-macro-block *spatial counter* — incremented on spatial evidence,
decremented otherwise, saturating within the configured bounds.

The cache-bypass controller consults :meth:`expects_spatial`:
macro-blocks with a counter at or above the threshold are kept
cacheable even when their access frequency alone would argue for
bypassing, and a streaming victim is not protected.
"""

from __future__ import annotations

from repro.params import BypassParams

__all__ = ["SpatialLocalityDetector"]


class SpatialLocalityDetector:
    """SLDT plus per-macro-block saturating spatial counters."""

    WORD_BYTES = 8

    def __init__(self, params: BypassParams, line_size: int = 32):
        if line_size <= self.WORD_BYTES:
            raise ValueError("line_size must exceed the word size")
        self.params = params
        self._line_shift = line_size.bit_length() - 1
        self._word_mask = (1 << (self._line_shift - 3)) - 1
        self._mb_shift = params.macro_block_size.bit_length() - 1
        self._capacity = params.sldt_entries
        # line number -> bitmask of the words touched; insertion order is
        # LRU order (pop and reinsert moves an entry to MRU)
        self._table: dict[int, int] = {}
        # macro-block number -> saturating spatial counter
        self._spatial: dict[int, int] = {}
        self.spatial_promotions = 0
        self.spatial_demotions = 0

    def observe(self, addr: int) -> None:
        """Record one access; may retire the LRU entry and judge it."""
        table = self._table
        line = addr >> self._line_shift
        words = table.pop(line, 0)  # never 0 for a live entry
        if not words and len(table) >= self._capacity:
            old_line = next(iter(table))
            self._judge(old_line, table.pop(old_line))
        table[line] = words | 1 << ((addr >> 3) & self._word_mask)

    def spatial_quality(self, addr: int) -> int:
        """Spatial counter of ``addr``'s macro-block (0 when unknown)."""
        return self._spatial.get(addr >> self._mb_shift, 0)

    def expects_spatial(self, addr: int) -> bool:
        """True when the macro-block has shown enough spatial locality."""
        spatial = self._spatial.get(addr >> self._mb_shift, 0)
        return spatial >= self.params.spatial_threshold

    def _judge(self, line: int, words: int) -> None:
        """Classify a retiring SLDT entry and update the spatial counter."""
        mb = (line << self._line_shift) >> self._mb_shift
        counter = self._spatial.get(mb, 0)
        if words & (words - 1):  # two or more words touched
            if counter < self.params.spatial_counter_max:
                counter += 1
            self.spatial_promotions += 1
        else:
            if counter > self.params.spatial_counter_min:
                counter -= 1
            self.spatial_demotions += 1
        self._spatial[mb] = counter

    def flush_judgements(self) -> None:
        """Retire every live entry (end-of-run bookkeeping, tests)."""
        table = self._table
        while table:
            line = next(iter(table))
            self._judge(line, table.pop(line))
