"""Spatial Locality Detection Table (Johnson, Merten & Hwu, MICRO'97 [9]).

A small fully-associative table tracks the cache lines touched most
recently.  Each entry records which words of the line were referenced.
When an entry is displaced, the detector judges whether the line showed
spatial locality (several distinct words touched) and updates a
per-macro-block *spatial counter* — incremented on spatial evidence,
decremented otherwise, saturating within the configured bounds.

The cache-bypass controller treats a macro-block whose counter is at
or above the threshold as spatial: such blocks are kept cacheable even
when their access frequency alone would argue for bypassing, and a
streaming victim is not protected.  This class holds the detector's
state; the bypass assist's record-order L1 filter
(:meth:`repro.hwopt.controller.CacheBypassAssist.filter_l1`) updates
and reads it inline.
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
