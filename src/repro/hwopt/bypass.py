"""Bypass buffer — the small cache that receives non-cached fetches.

Per the paper's setup (Section 4.1) this is a fully-associative LRU
buffer of 64 *double words* with 8-byte granularity: a bypassed fetch
brings in only the double word demanded, not the whole line.  That makes
the buffer cheap but gives it a very small reach — which is exactly why
bypassing spatially-regular data is a bad idea and why the paper's
selective scheme turns the mechanism off in compiler-optimized regions.
The bypass assist's record-order L1 filter
(:meth:`repro.hwopt.controller.CacheBypassAssist.filter_l1`) probes and
fills it inline.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["BypassBuffer"]


class BypassBuffer:
    """Fully-associative LRU buffer of double words (8-byte entries)."""

    WORD_SHIFT = 3  # 8-byte double words

    def __init__(self, words: int):
        if words <= 0:
            raise ValueError("buffer needs at least one word")
        self.capacity = words
        # double-word number -> dirty flag
        self._words: OrderedDict[int, bool] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.insertions = 0

    def __len__(self) -> int:
        return len(self._words)
