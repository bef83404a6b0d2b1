"""Memory Access Table — per-macro-block access-frequency tracking.

Johnson & Hwu (ISCA'97 [8]) divide memory into *macro-blocks* (1 KB in
the paper's setup) and keep a table of saturating access counters, one
per macro-block, in a direct-mapped tagged structure (4096 entries).
On an L1 miss the controller compares the counter of the missing line's
macro-block with the counter of the macro-block owning the line that
would be displaced; the incoming line is bypassed when it is the less
frequently used of the two.

Counters age (halve) every ``age_interval`` recorded accesses.  Aging is
what makes the table's history *stale* across program phases — the exact
effect the paper's selective ON/OFF scheme exploits: after a phase
change, decisions are wrong "until this information is replaced"
(Section 5.1).

This class holds the table's state.  The bypass assist's record-order
L1 filter (:meth:`repro.hwopt.controller.CacheBypassAssist.filter_l1`)
counts, ages and reads it inline.
"""

from __future__ import annotations

from repro.params import BypassParams

__all__ = ["MemoryAccessTable"]


class MemoryAccessTable:
    """Direct-mapped, tagged table of saturating macro-block counters."""

    def __init__(
        self,
        params: BypassParams,
        counter_max: int = 255,
        age_interval: int = 8192,
    ):
        if counter_max <= 0 or age_interval <= 0:
            raise ValueError("counter_max and age_interval must be positive")
        self.params = params
        self.counter_max = counter_max
        self.age_interval = age_interval
        self._mb_shift = params.macro_block_size.bit_length() - 1
        self._entries = params.mat_entries
        # Parallel arrays: tag (macro-block number) and counter per slot;
        # tag -1 marks an empty slot.
        self._tags = [-1] * self._entries
        self._counters = [0] * self._entries
        self._since_aging = 0
        self.replacements = 0
