"""Hook interface between the memory hierarchy and hardware assists.

The paper's hardware locality mechanisms (cache bypassing via MAT/SLDT,
victim caches — Section 3.1) observe L1 traffic and interpose on misses
and evictions.  :class:`repro.memory.hierarchy.MemoryHierarchy` calls the
methods below at the corresponding points; the concrete mechanisms live
in :mod:`repro.hwopt` and implement this interface.

The ``enabled`` flag is the paper's ON/OFF state: the compiler-inserted
activate/deactivate instructions toggle it at run time
(:class:`repro.hwopt.gate.HardwareGate`).  The simulator replays each
data access under the gate state in effect at its record, and for an
access made while it is off the hierarchy "simply ignores the
mechanism" (Section 4.1) — no probes, no updates, no insertions.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from repro.memory.block import CacheBlock
from repro.memory.victim import VictimCache

__all__ = [
    "ASSIST_HIT_CYCLES",
    "FillDecision",
    "AssistInterface",
    "ServeResult",
]


@dataclass(frozen=True)
class FillDecision:
    """What to do with a line arriving from the next level.

    Attributes:
        cache_in_l1: Install in L1 normally (True) or divert to the
            assist's own buffer (False — a bypassed fill).
    """

    cache_in_l1: bool = True


#: ``lookup_alternate`` outcome: (extra latency in cycles, block to
#: promote into L1 — None when the data is served in place, as from the
#: bypass buffer).
ServeResult = tuple[int, Optional[CacheBlock]]

#: The extra latency of every assist hit beyond the level it stands in
#: for: an L1-side hit (victim cache, bypass buffer, stream buffer) over
#: an L1 hit, and an L2 victim hit over an L2 hit.  The bulk replay
#: records only that an access was assist-served, so every
#: ``lookup_alternate`` hit must cost exactly this.
ASSIST_HIT_CYCLES = 1


class AssistInterface(abc.ABC):
    """Run-time hardware locality mechanism attached to the L1/L2 seam."""

    #: ON/OFF state toggled by the activate/deactivate instructions.
    enabled: bool = True

    @abc.abstractmethod
    def note_access(self, addr: int, is_write: bool, l1_hit: bool) -> None:
        """Observe every L1 data access (hit or miss)."""

    @abc.abstractmethod
    def lookup_alternate(
        self, addr: int, line: int, is_write: bool = False
    ) -> Optional[ServeResult]:
        """Probe the assist's own storage on an L1 miss.

        On a hit returns ``(extra_latency, promote_block)``: a victim
        cache returns the block for promotion into L1 (a swap), while the
        bypass buffer serves the data in place and returns ``None`` for
        the block.  Returns ``None`` on an assist miss.  Both the byte
        address and the L1 line number are supplied because the bypass
        buffer tracks double words, not lines.
        """

    @abc.abstractmethod
    def fill_decision(
        self, addr: int, victim_line: Optional[int]
    ) -> FillDecision:
        """Decide whether a line fetched after a miss is installed in L1.

        ``victim_line`` is the L1 line that a normal fill would displace
        (None if the set has a free way) — the Johnson & Hwu rule bypasses
        the incoming line when its macro-block is accessed less frequently
        than the victim's.
        """

    @abc.abstractmethod
    def accept_bypassed(
        self, addr: int, block: CacheBlock
    ) -> Optional[CacheBlock]:
        """Store a line the fill decision diverted away from L1.

        Returns any block displaced from assist storage (to be written
        back if dirty).
        """

    @abc.abstractmethod
    def on_l1_evict(self, block: CacheBlock) -> Optional[CacheBlock]:
        """Observe an L1 eviction; may capture the block (victim cache).

        Returns a displaced block, or the original block if the assist
        does not capture evictions (the hierarchy then writes it back as
        usual).
        """

    @abc.abstractmethod
    def lookup_l2_alternate(self, line: int) -> Optional[CacheBlock]:
        """Probe L2-side assist storage (L2 victim cache) on an L2 miss."""

    @abc.abstractmethod
    def on_l2_evict(self, block: CacheBlock) -> Optional[CacheBlock]:
        """Observe an L2 eviction (L2 victim cache capture)."""

    @property
    def victim_caches(self) -> Optional[tuple[VictimCache, VictimCache]]:
        """The ``(L1, L2)`` victim caches, if that is all the assist is.

        Such an assist never changes which lines L1 or L2 hold, or their
        LRU order, only where a miss is served from, so its runs are
        replayed per set with the victim caches as miss-stream filters
        (see :meth:`repro.memory.hierarchy.MemoryHierarchy.bulk_classify`).
        None (the default) replays the L1 side in record order with the
        assist's hooks; such an assist must leave evictions and L2 to
        the hierarchy (``on_l1_evict``/``on_l2_evict`` return the block,
        ``lookup_l2_alternate`` returns None).
        """
        return None

    def filter_l1(self, cache, addrs, writes, track: bool = False):
        """Run L1D accesses made with the gate on, in record order.

        For an assist without victim caches:
        :meth:`repro.memory.hierarchy.MemoryHierarchy.bulk_classify`
        calls this on ``cache`` (the live L1D) for each range of
        accesses with the gate on, and replays L2 in bulk from what it
        returns.  The default is :func:`repro.memory.bulk.filter_assist`,
        which drives this assist's hooks; an override must return the
        same tuple and leave the same state behind.
        """
        from repro.memory.bulk import filter_assist

        return filter_assist(self, cache, addrs, writes, track=track)

    # ------------------------------------------------------------------
    # aggregate counters surfaced into HierarchySnapshot

    @property
    @abc.abstractmethod
    def assist_hits(self) -> int:
        """Demand accesses satisfied from assist storage."""

    @property
    @abc.abstractmethod
    def bypassed_fills(self) -> int:
        """Fills diverted away from L1."""

    @property
    def prefetched_blocks(self) -> int:
        """Lines fetched ahead of demand (stream buffers; 0 by default)."""
        return 0

    @property
    def occupancy(self) -> int:
        """Entries currently held in assist storage (telemetry gauge).

        Concrete mechanisms override this with their buffer / victim
        cache fill level; the default suits assists with no storage.
        """
        return 0
