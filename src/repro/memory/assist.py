"""The two shapes of a hardware assist at the L1/L2 seam.

The paper's run-time mechanisms (cache bypassing via MAT/SLDT, victim
caches — Section 3.1) and the stream-buffer extension either *place
fills* or *serve misses*, and the hierarchy runs each shape its own
way (:meth:`repro.memory.hierarchy.MemoryHierarchy.bulk_classify`):

* A **fill placer** (bypassing) decides on each L1 miss whether the
  line is installed in L1, so L1 no longer factorises over sets.  It
  brings its own :meth:`AssistInterface.filter_l1`, a record-order
  loop over the L1D accesses of each range with the gate on.
* A **miss-stream filter** (victim caches, stream buffers) never
  changes which lines L1 holds or their LRU order, only where a miss
  is served from: a hit installs the line with the same fill, and the
  same dirty bit, that a next-level fill would.  L1D is replayed per
  set as with no assist, and its :meth:`AssistInterface.filter_misses`
  runs over the misses in record order.

A new mechanism brings one of the two, plus the per-access hooks that
the simulator's oracle (``tests/cpu/oracle.py``) drives as its
reference.

The ``enabled`` flag is the paper's ON/OFF state: the compiler-inserted
activate/deactivate instructions toggle it at run time
(:class:`repro.hwopt.gate.HardwareGate`).  The simulator replays each
data access under the gate state in effect at its record, and for an
access made while it is off the hierarchy "simply ignores the
mechanism" (Section 4.1) — no probes, no updates, no insertions.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.memory.victim import VictimCache

__all__ = ["ASSIST_HIT_CYCLES", "AssistInterface"]

#: The extra latency of every assist hit beyond the level it stands in
#: for: an L1-side hit (victim cache, bypass buffer, stream buffer) over
#: an L1 hit, and an L2 victim hit over an L2 hit.  The bulk replay
#: records only that an access was assist-served, so every assist hit
#: costs exactly this.
ASSIST_HIT_CYCLES = 1


class AssistInterface(abc.ABC):
    """Run-time hardware locality mechanism attached to the L1/L2 seam."""

    #: ON/OFF state toggled by the activate/deactivate instructions.
    enabled: bool = True

    #: A fill placer (True) runs :meth:`filter_l1`; a miss-stream
    #: filter (False) runs :meth:`filter_misses`.
    places_fills: bool = False

    def filter_l1(self, cache, addrs, writes, track: bool = False):
        """Fill placer: run L1D accesses made with the gate on, in order.

        :meth:`repro.memory.hierarchy.MemoryHierarchy.bulk_classify`
        calls this on ``cache`` (the live L1D) for each range of
        accesses with the gate on, and replays L2 in bulk from what it
        returns, so the assist must leave evictions and L2 to the
        hierarchy.  Mutates the live L1 sets and statistics and the
        assist.  Returns ``(miss, demand, served, wb_idx, wb_lines,
        tracked)`` as int64 arrays of access indices, each in access
        order: the L1 misses; the misses that go to the next level;
        the misses the assist served; and the writebacks (L1 dirty
        evictions and dirty lines the assist displaced) with the
        access that caused each.  ``tracked`` is None unless ``track``
        (interval sampling) asks for ``(free_fills, bypassed,
        occupancy)``: the misses whose L1 fill took a free way, the
        bypassed misses, and the assist's ``occupancy`` before each
        miss and after the last, whose differences are each miss's
        change to it.
        """
        raise NotImplementedError

    def filter_misses(self, cache, lines, evicted, evicted_dirty, on, pos):
        """Miss-stream filter: serve the L1D misses of a replay in order.

        The arguments are per miss of the per-set replay of ``cache``
        (the live L1D), in record order: the missing ``lines``, the
        line each miss's fill evicted (-1 if none) with its
        written-while-resident bit, and ``pos``, each miss's index in
        ``on``, the gate state of every data access of the replay.
        Only a miss whose gate is on probes the assist.  Mutates the
        assist (and the dirty bits and writeback count of ``cache``
        where it promotes a dirty line).  Returns ``(served, wb_idx,
        wb_lines, occupancy)``: a bool mask of the misses the assist
        served (they skip L2); the misses that write a dirty line back
        to L2, and those lines; and each miss's change to the assist's
        ``occupancy`` (int64).
        """
        raise NotImplementedError

    @property
    def victim_caches(self) -> Optional[tuple[VictimCache, VictimCache]]:
        """The ``(L1, L2)`` victim caches, if the assist has them.

        The L2 victim cache runs as a miss-stream filter over L2's
        misses after the L2 replay.  None (the default) leaves L2 as
        with no assist.
        """
        return None

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
