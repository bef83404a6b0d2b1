"""Multi-level memory hierarchy with an optional hardware assist.

Implements the Table 1 machine: split L1 (2-cycle), unified L2
(10-cycle), 100-cycle DRAM behind an 8-byte bus, and 4-way TLBs.  An
optional :class:`repro.memory.assist.AssistInterface` from
:mod:`repro.hwopt` — a fill placer (cache bypassing) or a miss-stream
filter (victim caches, stream buffers) — is consulted only by the
accesses made while the gate is on: :meth:`MemoryHierarchy.bulk_classify`
takes each access's gate state as a mask, which is how the
compiler-inserted activate/deactivate instructions take effect.
"""

from __future__ import annotations

from typing import Optional

from repro.memory.assist import ASSIST_HIT_CYCLES, AssistInterface
from repro.memory.cache import SetAssociativeCache
from repro.memory.dram import MainMemory
from repro.memory.stats import HierarchySnapshot, clone_stats
from repro.memory.tlb import TLB
from repro.params import MachineParams

__all__ = [
    "MemoryHierarchy",
    "L1_HIT",
    "ASSIST_HIT",
    "L2_HIT",
    "L2_VICTIM_HIT",
    "DRAM",
    "TLB_MISS",
    "outcome_timing",
]

#: Outcome codes of :meth:`MemoryHierarchy.bulk_classify`: the low three
#: bits say where an access was served from, and ``TLB_MISS`` is set
#: when its TLB lookup missed.  An instruction fetch is an ``L1_HIT``,
#: ``L2_HIT`` or ``DRAM`` (the instruction side has no assist).
L1_HIT, ASSIST_HIT, L2_HIT, L2_VICTIM_HIT, DRAM = range(5)
TLB_MISS = 8


def outcome_timing(machine: MachineParams):
    """The timing of each outcome code on ``machine``.

    Returns ``(latency, refill, stall)``, three int64 tables indexed by
    code: a data access's latency in cycles and refill class (0 = no
    refill bus use, 1 = an L2-side refill, 2 = a DRAM refill, which
    occupies an MSHR), and a fetch's front-end stall beyond an L1I hit.
    Each adds up the walk its code names: the L1 latency, then an
    assist hit's extra cycle, an L2 hit, or an L2 miss served by the L2
    victim cache or by DRAM, plus the TLB's miss penalty when its bit
    is set.  This is the only place the simulator reads a latency: the
    replay that produces the codes never does.
    """
    import numpy as np

    l2 = machine.l2.latency
    dram = machine.mem_latency + machine.block_transfer_cycles(
        machine.l2.block_size
    )
    path = np.zeros(TLB_MISS, dtype=np.int64)
    path[ASSIST_HIT] = ASSIST_HIT_CYCLES
    path[L2_HIT] = l2
    path[L2_VICTIM_HIT] = l2 + ASSIST_HIT_CYCLES
    path[DRAM] = l2 + dram
    refill = np.zeros(TLB_MISS, dtype=np.int64)
    refill[[L2_HIT, L2_VICTIM_HIT]] = 1
    refill[DRAM] = 2
    latency = machine.l1d.latency + np.concatenate(
        (path, path + machine.dtlb.miss_penalty)
    )
    stall = np.concatenate((path, path + machine.itlb.miss_penalty))
    return latency, np.concatenate((refill, refill)), stall


class MemoryHierarchy:
    """L1D/L1I + unified L2 + DRAM, with optional hardware assist."""

    def __init__(
        self,
        machine: MachineParams,
        assist: Optional[AssistInterface] = None,
        classify_misses: bool = False,
    ):
        self.machine = machine
        self.assist = assist
        self.l1d = SetAssociativeCache(machine.l1d, classify_misses)
        self.l1i = SetAssociativeCache(machine.l1i)
        self.l2 = SetAssociativeCache(machine.l2, classify_misses)
        self.dtlb = TLB(machine.dtlb)
        self.itlb = TLB(machine.itlb)
        self.memory = MainMemory(machine)

    # ------------------------------------------------------------------
    # the replay

    def bulk_classify(
        self, addrs, writes, positions, fetch_pcs, fetch_positions,
        on=None, sample=False,
    ):
        """Resolve a run of accesses and fetches in bulk.

        Replays the data accesses ``(addrs[i], writes[i])`` and the
        instruction fetches ``fetch_pcs[j]``, interleaved in trace
        order.  ``positions`` and ``fetch_positions`` carry each one's
        trace record index, which is what serialises the two streams'
        shared L2 traffic: within one record the instruction fetch
        comes first, then the data demand access, then any L1D dirty
        writeback, so L2 events are replayed sorted by ``(record,
        phase)`` with exactly that phase order.

        ``on`` is the gate state of each data access (bool), or None
        when no access sees the assist (no assist, or the gate is off
        throughout).  An access with the gate on consults the assist;
        one with the gate off sees the plain hierarchy.  Instruction
        fetch never consults the assist.  The L1D half runs one of two
        ways, by the assist's shape (:mod:`repro.memory.assist`):

        * no assist, or a miss-stream filter (victim caches, stream
          buffers): L1D is replayed per set, as with no assist, since
          such an assist never changes which lines L1 holds or their
          LRU order.  Its ``filter_misses`` then runs over the misses
          in record order; the ones it serves skip L2, and the rest,
          with every writeback it leaves, go on as with no assist.
          The L2 victim cache runs the same way over L2's misses after
          the L2 replay.
        * a fill placer (bypassing): :meth:`_placed_l1`.

        L2, the TLBs and L1I stay one replay each.  All live
        structures — caches, assists, TLBs, shadow classifiers, DRAM
        counters — end in the state the per-access walk
        (``tests/cpu/oracle.py``) leaves, so a later call continues
        from them.

        Returns ``(data, fetch, counters)``:

        * ``data`` — per data access, its outcome code (int8): where it
          was served from (``L1_HIT``; ``ASSIST_HIT`` for a miss the
          assist served: L1 victim hit, bypass-buffer hit, stream-buffer
          hit; ``L2_HIT``; ``L2_VICTIM_HIT``; ``DRAM``), plus
          ``TLB_MISS`` if the DTLB missed;
        * ``fetch`` — per fetch, its outcome code (int8) likewise, with
          the ITLB;
        * ``counters`` — None unless ``sample``: then, per field of
          :meth:`sample_counters` and in its order, the field's
          increments keyed by record position
          (:func:`repro.memory.bulk.counter_steps`), so interval samples
          can be read at any record boundary.  The two occupancies
          count fills into a free way (the L1D replays report evicted
          = -1) and the assist's insertions and extractions.

        No latency is read here: :func:`outcome_timing` maps the codes
        to cycles, so the same replay can be timed on any machine that
        differs from this one only in its timing fields.
        """
        import numpy as np

        from repro.memory.bulk import counter_steps, filter_victims

        l1d, l1i, l2 = self.l1d, self.l1i, self.l2
        assist = self.assist if on is not None and on.any() else None
        victims = assist.victim_caches if assist else None

        dtlb_miss = self.dtlb.bulk_lookup(addrs >> self.dtlb._page_shift)
        d_lines = addrs >> l1d._offset_bits
        itlb_miss = self.itlb.bulk_lookup(
            fetch_pcs >> self.itlb._page_shift
        )
        i_lines = fetch_pcs >> l1i._offset_bits
        _, im_pos, im_lines, _, _ = l1i.bulk_replay(
            i_lines, None, need_hits=False
        )

        # Per data access: the L1D misses that go to L2 (dm_*), the L1D
        # writebacks (wb_*), and the misses the assist served in place
        # of L2 (served_pos).  When sampling, the accesses that miss
        # L1D, fill a free way in it, change the assist's occupancy (by
        # occ_delta), hit in it or bypass L1.
        served_pos = None
        empty = np.empty(0, dtype=np.int64)
        occ_pos = bypass_pos = empty
        occ_delta = None
        if assist is not None and assist.places_fills:
            (
                d_miss, dm_pos, served_pos, wb_pos, wb_lines, l1_free,
                bypass_pos, occ_delta,
            ) = self._placed_l1(assist, d_lines, addrs, writes, on, sample)
            dm_lines = d_lines[dm_pos]
            if l1d._classify:
                d_hit = np.ones(addrs.size, dtype=bool)
                d_hit[d_miss] = False
            l1_miss = occ_pos = d_miss
        else:
            d_hit, dm_pos, dm_lines, evicted, evicted_dirty = l1d.bulk_replay(
                d_lines, writes, need_hits=l1d._classify
            )
            if sample:
                l1_miss = dm_pos
                l1_free = dm_pos[evicted < 0]
            if assist is None:
                # Every L1D miss goes to L2 and every dirty eviction is
                # written back; L1I evictions are never dirty.
                wb_pos = dm_pos[evicted_dirty]
                wb_lines = evicted[evicted_dirty]
            else:
                chrono = np.argsort(dm_pos)
                dm_pos, dm_lines = dm_pos[chrono], dm_lines[chrono]
                served, wb_idx, wb_lines, occ_delta = assist.filter_misses(
                    l1d, dm_lines, evicted[chrono], evicted_dirty[chrono],
                    on, dm_pos,
                )
                wb_pos, occ_pos = dm_pos[wb_idx], dm_pos
                served_pos = dm_pos[served]
                dm_pos, dm_lines = dm_pos[~served], dm_lines[~served]

        # Merged L2 event stream in (record, phase) order.
        shift_d = l2._offset_bits - l1d._offset_bits
        shift_i = l2._offset_bits - l1i._offset_bits
        n_im, n_dm = im_pos.size, dm_pos.size
        ev_pos = np.concatenate(
            (fetch_positions[im_pos], positions[dm_pos], positions[wb_pos])
        )
        ev_seq = np.concatenate(
            (
                np.zeros(n_im, dtype=np.int8),
                np.ones(n_dm, dtype=np.int8),
                np.full(wb_pos.size, 2, dtype=np.int8),
            )
        )
        ev_lines = np.concatenate(
            (im_lines >> shift_i, dm_lines >> shift_d, wb_lines >> shift_d)
        )
        # Stable (record, phase) order via one radix argsort of a
        # combined integer key — phase occupies the low two bits.
        # Faster than np.lexsort's two keyed passes on these sizes.
        ev_key = (ev_pos << 2) | ev_seq
        if ev_key.size and int(ev_pos.max()) < 1 << 30:
            ev_key = ev_key.astype(np.int32)
        order = np.argsort(ev_key, kind="stable")
        ev_kind_sorted = ev_seq[order] == 2
        ev_lines_sorted = ev_lines[order]
        (
            ev_hit_sorted, l2_miss, l2_evicted, l2_evicted_dirty, absent,
        ) = l2.bulk_replay_events(
            self.memory, ev_lines_sorted, ev_kind_sorted
        )
        demand_sorted = ~ev_kind_sorted
        # Per sorted event (writeback entries are padding): served from
        # DRAM, and the source code — L2 hit, L2 victim hit (no DRAM
        # read) or DRAM.
        from_dram = ~ev_hit_sorted
        source = np.where(from_dram, np.int8(DRAM), np.int8(L2_HIT))
        if victims is not None:
            chrono = np.argsort(l2_miss)
            l2_miss = l2_miss[chrono]
            # Only data demand misses made with the gate on probe the
            # L2 victim cache: fetches and writebacks never do.
            ev_on = np.zeros(ev_seq.size, dtype=bool)
            ev_on[n_im : n_im + n_dm] = on[dm_pos]
            v2_hit, spilled, _, unprobed, v2_grow = filter_victims(
                victims[1], l2, ev_lines_sorted[l2_miss],
                l2_evicted[chrono], l2_evicted_dirty[chrono],
                probe=ev_on[order][l2_miss],
            )
            # replay_l2 counted DRAM traffic as if no assist were
            # attached; swap in the victim-filtered counts.
            self.memory.reads -= int(np.count_nonzero(v2_hit))
            self.memory.writes += (
                spilled.size
                + unprobed.size
                - int(np.count_nonzero(l2_evicted_dirty))
            )
            v2_idx = l2_miss[v2_hit]
            from_dram[v2_idx] = False
            source[v2_idx] = L2_VICTIM_HIT

        if l1d._classify:
            l1d.bulk_classify_shadow(d_lines, d_hit)
        if l2._classify:
            l2.bulk_classify_shadow(
                ev_lines_sorted[demand_sorted], ev_hit_sorted[demand_sorted]
            )

        tlb_miss = np.int8(TLB_MISS)
        data = dtlb_miss * tlb_miss
        if served_pos is not None:
            data[served_pos] |= ASSIST_HIT
        # Back from (record, phase) order to the concatenation order:
        # fetch misses, then data misses, then writebacks.
        ev_source = np.empty_like(source)
        ev_source[order] = source
        data[dm_pos] |= ev_source[n_im : n_im + n_dm]
        fetch = itlb_miss * tlb_miss
        fetch[im_pos] |= ev_source[:n_im]

        if not sample:
            return data, fetch, None

        # Interval sampling: each sample_counters field's increments by
        # record position; L2-side ones take their event's record.
        ev_rec = ev_pos[order]
        occ_rec = positions[occ_pos]
        hit_rec = empty if served_pos is None else positions[served_pos]
        # DRAM traffic per sorted L2 event: a demand read, a writeback
        # that missed L2, and a dirty line the event's fill pushed out
        # of L2 (or of its victim cache, or past it on a fetch miss).
        traffic = from_dram.astype(np.int64)
        traffic[absent] += 1
        if victims is None:
            traffic[l2_miss[l2_evicted_dirty]] += 1
        else:
            traffic[l2_miss[spilled]] += 1
            traffic[l2_miss[unprobed]] += 1
            v2_delta = -v2_hit.astype(np.int64)
            v2_delta[v2_grow] += 1
            occ_rec = np.concatenate((occ_rec, ev_rec[l2_miss]))
            occ_delta = np.concatenate((occ_delta, v2_delta))
            hit_rec = np.concatenate((hit_rec, ev_rec[v2_idx]))
        counters = [
            counter_steps(positions),
            counter_steps(positions[l1_miss]),
            counter_steps(ev_rec[demand_sorted]),
            counter_steps(ev_rec[demand_sorted & ~ev_hit_sorted]),
            counter_steps(positions[l1_free]),
            counter_steps(occ_rec, occ_delta),
            counter_steps(ev_rec, traffic),
            counter_steps(hit_rec),
            counter_steps(positions[bypass_pos]),
        ]
        return data, fetch, counters

    def _placed_l1(self, assist, d_lines, addrs, writes, on, sample):
        """The L1D half of a replay whose assist is a fill placer.

        Over each range of accesses with the gate on, the assist's
        ``filter_l1`` runs the L1D lookups and fills in record order; a
        range with the gate off is a plain L1D replay per set, as with
        no assist.  Returns int64 columns of access indices, each in
        any order: the L1 misses, the misses that go to L2, the misses
        the assist served, the writebacks (with their lines), and for
        interval sampling the misses that fill a free way, the bypassed
        misses and each miss's change to the assist's occupancy
        (aligned with the misses).
        """
        import numpy as np

        empty = np.empty(0, dtype=np.int64)
        bounds = [0, *(np.flatnonzero(on[1:] != on[:-1]) + 1).tolist()]
        parts = []
        for lo, hi in zip(bounds, bounds[1:] + [on.size]):
            if on[lo]:
                miss, demand, served, wb_pos, wb_lines, tracked = (
                    assist.filter_l1(
                        self.l1d, addrs[lo:hi], writes[lo:hi], track=sample
                    )
                )
                free, bypassed, occupancy = tracked or (empty, empty, [0])
                delta = np.diff(occupancy)
            else:
                _, miss, _, evicted, dirty = self.l1d.bulk_replay(
                    d_lines[lo:hi], writes[lo:hi], need_hits=False
                )
                demand, served, bypassed = miss, empty, empty
                wb_pos, wb_lines = miss[dirty], evicted[dirty]
                free = miss[evicted < 0]
                delta = np.zeros(miss.size, dtype=np.int64)
            parts.append(
                (
                    miss + lo, demand + lo, served + lo, wb_pos + lo,
                    wb_lines, free + lo, bypassed + lo, delta,
                )
            )
        return [np.concatenate(column) for column in zip(*parts)]

    # ------------------------------------------------------------------
    # statistics

    def sample_counters(self) -> tuple[int, ...]:
        """Cheap cumulative-counter row for telemetry interval sampling.

        Field order matches :data:`repro.telemetry.series.SAMPLE_FIELDS`
        after its ``(cycle, instructions)`` prefix and before the
        trailing gate flag.  Reads counters only — calling this cannot
        perturb simulation state.
        """
        l1d = self.l1d.stats
        l2 = self.l2.stats
        assist = self.assist
        return (
            l1d.accesses,
            l1d.misses,
            l2.accesses,
            l2.misses,
            self.l1d.occupancy(),
            assist.occupancy if assist else 0,
            self.memory.reads + self.memory.writes,
            assist.assist_hits if assist else 0,
            assist.bypassed_fills if assist else 0,
        )

    def snapshot(self) -> HierarchySnapshot:
        """Copy all counters into an immutable record."""
        assist = self.assist
        return HierarchySnapshot(
            l1d=clone_stats(self.l1d.stats),
            l1i=clone_stats(self.l1i.stats),
            l2=clone_stats(self.l2.stats),
            dtlb_misses=self.dtlb.misses,
            itlb_misses=self.itlb.misses,
            mem_reads=self.memory.reads,
            mem_writes=self.memory.writes,
            assist_hits=assist.assist_hits if assist else 0,
            bypassed_fills=assist.bypassed_fills if assist else 0,
            prefetched_blocks=assist.prefetched_blocks if assist else 0,
        )
