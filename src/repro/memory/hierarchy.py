"""Multi-level memory hierarchy with hardware-assist hook points.

Implements the Table 1 machine: split L1 (2-cycle), unified L2
(10-cycle), 100-cycle DRAM behind an 8-byte bus, and 4-way TLBs.  An
optional :class:`repro.memory.assist.AssistInterface` (cache bypassing
or victim caching, from :mod:`repro.hwopt`) is consulted on L1 misses,
fills and evictions — but only while its ``enabled`` flag is on, which
is how the compiler-inserted activate/deactivate instructions take
effect.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.memory.assist import AssistInterface
from repro.memory.block import CacheBlock
from repro.memory.cache import SetAssociativeCache
from repro.memory.dram import MainMemory
from repro.memory.stats import HierarchySnapshot, clone_stats
from repro.memory.tlb import TLB
from repro.params import MachineParams

__all__ = ["AccessResult", "MemoryHierarchy"]


class AccessResult(NamedTuple):
    """Outcome of a single data access."""

    latency: int
    l1_hit: bool
    served_by: str  # "l1" | "assist" | "l2" | "l2assist" | "mem"


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
        # Provenance of the most recent L2-path access.  Must be an
        # instance attribute: hierarchies run side by side in one
        # process (parallel sweeps, tests), and a class attribute would
        # leak the last source across instances.
        self._last_source = "mem"
        # Latency constants hoisted out of the per-access hot path.
        self._dtlb_penalty = machine.dtlb.miss_penalty
        self._itlb_penalty = machine.itlb.miss_penalty
        self._l1d_latency = machine.l1d.latency
        self._l1i_latency = machine.l1i.latency

    # ------------------------------------------------------------------
    # public access paths

    def data_access(self, addr: int, is_write: bool = False) -> AccessResult:
        """Perform one load/store; return its latency and provenance."""
        assist = self.assist if (self.assist and self.assist.enabled) else None
        latency = self._l1d_latency
        if not self.dtlb.lookup(addr):
            latency += self._dtlb_penalty
        if self.l1d.lookup(addr, is_write):
            if assist:
                assist.note_access(addr, is_write, l1_hit=True)
            return AccessResult(latency, True, "l1")
        if assist:
            assist.note_access(addr, is_write, l1_hit=False)
            line = self.l1d.line_of(addr)
            served = assist.lookup_alternate(addr, line, is_write)
            if served is not None:
                extra_latency, promoted = served
                latency += extra_latency
                if promoted is not None:
                    self._install_l1(addr, promoted.dirty or is_write, assist)
                return AccessResult(latency, False, "assist")
        latency += self._fetch_into_l1(addr, is_write, assist)
        return AccessResult(latency, False, self._last_source)

    def inst_fetch(self, addr: int) -> int:
        """Fetch an instruction; return the latency in cycles.

        The instruction path has no hardware assist in the paper (the
        mechanisms target the data cache).
        """
        latency = self._l1i_latency
        if not self.itlb.lookup(addr):
            latency += self._itlb_penalty
        if self.l1i.lookup(addr):
            return latency
        latency += self._access_l2(addr, assist=None)
        evicted = self.l1i.fill(addr)
        if evicted is not None and evicted.dirty:
            self._writeback_to_l2(evicted, self.machine.l1i.block_size)
        return latency

    # ------------------------------------------------------------------
    # bulk classification (vectorized simulator path)

    def bulk_classify(
        self, addrs, writes, positions, fetch_pcs, fetch_positions,
        sample=False,
    ):
        """Resolve a span of accesses and fetches in bulk.

        Numpy-kernel equivalent of calling :meth:`data_access` for each
        ``(addrs[i], writes[i])`` and :meth:`inst_fetch` for each
        ``fetch_pcs[j]``, interleaved in trace order.  ``positions`` and
        ``fetch_positions`` carry each access's trace record index,
        which is what serialises the two streams' shared L2 traffic:
        within one record the scalar loop performs the instruction
        fetch, then the data demand access, then any L1D dirty
        writeback, so L2 events are replayed sorted by ``(record,
        phase)`` with exactly that phase order.

        The hardware assist's state (on or off) must hold for the whole
        span.  With no assist the L1D stream is replayed per set.
        Victim caches (``victim_caches`` is not None) replay exactly
        because a victim hit promotes the line with the same ``fill`` a
        next-level fill would do: L1D (and, one level down, L2) tags and
        LRU order are the same as with no assist, so the per-set
        replays stay as they are, and
        :func:`repro.memory.bulk.filter_victims` runs each victim cache
        as a sequential filter over that level's misses and evictions.
        The L1 filter decides which misses reach L2 and which displaced
        dirty lines are written back to it; the L2 filter runs after
        the L2 replay.  Any other assist (bypassing, stream buffers)
        decides L1 placement itself, so
        :func:`repro.memory.bulk.filter_assist` runs the L1D half of
        :meth:`data_access` in record order against the live assist;
        such an assist must leave evictions and L2 to the hierarchy
        (its ``on_l1_evict``/``on_l2_evict`` return the block and its
        ``lookup_l2_alternate`` returns None), which is what lets L2 be
        replayed in bulk from the demand misses and writebacks it
        emits.  All live structures — caches, assists, TLBs, shadow
        classifiers, DRAM counters, ``_last_source`` — end in the same
        state the scalar calls would leave, so scalar code can resume
        mid-trace afterwards.

        Returns ``(latency, refill, stall, counters)``:

        * ``latency`` — per-data-access latency in cycles (int64);
        * ``refill`` — per-data-access refill class: 0 = no refill bus
          use (L1 hit, or a miss the assist served: L1 victim hit,
          bypass-buffer hit, stream-buffer hit), 1 = L2 refill (L2 or
          L2 victim hit), 2 = DRAM refill (occupies an MSHR);
        * ``stall`` — per-fetch front-end stall cycles beyond an L1I
          hit (int64);
        * ``counters`` — None unless ``sample``: then, per field of
          :meth:`sample_counters` and in its order, the field's
          increments over the span keyed by record position
          (:func:`repro.memory.bulk.counter_steps`), so interval samples
          can be read at any record boundary.  The two occupancies
          count fills into a free way (the L1D replays report evicted
          = -1) and the assist's insertions and extractions.
        """
        import numpy as np

        from repro.memory.bulk import (
            counter_steps,
            filter_assist,
            filter_victims,
        )

        machine = self.machine
        l1d, l1i, l2 = self.l1d, self.l1i, self.l2
        assist = self.assist if self.assist and self.assist.enabled else None
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
        # of L2 with their extra latency (served_*).  When sampling,
        # the accesses that miss L1D, fill a free way in it, change the
        # assist's occupancy (by occ_delta), hit in it or bypass L1.
        served_pos = None
        empty = np.empty(0, dtype=np.int64)
        occ_pos = bypass_pos = empty
        occ_delta = None
        if assist is not None and victims is None:
            # The assist decides L1 placement itself: its hooks run
            # with the L1D lookups and fills in record order.
            (
                d_miss, dm_pos, served_pos, served_extra, wb_pos, wb_lines,
                tracked,
            ) = filter_assist(assist, l1d, addrs, writes, track=sample)
            dm_lines = d_lines[dm_pos]
            if l1d._classify:
                d_hit = np.ones(addrs.size, dtype=bool)
                d_hit[d_miss] = False
            if sample:
                l1_free, bypass_pos, occupancy = tracked
                l1_miss = occ_pos = d_miss
                occ_delta = np.diff(occupancy)
        else:
            d_hit, dm_pos, dm_lines, evicted, evicted_dirty = l1d.bulk_replay(
                d_lines, writes, need_hits=l1d._classify
            )
            if sample:
                l1_miss = dm_pos
                l1_free = dm_pos[evicted < 0]
            if victims is None:
                # Every L1D miss goes to L2 and every dirty eviction is
                # written back; L1I evictions are never dirty.
                wb_pos = dm_pos[evicted_dirty]
                wb_lines = evicted[evicted_dirty]
            else:
                # The L1 victim cache filters the misses in record
                # order: hits are served from it, the rest go to L2,
                # and only the dirty lines it displaces are written
                # back.
                chrono = np.argsort(dm_pos)
                dm_pos, dm_lines = dm_pos[chrono], dm_lines[chrono]
                vc_hit, spill_idx, wb_lines, _, vc_grow = filter_victims(
                    victims[0], l1d, dm_lines, evicted[chrono],
                    evicted_dirty[chrono],
                )
                wb_pos = dm_pos[spill_idx]
                served_pos, served_extra = dm_pos[vc_hit], 1
                if sample:
                    occ_pos = dm_pos
                    occ_delta = -vc_hit.astype(np.int64)
                    occ_delta[vc_grow] += 1
                vc_miss = ~vc_hit
                dm_pos, dm_lines = dm_pos[vc_miss], dm_lines[vc_miss]

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
        l2_lat = machine.l2.latency
        mem_lat = machine.mem_latency + machine.block_transfer_cycles(
            machine.l2.block_size
        )
        # Per sorted event (writeback entries are padding): served from
        # DRAM, and the L2-path latency — L2 hit, L2 victim hit (one
        # extra cycle, no DRAM read) or DRAM.
        from_dram = ~ev_hit_sorted
        l2_path = np.where(from_dram, l2_lat + mem_lat, l2_lat)
        if victims is not None:
            chrono = np.argsort(l2_miss)
            l2_miss = l2_miss[chrono]
            v2_hit, spilled, _, unprobed, v2_grow = filter_victims(
                victims[1], l2, ev_lines_sorted[l2_miss],
                l2_evicted[chrono], l2_evicted_dirty[chrono],
                probe=ev_seq[order][l2_miss] == 1,
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
            l2_path[v2_idx] = l2_lat + 1

        if l1d._classify:
            l1d.bulk_classify_shadow(d_lines, d_hit)
        if l2._classify:
            l2.bulk_classify_shadow(
                ev_lines_sorted[demand_sorted], ev_hit_sorted[demand_sorted]
            )

        latency = np.full(addrs.size, self._l1d_latency, dtype=np.int64)
        latency += dtlb_miss * self._dtlb_penalty
        refill = np.zeros(addrs.size, dtype=np.int64)
        if served_pos is not None:
            latency[served_pos] += served_extra
        # Back from (record, phase) order to the concatenation order:
        # fetch misses, then data misses, then writebacks.
        ev_path = np.empty_like(l2_path)
        ev_path[order] = l2_path
        if n_dm:
            ev_dram = np.empty(order.size, dtype=bool)
            ev_dram[order] = from_dram
            latency[dm_pos] += ev_path[n_im : n_im + n_dm]
            refill[dm_pos] = np.where(ev_dram[n_im : n_im + n_dm], 2, 1)

        stall = itlb_miss * self._itlb_penalty
        if n_im:
            stall[im_pos] += ev_path[:n_im]

        demand_idx = np.nonzero(demand_sorted)[0]
        if demand_idx.size:
            last = demand_idx[-1]
            if ev_hit_sorted[last]:
                self._last_source = "l2"
            elif from_dram[last]:
                self._last_source = "mem"
            else:
                self._last_source = "l2assist"
        if not sample:
            return latency, refill, stall, None

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
        return latency, refill, stall, counters

    # ------------------------------------------------------------------
    # internals

    def _fetch_into_l1(
        self, addr: int, is_write: bool, assist: Optional[AssistInterface]
    ) -> int:
        """Bring the line for ``addr`` from L2/memory; place per assist."""
        latency = self._access_l2(addr, assist)
        if (
            assist is None
            or assist.fill_decision(
                addr, self.l1d.victim_candidate(addr)
            ).cache_in_l1
        ):
            self._install_l1(addr, is_write, assist)
        else:
            line = self.l1d.line_of(addr)
            displaced = assist.accept_bypassed(addr, CacheBlock(line, is_write))
            if displaced is not None and displaced.dirty:
                self._writeback_to_l2(displaced, self.machine.l1d.block_size)
        return latency

    def _access_l2(self, addr: int, assist: Optional[AssistInterface]) -> int:
        """Look up L2 (then L2 assist, then DRAM); fill L2 on the way."""
        latency = self.machine.l2.latency
        if self.l2.lookup(addr):
            self._last_source = "l2"
            return latency
        if assist:
            l2_line = self.l2.line_of(addr)
            block = assist.lookup_l2_alternate(l2_line)
            if block is not None:
                latency += 1
                self._install_l2(addr, block.dirty, assist)
                self._last_source = "l2assist"
                return latency
        latency += self.memory.read_block(self.machine.l2.block_size)
        self._install_l2(addr, False, assist)
        self._last_source = "mem"
        return latency

    def _install_l1(
        self, addr: int, dirty: bool, assist: Optional[AssistInterface]
    ) -> None:
        evicted = self.l1d.fill(addr, dirty)
        if evicted is None:
            return
        if assist:
            evicted = assist.on_l1_evict(evicted)
        if evicted is not None and evicted.dirty:
            self._writeback_to_l2(evicted, self.machine.l1d.block_size)

    def _install_l2(
        self, addr: int, dirty: bool, assist: Optional[AssistInterface]
    ) -> None:
        evicted = self.l2.fill(addr, dirty)
        if evicted is None:
            return
        if assist:
            evicted = assist.on_l2_evict(evicted)
        if evicted is not None and evicted.dirty:
            self.memory.write_block(self.machine.l2.block_size)

    def _writeback_to_l2(self, block: CacheBlock, block_size: int) -> None:
        """Write an evicted dirty L1-side line down the hierarchy."""
        byte_addr = block.byte_addr(block_size)
        if self.l2.probe(byte_addr):
            self.l2.fill(byte_addr, dirty=True)
        else:
            self.memory.write_block(block_size)

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
