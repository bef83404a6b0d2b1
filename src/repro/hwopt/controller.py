"""The two hardware locality mechanisms as memory-hierarchy assists.

:class:`CacheBypassAssist` implements Johnson & Hwu's run-time adaptive
selective caching (paper Section 3.1): MAT frequency tracking, SLDT
spatial-locality detection and a double-word bypass buffer.  It is a
fill placer (:mod:`repro.memory.assist`).  :class:`VictimCacheAssist`
implements Jouppi victim caches at L1 and L2, a miss-stream filter.
Either one attaches to :class:`repro.memory.hierarchy.MemoryHierarchy`
and is switched on/off at region boundaries by the activate/deactivate
instructions.
"""

from __future__ import annotations

from array import array
from itertools import count

import numpy as np

from repro.hwopt.bypass import BypassBuffer
from repro.hwopt.mat import MemoryAccessTable
from repro.hwopt.sldt import SpatialLocalityDetector
from repro.memory.assist import AssistInterface
from repro.memory.bulk import (
    CHUNK,
    commit_filter,
    filter_victims,
    working_lrus,
)
from repro.memory.victim import VictimCache
from repro.params import MachineParams

__all__ = ["CacheBypassAssist", "VictimCacheAssist"]

#: Sentinel distinguishing "absent" from any stored dirty flag.
_MISS = object()


class CacheBypassAssist(AssistInterface):
    """Selective caching via MAT + SLDT + bypass buffer.

    Decision rule on an L1 miss (Section 3.1 / [8, 9]):

    1. If the line that a fill would displace belongs to a macro-block
       that is hot in absolute terms (``min_victim_freq``) and markedly
       hotter than the incoming one (MAT frequency ratio), *and* that
       victim is not itself part of a detected stream, the incoming
       line is bypassed: L1 keeps the more valuable resident line and
       the demanded data goes to the double-word bypass buffer.  A
       stream's macro-block racks up a high access count while it
       passes through, but each of its lines is touched once and is
       worthless to protect; without these guards the frequency
       comparison systematically sacrifices small hot structures
       (hash tables) to protect dead lines.
    2. An incoming line whose own macro-block shows spatial locality
       (SLDT) is never bypassed: the double-word buffer would forfeit
       its near-term reuse.  So only the demanded double word of a
       non-spatial line ever enters the buffer.
    3. Otherwise the line is cached normally.
    """

    places_fills = True

    def __init__(self, machine: MachineParams):
        self.enabled = True
        self.machine = machine
        self.mat = MemoryAccessTable(machine.bypass)
        self.sldt = SpatialLocalityDetector(
            machine.bypass, line_size=machine.l1d.block_size
        )
        self.buffer = BypassBuffer(machine.bypass.buffer_words)
        self._line_size = machine.l1d.block_size
        self._hits = 0
        self._bypassed = 0

    def filter_l1(self, cache, addrs, writes, track: bool = False):
        """The record-order L1 filter of a gate-on bypass range.

        One loop holds the L1 sets, the MAT, the SLDT and the buffer in
        locals.  Per access: the MAT count of the access's macro-block
        (halving every counter each ``age_interval`` accesses), the
        SLDT update (move the line to MRU; a new line retires the LRU
        entry of a full table and judges it) and the L1 lookup.  Per
        miss: the buffer probe (a hit is served in place, L1
        untouched), then the fill rule of the class docstring read from
        the tables just updated, then the buffer insert or the L1 fill.
        The counters it keeps in locals are written back at the end.
        Its per-access reference is the hook-driven filter of the
        simulator's oracle (``tests/cpu/oracle.py``).
        """
        mat, sldt, buffer = self.mat, self.sldt, self.buffer
        params = self.machine.bypass
        min_victim_freq = params.min_victim_freq
        bypass_ratio = params.bypass_ratio
        line_size = self._line_size
        shift = cache._offset_bits
        num_sets = cache._num_sets
        assoc = cache._assoc
        lrus = working_lrus(cache)
        # MAT
        tags, counters = mat._tags, mat._counters
        mat_shift, mat_entries = mat._mb_shift, mat._entries
        counter_max, age_interval = mat.counter_max, mat.age_interval
        since_aging, replacements = mat._since_aging, mat.replacements
        # SLDT
        table, spatial = sldt._table, sldt._spatial
        sldt_capacity = sldt._capacity
        line_shift, word_mask = sldt._line_shift, sldt._word_mask
        sldt_shift = sldt._mb_shift
        spatial_max = sldt.params.spatial_counter_max
        spatial_min = sldt.params.spatial_counter_min
        threshold = sldt.params.spatial_threshold
        promotions = sldt.spatial_promotions
        demotions = sldt.spatial_demotions
        # Bypass buffer: double word -> dirty flag, in LRU order.
        words, buffer_capacity = buffer._words, buffer.capacity
        word_shift = buffer.WORD_SHIFT
        buffer_hits = buffer_misses = insertions = 0

        miss, demand, served = array("q"), array("q"), array("q")
        wb_idx, wb_lines = array("q"), array("q")
        miss_append, demand_append = miss.append, demand.append
        free_fills, bypassed, occupancy = array("q"), array("q"), array("q")
        evictions = dirty_evictions = 0
        n = addrs.size
        for base in range(0, n, CHUNK):
            for i, addr, w in zip(
                count(base),
                addrs[base : base + CHUNK].tolist(),
                writes[base : base + CHUNK].tolist(),
            ):
                # MAT: count the access in its macro-block's slot.
                mb = addr >> mat_shift
                slot = mb % mat_entries
                if tags[slot] == mb:
                    if counters[slot] < counter_max:
                        counters[slot] += 1
                else:
                    if tags[slot] != -1:
                        replacements += 1
                    tags[slot] = mb
                    counters[slot] = 1
                since_aging += 1
                if since_aging >= age_interval:
                    since_aging = 0
                    counters[:] = [value >> 1 for value in counters]
                # SLDT: move the line to MRU; a new line retires the LRU
                # entry of a full table and judges it.
                line = addr >> line_shift
                touched = table.pop(line, 0)
                if not touched and len(table) >= sldt_capacity:
                    old_line = next(iter(table))
                    old_words = table.pop(old_line)
                    old_mb = (old_line << line_shift) >> sldt_shift
                    spatial_count = spatial.get(old_mb, 0)
                    if old_words & (old_words - 1):
                        if spatial_count < spatial_max:
                            spatial_count += 1
                        promotions += 1
                    else:
                        if spatial_count > spatial_min:
                            spatial_count -= 1
                        demotions += 1
                    spatial[old_mb] = spatial_count
                table[line] = touched | 1 << ((addr >> 3) & word_mask)
                # L1 lookup.
                ln = addr >> shift
                lru = lrus[ln % num_sets]
                prev = lru.pop(ln, _MISS)
                if prev is not _MISS:
                    lru[ln] = prev or w
                    continue
                miss_append(i)
                if track:
                    occupancy.append(len(words))
                dword = addr >> word_shift
                if dword in words:  # served in place from the buffer
                    words.move_to_end(dword)
                    if w:
                        words[dword] = True
                    buffer_hits += 1
                    served.append(i)
                    continue
                buffer_misses += 1
                demand_append(i)
                if len(lru) >= assoc:
                    victim = next(iter(lru))
                    # The fill rule: the incoming line was just counted,
                    # so its slot holds its macro-block.
                    victim_addr = victim * line_size
                    victim_mb = victim_addr >> mat_shift
                    victim_slot = victim_mb % mat_entries
                    victim_freq = (
                        counters[victim_slot]
                        if tags[victim_slot] == victim_mb
                        else 0
                    )
                    if (
                        victim_freq >= min_victim_freq
                        and spatial.get(addr >> sldt_shift, 0) < threshold
                        and counters[slot] < victim_freq * bypass_ratio
                        and spatial.get(victim_addr >> sldt_shift, 0)
                        < threshold
                    ):
                        # Bypassed: the double word just missed the
                        # buffer, so it enters as a new entry.
                        if track:
                            bypassed.append(i)
                        if len(words) >= buffer_capacity:
                            old_dword, old_dirty = words.popitem(last=False)
                            if old_dirty:
                                wb_idx.append(i)
                                wb_lines.append(
                                    (old_dword << word_shift) // line_size
                                )
                        words[dword] = w
                        insertions += 1
                        continue
                    evictions += 1
                    if lru.pop(victim):
                        dirty_evictions += 1
                        wb_idx.append(i)
                        wb_lines.append(victim)
                elif track:
                    free_fills.append(i)
                lru[ln] = w

        mat._since_aging, mat.replacements = since_aging, replacements
        sldt.spatial_promotions, sldt.spatial_demotions = promotions, demotions
        buffer.hits += buffer_hits
        buffer.misses += buffer_misses
        buffer.insertions += insertions
        self._hits += buffer_hits
        self._bypassed += insertions
        columns = [miss, demand, served, wb_idx, wb_lines]
        if track:
            occupancy.append(len(words))
            columns += [free_fills, bypassed, occupancy]
        return commit_filter(
            cache, lrus, n, evictions, dirty_evictions, columns, track
        )

    # -- counters --------------------------------------------------------

    @property
    def assist_hits(self) -> int:
        return self._hits

    @property
    def bypassed_fills(self) -> int:
        return self._bypassed

    @property
    def occupancy(self) -> int:
        """Double words currently held in the bypass buffer."""
        return len(self.buffer)


class VictimCacheAssist(AssistInterface):
    """Jouppi victim caches behind L1 (64 lines) and L2 (512 lines).

    An L1 miss probes the L1 victim cache; a hit swaps the line back
    into L1 at a one-cycle penalty.  Evicted lines (from either level)
    drop into the corresponding victim cache while the mechanism is
    enabled.  A passive mechanism: it never bypasses and never
    prefetches, which is why the paper finds it "always better than the
    base configuration" but with smaller peak gains (Section 5.2).
    """

    def __init__(self, machine: MachineParams):
        self.enabled = True
        self.machine = machine
        self.l1_victim = VictimCache(machine.victim.l1_entries, "L1victim")
        self.l2_victim = VictimCache(machine.victim.l2_entries, "L2victim")

    def filter_misses(self, cache, lines, evicted, evicted_dirty, on, pos):
        """Run the L1 victim cache over the misses
        (:func:`repro.memory.bulk.filter_victims`): the misses whose
        gate is on probe it and send it the line they evict; the dirty
        lines it displaces, and those a miss with the gate off evicts,
        are written back."""
        hit, spill_idx, spill_lines, unprobed, grow = filter_victims(
            self.l1_victim, cache, lines, evicted, evicted_dirty,
            probe=on[pos],
        )
        occupancy = -hit.astype(np.int64)
        occupancy[grow] += 1
        return (
            hit,
            np.concatenate((spill_idx, unprobed)),
            np.concatenate((spill_lines, evicted[unprobed])),
            occupancy,
        )

    @property
    def victim_caches(self) -> tuple[VictimCache, VictimCache]:
        return self.l1_victim, self.l2_victim

    # -- counters --------------------------------------------------------

    @property
    def assist_hits(self) -> int:
        return self.l1_victim.stats.hits + self.l2_victim.stats.hits

    @property
    def bypassed_fills(self) -> int:
        return 0

    @property
    def occupancy(self) -> int:
        """Lines currently held across both victim caches."""
        return len(self.l1_victim) + len(self.l2_victim)
