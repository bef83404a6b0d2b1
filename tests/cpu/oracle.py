"""The per-record simulation loop, kept as the kernels' oracle.

This is the scalar path :class:`repro.cpu.pipeline.CPUSimulator` ran
before every run took the replay-and-fold kernels of
:mod:`repro.cpu.vector`: one record at a time, each data access and
instruction fetch through the hierarchy's own L1/L2/DRAM walk, with the
assist's hooks called while its ``enabled`` flag is on and each HW_ON/
HW_OFF record toggling the gate as it executes.  It shares the
simulator's timing state (:class:`repro.cpu.pipeline._PackedState`),
its structures and its result, so equality of the two runs checks the
kernels record for record, telemetry included.

* the assists' per-access hooks — seven per assist, called at each
  L1 access and miss, L1 and L2 fill and eviction — and the per-access
  methods of the MAT, the SLDT, the bypass buffer and the victim
  caches they call, as subclasses that :func:`as_oracle` gives a live
  assist in place;
* :func:`filter_assist` — the record-order L1 filter that drives those
  hooks: the reference of the bypass assist's fused ``filter_l1``;
* :class:`OracleHierarchy` — :class:`MemoryHierarchy` plus the
  per-access ``data_access`` and ``inst_fetch`` paths;
* :class:`OracleSimulator` — :class:`CPUSimulator` with the scalar
  loop as its ``run``;
* :func:`simulate_trace` — ``repro.core.experiment.simulate_trace``
  on the two, without the replay memo.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import count
from typing import NamedTuple, Optional

import numpy as np

from repro.core.versions import make_assist
from repro.cpu.pipeline import CPUSimulator, _PackedState
from repro.cpu.results import SimulationResult
from repro.hwopt.bypass import BypassBuffer
from repro.hwopt.controller import CacheBypassAssist, VictimCacheAssist
from repro.hwopt.gate import HardwareGate
from repro.hwopt.mat import MemoryAccessTable
from repro.hwopt.prefetch import StreamBufferAssist
from repro.hwopt.sldt import SpatialLocalityDetector
from repro.isa.instructions import Opcode
from repro.isa.packed import AnyTrace, as_packed
from repro.memory.assist import ASSIST_HIT_CYCLES, AssistInterface
from repro.memory.block import CacheBlock
from repro.memory.bulk import CHUNK, commit_filter, working_lrus
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.victim import VictimCache
from repro.params import MachineParams

__all__ = [
    "AccessResult",
    "FillDecision",
    "OracleHierarchy",
    "OracleSimulator",
    "ServeResult",
    "as_oracle",
    "filter_assist",
    "simulate_trace",
]

_LOAD = int(Opcode.LOAD)
_STORE = int(Opcode.STORE)
_ALU = int(Opcode.ALU)
_BRANCH = int(Opcode.BRANCH)
_HW_ON = int(Opcode.HW_ON)
_HW_OFF = int(Opcode.HW_OFF)


# ----------------------------------------------------------------------
# The per-access hooks and the structures they drive


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

_CACHE_NORMALLY = FillDecision(cache_in_l1=True)
_BYPASS = FillDecision(cache_in_l1=False)

#: Sentinel distinguishing "absent" from any stored dirty flag.
_MISS = object()


class OracleMemoryAccessTable(MemoryAccessTable):
    """The MAT one access at a time."""

    def record(self, addr: int) -> None:
        """Count one access to ``addr``'s macro-block."""
        mb = addr >> self._mb_shift
        slot = mb % self._entries
        if self._tags[slot] == mb:
            if self._counters[slot] < self.counter_max:
                self._counters[slot] += 1
        else:
            # Tag replacement: the old macro-block's history is lost.
            if self._tags[slot] != -1:
                self.replacements += 1
            self._tags[slot] = mb
            self._counters[slot] = 1
        self._since_aging += 1
        if self._since_aging >= self.age_interval:
            self._age()

    def frequency(self, addr: int) -> int:
        """Current counter for ``addr``'s macro-block (0 if untracked)."""
        mb = addr >> self._mb_shift
        slot = mb % self._entries
        if self._tags[slot] == mb:
            return self._counters[slot]
        return 0

    def _age(self) -> None:
        """Halve every counter, forgetting old phases gradually."""
        self._since_aging = 0
        counters = self._counters
        for i, value in enumerate(counters):
            if value:
                counters[i] = value >> 1

    def occupancy(self) -> int:
        """Number of slots holding a live tag."""
        return sum(1 for t in self._tags if t != -1)


class OracleSpatialLocalityDetector(SpatialLocalityDetector):
    """The SLDT one access at a time."""

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
        """Retire every live entry (end-of-run bookkeeping)."""
        table = self._table
        while table:
            line = next(iter(table))
            self._judge(line, table.pop(line))


class OracleBypassBuffer(BypassBuffer):
    """The bypass buffer one access at a time."""

    def lookup(self, addr: int, is_write: bool = False) -> bool:
        """Probe for the double word holding ``addr``; update LRU on hit."""
        dword = addr >> self.WORD_SHIFT
        if dword in self._words:
            self._words.move_to_end(dword)
            if is_write:
                self._words[dword] = True
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, addr: int, dirty: bool = False) -> Optional[int]:
        """Add the double word holding ``addr``.

        Returns the byte address of a displaced *dirty* double word (the
        caller must write it back), or None.
        """
        dword = addr >> self.WORD_SHIFT
        if dword in self._words:
            self._words[dword] = self._words[dword] or dirty
            self._words.move_to_end(dword)
            return None
        displaced_addr: Optional[int] = None
        if len(self._words) >= self.capacity:
            old_dword, old_dirty = self._words.popitem(last=False)
            if old_dirty:
                displaced_addr = old_dword << self.WORD_SHIFT
        self._words[dword] = dirty
        self.insertions += 1
        return displaced_addr


class OracleVictimCache(VictimCache):
    """A victim cache one eviction and one probe at a time."""

    def insert(self, block: CacheBlock) -> Optional[CacheBlock]:
        """Add an evicted ``block``; return any block displaced by LRU.

        A displaced dirty block must be written back by the caller (it
        counts against the victim cache's writeback stat here).
        """
        displaced: Optional[CacheBlock] = None
        if block.block_addr in self._blocks:
            # Re-inserting a line already present: merge dirty bits.
            existing = self._blocks[block.block_addr]
            existing.dirty = existing.dirty or block.dirty
            self._blocks.move_to_end(block.block_addr)
            return None
        if len(self._blocks) >= self.entries:
            _, displaced = self._blocks.popitem(last=False)
            self.stats.evictions += 1
            if displaced.dirty:
                self.stats.writebacks += 1
        self._blocks[block.block_addr] = block
        return displaced

    def extract(self, line: int) -> Optional[CacheBlock]:
        """Probe for ``line``; on hit remove and return it (swap out).

        Records an access plus hit/miss in the stats: the probe that
        happens on every primary-cache miss while the mechanism is on.
        """
        self.stats.accesses += 1
        block = self._blocks.pop(line, None)
        if block is not None:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        return block

    def contains(self, line: int) -> bool:
        """Presence check without statistics."""
        return line in self._blocks


class _Hooks:
    """The seven per-access hooks, as an assist that does nothing.

    :class:`OracleHierarchy` calls them at the corresponding points of
    its walk; each oracle assist overrides the ones its mechanism uses.
    """

    def note_access(self, addr: int, is_write: bool, l1_hit: bool) -> None:
        """Observe every L1 data access (hit or miss)."""

    def lookup_alternate(
        self, addr: int, line: int, is_write: bool = False
    ) -> Optional[ServeResult]:
        """Probe the assist's own storage on an L1 miss.

        On a hit returns ``(extra_latency, promote_block)``: a victim
        cache or stream buffer returns the block for promotion into L1,
        while the bypass buffer serves the data in place and returns
        ``None`` for the block.  Returns ``None`` on an assist miss.
        Both the byte address and the L1 line number are supplied
        because the bypass buffer tracks double words, not lines.
        """
        return None

    def fill_decision(
        self, addr: int, victim_line: Optional[int]
    ) -> FillDecision:
        """Decide whether a line fetched after a miss is installed in L1.

        ``victim_line`` is the L1 line that a normal fill would displace
        (None if the set has a free way).
        """
        return _CACHE_NORMALLY

    def accept_bypassed(
        self, addr: int, block: CacheBlock
    ) -> Optional[CacheBlock]:
        """Store a line the fill decision diverted away from L1; return
        any block displaced from assist storage."""
        return block

    def on_l1_evict(self, block: CacheBlock) -> Optional[CacheBlock]:
        """Observe an L1 eviction; may capture the block.  Returns a
        displaced block, or the block itself if not captured."""
        return block

    def lookup_l2_alternate(self, line: int) -> Optional[CacheBlock]:
        """Probe L2-side assist storage on an L2 miss."""
        return None

    def on_l2_evict(self, block: CacheBlock) -> Optional[CacheBlock]:
        """Observe an L2 eviction (L2 victim cache capture)."""
        return block


class OracleBypassAssist(CacheBypassAssist, _Hooks):
    """Selective caching one access at a time."""

    def note_access(self, addr: int, is_write: bool, l1_hit: bool) -> None:
        self.mat.record(addr)
        self.sldt.observe(addr)

    def lookup_alternate(
        self, addr: int, line: int, is_write: bool = False
    ) -> Optional[ServeResult]:
        if self.buffer.lookup(addr, is_write):
            self._hits += 1
            # Served in place from the buffer: one extra cycle, nothing
            # promoted into L1.
            return (ASSIST_HIT_CYCLES, None)
        return None

    def fill_decision(
        self, addr: int, victim_line: Optional[int]
    ) -> FillDecision:
        if victim_line is None or self.sldt.expects_spatial(addr):
            # Free way, or spatially-reused incoming data (streams,
            # dense sweeps): always cache.  Bypassing a stream into the
            # tiny double-word buffer forfeits its guaranteed near-term
            # reuse.
            return _CACHE_NORMALLY
        # Bypass only on strong evidence (the class docstring's rule 1).
        params = self.machine.bypass
        victim_addr = victim_line * self._line_size
        victim_freq = self.mat.frequency(victim_addr)
        if victim_freq < params.min_victim_freq:
            return _CACHE_NORMALLY
        incoming_freq = self.mat.frequency(addr)
        if (
            incoming_freq < victim_freq * params.bypass_ratio
            and not self.sldt.expects_spatial(victim_addr)
        ):
            return _BYPASS
        return _CACHE_NORMALLY

    def accept_bypassed(
        self, addr: int, block: CacheBlock
    ) -> Optional[CacheBlock]:
        """Buffer the demanded double word of a bypassed line."""
        self._bypassed += 1
        displaced_dirty = self.buffer.insert(addr, block.dirty)
        if displaced_dirty is None:
            return None
        # A dirty double word leaves the buffer: hand the hierarchy a
        # line-granularity record so it can route the writeback.
        return CacheBlock(displaced_dirty // self._line_size, dirty=True)


class OracleVictimCacheAssist(VictimCacheAssist, _Hooks):
    """Victim caches one probe and one eviction at a time."""

    def lookup_alternate(
        self, addr: int, line: int, is_write: bool = False
    ) -> Optional[ServeResult]:
        block = self.l1_victim.extract(line)
        if block is None:
            return None
        if is_write:
            block.dirty = True
        return (ASSIST_HIT_CYCLES, block)  # promote back into L1 (swap)

    def on_l1_evict(self, block: CacheBlock) -> Optional[CacheBlock]:
        return self.l1_victim.insert(block)

    def lookup_l2_alternate(self, line: int) -> Optional[CacheBlock]:
        return self.l2_victim.extract(line)

    def on_l2_evict(self, block: CacheBlock) -> Optional[CacheBlock]:
        return self.l2_victim.insert(block)


class OracleStreamBufferAssist(StreamBufferAssist, _Hooks):
    """Stream buffers one access at a time."""

    def note_access(self, addr: int, is_write: bool, l1_hit: bool) -> None:
        self._clock += 1

    def lookup_alternate(
        self, addr: int, line: int, is_write: bool = False
    ) -> Optional[ServeResult]:
        for buffer in self._buffers:
            if buffer.lines and buffer.lines[0] == line:
                self._hits += 1
                self._prefetched += buffer.advance(self._clock)
                return (ASSIST_HIT_CYCLES, CacheBlock(line, dirty=is_write))
        # No buffer covers this stream: start one just past the miss.
        victim = min(self._buffers, key=lambda b: b.last_used)
        self._prefetched += victim.allocate(
            line + 1, self._depth, self._clock
        )
        return None


_ORACLE = {
    MemoryAccessTable: OracleMemoryAccessTable,
    SpatialLocalityDetector: OracleSpatialLocalityDetector,
    BypassBuffer: OracleBypassBuffer,
    VictimCache: OracleVictimCache,
    CacheBypassAssist: OracleBypassAssist,
    VictimCacheAssist: OracleVictimCacheAssist,
    StreamBufferAssist: OracleStreamBufferAssist,
}

#: The parts of an assist with per-access methods of their own.
_PARTS = ("mat", "sldt", "buffer", "l1_victim", "l2_victim")


def as_oracle(obj):
    """Give ``obj`` — an assist or one of its tables — its per-access
    methods, in place, and return it.

    Only methods are added, so the object's state, and everything that
    holds it (a gate, a hierarchy, a state reader), stays as it is.
    """
    obj.__class__ = _ORACLE.get(type(obj), type(obj))
    for name in _PARTS:
        part = getattr(obj, name, None)
        if part is not None:
            as_oracle(part)
    return obj


def filter_assist(
    assist, cache, addrs: np.ndarray, writes: np.ndarray, track: bool = False
):
    """Run the L1 half of the access walk in record order with the hooks.

    The reference of a fill placer's ``filter_l1``
    (:meth:`repro.memory.assist.AssistInterface.filter_l1`), and returns
    the same tuple: run on the bypass assist it checks that loop.  Per
    access, as the per-access walk does with the gate on: look up L1
    and ``note_access``; on a miss, ``lookup_alternate`` (a hit is
    served by the assist, installing any promoted block), else
    ``fill_decision`` against the line a fill would evict, then the
    fill or ``accept_bypassed``.  Every assist hit must cost
    ``ASSIST_HIT_CYCLES``, or this raises ``ValueError``.  ``assist``
    must have the hooks (:func:`as_oracle`).
    """
    n = addrs.size
    shift = cache._offset_bits
    num_sets = cache._num_sets
    assoc = cache._assoc
    lrus = working_lrus(cache)
    note = assist.note_access
    lookup_alternate = assist.lookup_alternate
    fill_decision = assist.fill_decision
    accept_bypassed = assist.accept_bypassed
    miss, demand, served = array("q"), array("q"), array("q")
    wb_idx, wb_lines = array("q"), array("q")
    miss_append, demand_append = miss.append, demand.append
    # Interval sampling only (see ``tracked`` in ``filter_l1``).
    free_fills, bypassed, occupancy = array("q"), array("q"), array("q")
    evictions = dirty_evictions = 0
    for base in range(0, n, CHUNK):
        for i, addr, w in zip(
            count(base),
            addrs[base : base + CHUNK].tolist(),
            writes[base : base + CHUNK].tolist(),
        ):
            ln = addr >> shift
            lru = lrus[ln % num_sets]
            prev = lru.pop(ln, _MISS)
            if prev is not _MISS:
                lru[ln] = prev or w
                note(addr, w, True)
                continue
            note(addr, w, False)
            miss_append(i)
            if track:
                occupancy.append(assist.occupancy)
            hit = lookup_alternate(addr, ln, w)
            if hit is not None:
                extra, promoted = hit
                if extra != ASSIST_HIT_CYCLES:
                    raise ValueError(
                        f"assist hit costs {extra} cycles, not "
                        f"{ASSIST_HIT_CYCLES}"
                    )
                served.append(i)
                if promoted is None:  # served in place, L1 untouched
                    continue
                w = promoted.dirty or w
            else:
                demand_append(i)
                victim = next(iter(lru)) if len(lru) >= assoc else None
                if not fill_decision(addr, victim).cache_in_l1:
                    if track:
                        bypassed.append(i)
                    displaced = accept_bypassed(addr, CacheBlock(ln, w))
                    if displaced is not None and displaced.dirty:
                        wb_idx.append(i)
                        wb_lines.append(displaced.block_addr)
                    continue
            if len(lru) >= assoc:
                victim = next(iter(lru))
                evictions += 1
                if lru.pop(victim):
                    dirty_evictions += 1
                    wb_idx.append(i)
                    wb_lines.append(victim)
            elif track:
                free_fills.append(i)
            lru[ln] = w

    columns = [miss, demand, served, wb_idx, wb_lines]
    if track:
        occupancy.append(assist.occupancy)
        columns += [free_fills, bypassed, occupancy]
    return commit_filter(
        cache, lrus, n, evictions, dirty_evictions, columns, track
    )


class AccessResult(NamedTuple):
    """Outcome of a single data access."""

    latency: int
    l1_hit: bool
    served_by: str  # "l1" | "assist" | "l2" | "l2assist" | "mem"


class OracleHierarchy(MemoryHierarchy):
    """The hierarchy with one-access-at-a-time data and fetch paths.

    The assist is consulted on L1 misses, fills and evictions only
    while its ``enabled`` flag is on; the hierarchy gives it its hooks
    (:func:`as_oracle`).
    """

    def __init__(
        self,
        machine: MachineParams,
        assist: Optional[AssistInterface] = None,
        classify_misses: bool = False,
    ):
        if assist is not None:
            as_oracle(assist)
        super().__init__(machine, assist, classify_misses)
        # Provenance of the most recent L2-path access.  Must be an
        # instance attribute: hierarchies run side by side in one
        # process, and a class attribute would leak the last source
        # across instances.
        self._last_source = "mem"

    def data_access(self, addr: int, is_write: bool = False) -> AccessResult:
        """Perform one load/store; return its latency and provenance."""
        assist = self.assist if (self.assist and self.assist.enabled) else None
        latency = self.machine.l1d.latency
        if not self.dtlb.lookup(addr):
            latency += self.machine.dtlb.miss_penalty
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
        latency = self.machine.l1i.latency
        if not self.itlb.lookup(addr):
            latency += self.machine.itlb.miss_penalty
        if self.l1i.lookup(addr):
            return latency
        latency += self._access_l2(addr, assist=None)
        evicted = self.l1i.fill(addr)
        if evicted is not None and evicted.dirty:
            self._writeback_to_l2(evicted, self.machine.l1i.block_size)
        return latency

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
            displaced = assist.accept_bypassed(
                addr, CacheBlock(line, is_write)
            )
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
                latency += ASSIST_HIT_CYCLES
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


class OracleSimulator(CPUSimulator):
    """The simulator with the per-record loop as its ``run``.

    Its hierarchy must be an :class:`OracleHierarchy`.
    """

    def run(self, trace: AnyTrace) -> SimulationResult:
        if self.telemetry is not None:
            self.telemetry.bind(
                self.hierarchy.sample_counters,
                self.hierarchy.snapshot,
                gate_on=self.gate.enabled,
            )
            self.gate.telemetry = self.telemetry
        trace = as_packed(trace)
        state = _PackedState(self.machine, self.telemetry)
        self._run_records(state, *trace.columns())
        return self._finalize_packed(trace.name, state)

    def _run_records(self, state: _PackedState, ops, args, pcs) -> None:
        """The scalar loop over every record, opcodes compared as ints."""
        machine = self.machine
        hierarchy = self.hierarchy
        gate = self.gate
        issue_width = machine.issue_width
        mispredict_penalty = machine.branch_mispredict_penalty
        l1i_hit = machine.l1i.latency
        ifetch_line_mask = ~(machine.l1i.block_size - 1)
        model_ifetch = self.model_ifetch

        lsq_size = machine.lsq_entries
        lsq_done = state.lsq_done
        lsq_index = state.lsq_index
        num_ports = machine.mem_ports
        # Port arbitration picks the earliest-free port; the 1- and
        # 2-port cases are hoisted out of the general scan.
        port_free = state.port_free
        single_port = num_ports == 1
        dual_port = num_ports == 2
        port0 = port_free[0]
        port1 = port_free[1] if dual_port else 0
        # Shared refill bus: beats to move one L1 line from L2.  DRAM
        # fills occupy the same L1-side bus slot; their own DRAM-bus
        # transfer is part of the access latency.
        l2_refill_beats = max(
            machine.l1d.block_size // machine.mem_bus_width, 1
        )
        refill_bus_free = state.refill_bus_free
        # MSHR ring: a DRAM-served miss waits for the one issued
        # max_outstanding_misses earlier to complete.
        mshr_count = machine.max_outstanding_misses
        mshr_done = state.mshr_done
        mshr_index = state.mshr_index

        issue_cycle = state.issue_cycle
        slot = state.slot
        last_done = state.last_done

        instructions = state.instructions
        loads = state.loads
        stores = state.stores
        branches = state.branches
        current_ifetch_line = state.current_ifetch_line

        data_access = hierarchy.data_access
        inst_fetch = hierarchy.inst_fetch
        predict_and_update = self.predictor.predict_and_update
        activate = gate.activate
        deactivate = gate.deactivate

        telemetry = self.telemetry
        sample_step = telemetry.interval if telemetry is not None else 0
        next_sample = state.next_sample

        for op, arg, pc in zip(ops, args, pcs):
            if next_sample is not None and issue_cycle >= next_sample:
                telemetry.sample(issue_cycle, instructions)
                next_sample = (
                    issue_cycle - issue_cycle % sample_step + sample_step
                )

            # -- front end: instruction fetch ---------------------------
            if model_ifetch:
                line = pc & ifetch_line_mask
                if line != current_ifetch_line:
                    current_ifetch_line = line
                    fetch_latency = inst_fetch(pc)
                    if fetch_latency > l1i_hit:
                        issue_cycle += fetch_latency - l1i_hit
                        slot = 0

            # -- issue slot accounting ----------------------------------
            if op == _ALU:
                count = arg if arg > 0 else 1
                instructions += count
                slot += count
                if slot >= issue_width:
                    issue_cycle += slot // issue_width
                    slot %= issue_width
                continue

            instructions += 1
            slot += 1
            if slot >= issue_width:
                issue_cycle += 1
                slot = 0

            if op == _LOAD or op == _STORE:
                is_write = op == _STORE
                if is_write:
                    stores += 1
                else:
                    loads += 1
                # The op at this LSQ slot lsq_size ago must have finished.
                pending = lsq_done[lsq_index]
                if pending > issue_cycle:
                    issue_cycle = pending
                    slot = 0
                # Port arbitration: earliest free port.
                if single_port:
                    start = issue_cycle if issue_cycle > port0 else port0
                    port0 = start + 1
                elif dual_port:
                    if port0 <= port1:
                        start = issue_cycle if issue_cycle > port0 else port0
                        port0 = start + 1
                    else:
                        start = issue_cycle if issue_cycle > port1 else port1
                        port1 = start + 1
                else:
                    port = 0
                    earliest = port_free[0]
                    for p in range(1, num_ports):
                        if port_free[p] < earliest:
                            earliest = port_free[p]
                            port = p
                    start = (
                        issue_cycle if issue_cycle > earliest else earliest
                    )
                    port_free[port] = start + 1
                access = data_access(arg, is_write)
                if access.l1_hit or access.served_by == "assist":
                    done = start + access.latency
                else:
                    # A refill: serialize on the shared L1 fill bus.
                    if refill_bus_free > start:
                        start = refill_bus_free
                    refill_bus_free = start + l2_refill_beats
                    if access.served_by == "mem":
                        # DRAM: bounded memory-level parallelism.
                        pending_miss = mshr_done[mshr_index]
                        if pending_miss > start:
                            start = pending_miss
                        done = start + access.latency
                        mshr_done[mshr_index] = done
                        mshr_index += 1
                        if mshr_index == mshr_count:
                            mshr_index = 0
                    else:
                        done = start + access.latency
                lsq_done[lsq_index] = done
                lsq_index += 1
                if lsq_index == lsq_size:
                    lsq_index = 0
                if done > last_done:
                    last_done = done
            elif op == _BRANCH:
                branches += 1
                if not predict_and_update(pc, arg != 0):
                    issue_cycle += mispredict_penalty
                    slot = 0
            elif op == _HW_ON:
                if telemetry is not None:
                    telemetry.now = issue_cycle
                    telemetry.instructions = instructions
                activate()
            elif op == _HW_OFF:
                if telemetry is not None:
                    telemetry.now = issue_cycle
                    telemetry.instructions = instructions
                deactivate()
            else:  # pragma: no cover - exhaustive over Opcode
                raise ValueError(f"unknown opcode {op!r}")

        state.issue_cycle = issue_cycle
        state.slot = slot
        state.last_done = last_done
        state.lsq_index = lsq_index
        if single_port:
            port_free[0] = port0
        elif dual_port:
            port_free[0] = port0
            port_free[1] = port1
        state.refill_bus_free = refill_bus_free
        state.mshr_index = mshr_index
        state.instructions = instructions
        state.loads = loads
        state.stores = stores
        state.branches = branches
        state.current_ifetch_line = current_ifetch_line
        state.next_sample = next_sample


def simulate_trace(
    trace: AnyTrace,
    machine: MachineParams,
    mechanism: Optional[str] = None,
    initially_on: bool = True,
    classify_misses: bool = False,
    telemetry=None,
) -> SimulationResult:
    """:func:`repro.core.experiment.simulate_trace` on the scalar loop.

    Never reads or fills the replay memo.
    """
    assist = make_assist(mechanism, machine) if mechanism else None
    hierarchy = OracleHierarchy(machine, assist, classify_misses)
    gate = HardwareGate(assist, initially_on=initially_on)
    return OracleSimulator(machine, hierarchy, gate, telemetry=telemetry).run(
        trace
    )
