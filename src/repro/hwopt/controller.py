"""The two hardware locality mechanisms as memory-hierarchy assists.

:class:`CacheBypassAssist` implements Johnson & Hwu's run-time adaptive
selective caching (paper Section 3.1): MAT frequency tracking, SLDT
spatial-locality detection and a double-word bypass buffer.
:class:`VictimCacheAssist` implements Jouppi victim caches at L1 and
L2.  Either one attaches to
:class:`repro.memory.hierarchy.MemoryHierarchy` and is switched on/off
at region boundaries by the activate/deactivate instructions.
"""

from __future__ import annotations

from typing import Optional

from repro.hwopt.bypass import BypassBuffer
from repro.hwopt.mat import MemoryAccessTable
from repro.hwopt.sldt import SpatialLocalityDetector
from repro.memory.assist import (
    ASSIST_HIT_CYCLES,
    AssistInterface,
    FillDecision,
    ServeResult,
)
from repro.memory.block import CacheBlock
from repro.memory.victim import VictimCache
from repro.params import MachineParams

__all__ = ["CacheBypassAssist", "VictimCacheAssist"]

_CACHE_NORMALLY = FillDecision(cache_in_l1=True)
_BYPASS = FillDecision(cache_in_l1=False)


class CacheBypassAssist(AssistInterface):
    """Selective caching via MAT + SLDT + bypass buffer.

    Decision rule on an L1 miss (Section 3.1 / [8, 9]):

    1. If the line that a fill would displace belongs to a markedly
       hotter macro-block (MAT frequency ratio) *and* that victim is
       not itself part of a detected stream, the incoming line is
       bypassed: L1 keeps the more valuable resident line and the
       demanded data goes to the double-word bypass buffer.
    2. An incoming line whose own macro-block shows spatial locality
       (SLDT) is never bypassed: the double-word buffer would forfeit
       its near-term reuse.  So only the demanded double word of a
       non-spatial line ever enters the buffer.
    3. Otherwise the line is cached normally.
    """

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

    # -- AssistInterface ------------------------------------------------

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
        # Bypass only on strong evidence: the resident line's macro-block
        # must be hot in absolute terms and markedly hotter (ratio from
        # BypassParams) than the incoming one, and must not itself be
        # streaming — a stream's macro-block racks up a high access
        # count while it passes through, but each of its lines is
        # touched once and is worthless to protect.  Without these
        # guards the frequency comparison systematically sacrifices
        # small hot structures (hash tables) to protect dead lines.
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

    def on_l1_evict(self, block: CacheBlock) -> Optional[CacheBlock]:
        return block  # bypassing does not capture evictions

    def lookup_l2_alternate(self, line: int) -> Optional[CacheBlock]:
        return None

    def on_l2_evict(self, block: CacheBlock) -> Optional[CacheBlock]:
        return block

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

    # -- AssistInterface ------------------------------------------------

    def note_access(self, addr: int, is_write: bool, l1_hit: bool) -> None:
        pass  # victim caches react only to misses and evictions

    def lookup_alternate(
        self, addr: int, line: int, is_write: bool = False
    ) -> Optional[ServeResult]:
        block = self.l1_victim.extract(line)
        if block is None:
            return None
        if is_write:
            block.dirty = True
        return (ASSIST_HIT_CYCLES, block)  # promote back into L1 (swap)

    def fill_decision(
        self, addr: int, victim_line: Optional[int]
    ) -> FillDecision:
        return _CACHE_NORMALLY

    def accept_bypassed(
        self, addr: int, block: CacheBlock
    ) -> Optional[CacheBlock]:
        # Never requested (fill_decision always caches); keep the block
        # flowing so a misuse is at least harmless.
        return block

    def on_l1_evict(self, block: CacheBlock) -> Optional[CacheBlock]:
        return self.l1_victim.insert(block)

    def lookup_l2_alternate(self, line: int) -> Optional[CacheBlock]:
        return self.l2_victim.extract(line)

    def on_l2_evict(self, block: CacheBlock) -> Optional[CacheBlock]:
        return self.l2_victim.insert(block)

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
