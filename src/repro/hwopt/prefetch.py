"""Stream-buffer prefetching (Jouppi, ISCA 1990 — the same paper as the
victim cache).

An *extension* mechanism beyond the paper's two evaluated assists: the
paper's Section 1.1 lists hardware prefetching among the candidate
run-time techniques, and stream buffers are the era-appropriate
implementation.  Each buffer prefetches a run of sequential lines after
a miss; a later miss that hits a buffer head is served quickly and the
buffer advances.  Plugs into the same
:class:`~repro.memory.assist.AssistInterface`, so the selective ON/OFF
framework gates it exactly like the bypass and victim mechanisms —
useful for "what if the hardware were X" ablations.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.memory.assist import (
    ASSIST_HIT_CYCLES,
    AssistInterface,
    FillDecision,
    ServeResult,
)
from repro.memory.block import CacheBlock
from repro.params import MachineParams

__all__ = ["StreamBufferAssist"]

_CACHE_NORMALLY = FillDecision(cache_in_l1=True)


class _StreamBuffer:
    """One FIFO of sequentially prefetched line numbers."""

    __slots__ = ("lines", "next_line", "last_used")

    def __init__(self, depth: int):
        self.lines: deque[int] = deque(maxlen=depth)
        self.next_line = -1
        self.last_used = 0

    def allocate(self, start_line: int, depth: int, clock: int) -> int:
        """Begin a new stream at ``start_line``; return lines fetched."""
        self.lines.clear()
        for offset in range(depth):
            self.lines.append(start_line + offset)
        self.next_line = start_line + depth
        self.last_used = clock
        return depth

    def advance(self, clock: int) -> int:
        """Pop the head after a hit and fetch one more line at the tail."""
        self.lines.popleft()
        self.lines.append(self.next_line)
        self.next_line += 1
        self.last_used = clock
        return 1


class StreamBufferAssist(AssistInterface):
    """A small set of sequential stream buffers ahead of L1.

    On an L1 miss the buffers are probed; a head hit promotes the line
    into L1 (one-cycle penalty) and the stream runs one line further.
    A miss in all buffers reallocates the least-recently-used buffer to
    a new stream starting after the missing line.  Purely additive —
    like the victim cache it never bypasses or captures evictions.
    """

    def __init__(
        self,
        machine: MachineParams,
        buffers: int = 4,
        depth: int = 4,
    ):
        if buffers <= 0 or depth <= 0:
            raise ValueError("buffers and depth must be positive")
        self.enabled = True
        self.machine = machine
        self._buffers = [_StreamBuffer(depth) for _ in range(buffers)]
        self._depth = depth
        self._clock = 0
        self._hits = 0
        self._prefetched = 0

    # -- AssistInterface ------------------------------------------------

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

    def fill_decision(
        self, addr: int, victim_line: Optional[int]
    ) -> FillDecision:
        return _CACHE_NORMALLY

    def accept_bypassed(
        self, addr: int, block: CacheBlock
    ) -> Optional[CacheBlock]:
        return block  # never requested

    def on_l1_evict(self, block: CacheBlock) -> Optional[CacheBlock]:
        return block

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
        return 0

    @property
    def prefetched_blocks(self) -> int:
        return self._prefetched

    @property
    def occupancy(self) -> int:
        """Lines currently queued across the stream buffers."""
        return sum(len(buffer.lines) for buffer in self._buffers)
