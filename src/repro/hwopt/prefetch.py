"""Stream-buffer prefetching (Jouppi, ISCA 1990 — the same paper as the
victim cache).

An *extension* mechanism beyond the paper's two evaluated assists: the
paper's Section 1.1 lists hardware prefetching among the candidate
run-time techniques, and stream buffers are the era-appropriate
implementation.  Each buffer prefetches a run of sequential lines after
a miss; a later miss that hits a buffer head is served quickly and the
buffer advances.  Like the victim cache it is a miss-stream filter
(:mod:`repro.memory.assist`): a buffer hit installs the line in L1 with
the same dirty bit an L2 fill would give it, and a prefetch never
touches L2's tags, so the buffers change only where a miss is served
from.  The selective ON/OFF framework gates it exactly like the bypass
and victim mechanisms — useful for "what if the hardware were X"
ablations.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter

import numpy as np

from repro.memory.assist import AssistInterface
from repro.params import MachineParams

__all__ = ["StreamBufferAssist"]

_LAST_USED = attrgetter("last_used")


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
    Buffer recency is kept on a clock that ticks once per data access
    made with the gate on.
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

    def filter_misses(self, cache, lines, evicted, evicted_dirty, on, pos):
        """Run the buffers over the misses whose gate is on, in order.

        Each such miss sees the clock after its own access's tick: the
        clock at entry plus the accesses with the gate on up to and
        including it.  A hit advances its buffer; a miss in all of them
        restarts the least recently used one just past the missing
        line, filling it from empty on its first use.  L1's evictions
        are untouched, so every dirty one is written back.
        """
        ticks = np.cumsum(on)
        probed = np.flatnonzero(on[pos])
        clocks = (self._clock + ticks[pos[probed]]).tolist()
        self._clock += int(ticks[-1])
        buffers, depth = self._buffers, self._depth
        hit_idx, grow_idx, grow = [], [], []
        prefetched = self._prefetched
        for i, line, clock in zip(
            probed.tolist(), lines[probed].tolist(), clocks
        ):
            for buffer in buffers:
                if buffer.lines and buffer.lines[0] == line:
                    hit_idx.append(i)
                    prefetched += buffer.advance(clock)
                    break
            else:
                victim = min(buffers, key=_LAST_USED)
                if len(victim.lines) < depth:
                    grow_idx.append(i)
                    grow.append(depth - len(victim.lines))
                prefetched += victim.allocate(line + 1, depth, clock)
        self._prefetched = prefetched
        self._hits += len(hit_idx)

        served = np.zeros(lines.size, dtype=bool)
        served[hit_idx] = True
        occupancy = np.zeros(lines.size, dtype=np.int64)
        occupancy[grow_idx] = grow
        wb_idx = np.flatnonzero(evicted_dirty)
        return served, wb_idx, evicted[wb_idx], occupancy

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
