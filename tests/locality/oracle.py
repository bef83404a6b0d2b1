"""The per-access LRU stack, kept as the stack-distance kernel's oracle.

:class:`ReuseStackEngine` is the Mattson LRU stack that
:mod:`repro.locality` ran before every stack distance of a trace was
computed in one numpy pass
(:func:`~repro.locality.stack.stack_distances`): one
:meth:`~ReuseStackEngine.access` call per reference, indexed by a
Fenwick tree over timestamps (Bennett & Kruskal / Almási et al.).
Every line remembers the timestamp of its most recent access, and the
tree holds a 1 at exactly the positions that are *currently* some
line's most recent access; the stack distance of an access is the
number of set positions *after* the line's previous timestamp — one
prefix-sum query, O(log M) amortized over M distinct lines.  The
timeline is compacted whenever it fills.

* :func:`stack_distances`, :func:`distance_histogram` and
  :func:`split_profiles` — the production entry points as they were,
  reference by reference through the engine;
* :func:`lru_distances` — the O(N·M) recency-list scan, a second,
  independent ground truth for the engine itself.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.isa.instructions import Opcode
from repro.isa.packed import AnyTrace, as_packed
from repro.locality.mrc import DistanceHistogram
from repro.locality.profile import LocalityProfile, RegionProfile
from repro.locality.stack import COLD

__all__ = [
    "ReuseStackEngine",
    "distance_histogram",
    "lru_distances",
    "split_profiles",
    "stack_distances",
]

_LOAD = int(Opcode.LOAD)
_STORE = int(Opcode.STORE)
_HW_ON = int(Opcode.HW_ON)
_HW_OFF = int(Opcode.HW_OFF)

_MIN_CAPACITY = 1024


class ReuseStackEngine:
    """Exact LRU stack distances, one :meth:`access` call per reference."""

    __slots__ = ("_tree", "_capacity", "_time", "_last")

    def __init__(self) -> None:
        self._capacity = _MIN_CAPACITY
        self._tree = [0] * (self._capacity + 1)
        self._time = 0  # last timestamp handed out (1-based positions)
        self._last: dict[int, int] = {}  # line -> its latest timestamp

    @property
    def live_lines(self) -> int:
        """Distinct lines seen so far (the LRU stack depth)."""
        return len(self._last)

    def access(self, line: int) -> int:
        """Record one access; return its stack distance (or :data:`COLD`).

        The distance is the number of *distinct other* lines accessed
        since the previous access to ``line`` — equivalently the line's
        0-based depth in the LRU stack at the moment of the access.
        """
        if self._time >= self._capacity:
            self._compact()
        tree = self._tree
        now = self._time + 1
        self._time = now
        last = self._last
        prev = last.get(line)
        if prev is None:
            distance = COLD
        else:
            # prefix(prev) = live lines whose latest access is <= prev
            # (including this line itself), so the lines *above* it on
            # the stack are the remainder.
            prefix = 0
            i = prev
            while i > 0:
                prefix += tree[i]
                i -= i & -i
            distance = len(last) - prefix
            # Clear the stale position.
            i = prev
            capacity = self._capacity
            while i <= capacity:
                tree[i] -= 1
                i += i & -i
        # Mark the new most-recent position.
        i = now
        capacity = self._capacity
        while i <= capacity:
            tree[i] += 1
            i += i & -i
        last[line] = now
        return distance

    def depth(self, line: int) -> int:
        """Current stack depth of ``line`` without touching it (or COLD)."""
        prev = self._last.get(line)
        if prev is None:
            return COLD
        tree = self._tree
        prefix = 0
        i = prev
        while i > 0:
            prefix += tree[i]
            i -= i & -i
        return len(self._last) - prefix

    def _compact(self) -> None:
        """Renumber live lines 1..M in recency order; resize the tree.

        Amortized cost: a compaction of M live lines is paid for by the
        >= M accesses that filled the timeline since the previous one.
        """
        order = sorted(self._last, key=self._last.__getitem__)
        live = len(order)
        capacity = _MIN_CAPACITY
        while capacity < 2 * live:
            capacity *= 2
        tree = [0] * (capacity + 1)
        last = {}
        for position, line in enumerate(order, start=1):
            last[line] = position
            # Point update; building all-ones incrementally is O(M log M),
            # dominated by the sort above.
            i = position
            while i <= capacity:
                tree[i] += 1
                i += i & -i
        self._tree = tree
        self._capacity = capacity
        self._time = live
        self._last = last


def stack_distances(lines) -> list[int]:
    """Stack distance of every reference, one engine access each."""
    engine = ReuseStackEngine()
    return [engine.access(int(line)) for line in lines]


def lru_distances(lines) -> list[int]:
    """O(N·M) recency-list scan: the pre-engine ground truth."""
    stack: OrderedDict[int, None] = OrderedDict()
    out = []
    for line in lines:
        if line in stack:
            distance = 0
            for key in reversed(stack):
                if key == line:
                    break
                distance += 1
            out.append(distance)
            stack.move_to_end(line)
        else:
            out.append(COLD)
            stack[line] = None
    return out


def _recorder(histogram: DistanceHistogram):
    """Count one distance into ``histogram`` per call."""
    counts = histogram.counts

    def record(distance: int) -> None:
        if distance == COLD:
            histogram.cold += 1
        else:
            counts[distance] = counts.get(distance, 0) + 1

    return record


def distance_histogram(
    trace: AnyTrace,
    line_size: int = 32,
    engine: ReuseStackEngine | None = None,
) -> DistanceHistogram:
    """Stack-distance histogram of a trace's memory references, one pass.

    ``engine`` lets callers thread one LRU stack through several trace
    segments; by default a fresh stack is used, i.e. the first touch of
    every line is cold.
    """
    engine = engine or ReuseStackEngine()
    histogram = DistanceHistogram()
    access = engine.access
    record = _recorder(histogram)
    ops, args, _pcs = as_packed(trace).columns()
    for op, arg in zip(ops, args):
        if op == _LOAD or op == _STORE:
            record(access(arg // line_size))
    return histogram


def split_profiles(
    trace: AnyTrace,
    line_size: int = 32,
    initially_on: bool = False,
) -> LocalityProfile:
    """Profile a trace per region, single pass, shared LRU stack."""
    engine = ReuseStackEngine()
    access = engine.access
    regions: list[RegionProfile] = [RegionProfile(0, initially_on, 0)]
    record = _recorder(regions[0].histogram)
    gate_on = initially_on
    trace = as_packed(trace)
    ops, args, _pcs = trace.columns()
    for offset, (op, arg) in enumerate(zip(ops, args)):
        if op == _LOAD or op == _STORE:
            record(access(arg // line_size))
        elif op == _HW_ON or op == _HW_OFF:
            gate_on = op == _HW_ON
            region = RegionProfile(len(regions), gate_on, offset)
            regions.append(region)
            record = _recorder(region.histogram)
    return LocalityProfile(trace.name, line_size, regions)
