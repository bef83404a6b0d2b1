"""Exact Mattson LRU stack distances of a whole trace, in one numpy pass.

The stack (reuse) distance of a reference is the number of *distinct
other* lines touched since the previous reference to the same line —
equivalently the line's 0-based depth in an LRU stack at the moment of
the access.  0 means immediate reuse; a first touch is :data:`COLD`.

:func:`stack_distances` computes every distance of a trace at once,
offline, instead of walking an LRU stack reference by reference.  With
``p`` the previous reference to the line of reference ``i``:

    d(i) = (i - p - 1) - #{j : p < j, next(j) < i}

The window between ``p`` and ``i`` holds ``i - p - 1`` references; each
one whose line is touched again inside the window is a repeat, not a
new distinct line.  Each such ``j`` is the start of a reuse interval
``(j, next(j))`` nested inside ``(p, i)``.  Number the reuses in trace
order: reuse ``k`` nests inside reuse ``k'`` exactly when ``k < k'``
and ``start(k) > start(k')``, so the subtracted term is, per reuse, an
inversion count of the start column:

    #{k' < k : start(k') > start(k)} = k - #{k' < k : start(k') < start(k)}

The last count is taken for all reuses together by a wavelet matrix
over the reuse numbers in start order: one stable partition per bit of
``k``, ``log2(reuses)`` levels of whole-column numpy operations.  Time
is O(N log N) for an N-reference trace and memory a few integer
columns of length N; no Python code runs per reference.

The per-access Fenwick-tree LRU stack this replaces is kept as the
reference oracle in ``tests/locality/oracle.py``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["COLD", "stack_distances"]

#: Sentinel distance for a first touch (compulsory / cold access).
COLD = -1

#: Bit offset of a reuse's number in the packed partition column.
_NUMBER = 32


def stack_distances(lines) -> np.ndarray:
    """Stack distance of every reference of ``lines``, as an int64 column.

    ``lines`` is the sequence of cache-line ids touched, in trace
    order.  Entry ``i`` of the result is :data:`COLD` for the first
    touch of a line, otherwise the number of distinct other lines
    touched since the previous reference to the same line.  Positions
    and counts are held in 32 bits, so a trace of ``2**31`` or more
    references is refused with ``ValueError``.
    """
    lines = np.asarray(lines, dtype=np.int64)
    n = lines.size
    if n >= 1 << 31:
        raise ValueError(f"{n} references; at most 2**31 - 1 are supported")
    # Sort the references by line, in trace order within a line: the
    # (line group, position) keys are unique, so a plain sort orders
    # them.  Columns are freed as soon as they are spent, and counts
    # are int32, to keep the peak to a few words per reference.
    order = np.argsort(lines)
    ordered = lines[order]
    same = ordered[1:] == ordered[:-1]
    del ordered
    key = np.zeros(n, dtype=np.int64)
    np.cumsum(~same, out=key[1:])
    key *= n
    key += order
    del order
    key.sort()
    key %= n
    # Each reuse (``later``) and the previous reference to its line.
    later = key[1:][same]
    earlier = key[:-1][same]
    del key, same
    m = later.size
    if not m:
        return np.full(n, COLD, dtype=np.int64)
    reused = np.zeros(n, dtype=bool)
    reused[later] = True
    # Reuses are numbered in trace order.
    number = np.cumsum(reused, dtype=np.int32)
    number -= 1
    pair_number = number[later]
    later -= earlier
    later -= 1
    window = np.empty(m, dtype=np.int32)
    window[pair_number] = later
    del later
    number.fill(-1)
    number[earlier] = pair_number
    del earlier, pair_number
    # Reuse numbers in start order, padded with the numbers m..size-1
    # (they start after every real reuse) to a power of two, so every
    # row of every level below holds as many 0 bits as 1 bits.  One
    # word per reuse: its number above bit 32, and below it the count
    # of reuses with a smaller number and an earlier start found so
    # far (at most m, far below 2**32).
    levels = (m - 1).bit_length()
    size = 1 << levels
    half = size >> 1
    column = np.empty(size, dtype=np.int64)
    column[:m] = number[number >= 0]
    del number
    column[m:] = np.arange(m, size)
    column <<= _NUMBER
    partitioned = np.empty_like(column)
    ranks = np.arange(half, dtype=np.int32)
    for level in range(levels - 1, -1, -1):
        # Rows of 2**(level+1) positions hold the reuses that share the
        # number bits above ``level``, in start order.  A reuse with a
        # 1 bit here counts the 0 bits before it in its row; the stable
        # partition (0s first) then splits every row in two.
        bit = (column & (1 << (_NUMBER + level))) != 0
        ones = np.flatnonzero(bit)
        zeros = np.flatnonzero(np.logical_not(bit, out=bit))
        del bit
        np.take(column, zeros, out=partitioned[:half], mode="clip")
        np.take(column, ones, out=partitioned[half:], mode="clip")
        # ``ones - ranks`` 0s precede each 1 in the column, and each
        # earlier row holds 2**level of them.
        np.right_shift(ones, level + 1, out=zeros)
        np.left_shift(zeros, level, out=zeros)
        ones -= zeros
        ones -= ranks
        partitioned[half:] += ones
        del zeros, ones
        column, partitioned = partitioned, column
    np.right_shift(column, _NUMBER, out=partitioned)
    column &= (1 << _NUMBER) - 1
    earlier_starts = np.empty(size, dtype=np.int32)
    earlier_starts[partitioned] = column
    del column, partitioned
    # d = window - nested, nested = k - earlier_starts[k].
    window -= np.arange(m, dtype=np.int32)
    window += earlier_starts[:m]
    distances = np.full(n, COLD, dtype=np.int64)
    distances[reused] = window
    return distances
