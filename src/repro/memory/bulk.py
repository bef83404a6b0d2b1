"""Block-batched replay kernels for caches and TLBs.

These are the memory-side half of the vectorized simulator path
(:mod:`repro.cpu.vector`).  Each kernel replays a whole span's access
stream against the *live* structures the scalar loop uses — the same
``OrderedDict`` sets, statistics counters and shadow state — so scalar
fallback segments can resume mid-trace with nothing lost.

The key decompositions, each exact rather than approximate:

* **Per-set independence.**  A set-associative LRU cache's behaviour
  factorises over sets: the outcome of every access depends only on
  the sub-sequence of accesses to its own set.  Kernels stable-sort
  the access stream by set index (a 1-byte radix sort — set counts are
  tiny) and replay each set's sub-sequence in one tight loop over a
  plain dict keyed by line, whose insertion order is the LRU order:
  ``pop`` + reinsert is a move-to-MRU, ``pop(next(iter(d)))`` is an
  LRU eviction, so every replay step is one or two C-level dict
  operations.

* **Run collapsing.**  Within one set's sub-sequence, consecutive
  accesses to the same line after the first are guaranteed hits that
  leave the LRU order unchanged (the line is already most recent), so
  only the first access of each run is replayed; the rest are counted
  as hits in bulk.  Dirty bits fold the run's writes with a single OR.

* **Resident-working-set fast path.**  If the distinct lines of a
  set's sub-sequence plus the lines already resident all fit in the
  set (``<= assoc`` total), nothing is ever evicted, so the LRU order
  is irrelevant to the outcome: the misses are exactly the first
  occurrences of not-yet-resident lines, dirty bits fold per line,
  and the final LRU order is the lines sorted by last access — all
  computable with ``np.unique``/``np.bincount`` and no per-access
  loop.  This removes the replay loop entirely for instruction-side
  streams and quiet TLB sets, whose working sets are tiny.

* **Order-tagged L2 events.**  L1 misses and dirty writebacks from
  different L1 sets interleave at L2 in trace order, so each kernel
  emits its L2 traffic as ``(record position, sequence)``-tagged event
  columns; the caller sorts the merged stream once and
  :func:`replay_l2` applies the same per-set replay to it.

* **Victim caches as miss-stream filters.**  A victim hit refills the
  primary cache with the same fill a next-level fill would do, so the
  per-set replays above are exact with victim caches attached; each
  replay reports every miss's evicted line, and
  :func:`filter_victims` runs the live victim cache over those misses
  in order, settling victim hits, dirty bits and writebacks.

* **A record-order L1 filter for placement-deciding assists.**
  Bypassing decides on each L1 miss whether the line is installed, so
  L1 no longer factorises over sets.  But the MAT, the SLDT and the
  bypass buffer never read L2 or the TLBs, and L2 never feeds back
  into them, so the assist's ``filter_l1`` runs only the L1D lookups
  and fills in record order; L2 and the TLBs are still replayed per
  set from the misses and writebacks it emits.  The default,
  :func:`filter_assist`, calls the live assist's own hooks (stream
  buffers take it); the bypass assist runs a fused loop with its
  tables inline (``repro.hwopt.controller.CacheBypassAssist``).

Latency never feeds back into any of these structures, which is what
makes the phase split legal — see the bit-identity note in
:mod:`repro.cpu.pipeline`.  The split is in the code's structure too:
no kernel here reads a latency, and ``MemoryHierarchy.bulk_classify``
returns per-access outcome codes (where each access was served from,
and whether its TLB missed), which
:func:`repro.memory.hierarchy.outcome_timing` alone turns into cycles.
So one replay serves every machine that differs only in timing fields.
``repro.core.experiment.simulate_trace`` keeps the whole-trace replay
of each run whose every span took these kernels (a packed trace, no
telemetry; a marker heads the span after it, so its fetch rides in
that span's replay) on the trace, one per assist setting, and reruns
only the timing fold when the same trace object meets such a machine
next: Table 3's "Higher Mem. Lat." after the base machine.  A run on
another cache structure replaces the setting's replay.  It does not
cover:

* runs with a span under ``repro.cpu.vector.MIN_VECTOR_SPAN``, which
  the scalar loop takes (tpcc's selective trace at TINY);
* reusing the L1 side for machines that change only L2;
* cells run in forked workers (the service, and ``jobs > 1``), where
  each cell's process sees each trace once.
"""

from __future__ import annotations

from array import array
from itertools import count, repeat

import numpy as np

from repro.memory.assist import ASSIST_HIT_CYCLES
from repro.memory.block import CacheBlock

__all__ = [
    "counter_steps",
    "steps_before",
    "replay_tlb",
    "replay_cache",
    "replay_l2",
    "filter_victims",
    "filter_assist",
    "working_lrus",
    "commit_filter",
    "replay_shadow",
]

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_BOOL = np.empty(0, dtype=bool)

#: Sentinel distinguishing "absent" from any stored dirty flag.
_MISS = object()

#: Segments shorter than this skip the fast-path probe: the fixed cost
#: of the ``np.unique`` calls exceeds a short dict loop.
_FAST_PATH_MIN = 64

#: Accesses of a segment's head scanned to cheaply rule the fast path
#: out: a working set larger than any real associativity shows up
#: within a few distinct lines.
_FAST_PROBE = 96

#: Accesses converted to Python ints at a time by the record-order L1
#: filters, so a long span never holds whole-span lists.
CHUNK = 4096


def _set_order(sets: np.ndarray, num_sets: int):
    """Stable sort permutation of a set-index column plus its segments.

    Returns ``(order, seg_starts, set_ids)`` — the stable argsort of
    ``sets``, the start offset of each non-empty set's segment in the
    sorted stream, and the corresponding set indices.  Set indices are
    tiny, so narrowing the dtype first turns numpy's stable radix sort
    into a one- or two-pass counting sort, and a ``bincount`` yields
    the segment layout without gathering or comparing the sorted
    column.
    """
    if num_sets <= 256:
        sets = sets.astype(np.uint8)
    elif num_sets <= 65536:
        sets = sets.astype(np.uint16)
    order = np.argsort(sets, kind="stable")
    counts = np.bincount(sets, minlength=num_sets)
    set_ids = np.nonzero(counts)[0]
    seg_starts = (np.cumsum(counts) - counts)[set_ids]
    return order, seg_starts, set_ids


def counter_steps(pos: np.ndarray, weights=None):
    """One sampled counter's increments over a span, as a step function.

    ``pos`` holds the record position of each increment and ``weights``
    its size (None: one each).  Returns ``(pos, cum)`` sorted by
    position, with ``cum[k]`` the sum of the first ``k`` increments
    (None when they are all one, as ``cum[k]`` is then ``k``); see
    :func:`steps_before`.
    """
    if (pos[1:] < pos[:-1]).any():
        if weights is None:
            pos = np.sort(pos)
        else:
            order = np.argsort(pos, kind="stable")
            pos, weights = pos[order], weights[order]
    if weights is None:
        return pos, None
    cum = np.zeros(pos.size + 1, dtype=np.int64)
    np.cumsum(weights, out=cum[1:])
    return pos, cum


def steps_before(steps, records: np.ndarray) -> np.ndarray:
    """A counter's change over the records before each of ``records``.

    ``steps`` comes from :func:`counter_steps`.  An interval sample is
    taken before its record runs, so only increments at earlier
    positions count (``side='left'``).
    """
    pos, cum = steps
    k = np.searchsorted(pos, records)
    return k if cum is None else cum[k]


def _fast_path_lines(seg: np.ndarray, resident, assoc: int):
    """Resolve a set segment whose working set fits without evictions.

    ``resident`` is the set's live mapping (line -> value).  Returns
    None when the union of resident and streamed lines exceeds
    ``assoc`` (the caller must run the sequential replay), else
    ``(new_lines, first_idx, u, last_order)``:

    * ``new_lines``/``first_idx`` — not-yet-resident lines and the
      segment offsets of their first occurrences (the misses);
    * ``u`` — the distinct streamed lines (sorted);
    * ``last_order`` — indices into ``u`` ordering the streamed lines
      by last access (the tail of the final LRU order).

    Probes a short head of the segment first so streams with large
    working sets (data caches) bail out after a few distinct lines
    instead of paying two full ``np.unique`` sorts.
    """
    head = set(seg[:_FAST_PROBE].tolist())
    head.update(resident)
    if len(head) > assoc:
        return None
    u, first_idx = np.unique(seg, return_index=True)
    if u.size > assoc or len(set(u.tolist()) | set(resident)) > assoc:
        return None
    rev_first = np.unique(seg[::-1], return_index=True)[1]
    last_order = np.argsort(seg.size - 1 - rev_first, kind="stable")
    new = np.array(
        [ln not in resident for ln in u.tolist()], dtype=bool
    )
    return u[new], first_idx[new], u, last_order


def replay_tlb(tlb, pages: np.ndarray) -> np.ndarray:
    """Replay a page-number stream against a live TLB.

    Exactly equivalent to calling ``tlb.lookup`` per access; returns
    the per-access miss flags (in input order) and leaves the TLB's
    sets, access and miss counters as the scalar loop would.
    """
    n = pages.size
    tlb.accesses += n
    if n == 0:
        return _EMPTY_BOOL

    # Pre-collapse consecutive same-page accesses before any sorting:
    # they are guaranteed hits that leave the (already-MRU) page in
    # place, and page streams are dominated by such runs, so this
    # shrinks the sort and replay to the page-change points.
    chg = np.empty(n, dtype=bool)
    chg[0] = True
    np.not_equal(pages[1:], pages[:-1], out=chg[1:])
    chg_idx = np.nonzero(chg)[0]
    pre = chg_idx.size < n
    if pre:
        pages = pages[chg_idx]

    num_sets = tlb._num_sets
    if num_sets & (num_sets - 1) == 0:
        sets = pages & (num_sets - 1)
    else:
        sets = pages % num_sets
    order, seg_starts, set_id_arr = _set_order(sets, num_sets)
    spages = pages[order]
    nc = spages.size
    new_rep = np.empty(nc, dtype=bool)
    new_rep[0] = True
    np.not_equal(spages[1:], spages[:-1], out=new_rep[1:])
    new_rep[seg_starts] = True
    rep_idx = np.nonzero(new_rep)[0]
    m = rep_idx.size
    collapsed = m < nc
    rep_pages_arr = spages[rep_idx] if collapsed else spages
    if collapsed:
        starts = np.searchsorted(rep_idx, seg_starts).tolist()
    else:
        starts = seg_starts.tolist()
    set_ids = set_id_arr.tolist()
    starts.append(m)

    assoc = tlb._assoc
    tlb_sets = tlb._sets
    miss_rep: list = []
    miss_append = miss_rep.append
    for k, set_id in enumerate(set_ids):
        a, b = starts[k], starts[k + 1]
        tlb_set = tlb_sets[set_id]
        if b - a >= _FAST_PATH_MIN:
            fast = _fast_path_lines(rep_pages_arr[a:b], tlb_set, assoc)
            if fast is not None:
                new_pages, first_idx, u, last_order = fast
                miss_rep.extend((a + first_idx).tolist())
                accessed = set(u.tolist())
                kept = [p for p in tlb_set if p not in accessed]
                tlb_set.clear()
                for p in kept:
                    tlb_set[p] = None
                for j in last_order.tolist():
                    tlb_set[int(u[j])] = None
                continue
        if assoc == 4:
            # Unrolled four-way LRU over bare page numbers (see
            # replay_cache); evicted pages need no bookkeeping.
            l0, l1, l2, l3 = [-1] * (4 - len(tlb_set)) + list(tlb_set)
            i = a
            for page in rep_pages_arr[a:b].tolist():
                if page == l3:
                    pass
                elif page == l2:
                    l2, l3 = l3, page
                elif page == l1:
                    l1, l2, l3 = l2, l3, page
                elif page == l0:
                    l0, l1, l2, l3 = l1, l2, l3, page
                else:
                    l0, l1, l2, l3 = l1, l2, l3, page
                    miss_append(i)
                i += 1
            tlb_set.clear()
            for page in (l0, l1, l2, l3):
                if page != -1:
                    tlb_set[page] = None
            continue
        lru = dict(tlb_set)
        pop = lru.pop
        size = len(lru)
        i = a
        for page in rep_pages_arr[a:b].tolist():
            if pop(page, _MISS) is _MISS:
                if size >= assoc:
                    pop(next(iter(lru)))
                else:
                    size += 1
                miss_append(i)
            lru[page] = None
            i += 1
        tlb_set.clear()
        tlb_set.update(lru)

    tlb.misses += len(miss_rep)
    miss_sorted = np.zeros(spages.size, dtype=bool)
    if miss_rep:
        miss_rep_arr = np.array(miss_rep, dtype=np.int64)
        miss_sorted[rep_idx[miss_rep_arr] if collapsed else miss_rep_arr] = (
            True
        )
    miss_chg = np.empty(spages.size, dtype=bool)
    miss_chg[order] = miss_sorted
    if not pre:
        return miss_chg
    miss = np.zeros(n, dtype=bool)
    miss[chg_idx] = miss_chg
    return miss


def _dirty_mask(miss_rep: np.ndarray, dirty_rep: list) -> np.ndarray:
    """Per-miss flags marking the misses listed in ``dirty_rep``.

    Both come from one replay loop, so ``dirty_rep`` is an increasing
    subsequence of ``miss_rep``.  ``miss_rep`` ascends except inside a
    no-eviction fast-path segment (its misses come in line order), but
    such a segment owns a contiguous index range and holds no entry of
    ``dirty_rep``, so a binary search still finds every entry exactly.
    """
    mask = np.zeros(miss_rep.size, dtype=bool)
    if dirty_rep:
        mask[np.searchsorted(miss_rep, dirty_rep)] = True
    return mask


def replay_cache(cache, lines: np.ndarray, writes, need_hits: bool = True):
    """Replay a line-number stream against a live set-associative cache.

    Equivalent to ``lookup(addr, w)`` per access followed by
    ``fill(addr, dirty=w)`` after each miss (the no-assist demand
    path).  ``writes`` is a bool column, or None for a read-only
    stream (instruction fetch).

    Returns ``(hit, miss_pos, miss_lines, evicted, evicted_dirty)``:

    * ``hit`` — per-access hit flags, input order (``None`` unless
      ``need_hits``; only the shadow classifier consumes them);
    * ``miss_pos``/``miss_lines`` — stream positions and line numbers
      of the demand misses (each needs a next-level access and fill);
    * ``evicted``/``evicted_dirty`` — aligned with the misses: the line
      each miss's fill evicted (-1 if it took a free way), and whether
      that line was written while resident (dirty at span entry, or
      written since its fill).  Without an assist the dirty ones are
      exactly the writebacks; a victim cache captures all of them.

    Event columns are NOT chronologically ordered across sets; callers
    order the merged next-level stream by the original record
    positions.  Shadow-based miss classification is not applied here —
    call :func:`replay_shadow` afterwards (it needs global order).
    """
    n = lines.size
    stats = cache.stats
    stats.accesses += n
    if n == 0:
        hit = _EMPTY_BOOL if need_hits else None
        return hit, _EMPTY_I64, _EMPTY_I64, _EMPTY_I64, _EMPTY_BOOL
    mask = cache._set_mask
    num_sets = cache._num_sets
    sets = lines & mask if mask >= 0 else lines % num_sets
    order, seg_starts, set_id_arr = _set_order(sets, num_sets)
    slines = lines[order]
    new_rep = np.empty(n, dtype=bool)
    new_rep[0] = True
    np.not_equal(slines[1:], slines[:-1], out=new_rep[1:])
    new_rep[seg_starts] = True
    rep_idx = np.nonzero(new_rep)[0]
    m = rep_idx.size
    collapsed = m < n

    if collapsed:
        rep_lines_arr = slines[rep_idx]
        if writes is None:
            rep_write_arr = None
        else:
            rep_write_arr = np.logical_or.reduceat(writes[order], rep_idx)
        starts = np.searchsorted(rep_idx, seg_starts).tolist()
    else:
        # No collapsed runs (common for strided data streams): the rep
        # stream IS the sorted stream, so skip every gather.
        rep_lines_arr = slines
        rep_write_arr = None if writes is None else writes[order]
        starts = seg_starts.tolist()
    set_ids = set_id_arr.tolist()
    starts.append(m)

    assoc = cache._assoc
    cache_sets = cache._sets
    # Per miss: its rep index and the line its fill evicted (-1 for a
    # free way; a machine-word array, so the per-miss line objects are
    # not kept alive); dirty evictions also log their rep index.
    miss_rep: list = []
    miss_append = miss_rep.append
    evicted_list = array("q")
    evicted_append = evicted_list.append
    dirty_rep: list = []
    dirty_append = dirty_rep.append
    for k, set_id in enumerate(set_ids):
        a, b = starts[k], starts[k + 1]
        od = cache_sets[set_id]
        if b - a >= _FAST_PATH_MIN:
            fast = _fast_path_lines(rep_lines_arr[a:b], od, assoc)
            if fast is not None:
                new_lines, first_idx, u, last_order = fast
                miss_rep.extend((a + first_idx).tolist())
                evicted_list.extend([-1] * first_idx.size)
                if rep_write_arr is None:
                    dirty_u = np.zeros(u.size, dtype=bool)
                else:
                    inv = np.searchsorted(u, rep_lines_arr[a:b])
                    dirty_u = (
                        np.bincount(
                            inv,
                            weights=rep_write_arr[a:b],
                            minlength=u.size,
                        )
                        > 0
                    )
                accessed = set(u.tolist())
                kept = [
                    (ln, blk.dirty)
                    for ln, blk in od.items()
                    if ln not in accessed
                ]
                prior = {
                    ln: blk.dirty
                    for ln, blk in od.items()
                    if ln in accessed
                }
                od.clear()
                for ln, dirty in kept:
                    od[ln] = CacheBlock(ln, dirty)
                for j in last_order.tolist():
                    ln = int(u[j])
                    dirty = bool(dirty_u[j]) or prior.get(ln, False)
                    od[ln] = CacheBlock(ln, dirty)
                continue
        if assoc == 4:
            # Four-way sets (every cache in Table 1) unroll the LRU
            # into four local (line, dirty) slot pairs, l0 = LRU …
            # l3 = MRU, with -1 marking an empty way (line numbers are
            # non-negative).  Hits are 1-4 int compares plus a tuple
            # rotation; a miss shifts the victim out of l0 — no
            # hashing, no iterator allocation.
            (l0, d0), (l1, d1), (l2, d2), (l3, d3) = [(-1, False)] * (
                4 - len(od)
            ) + [(ln, blk.dirty) for ln, blk in od.items()]
            i = a
            if rep_write_arr is None:
                for ln in rep_lines_arr[a:b].tolist():
                    if ln == l3:
                        pass
                    elif ln == l2:
                        l2, l3, d2, d3 = l3, ln, d3, d2
                    elif ln == l1:
                        l1, l2, l3 = l2, l3, ln
                        d1, d2, d3 = d2, d3, d1
                    elif ln == l0:
                        l0, l1, l2, l3 = l1, l2, l3, ln
                        d0, d1, d2, d3 = d1, d2, d3, d0
                    else:
                        if d0:  # empty ways are (-1, False)
                            dirty_append(i)
                        evicted_append(l0)
                        l0, l1, l2, l3 = l1, l2, l3, ln
                        d0, d1, d2, d3 = d1, d2, d3, False
                        miss_append(i)
                    i += 1
            else:
                for ln, w in zip(
                    rep_lines_arr[a:b].tolist(),
                    rep_write_arr[a:b].tolist(),
                ):
                    if ln == l3:
                        d3 = d3 or w
                    elif ln == l2:
                        l2, l3, d2, d3 = l3, ln, d3, d2 or w
                    elif ln == l1:
                        l1, l2, l3 = l2, l3, ln
                        d1, d2, d3 = d2, d3, d1 or w
                    elif ln == l0:
                        l0, l1, l2, l3 = l1, l2, l3, ln
                        d0, d1, d2, d3 = d1, d2, d3, d0 or w
                    else:
                        if d0:  # empty ways are (-1, False)
                            dirty_append(i)
                        evicted_append(l0)
                        l0, l1, l2, l3 = l1, l2, l3, ln
                        d0, d1, d2, d3 = d1, d2, d3, w
                        miss_append(i)
                    i += 1
            od.clear()
            for line, dirty in (
                (l0, d0), (l1, d1), (l2, d2), (l3, d3)
            ):
                if line != -1:
                    od[line] = CacheBlock(line, dirty)
            continue
        # Working LRU: line -> dirty flag, insertion order = LRU order.
        lru = {line: block.dirty for line, block in od.items()}
        pop = lru.pop
        size = len(lru)
        i = a
        if rep_write_arr is None:
            for ln in rep_lines_arr[a:b].tolist():
                prev = pop(ln, _MISS)
                if prev is _MISS:
                    if size >= assoc:
                        victim = next(iter(lru))
                        if pop(victim):
                            dirty_append(i)
                        evicted_append(victim)
                    else:
                        size += 1
                        evicted_append(-1)
                    lru[ln] = False
                    miss_append(i)
                else:
                    lru[ln] = prev
                i += 1
        else:
            for ln, w in zip(
                rep_lines_arr[a:b].tolist(), rep_write_arr[a:b].tolist()
            ):
                prev = pop(ln, _MISS)
                if prev is _MISS:
                    if size >= assoc:
                        victim = next(iter(lru))
                        if pop(victim):
                            dirty_append(i)
                        evicted_append(victim)
                    else:
                        size += 1
                        evicted_append(-1)
                    lru[ln] = w
                    miss_append(i)
                else:
                    lru[ln] = prev or w
                i += 1
        od.clear()
        for line, dirty in lru.items():
            od[line] = CacheBlock(line, dirty)

    misses = len(miss_rep)
    stats.hits += n - misses
    stats.misses += misses
    stats.writebacks += len(dirty_rep)

    miss_rep_arr = np.array(miss_rep, dtype=np.int64)
    if misses:
        miss_sorted_pos = (
            rep_idx[miss_rep_arr] if collapsed else miss_rep_arr
        )
        miss_pos = order[miss_sorted_pos]
        miss_lines = rep_lines_arr[miss_rep_arr]
    else:
        miss_sorted_pos = miss_rep_arr
        miss_pos = _EMPTY_I64
        miss_lines = _EMPTY_I64
    evicted = np.frombuffer(evicted_list, dtype=np.int64)
    stats.evictions += int(np.count_nonzero(evicted >= 0))
    evicted_dirty = _dirty_mask(miss_rep_arr, dirty_rep)

    if need_hits:
        hit_sorted = np.ones(n, dtype=bool)
        if misses:
            hit_sorted[miss_sorted_pos] = False
        hit = np.empty(n, dtype=bool)
        hit[order] = hit_sorted
    else:
        hit = None
    return hit, miss_pos, miss_lines, evicted, evicted_dirty


def replay_l2(cache, memory, lines: np.ndarray, kinds: np.ndarray):
    """Replay a chronological L2 event stream against the live L2.

    ``lines``/``kinds`` must already be in global ``(record position,
    sequence)`` order.  Kind 0 is a demand access (lookup; on a miss,
    a DRAM read plus a clean fill with LRU eviction); kind 1 is an L1
    dirty writeback (probe; present → dirty refresh + move to MRU,
    absent → DRAM write, no fill), exactly mirroring
    ``MemoryHierarchy._access_l2`` / ``_writeback_to_l2`` with no
    assist attached.

    Returns ``(hit, miss_idx, evicted, evicted_dirty, absent_idx)``:
    per-event hit flags in input order (meaningful for demand events;
    writeback entries are padding), the input indices of the demand
    misses (not in input order), aligned with them the line each
    miss's fill evicted and its dirty bit (as in :func:`replay_cache`),
    and the input indices of the writebacks that missed L2 and went
    to DRAM (not in input order).  Updates L2 statistics and the DRAM
    read/write counters as if no assist were attached
    (:func:`filter_victims` callers correct them).
    Shadow classification is left to :func:`replay_shadow` on the
    demand sub-stream.
    """
    n = lines.size
    if n == 0:
        return _EMPTY_BOOL, _EMPTY_I64, _EMPTY_I64, _EMPTY_BOOL, _EMPTY_I64
    mask = cache._set_mask
    num_sets = cache._num_sets
    sets = lines & mask if mask >= 0 else lines % num_sets
    order, seg_starts, set_id_arr = _set_order(sets, num_sets)
    slines = lines[order]
    skinds = kinds[order]
    starts = seg_starts.tolist()
    set_ids = set_id_arr.tolist()
    starts.append(n)

    assoc = cache._assoc
    cache_sets = cache._sets
    hits = 0
    absent: list = []
    absent_append = absent.append
    # Per demand miss, as in replay_cache.
    miss_rep: list = []
    miss_append = miss_rep.append
    evicted_list = array("q")
    evicted_append = evicted_list.append
    dirty_rep: list = []
    dirty_append = dirty_rep.append
    for k, set_id in enumerate(set_ids):
        a, b = starts[k], starts[k + 1]
        od = cache_sets[set_id]
        if assoc == 4:
            # Unrolled four-way LRU (see replay_cache); the extra
            # branch per event distinguishes demand accesses from L1
            # dirty writebacks, which probe without filling.
            (l0, d0), (l1, d1), (l2, d2), (l3, d3) = [(-1, False)] * (
                4 - len(od)
            ) + [(ln, blk.dirty) for ln, blk in od.items()]
            i = a
            for ln, wb in zip(
                slines[a:b].tolist(), skinds[a:b].tolist()
            ):
                if ln == l3:
                    if wb:
                        d3 = True
                    else:
                        hits += 1
                elif ln == l2:
                    l2, l3, d2, d3 = l3, ln, d3, d2 or wb
                    if not wb:
                        hits += 1
                elif ln == l1:
                    l1, l2, l3 = l2, l3, ln
                    d1, d2, d3 = d2, d3, d1 or wb
                    if not wb:
                        hits += 1
                elif ln == l0:
                    l0, l1, l2, l3 = l1, l2, l3, ln
                    d0, d1, d2, d3 = d1, d2, d3, d0 or wb
                    if not wb:
                        hits += 1
                elif wb:
                    # Absent writeback bypasses the cache entirely.
                    absent_append(i)
                else:
                    if d0:  # empty ways are (-1, False)
                        dirty_append(i)
                    evicted_append(l0)
                    l0, l1, l2, l3 = l1, l2, l3, ln
                    d0, d1, d2, d3 = d1, d2, d3, False
                    miss_append(i)
                i += 1
            od.clear()
            for line, dirty in (
                (l0, d0), (l1, d1), (l2, d2), (l3, d3)
            ):
                if line != -1:
                    od[line] = CacheBlock(line, dirty)
            continue
        lru = {line: block.dirty for line, block in od.items()}
        pop = lru.pop
        size = len(lru)
        i = a
        for ln, wb in zip(
            slines[a:b].tolist(), skinds[a:b].tolist()
        ):
            prev = pop(ln, _MISS)
            if prev is _MISS:
                if wb:
                    # Absent writeback bypasses the cache entirely.
                    absent_append(i)
                else:
                    if size >= assoc:
                        victim = next(iter(lru))
                        if pop(victim):
                            dirty_append(i)
                        evicted_append(victim)
                    else:
                        size += 1
                        evicted_append(-1)
                    lru[ln] = False
                    miss_append(i)
            elif wb:
                lru[ln] = True
            else:
                lru[ln] = prev
                hits += 1
            i += 1
        od.clear()
        for line, dirty in lru.items():
            od[line] = CacheBlock(line, dirty)

    stats = cache.stats
    total_demand = n - int(np.count_nonzero(kinds))
    stats.accesses += total_demand
    stats.hits += hits
    stats.misses += total_demand - hits
    evicted = np.frombuffer(evicted_list, dtype=np.int64)
    writebacks = len(dirty_rep)
    stats.evictions += int(np.count_nonzero(evicted >= 0))
    stats.writebacks += writebacks
    memory.reads += len(miss_rep)
    memory.writes += len(absent) + writebacks

    miss_rep_arr = np.array(miss_rep, dtype=np.int64)
    hit_sorted = np.ones(n, dtype=bool)
    hit_sorted[miss_rep_arr] = False
    hit = np.empty(n, dtype=bool)
    hit[order] = hit_sorted
    return (
        hit,
        order[miss_rep_arr],
        evicted,
        _dirty_mask(miss_rep_arr, dirty_rep),
        order[np.array(absent, dtype=np.int64)],
    )


def filter_victims(
    victim, cache, miss_lines, evicted, evicted_dirty, probe=None
):
    """Run a live victim cache over one cache level's replayed misses.

    A victim-cache hit is promoted back with the same ``fill`` a
    next-level fill would do, so the primary cache's tags and LRU order
    never depend on the victim cache and its per-set replay (which
    already produced these misses) stays exact.  Only the victim cache
    itself, the dirty bits and the traffic below depend on it, and this
    sequential pass settles them.  All inputs are per miss of the
    primary ``cache``, in chronological order:

    * ``miss_lines`` — the missing lines;
    * ``evicted``/``evicted_dirty`` — the line each miss's fill evicted
      (-1 if none) and its written-while-resident bit, as returned by
      :func:`replay_cache` / :func:`replay_l2`;
    * ``probe`` — flags for the misses that use the victim cache (probe
      it, and send it the line their fill evicts), or None for all of
      them.  Instruction fetch reaches L2 with no assist.

    Per miss, in order: extract the missing line (a hit promotes the
    victim block's dirty bit into the primary cache), then insert the
    evicted line with dirty = written-while-resident OR promoted-dirty,
    merging into a copy the victim cache already holds.  Mutates the
    victim cache's blocks and statistics, the primary cache's
    writeback counter and the dirty bits of promoted lines still
    resident at the end.

    Returns ``(hit, spill_idx, spill_lines, unprobed_idx, grow_idx)``:
    per-miss victim-hit flags; the miss indices whose insertion
    displaced a dirty victim-cache line and those lines (each needs a
    writeback to the next level); the indices of the misses that do not
    use the victim cache and evict a dirty line (each is written
    straight back); and the indices of the misses whose insertion took
    a free entry.  The victim cache's occupancy changes by one per
    entry of ``grow_idx`` and minus one per hit.
    """
    n = miss_lines.size
    # Working LRU: line -> dirty flag, insertion order = LRU order (as
    # in replay_cache); written back to the live blocks at the end.
    lru = {line: block.dirty for line, block in victim._blocks.items()}
    pop = lru.pop
    size = len(lru)
    capacity = victim.entries
    promoted: set = set()
    hit_idx: list = []
    spill_idx: list = []
    spill_lines: list = []
    unprobed_idx: list = []
    grow_idx: list = []
    probes = displaced = promoted_only = 0
    probe_iter = repeat(True) if probe is None else probe.tolist()
    i = 0
    for ln, uses, ev, dirty in zip(
        miss_lines.tolist(),
        probe_iter,
        evicted.tolist(),
        evicted_dirty.tolist(),
    ):
        if uses:
            probes += 1
            prev = pop(ln, _MISS)
            if prev is not _MISS:
                size -= 1
                hit_idx.append(i)
                if prev:
                    promoted.add(ln)
        if ev >= 0:
            if promoted and ev in promoted:
                promoted.discard(ev)
                if not dirty:
                    dirty = True
                    promoted_only += 1
            if not uses:
                if dirty:
                    unprobed_idx.append(i)
            else:
                prev = pop(ev, _MISS)
                if prev is not _MISS:
                    # Re-inserting a line the victim cache already
                    # holds (refilled while the mechanism was off, or
                    # through instruction fetch): merge the dirty bits.
                    lru[ev] = prev or dirty
                else:
                    if size >= capacity:
                        victim_line = next(iter(lru))
                        displaced += 1
                        if pop(victim_line):
                            spill_idx.append(i)
                            spill_lines.append(victim_line)
                    else:
                        size += 1
                        grow_idx.append(i)
                    lru[ev] = dirty
        i += 1
    blocks = victim._blocks
    blocks.clear()
    for line, dirty in lru.items():
        blocks[line] = CacheBlock(line, dirty)

    stats = victim.stats
    stats.accesses += probes
    stats.hits += len(hit_idx)
    stats.misses += probes - len(hit_idx)
    stats.evictions += displaced
    stats.writebacks += len(spill_idx)
    cache.stats.writebacks += promoted_only
    sets = cache._sets
    for ln in promoted:
        sets[cache._set_index(ln)][ln].dirty = True

    hit = np.zeros(n, dtype=bool)
    if hit_idx:
        hit[hit_idx] = True
    return (
        hit,
        np.array(spill_idx, dtype=np.int64),
        np.array(spill_lines, dtype=np.int64),
        np.array(unprobed_idx, dtype=np.int64),
        np.array(grow_idx, dtype=np.int64),
    )


def working_lrus(cache) -> list[dict]:
    """Per-set working LRUs of a live cache for a record-order filter.

    Each is a plain dict ``line -> dirty`` whose insertion order is the
    LRU order (as in :func:`replay_cache`); :func:`commit_filter` writes
    them back to the live sets.
    """
    return [{ln: blk.dirty for ln, blk in od.items()} for od in cache._sets]


def commit_filter(
    cache, lrus, n, evictions, dirty_evictions, columns, track
):
    """End a record-order L1 filter: write back L1, return its columns.

    Replaces the live sets with the working ``lrus``, adds the span's
    ``n`` accesses, its misses (``columns[0]``) and evictions to the
    statistics, and converts ``columns`` (``array('q')`` each) to the
    tuple :func:`filter_assist` returns.
    """
    for od, lru in zip(cache._sets, lrus):
        od.clear()
        for ln, dirty in lru.items():
            od[ln] = CacheBlock(ln, dirty)

    misses = len(columns[0])
    stats = cache.stats
    stats.accesses += n
    stats.hits += n - misses
    stats.misses += misses
    stats.evictions += evictions
    stats.writebacks += dirty_evictions
    arrays = [
        np.frombuffer(col, dtype=np.int64) if col else _EMPTY_I64
        for col in columns
    ]
    return (*arrays[:5], tuple(arrays[5:]) if track else None)


def filter_assist(
    assist, cache, addrs: np.ndarray, writes: np.ndarray, track: bool = False
):
    """Run the L1 half of ``data_access`` in record order with a live assist.

    The default :meth:`repro.memory.assist.AssistInterface.filter_l1`,
    for an assist without victim caches whose L1 eviction and L2-side
    hooks are pass-throughs: stream buffers take it.  The bypass assist
    overrides ``filter_l1`` with a fused loop that does what its hooks
    do inline; run on it, this function is that loop's oracle.  Such an
    assist never reads L2, the TLBs or simulated time, and L2 never
    feeds back into L1 or the assist, so only the L1 lookup, the
    assist's hooks and the L1 fill need the access order; the caller
    replays L2 in bulk afterwards.  Per access, as the scalar
    ``data_access`` does: look up L1 and ``note_access``; on a miss,
    ``lookup_alternate`` (a hit is served by the assist, installing
    any promoted block), else ``fill_decision`` against the line a fill
    would evict, then the fill or ``accept_bypassed``.

    Mutates the live L1 sets and statistics and the assist.  Returns
    ``(miss, demand, served, wb_idx, wb_lines, tracked)`` as int64
    arrays, each in access order: the L1 misses; the misses that go to
    the next level; the misses the assist served (each must cost
    ``ASSIST_HIT_CYCLES``, or this raises ``ValueError``); and the
    writebacks (L1 dirty evictions and dirty lines the assist
    displaced) with the access that caused each.
    ``tracked`` is None unless ``track`` (interval sampling) asks for
    ``(free_fills, bypassed, occupancy)``: the misses whose L1 fill
    took a free way, the bypassed misses, and the assist's
    ``occupancy`` before each miss's hooks and after the last miss's,
    whose differences are each miss's change to it.
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
    # Interval sampling only (see ``tracked`` above).
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


def replay_shadow(cache, lines: np.ndarray, hit: np.ndarray) -> None:
    """Three-C classification post-pass over one cache's access stream.

    The fully-associative shadow and the seen-lines set are global to
    the cache (not per-set), so classification replays in original
    access order, after the per-set kernels have resolved hits and
    misses.  Mutates the same shadow state the scalar path uses.
    """
    if not cache._classify:
        return
    seen = cache._seen_lines
    seen_add = seen.add
    shadow = cache._shadow
    move_to_end = shadow.move_to_end
    popitem = shadow.popitem
    capacity = cache._shadow_capacity
    compulsory = capacity_m = conflict = 0
    for ln, h in zip(lines.tolist(), hit.tolist()):
        if not h:
            if ln not in seen:
                seen_add(ln)
                compulsory += 1
            elif ln in shadow:
                conflict += 1
            else:
                capacity_m += 1
        if ln in shadow:
            move_to_end(ln)
        else:
            shadow[ln] = None
            if len(shadow) > capacity:
                popitem(last=False)
    stats = cache.stats
    stats.compulsory_misses += compulsory
    stats.capacity_misses += capacity_m
    stats.conflict_misses += conflict
