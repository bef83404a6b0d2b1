"""Block-batched numpy execution of packed traces.

This is the fast path behind :meth:`CPUSimulator.run`.  It produces
results bit-identical to the scalar loop ``_run_packed_range`` (see
the bit-identity note in :mod:`repro.cpu.pipeline`)
by splitting the trace at HW_ON/HW_OFF markers and running each span
in two phases, whether the hardware assist is off or on:

1. **Replay phase** — all cache/TLB/branch-predictor outcomes for the
   span are resolved in bulk by the kernels in
   :mod:`repro.memory.bulk` (via ``MemoryHierarchy.bulk_classify``)
   and ``BimodalPredictor.bulk_predict_and_update``, operating on the
   same live structures the scalar loop uses.

2. **Timing phase** — the replay's outcome codes are mapped to
   per-access latency/refill columns
   (:func:`repro.memory.hierarchy.outcome_timing`) and folded through
   the issue/LSQ/port/refill-bus/MSHR recurrence.  Between
   *timing events* (an instruction-fetch stall, a memory operation, a
   mispredicted branch) the issue clock advances by a fixed number of
   issue slots, so it is represented in closed form as
   ``cycle(c) = base + (off + c) // issue_width`` over the cumulative
   slot count ``c`` (an ``np.cumsum`` of per-record slot costs); only
   the events themselves run in a tight Python loop, and each event
   that zeroes the slot counter just rebases ``(base, off)``.

Assist spans are exact in bulk too (see
``MemoryHierarchy.bulk_classify``).  A victim-cache hit refills L1 (or
L2) with the same fill as the next level would, so the per-set replays
stand and the victim caches run as filters over the miss stream.  An
assist that decides L1 placement itself (bypassing, stream buffers)
never reads L2, the TLBs or time, so only its L1 half runs in record
order, through the assist's ``filter_l1``; L2 and the timing stay in
bulk.  Stream buffers take the default, which drives the live assist's
hooks (``repro.memory.bulk.filter_assist``).  The bypass assist runs
one fused loop with its MAT, SLDT, buffer and fill rule inline; its
scalar hooks, which marker records and short spans still call, are
that loop's oracle.
Marker records and spans under ``MIN_VECTOR_SPAN`` execute through the
scalar ``_run_packed_range`` against the same shared ``_PackedState``,
so the two execution styles alternate freely mid-trace.

The replay reads no timing field.  A run that takes the whole trace
as one span (no markers) leaves that span's :class:`Replay` on the
simulator as ``CPUSimulator.replay``, and :func:`retime` folds it
again, so ``repro.core.experiment.simulate_trace`` can time it on a
machine that differs only in timing.

Interval-sampling telemetry takes this path too.  A sample reads the
hierarchy's counters when the issue cycle crosses a threshold, so it
needs each counter's value and the issue cycle at record boundaries.
The replay phase returns every sampled counter's increments keyed by
record.  The issue clock moves in closed form between the events that
rebase it, so the timing phase only checks, at each rebase, whether
the run of records it closes reached the next threshold, and keeps
those runs.  :func:`_sample_span` rebuilds from both the rows the
scalar loop would append, and ``next_sample`` rides in
``_PackedState`` across scalar and vector spans.

Port arbitration note: the scalar loop picks the earliest-free port
with a linear scan.  Here the ports are a sorted ring rotated FIFO —
because access start times are non-decreasing within a span, the port
freed longest ago is always an earliest-free port, so the resulting
multiset of port-free times (the only observable) is identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.isa.instructions import Opcode
from repro.memory.bulk import steps_before
from repro.memory.hierarchy import outcome_timing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.pipeline import CPUSimulator, _PackedState
    from repro.isa.packed import PackedTrace

__all__ = ["Replay", "retime", "run_vectorized"]

_LOAD = int(Opcode.LOAD)
_STORE = int(Opcode.STORE)
_ALU = int(Opcode.ALU)
_BRANCH = int(Opcode.BRANCH)

#: Spans shorter than this run through the scalar loop: the fixed cost
#: of ~20 numpy kernel launches outweighs per-record interpretation on
#: short spans, and selective traces with many gated regions are full
#: of them.  At TINY scale 288 of the 321 non-empty spans of the 13
#: selective traces are under 512 records; forcing the kernels onto
#: them made the 13 victim simulations 11-34% slower (0.68 s against
#: 0.51-0.61 s) and the 13 bypass ones 8-14% slower (median of 5
#: alternating runs, two sessions, 2-vCPU Xeon).  At SMALL scale the
#: floor neither helps nor hurts measurably.  ``vectorize=True``
#: overrides the floor so tests can force the kernels onto arbitrarily
#: small traces.
MIN_VECTOR_SPAN = 512


class Replay(NamedTuple):
    """The replay phase's outcome for one span: all the timing phase
    reads of the memory system and the branch predictor, and no
    latency (:func:`repro.memory.hierarchy.outcome_timing` supplies
    those)."""

    #: Outcome code of each memory operation (int8).
    data: np.ndarray
    #: Outcome code of each instruction fetch that changes line (int8).
    fetch: np.ndarray
    #: Whether each branch was predicted correctly (bool).
    correct: np.ndarray


class _Layout(NamedTuple):
    """Where a span's records sit, read from its columns alone."""

    slots: np.ndarray  # issue slots per record
    cum_slots: np.ndarray  # their running sum
    lines: np.ndarray  # I-cache line per record (None without fetch)
    fetch_rel: np.ndarray  # records whose I-cache line changes
    mem_rel: np.ndarray  # memory operations
    writes: np.ndarray  # which memory operations are stores
    br_rel: np.ndarray  # branches


def run_vectorized(sim: "CPUSimulator", trace: "PackedTrace"):
    """Simulate a packed trace with the block-batched kernels.

    Dispatched from :meth:`CPUSimulator.run`; bit-identical to
    ``_run_packed``.  Sets ``sim.replay`` to the whole trace's replay
    when the kernels ran it as one span, else to None.
    """
    from repro.cpu.pipeline import _PackedState

    state = _PackedState(sim.machine, sim.telemetry)
    ops, args, pcs = trace.numpy_columns()
    raw_cols = trace.columns()
    n = ops.size
    markers = trace.marker_positions()
    force = sim.vectorize is True

    lo = 0
    for m in markers.tolist():
        _run_span(sim, state, ops, args, pcs, raw_cols, lo, m, force)
        # The marker record itself: one scalar step (issue slot,
        # telemetry boundary, gate toggle).
        sim._run_packed_range(state, *raw_cols, m, m + 1)
        lo = m + 1
    replay = _run_span(sim, state, ops, args, pcs, raw_cols, lo, n, force)
    sim.replay = None if markers.size else replay
    return sim._finalize_packed(trace.name, state)


def retime(machine, trace: "PackedTrace", replay: Replay) -> int:
    """Cycles of ``trace`` on ``machine``: the timing phase alone.

    ``replay`` is the ``CPUSimulator.replay`` of a run of ``trace``
    with instruction fetch modelled, on a machine that differs from
    ``machine`` at most in its timing fields.  Nothing in the replay
    depends on those (see the bit-identity note in
    :mod:`repro.cpu.pipeline`), so the cycles are those a full run
    would give.
    """
    from repro.cpu.pipeline import _PackedState

    state = _PackedState(machine)
    ops, args, pcs = trace.numpy_columns()
    layout = _layout(machine, True, state, ops, args, pcs)
    _fold(machine, None, state, layout, replay, None, None)
    return state.cycles()


def _run_span(sim, state, ops, args, pcs, raw_cols, lo, hi, force):
    """Run records ``lo..hi-1`` (no markers inside) the fastest legal
    way; return the span's :class:`Replay`, or None if the scalar loop
    ran it."""
    if hi <= lo:
        return None
    if hi - lo < MIN_VECTOR_SPAN and not force:
        sim._run_packed_range(state, *raw_cols, lo, hi)
        return None
    return _simulate_span(sim, state, ops[lo:hi], args[lo:hi], pcs[lo:hi])


def _simulate_span(sim, state: "_PackedState", ops, args, pcs) -> Replay:
    """Two-phase (replay, then timing) execution of one span; returns
    the replay.

    With interval sampling on, the replay also returns each sampled
    counter's increments by record, the timing phase keeps the runs of
    records in which its issue clock crosses a sampling threshold, and
    :func:`_sample_span` turns both into the span's sample rows.
    """
    sampling = state.next_sample is not None
    layout = _layout(sim.machine, sim.model_ifetch, state, ops, args, pcs)
    entry_counters = sim.hierarchy.sample_counters() if sampling else None
    replay, counters = _replay(sim, layout, args, pcs, sampling)
    _fold(
        sim.machine, sim.telemetry, state, layout, replay, entry_counters,
        counters,
    )
    return replay


def _layout(machine, model_ifetch, state, ops, args, pcs) -> _Layout:
    """The span's issue-slot costs and the records of each event kind."""
    is_alu = ops == _ALU
    slots = np.where(is_alu, np.maximum(args, 1), 1)
    # Instruction fetch: records whose I-cache line changes.
    if model_ifetch:
        lines = pcs & ~(machine.l1i.block_size - 1)
        changed = np.empty(ops.size, dtype=bool)
        changed[0] = lines[0] != state.current_ifetch_line
        np.not_equal(lines[1:], lines[:-1], out=changed[1:])
        fetch_rel = np.nonzero(changed)[0]
    else:
        lines = None
        fetch_rel = np.empty(0, dtype=np.int64)
    mem_rel = np.nonzero((ops == _LOAD) | (ops == _STORE))[0]
    return _Layout(
        slots,
        np.cumsum(slots),
        lines,
        fetch_rel,
        mem_rel,
        ops[mem_rel] == _STORE,
        np.nonzero(ops == _BRANCH)[0],
    )


def _replay(sim, layout: _Layout, args, pcs, sampling: bool):
    """Replay phase: the span's memory system and branch predictor."""
    mem_rel, fetch_rel = layout.mem_rel, layout.fetch_rel
    br_rel = layout.br_rel
    data, fetch, counters = sim.hierarchy.bulk_classify(
        args[mem_rel], layout.writes, mem_rel, pcs[fetch_rel], fetch_rel,
        sample=sampling,
    )
    correct = sim.predictor.bulk_predict_and_update(
        pcs[br_rel], args[br_rel] != 0
    )
    return Replay(data, fetch, correct), counters


def _fold(
    machine, telemetry, state: "_PackedState", layout: _Layout,
    replay: Replay, entry_counters, counters,
) -> None:
    """Timing phase: fold one span's replay into ``state``.

    Reads ``machine``'s timing fields and the replay's outcome codes,
    never a cache, TLB or predictor.
    """
    sampling = state.next_sample is not None
    slots, cum_slots = layout.slots, layout.cum_slots
    fetch_rel, mem_rel = layout.fetch_rel, layout.mem_rel
    br_rel = layout.br_rel
    latency_of, refill_of, stall_of = outcome_timing(machine)
    latency = latency_of[replay.data]
    refill = refill_of[replay.data]
    stall = stall_of[replay.fetch]
    miss_rel = br_rel[~replay.correct]

    stalled = stall > 0
    stall_rel = fetch_rel[stalled]
    stall_vals = stall[stalled]

    # ---- merge timing events in (record, phase) order -------------------
    # Within one record the scalar loop handles the front-end stall
    # first (its clock reads the *pre*-slot cumulative count), then the
    # record's own action (memory op or branch, post-slot).  A record
    # is never both a memory op and a branch, so the phase order falls
    # out of inserting the sparse rebase events (stalls, mispredicts —
    # typically a few hundred) into the dense, already-sorted memory
    # stream at their searchsorted positions; ``side='left'`` puts a
    # record's stall ahead of its own memory op.  This replaces a
    # full-width stable argsort plus three gathers with O(events) work
    # on the sparse side and one linear merge copy.
    #
    # ``ev_code`` packs the event kind: 0/1/2 = memory op with that
    # refill class, 3/4 = issue-clock rebase for a mispredict/stall,
    # with the added cycles carried in ``ev_lat``.
    width = machine.issue_width
    mispredict_penalty = machine.branch_mispredict_penalty
    n_stall, n_mem, n_miss = stall_rel.size, mem_rel.size, miss_rel.size
    if n_stall or n_miss:
        rebase_rel = np.concatenate((stall_rel, miss_rel))
        rebase_lat = np.concatenate(
            (stall_vals, np.full(n_miss, mispredict_penalty, np.int64))
        )
        rebase_code = np.repeat(np.array([4, 3]), (n_stall, n_miss))
        rebase_cum = cum_slots[rebase_rel]
        if n_stall:
            rebase_cum[:n_stall] -= slots[stall_rel]
        # Stable sort of the sparse side only: at a shared record index
        # the stall (listed first) precedes the mispredict rebase.
        ro = np.argsort(rebase_rel, kind="stable")
        at = np.searchsorted(mem_rel, rebase_rel[ro], side="left")
        total = n_mem + at.size
        new_pos = at + np.arange(at.size)
        old_mask = np.ones(total, dtype=bool)
        old_mask[new_pos] = False
        ev_lat = np.empty(total, dtype=np.int64)
        ev_lat[new_pos] = rebase_lat[ro]
        ev_lat[old_mask] = latency
        ev_code = np.empty(total, dtype=np.int64)
        ev_code[new_pos] = rebase_code[ro]
        ev_code[old_mask] = refill
        ev_cum = np.empty(total, dtype=np.int64)
        ev_cum[new_pos] = rebase_cum[ro]
        ev_cum[old_mask] = cum_slots[mem_rel]
    else:
        ev_lat = latency
        ev_code = refill
        ev_cum = cum_slots[mem_rel]

    # ---- timing phase ----------------------------------------------------
    l2_refill_beats = max(machine.l1d.block_size // machine.mem_bus_width, 1)

    # Issue clock in closed form: cycle(c) = base + (off + c) // width,
    # folded into one scaled term ``clk = base * width + off`` so each
    # event computes it with a single add and floor divide; a rebase to
    # absolute cycle ``t`` at slot count ``c`` sets
    # ``clk = t * width - c``.
    clk = state.issue_cycle * width + state.slot
    lsq_done = state.lsq_done
    lsq_size = len(lsq_done)
    lsq_index = state.lsq_index
    ring = sorted(state.port_free)
    num_ports = len(ring)
    port_index = 0
    refill_bus_free = state.refill_bus_free
    mshr_done = state.mshr_done
    mshr_count = len(mshr_done)
    mshr_index = state.mshr_index
    last_done = state.last_done
    # Interval sampling, in scaled units (cycle * width + slot).  Each
    # change of ``clk`` closes a segment of records that share one
    # ``clk``: those whose slot count before them lies in ``[seg_key,
    # key)``, where the change's key is a memory op's or mispredict's
    # ``cum`` and one past a front-end stall's (code 4 marks stalls;
    # the stalled record itself is checked for a sample before it
    # stalls).  A closed segment's last record sits at ``key - 1``, so
    # its clock peaks at ``clk + key - 1``; a segment whose peak reaches
    # the next threshold ``watch`` is where the scalar loop samples
    # (see _sample_span), and only such segments are kept.  A stall
    # and a memory op or mispredict in one single-slot record leave an
    # empty segment between them (``key == seg_key``), which is skipped.
    crossings = []
    seg_key = 0
    if sampling:
        period = telemetry.interval * width
        watch = state.next_sample * width

        def crossed(key, clk, watch, peak):
            """Keep a segment; return the threshold after its samples,
            the next multiple of the interval past its peak."""
            crossings.append((key, clk, watch, peak))
            return (peak // period + 1) * period

    ev_iter = zip(ev_code.tolist(), ev_lat.tolist(), ev_cum.tolist())
    for code, lat, cum in ev_iter:
        if code < 3:  # memory operation; code is the refill class
            issue = (clk + cum) // width
            pending = lsq_done[lsq_index]
            if pending > issue:
                issue = pending
                if sampling:
                    if clk + cum > watch and cum > seg_key:
                        watch = crossed(seg_key, clk, watch, clk + cum - 1)
                    seg_key = cum
                clk = issue * width - cum
            free = ring[port_index]
            start = issue if issue > free else free
            ring[port_index] = start + 1
            port_index += 1
            if port_index == num_ports:
                port_index = 0
            if code:
                if refill_bus_free > start:
                    start = refill_bus_free
                refill_bus_free = start + l2_refill_beats
                if code == 2:
                    pending_miss = mshr_done[mshr_index]
                    if pending_miss > start:
                        start = pending_miss
                    done = start + lat
                    mshr_done[mshr_index] = done
                    mshr_index += 1
                    if mshr_index == mshr_count:
                        mshr_index = 0
                else:
                    done = start + lat
            else:
                done = start + lat
            lsq_done[lsq_index] = done
            lsq_index += 1
            if lsq_index == lsq_size:
                lsq_index = 0
            if done > last_done:
                last_done = done
        else:  # issue-clock rebase: mispredict or front-end stall
            if sampling:
                key = cum + code - 3
                if clk + key > watch and key > seg_key:
                    watch = crossed(seg_key, clk, watch, clk + key - 1)
                seg_key = key
            clk = ((clk + cum) // width + lat) * width - cum

    if sampling:
        # The last segment ends at the span's last record.
        last = int(cum_slots[-1] - slots[-1])
        if last >= seg_key and clk + last >= watch:
            watch = crossed(seg_key, clk, watch, clk + last)
        if crossings:
            _sample_span(
                telemetry, width, state, cum_slots, crossings, period,
                entry_counters, counters,
            )
        state.next_sample = watch // width

    # ---- write the span's end state back --------------------------------
    end = int(cum_slots[-1])
    state.issue_cycle = (clk + end) // width
    state.slot = (clk + end) % width
    state.last_done = last_done
    state.lsq_index = lsq_index
    state.port_free[:] = ring
    state.refill_bus_free = refill_bus_free
    state.mshr_index = mshr_index
    state.instructions += end
    n_stores = int(np.count_nonzero(layout.writes))
    state.stores += n_stores
    state.loads += n_mem - n_stores
    state.branches += br_rel.size
    if layout.lines is not None:
        state.current_ifetch_line = int(layout.lines[-1])


def _sample_span(
    telemetry, width, state, cum_slots, crossings, period, entry_counters,
    counters,
):
    """Append the interval samples the scalar loop takes over one span.

    The scalar loop checks before each record whether its issue cycle
    has reached the next threshold, takes at most one sample there and
    moves the threshold to the next multiple of the interval.  Each
    ``(key, clk, watch, peak)`` of ``crossings`` is a run of records
    sharing ``clk`` whose scaled clock ``clk + c`` (``c`` the slot count
    before a record, from ``key`` on) first reaches the threshold
    ``watch`` and ends at ``peak``.  Its thresholds are ``watch`` and
    each later multiple of ``period`` up to ``peak``, and a threshold's
    sample is the first record with ``c >= max(key, threshold - clk)``.
    A record that reaches several thresholds at once is sampled once.
    Counters are their span-entry values plus the increments of the
    earlier records.
    """
    key, clk, watch, peak = np.array(crossings, dtype=np.int64).T
    counts = 1 + peak // period - watch // period
    seg = np.repeat(np.arange(counts.size), counts)
    rank = np.arange(seg.size) - (np.cumsum(counts) - counts)[seg]
    thresholds = np.where(
        rank > 0, (watch[seg] // period + rank) * period, watch[seg]
    )
    before = np.concatenate(([0], cum_slots[:-1]))
    rows = np.searchsorted(before, np.maximum(key[seg], thresholds - clk[seg]))
    first = np.concatenate(([True], rows[1:] != rows[:-1]))
    rows, seg = rows[first], seg[first]
    telemetry.sample_rows(
        ((clk[seg] + before[rows]) // width).tolist(),
        (state.instructions + before[rows]).tolist(),
        [
            (value + steps_before(steps, rows)).tolist()
            for value, steps in zip(entry_counters, counters)
        ],
    )
