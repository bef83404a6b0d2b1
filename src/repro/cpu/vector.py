"""Replay-and-fold execution of packed traces.

This is the one path behind :meth:`CPUSimulator.run` (see the
bit-identity note in :mod:`repro.cpu.pipeline`; the per-record loop it
is checked against lives in ``tests/cpu/oracle.py``).  A run is cut
into segments by the pipeline's marker rule — the whole trace without
telemetry, a segment ending at each marker under a hub — and each
segment runs in two phases:

1. **Replay phase** — all cache/TLB/branch-predictor outcomes of the
   segment are resolved in bulk by the kernels in
   :mod:`repro.memory.bulk` (via ``MemoryHierarchy.bulk_classify``)
   and ``BimodalPredictor.bulk_predict_and_update``, operating on the
   live structures.  Each data access carries the gate state in
   effect at its record, read from the HW_ON/HW_OFF markers before it
   and the gate's state at the segment's entry.

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
   that zeroes the slot counter just rebases ``(base, off)``.  A marker
   folds as the one-slot record it is.

After the fold the segment's markers toggle the gate in order.

Assist runs are exact in bulk too (see
``MemoryHierarchy.bulk_classify``), in the two shapes of
:mod:`repro.memory.assist`.  A miss-stream filter (victim caches,
stream buffers) serves a miss with the same fill, and the same dirty
bit, as the next level would, so the per-set replays stand and the
assist runs over the miss stream in record order, probed by the misses
whose gate is on.  A fill placer (bypassing) never reads L2, the TLBs
or time, so only its L1 half runs in record order, through the
assist's ``filter_l1`` (one fused loop with its MAT, SLDT, buffer and
fill rule inline) for the accesses whose gate is on, and a plain L1
replay for the rest; L2 and the timing stay in bulk.  The per-access
hooks of ``tests/cpu/oracle.py`` are the reference of both.

The replay reads no timing field.  A run without telemetry leaves its
whole-trace replay on the simulator as ``CPUSimulator.replay``, and
:func:`retime` folds it again, markers included, so
``repro.core.experiment.simulate_trace`` can time it on a machine
that differs only in timing.  One fold across segment boundaries
equals the per-segment folds a telemetry run makes: the LSQ, MSHR and
refill-bus state carries over as it is, and so does the port ring,
whose multiset is all that is observable (see the port note below).

Interval-sampling telemetry takes this path too.  A sample reads the
hierarchy's counters when the issue cycle crosses a threshold, so it
needs each counter's value and the issue cycle at record boundaries.
The replay phase returns every sampled counter's increments keyed by
record.  The issue clock moves in closed form between the events that
rebase it, so the timing phase only checks, at each rebase, whether
the run of records it closes reached the next threshold, and keeps
those runs.  :func:`_sample_segment` rebuilds from both the rows the
per-record loop would append, and ``next_sample`` rides in
``_PackedState`` across segments.

Port arbitration note: the timing model picks the earliest-free port,
which the per-record loop finds with a linear scan.  Here the ports
are a sorted ring rotated FIFO — because access start times are
non-decreasing, the port freed longest ago is always an earliest-free
port, so the resulting multiset of port-free times (the only
observable) is identical.
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

__all__ = ["Replay", "retime", "run_trace"]

_LOAD = int(Opcode.LOAD)
_STORE = int(Opcode.STORE)
_ALU = int(Opcode.ALU)
_BRANCH = int(Opcode.BRANCH)
_HW_ON = int(Opcode.HW_ON)

class Replay(NamedTuple):
    """The replay phase's outcome for one segment (without telemetry,
    the whole trace): all the timing phase reads of the memory system
    and the branch predictor, and no latency
    (:func:`repro.memory.hierarchy.outcome_timing` supplies those)."""

    #: Outcome code of each memory operation (int8).
    data: np.ndarray
    #: Outcome code of each instruction fetch that changes line (int8).
    fetch: np.ndarray
    #: Whether each branch was predicted correctly (bool).
    correct: np.ndarray


class _Layout(NamedTuple):
    """Where a segment's records sit, read from its columns alone."""

    slots: np.ndarray  # issue slots per record
    cum_slots: np.ndarray  # their running sum
    lines: np.ndarray  # I-cache line per record (None without fetch)
    fetch_rel: np.ndarray  # records whose I-cache line changes
    mem_rel: np.ndarray  # memory operations
    writes: np.ndarray  # which memory operations are stores
    br_rel: np.ndarray  # branches


def run_trace(sim: "CPUSimulator", trace: "PackedTrace"):
    """Simulate a packed trace: replay each segment, then fold it.

    Dispatched from :meth:`CPUSimulator.run`.  Without a telemetry hub
    the trace is one segment, and ``sim.replay`` is set to its replay;
    with one, a segment ends at each marker, so the hub's snapshot at
    the toggle follows the marker's own fetch and issue slot, and
    ``sim.replay`` is None.
    """
    from repro.cpu.pipeline import _PackedState

    state = _PackedState(sim.machine, sim.telemetry)
    ops, args, pcs = trace.numpy_columns()
    markers = trace.marker_positions()
    ends = (markers + 1).tolist() if sim.telemetry is not None else []
    replay = None
    lo = 0
    for hi in ends + [ops.size]:
        if hi > lo:
            first, last = np.searchsorted(markers, (lo, hi))
            replay = _simulate_segment(
                sim, state, ops[lo:hi], args[lo:hi], pcs[lo:hi],
                markers[first:last] - lo,
            )
            lo = hi
    sim.replay = replay if sim.telemetry is None else None
    return sim._finalize_packed(trace.name, state)


def retime(machine, trace: "PackedTrace", replay: Replay) -> int:
    """Cycles of ``trace`` on ``machine``: the timing phase alone.

    ``replay`` is the ``CPUSimulator.replay`` of a run of ``trace``
    with instruction fetch modelled, on a machine that differs from
    ``machine`` at most in its timing fields.  Nothing in the replay
    depends on those (see the bit-identity note in
    :mod:`repro.cpu.pipeline`), so the cycles are those a full run
    would give.  Markers fold as the one-slot records they are; the
    gate state they set is already in the replay's outcome codes.
    """
    from repro.cpu.pipeline import _PackedState

    state = _PackedState(machine)
    ops, args, pcs = trace.numpy_columns()
    layout = _layout(machine, True, state, ops, args, pcs)
    _fold(machine, None, state, layout, replay, None, None)
    return state.cycles()


def _simulate_segment(
    sim, state: "_PackedState", ops, args, pcs, markers
) -> Replay:
    """Two-phase (replay, then timing) execution of one segment, whose
    markers sit at ``markers``; then the markers toggle the gate.
    Returns the replay.

    With interval sampling on, the replay also returns each sampled
    counter's increments by record, the timing phase keeps the runs of
    records in which its issue clock crosses a sampling threshold, and
    :func:`_sample_segment` turns both into the segment's sample rows.
    """
    sampling = state.next_sample is not None
    layout = _layout(sim.machine, sim.model_ifetch, state, ops, args, pcs)
    entry_counters = sim.hierarchy.sample_counters() if sampling else None
    replay, counters = _replay(sim, layout, ops, args, pcs, markers, sampling)
    telemetry = sim.telemetry
    _fold(
        sim.machine, telemetry, state, layout, replay, entry_counters,
        counters,
    )
    for op in ops[markers].tolist():
        if telemetry is not None:
            telemetry.now = state.issue_cycle
            telemetry.instructions = state.instructions
        if op == _HW_ON:
            sim.gate.activate()
        else:
            sim.gate.deactivate()
    return replay


def _layout(machine, model_ifetch, state, ops, args, pcs) -> _Layout:
    """The segment's issue-slot costs and the records of each event
    kind."""
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


def _replay(sim, layout: _Layout, ops, args, pcs, markers, sampling: bool):
    """Replay phase: the segment's memory system and branch predictor.

    With an assist, each data access is replayed under the gate state
    in effect at its record: the gate's state at the segment's entry,
    then after each of its ``markers`` the one that marker sets.
    """
    mem_rel, fetch_rel = layout.mem_rel, layout.fetch_rel
    br_rel = layout.br_rel
    on = None
    if sim.hierarchy.assist is not None:
        states = np.append(sim.gate.enabled, ops[markers] == _HW_ON)
        on = states[np.searchsorted(markers, mem_rel)]
    data, fetch, counters = sim.hierarchy.bulk_classify(
        args[mem_rel], layout.writes, mem_rel, pcs[fetch_rel], fetch_rel,
        on=on, sample=sampling,
    )
    correct = sim.predictor.bulk_predict_and_update(
        pcs[br_rel], args[br_rel] != 0
    )
    return Replay(data, fetch, correct), counters


def _fold(
    machine, telemetry, state: "_PackedState", layout: _Layout,
    replay: Replay, entry_counters, counters,
) -> None:
    """Timing phase: fold one segment's replay into ``state``.

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
    # Within one record the per-record loop handles the front-end stall
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
    # the next threshold ``watch`` is where the per-record loop samples
    # (see _sample_segment), and only such segments are kept.  A stall
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
        # The last segment ends at the last record.
        last = int(cum_slots[-1] - slots[-1])
        if last >= seg_key and clk + last >= watch:
            watch = crossed(seg_key, clk, watch, clk + last)
        if crossings:
            _sample_segment(
                telemetry, width, state, cum_slots, crossings, period,
                entry_counters, counters,
            )
        state.next_sample = watch // width

    # ---- write the end state back ---------------------------------------
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


def _sample_segment(
    telemetry, width, state, cum_slots, crossings, period, entry_counters,
    counters,
):
    """Append the interval samples the per-record loop takes over one
    segment.

    That loop checks before each record whether its issue cycle has
    reached the next threshold, takes at most one sample there and
    moves the threshold to the next multiple of the interval.  Each
    ``(key, clk, watch, peak)`` of ``crossings`` is a run of records
    sharing ``clk`` whose scaled clock ``clk + c`` (``c`` the slot count
    before a record, from ``key`` on) first reaches the threshold
    ``watch`` and ends at ``peak``.  Its thresholds are ``watch`` and
    each later multiple of ``period`` up to ``peak``, and a threshold's
    sample is the first record with ``c >= max(key, threshold - clk)``.
    A record that reaches several thresholds at once is sampled once.
    Counters are their segment-entry values plus the increments of the
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
