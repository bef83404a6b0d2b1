"""Property-based lockstep check of the simulator against its oracle.

Random packed traces — mixed opcodes, compressed ALU bursts, gate
toggles mid-trace, miss storms sized to saturate the MSHR file and
the load/store queue, write-heavy conflict storms that overflow the
victim caches, and buffer storms that bypass lines into the bypass
buffer, hit them there and displace dirty double words — must produce
bit-identical results through the simulator's replay-and-fold kernels
and the per-record loop of ``tests/cpu/oracle.py``.
Hypothesis shrinks any divergence down to a minimal instruction
sequence, which makes timing-model regressions far easier to localise
than a benchmark-level mismatch.

Victim-cache and bypass runs also compare the machine state the
results cannot show (:func:`machine_state`): a dirty bit that is never
written back, a victim cache or bypass buffer left in the wrong order,
or a MAT counter noted out of turn, would only surface in a later
run.  Markers placed anywhere — at the first and last record, next to
each other, repeated, around one-record segments — must leave every
structure, gate count, sample and boundary snapshot as the oracle does
(:class:`TestMarkerPlacement`).

The runs attach a telemetry hub with a drawn sampling interval, and
the interval samples, boundary snapshots, spans and counters must
match bit for bit as well (:func:`run_sampled`).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiment import simulate_trace
from repro.core.versions import make_assist
from repro.cpu.pipeline import CPUSimulator
from repro.hwopt.controller import CacheBypassAssist, VictimCacheAssist
from repro.hwopt.gate import HardwareGate
from repro.isa.instructions import Opcode
from repro.isa.packed import PackedTrace
from repro.memory.hierarchy import MemoryHierarchy
from repro.params import base_config
from repro.telemetry import Telemetry
from repro.telemetry.series import SAMPLE_FIELDS
from repro.workloads.base import TINY
from tests.cpu import oracle

_LOAD = int(Opcode.LOAD)
_STORE = int(Opcode.STORE)
_ALU = int(Opcode.ALU)
_BRANCH = int(Opcode.BRANCH)
_HW_ON = int(Opcode.HW_ON)
_HW_OFF = int(Opcode.HW_OFF)

#: A small address pool re-hits the same sets (LRU churn, conflict
#: misses); the storm stride walks distinct L2 lines so every access
#: goes to DRAM, queueing on the 8 MSHRs and wrapping the 32-entry LSQ.
_POOL = [0x1000 + 32 * i for i in range(24)]
_STORM_STRIDE = 4096

#: Conflict-storm strides on the TINY machine.  1 KB walks one L1D set
#: (32 sets of 32 B) across different L2 sets, so lines thrash L1D and
#: its 8-entry victim cache while their L2 copies stay resident and
#: turn dirty on writeback; 16 KB walks one L2 set (128 sets of 128 B),
#: pushing lines through L2 into its 64-entry victim cache and out.
_CONFLICT_STRIDES = (1024, 16384)

#: Buffer storms use an address range of their own.  Lines 1 KB
#: apart share an L1D set and lie in different 1 KB MAT macro-blocks.
_BUFFER_STORM_BASE = 0x200000


@st.composite
def packed_traces(draw):
    """A random packed trace built from opcode-mix chunks."""
    records = []
    pc = 0x400000

    def emit(op, arg, jump=0):
        nonlocal pc
        pc += 4 + jump
        records.append((op, arg, pc))

    def conflict_storm(base, stride, n_lines, rounds, store_pct):
        for _ in range(rounds):
            for i in range(n_lines):
                store = draw(st.integers(min_value=0, max_value=99))
                op = _STORE if store < store_pct else _LOAD
                emit(op, base + i * stride)

    n_chunks = draw(st.integers(min_value=3, max_value=12))
    gate_on = False
    for _ in range(n_chunks):
        kind = draw(
            st.sampled_from(
                [
                    "mem_pool",
                    "miss_storm",
                    "alu_burst",
                    "branches",
                    "toggle",
                    "conflict_storm",
                    "code_alias",
                    "buffer_storm",
                ]
            )
        )
        if kind == "mem_pool":
            for _ in range(draw(st.integers(min_value=1, max_value=40))):
                addr = draw(st.sampled_from(_POOL))
                op = _STORE if draw(st.booleans()) else _LOAD
                emit(op, addr)
        elif kind == "miss_storm":
            start = draw(st.integers(min_value=0, max_value=1 << 20))
            for i in range(draw(st.integers(min_value=40, max_value=96))):
                emit(_LOAD, start + i * _STORM_STRIDE)
        elif kind == "alu_burst":
            for _ in range(draw(st.integers(min_value=1, max_value=10))):
                emit(_ALU, draw(st.integers(min_value=1, max_value=9)))
        elif kind == "branches":
            for _ in range(draw(st.integers(min_value=1, max_value=12))):
                taken = draw(st.booleans())
                jump = 64 if draw(st.booleans()) else 0
                emit(_BRANCH, int(taken), jump)
        elif kind == "conflict_storm":
            # Write-heavy sweeps over more lines than a set plus its
            # victim cache hold: dirty lines are displaced from both
            # victim caches, and a second round re-hits lines the
            # victim caches still hold.
            conflict_storm(
                draw(st.integers(min_value=0, max_value=15)) * 32,
                draw(st.sampled_from(_CONFLICT_STRIDES)),
                draw(st.integers(min_value=5, max_value=80)),
                draw(st.integers(min_value=1, max_value=3)),
                draw(st.integers(min_value=50, max_value=100)),
            )
        elif kind == "code_alias":
            # Data accesses to code lines the pc is about to reach: the
            # lines turn dirty (a 1 KB storm writes them back into L2),
            # a 16 KB storm pushes them into the L2 victim cache,
            # instruction fetch then refills them into L2 from memory
            # (it never probes the victim cache), and a storm over
            # fresh lines of the same set evicts them into the victim
            # cache again, where the re-insertion merges dirty bits.
            target = (pc + draw(st.integers(0, 16)) * 128) & ~127
            for i in range(draw(st.integers(min_value=1, max_value=8))):
                emit(_STORE if i % 2 == 0 else _LOAD, target + 32 * i)
            conflict_storm(target, 1024, 13, 1, 100)
            conflict_storm(target + 16384, 16384, 8, 1, 50)
            if draw(st.booleans()):
                # Or a load first: an L2 victim hit on a dirty line.
                emit(_LOAD, target)
            if target > pc:
                emit(_ALU, 1, jump=target - pc - 4)
            for _ in range(draw(st.integers(min_value=4, max_value=40))):
                emit(_ALU, 1)
            conflict_storm(target + 9 * 16384, 16384, 8, 1, 50)
        elif kind == "buffer_storm":
            # A hot macro-block's line becomes the LRU way of a full
            # L1D set; cold lines of fresh macro-blocks, each touched at
            # one double word (so the SLDT never finds them spatial),
            # then miss in that set and are bypassed into the buffer.
            # Re-touching a bypassed double word hits the buffer (a
            # store dirties it), and more cold lines than the buffer
            # holds displace dirty double words, which are written back.
            hot = _BUFFER_STORM_BASE + draw(st.integers(0, 31)) * 32
            for _ in range(draw(st.integers(min_value=8, max_value=24))):
                emit(_LOAD, hot)
            for j in range(1, 4):
                emit(_LOAD, hot + j * 1024)
            for j in range(draw(st.integers(min_value=2, max_value=40))):
                cold = hot + (4 + j) * 1024 + 8 * draw(st.integers(0, 3))
                emit(_STORE if draw(st.booleans()) else _LOAD, cold)
                if draw(st.booleans()):
                    emit(_STORE if draw(st.booleans()) else _LOAD, cold)
        else:  # toggle: keep ON/OFF alternating like real marker placement
            emit(_HW_OFF if gate_on else _HW_ON, 0)
            gate_on = not gate_on
    ops, args, pcs = zip(*records)
    return PackedTrace("prop", ops, args, pcs)


#: Sampling intervals in cycles: none (an idle hub: the unsampled
#: kernels), every cycle, an odd period, the CLI default, one longer
#: than any generated run (only the final sample), or any in between.
intervals = st.one_of(
    st.sampled_from([0, 1, 97, 1000, 10**9]), st.integers(1, 5000)
)


def run_sampled(
    trace, interval, machine=None, simulate=simulate_trace, **kwargs
):
    """Simulate ``trace`` under a hub sampling every ``interval`` cycles.

    Returns the result and everything the hub recorded: each interval
    sample column, the boundary snapshots, spans, counters and gauges.
    ``machine`` defaults to the TINY-scaled base configuration;
    ``simulate`` is the simulator's ``simulate_trace`` or the oracle's.
    """
    hub = Telemetry(interval=interval)
    result = simulate(
        trace,
        machine or base_config().scaled(TINY.machine_divisor),
        telemetry=hub,
        **kwargs,
    )
    return result, _recorded(hub)


def _recorded(hub):
    """Everything a telemetry hub recorded over one run."""
    return {
        "series": {
            field: list(hub.series.column(field)) for field in SAMPLE_FIELDS
        },
        "boundaries": hub.boundaries,
        "spans": hub.spans,
        "counters": hub.counters,
        "gauges": hub.gauges,
        "total_cycles": hub.total_cycles,
    }


def _assert_two_way(trace, interval, **kwargs):
    """The simulator == the oracle, telemetry included."""
    expected = run_sampled(
        trace, interval, simulate=oracle.simulate_trace, **kwargs
    )
    assert run_sampled(trace, interval, **kwargs) == expected


def _cache_state(cache):
    sets = [
        [(line, block.block_addr, block.dirty) for line, block in s.items()]
        for s in cache._sets
    ]
    return sets, cache.stats


def _victim_state(victim):
    blocks = [
        (line, block.block_addr, block.dirty)
        for line, block in victim._blocks.items()
    ]
    return blocks, victim.stats


def _assist_state(assist):
    """The mechanism's own storage, in order, with its counters."""
    if assist is None:
        return {}
    if isinstance(assist, VictimCacheAssist):
        return {
            "l1_victim": _victim_state(assist.l1_victim),
            "l2_victim": _victim_state(assist.l2_victim),
        }
    if not isinstance(assist, CacheBypassAssist):  # stream buffers
        return {
            "streams": [
                (list(b.lines), b.next_line, b.last_used)
                for b in assist._buffers
            ],
            "counters": (assist._clock, assist._hits, assist._prefetched),
        }
    mat, sldt, buffer = assist.mat, assist.sldt, assist.buffer
    return {
        "mat": (mat._tags, mat._counters, mat._since_aging, mat.replacements),
        "sldt": (
            list(sldt._table.items()),
            sldt._spatial,
            sldt.spatial_promotions,
            sldt.spatial_demotions,
        ),
        "buffer": (
            list(buffer._words.items()),
            buffer.hits,
            buffer.misses,
            buffer.insertions,
        ),
    }


def _tlb_state(tlb):
    return [list(s) for s in tlb._sets], tlb.accesses, tlb.misses


def _shadow_state(cache):
    if not cache._classify:
        return None
    return sorted(cache._seen_lines), list(cache._shadow)


def simulator_state(simulator):
    """Every structure a run leaves behind: each cache's sets, dirty
    bits, statistics and shadow classifier, the TLBs, the DRAM
    counters, the branch predictor, the gate and the assist."""
    hierarchy = simulator.hierarchy
    gate = simulator.gate
    predictor = simulator.predictor
    return {
        "l1d": _cache_state(hierarchy.l1d),
        "l1i": _cache_state(hierarchy.l1i),
        "l2": _cache_state(hierarchy.l2),
        "shadows": (
            _shadow_state(hierarchy.l1d), _shadow_state(hierarchy.l2)
        ),
        "dtlb": _tlb_state(hierarchy.dtlb),
        "itlb": _tlb_state(hierarchy.itlb),
        "dram": (hierarchy.memory.reads, hierarchy.memory.writes),
        "predictor": (
            predictor._counters,
            predictor.predictions,
            predictor.mispredictions,
        ),
        "gate": (gate.activations, gate.deactivations, gate.enabled),
        **_assist_state(hierarchy.assist),
    }


def run_machine(
    trace, by_oracle, mechanism="victim", initially_on=True,
    telemetry=None, **kwargs
):
    """Run ``trace`` on a fresh machine, through the oracle's loop or
    the simulator's kernels; return the result and
    :func:`simulator_state`."""
    machine = base_config().scaled(TINY.machine_divisor)
    assist = make_assist(mechanism, machine) if mechanism else None
    hierarchy_cls, simulator_cls = (
        (oracle.OracleHierarchy, oracle.OracleSimulator)
        if by_oracle
        else (MemoryHierarchy, CPUSimulator)
    )
    simulator = simulator_cls(
        machine,
        hierarchy_cls(machine, assist, **kwargs),
        HardwareGate(assist, initially_on=initially_on),
        telemetry=telemetry,
    )
    return simulator.run(trace), simulator_state(simulator)


def machine_state(trace, by_oracle, mechanism="victim", **kwargs):
    """Run ``trace`` with an assist; return the result and end state.

    The state covers what :class:`SimulationResult` equality cannot
    see: per-set LRU order and dirty bits of L1D and L2, the DRAM
    counters and the assist's own state — for victim caches both
    caches' contents, order, dirty bits and statistics; for bypassing
    the MAT tags, counters and aging phase, the SLDT's LRU order,
    touched-word masks and spatial counters, and the bypass buffer's
    order, dirty bits and statistics.
    """
    return run_machine(trace, by_oracle, mechanism, **kwargs)


def assert_same_state(trace, **kwargs):
    """The simulator and the oracle leave equal machines."""
    expected_result, expected_state = machine_state(trace, True, **kwargs)
    result, state = machine_state(trace, False, **kwargs)
    assert result == expected_result
    for key in expected_state:
        assert state[key] == expected_state[key], key


class TestVectorProperty:
    @settings(max_examples=40, deadline=None)
    @given(trace=packed_traces(), interval=intervals)
    def test_no_assist(self, trace, interval):
        _assert_two_way(trace, interval, classify_misses=True)

    @settings(max_examples=80, deadline=None)
    @given(
        trace=packed_traces(),
        mechanism=st.sampled_from(["bypass", "victim", "prefetch"]),
        interval=intervals,
    )
    def test_gated_assist(self, trace, mechanism, interval):
        """Toggles enable the assist: the replay must apply each
        access's gate state, the folds of a sampled run's segments
        must share one timing state, and the samples taken in each
        must read the assist's counters."""
        _assert_two_way(
            trace, interval, mechanism=mechanism, initially_on=False
        )

    @settings(max_examples=40, deadline=None)
    @given(trace=packed_traces(), interval=intervals)
    def test_victim_always_on(self, trace, interval):
        """Markers toggle a gate that starts on; with ``classify_misses``
        the shadow classifiers see the victim-filtered L2 stream."""
        _assert_two_way(
            trace, interval, mechanism="victim", classify_misses=True
        )

    @settings(max_examples=40, deadline=None)
    @given(trace=packed_traces())
    def test_victim_state(self, trace):
        assert_same_state(trace, classify_misses=True)

    @settings(max_examples=40, deadline=None)
    @given(trace=packed_traces())
    def test_bypass_state(self, trace):
        """Markers toggle a bypass gate that starts on: the MAT, SLDT
        and buffer must end as the oracle leaves them."""
        assert_same_state(trace, mechanism="bypass", classify_misses=True)


def _insert(records, at, op):
    """``records`` with a marker ``op`` inserted before record ``at``,
    on the pc of the record it precedes (or just past the last one)."""
    pc = records[at][2] if at < len(records) else records[-1][2] + 4
    return records[:at] + [(op, 0, pc)] + records[at:]


@st.composite
def marker_placements(draw):
    """A random trace with HW_ON/HW_OFF markers placed anywhere.

    Each placement puts two markers of drawn kinds ``gap`` records
    apart: next to each other (0), around a one-record segment (1) or
    further.  Kinds are drawn freely, so ON-ON and OFF-OFF pairs make
    redundant markers.  A marker may also open the trace or be its
    last record.
    """
    records = list(zip(*draw(packed_traces()).columns()))
    kinds = st.sampled_from([_HW_ON, _HW_OFF])
    placements = st.tuples(
        st.integers(0, len(records)), st.sampled_from([0, 1, 2, 5]),
        kinds, kinds,
    )
    for at, gap, first, second in draw(st.lists(placements, max_size=6)):
        at = min(at, len(records))
        records = _insert(records, at, first)
        records = _insert(records, min(at + 1 + gap, len(records)), second)
    if draw(st.booleans()):
        records = _insert(records, 0, draw(kinds))
    if draw(st.booleans()):
        records = _insert(records, len(records), draw(kinds))
    return PackedTrace("markers", *zip(*records))


class TestMarkerPlacement:
    """Wherever the markers sit, one replay per trace (or one segment
    per marker under telemetry) leaves what the per-record loop does:
    the result, every cache, TLB, predictor and assist structure, the
    gate's counts, the sample series and the boundary snapshots."""

    @settings(max_examples=80, deadline=None)
    @given(
        trace=marker_placements(),
        mechanism=st.sampled_from([None, "bypass", "victim", "prefetch"]),
        initially_on=st.booleans(),
        interval=st.sampled_from([None, 97]),
    )
    def test_matches_the_oracle(
        self, trace, mechanism, initially_on, interval
    ):
        legs = []
        for by_oracle in (True, False):
            hub = None if interval is None else Telemetry(interval=interval)
            result, state = run_machine(
                trace,
                by_oracle,
                mechanism,
                initially_on=initially_on,
                telemetry=hub,
                classify_misses=True,
            )
            legs.append((result, state, hub and _recorded(hub)))
        (expected, expected_state, expected_hub), (result, state, hub) = legs
        assert result == expected
        for key in expected_state:
            assert state[key] == expected_state[key], key
        assert hub == expected_hub


class TestVictimReinsert:
    def test_l1_reinsert_merges_dirty_bits(self):
        """A line refilled into L1 while the gate is off, and so held
        by L1 and the L1 victim cache at once, merges its dirty bits
        when L1 evicts it again with the gate back on."""
        records = []
        pc = 0x400000

        def emit(op, arg):
            nonlocal pc
            pc += 4
            records.append((op, arg, pc))

        # Lines 1 KB apart share one 4-way L1D set: storing to eight of
        # them parks the first four, dirty, in the L1 victim cache.
        for i in range(8):
            emit(_STORE, 0x80000 + i * 1024)
        emit(_HW_OFF, 0)
        emit(_LOAD, 0x80000)  # clean refill from L2, victim untouched
        emit(_HW_ON, 0)
        for i in range(8, 12):
            emit(_LOAD, 0x80000 + i * 1024)  # evicts line 0 again
        ops, args, pcs = zip(*records)
        assert_same_state(PackedTrace("reinsert", ops, args, pcs))


class TestBypassBufferTiming:
    def test_buffer_hit_completes_last(self):
        """A bypass-buffer hit costs one cycle over an L1 hit and uses
        no refill bus; when it is the last operation to complete, that
        cycle sets the run's total."""
        records = []
        pc = 0x400000

        def emit(op, arg):
            nonlocal pc
            pc += 4
            records.append((op, arg, pc))

        hot = _BUFFER_STORM_BASE
        for _ in range(12):
            emit(_LOAD, hot)  # a hot macro-block
        for j in range(1, 4):
            emit(_LOAD, hot + j * 1024)  # fills the set; hot line is LRU
        emit(_LOAD, hot + 4 * 1024)  # cold line: bypassed to the buffer
        emit(_ALU, 2000)  # outlast the cold line's DRAM fetch
        emit(_LOAD, hot + 4 * 1024)  # served by the buffer
        trace = PackedTrace("buffer-hit", *zip(*records))
        _assert_two_way(trace, 1, mechanism="bypass")
        machine = base_config().scaled(TINY.machine_divisor)
        result = simulate_trace(trace, machine, mechanism="bypass")
        assert result.memory.assist_hits == 1


def _l1_placement(state):
    """L1D's lines in LRU order per set, and its access counts."""
    sets, stats = state["l1d"]
    lines = [[line for line, _, _ in s] for s in sets]
    return lines, (stats.accesses, stats.hits, stats.misses, stats.evictions)


class TestMissFiltersLeaveL1:
    """The premise of the miss-stream filters: victim caches and stream
    buffers never change which lines L1D holds, their LRU order or its
    access counts, wherever the markers sit.  They only take the
    misses they serve away from L2.  A stream-buffer hit installs the
    line with the dirty bit an L2 fill would give it, so its L1D equals
    the plain one outright; a line swapped back from the victim cache
    keeps the dirty bit it left with, since it was never written back."""

    @settings(max_examples=60, deadline=None)
    @given(
        trace=marker_placements(),
        mechanism=st.sampled_from(["victim", "prefetch"]),
        initially_on=st.booleans(),
    )
    def test_l1_is_the_plain_replay(self, trace, mechanism, initially_on):
        _, plain = run_machine(trace, False, None)
        _, state = run_machine(
            trace, False, mechanism, initially_on=initially_on
        )
        assert _l1_placement(state) == _l1_placement(plain)
        if mechanism == "victim":
            served = state["l1_victim"][1].hits
        else:
            assert state["l1d"] == plain["l1d"]
            served = state["counters"][1]
        assert state["l2"][1].accesses == plain["l2"][1].accesses - served

    def test_victim_hit_keeps_its_dirty_bit(self):
        """A stored line pushed into the victim cache and swapped back
        is dirty in L1D; with no assist it was written back and comes
        back clean.  Nothing else about L1D differs."""
        lines = [0x10000 + k * 1024 for k in range(6)] + [0x10000]
        ops = [_STORE] + [_LOAD] * 6
        trace = PackedTrace(
            "swap", ops, lines, [0x400000 + 4 * i for i in range(7)]
        )
        _, plain = run_machine(trace, False, None)
        _, state = run_machine(trace, False, "victim")
        assert _l1_placement(state) == _l1_placement(plain)
        home = 0x10000 >> 5
        dirty = {
            line: (d, plain_d)
            for s, plain_s in zip(state["l1d"][0], plain["l1d"][0])
            for (line, _, d), (_, _, plain_d) in zip(s, plain_s)
            if d != plain_d
        }
        assert dirty == {home: (True, False)}
