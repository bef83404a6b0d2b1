"""Property-based lockstep check for the vectorized simulator path.

Random packed traces — mixed opcodes, compressed ALU bursts, gate
toggles mid-trace, miss storms sized to saturate the MSHR file and
the load/store queue, write-heavy conflict storms that overflow the
victim caches, and buffer storms that bypass lines into the bypass
buffer, hit them there and displace dirty double words — must produce
bit-identical results through all three execution paths (object
reference loop, scalar packed loop, block-batched numpy kernels).
Hypothesis shrinks any divergence down to a minimal instruction
sequence, which makes timing-model regressions far easier to localise
than a benchmark-level mismatch.

Victim-cache and bypass runs also compare the machine state the
results cannot show (:func:`machine_state`): a dirty bit that is never
written back, a victim cache or bypass buffer left in the wrong order,
or a MAT counter noted out of turn, would only surface in a later
span.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiment import simulate_trace
from repro.core.versions import make_assist
from repro.cpu.pipeline import CPUSimulator
from repro.cpu.vector import MIN_VECTOR_SPAN
from repro.hwopt.controller import VictimCacheAssist
from repro.hwopt.gate import HardwareGate
from repro.isa.instructions import Opcode
from repro.isa.packed import PackedTrace
from repro.memory.hierarchy import MemoryHierarchy
from repro.params import base_config
from repro.workloads.base import TINY

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


def _assert_three_way(trace, **kwargs):
    machine = base_config().scaled(TINY.machine_divisor)
    objects = simulate_trace(trace.to_trace(), machine, **kwargs)
    scalar = simulate_trace(
        trace,
        base_config().scaled(TINY.machine_divisor),
        vectorize=False,
        **kwargs,
    )
    vector = simulate_trace(
        trace,
        base_config().scaled(TINY.machine_divisor),
        vectorize=True,
        **kwargs,
    )
    assert scalar == objects
    assert vector == objects


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
    if isinstance(assist, VictimCacheAssist):
        return {
            "l1_victim": _victim_state(assist.l1_victim),
            "l2_victim": _victim_state(assist.l2_victim),
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


def machine_state(
    trace, vectorize, mechanism="victim", initially_on=True, **kwargs
):
    """Run ``trace`` with an assist; return the result and end state.

    The state covers what :class:`SimulationResult` equality cannot
    see: per-set LRU order and dirty bits of L1D and L2, the DRAM
    counters, ``_last_source`` and the assist's own state — for victim
    caches both caches' contents, order, dirty bits and statistics; for
    bypassing the MAT tags, counters and aging phase, the SLDT's LRU
    order, touched-word masks and spatial counters, and the bypass
    buffer's order, dirty bits and statistics.
    """
    machine = base_config().scaled(TINY.machine_divisor)
    assist = make_assist(mechanism, machine)
    hierarchy = MemoryHierarchy(machine, assist, **kwargs)
    simulator = CPUSimulator(
        machine,
        hierarchy,
        HardwareGate(assist, initially_on=initially_on),
        vectorize=vectorize,
    )
    result = simulator.run(trace)
    state = {
        "l1d": _cache_state(hierarchy.l1d),
        "l2": _cache_state(hierarchy.l2),
        "dram": (hierarchy.memory.reads, hierarchy.memory.writes),
        "last_source": hierarchy._last_source,
        **_assist_state(assist),
    }
    return result, state


def assert_same_state(trace, **kwargs):
    """``vectorize=True`` and ``vectorize=False`` leave equal machines."""
    scalar_result, scalar_state = machine_state(trace, False, **kwargs)
    vector_result, vector_state = machine_state(trace, True, **kwargs)
    assert vector_result == scalar_result
    for key in scalar_state:
        assert vector_state[key] == scalar_state[key], key


class TestVectorProperty:
    @settings(max_examples=40, deadline=None)
    @given(trace=packed_traces())
    def test_no_assist(self, trace):
        _assert_three_way(trace, classify_misses=True)

    @settings(max_examples=80, deadline=None)
    @given(
        trace=packed_traces(),
        mechanism=st.sampled_from(["bypass", "victim", "prefetch"]),
    )
    def test_gated_assist(self, trace, mechanism):
        """Toggles enable the assist: vector spans must interleave with
        bulk-replayed assist-on spans on shared timing state."""
        _assert_three_way(trace, mechanism=mechanism, initially_on=False)

    @settings(max_examples=40, deadline=None)
    @given(trace=packed_traces())
    def test_victim_always_on(self, trace):
        """Markers toggle a gate that starts on; with ``classify_misses``
        the shadow classifiers see the victim-filtered L2 stream."""
        _assert_three_way(trace, mechanism="victim", classify_misses=True)

    @settings(max_examples=40, deadline=None)
    @given(trace=packed_traces())
    def test_victim_state(self, trace):
        assert_same_state(trace, classify_misses=True)

    @settings(max_examples=40, deadline=None)
    @given(trace=packed_traces())
    def test_bypass_state(self, trace):
        """Markers toggle a bypass gate that starts on: the MAT, SLDT
        and buffer must end as the scalar loop leaves them."""
        assert_same_state(trace, mechanism="bypass", classify_misses=True)


def _run_gated_resume(monkeypatch, mechanism, middle):
    """Auto-dispatch a vector -> assist-on -> vector trace.

    The gate-off spans exceed ``MIN_VECTOR_SPAN``, so they take the
    kernels; the assist-enabled middle span has ``middle`` iterations.
    Returns the assist state of every span the vector path ran, plus
    the auto-dispatched and object-loop results.
    """
    from repro.cpu import vector

    records = []
    pc = 0x400000

    def emit(op, arg):
        nonlocal pc
        pc += 4
        records.append((op, arg, pc))

    span = MIN_VECTOR_SPAN + 64
    for i in range(span):
        emit(_LOAD, (i * 4096) % (1 << 20))
    emit(_HW_ON, 0)
    for i in range(middle):
        emit(_STORE if i % 3 else _LOAD, _POOL[i % len(_POOL)])
        if i % 7 == 0:
            emit(_STORE, 0x80000 + (i * 1024) % (1 << 16))
    emit(_HW_OFF, 0)
    for i in range(span):
        emit(_ALU if i % 5 == 0 else _LOAD, (i * 32) % (1 << 16) or 1)
    ops, args, pcs = zip(*records)
    trace = PackedTrace("resume", ops, args, pcs)

    machine = base_config().scaled(TINY.machine_divisor)
    objects = simulate_trace(
        trace.to_trace(), machine, mechanism=mechanism, initially_on=False
    )

    seen = []
    simulate_span = vector._simulate_span

    def record(sim, *args):
        seen.append(sim.hierarchy.assist.enabled)
        simulate_span(sim, *args)

    monkeypatch.setattr(vector, "_simulate_span", record)
    auto = simulate_trace(
        trace,
        base_config().scaled(TINY.machine_divisor),
        mechanism=mechanism,
        initially_on=False,
    )
    return seen, auto, objects


class TestMidSegmentFallbackResume:
    def test_vector_resumes_after_scalar_fallback_span(self, monkeypatch):
        """vector span -> short assist-on scalar span -> vector span.

        The victim span is below ``MIN_VECTOR_SPAN``, so it runs the
        scalar fallback on the same ``_PackedState``.  The result must
        still match the object reference loop exactly.
        """
        seen, auto, objects = _run_gated_resume(monkeypatch, "victim", 200)
        assert seen == [False, False]
        assert auto == objects

    @pytest.mark.parametrize(
        "mechanism, vector_spans",
        [
            # An assist span above the floor is replayed in bulk.
            ("bypass", [False, True, False]),
            ("victim", [False, True, False]),
        ],
        ids=["bypass", "victim"],
    )
    def test_vector_resumes_around_long_assist_span(
        self, monkeypatch, mechanism, vector_spans
    ):
        """vector span -> long assist-on span -> vector span again."""
        seen, auto, objects = _run_gated_resume(
            monkeypatch, mechanism, MIN_VECTOR_SPAN + 200
        )
        assert seen == vector_spans
        assert auto == objects


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
        _assert_three_way(trace, mechanism="bypass")
        scalar = simulate_trace(
            trace,
            base_config().scaled(TINY.machine_divisor),
            mechanism="bypass",
            vectorize=False,
        )
        assert scalar.memory.assist_hits == 1
