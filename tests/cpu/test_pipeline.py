"""Tests for the trace-driven timing model."""


from repro.cpu.pipeline import CPUSimulator
from repro.hwopt.controller import VictimCacheAssist
from repro.hwopt.gate import HardwareGate
from repro.isa.trace import TraceBuilder
from repro.memory.hierarchy import MemoryHierarchy
from repro.params import base_config


def run_trace(builder_fn, machine=None, assist=None, initially_on=True,
              model_ifetch=True):
    machine = machine or base_config()
    hierarchy = MemoryHierarchy(machine, assist)
    gate = HardwareGate(assist, initially_on=initially_on)
    simulator = CPUSimulator(machine, hierarchy, gate, model_ifetch)
    tb = TraceBuilder("t")
    builder_fn(tb)
    return simulator.run(tb.build()), gate


class TestIssueBandwidth:
    def test_alu_issue_rate(self):
        result, _gate = run_trace(lambda tb: tb.alu(400), model_ifetch=False)
        # 400 single-cycle ops at width 4: 100 cycles.
        assert result.cycles == 100
        assert result.instructions == 400

    def test_compressed_alu_counts_dynamic(self):
        def body(tb):
            tb.alu(7)
            tb.alu(9)
        result, _ = run_trace(body, model_ifetch=False)
        assert result.instructions == 16

    def test_ipc_bounded_by_width(self):
        result, _ = run_trace(lambda tb: tb.alu(1000), model_ifetch=False)
        assert result.ipc <= base_config().issue_width + 1e-9


class TestMemoryTiming:
    def test_hot_loads_fast(self):
        def body(tb):
            tb.load(0x1000)
            for _ in range(100):
                tb.load(0x1000)
        result, _ = run_trace(body, model_ifetch=False)
        # After the cold miss, L1 hits pipeline at the port rate.
        assert result.cycles < 300

    def test_miss_latency_visible(self):
        machine = base_config()

        def body(tb):
            # Misses spaced beyond the LSQ window serialize.
            for i in range(64):
                tb.load(0x100000 + i * 8192)
                tb.alu(200)
        result, _ = run_trace(body, machine, model_ifetch=False)
        issue_only = 64 * 201 / machine.issue_width
        assert result.cycles > issue_only

    def test_independent_misses_overlap(self):
        machine = base_config()

        def burst(tb):
            for i in range(32):
                tb.load(0x100000 + i * 8192)

        def spaced(tb):
            for i in range(32):
                tb.load(0x100000 + i * 8192)
                tb.alu(400)  # push each miss into its own window

        burst_result, _ = run_trace(burst, machine, model_ifetch=False)
        spaced_result, _ = run_trace(spaced, machine, model_ifetch=False)
        # The spaced version pays issue time 32*100 cycles; subtracting
        # it, its memory stall exceeds the fully-overlapped burst.
        assert burst_result.cycles < machine.mem_latency * 32
        assert spaced_result.cycles > burst_result.cycles

    def test_refill_bandwidth_bounds_miss_streams(self):
        machine = base_config()

        def stream(tb):
            # 256 distinct 32-byte lines = 64 cold 128-byte L2 blocks
            # plus 192 L2-served L1 fills.  Two floors apply: the L1
            # refill bus (4 beats per fill) and the MSHR limit (8
            # outstanding DRAM misses per memory latency).
            for i in range(256):
                tb.load(0x100000 + i * 32)
        result, _ = run_trace(stream, machine, model_ifetch=False)
        bus_floor = 256 * 4
        mshr_floor = (64 // machine.max_outstanding_misses) * (
            machine.mem_latency
        )
        assert result.cycles >= max(bus_floor, mshr_floor)


class TestBranches:
    def test_mispredict_penalty_charged(self):
        machine = base_config()

        def body(tb):
            for i in range(100):
                tb.set_pc(0x1000)
                tb.branch(i % 2 == 0)  # alternating: mispredicts a lot
        result, _ = run_trace(body, machine, model_ifetch=False)
        assert result.branch_mispredictions > 20
        assert result.cycles > 100 / machine.issue_width

    def test_loop_branch_predicts_well(self):
        def body(tb):
            for i in range(100):
                tb.set_pc(0x1000)
                tb.branch(i != 99)
        result, _ = run_trace(body, model_ifetch=False)
        assert result.branch_mispredictions <= 3


class TestMarkers:
    def test_markers_toggle_gate(self):
        machine = base_config()
        assist = VictimCacheAssist(machine)

        def body(tb):
            tb.hw_on()
            tb.load(0x1000)
            tb.hw_off()
        result, gate = run_trace(
            body, machine, assist, initially_on=False, model_ifetch=False
        )
        assert result.hw_toggles == 2
        assert not assist.enabled  # ended in the off state

    def test_markers_cost_issue_slots(self):
        def with_markers(tb):
            for _ in range(100):
                tb.hw_on()
                tb.hw_off()

        def without(tb):
            tb.alu(200)
        a, _ = run_trace(with_markers, model_ifetch=False)
        b, _ = run_trace(without, model_ifetch=False)
        assert a.instructions == b.instructions == 200
        assert a.cycles == b.cycles  # same issue bandwidth cost

    def test_gate_respected_by_hierarchy(self):
        machine = base_config()
        assist = VictimCacheAssist(machine)
        span = machine.l1d.num_sets * machine.l1d.block_size

        def body(tb):
            # Mechanism OFF: generate evictions that must NOT be captured.
            for way in range(6):
                tb.load(0x100000 + way * span)
            tb.hw_on()
            for way in range(6):
                tb.load(0x200000 + way * span)
        run_trace(body, machine, assist, initially_on=False,
                  model_ifetch=False)
        resident = [line in assist.l1_victim._blocks for line in
                    range(0x100000 // 32, 0x100000 // 32 + 1)]
        assert not any(resident)
        assert len(assist.l1_victim) >= 1  # captured while ON


class TestInstructionFetch:
    def test_ifetch_stalls_on_new_lines(self):
        def body(tb):
            for i in range(64):
                tb.set_pc(0x1000 + i * 1024)  # new I-line every time
                tb.alu(1)
        with_fetch, _ = run_trace(body)
        without, _ = run_trace(body, model_ifetch=False)
        assert with_fetch.cycles > without.cycles

    def test_loop_body_ifetch_warm(self):
        def body(tb):
            for _ in range(200):
                tb.set_pc(0x1000)
                tb.alu(1)
        result, _ = run_trace(body)
        # One cold fetch (ITLB + L1I + L2 + DRAM ~ 155 cycles) plus 50
        # issue cycles; every later fetch reuses the warm line.
        assert result.cycles < 250
        cold, _ = run_trace(lambda tb: (tb.set_pc(0x1000), tb.alu(1)))
        assert result.cycles - cold.cycles < 60
