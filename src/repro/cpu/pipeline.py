"""The trace-driven timing model.

Model (one pass over the trace, O(N)):

* **Issue bandwidth** — up to ``issue_width`` instructions issue per
  cycle; compressed ALU bursts advance the issue clock in bulk.
* **Load/store window** — outstanding memory operations occupy LSQ
  slots; a new memory op cannot issue until the op ``lsq_entries``
  before it has completed.  Independent misses therefore overlap
  (memory-level parallelism) up to the window size.
* **Memory ports** — at most ``mem_ports`` memory operations can start
  per cycle; port contention delays the start of an access.
* **Refill bandwidth** — every L1 miss occupies a shared refill bus
  for its line's transfer beats (4 beats for a 32-byte line over the
  8-byte bus), so miss-thrashing code pays for its miss *count* even
  when the latencies would overlap in the LSQ window.
* **MSHRs** — at most ``max_outstanding_misses`` DRAM misses are in
  flight; a storm streams at that many per memory latency.  This keeps
  DRAM-bound code *latency*-sensitive (as in SimpleScalar's
  fixed-latency memory) instead of purely bandwidth-bound, which is
  what reproduces the paper's Figure 5 trend.
* **Branches** — a bimodal predictor; a mispredict adds the redirect
  penalty to the issue clock.
* **Instruction fetch** — the pc stream is run through the L1I/L2 path;
  a front-end miss stalls issue by the access time beyond an L1I hit.
  Sequential fetches within one I-cache line are free.
* **HW_ON/HW_OFF** — occupy an issue slot each and toggle the hardware
  gate, so the paper's "overhead of ON/OFF instructions" is counted.

Final cycle count is the completion time of the last instruction.

One implementation runs it: :func:`repro.cpu.vector.run_trace`, which
replays the whole trace in bulk and then folds the replay's outcomes
through the timing recurrence in numpy.  The per-record loop it
replaced is kept only as the tests' oracle (``tests/cpu/oracle.py``);
``tests/cpu/test_packed_equivalence.py`` and the hypothesis suite in
``tests/cpu/test_vector_property.py`` pin the two bit-identical.
Object traces are packed once on entry.

**How one replay per trace preserves bit-identity.**  Nothing in the
memory system depends on simulated *time* — caches, TLBs and the
branch predictor are deterministic state machines driven purely by the
access *sequence*, and the timing recurrence reads their outcomes but
never feeds cycles back into them (interval-sampling telemetry only
reads counters, and the kernels rebuild its samples per segment).  A
run therefore has two phases: a replay phase that resolves every
cache/TLB/branch outcome in bulk (grouping accesses by set, where LRU
evolution is independent, and replaying each set's short sequence
against the live ``SetAssociativeCache`` state), and a timing phase
that folds the resulting per-access outcome codes through the
issue/LSQ/port/refill/MSHR recurrence.

The HW_ON/HW_OFF gate enters the replay as a mask: each data access
carries the gate state in effect at its record (after an ``HW_ON`` on,
after an ``HW_OFF`` off; a redundant marker changes nothing).  A marker
has no data access and its fetch never consults the assist, so which
side of its own toggle it falls on does not matter.  Most of the
machine ignores the gate: the TLBs, L1I, L2 and the branch predictor
replay once over the whole trace, and so does L1D without an assist
and with a miss-stream filter.  A victim hit swaps the line back into
L1 with the same ``fill`` an L2 fill would do (and an L2 victim hit
does the same ``l2.fill`` as a DRAM fill), and a stream-buffer hit
installs the line as an L2 fill would, so L1 and L2 tag and LRU state
never depend on victim caches or stream buffers; they run as
sequential filters over the miss stream, probed only by the accesses
the mask lets through.  Bypassing, the fill placer, changes what L1
holds, but its MAT, SLDT and buffer never read L2, the TLBs, the
predictor or time, and L2 never feeds back into them: only the L1D
lookups of the accesses the mask lets through run in record order,
through the assist's fused ``filter_l1``, and the rest of the run
stays in bulk.

**The marker rule.**  Each marker ends the segment it sits in, and the
gate toggles after that segment's fold, with ``telemetry.now`` and
``instructions`` read from :class:`_PackedState`, whose end state is
the per-record loop's state right after the marker's issue slot.
Without telemetry a run is one segment, the whole trace, and every
toggle is applied at its end.  With a hub, segments are cut after each
marker, so the hub's ``gate_changed`` snapshot and forced sample see
the hierarchy just after the marker's own fetch and slot.

The replay phase reads no latency at all: it yields an outcome code
per access and fetch (where it was served from, and whether its TLB
missed) and a flag per branch (:class:`repro.cpu.vector.Replay`), and
the timing phase maps the codes to cycles with the machine's timing
fields (:func:`repro.memory.hierarchy.outcome_timing`).  So a replay
made on one machine times exactly on any machine that differs from it
only in those fields — cache and TLB latencies, memory latency and bus
width, issue width, ports, LSQ, MSHRs and the mispredict penalty.
``repro.core.experiment.simulate_trace`` uses this for every run
without telemetry: it keeps the latest whole-trace replay of each
assist setting on the trace and reruns only the timing phase for such
a machine.  L2-only changes that could reuse the L1 side, and cells in
forked workers, are not covered.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cpu.branch import BimodalPredictor
from repro.cpu.results import SimulationResult
from repro.hwopt.gate import HardwareGate
from repro.isa.packed import AnyTrace, as_packed
from repro.memory.hierarchy import MemoryHierarchy
from repro.params import MachineParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.hub import Telemetry

__all__ = ["CPUSimulator"]


class _PackedState:
    """Mutable timing state threaded through a run's segments.

    One instance lives for a whole simulation.  The timing fold reads
    it at a segment's entry and writes it back at its exit, so its end
    state is the timing state after the segment's last record: a
    marker that ends the segment toggles the gate from there (see the
    marker rule above), and the next segment's fold resumes from it.

    ``port_free`` is kept as a plain per-port list of free times.  Only
    the *multiset* of values is observable (arbitration always picks a
    port with the minimum free time, and which physical port wins a tie
    affects nothing downstream), so the timing fold may rotate it
    through a sorted ring and write back any permutation.
    """

    __slots__ = (
        "issue_cycle",
        "slot",
        "last_done",
        "lsq_done",
        "lsq_index",
        "port_free",
        "refill_bus_free",
        "mshr_done",
        "mshr_index",
        "instructions",
        "loads",
        "stores",
        "branches",
        "current_ifetch_line",
        "next_sample",
    )

    def __init__(
        self, machine: MachineParams, telemetry: Optional["Telemetry"] = None
    ):
        self.issue_cycle = 0  # cycle currently being filled with issues
        self.slot = 0  # issue slots used in issue_cycle
        self.last_done = 0  # completion time of the latest-finishing op
        self.lsq_done = [0] * machine.lsq_entries  # completion ring
        self.lsq_index = 0
        self.port_free = [0] * machine.mem_ports
        self.refill_bus_free = 0
        self.mshr_done = [0] * machine.max_outstanding_misses
        self.mshr_index = 0
        self.instructions = 0
        self.loads = 0
        self.stores = 0
        self.branches = 0
        self.current_ifetch_line = -1
        #: Issue cycle of the next interval sample; None when not sampling.
        step = telemetry.interval if telemetry is not None else 0
        self.next_sample = step if step > 0 else None

    def cycles(self) -> int:
        """The run's cycle count: the completion time of its last
        instruction."""
        return max(self.issue_cycle + (1 if self.slot else 0), self.last_done)


class CPUSimulator:
    """Times a trace (object or packed form) against a memory hierarchy."""

    def __init__(
        self,
        machine: MachineParams,
        hierarchy: MemoryHierarchy,
        gate: Optional[HardwareGate] = None,
        model_ifetch: bool = True,
        telemetry: Optional["Telemetry"] = None,
    ):
        self.machine = machine
        self.hierarchy = hierarchy
        self.gate = gate or HardwareGate(hierarchy.assist)
        self.predictor = BimodalPredictor(machine.bimodal_entries)
        self.model_ifetch = model_ifetch
        self.telemetry = telemetry
        #: The last run's whole-trace :class:`repro.cpu.vector.Replay`
        #: when it ran without telemetry (one segment), else None.
        self.replay = None

    def run(self, trace: AnyTrace) -> SimulationResult:
        """Simulate the whole trace; return cycles and statistics.

        Object traces are packed first, then replayed and folded by
        :func:`repro.cpu.vector.run_trace`.

        An attached telemetry hub only *reads* simulator and hierarchy
        counters, so results are bit-identical with or without one
        (pinned by ``tests/telemetry/test_identity.py``).
        """
        if self.telemetry is not None:
            self.telemetry.bind(
                self.hierarchy.sample_counters,
                self.hierarchy.snapshot,
                gate_on=self.gate.enabled,
            )
            self.gate.telemetry = self.telemetry
        from repro.cpu.vector import run_trace

        return run_trace(self, as_packed(trace))

    def _finalize_packed(
        self, trace_name: str, state: _PackedState
    ) -> SimulationResult:
        """Close the run: the telemetry hub's last sample and boundary,
        and the result."""
        total_cycles = state.cycles()
        if self.telemetry is not None:
            self.telemetry.finish(total_cycles, state.instructions)
        return SimulationResult(
            trace_name=trace_name,
            machine_name=self.machine.name,
            cycles=total_cycles,
            instructions=state.instructions,
            loads=state.loads,
            stores=state.stores,
            branches=state.branches,
            branch_mispredictions=self.predictor.mispredictions,
            hw_toggles=self.gate.toggles,
            memory=self.hierarchy.snapshot(),
        )
