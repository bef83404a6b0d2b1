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

Two implementations produce bit-identical results (pinned by
``tests/cpu/test_packed_equivalence.py`` and the hypothesis suite in
``tests/cpu/test_vector_property.py``):

* ``_run_packed_range`` — the scalar per-record reference loop over the
  packed columns, processing any half-open record range against a
  shared :class:`_PackedState`;
* :func:`repro.cpu.vector.run_vectorized` — block-batched numpy
  kernels, dispatched automatically.

Object traces are packed once on entry, so both loops read columns.

**How the batched kernels preserve bit-identity.**  Nothing in the
memory system depends on simulated *time* — caches, TLBs and the
branch predictor are deterministic state machines driven purely by the
access *sequence*, and the timing recurrence reads their outcomes but
never feeds cycles back into them (interval-sampling telemetry only
reads counters, and the vector path rebuilds its samples per span).
The vector path therefore splits each HW_ON/HW_OFF-delimited segment
into two phases: a replay phase that resolves every cache/TLB/branch
outcome in bulk (grouping accesses by set, where LRU evolution is
independent, and replaying each set's short sequence against the live
``SetAssociativeCache`` state), and a timing phase that folds the
resulting per-access latency/provenance columns through the identical
issue/LSQ/port/refill/MSHR recurrence.  Assist-enabled segments are
replayed in bulk too, and that is exact.  A victim hit swaps the line
back into L1 with the same ``fill`` an L2 fill would do (and an L2
victim hit does the same ``l2.fill`` as a DRAM fill), so L1 and L2 tag
and LRU state never depend on the victim caches, which then run as
sequential filters over each level's miss and eviction stream.
Bypassing (and the stream-buffer extension) changes what L1 holds, but
its MAT, SLDT and buffer never read L2, the TLBs, the predictor or
time, and L2 never feeds back into them: only the L1D lookups and the
assist's hooks run in record order, and the rest of the segment stays
in bulk.  The vector kernels resume mid-trace after every scalar
marker record.

The replay phase reads no latency at all: it yields an outcome code
per access and fetch (where it was served from, and whether its TLB
missed) and a flag per branch (:class:`repro.cpu.vector.Replay`), and
the timing phase maps the codes to cycles with the machine's timing
fields (:func:`repro.memory.hierarchy.outcome_timing`).  So a replay
made on one machine times exactly on any machine that differs from it
only in those fields — cache and TLB latencies, memory latency and bus
width, issue width, ports, LSQ, MSHRs and the mispredict penalty.
``repro.core.experiment.simulate_trace`` uses this for runs that take
the kernels as one span (no markers, no telemetry): it keeps the
latest replay of each assist setting on the trace and reruns only the
timing phase for such a machine.  Markered traces, L2-only changes
that could reuse the L1 side, and cells in forked workers are not
covered.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cpu.branch import BimodalPredictor
from repro.cpu.results import SimulationResult
from repro.hwopt.gate import HardwareGate
from repro.isa.instructions import Opcode
from repro.isa.packed import AnyTrace, PackedTrace, as_packed
from repro.memory.hierarchy import MemoryHierarchy
from repro.params import MachineParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.hub import Telemetry

__all__ = ["CPUSimulator"]

# Opcodes as plain ints for the packed hot loop (int == int beats
# int == IntEnum by a wide margin at trace scale).
_LOAD = int(Opcode.LOAD)
_STORE = int(Opcode.STORE)
_ALU = int(Opcode.ALU)
_BRANCH = int(Opcode.BRANCH)
_HW_ON = int(Opcode.HW_ON)
_HW_OFF = int(Opcode.HW_OFF)


class _PackedState:
    """Mutable timing-loop state threaded through packed record ranges.

    One instance lives for a whole simulation; ``_run_packed_range``
    and the vector kernels both read it at entry and write it back at
    exit, which is what lets scalar fallback segments and vectorized
    segments alternate mid-trace without any loss of fidelity.

    ``port_free`` is kept as a plain per-port list of free times.  Only
    the *multiset* of values is observable (arbitration always picks a
    port with the minimum free time, and which physical port wins a tie
    affects nothing downstream), so the vector path may rotate it
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
        vectorize: Optional[bool] = None,
    ):
        self.machine = machine
        self.hierarchy = hierarchy
        self.gate = gate or HardwareGate(hierarchy.assist)
        self.predictor = BimodalPredictor(machine.bimodal_entries)
        self.model_ifetch = model_ifetch
        self.telemetry = telemetry
        #: None = the vector kernels, with the scalar loop for markers
        #: and short spans; True forces the kernels onto short spans
        #: too; False pins the scalar loop (the equivalence tests'
        #: oracle).
        self.vectorize = vectorize
        #: The last run's :class:`repro.cpu.vector.Replay` when the
        #: kernels took its whole trace as one span, else None.
        self.replay = None

    def run(self, trace: AnyTrace) -> SimulationResult:
        """Simulate the whole trace; return cycles and statistics.

        Object traces are packed first.  The run takes the
        block-batched vector path unless ``vectorize=False`` pins the
        scalar columnar loop; both produce bit-identical results and
        telemetry (pinned by ``tests/cpu/test_packed_equivalence.py``)
        — any change to the timing model must be made to both.

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
        trace = as_packed(trace)
        if self.vectorize is False:
            return self._run_packed(trace)
        from repro.cpu.vector import run_vectorized

        return run_vectorized(self, trace)

    def _run_packed(self, trace: PackedTrace) -> SimulationResult:
        """Scalar path over the whole trace.

        The loop body lives in :meth:`_run_packed_range` so the vector
        driver can run the same code over fallback segments mid-trace.
        """
        state = _PackedState(self.machine, self.telemetry)
        ops, args, pcs = trace.columns()
        self._run_packed_range(state, ops, args, pcs, 0, len(ops))
        return self._finalize_packed(trace.name, state)

    def _finalize_packed(
        self, trace_name: str, state: _PackedState
    ) -> SimulationResult:
        total_cycles = state.cycles()
        if self.telemetry is not None:
            self.telemetry.finish(total_cycles, state.instructions)
        return self._result(
            trace_name,
            total_cycles,
            state.instructions,
            state.loads,
            state.stores,
            state.branches,
        )

    def _run_packed_range(
        self, state: _PackedState, ops, args, pcs, lo: int, hi: int
    ) -> None:
        """Scalar reference loop over packed records ``lo..hi-1``.

        Reads ``state`` into locals, runs the per-record loop (opcodes
        compared as plain ints; iterating the machine-word columns in
        lockstep replaces per-record NamedTuple traversal, measured
        ~2.5× cheaper per record than indexed column access), and
        writes the updated timing state back, so vectorized and scalar
        segments can alternate over one simulation.
        """
        machine = self.machine
        hierarchy = self.hierarchy
        gate = self.gate
        issue_width = machine.issue_width
        mispredict_penalty = machine.branch_mispredict_penalty
        l1i_hit = machine.l1i.latency
        ifetch_line_mask = ~(machine.l1i.block_size - 1)
        model_ifetch = self.model_ifetch

        lsq_size = machine.lsq_entries
        lsq_done = state.lsq_done
        lsq_index = state.lsq_index
        num_ports = machine.mem_ports
        # Port arbitration picks the earliest-free port; the 1- and
        # 2-port cases (every Table 1 machine) are hoisted out of the
        # general scan into plain int locals.
        port_free = state.port_free
        single_port = num_ports == 1
        dual_port = num_ports == 2
        port0 = port_free[0]
        port1 = port_free[1] if dual_port else 0
        # Shared refill bus: beats to move one L1 line from L2.  DRAM
        # fills occupy the same L1-side bus slot; their own (much
        # longer) DRAM-bus transfer is part of the access latency, as
        # in SimpleScalar — modelling DRAM-side *contention* on top
        # would make miss-storm code bandwidth-bound and insensitive
        # to memory latency, which the paper's simulator is not.
        l2_refill_beats = max(
            machine.l1d.block_size // machine.mem_bus_width, 1
        )
        refill_bus_free = state.refill_bus_free
        # MSHR ring: a DRAM-served miss waits for the one issued
        # max_outstanding_misses earlier to complete.
        mshr_count = machine.max_outstanding_misses
        mshr_done = state.mshr_done
        mshr_index = state.mshr_index

        issue_cycle = state.issue_cycle
        slot = state.slot
        last_done = state.last_done

        instructions = state.instructions
        loads = state.loads
        stores = state.stores
        branches = state.branches
        current_ifetch_line = state.current_ifetch_line

        data_access = hierarchy.data_access
        inst_fetch = hierarchy.inst_fetch
        predict_and_update = self.predictor.predict_and_update
        activate = gate.activate
        deactivate = gate.deactivate

        # Telemetry: ``next_sample`` is None unless interval sampling is
        # on, so a disabled run pays one local ``is None`` check per
        # record.  Sampling and span bookkeeping only read state.
        telemetry = self.telemetry
        sample_step = telemetry.interval if telemetry is not None else 0
        next_sample = state.next_sample

        if lo != 0 or hi != len(ops):
            ops = ops[lo:hi]
            args = args[lo:hi]
            pcs = pcs[lo:hi]

        for op, arg, pc in zip(ops, args, pcs):
            if next_sample is not None and issue_cycle >= next_sample:
                telemetry.sample(issue_cycle, instructions)
                next_sample = (
                    issue_cycle - issue_cycle % sample_step + sample_step
                )

            # -- front end: instruction fetch ---------------------------
            if model_ifetch:
                line = pc & ifetch_line_mask
                if line != current_ifetch_line:
                    current_ifetch_line = line
                    fetch_latency = inst_fetch(pc)
                    if fetch_latency > l1i_hit:
                        issue_cycle += fetch_latency - l1i_hit
                        slot = 0

            # -- issue slot accounting ----------------------------------
            if op == _ALU:
                count = arg if arg > 0 else 1
                instructions += count
                slot += count
                if slot >= issue_width:
                    issue_cycle += slot // issue_width
                    slot %= issue_width
                continue

            instructions += 1
            slot += 1
            if slot >= issue_width:
                issue_cycle += 1
                slot = 0

            if op == _LOAD or op == _STORE:
                is_write = op == _STORE
                if is_write:
                    stores += 1
                else:
                    loads += 1
                # The op at this LSQ slot lsq_size ago must have finished.
                pending = lsq_done[lsq_index]
                if pending > issue_cycle:
                    issue_cycle = pending
                    slot = 0
                # Port arbitration: earliest free port.
                if single_port:
                    start = issue_cycle if issue_cycle > port0 else port0
                    port0 = start + 1
                elif dual_port:
                    if port0 <= port1:
                        start = issue_cycle if issue_cycle > port0 else port0
                        port0 = start + 1
                    else:
                        start = issue_cycle if issue_cycle > port1 else port1
                        port1 = start + 1
                else:
                    port = 0
                    earliest = port_free[0]
                    for p in range(1, num_ports):
                        if port_free[p] < earliest:
                            earliest = port_free[p]
                            port = p
                    start = (
                        issue_cycle if issue_cycle > earliest else earliest
                    )
                    port_free[port] = start + 1
                access = data_access(arg, is_write)
                if access.l1_hit or access.served_by == "assist":
                    done = start + access.latency
                else:
                    # A refill: serialize on the shared L1 fill bus.
                    if refill_bus_free > start:
                        start = refill_bus_free
                    refill_bus_free = start + l2_refill_beats
                    if access.served_by == "mem":
                        # DRAM: bounded memory-level parallelism.
                        pending_miss = mshr_done[mshr_index]
                        if pending_miss > start:
                            start = pending_miss
                        done = start + access.latency
                        mshr_done[mshr_index] = done
                        mshr_index += 1
                        if mshr_index == mshr_count:
                            mshr_index = 0
                    else:
                        done = start + access.latency
                lsq_done[lsq_index] = done
                lsq_index += 1
                if lsq_index == lsq_size:
                    lsq_index = 0
                if done > last_done:
                    last_done = done
            elif op == _BRANCH:
                branches += 1
                if not predict_and_update(pc, arg != 0):
                    issue_cycle += mispredict_penalty
                    slot = 0
            elif op == _HW_ON:
                if telemetry is not None:
                    telemetry.now = issue_cycle
                    telemetry.instructions = instructions
                activate()
            elif op == _HW_OFF:
                if telemetry is not None:
                    telemetry.now = issue_cycle
                    telemetry.instructions = instructions
                deactivate()
            else:  # pragma: no cover - exhaustive over Opcode
                raise ValueError(f"unknown opcode {op!r}")

        state.issue_cycle = issue_cycle
        state.slot = slot
        state.last_done = last_done
        state.lsq_index = lsq_index
        if single_port:
            port_free[0] = port0
        elif dual_port:
            port_free[0] = port0
            port_free[1] = port1
        state.refill_bus_free = refill_bus_free
        state.mshr_index = mshr_index
        state.instructions = instructions
        state.loads = loads
        state.stores = stores
        state.branches = branches
        state.current_ifetch_line = current_ifetch_line
        state.next_sample = next_sample

    def _result(
        self,
        trace_name: str,
        cycles: int,
        instructions: int,
        loads: int,
        stores: int,
        branches: int,
    ) -> SimulationResult:
        return SimulationResult(
            trace_name=trace_name,
            machine_name=self.machine.name,
            cycles=cycles,
            instructions=instructions,
            loads=loads,
            stores=stores,
            branches=branches,
            branch_mispredictions=self.predictor.mispredictions,
            hw_toggles=self.gate.toggles,
            memory=self.hierarchy.snapshot(),
        )
