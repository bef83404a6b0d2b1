"""The per-record simulation loop, kept as the kernels' oracle.

This is the scalar path :class:`repro.cpu.pipeline.CPUSimulator` ran
before every run took the replay-and-fold kernels of
:mod:`repro.cpu.vector`: one record at a time, each data access and
instruction fetch through the hierarchy's own L1/L2/DRAM walk, with the
assist's hooks called while its ``enabled`` flag is on and each HW_ON/
HW_OFF record toggling the gate as it executes.  It shares the
simulator's timing state (:class:`repro.cpu.pipeline._PackedState`),
its structures and its result, so equality of the two runs checks the
kernels record for record, telemetry included.

* :class:`OracleHierarchy` — :class:`MemoryHierarchy` plus the
  per-access ``data_access`` and ``inst_fetch`` paths;
* :class:`OracleSimulator` — :class:`CPUSimulator` with the scalar
  loop as its ``run``;
* :func:`simulate_trace` — ``repro.core.experiment.simulate_trace``
  on the two, without the replay memo.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.core.versions import make_assist
from repro.cpu.pipeline import CPUSimulator, _PackedState
from repro.cpu.results import SimulationResult
from repro.hwopt.gate import HardwareGate
from repro.isa.instructions import Opcode
from repro.isa.packed import AnyTrace, as_packed
from repro.memory.assist import ASSIST_HIT_CYCLES, AssistInterface
from repro.memory.block import CacheBlock
from repro.memory.hierarchy import MemoryHierarchy
from repro.params import MachineParams

__all__ = [
    "AccessResult",
    "OracleHierarchy",
    "OracleSimulator",
    "simulate_trace",
]

_LOAD = int(Opcode.LOAD)
_STORE = int(Opcode.STORE)
_ALU = int(Opcode.ALU)
_BRANCH = int(Opcode.BRANCH)
_HW_ON = int(Opcode.HW_ON)
_HW_OFF = int(Opcode.HW_OFF)


class AccessResult(NamedTuple):
    """Outcome of a single data access."""

    latency: int
    l1_hit: bool
    served_by: str  # "l1" | "assist" | "l2" | "l2assist" | "mem"


class OracleHierarchy(MemoryHierarchy):
    """The hierarchy with one-access-at-a-time data and fetch paths.

    The assist is consulted on L1 misses, fills and evictions only
    while its ``enabled`` flag is on.
    """

    def __init__(
        self,
        machine: MachineParams,
        assist: Optional[AssistInterface] = None,
        classify_misses: bool = False,
    ):
        super().__init__(machine, assist, classify_misses)
        # Provenance of the most recent L2-path access.  Must be an
        # instance attribute: hierarchies run side by side in one
        # process, and a class attribute would leak the last source
        # across instances.
        self._last_source = "mem"

    def data_access(self, addr: int, is_write: bool = False) -> AccessResult:
        """Perform one load/store; return its latency and provenance."""
        assist = self.assist if (self.assist and self.assist.enabled) else None
        latency = self.machine.l1d.latency
        if not self.dtlb.lookup(addr):
            latency += self.machine.dtlb.miss_penalty
        if self.l1d.lookup(addr, is_write):
            if assist:
                assist.note_access(addr, is_write, l1_hit=True)
            return AccessResult(latency, True, "l1")
        if assist:
            assist.note_access(addr, is_write, l1_hit=False)
            line = self.l1d.line_of(addr)
            served = assist.lookup_alternate(addr, line, is_write)
            if served is not None:
                extra_latency, promoted = served
                latency += extra_latency
                if promoted is not None:
                    self._install_l1(addr, promoted.dirty or is_write, assist)
                return AccessResult(latency, False, "assist")
        latency += self._fetch_into_l1(addr, is_write, assist)
        return AccessResult(latency, False, self._last_source)

    def inst_fetch(self, addr: int) -> int:
        """Fetch an instruction; return the latency in cycles.

        The instruction path has no hardware assist in the paper (the
        mechanisms target the data cache).
        """
        latency = self.machine.l1i.latency
        if not self.itlb.lookup(addr):
            latency += self.machine.itlb.miss_penalty
        if self.l1i.lookup(addr):
            return latency
        latency += self._access_l2(addr, assist=None)
        evicted = self.l1i.fill(addr)
        if evicted is not None and evicted.dirty:
            self._writeback_to_l2(evicted, self.machine.l1i.block_size)
        return latency

    def _fetch_into_l1(
        self, addr: int, is_write: bool, assist: Optional[AssistInterface]
    ) -> int:
        """Bring the line for ``addr`` from L2/memory; place per assist."""
        latency = self._access_l2(addr, assist)
        if (
            assist is None
            or assist.fill_decision(
                addr, self.l1d.victim_candidate(addr)
            ).cache_in_l1
        ):
            self._install_l1(addr, is_write, assist)
        else:
            line = self.l1d.line_of(addr)
            displaced = assist.accept_bypassed(
                addr, CacheBlock(line, is_write)
            )
            if displaced is not None and displaced.dirty:
                self._writeback_to_l2(displaced, self.machine.l1d.block_size)
        return latency

    def _access_l2(self, addr: int, assist: Optional[AssistInterface]) -> int:
        """Look up L2 (then L2 assist, then DRAM); fill L2 on the way."""
        latency = self.machine.l2.latency
        if self.l2.lookup(addr):
            self._last_source = "l2"
            return latency
        if assist:
            l2_line = self.l2.line_of(addr)
            block = assist.lookup_l2_alternate(l2_line)
            if block is not None:
                latency += ASSIST_HIT_CYCLES
                self._install_l2(addr, block.dirty, assist)
                self._last_source = "l2assist"
                return latency
        latency += self.memory.read_block(self.machine.l2.block_size)
        self._install_l2(addr, False, assist)
        self._last_source = "mem"
        return latency

    def _install_l1(
        self, addr: int, dirty: bool, assist: Optional[AssistInterface]
    ) -> None:
        evicted = self.l1d.fill(addr, dirty)
        if evicted is None:
            return
        if assist:
            evicted = assist.on_l1_evict(evicted)
        if evicted is not None and evicted.dirty:
            self._writeback_to_l2(evicted, self.machine.l1d.block_size)

    def _install_l2(
        self, addr: int, dirty: bool, assist: Optional[AssistInterface]
    ) -> None:
        evicted = self.l2.fill(addr, dirty)
        if evicted is None:
            return
        if assist:
            evicted = assist.on_l2_evict(evicted)
        if evicted is not None and evicted.dirty:
            self.memory.write_block(self.machine.l2.block_size)

    def _writeback_to_l2(self, block: CacheBlock, block_size: int) -> None:
        """Write an evicted dirty L1-side line down the hierarchy."""
        byte_addr = block.byte_addr(block_size)
        if self.l2.probe(byte_addr):
            self.l2.fill(byte_addr, dirty=True)
        else:
            self.memory.write_block(block_size)


class OracleSimulator(CPUSimulator):
    """The simulator with the per-record loop as its ``run``.

    Its hierarchy must be an :class:`OracleHierarchy`.
    """

    def run(self, trace: AnyTrace) -> SimulationResult:
        if self.telemetry is not None:
            self.telemetry.bind(
                self.hierarchy.sample_counters,
                self.hierarchy.snapshot,
                gate_on=self.gate.enabled,
            )
            self.gate.telemetry = self.telemetry
        trace = as_packed(trace)
        state = _PackedState(self.machine, self.telemetry)
        self._run_records(state, *trace.columns())
        return self._finalize_packed(trace.name, state)

    def _run_records(self, state: _PackedState, ops, args, pcs) -> None:
        """The scalar loop over every record, opcodes compared as ints."""
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
        # 2-port cases are hoisted out of the general scan.
        port_free = state.port_free
        single_port = num_ports == 1
        dual_port = num_ports == 2
        port0 = port_free[0]
        port1 = port_free[1] if dual_port else 0
        # Shared refill bus: beats to move one L1 line from L2.  DRAM
        # fills occupy the same L1-side bus slot; their own DRAM-bus
        # transfer is part of the access latency.
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

        telemetry = self.telemetry
        sample_step = telemetry.interval if telemetry is not None else 0
        next_sample = state.next_sample

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


def simulate_trace(
    trace: AnyTrace,
    machine: MachineParams,
    mechanism: Optional[str] = None,
    initially_on: bool = True,
    classify_misses: bool = False,
    telemetry=None,
) -> SimulationResult:
    """:func:`repro.core.experiment.simulate_trace` on the scalar loop.

    Never reads or fills the replay memo.
    """
    assist = make_assist(mechanism, machine) if mechanism else None
    hierarchy = OracleHierarchy(machine, assist, classify_misses)
    gate = HardwareGate(assist, initially_on=initially_on)
    return OracleSimulator(machine, hierarchy, gate, telemetry=telemetry).run(
        trace
    )
