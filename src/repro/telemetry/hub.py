"""The telemetry hub: counters, gauges, spans, interval sampling.

A :class:`Telemetry` instance is handed to a
:class:`~repro.cpu.pipeline.CPUSimulator`; the simulator binds it to
its memory hierarchy, advances ``now`` as simulated cycles pass, and
the hub records:

* **counters / gauges** — named integers (monotonic / last-value);
* **spans** — nested ``[begin, end)`` simulated-cycle intervals.  The
  hardware gate reports its ON/OFF transitions here, so every
  compiler-marked region becomes a span;
* **interval samples** — every ``interval`` cycles the hierarchy's
  cumulative counters are appended to a columnar
  :class:`~repro.telemetry.series.TimeSeries` (one row at a time by
  the scalar loop, a span's rows at once by the vector path);
* **boundary snapshots** — a full
  :class:`~repro.memory.stats.HierarchySnapshot` at run start, at every
  gate transition, and at run end.  Region-level statistics are exact
  differences of these snapshots (``HierarchySnapshot.__sub__``), not
  interpolations of the sampled series.

The hub is deliberately passive: it never touches simulator state, so
attaching one cannot perturb results (pinned by
``tests/telemetry/test_identity.py``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.telemetry.series import TimeSeries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.stats import HierarchySnapshot

__all__ = ["CycleSpan", "GateBoundary", "Telemetry"]

#: Span name used for hardware-gate ON regions.
GATE_SPAN = "hw_region"


@dataclass
class CycleSpan:
    """One completed simulated-cycle span."""

    name: str
    begin: int
    end: int
    args: dict = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.end - self.begin


@dataclass(frozen=True)
class GateBoundary:
    """Hierarchy state captured at a gate transition (or run edge)."""

    cycle: int
    instructions: int
    gate_on: bool
    memory: "HierarchySnapshot"


class Telemetry:
    """Instrumentation hub for one simulation run.

    ``interval`` is the sampling period in simulated cycles; 0 disables
    the time series but keeps spans, counters, and boundary snapshots.
    """

    def __init__(self, interval: int = 0, name: str = "") -> None:
        if interval < 0:
            raise ValueError(f"interval must be >= 0, got {interval}")
        self.interval = interval
        self.name = name
        self.counters: Counter = Counter()
        self.gauges: dict[str, int] = {}
        self.series = TimeSeries()
        self.spans: list[CycleSpan] = []
        self.boundaries: list[GateBoundary] = []
        #: Current simulated cycle; the simulator updates this before
        #: delegating rare events (gate toggles) to the hub.
        self.now = 0
        #: Instructions retired so far; updated alongside ``now``.
        self.instructions = 0
        self.total_cycles: Optional[int] = None
        self._stack: list[CycleSpan] = []
        self._counters_fn: Optional[Callable[[], tuple[int, ...]]] = None
        self._snapshot_fn: Optional[Callable[[], "HierarchySnapshot"]] = None
        self._gate_on = False

    # ------------------------------------------------------------------
    # counters and gauges

    def incr(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] += amount

    def set_gauge(self, gauge: str, value: int) -> None:
        self.gauges[gauge] = value

    # ------------------------------------------------------------------
    # binding to a simulation

    def bind(
        self,
        counters_fn: Callable[[], tuple[int, ...]],
        snapshot_fn: Callable[[], "HierarchySnapshot"],
        gate_on: bool,
    ) -> None:
        """Attach the hierarchy's counter sources; record the t=0 edge.

        Called by :class:`~repro.cpu.pipeline.CPUSimulator` at the top
        of a run.  Re-binding (one hub per run is the contract) resets
        nothing — a hub records exactly one run.
        """
        if self._counters_fn is not None:
            raise RuntimeError(
                "telemetry hub is already bound; use one hub per run"
            )
        self._counters_fn = counters_fn
        self._snapshot_fn = snapshot_fn
        self._gate_on = gate_on
        self.set_gauge("gate_on", int(gate_on))
        self.boundaries.append(
            GateBoundary(0, 0, gate_on, snapshot_fn())
        )
        if gate_on:
            # A run that starts ON (pure_hw, or a base gate) opens its
            # hardware span at cycle 0.
            self.begin_span(GATE_SPAN, 0, source="initial")

    @property
    def bound(self) -> bool:
        return self._counters_fn is not None

    # ------------------------------------------------------------------
    # sampling

    def sample(self, cycle: int, instructions: int) -> None:
        """Append one interval sample row at ``cycle``."""
        if self._counters_fn is None:
            raise RuntimeError("telemetry hub is not bound to a run")
        self.series.append(
            (cycle, instructions)
            + self._counters_fn()
            + (int(self._gate_on),)
        )

    def sample_rows(self, cycles, instructions, counters) -> None:
        """Append precomputed sample rows, all at the current gate state.

        The vector path's bulk form of :meth:`sample`: ``cycles`` and
        ``instructions`` hold one value per row, ``counters`` one column
        per field of the bound counter row.
        """
        if self._counters_fn is None:
            raise RuntimeError("telemetry hub is not bound to a run")
        gate = [int(self._gate_on)] * len(cycles)
        self.series.extend([cycles, instructions, *counters, gate])

    # ------------------------------------------------------------------
    # spans

    def begin_span(self, span_name: str, cycle: Optional[int] = None, **args) -> None:
        """Open a span at ``cycle`` (default: the current cycle)."""
        begin = self.now if cycle is None else cycle
        self._stack.append(CycleSpan(span_name, begin, begin, dict(args)))

    def end_span(self, cycle: Optional[int] = None, **args) -> Optional[CycleSpan]:
        """Close the innermost open span; returns it (None if unbalanced)."""
        end = self.now if cycle is None else cycle
        if not self._stack:
            self.incr("unbalanced_span_ends")
            return None
        span = self._stack.pop()
        span.end = end
        span.args.update(args)
        self.spans.append(span)
        return span

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    # ------------------------------------------------------------------
    # gate transitions (called by repro.hwopt.gate.HardwareGate)

    def gate_changed(self, enabled: bool) -> None:
        """Record one ON/OFF transition at the current cycle.

        The simulator sets ``now``/``instructions`` before the gate
        delegates here, so the span timestamps and the boundary
        snapshot are exact at the marker instruction.
        """
        self.incr("gate_activations" if enabled else "gate_deactivations")
        if enabled == self._gate_on:
            # Redundant marker (e.g. double ON): count it, no new span.
            self.incr("redundant_gate_markers")
            return
        self._gate_on = enabled
        self.set_gauge("gate_on", int(enabled))
        if self._snapshot_fn is not None:
            self.boundaries.append(
                GateBoundary(
                    self.now, self.instructions, enabled, self._snapshot_fn()
                )
            )
        if enabled:
            self.begin_span(GATE_SPAN)
        elif self._stack and self._stack[-1].name == GATE_SPAN:
            self.end_span()
        else:
            self.incr("unbalanced_span_ends")
        if self.interval > 0 and self._counters_fn is not None:
            # Force a sample at the transition so the series shows the
            # regime change even between interval ticks.
            self.sample(self.now, self.instructions)

    # ------------------------------------------------------------------
    # run end

    def finish(self, total_cycles: int, instructions: int) -> None:
        """Close the run: final sample, final boundary, close open spans."""
        self.now = total_cycles
        self.instructions = instructions
        self.total_cycles = total_cycles
        while self._stack:
            self.end_span(total_cycles, unterminated=True)
        if self._snapshot_fn is not None:
            self.boundaries.append(
                GateBoundary(
                    total_cycles, instructions, self._gate_on, self._snapshot_fn()
                )
            )
        if self.interval > 0 and self._counters_fn is not None:
            self.sample(total_cycles, instructions)

    # ------------------------------------------------------------------

    def gate_spans(self) -> list[CycleSpan]:
        """Completed hardware-ON spans in begin order."""
        return sorted(
            (span for span in self.spans if span.name == GATE_SPAN),
            key=lambda span: span.begin,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Telemetry({self.name!r}, interval={self.interval}, "
            f"{len(self.series)} samples, {len(self.spans)} spans)"
        )
