"""Per-region locality profiles: the distance stream split at markers.

A selective trace alternates between compiler-optimized (gate OFF) and
hardware-assisted (gate ON) regions, delimited by HW_ON/HW_OFF records.
:func:`split_profiles` runs ONE LRU stack over the whole trace — reuse
distances spanning a region boundary are real distances, exactly what a
physical cache would see — but bins the distance of each access into
the histogram of the region it occurs in.  The result is one miss-ratio
curve per dynamic region, which is what the model-driven gating policy
(:mod:`repro.hwopt.policy`) consumes.

Traces without markers produce a single region carrying the initial
gate state, so the same entry point profiles base and optimized traces
too.  Object traces are packed on entry; the scan reads the packed
columns and never materializes instruction objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import Opcode
from repro.isa.packed import AnyTrace, as_packed
from repro.locality.mrc import DistanceHistogram, MissRatioCurve
from repro.locality.stack import ReuseStackEngine

__all__ = ["RegionProfile", "LocalityProfile", "split_profiles"]

_LOAD = int(Opcode.LOAD)
_STORE = int(Opcode.STORE)
_HW_ON = int(Opcode.HW_ON)
_HW_OFF = int(Opcode.HW_OFF)


@dataclass
class RegionProfile:
    """Locality of one dynamic region (a span between two markers)."""

    index: int
    gate_on: bool
    #: Record offset of the region's first instruction in the trace.
    start: int
    histogram: DistanceHistogram = field(default_factory=DistanceHistogram)

    @property
    def memory_refs(self) -> int:
        return self.histogram.total

    def curve(self) -> MissRatioCurve:
        return self.histogram.curve()


@dataclass
class LocalityProfile:
    """All region profiles of one trace, in execution order."""

    trace_name: str
    line_size: int
    regions: list[RegionProfile]

    def occupied_regions(self) -> list[RegionProfile]:
        """Regions that actually issued memory references."""
        return [r for r in self.regions if r.memory_refs]

    def state_histogram(self, gate_on: bool) -> DistanceHistogram:
        """Merged histogram of every region in the given gate state."""
        merged = DistanceHistogram()
        for region in self.regions:
            if region.gate_on == gate_on:
                merged = merged.merged(region.histogram)
        return merged

    def total_histogram(self) -> DistanceHistogram:
        """Whole-trace histogram (equals a direct unsegmented pass)."""
        merged = DistanceHistogram()
        for region in self.regions:
            merged = merged.merged(region.histogram)
        return merged


def split_profiles(
    trace: AnyTrace,
    line_size: int = 32,
    initially_on: bool = False,
) -> LocalityProfile:
    """Profile a trace per region, single pass, shared LRU stack.

    ``initially_on`` is the gate state before the first marker; the
    selective convention is OFF (the program starts in compiler mode,
    matching ``simulate_trace(..., initially_on=False)``).
    """
    engine = ReuseStackEngine()
    access = engine.access
    regions: list[RegionProfile] = [RegionProfile(0, initially_on, 0)]
    record = regions[0].histogram.record
    gate_on = initially_on
    trace = as_packed(trace)
    ops, args, _pcs = trace.columns()
    for offset, (op, arg) in enumerate(zip(ops, args)):
        if op == _LOAD or op == _STORE:
            record(access(arg // line_size))
        elif op == _HW_ON or op == _HW_OFF:
            gate_on = op == _HW_ON
            region = RegionProfile(len(regions), gate_on, offset)
            regions.append(region)
            record = region.histogram.record
    return LocalityProfile(trace.name, line_size, regions)
