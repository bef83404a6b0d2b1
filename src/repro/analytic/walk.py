"""Exact reference histograms for the closed-form model.

The closed-form model (:mod:`repro.analytic.model`) is judged against
the trace pipeline itself: the program is interpreted by
:class:`repro.tracegen.interpreter.TraceGenerator` and the packed trace
is run through the same reuse-stack consumers the simulator-side
locality tools use.  These wrappers exist so model tests and callers
can name "the exact answer for this program" in one call.
"""

from __future__ import annotations

from repro.compiler.ir.program import Program
from repro.locality.mrc import DistanceHistogram, distance_histogram
from repro.locality.profile import LocalityProfile, split_profiles
from repro.tracegen.interpreter import TraceGenerator

__all__ = ["walk_histogram", "walk_profile"]


def walk_histogram(program: Program, line_size: int = 32) -> DistanceHistogram:
    """Exact whole-program stack-distance histogram.

    ``distance_histogram`` of the interpreter's trace of ``program``.
    """
    trace = TraceGenerator(program).generate_packed()
    return distance_histogram(trace, line_size)


def walk_profile(
    program: Program,
    line_size: int = 32,
    initially_on: bool = False,
) -> LocalityProfile:
    """Exact per-region locality profile.

    ``split_profiles`` of the interpreter's trace of ``program`` — one
    shared LRU stack, distances binned into the dynamic region they
    occur in.
    """
    trace = TraceGenerator(program).generate_packed()
    return split_profiles(trace, line_size, initially_on)
