"""Exact reference histograms for the closed-form model.

The closed-form model (:mod:`repro.analytic.model`) is judged against
the trace pipeline itself: the program is executed by
:class:`repro.tracegen.interpreter.TraceGenerator` and the packed trace
is run through the same stack-distance consumers the simulator-side
locality tools use — every distance of the trace in one numpy pass
(:func:`repro.locality.stack.stack_distances`), so an exact walk costs
about as much as generating its trace.  These wrappers exist so model
tests and callers can name "the exact answer for this program" in one
call.
"""

from __future__ import annotations

from repro.compiler.ir.program import Program
from repro.locality.mrc import DistanceHistogram, distance_histogram
from repro.locality.profile import LocalityProfile, split_profiles
from repro.tracegen.interpreter import TraceGenerator

__all__ = ["walk_histogram", "walk_profile"]


def walk_histogram(program: Program, line_size: int = 32) -> DistanceHistogram:
    """Exact whole-program stack-distance histogram.

    ``distance_histogram`` of the executor's trace of ``program``.
    """
    trace = TraceGenerator(program).generate_packed()
    return distance_histogram(trace, line_size)


def walk_profile(
    program: Program,
    line_size: int = 32,
    initially_on: bool = False,
) -> LocalityProfile:
    """Exact per-region locality profile.

    ``split_profiles`` of the executor's trace of ``program`` — one
    whole-trace distance column, binned into the dynamic region each
    reference occurs in.
    """
    trace = TraceGenerator(program).generate_packed()
    return split_profiles(trace, line_size, initially_on)
