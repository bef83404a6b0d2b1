"""Pin the bucketed stack-distance histogram to the legacy implementation.

The bucketed reuse histogram is now ``distance_histogram(...).bucketed``
over the numpy stack-distance kernel of :mod:`repro.locality`; this
module keeps a copy of the original O(N·M) OrderedDict implementation
as a second, independent oracle of that kernel and checks
label-for-label equality on real benchmark traces and adversarial
synthetic streams.  ``profile_trace`` has a packed columnar path; both
paths must produce identical profiles.
"""

import random
from collections import OrderedDict

import pytest

from repro.isa.trace import TraceBuilder
from repro.locality.mrc import distance_histogram
from repro.tracegen.interpreter import TraceGenerator
from repro.workloads.base import TINY
from repro.workloads.registry import get_spec
from tests.isa.trace_profile import profile_trace

BENCHMARKS = ("perl", "swim", "tpcd_q1")


def reuse_distance_histogram(
    trace, line_size=32, buckets=(16, 64, 256, 1024)
):
    """The kernel's bucketed histogram, under the legacy signature."""
    return distance_histogram(trace, line_size).bucketed(buckets)


def legacy_reuse_distance_histogram(
    trace, line_size=32, buckets=(16, 64, 256, 1024)
):
    """The pre-engine implementation, verbatim (reversed-dict scan)."""
    stack: OrderedDict[int, None] = OrderedDict()
    labels = [f"<={b}" for b in buckets] + [f">{buckets[-1]}", "cold"]
    histogram = {label: 0 for label in labels}
    for inst in trace.instructions:
        if not inst.is_memory:
            continue
        line = inst.arg // line_size
        if line in stack:
            distance = 0
            for key in reversed(stack):
                if key == line:
                    break
                distance += 1
            for bucket, label in zip(buckets, labels):
                if distance <= bucket:
                    histogram[label] += 1
                    break
            else:
                histogram[f">{buckets[-1]}"] += 1
            stack.move_to_end(line)
        else:
            histogram["cold"] += 1
            stack[line] = None
    return histogram


@pytest.mark.parametrize("workload", BENCHMARKS)
def test_matches_legacy_on_benchmark_traces(workload):
    program = get_spec(workload).instantiate(TINY)
    trace = TraceGenerator(program).generate()
    new = reuse_distance_histogram(trace)
    old = legacy_reuse_distance_histogram(trace)
    assert new == old
    assert list(new) == list(old)  # label order preserved too


def test_matches_legacy_on_packed_form():
    program = get_spec("compress").instantiate(TINY)
    packed = TraceGenerator(program).generate_packed()
    assert reuse_distance_histogram(packed) == (
        legacy_reuse_distance_histogram(packed.to_trace())
    )


@pytest.mark.parametrize("seed", [3, 14, 159])
def test_matches_legacy_on_random_streams(seed):
    rng = random.Random(seed)
    tb = TraceBuilder("rand")
    for _ in range(4000):
        tb.load(rng.randrange(0, 1 << 16))
        if rng.random() < 0.3:
            tb.store(rng.randrange(0, 1 << 12))
    trace = tb.build()
    assert reuse_distance_histogram(trace) == (
        legacy_reuse_distance_histogram(trace)
    )


def test_custom_buckets_and_line_size():
    tb = TraceBuilder("edges")
    for i in range(300):
        tb.load(i * 64)
    tb.load(0)
    trace = tb.build()
    for buckets in ((1, 2), (4, 8, 300)):
        for line_size in (16, 64, 128):
            assert reuse_distance_histogram(
                trace, line_size=line_size, buckets=buckets
            ) == legacy_reuse_distance_histogram(
                trace, line_size=line_size, buckets=buckets
            )


def test_profile_trace_packed_equals_objects():
    program = get_spec("tpcd_q6").instantiate(TINY)
    packed = TraceGenerator(program).generate_packed()
    assert profile_trace(packed) == profile_trace(packed.to_trace())
    assert profile_trace(packed, line_size=64) == profile_trace(
        packed.to_trace(), line_size=64
    )
