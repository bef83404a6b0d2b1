"""Tests for the IR pretty-printer and trace analysis utilities."""

import numpy as np
import pytest

from repro.compiler.ir.builder import ProgramBuilder, loop, stmt
from repro.compiler.ir.expr import var
from repro.compiler.ir.pretty import format_program, format_reference
from repro.compiler.ir.refs import (
    IndexedRef,
    PointerChaseRef,
    RegisterRef,
    ScalarRef,
)
from repro.compiler.regions.markers import insert_markers
from repro.isa.trace import TraceBuilder
from repro.locality.mrc import distance_histogram
from repro.tracegen.interpreter import TraceGenerator
from repro.workloads.base import TINY
from repro.workloads.registry import get_spec
from tests.isa.trace_profile import profile_trace

#: The legacy reuse-histogram buckets, in stack-distance lines.
BUCKETS = (16, 64, 256, 1024)


def reuse_distance_histogram(trace):
    return distance_histogram(trace).bucketed(BUCKETS)


class TestPrettyPrinter:
    def build(self):
        b = ProgramBuilder("pp")
        a = b.array("A", (8, 8))
        i, j = var("i"), var("j")
        b.append(loop("i", 0, 8, [loop("j", 0, 8, [
            stmt(writes=[a[i, j]], reads=[a[i, j - 1]], work=1,
                 label="stencil"),
        ])]))
        return b.build()

    def test_listing_structure(self):
        text = format_program(self.build())
        assert "// program pp" in text
        assert "double A[8][8];" in text
        assert "for (i = 0; i < 8)" in text
        assert "A[i][j] = f(A[i][j - 1]);  // stencil" in text

    def test_markers_rendered(self):
        program = get_spec("tpcd_q3").instantiate(TINY)
        insert_markers(program)
        text = format_program(program)
        assert "__ACTIVATE_HW();" in text
        assert "__DEACTIVATE_HW();" in text

    def test_reference_forms(self):
        b = ProgramBuilder("refs")
        a = b.array("A", (8,))
        idx = b.index_array("I", np.arange(8))
        heap = b.array("H", (8,), element_size=32,
                       data=np.arange(8))
        i = var("i")
        assert format_reference(ScalarRef("x")) == "x"
        assert format_reference(a[i + 1]) == "A[i + 1]"
        assert format_reference(
            IndexedRef(a, idx[i], offset=2)
        ) == "A[I[i]+2]"
        assert format_reference(
            PointerChaseRef(heap, "walk", 8)
        ) == "H->(walk+8)"
        assert format_reference(RegisterRef(a[i])) == "reg(A[i])"

    def test_layout_annotations_shown(self):
        program = self.build()
        program.arrays["A"].dim_order = (1, 0)
        program.arrays["A"].pad = 4
        text = format_program(program)
        assert "layout (1, 0)" in text
        assert "pad=4" in text


class TestTraceProfile:
    def test_streaming_profile(self):
        tb = TraceBuilder("s")
        for i in range(512):
            tb.load(i * 8)
        profile = profile_trace(tb.build())
        assert profile.memory_refs == 512
        assert profile.sequential_fraction > 0.9
        assert profile.locality_flavor == "streaming"
        assert profile.working_set_bytes == 512 * 8 // 32 * 32

    def test_hot_spot_profile(self):
        tb = TraceBuilder("h")
        for i in range(500):
            tb.load(0x1000)
        profile = profile_trace(tb.build())
        assert profile.distinct_lines == 1
        assert profile.top_line_share == 1.0
        assert profile.locality_flavor == "reuse-heavy"

    def test_scattered_profile(self):
        import random
        rng = random.Random(5)
        tb = TraceBuilder("r")
        for _ in range(400):
            tb.load(rng.randrange(0, 1 << 22) & ~7)
        profile = profile_trace(tb.build())
        assert profile.locality_flavor == "scattered"

    def test_read_fraction(self):
        tb = TraceBuilder("w")
        tb.load(0)
        tb.store(8)
        tb.store(16)
        profile = profile_trace(tb.build())
        assert profile.read_fraction == pytest.approx(1 / 3)

    def test_workload_flavors_match_design(self):
        """The models really have the access character they claim."""
        flavors = {}
        for name in ("compress", "li"):
            program = get_spec(name).instantiate(TINY)
            trace = TraceGenerator(program).generate()
            flavors[name] = profile_trace(trace).locality_flavor
        # Li is dominated by the scattered cons-cell walks.
        assert flavors["li"] in ("scattered", "reuse-heavy")


class TestReuseDistance:
    def test_cold_counts(self):
        tb = TraceBuilder("c")
        for i in range(64):
            tb.load(i * 32)
        histogram = reuse_distance_histogram(tb.build())
        assert histogram["cold"] == 64

    def test_immediate_reuse(self):
        tb = TraceBuilder("i")
        for _ in range(10):
            tb.load(0)
        histogram = reuse_distance_histogram(tb.build())
        assert histogram["<=16"] == 9
        assert histogram["cold"] == 1

    def test_long_distance_reuse(self):
        tb = TraceBuilder("l")
        for i in range(2000):
            tb.load(i * 32)
        tb.load(0)  # reuse at distance 2000
        histogram = reuse_distance_histogram(tb.build())
        assert histogram[">1024"] == 1

    def test_histogram_totals(self):
        program = get_spec("perl").instantiate(TINY)
        trace = TraceGenerator(program).generate()
        histogram = reuse_distance_histogram(trace)
        assert sum(histogram.values()) == trace.memory_reference_count
