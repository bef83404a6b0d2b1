"""The nest-level executor against the record-by-record oracle.

:class:`tests.tracegen.oracle.OracleGenerator` is the interpreter the
executor replaced.  On generated programs the two must agree on all
three trace columns and on the pointer-chase state they end with, and
they must refuse the same programs with the same error.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.analytic.walk import walk_histogram, walk_profile
from repro.compiler.ir.builder import ProgramBuilder, loop, stmt
from repro.compiler.ir.expr import MaxExpr, MinExpr, var
from repro.compiler.ir.refs import IndexedRef, PointerChaseRef
from repro.compiler.transforms.tiling import apply_tiling
from repro.locality.mrc import distance_histogram
from repro.locality.profile import split_profiles
from repro.tracegen.interpreter import TraceGenerator
from tests.analytic import test_model, test_tiles
from tests.strategies import affine_programs, irregular_programs
from tests.tracegen.oracle import OracleGenerator

LINE = 32


def assert_same_execution(program):
    oracle = OracleGenerator(program)
    executor = TraceGenerator(program)
    expected = oracle.generate_packed()
    got = executor.generate_packed()
    for want, have in zip(expected.columns(), got.columns()):
        assert have == want
    assert executor.chains == oracle.chains


class TestGeneratedNests:
    @given(affine_programs())
    @settings(max_examples=60, deadline=None)
    def test_affine_nests(self, program):
        assert_same_execution(program)

    @given(irregular_programs())
    @settings(max_examples=300, deadline=None)
    def test_irregular_nests(self, program):
        assert_same_execution(program)


class TestEdgeNests:
    def test_clamped_and_strided_tiles(self):
        b = ProgramBuilder("tiles")
        a = b.array("A", (32, 32))
        t, i, j = var("t"), var("i"), var("j")
        b.append(loop("t", 0, 30, [
            loop("i", MaxExpr(1, t - 1), MinExpr(30, t + 7), [
                loop("j", 0, 9, [stmt(reads=[a[i, j]], work=1)], step=4),
            ]),
        ], step=7))
        assert_same_execution(b.build())

    def test_zero_and_one_trip_loops(self):
        b = ProgramBuilder("trips")
        a = b.array("A", (8,))
        i = var("i")
        b.append(
            loop("z", 3, 3, [stmt(reads=[a[i]], work=1)]),
            loop("o", 0, 1, [
                loop("i", 2, 3, [stmt(writes=[a[i]], work=0)]),
                loop("n", 0, 0, [stmt(reads=[a[i]], work=1)]),
            ]),
        )
        assert_same_execution(b.build())

    def test_chain_shared_by_sibling_loops(self):
        b = ProgramBuilder("chase")
        heap = b.array(
            "H", (5,), element_size=32, data=np.array([3, 0, 4, 1, 2])
        )
        first = PointerChaseRef(heap, "w", 0, 32)
        second = PointerChaseRef(heap, "w", 8, 32)
        b.append(
            loop("i", 0, 3, [stmt(reads=[first, second], work=1)]),
            loop("j", 0, 4, [stmt(writes=[first], work=0)]),
        )
        assert_same_execution(b.build())

    def test_chase_into_a_cycle_after_a_tail(self):
        b = ProgramBuilder("rho")
        heap = b.array(
            "H", (6,), element_size=16, data=np.array([7, 3, 9, 4, 2, 0])
        )
        b.append(loop("i", 0, 20, [
            stmt(reads=[PointerChaseRef(heap, "w", 4, 16)], work=1),
        ]))
        assert_same_execution(b.build())

    def test_indexed_wraps_with_scale_and_offset(self):
        b = ProgramBuilder("wrap")
        a = b.array("A", (10,))
        idx = b.index_array("IDX", np.array([9, -4, 25, 3, 0, 17]))
        i = var("i")
        b.append(loop("i", 0, 6, [
            stmt(reads=[IndexedRef(a, idx[i], offset=13, scale=3)], work=1),
        ]))
        assert_same_execution(b.build())


class TestMissingData:
    @pytest.mark.parametrize("kind", ["index", "pointer"])
    def test_same_error_without_run_time_data(self, kind):
        def build(trips):
            b = ProgramBuilder("nodata")
            a = b.array("A", (8,))
            i = var("i")
            if kind == "index":
                ref = IndexedRef(a, b.array("IDX", (8,))[i])
            else:
                ref = PointerChaseRef(b.array("P", (8,)), "w")
            b.append(loop("i", 0, trips, [stmt(reads=[ref], work=1)]))
            return b.build()

        with pytest.raises(ValueError) as expected:
            OracleGenerator(build(4)).generate_packed()
        with pytest.raises(ValueError) as got:
            TraceGenerator(build(4)).generate_packed()
        assert str(got.value) == str(expected.value)
        assert "has no run-time data" in str(got.value)
        # A reference that never executes never needs its data.
        assert_same_execution(build(0))


def _analytic_programs():
    yield test_model.matmul()
    for tile in (4, 8, 16):
        program = test_model.matmul(40)
        apply_tiling(program.top_level_loops()[0], 4096, tile_size=tile)
        yield program
    for build, n, l1_bytes in test_tiles.CELLS:
        program = build(n)
        apply_tiling(program.top_level_loops()[0], l1_bytes)
        yield program


class TestExactWalks:
    def test_walks_match_the_oracle_trace(self):
        # The analytic model's exact reference answers are bit-identical
        # whichever executor produced the trace.
        for program in _analytic_programs():
            trace = OracleGenerator(program).generate_packed()
            assert walk_histogram(program, LINE) == distance_histogram(
                trace, LINE
            )
            assert walk_profile(program, LINE) == split_profiles(
                trace, LINE, False
            )
