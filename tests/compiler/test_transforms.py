"""Tests for the loop and data transformations."""

import numpy as np

from repro.compiler.analysis.deps import Permutation, nest_dependences
from repro.compiler.ir.builder import ProgramBuilder, loop, stmt
from repro.compiler.ir.expr import var
from repro.compiler.ir.refs import RegisterRef
from repro.compiler.optimizer import LocalityOptimizer
from repro.compiler.regions.detect import detect_regions
from repro.compiler.transforms.interchange import apply_interchange
from repro.compiler.transforms.layout import (
    apply_layouts,
    apply_padding,
    choose_layouts,
)
from repro.compiler.transforms.scalar_replacement import (
    apply_scalar_replacement,
)
from repro.compiler.transforms.tiling import apply_tiling
from repro.compiler.transforms.unroll import apply_unroll_and_jam
from repro.params import base_config
from repro.tracegen.interpreter import TraceGenerator


def addresses_touched(program):
    """The multiset of (op, addr) a program's execution touches."""
    trace = TraceGenerator(program.clone()).generate()
    return sorted(
        (inst.op, inst.arg) for inst in trace if inst.is_memory
    )


def address_sets(program):
    trace = TraceGenerator(program.clone()).generate()
    return {inst.arg for inst in trace if inst.is_memory}


def paper_example(n=16):
    """The Section 3.2 nest: U[j] += V[j][i] * W[i][j]."""
    b = ProgramBuilder("example")
    u = b.array("U", (n,))
    v = b.array("V", (n, n))
    w = b.array("W", (n, n))
    i, j = var("i"), var("j")
    b.append(loop("i", 0, n, [loop("j", 0, n, [
        stmt(writes=[u[j]], reads=[u[j], v[j, i], w[i, j]], work=2),
    ])]))
    return b.build()


class TestDependence:
    """Distance and legality answers of the live dependence engine."""

    def _deps(self, body, loops=("i", "j")):
        inner = body
        for name in reversed(loops):
            inner = [loop(name, 1, 7, inner)]
        return nest_dependences(inner[0])

    def _refs(self, n=8):
        b = ProgramBuilder("d")
        a = b.array("A", (n, n))
        return a

    def test_uniform_distance(self):
        a = self._refs()
        i, j = var("i"), var("j")
        deps = self._deps([stmt(writes=[a[i, j]], reads=[a[i - 1, j]])])
        assert [rel.distance for rel in deps.relations] == [(1, 0)]
        assert deps.legal(Permutation((1, 0)))   # becomes (0, 1): ok

    def test_independent_constants(self):
        a = self._refs()
        i = var("i")
        deps = self._deps(
            [stmt(writes=[a[i, 0]], reads=[a[i, 1]])], loops=("i",)
        )
        assert deps.analyzable
        assert deps.relations == []

    def test_independent_subscripts(self):
        a = self._refs(16)
        i, j = var("i"), var("j")
        deps = self._deps(
            [stmt(writes=[a[2 * i, j]], reads=[a[2 * i + 1, j]])]
        )
        assert deps.relations == []
        assert deps.legal(Permutation((1, 0)))

    def test_transposed_pair_refuses_interchange(self):
        # A[i][j] = A[j][i]: the write at (1, 2) is read at (2, 1), a
        # (<, >) dependence that interchange would reverse.
        a = self._refs()
        i, j = var("i"), var("j")
        deps = self._deps([stmt(writes=[a[i, j]], reads=[a[j, i]])])
        assert deps.analyzable
        assert deps.legal(Permutation((0, 1)))
        assert not deps.legal(Permutation((1, 0)))

    def test_coupled_subscripts_solved(self):
        # Every iteration touches its own A[i+j][j]: only the
        # same-iteration read-before-write pair, so any order is legal.
        a = self._refs(16)
        i, j = var("i"), var("j")
        deps = self._deps(
            [stmt(writes=[a[i + j, j]], reads=[a[i + j, j]])]
        )
        assert deps.relations
        assert all(rel.loop_independent for rel in deps.relations)
        assert deps.legal(Permutation((1, 0)))

    def test_unanalyzable_reference_refused(self):
        from repro.compiler.ir.refs import NonAffineRef

        a = self._refs()
        i, j = var("i"), var("j")
        opaque = NonAffineRef(a, lambda env: (env["i"] % 3, env["j"]))
        deps = self._deps([stmt(writes=[opaque], reads=[a[i, j]])])
        assert not deps.analyzable
        assert not deps.legal(Permutation((0, 1)))

    def test_rank_mismatch_unknown_not_truncated(self):
        # Same array name declared with different ranks: zipping the
        # subscripts would silently drop one and "answer" a distance;
        # the analysis must refuse instead.
        from repro.compiler.ir.refs import AffineRef, ArrayDecl

        a = self._refs()
        flat = ArrayDecl("A", (64,))
        i, j = var("i"), var("j")
        for writes, reads in (
            ([a[i, j]], [AffineRef(flat, (i,))]),
            ([AffineRef(flat, (i,))], [a[i, j]]),
        ):
            deps = self._deps([stmt(writes=writes, reads=reads)])
            assert not deps.analyzable
            assert not deps.legal(Permutation((0, 1)))

    def test_permutation_legality(self):
        a = self._refs()
        i, j = var("i"), var("j")
        carried = self._deps([stmt(writes=[a[i, j]], reads=[a[i - 1, j + 1]])])
        assert [rel.distance for rel in carried.relations] == [(1, -1)]
        assert carried.legal(Permutation((0, 1)))
        assert not carried.legal(Permutation((1, 0)))   # (-1, 1): bad
        forward = self._deps([stmt(writes=[a[i, j]], reads=[a[i, j - 1]])])
        assert forward.legal(Permutation((1, 0)))   # (0, 1) -> (1, 0)

    def test_vectors_for_stencil(self):
        a = self._refs()
        i, j = var("i"), var("j")
        deps = self._deps([stmt(writes=[a[i, j]], reads=[a[i, j - 1]])])
        assert [rel.distance for rel in deps.relations] == [(0, 1)]
        assert [rel.kind for rel in deps.relations] == ["flow"]


class TestInterchange:
    def test_paper_example_moves_i_innermost(self):
        program = paper_example()
        detect_regions(program)
        head = program.top_level_loops()[0]
        result = apply_interchange(head, line_size=32)
        assert result.applied
        assert result.order_after == ("j", "i")

    def test_interchange_preserves_address_set(self):
        before = paper_example()
        after = paper_example()
        detect_regions(after)
        apply_interchange(after.top_level_loops()[0], 32)
        assert address_sets(before) == address_sets(after)

    def test_recurrence_blocks_permutation(self):
        b = ProgramBuilder("rec")
        a = b.array("A", (8, 8))
        i, j = var("i"), var("j")
        # A[i][j] = A[i-1][j+1]: distance (1,-1); interchange illegal.
        b.append(loop("i", 1, 8, [loop("j", 0, 7, [
            stmt(writes=[a[i, j]], reads=[a[i - 1, j + 1]], work=1),
        ])]))
        program = b.build()
        result = apply_interchange(program.top_level_loops()[0], 32)
        assert not result.applied

    def test_adi_column_sweep_interchanges(self):
        b = ProgramBuilder("adi_col")
        x = b.array("X", (16, 16))
        a = b.array("A", (16, 16))
        i, j = var("i"), var("j")
        b.append(loop("i", 0, 16, [loop("j", 1, 16, [
            stmt(writes=[x[j, i]], reads=[x[j - 1, i], a[j, i]], work=1),
        ])]))
        program = b.build()
        result = apply_interchange(program.top_level_loops()[0], 32)
        assert result.applied
        assert result.order_after == ("j", "i")

    def test_depth_one_nest_skipped(self):
        b = ProgramBuilder("d1")
        a = b.array("A", (8,))
        b.append(loop("i", 0, 8, [stmt(reads=[a[var("i")]], work=1)]))
        result = apply_interchange(b.build().top_level_loops()[0], 32)
        assert not result.applied


class TestLayout:
    def test_paper_example_layouts(self):
        """After interchange, V stays row-major and W goes column-major
        (Section 3.2).  The arrays must be large relative to L1 or the
        effective-spatial test rightly concludes layout cannot help."""
        program = paper_example(n=64)
        detect_regions(program)
        apply_interchange(program.top_level_loops()[0], 32)
        result = choose_layouts(program, line_size=32, l1_size=1024)
        apply_layouts(program, result)
        assert program.arrays["V"].dim_order == (0, 1)
        assert program.arrays["W"].dim_order == (1, 0)

    def test_layout_preserves_element_count(self):
        program = paper_example(n=64)
        detect_regions(program)
        before = len(address_sets(program))
        apply_interchange(program.top_level_loops()[0], 32)
        result = choose_layouts(program, 32, 1024)
        apply_layouts(program, result)
        assert len(address_sets(program)) == before

    def test_effective_spatial_reference_abstains(self):
        """A (3, N) component array swept by a short inner loop keeps
        its layout (the chaos update-phase case)."""
        b = ProgramBuilder("comp")
        vel = b.array("VEL", (3, 64))
        n, d = var("n"), var("d")
        b.append(loop("n", 0, 64, [loop("d", 0, 3, [
            stmt(writes=[vel[d, n]], reads=[vel[d, n]], work=1),
        ])]))
        program = b.build()
        detect_regions(program)
        result = choose_layouts(program, 32, 4096)
        assert "VEL" not in result.chosen

    def test_wide_table_goes_column_store(self):
        b = ProgramBuilder("scan")
        table = b.array("T", (256, 16))
        r = var("r")
        b.append(loop("r", 0, 256, [
            stmt(reads=[table[r, 0], table[r, 5]], work=1),
        ]))
        program = b.build()
        detect_regions(program)
        result = choose_layouts(program, 32, 4096)
        apply_layouts(program, result)
        assert program.arrays["T"].dim_order == (1, 0)


class TestPadding:
    def test_padding_changes_only_addresses(self):
        program = paper_example()
        detect_regions(program)
        before = len(address_sets(program))
        padded = apply_padding(program, 32)
        assert padded  # something was padded
        assert len(address_sets(program)) == before

    def test_small_fastest_extent_not_intra_padded(self):
        b = ProgramBuilder("p")
        vel = b.array("VEL", (64, 3))
        n, d = var("n"), var("d")
        b.append(loop("n", 0, 64, [loop("d", 0, 3, [
            stmt(reads=[vel[n, d]], work=1),
        ])]))
        program = b.build()
        detect_regions(program)
        apply_padding(program, 32)
        assert program.arrays["VEL"].pad == 0       # 3 < 8 * line elems
        assert program.arrays["VEL"].base_skew > 0  # but still skewed

    def test_candidate_filter(self):
        program = paper_example()
        detect_regions(program)
        apply_padding(program, 32, candidates={"V"})
        assert program.arrays["V"].base_skew > 0
        assert program.arrays["W"].base_skew == 0

    def test_idempotent(self):
        program = paper_example()
        detect_regions(program)
        first = apply_padding(program, 32)
        second = apply_padding(program, 32)
        assert first and not second


class TestTiling:
    def _matmul(self, n=32):
        b = ProgramBuilder("mm")
        c = b.array("C", (n, n))
        a = b.array("A", (n, n))
        bb = b.array("B", (n, n))
        i, j, k = var("i"), var("j"), var("k")
        b.append(loop("i", 0, n, [loop("j", 0, n, [loop("k", 0, n, [
            stmt(writes=[c[i, j]], reads=[c[i, j], a[i, k], bb[k, j]],
                 work=2),
        ])])]))
        return b.build()

    def test_matmul_tiles_when_footprint_exceeds_l1(self):
        program = self._matmul(32)
        head = program.top_level_loops()[0]
        result = apply_tiling(head, l1_bytes=2048)
        assert result.applied
        assert result.tile_size >= 4
        # The parent-visible loop object is now a tile loop.
        assert head.var.endswith("__t")

    def test_tiling_preserves_addresses(self):
        before = self._matmul(16)
        after = self._matmul(16)
        apply_tiling(after.top_level_loops()[0], l1_bytes=1024)
        assert sorted(address_sets(before)) == sorted(address_sets(after))
        # Same dynamic reference count, different order.
        assert (
            len(addresses_touched(before)) == len(addresses_touched(after))
        )

    def test_small_footprint_not_tiled(self):
        program = self._matmul(8)
        result = apply_tiling(
            program.top_level_loops()[0], l1_bytes=1 << 20
        )
        assert not result.applied
        assert result.reason == "footprint fits in L1"

    def test_no_outer_reuse_not_tiled(self):
        b = ProgramBuilder("copy")
        a = b.array("A", (64, 64))
        c = b.array("B", (64, 64))
        i, j = var("i"), var("j")
        b.append(loop("i", 0, 64, [loop("j", 0, 64, [
            stmt(writes=[c[i, j]], reads=[a[i, j]], work=1),
        ])]))
        result = apply_tiling(b.build().top_level_loops()[0], 1024)
        assert not result.applied


class TestUnrollAndScalarReplacement:
    def test_unroll_and_jam_duplicates_body(self):
        program = paper_example()
        head = program.top_level_loops()[0]
        result = apply_unroll_and_jam(head, factor=2)
        assert result.applied
        inner = head.inner_loops[0]
        assert len(inner.body) == 2
        assert head.step == 2

    def test_unroll_preserves_addresses(self):
        before = paper_example()
        after = paper_example()
        apply_unroll_and_jam(after.top_level_loops()[0], 2)
        assert addresses_touched(before) == addresses_touched(after)

    def test_unroll_rejects_indivisible_trip(self):
        program = paper_example(n=15)
        result = apply_unroll_and_jam(program.top_level_loops()[0], 2)
        assert not result.applied

    def test_unroll_rejects_carried_dependence(self):
        b = ProgramBuilder("carried")
        a = b.array("A", (16, 16))
        i, j = var("i"), var("j")
        b.append(loop("i", 1, 16, [loop("j", 0, 16, [
            stmt(writes=[a[i, j]], reads=[a[i - 1, j]], work=1),
        ])]))
        result = apply_unroll_and_jam(b.build().top_level_loops()[0], 2)
        assert not result.applied

    def test_scalar_replacement_hoists_invariant(self):
        program = paper_example()
        detect_regions(program)
        head = program.top_level_loops()[0]
        apply_interchange(head, 32)  # U[j] becomes inner-invariant
        result = apply_scalar_replacement(head)
        assert result.promoted >= 1
        inner = head.inner_loops[0]
        refs = [r for s in inner.statements() for r in s.references]
        assert any(isinstance(r, RegisterRef) for r in refs)

    def test_scalar_replacement_reduces_memory_refs(self):
        before = paper_example()
        after = paper_example()
        detect_regions(after)
        head = after.top_level_loops()[0]
        apply_interchange(head, 32)
        apply_scalar_replacement(head)
        n_before = len(addresses_touched(before))
        n_after = len(addresses_touched(after))
        assert n_after < n_before

    def test_scalar_replacement_keeps_final_stores(self):
        """Each promoted written ref must still be stored exactly once
        per inner-loop execution (the epilogue)."""
        program = paper_example(n=8)
        detect_regions(program)
        head = program.top_level_loops()[0]
        assert apply_interchange(head, 32).applied
        apply_scalar_replacement(head)
        trace = TraceGenerator(program).generate()
        from repro.isa import Opcode
        u_base = program.arrays["U"].base
        u_end = u_base + program.arrays["U"].footprint_bytes
        stores = [
            inst for inst in trace
            if inst.op is Opcode.STORE and u_base <= inst.arg < u_end
        ]
        assert len(stores) == 8  # one per j


class TestOptimizerPipeline:
    def test_full_pipeline_on_example(self):
        program = paper_example(n=128)
        report = LocalityOptimizer(base_config().scaled(8)).optimize(program)
        assert report.regions is not None
        assert report.interchanged_nests == 1
        assert report.scalar.promoted >= 1
        assert "W" in report.layout.chosen

    def test_disabled_stages_do_nothing(self):
        program = paper_example()
        optimizer = LocalityOptimizer(
            base_config(),
            enable_interchange=False,
            enable_layout=False,
            enable_padding=False,
            enable_tiling=False,
            enable_unroll=False,
            enable_scalar_replacement=False,
        )
        before = addresses_touched(program)
        optimizer.optimize(program)
        assert addresses_touched(program) == before

    def test_hardware_regions_untouched(self):
        b = ProgramBuilder("hw")
        a = b.array("A", (64,))
        idx = b.index_array("IDX", np.arange(64))
        from repro.compiler.ir.refs import IndexedRef
        i = var("i")
        b.append(loop("i", 0, 64, [
            stmt(reads=[IndexedRef(a, idx[i]), IndexedRef(a, idx[i], 1)],
                 writes=[IndexedRef(a, idx[i])], work=1),
        ]))
        program = b.build()
        before = addresses_touched(program)
        LocalityOptimizer(base_config()).optimize(program)
        assert addresses_touched(program) == before
