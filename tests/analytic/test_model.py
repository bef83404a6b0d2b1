"""The closed-form locality model: structure and agreement properties.

Two kinds of checks.  *Properties*: every predicted miss-ratio curve
must be monotone non-increasing in cache size (more capacity never
hurts a stack algorithm), over randomly generated affine nests.
*Agreement*: on nests whose locality has a pencil-and-paper answer
(streams, repeated scans, column extraction, tiled matmul) the model
must land on — or within a tight tolerance of — the exact histogram
of the interpreter's trace (:func:`repro.analytic.walk.walk_histogram`).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic.model import LocalityModel, predict_nest_histogram
from repro.analytic.walk import walk_histogram
from repro.compiler.ir.builder import ProgramBuilder, loop, stmt
from repro.compiler.ir.expr import var
from repro.compiler.ir.stmts import MarkerStmt
from repro.compiler.transforms.tiling import apply_tiling

LINE = 32


@st.composite
def affine_programs(draw):
    """A random program of 1-2 affine nests with concrete bounds."""
    b = ProgramBuilder("prop")
    arrays = [b.array(name, (16, 16)) for name in ("A", "B")]
    body = []
    nests = draw(st.integers(1, 2))
    for nest_index in range(nests):
        depth = draw(st.integers(1, 3))
        names = [f"n{nest_index}v{level}" for level in range(depth)]
        vars_ = [var(name) for name in names]

        def reference():
            array = draw(st.sampled_from(arrays))
            subscripts = []
            for _ in range(2):
                v = draw(st.sampled_from(vars_))
                c = draw(st.integers(0, 2))
                subscripts.append(v + c)
            return array[subscripts[0], subscripts[1]]

        reads = [reference() for _ in range(draw(st.integers(1, 3)))]
        writes = (
            [reference()] if draw(st.booleans()) else []
        )
        statements = [stmt(reads=reads, writes=writes, work=1)]
        if draw(st.booleans()):
            statements.append(
                stmt(reads=[reference()], work=draw(st.integers(0, 2)))
            )
        nest = statements
        for name in reversed(names):
            nest = [loop(name, 0, draw(st.integers(2, 5)), nest)]
        if draw(st.booleans()):
            body.append(MarkerStmt(draw(st.sampled_from(["on", "off"]))))
        body.extend(nest)
    for node in body:
        b.append(node)
    return b.build()


def matmul(n=24):
    b = ProgramBuilder("mm")
    c = b.array("C", (n, n))
    a = b.array("A", (n, n))
    bb = b.array("B", (n, n))
    i, j, k = var("i"), var("j"), var("k")
    b.append(
        loop("i", 0, n, [
            loop("j", 0, n, [
                loop("k", 0, n, [
                    stmt(
                        writes=[c[i, j]],
                        reads=[c[i, j], a[i, k], bb[k, j]],
                        work=2,
                    ),
                ]),
            ]),
        ])
    )
    return b.build()


class TestMonotone:
    @given(affine_programs())
    @settings(max_examples=30, deadline=None)
    def test_predicted_mrc_monotone_nonincreasing(self, program):
        curve = LocalityModel(program, LINE).curve()
        sizes = sorted(curve.sizes())
        ratios = [curve.miss_ratio(size) for size in sizes]
        for smaller, larger in zip(ratios, ratios[1:]):
            assert larger <= smaller + 1e-12

    @given(affine_programs(), st.integers(1, 512))
    @settings(max_examples=30, deadline=None)
    def test_ratio_is_a_ratio(self, program, cache_lines):
        ratio = LocalityModel(program, LINE).miss_ratio(cache_lines)
        assert 0.0 <= ratio <= 1.0


class TestExactOnCanonicalNests:
    def test_streaming_scan_is_all_cold(self):
        b = ProgramBuilder("scan")
        a = b.array("A", (1024,))
        i = var("i")
        b.append(loop("i", 0, 1024, [stmt(reads=[a[i]], work=1)]))
        program = b.build()
        predicted = LocalityModel(program, LINE).total_histogram()
        assert predicted == walk_histogram(program, LINE)

    def test_repeated_scan_reuses_at_footprint(self):
        b = ProgramBuilder("rescan")
        a = b.array("A", (256,))
        t, i = var("t"), var("i")
        b.append(
            loop("t", 0, 4, [
                loop("i", 0, 256, [stmt(reads=[a[i]], work=1)]),
            ])
        )
        program = b.build()
        model = LocalityModel(program, LINE)
        exact = walk_histogram(program, LINE)
        # 64 lines of footprint: hits iff the cache holds the array.
        assert model.miss_ratio(64) == exact.curve().miss_ratio(64)
        assert model.miss_ratio(32) == exact.curve().miss_ratio(32)

    def test_column_extraction_not_merged_across_offsets(self):
        # Three columns of a wide row-major table: same deltas, offsets
        # hundreds of bytes apart — these are separate line streams and
        # grouping them as copies would underpredict threefold.
        rows = 256
        b = ProgramBuilder("cols")
        table = b.array("T", (rows, 16))
        r = var("r")
        b.append(
            loop("r", 0, rows, [
                stmt(
                    reads=[table[r, 0], table[r, 5], table[r, 10]],
                    work=1,
                ),
            ])
        )
        program = b.build()
        model = LocalityModel(program, LINE)
        exact = walk_histogram(program, LINE)
        assert model.miss_ratio(128) == exact.curve().miss_ratio(128)

    def test_adjacent_offsets_do_share_lines(self):
        # a[i] and a[i+1] overlap within a line: close to one stream's
        # misses, nothing near double.
        b = ProgramBuilder("pair")
        a = b.array("A", (1024,))
        i = var("i")
        b.append(
            loop("i", 0, 1023, [
                stmt(reads=[a[i], a[i + 1]], work=1),
            ])
        )
        program = b.build()
        predicted = LocalityModel(program, LINE).total_histogram()
        exact = walk_histogram(program, LINE)
        assert predicted.curve().misses(128) <= 1.1 * exact.curve().misses(
            128
        )

    def test_translated_copy_reuses_across_iterations(self):
        # a[i-1] re-touches a[i]'s line one iteration later: the model
        # must not bill it as a second cold stream.
        b = ProgramBuilder("stencil")
        a = b.array("A", (2048,))
        i = var("i")
        b.append(
            loop("i", 1, 2048, [
                stmt(reads=[a[i], a[i - 1]], work=1),
            ])
        )
        program = b.build()
        model = LocalityModel(program, LINE)
        exact = walk_histogram(program, LINE)
        assert model.miss_ratio(128) == exact.curve().miss_ratio(128)


class TestTiledNests:
    def test_tiled_matmul_tracks_exact_walk(self):
        # Strip-mined controllers never appear in subscripts; their
        # strides flow through the window anchoring.  Without it the
        # model sees free temporal reuse across tiles and every tiled
        # prediction collapses toward zero.
        for tile in (4, 8):
            program = matmul(40)
            result = apply_tiling(
                program.top_level_loops()[0], 4096, tile_size=tile
            )
            assert result.applied
            predicted = LocalityModel(program, LINE).miss_ratio(128)
            exact = walk_histogram(program, LINE).curve().miss_ratio(128)
            assert abs(predicted - exact) < 0.005

    def test_tiling_ordering_matches_reality(self):
        # The model's whole job in the tile search: rank candidate
        # edges the same way the exact walk does.
        def ratio(tile, exact_walk):
            program = matmul(40)
            apply_tiling(
                program.top_level_loops()[0], 4096, tile_size=tile
            )
            if exact_walk:
                return walk_histogram(program, LINE).curve().miss_ratio(128)
            head = program.top_level_loops()[0]
            return predict_nest_histogram(head, LINE).curve().miss_ratio(
                128
            )

        predicted = [ratio(tile, False) for tile in (4, 8, 16)]
        exact = [ratio(tile, True) for tile in (4, 8, 16)]
        assert sorted(range(3), key=predicted.__getitem__) == sorted(
            range(3), key=exact.__getitem__
        )
