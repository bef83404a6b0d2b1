"""Hypothesis strategies for IR programs, shared across test packages.

``affine_programs`` draws the analyzable nests the closed-form locality
model handles; ``irregular_programs`` draws the full executable IR the
trace executor must handle (every reference kind, clamped and skewed
bounds, markers inside loop bodies), for equivalence tests against
the record-by-record oracle.
"""

import numpy as np
from hypothesis import strategies as st

from repro.compiler.ir.builder import ProgramBuilder, loop, stmt
from repro.compiler.ir.expr import MaxExpr, MinExpr, var
from repro.compiler.ir.refs import (
    IndexedRef,
    NonAffineRef,
    PointerChaseRef,
    RegisterRef,
    ScalarRef,
)
from repro.compiler.ir.stmts import MarkerStmt

__all__ = ["affine_programs", "irregular_programs"]


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


@st.composite
def irregular_programs(draw):
    """A random program over the whole executable IR.

    Loops nest up to three deep; a nested loop's bounds may be constant
    (including zero- and one-trip), triangular, skewed, or clamped by
    ``min``/``max`` on an outer variable, with steps up to 3.  Bodies
    mix markers with statements whose references are affine, scalar,
    register-promoted, indexed (scale and offset past the array, so
    the target wraps), non-affine, and pointer chases on two chains
    over two heaps whose successor data is any map, not only a cycle.
    """
    b = ProgramBuilder("nest")
    grid = b.array("A", (16, 16))
    vector = b.array("V", (40,))
    values = st.lists(st.integers(-8, 90), min_size=32, max_size=32)
    index = b.index_array("IDX", np.array(draw(values)))

    def heap(name):
        nodes = draw(st.integers(1, 8))
        successors = st.lists(
            st.integers(0, 2 * nodes), min_size=nodes, max_size=nodes
        )
        return b.array(
            name, (nodes,), element_size=32, data=np.array(draw(successors))
        )

    # Mostly one heap per chain; now and then a chain steps across both.
    heaps = [heap("H"), heap("G")]
    counter = iter(range(1000))

    def subscript(names):
        # Top-level statements have no loop variable to subscript with.
        if not names:
            return draw(st.integers(0, 3))
        return var(draw(st.sampled_from(names)))

    def reference(names):
        v, w = subscript(names), subscript(names)
        kind = draw(
            st.sampled_from(
                ["affine", "scalar", "register", "indexed", "non_affine",
                 "chase"]
            )
        )
        if kind == "affine":
            return grid[v + draw(st.integers(0, 2)), w]
        if kind == "scalar":
            return ScalarRef(draw(st.sampled_from(["s", "t"])))
        if kind == "register":
            return RegisterRef(
                draw(st.sampled_from([ScalarRef("s"), vector[v]]))
            )
        if kind == "indexed":
            return IndexedRef(
                vector,
                index[v + draw(st.integers(0, 2))],
                offset=draw(st.integers(-3, 50)),
                scale=draw(st.integers(1, 3)),
            )
        if kind == "non_affine":
            if not names:
                return NonAffineRef(vector, lambda e: (5,))
            name = draw(st.sampled_from(names))
            return NonAffineRef(
                vector, lambda e, n=name: ((e[n] * e[n] + 3) % 40,)
            )
        return PointerChaseRef(
            draw(st.sampled_from([heaps[0], heaps[0], heaps[1]])),
            draw(st.sampled_from(["p", "q"])),
            field_offset=draw(st.sampled_from([0, 8, 16])),
            node_size=32,
        )

    def statement(names):
        count = draw(st.integers(0, 3))
        return stmt(
            reads=[reference(names) for _ in range(count)],
            writes=[reference(names)] if draw(st.booleans()) else [],
            work=draw(st.integers(0, 2)),
        )

    def bounds(outer):
        lower = draw(st.integers(0, 2))
        kind = draw(
            st.sampled_from(
                ["constant", "triangular", "skewed", "min", "max"]
                if outer else ["constant"]
            )
        )
        if kind == "constant":
            return lower, draw(st.integers(lower, lower + 5))
        o = var(draw(st.sampled_from(outer)))
        if kind == "triangular":
            return o, 5
        if kind == "skewed":
            return o + lower, o + draw(st.integers(lower, lower + 4))
        if kind == "min":
            return lower, MinExpr(draw(st.integers(lower, 6)), o + 2)
        return MaxExpr(lower, o - 1), draw(st.integers(lower, 6))

    def body(outer, depth):
        items = []
        for _ in range(draw(st.integers(1, 3))):
            choice = draw(st.sampled_from(["stmt", "loop", "marker"]))
            if choice == "marker":
                items.append(
                    MarkerStmt(draw(st.sampled_from(["on", "off"])))
                )
            elif choice == "loop" and depth < 3:
                name = f"v{next(counter)}"
                lower, upper = bounds(outer)
                items.append(
                    loop(
                        name,
                        lower,
                        upper,
                        body(outer + [name], depth + 1),
                        step=draw(st.integers(1, 3)),
                    )
                )
            else:
                items.append(statement(outer))
        return items

    for node in body([], 0):
        b.append(node)
    return b.build()
