"""Iteration-space tiling (Wolf & Lam [13]).

Tiles a perfect nest whose data footprint exceeds the L1 capacity so
the reused working set fits in cache.  Strip-mine-and-interchange: the
tiled levels get controlling loops of step ``tile`` outside the nest,
and the original loops shrink to ``[tt, min(upper, tt + tile))``.

Bounds may be affine in outer chain variables (the shape skewing
creates: ``i in [f*t, n + f*t)``): such a level is strip-mined over
its constant *bounding box*, and the inner loop clamps with
``max(lower, tt)`` / ``min(upper, tt + tile)``; empty tile/loop
intersections simply run zero iterations.

Tiling is applied only when it can pay off: nest depth at least two, a
legal full permutation of the relation set from
:mod:`repro.compiler.analysis.deps` (tiling reorders traversal like
interchange does), and at least one reference whose subscript matrix
is rank-deficient along a non-innermost direction — the generalized
"temporal reuse carried by an outer loop" test that also recognizes
skewed references like ``a[i - f*t]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.compiler.analysis.deps import Tiling, nest_dependences
from repro.compiler.analysis.footprint import nest_footprint_bytes
from repro.compiler.ir.expr import AffineExpr, MaxExpr, MinExpr, var
from repro.compiler.ir.loops import Loop
from repro.compiler.ir.refs import AffineRef
from repro.compiler.ir.stmts import Statement
from repro.compiler.verify.bounds import Interval, loop_var_interval

__all__ = [
    "apply_tiling",
    "TilingResult",
    "select_tile_size",
    "tiling_blockers",
]


@dataclass(frozen=True)
class TilingResult:
    applied: bool
    tile_size: int = 0
    tiled_vars: tuple[str, ...] = ()
    reason: str = ""


def select_tile_size(
    l1_bytes: int, statements: list[Statement], depth: int
) -> int:
    """Tile edge so the tile-local working set fits in a fraction of L1.

    For a depth-2 tile the working set is roughly
    ``arrays * tile^2 * element_size``; a safety factor of 2 leaves room
    for conflict misses within the tile.
    """
    arrays = {
        ref.array.name
        for statement in statements
        for ref in statement.references
        if isinstance(ref, AffineRef)
    }
    element = 8
    count = max(len(arrays), 1)
    budget = l1_bytes / (2 * count * element)
    tile = int(math.sqrt(budget)) if depth >= 2 else int(budget)
    # Round down to a power of two for friendly alignment; clamp.
    if tile < 4:
        return 4
    return 1 << (tile.bit_length() - 1)


def _affine_bounds(chain: list[Loop]) -> bool:
    """Every bound a plain affine expression over outer chain vars."""
    seen: set[str] = set()
    for loop in chain:
        for bound in (loop.lower, loop.upper):
            if not isinstance(bound, AffineExpr):
                return False  # already tiled (Min/Max bounds)
            if bound.variables - seen:
                return False  # depends on a non-chain variable
        seen.add(loop.var)
    return True


def tiling_blockers(
    nest_head: Loop,
    l1_bytes: int,
    statements: Optional[list] = None,
    tile_size: Optional[int] = None,
) -> Optional[str]:
    """Why tiling cannot pay off here, ignoring legality — shared with
    the skewing gate (skewing is only worth it when the tiling it
    enables would be applied).  Returns None when no blocker.
    ``tile_size`` overrides the heuristic edge for the trip-count
    check (the model-driven search supplies its candidate here)."""
    chain = nest_head.perfect_nest_loops()
    if len(chain) < 2:
        return "nest depth < 2"
    innermost = chain[-1]
    if not innermost.is_innermost:
        return "imperfect nest"
    if not _affine_bounds(chain):
        return "non-constant bounds"
    if statements is None:
        statements = list(innermost.all_statements())
    footprint = nest_footprint_bytes(chain, statements)
    if footprint <= l1_bytes:
        return "footprint fits in L1"
    if not _has_outer_temporal_reuse(chain, statements):
        return "no outer-carried reuse"
    tile = tile_size or select_tile_size(l1_bytes, statements, len(chain))
    for loop in chain:
        if loop.trip_count_estimate() <= tile:
            return "trip count not larger than tile"
    return None


def apply_tiling(
    nest_head: Loop, l1_bytes: int, tile_size: Optional[int] = None
) -> TilingResult:
    """Tile the perfect nest rooted at ``nest_head`` in place.

    ``tile_size`` overrides the capacity heuristic of
    :func:`select_tile_size`; the model-driven search of
    :mod:`repro.analytic.tiles` passes its per-geometry choice here.
    Legality (full permutability of the dependence relations) is
    checked either way.
    """
    if tile_size is not None and tile_size < 2:
        raise ValueError(f"tile_size must be >= 2, got {tile_size}")
    chain = nest_head.perfect_nest_loops()
    statements = (
        list(chain[-1].all_statements()) if len(chain) >= 2 else []
    )
    blocker = tiling_blockers(nest_head, l1_bytes, statements, tile_size)
    if blocker is not None:
        tile = (
            tile_size
            or select_tile_size(l1_bytes, statements, len(chain))
            if blocker == "trip count not larger than tile"
            else 0
        )
        return TilingResult(False, tile, reason=blocker)

    # Tiling reorders iterations like a permutation that brings tile
    # loops outward; require full permutability of the relation set.
    verdict = nest_dependences(nest_head).legal(Tiling())
    if not verdict:
        return TilingResult(
            False, reason=f"not fully permutable: {verdict.reason}"
        )

    tile = tile_size or select_tile_size(l1_bytes, statements, len(chain))

    # Bounding boxes must be computed before any bound is rewritten.
    env: dict[str, Interval] = {}
    boxes: list[Interval] = []
    for loop in chain:
        interval = loop_var_interval(loop, env)
        if interval is None:
            return TilingResult(False, reason="unbounded iteration space")
        boxes.append(interval)
        env[loop.var] = interval

    # Strip-mine each level: collect controlling loops, innermost last.
    tile_loops = []
    for loop, box in zip(chain, boxes):
        tile_var = loop.var + "__t"
        constant = loop.lower.is_constant and loop.upper.is_constant
        tile_loops.append(
            Loop(
                var=tile_var,
                lower=loop.lower if constant else box.lo,
                upper=loop.upper if constant else box.hi + 1,
                body=[],
                step=tile,
            )
        )
        if constant:
            loop.lower = var(tile_var)
        else:
            loop.lower = MaxExpr(loop.lower, var(tile_var))
        loop.upper = MinExpr(loop.upper, var(tile_var) + tile)

    # Wire the tile loops around the original nest head by *re-seating*
    # the head: the outermost original loop object must stay in its
    # parent's body list, so it becomes the outermost tile loop and the
    # displaced control moves into a fresh Loop object.
    head = chain[0]
    inner_clone = Loop(
        var=head.var,
        lower=head.lower,
        upper=head.upper,
        body=head.body,
        step=head.step,
        preference=head.preference,
    )
    chain[0] = inner_clone
    outer = tile_loops[0]
    head.var = outer.var
    head.lower = outer.lower
    head.upper = outer.upper
    head.step = outer.step
    current = head
    for tile_loop in tile_loops[1:]:
        current.body = [tile_loop]
        current = tile_loop
    current.body = [inner_clone]

    return TilingResult(
        True,
        tile,
        tuple(loop.var for loop in chain),
        "tiled",
    )


def _has_outer_temporal_reuse(
    chain: list[Loop], statements: list[Statement]
) -> bool:
    """Some reference revisits elements along a non-innermost direction.

    A reference's subscript matrix M (rows = array dimensions, columns
    = nest variables) has temporal reuse exactly when its null space is
    non-trivial; the reuse is *outer-carried* when the null space is
    not confined to the innermost axis — i.e. some reuse direction
    moves an outer loop.  This generalizes "invariant in an outer
    variable" to skewed references like ``a[i - f*t]``.
    """
    nest_vars = [loop.var for loop in chain]
    depth = len(nest_vars)
    for statement in statements:
        for ref in statement.references:
            if not isinstance(ref, AffineRef):
                continue
            matrix = [
                [subscript.coefficient(v) for v in nest_vars]
                for subscript in ref.subscripts
            ]
            rank = _integer_rank(matrix)
            if rank >= depth:
                continue  # injective: every iteration a fresh element
            if rank < depth - 1:
                return True  # kernel too big to fit the innermost axis
            # Kernel is one-dimensional: it lies along the innermost
            # axis iff the innermost column is entirely zero.
            if any(row[-1] for row in matrix):
                return True
    return False


def _integer_rank(matrix: list[list[int]]) -> int:
    """Exact rank of a small integer matrix (fraction-free elimination)."""
    rows = [row for row in matrix if any(row)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((row for row in rows if row[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rank += 1
        p = pivot[col]
        rows = [
            [p * x - row[col] * y for x, y in zip(row, pivot)]
            for row in rows
        ]
    return rank
