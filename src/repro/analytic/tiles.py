"""Model-driven tile-size search.

:func:`repro.compiler.transforms.tiling.select_tile_size` picks a tile
edge from a pure capacity argument — footprint of a square tile versus
half the L1.  That ignores everything the closed-form model knows:
line-size effects on the trailing dimension, how many arrays actually
carry reuse, and the loop structure left after interchange and
skewing.  The search here closes that gap: for each candidate edge it
*tiles a throwaway clone of the nest*, asks
:func:`repro.analytic.predict_nest_histogram` for the predicted
miss-ratio at the L1 capacity, and keeps the edge that minimizes it.

The heuristic default stays the anchor: a candidate must *strictly*
beat the default's predicted ratio to displace it, so on nests where
the model is indifferent the behavior is unchanged — this is what
backs the "never worse than the fixed default" acceptance bar.
Legality is not re-derived here; every candidate goes through
:func:`apply_tiling`, which runs the dependence-relation check, and
blocked candidates simply drop out of the search.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

from repro.analytic.model import predict_nest_histogram
from repro.compiler.ir.loops import Loop
from repro.compiler.ir.refs import (
    AffineRef,
    IndexedRef,
    NonAffineRef,
    PointerChaseRef,
    RegisterRef,
)
from repro.compiler.transforms.tiling import (
    TilingResult,
    apply_tiling,
    select_tile_size,
    tiling_blockers,
)

__all__ = ["TileSearch", "choose_tile_size", "model_tiling"]

#: Candidate tile edges (powers of two); the heuristic default is
#: always added to the pool so the search can never lose to it.
_CANDIDATES = (4, 8, 16, 32, 64)


@dataclass(frozen=True)
class TileSearch:
    """Outcome of one model-driven tile search."""

    #: The winning tile edge (== ``default`` unless a candidate's
    #: predicted miss ratio strictly beat the default's).
    chosen: int
    #: The capacity-heuristic edge that anchored the search.
    default: int
    #: ``(tile, predicted miss ratio)`` for every legal candidate.
    scores: tuple[tuple[int, float], ...]

    @property
    def improved(self) -> bool:
        return self.chosen != self.default


def _clone_nest(nest_head: Loop) -> Loop:
    """Deep-copy a nest for a throwaway tiling, sharing array decls.

    ``ArrayDecl`` compares by identity and may carry bulky ``data``
    payloads (pointer-chase permutations), so the memo pins every decl
    reachable from the nest to itself: the clone's references point at
    the *same* decl objects while loops, bounds, and statements are
    fresh and safe to mutate.
    """
    memo: dict[int, object] = {}
    for statement in nest_head.all_statements():
        for ref in statement.references:
            if isinstance(ref, RegisterRef):
                ref = ref.original
            if isinstance(
                ref, (AffineRef, IndexedRef, NonAffineRef, PointerChaseRef)
            ):
                memo[id(ref.array)] = ref.array
            if isinstance(ref, IndexedRef):
                memo[id(ref.index.array)] = ref.index.array
    return copy.deepcopy(nest_head, memo)


def choose_tile_size(
    nest_head: Loop, l1_bytes: int, line_size: int = 32
) -> Optional[TileSearch]:
    """Pick the tile edge with the best predicted miss ratio.

    Returns ``None`` when no candidate (default included) can legally
    tile the nest — the caller falls back to plain ``apply_tiling``,
    which reports the blocker.
    """
    chain = nest_head.perfect_nest_loops()
    statements = (
        list(chain[-1].all_statements()) if len(chain) >= 2 else []
    )
    default = select_tile_size(l1_bytes, statements, len(chain))
    l1_lines = max(l1_bytes // line_size, 1)

    scores: list[tuple[int, float]] = []
    for tile in sorted({default, *_CANDIDATES}):
        if tiling_blockers(nest_head, l1_bytes, statements, tile):
            continue  # apply_tiling would refuse: skip the clone
        clone = _clone_nest(nest_head)
        result = apply_tiling(clone, l1_bytes, tile_size=tile)
        if not result.applied:
            continue
        ratio = predict_nest_histogram(clone, line_size).curve().miss_ratio(
            l1_lines
        )
        scores.append((tile, ratio))
    if not scores:
        return None

    by_tile = dict(scores)
    chosen = default
    if default in by_tile:
        best = by_tile[default]
    else:
        chosen, best = min(scores, key=lambda item: (item[1], item[0]))
    for tile, ratio in scores:
        if ratio < best - 1e-9:  # strictly better than the incumbent
            chosen, best = tile, ratio
    return TileSearch(chosen, default, tuple(scores))


def model_tiling(
    nest_head: Loop, l1_bytes: int, line_size: int = 32
) -> TilingResult:
    """Tile ``nest_head`` in place with the model-chosen edge.

    Drop-in replacement for ``apply_tiling(nest_head, l1_bytes)`` in
    the optimizer pipeline: same legality checks, same
    :class:`TilingResult`, but the edge comes from the search above.
    """
    # Only the trip-count check depends on the edge: any other blocker
    # refuses every candidate, so report it without searching.
    blocker = tiling_blockers(nest_head, l1_bytes)
    if blocker is not None and not blocker.startswith("trip count"):
        return TilingResult(False, reason=blocker)
    search = choose_tile_size(nest_head, l1_bytes, line_size)
    if search is None:
        return apply_tiling(nest_head, l1_bytes)
    return apply_tiling(nest_head, l1_bytes, tile_size=search.chosen)
