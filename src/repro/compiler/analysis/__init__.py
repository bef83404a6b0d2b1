"""Compile-time analyses feeding region detection and transformation."""

from repro.compiler.analysis.classify import (
    analyzable_ratio,
    classify_loop,
    count_references,
)
from repro.compiler.analysis.footprint import nest_footprint_bytes
from repro.compiler.analysis.reuse import (
    innermost_cost,
    preferred_fastest_dim,
    rank_innermost_candidates,
)

__all__ = [
    "analyzable_ratio",
    "classify_loop",
    "count_references",
    "innermost_cost",
    "nest_footprint_bytes",
    "preferred_fastest_dim",
    "rank_innermost_candidates",
]
