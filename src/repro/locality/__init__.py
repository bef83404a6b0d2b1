"""Quantitative locality modeling: reuse distances and miss-ratio curves.

The paper's framework decides *where* cache optimization pays off; this
subsystem supplies the quantitative model behind that decision:

* :func:`stack_distances` — exact Mattson LRU stack (reuse) distances
  of every reference of a trace, computed together in one numpy pass
  (O(N log N) for an N-reference trace, no per-reference Python);
* :func:`distance_histogram` / :class:`MissRatioCurve` — the distance
  histogram yields the predicted fully-associative LRU miss count for
  *every* cache capacity at once (Mattson's stack-inclusion property;
  bit-exact against direct cache simulation);
* :func:`split_profiles` — the distance column split at ON/OFF markers
  into per-region profiles, feeding the model-driven gating policy in
  :mod:`repro.hwopt.policy`.

The per-access Fenwick-tree LRU stack these once ran on is the
reference oracle in ``tests/locality/oracle.py``.
"""

from repro.locality.mrc import (
    DistanceHistogram,
    MissRatioCurve,
    distance_histogram,
)
from repro.locality.profile import (
    LocalityProfile,
    RegionProfile,
    split_profiles,
)
from repro.locality.stack import COLD, stack_distances

__all__ = [
    "COLD",
    "DistanceHistogram",
    "LocalityProfile",
    "MissRatioCurve",
    "RegionProfile",
    "distance_histogram",
    "split_profiles",
    "stack_distances",
]
