"""Analytical locality model: MRCs straight from the IR.

This package is the bridge the roadmap names between the compiler's
reuse analysis and the Mattson miss-ratio-curve machinery: it predicts
stack-distance histograms — and therefore full miss-ratio curves —
from the loop-nest IR alone, with no trace generation and no
simulation.

Two evaluation modes exist:

* :mod:`repro.analytic.model` — the closed-form model.  Per-reference
  reuse distances are derived symbolically from loop bounds, strides,
  and layouts (O(IR size), milliseconds for the whole suite).
* :mod:`repro.analytic.walk` — the exact reference.  The program is
  run through the trace pipeline itself (the executor's packed
  trace into the reuse-stack histogram and per-region profiles), which
  is how the closed-form model is validated (tested in
  ``tests/analytic``).

Consumers:

* :mod:`repro.analytic.gating` — analytic ON/OFF gating, compared
  against the simulator-driven :func:`repro.hwopt.policy.recommend_gating`;
* :mod:`repro.analytic.tiles` — model-driven tile-size search used by
  :class:`repro.compiler.optimizer.LocalityOptimizer`;
* :mod:`repro.analytic.predict` — the ``repro predict`` CLI and the
  service's ``POST /v1/predict`` endpoint.

Imports here stay light so that :mod:`repro.compiler.optimizer` can
lazily pull :mod:`repro.analytic.tiles` without an import cycle
through :mod:`repro.analytic.predict` (which imports the optimizer).
"""

from repro.analytic.model import (
    LocalityModel,
    PredictedRegion,
    predict_histogram,
    predict_nest_histogram,
)
from repro.analytic.walk import walk_histogram, walk_profile

__all__ = [
    "LocalityModel",
    "PredictedRegion",
    "predict_histogram",
    "predict_nest_histogram",
    "walk_histogram",
    "walk_profile",
]
