"""The compiler side of the paper's framework (Sections 2 and 3.2).

Subpackages:

* :mod:`repro.compiler.ir` — a loop-nest intermediate representation
  rich enough to express both the regular (affine) kernels and the
  irregular (pointer/indexed/non-affine) access patterns the paper's
  benchmarks contain, and *executable* so traces can be generated.
* :mod:`repro.compiler.analysis` — reference classification
  (analyzable vs non-analyzable, Section 2.3), reuse analysis, loop
  bounds/footprint estimation, and the dependence-relation engine
  (:mod:`repro.compiler.analysis.deps`) every transform's legality
  check consults.
* :mod:`repro.compiler.regions` — the region-detection algorithm of
  Section 2.2 plus ON/OFF marker insertion with redundant-marker
  elimination.
* :mod:`repro.compiler.transforms` — loop interchange, tiling,
  unroll-and-jam, scalar replacement, and data-layout selection.
* :mod:`repro.compiler.optimizer` — the integrated pipeline that the
  Pure-Software / Combined / Selective versions all share.
* :mod:`repro.compiler.verify` — the independent static-analysis
  backstop: structural well-formedness, marker-state abstract
  interpretation (with minimality), interval bounds checking, and a
  post-transform legality audit (``python -m repro lint``).
"""

from repro.compiler.optimizer import LocalityOptimizer, OptimizationReport
from repro.compiler.verify import (
    VerificationError,
    VerifyReport,
    verify_program,
)

__all__ = [
    "LocalityOptimizer",
    "OptimizationReport",
    "VerificationError",
    "VerifyReport",
    "verify_program",
]
