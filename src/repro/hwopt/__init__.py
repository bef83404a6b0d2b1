"""Run-time hardware cache-locality optimizers (paper Section 3.1).

Each attaches to the memory hierarchy through
:class:`repro.memory.assist.AssistInterface`, in one of its two shapes,
and each is gateable by the compiler-inserted activate/deactivate
(ON/OFF) instructions:

* :class:`CacheBypassAssist` — Johnson & Hwu's selective caching, a
  *fill placer*: a Memory Access Table (MAT) tracks per-macro-block
  access frequencies, a Spatial Locality Detection Table (SLDT) detects
  spatial reuse, and rarely-accessed data is diverted into a small
  fully associative bypass buffer instead of polluting L1.
* :class:`VictimCacheAssist` — Jouppi-style victim caches on L1 and L2,
  a *miss-stream filter*.
* :class:`StreamBufferAssist` — Jouppi's stream buffers (an extension
  beyond the paper's two), also a miss-stream filter.

:mod:`repro.hwopt.policy` adds a *model-driven* gating policy: per-region
miss-ratio curves (:mod:`repro.locality`) decide where the gated assist
should be ON, scored against the compiler's marker placement.
"""

from repro.hwopt.bypass import BypassBuffer
from repro.hwopt.controller import CacheBypassAssist, VictimCacheAssist
from repro.hwopt.gate import HardwareGate
from repro.hwopt.mat import MemoryAccessTable
from repro.hwopt.policy import (
    GatingComparison,
    GatingRecommendation,
    compare_policies,
    recommend_gating,
)
from repro.hwopt.prefetch import StreamBufferAssist
from repro.hwopt.sldt import SpatialLocalityDetector

__all__ = [
    "BypassBuffer",
    "CacheBypassAssist",
    "GatingComparison",
    "GatingRecommendation",
    "HardwareGate",
    "MemoryAccessTable",
    "SpatialLocalityDetector",
    "StreamBufferAssist",
    "VictimCacheAssist",
    "compare_policies",
    "recommend_gating",
]
