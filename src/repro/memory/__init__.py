"""Memory-hierarchy substrate: caches, TLBs, DRAM, and the hierarchy.

This package implements the machine of the paper's Table 1: split 4-way
L1 caches, a unified L2, data/instruction TLBs, and a fixed-latency main
memory behind an 8-byte bus.  The run-time hardware optimizers of
:mod:`repro.hwopt` attach to the hierarchy in one of the two shapes of
:mod:`repro.memory.assist`: a fill placer (cache bypassing) or a
miss-stream filter (victim caches, stream buffers).
"""

from repro.memory.assist import AssistInterface
from repro.memory.block import CacheBlock
from repro.memory.cache import SetAssociativeCache
from repro.memory.dram import MainMemory
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.stats import CacheStats, HierarchySnapshot
from repro.memory.tlb import TLB
from repro.memory.victim import VictimCache

__all__ = [
    "AssistInterface",
    "CacheBlock",
    "CacheStats",
    "HierarchySnapshot",
    "MainMemory",
    "MemoryHierarchy",
    "SetAssociativeCache",
    "TLB",
    "VictimCache",
]
