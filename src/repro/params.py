"""Architecture and experiment parameters.

This module defines the machine model of the paper's Table 1 (the
baseline SimpleScalar configuration) and the five sensitivity variants
used in Figures 5-9 / Table 3.  All parameters are plain frozen
dataclasses so configurations can be hashed, compared, and used as dict
keys by the experiment runner.

The paper simulates full SPEC/TPC inputs (tens to hundreds of millions
of instructions).  A Python-level simulator cannot sustain that, so
workloads run at scaled-down problem sizes and :meth:`MachineParams.scaled`
shrinks the cache capacities correspondingly, preserving the ratio of
working-set size to cache size (and hence the miss-rate regime the paper
operates in).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = [
    "CacheParams",
    "TLBParams",
    "MachineParams",
    "BypassParams",
    "VictimParams",
    "base_config",
    "higher_mem_latency",
    "larger_l2",
    "larger_l1",
    "higher_l2_assoc",
    "higher_l1_assoc",
    "SENSITIVITY_CONFIGS",
]

KB = 1024
MB = 1024 * KB


@dataclass(frozen=True)
class CacheParams:
    """Geometry and timing of one cache level.

    Attributes:
        name: Human-readable label used in statistics ("L1D", "L2", ...).
        size: Total capacity in bytes.
        assoc: Set associativity (1 = direct mapped).
        block_size: Line size in bytes (power of two).
        latency: Hit latency in cycles.
    """

    name: str
    size: int
    assoc: int
    block_size: int
    latency: int

    def __post_init__(self) -> None:
        if self.size <= 0 or self.assoc <= 0 or self.block_size <= 0:
            raise ValueError(f"{self.name}: sizes must be positive")
        if self.block_size & (self.block_size - 1):
            raise ValueError(f"{self.name}: block_size must be a power of two")
        if self.size % (self.assoc * self.block_size):
            raise ValueError(
                f"{self.name}: size {self.size} not divisible by "
                f"assoc*block_size ({self.assoc}*{self.block_size})"
            )
        if self.latency < 0:
            raise ValueError(f"{self.name}: latency must be non-negative")

    @property
    def num_blocks(self) -> int:
        """Total number of blocks in the cache."""
        return self.size // self.block_size

    @property
    def num_sets(self) -> int:
        """Number of sets (capacity / (associativity * line size))."""
        return self.size // (self.assoc * self.block_size)

    def halved(self, factor: int) -> "CacheParams":
        """Return a copy with capacity divided by ``factor``.

        Associativity and block size are preserved; the cache must remain
        at least one set.
        """
        new_size = self.size // factor
        if new_size < self.assoc * self.block_size:
            new_size = self.assoc * self.block_size
        return dataclasses.replace(self, size=new_size)


@dataclass(frozen=True)
class TLBParams:
    """Geometry of a translation lookaside buffer."""

    name: str
    entries: int
    assoc: int
    page_size: int = 4096
    miss_penalty: int = 30

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.assoc <= 0:
            raise ValueError(f"{self.name}: entries/assoc must be positive")
        if self.entries % self.assoc:
            raise ValueError(f"{self.name}: entries must divide by assoc")
        if self.page_size & (self.page_size - 1):
            raise ValueError(f"{self.name}: page_size must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.entries // self.assoc


@dataclass(frozen=True)
class BypassParams:
    """Parameters of the Johnson & Hwu cache-bypassing assist (Section 4.1).

    The bypass buffer is a small fully-associative cache holding
    ``buffer_words`` double words; the MAT tracks access frequency per
    ``macro_block_size``-byte macro-block with ``mat_entries`` entries;
    the SLDT detects spatial locality, which keeps a line cacheable.
    """

    buffer_words: int = 64  # double words (8 bytes each)
    mat_entries: int = 4096
    macro_block_size: int = 1024
    sldt_entries: int = 32
    spatial_counter_max: int = 7
    spatial_counter_min: int = -8
    spatial_threshold: int = 2
    # A macro-block must reach this frequency (relative to the hottest
    # competing macro-blocks) to be cached rather than bypassed.
    bypass_ratio: float = 0.5
    # The victim's macro-block must be at least this hot in absolute
    # terms before bypassing is even considered — protecting lukewarm
    # data is not worth the risk of starving the incoming line.
    min_victim_freq: int = 8

    def __post_init__(self) -> None:
        if self.buffer_words <= 0:
            raise ValueError("buffer_words must be positive")
        if self.mat_entries <= 0:
            raise ValueError("mat_entries must be positive")
        if self.macro_block_size & (self.macro_block_size - 1):
            raise ValueError("macro_block_size must be a power of two")

    @property
    def buffer_bytes(self) -> int:
        return self.buffer_words * 8


@dataclass(frozen=True)
class VictimParams:
    """Victim cache sizes (entries = blocks), per Section 4.1."""

    l1_entries: int = 64
    l2_entries: int = 512

    def __post_init__(self) -> None:
        if self.l1_entries <= 0 or self.l2_entries <= 0:
            raise ValueError("victim cache entries must be positive")


@dataclass(frozen=True)
class MachineParams:
    """The full machine configuration (paper Table 1).

    The default instance is the paper's base configuration; the module
    level helpers (:func:`higher_mem_latency`, :func:`larger_l2`, ...)
    produce the sensitivity variants of Figures 5-9.
    """

    name: str = "base"
    issue_width: int = 4
    l1d: CacheParams = CacheParams("L1D", 32 * KB, 4, 32, 2)
    l1i: CacheParams = CacheParams("L1I", 32 * KB, 4, 32, 2)
    l2: CacheParams = CacheParams("L2", 512 * KB, 4, 128, 10)
    mem_latency: int = 100
    mem_bus_width: int = 8
    mem_ports: int = 2
    ruu_entries: int = 64
    lsq_entries: int = 32
    bimodal_entries: int = 2048
    dtlb: TLBParams = TLBParams("DTLB", 512, 4)
    itlb: TLBParams = TLBParams("ITLB", 256, 4)
    bypass: BypassParams = BypassParams()
    victim: VictimParams = VictimParams()
    branch_mispredict_penalty: int = 3
    #: Outstanding DRAM misses (MSHRs at the memory controller).  A
    #: miss storm streams at max_outstanding_misses per memory latency,
    #: so DRAM-bound code stays latency-sensitive without being fully
    #: serialized.
    max_outstanding_misses: int = 8

    def __post_init__(self) -> None:
        if self.issue_width <= 0:
            raise ValueError("issue_width must be positive")
        if self.mem_latency < 0:
            raise ValueError("mem_latency must be non-negative")
        if self.mem_ports <= 0:
            raise ValueError("mem_ports must be positive")
        if self.mem_bus_width <= 0:
            raise ValueError("mem_bus_width must be positive")

    def block_transfer_cycles(self, block_size: int) -> int:
        """Extra bus cycles to stream a block after the first chunk.

        A ``block_size``-byte fill over a ``mem_bus_width``-byte bus takes
        ``mem_latency`` cycles for the critical word plus one cycle per
        remaining bus beat.
        """
        beats = (block_size + self.mem_bus_width - 1) // self.mem_bus_width
        return max(beats - 1, 0)

    def scaled(self, divisor: int, name_suffix: str = "") -> "MachineParams":
        """Shrink cache and TLB capacities by ``divisor``.

        Used when running workloads at reduced problem sizes so that the
        working-set/cache ratio (and thus the miss-rate regime) matches
        the paper's full-size runs.  Associativities, block sizes and all
        latencies are unchanged.
        """
        if divisor < 1:
            raise ValueError("divisor must be >= 1")
        if divisor == 1:
            return self
        victim = VictimParams(
            l1_entries=max(self.victim.l1_entries // divisor, 4),
            l2_entries=max(self.victim.l2_entries // divisor, 8),
        )
        bypass = dataclasses.replace(
            self.bypass,
            buffer_words=max(self.bypass.buffer_words // divisor, 16),
            mat_entries=max(self.bypass.mat_entries // divisor, 64),
        )
        return dataclasses.replace(
            self,
            name=self.name + (name_suffix or f"/div{divisor}"),
            l1d=self.l1d.halved(divisor),
            l1i=self.l1i.halved(divisor),
            l2=self.l2.halved(divisor),
            dtlb=dataclasses.replace(
                self.dtlb, entries=max(self.dtlb.entries // divisor, 16)
            ),
            itlb=dataclasses.replace(
                self.itlb, entries=max(self.itlb.entries // divisor, 16)
            ),
            victim=victim,
            bypass=bypass,
        )


def base_config() -> MachineParams:
    """The paper's Table 1 baseline."""
    return MachineParams()


def higher_mem_latency() -> MachineParams:
    """Figure 5: main-memory latency raised to 200 cycles."""
    return dataclasses.replace(base_config(), name="mem200", mem_latency=200)


def larger_l2() -> MachineParams:
    """Figure 6: L2 capacity raised to 1 MB."""
    cfg = base_config()
    return dataclasses.replace(
        cfg, name="l2-1MB", l2=dataclasses.replace(cfg.l2, size=1 * MB)
    )


def larger_l1() -> MachineParams:
    """Figure 7: L1 data capacity raised to 64 KB."""
    cfg = base_config()
    return dataclasses.replace(
        cfg, name="l1-64KB", l1d=dataclasses.replace(cfg.l1d, size=64 * KB)
    )


def higher_l2_assoc() -> MachineParams:
    """Figure 8: L2 associativity raised to 8 (size constant)."""
    cfg = base_config()
    return dataclasses.replace(
        cfg, name="l2-8way", l2=dataclasses.replace(cfg.l2, assoc=8)
    )


def higher_l1_assoc() -> MachineParams:
    """Figure 9: L1 associativity raised to 8 (size constant)."""
    cfg = base_config()
    return dataclasses.replace(
        cfg, name="l1-8way", l1d=dataclasses.replace(cfg.l1d, assoc=8)
    )


#: The six hardware configurations of Table 3, in paper row order.
SENSITIVITY_CONFIGS = {
    "Base Confg.": base_config,
    "Higher Mem. Lat.": higher_mem_latency,
    "Larger L2 Size": larger_l2,
    "Larger L1 Size": larger_l1,
    "Higher L2 Asc.": higher_l2_assoc,
    "Higher L1 Asc.": higher_l1_assoc,
}
