"""Unit tests for the oracle's Fenwick-indexed Mattson LRU stack."""

import random

import pytest

from repro.locality.stack import COLD
from tests.locality.oracle import ReuseStackEngine, lru_distances


class TestReuseStackEngine:
    def test_cold_then_immediate_reuse(self):
        engine = ReuseStackEngine()
        assert engine.access(7) == COLD
        assert engine.access(7) == 0
        assert engine.access(7) == 0
        assert engine.live_lines == 1

    def test_interleaved_distances(self):
        engine = ReuseStackEngine()
        for line in (1, 2, 3):
            assert engine.access(line) == COLD
        # Stack (top..bottom): 3, 2, 1.
        assert engine.access(1) == 2
        assert engine.access(3) == 1
        assert engine.access(3) == 0

    def test_depth_is_non_destructive(self):
        engine = ReuseStackEngine()
        engine.access(1)
        engine.access(2)
        assert engine.depth(1) == 1
        assert engine.depth(1) == 1  # unchanged by the probe
        assert engine.depth(99) == COLD
        assert engine.access(1) == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_on_random_streams(self, seed):
        rng = random.Random(seed)
        lines = [rng.randrange(200) for _ in range(3000)]
        engine = ReuseStackEngine()
        assert [engine.access(x) for x in lines] == lru_distances(
            lines
        )

    def test_compaction_preserves_distances(self):
        """Streams far longer than the initial timeline stay exact."""
        rng = random.Random(42)
        # > 8 compactions of a 1024-slot timeline, skewed reuse.
        lines = [int(rng.paretovariate(1.1)) % 500 for _ in range(10000)]
        engine = ReuseStackEngine()
        assert [engine.access(x) for x in lines] == lru_distances(
            lines
        )
        assert engine.live_lines == len(set(lines))

    def test_scan_resistance(self):
        """A long one-touch scan then a reuse at full stack depth."""
        engine = ReuseStackEngine()
        for line in range(5000):
            assert engine.access(line) == COLD
        assert engine.access(0) == 4999
        assert engine.access(4999) == 1
