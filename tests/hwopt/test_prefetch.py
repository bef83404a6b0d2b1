"""Tests for the stream-buffer prefetch extension.  The hook tests run
the per-access hooks of ``tests/cpu/oracle.py``."""

import pytest

from repro.hwopt.gate import HardwareGate
from repro.hwopt.prefetch import StreamBufferAssist
from repro.cpu.pipeline import CPUSimulator
from repro.isa.trace import TraceBuilder
from repro.memory.hierarchy import MemoryHierarchy
from repro.params import base_config
from tests.cpu.oracle import as_oracle


@pytest.fixture
def machine():
    return base_config()


class TestStreamBuffer:
    def test_allocation_on_miss(self, machine):
        assist = as_oracle(StreamBufferAssist(machine, buffers=2, depth=4))
        assert assist.lookup_alternate(0x1000, 0x1000 // 32) is None
        # A stream was allocated starting at the next line.
        assert assist.prefetched_blocks == 4

    def test_sequential_misses_hit_buffer(self, machine):
        assist = as_oracle(StreamBufferAssist(machine, buffers=2, depth=4))
        line = 0x1000 // 32
        assist.lookup_alternate(0x1000, line)          # allocate
        served = assist.lookup_alternate(0x1020, line + 1)
        assert served is not None
        latency, block = served
        assert latency == 1
        assert block.block_addr == line + 1
        assert assist.assist_hits == 1

    def test_stream_advances(self, machine):
        assist = as_oracle(StreamBufferAssist(machine, buffers=1, depth=2))
        line = 0
        assist.lookup_alternate(0, 0)                   # stream: 1,2
        assert assist.lookup_alternate(32, 1) is not None   # stream: 2,3
        assert assist.lookup_alternate(64, 2) is not None   # stream: 3,4
        assert assist.lookup_alternate(96, 3) is not None

    def test_lru_buffer_reallocation(self, machine):
        assist = as_oracle(StreamBufferAssist(machine, buffers=1, depth=2))
        assist.lookup_alternate(0x1000, 0x1000 // 32)
        assist.lookup_alternate(0x9000, 0x9000 // 32)  # steals the buffer
        # The old stream is gone.
        assert assist.lookup_alternate(0x1020, 0x1000 // 32 + 1) is None

    def test_never_bypasses_or_captures(self, machine):
        from repro.memory.block import CacheBlock
        assist = as_oracle(StreamBufferAssist(machine))
        assert assist.fill_decision(0, None).cache_in_l1
        block = CacheBlock(5)
        assert assist.on_l1_evict(block) is block
        assert assist.bypassed_fills == 0

    def test_bad_geometry(self, machine):
        with pytest.raises(ValueError):
            StreamBufferAssist(machine, buffers=0)

    def test_speeds_up_streaming_trace(self, machine):
        def run(assist):
            hierarchy = MemoryHierarchy(machine, assist)
            sim = CPUSimulator(
                machine, hierarchy, HardwareGate(assist),
                model_ifetch=False,
            )
            tb = TraceBuilder("stream")
            for i in range(4096):
                tb.load(0x100000 + i * 8)
            return sim.run(tb.build())

        plain = run(None)
        prefetched = run(StreamBufferAssist(machine))
        assert prefetched.cycles < plain.cycles
        assert prefetched.memory.assist_hits > 100
