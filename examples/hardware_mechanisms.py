#!/usr/bin/env python
"""Comparing hardware mechanisms, including the extensions.

The paper evaluates two run-time assists (cache bypassing and victim
caches); Section 1.1 also lists hardware prefetching and
column-associative caches among the candidate techniques.  This example
runs all of them side by side:

* the three run-time assists — bypassing (a fill placer), victim
  caches and stream-buffer prefetch (miss-stream filters) — on a
  benchmark's base code, and
* the column-associative L1 organization versus direct-mapped and
  2-way, replayed on the same address stream.

Run:  python examples/hardware_mechanisms.py [benchmark]
"""

import sys

from column_assoc import ColumnAssociativeCache

from repro import TINY, base_config, get_spec
from repro.core.experiment import simulate_trace
from repro.isa import Opcode
from repro.memory.cache import SetAssociativeCache
from repro.params import CacheParams
from repro.tracegen import TraceGenerator


def assists_comparison(trace, machine):
    print("Run-time assists on the base code "
          "(improvement over no assist):")
    plain = simulate_trace(trace, machine)
    print(f"  {'none':<16}{plain.cycles:>12,} cycles")
    for name in ("bypass", "victim"):
        result = simulate_trace(trace, machine, mechanism=name)
        print(f"  {name:<16}{result.cycles:>12,} cycles "
              f"({result.improvement_over(plain):+6.2f}%)")
    result = simulate_trace(trace, machine, mechanism="prefetch")
    print(f"  {'stream-prefetch':<16}{result.cycles:>12,} cycles "
          f"({result.improvement_over(plain):+6.2f}%, "
          f"{result.memory.assist_hits:,} buffer hits)")
    return plain


def organizations_comparison(trace, machine):
    print("\nL1 organizations on the same address stream "
          "(miss rates, standalone replay):")
    size = machine.l1d.size
    block = machine.l1d.block_size
    organizations = {
        "direct-mapped": SetAssociativeCache(
            CacheParams("DM", size, 1, block, 1)
        ),
        "column-assoc": ColumnAssociativeCache(
            CacheParams("CA", size, 1, block, 1)
        ),
        "2-way LRU": SetAssociativeCache(
            CacheParams("2W", size, 2, block, 1)
        ),
        "4-way LRU": SetAssociativeCache(
            CacheParams("4W", size, 4, block, 1)
        ),
    }
    for name, cache in organizations.items():
        for inst in trace:
            if inst.op in (Opcode.LOAD, Opcode.STORE):
                if not cache.lookup(inst.arg, inst.op is Opcode.STORE):
                    cache.fill(inst.arg, inst.op is Opcode.STORE)
        extra = ""
        if isinstance(cache, ColumnAssociativeCache):
            extra = f"  ({cache.rehash_hits:,} rehash hits)"
        print(f"  {name:<16} miss rate "
              f"{cache.stats.miss_rate:6.3f}{extra}")


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "compress"
    machine = base_config().scaled(TINY.machine_divisor)
    program = get_spec(name).instantiate(TINY)
    trace = TraceGenerator(program).generate()
    print(f"Benchmark: {name} at scale {TINY.name} "
          f"({trace.memory_reference_count:,} memory references)\n")
    assists_comparison(trace, machine)
    organizations_comparison(trace, machine)


if __name__ == "__main__":
    main()
