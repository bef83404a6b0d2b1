"""Host-speed sampler: run as a child process, one per CPU sampled.

    python3 perfbench/sampler.py CPU

Pins itself to ``CPU`` and, every 0.05 s until its stdin closes, times a
fixed pure-Python loop in CPU seconds (``thread_time``, so being
preempted does not count), printing ``<monotonic time> <seconds>`` per
sample.  It imports nothing from the program, so only the host's speed
moves the samples.  About 1.5% of the CPU goes to it.
"""

import os
import select
import sys
import time

LOOPS = 10000
PERIOD_S = 0.05


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    lines = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        started = time.thread_time()
        total = 0
        for i in range(LOOPS):
            total += i * i % 7
        lines.append(f"{time.monotonic():.6f} {time.thread_time() - started:.9f}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
