"""Shared pieces of the benchmark: statistics, digests, host facts.

Everything here is program-agnostic except :func:`stat_vector`, which
names the simulated statistics the golden digests cover.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"
#: Scratch space for stores and server logs; removed after every run.
TMP_ROOT = ROOT / ".perfbench_tmp"

#: Simulated counters covered by the golden digests.  Host-time fields
#: never enter them, so a speed-only change leaves every digest as is.
RESULT_FIELDS = (
    "cycles",
    "instructions",
    "loads",
    "stores",
    "branches",
    "branch_mispredictions",
    "hw_toggles",
)
CACHE_FIELDS = ("accesses", "hits", "misses", "evictions", "writebacks")
MEMORY_FIELDS = (
    "dtlb_misses",
    "itlb_misses",
    "mem_reads",
    "mem_writes",
    "assist_hits",
    "bypassed_fills",
    "prefetched_blocks",
)


def stat_vector(result: dict) -> list[int]:
    """The digested statistics of one simulation result (JSON form)."""
    memory = result["memory"]
    vector = [result[name] for name in RESULT_FIELDS]
    for level in ("l1d", "l1i", "l2"):
        vector += [memory[level][name] for name in CACHE_FIELDS]
    vector += [memory[name] for name in MEMORY_FIELDS]
    return vector


def digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def run_digest(results: dict) -> str:
    """Digest of a ``{version_key: result-json}`` mapping."""
    return digest({key: stat_vector(value) for key, value in results.items()})


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


# ----------------------------------------------------------------------
# statistics


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, label)``; the label states the percentile and the
    sample count.  Below eleven samples no percentile qualifies, and
    the maximum is reported as ``max``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return (ordered[-1] if ordered else 0.0), f"max of n={n}"
    percentile = math.floor(100.0 * (n - 10) / n)
    return ordered[n - 11], f"p{percentile} of n={n}"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# CPUs and host-speed calibration

#: The CPUs this benchmark may use, read before anything is pinned.
CPUS = sorted(os.sched_getaffinity(0))
#: With two or more CPUs the work (the in-process sweep, or the server
#: and the workers it forks) runs on one CPU and the service clients on
#: another, so neither steals the other's core and the host-speed
#: sampler watches the CPU that does the work.
WORK_CPU, CLIENT_CPU = (1, 0) if len(CPUS) >= 2 else (0, 0)

#: CPU seconds of the sampler's loop on the reference host (a 2-vCPU
#: Xeon VM, CPython 3.11) when its vCPU runs at full speed.
PROBE_REF_S = 0.00075


def pin(pid: int, cpu: int) -> None:
    """Pin ``pid`` (0: this process) to the ``cpu``-th usable CPU."""
    os.sched_setaffinity(pid, {CPUS[cpu]})


class HostSpeed:
    """Host-speed samples of the CPUs doing a workload's work.

    A shared cloud host runs the same code at two speeds about 1.7x
    apart, switching every few seconds, independently on each vCPU, so
    host times of identical runs spread by 10-20%.  ``sampler.py``
    processes time a fixed loop on the given CPUs throughout the run;
    :meth:`factor` (reference speed over the speed seen in a window)
    scales host times to the reference speed, which the result line
    reports.  Raw times are printed beside them.
    """

    def __init__(self, cpus):
        #: (monotonic time, loop CPU seconds) per sample, all CPUs.
        self.samples: list[tuple[float, float]] = []
        self._children = [
            subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "sampler.py"), str(CPUS[cpu])],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for cpu in sorted(set(cpus))
        ]

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc_info) -> None:
        for child in self._children:
            child.stdin.close()
        for child in self._children:
            pairs = child.stdout.read().split()
            child.stdout.close()
            child.wait(timeout=30)
            self.samples += [
                (float(pairs[i]), float(pairs[i + 1]))
                for i in range(0, len(pairs) - 1, 2)
            ]

    def factor(self, start: float = None, end: float = None) -> float:
        """Reference over seen speed in ``[start, end]`` (default: all).

        Samples up to 0.1 s outside the window count, so a window
        shorter than the sampling period still sees a few.
        """
        seen = [
            seconds
            for at, seconds in self.samples
            if start is None or start - 0.1 <= at <= end + 0.1
        ] or [seconds for _, seconds in self.samples]
        # Mean of per-sample speeds: samples are evenly spaced in time,
        # so this is the time average of the speed over the window.
        return statistics.fmean(PROBE_REF_S / seconds for seconds in seen)

    def note(self) -> str:
        return (
            f"host speed: {len(self.samples)} samples, run factor "
            f"{self.factor():.4f} (reference loop {1000 * PROBE_REF_S:.2f} "
            "ms); result-line times are raw times x the factor of their "
            "own window"
        )


# ----------------------------------------------------------------------
# process facts


def self_peak_rss_mb() -> float:
    """Peak RSS of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_facts(seed: int) -> list[str]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "missing"
    nproc = len(CPUS)
    return [
        f"host: nproc={nproc} python={platform.python_version()} "
        f"numpy={numpy_version} seed={seed}",
        "not measured: the parallel-grid speedup (jobs > 1); every "
        "workload runs the grid or the server with one worker, so no "
        "number here depends on the core count",
    ]


def clock() -> float:
    """Monotonic seconds, comparable with the sampler's timestamps."""
    return time.monotonic()


# ----------------------------------------------------------------------
# the report a workload returns


@dataclass
class Report:
    """What one workload run measured.

    ``metrics`` holds the end-to-end metrics the result line carries;
    ``named`` holds the workload's own metrics under their descriptive
    names (printed, not part of the result line); ``layers`` holds the
    per-layer metrics of a traced run.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    named: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def name(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.named.append((name, float(value), unit, note))

    def fail(self, message: str) -> None:
        """Record a wrong or failed operation's description."""
        self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def emit(report: Report, seed: int, trace: bool, stream=sys.stdout) -> None:
    """Print the human report, then the result line (last)."""
    for line in host_facts(seed):
        print(line, file=stream)
    for line in report.notes:
        print(line, file=stream)
    errors_pct = (
        100.0 * report.failed / report.attempted if report.attempted else 0.0
    )
    print(
        f"{'errors_pct':<28} {errors_pct:12.4f} %   "
        f"({report.failed} of {report.attempted} operations failed)",
        file=stream,
    )
    for name, value, unit, note in report.named:
        suffix = f"   ({note})" if note else ""
        print(f"{name:<28} {value:12.4f} {unit}{suffix}", file=stream)
    for problem in report.problems[:20]:
        print(f"PROBLEM: {problem}", file=stream)
    chosen = report.layers if trace else report.metrics
    result = {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": chosen,
    }
    print(json.dumps(result, sort_keys=True), file=stream)
