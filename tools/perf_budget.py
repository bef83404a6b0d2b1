#!/usr/bin/env python
"""Budget check over perfbench's service reports.

Runs the ``service_cold`` and ``service_warm`` workloads (seed 1),
requires each report's result line to say ``"failed": 0``, and fails
unless the served ``/v1/predict`` median (``predict_p50_ms``, from
service_warm) is at least 100x faster than the median cold cell
(``cold_cell_p50_s``, from service_cold).  That median runs over all
45 of service_cold's cold cells: 24 simulate, 18 profile and 3
locality cells, not the simulate cells alone (``cold_simulate_p50_s``).
That latency gap is the analytic model's reason to exist.

The runs are full-size: ``--quick`` runs 6 cold cells and 40
predictions, and on a 2-vCPU Xeon its ratio spread over 68-201x (3 of
8 runs under budget) where full runs read 134-200x (13 of 13).

Nine in ten served predictions are answered from the server's predict
cache, so the served median mostly times HTTP and a lookup.  The check
therefore also reports an uncached leg beside it: in-process
``predict_benchmark`` on vpenta at TINY, best of 3, against the same
cold cell.  That leg is reported, not gated.

Usage::

    python3 tools/perf_budget.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("service_cold", "service_warm")
BUDGET = 100.0
#: The benchmark the uncached predict leg times.
PREDICT_BENCHMARK = "vpenta"


def _metric(report: str, name: str) -> float:
    """The value on a report's ``name  value unit`` line."""
    for line in report.splitlines():
        fields = line.split()
        if len(fields) > 1 and fields[0] == name:
            return float(fields[1])
    raise ValueError(f"no {name} line in the report")


def uncached_predict_ms() -> float:
    """Best of 3 in-process analytic predictions, in ms.

    Each call builds, marks and optimizes the program and runs the
    model afresh: no predict cache sits in front of it.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.analytic.predict import predict_benchmark
    from repro.workloads.base import TINY

    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        predict_benchmark(PREDICT_BENCHMARK, TINY)
        best = min(best, time.perf_counter() - started)
    return 1000.0 * best


def verdict(
    cold_report: str, warm_report: str, uncached_ms: Optional[float] = None
) -> tuple[bool, str]:
    """Judge the two reports' text: (within budget, one-line summary).

    ``uncached_ms`` (from :func:`uncached_predict_ms`) is reported
    against the same cold cell but does not decide the verdict.
    """
    try:
        for name, report in zip(WORKLOADS, (cold_report, warm_report)):
            failed = json.loads(report.strip().splitlines()[-1])["failed"]
            if failed != 0:
                return False, f"{name}: {failed} operations failed"
        cold_s = _metric(cold_report, "cold_cell_p50_s")
        predict_ms = _metric(warm_report, "predict_p50_ms")
    except (ValueError, KeyError, IndexError) as error:
        return False, f"unreadable report: {error}"
    ratio = 1000.0 * cold_s / predict_ms if predict_ms > 0 else 0.0
    ok = ratio >= BUDGET
    summary = (
        f"analytic predict {predict_ms:.3f} ms vs cold cell {cold_s:.3f} s"
        f" -> {ratio:.1f}x (budget >= {BUDGET:.0f}x): "
        + ("ok" if ok else "BELOW BUDGET")
    )
    if uncached_ms is not None:
        uncached = 1000.0 * cold_s / uncached_ms if uncached_ms > 0 else 0.0
        summary += (
            f"; uncached predict {uncached_ms:.3f} ms -> {uncached:.1f}x"
            " (reported, not gated)"
        )
    return ok, summary


def main() -> int:
    reports = []
    for workload in WORKLOADS:
        command = [sys.executable, "perfbench/run.py", "--workload",
                   workload, "--seed", "1", "--trace", "0"]
        run = subprocess.run(command, cwd=REPO_ROOT, stdout=subprocess.PIPE,
                             text=True)
        print(run.stdout, end="")
        reports.append(run.stdout)
    uncached_ms = uncached_predict_ms()
    print(f"uncached_predict_ms {uncached_ms:.3f} ms   (best of 3)")
    ok, summary = verdict(*reports, uncached_ms=uncached_ms)
    print(summary)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
