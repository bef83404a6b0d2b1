#!/usr/bin/env python3
"""Benchmark of the repro system: one workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``sweep_cold``   — ``run_suite(jobs=1)`` in-process over a fixed grid;
* ``service_cold`` — distinct cold cells through a live ``repro serve``;
* ``service_warm`` — warm jobs, predictions and status requests from two
  client threads against a filled server.

``--workload all`` runs the three in turn, each printing its report and
result line, and exits 1 if any of them was incorrect.

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` also runs the traced pass and reports the per-layer
metrics of ``perfbench/layers.json`` instead.  Every run checks its
outputs (golden digests, byte-identical warm results) and prints, as
its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Each workload does a fixed amount of work, sized to take about
``--seconds`` on the reference host; the value is accepted for the
interface and recorded in the report, but it does not size the run,
because a run sized by duration would measure a different amount of
work on a faster program.

``--quick`` runs a much smaller version of each workload, for the
self-test (``perfbench/selftest.py``) only; its numbers mean nothing.
"""

from __future__ import annotations

import argparse
import shutil
import sys

from common import SRC, TMP_ROOT, emit

WORKLOADS = ("sweep_cold", "service_cold", "service_warm")


def run_workload(name: str, seed: int, trace: bool, quick: bool):
    if name == "sweep_cold":
        import sweep

        return sweep.run(seed, trace, scale_name="tiny" if quick else "small")
    import service

    if name == "service_cold":
        return service.run_cold(seed, trace, quick=quick)
    return service.run_warm(
        seed, trace, requests=200 if quick else service.WARM_REQUESTS
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=WORKLOADS + ("all",),
        help="one workload, or all three in turn (each prints its report)",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no program source at {SRC}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))

    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        try:
            report = run_workload(name, args.seed, trace, args.quick)
        finally:
            shutil.rmtree(TMP_ROOT, ignore_errors=True)
        report.notes.insert(0, f"--seconds {args.seconds:g} (work is fixed per run)")
        emit(report, args.seed, trace)
        correct = correct and report.correct
    return 0 if correct or args.workload != "all" else 1


if __name__ == "__main__":
    raise SystemExit(main())
