#!/usr/bin/env python3
"""Fast self-test of the benchmark (about two minutes).

    python3 perfbench/selftest.py

Checks, in order:

1. ``BENCHMARK.json`` and ``perfbench/layers.json`` name the same
   per-layer metrics with the same units and directions;
2. each workload, briefly (``--quick``, tiny scale) and on a seed not
   used while building the benchmark, runs clean with tracing off and
   on, and its result line carries exactly the metric names and units
   ``BENCHMARK.json`` lists;
3. a corrupted golden digest is detected, for a sweep cell and for a
   service cell;
4. in a directory holding only ``BENCHMARK.json`` and ``perfbench/``,
   the benchmark exits non-zero without printing a result.

Exit status 0 only if every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

from common import BENCH_DIR, ROOT, SRC, TMP_ROOT, Report, load_golden

#: Never used while the benchmark was built or tuned.
FRESH_SEED = 8675309
FIELDS = ("name", "unit", "better")


def fail(message: str) -> None:
    print(f"SELFTEST FAILURE: {message}", file=sys.stderr)
    raise SystemExit(1)


def run(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(FRESH_SEED),
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--quick",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def check_catalogues(bench: dict) -> None:
    layers = json.loads((BENCH_DIR / "layers.json").read_text())["metrics"]
    listed = [{k: m[k] for k in FIELDS} for m in bench["per_layer"]]
    if listed != [{k: m[k] for k in FIELDS} for m in layers]:
        fail("BENCHMARK.json per_layer differs from perfbench/layers.json")
    print(f"catalogues agree: {len(listed)} per-layer metrics")


def check_workloads(bench: dict) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            done = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                fail(f"{label} exited {done.returncode}: {done.stderr[-2000:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{label}: result keys {sorted(result)}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                fail(f"{label}: metrics {units} != BENCHMARK.json {expected[trace]}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{label} on fresh seed {FRESH_SEED} was not clean:\n{done.stdout}")
            print(f"{label}: clean, {result['attempted']} operations, names match")


def corrupt(value: str) -> str:
    return ("0" if value[0] != "0" else "1") + value[1:]


def check_golden_detection() -> None:
    sys.path.insert(0, str(SRC))
    import service
    import sweep
    from repro.core.versions import prepare_codes
    from repro.params import base_config
    from repro.service.cells import SCALES, aggregate_result, canonical_json, decompose
    from repro.workloads.registry import get_spec

    golden = load_golden()["cells"]

    suite, _, _ = sweep.run_grid(SCALES["tiny"], ["tpcd_q3"], list(sweep.CONFIGS))
    for table, want in ((golden, 0), ({k: corrupt(v) for k, v in golden.items()}, 2)):
        report = Report()
        sweep.check(report, suite, "tiny", table)
        if report.failed != want:
            fail(f"sweep check flagged {report.failed} cells, expected {want}")

    body = {
        "kind": "simulate",
        "benchmark": "tpcd_q3",
        "config": "Higher L1 Asc.",
        "mechanisms": ["victim"],
    }
    scale = SCALES[service.SCALE]
    request = decompose(body, scale)
    spec = request.specs[0]
    codes = prepare_codes(
        get_spec("tpcd_q3"), scale, base_config().scaled(scale.machine_divisor)
    )
    fn, make_task = spec.worker(codes)
    document = json.loads(
        canonical_json(
            aggregate_result("simulate", [spec], ["key"], [fn(make_task(0, None))])
        )
    )
    key = service.cold_cell_id(body)
    value = service.document_digest("simulate", document)
    if value != golden[key] or value == corrupt(golden[key]):
        fail("service cell digest check cannot tell golden from corrupted")
    print("corrupted golden digests are detected (sweep and service cells)")


def check_bare_directory() -> None:
    TMP_ROOT.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=TMP_ROOT)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            BENCH_DIR, f"{bare}/perfbench", ignore=shutil.ignore_patterns("__pycache__")
        )
        done = run("sweep_cold", 0, cwd=bare)
        lines = done.stdout.strip().splitlines()
        if done.returncode == 0 or (lines and lines[-1].startswith("{")):
            fail("benchmark did not refuse a directory without the program")
    finally:
        shutil.rmtree(TMP_ROOT, ignore_errors=True)
    print(f"bare directory refused (exit {done.returncode}, no result)")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_catalogues(bench)
    check_golden_detection()
    check_bare_directory()
    check_workloads(bench)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
