#!/usr/bin/env python
"""CI smoke test for the analytic prediction endpoint.

Boots ``python -m repro serve`` as a real subprocess on an ephemeral
port, then drives ``POST /v1/predict`` over HTTP with the stdlib
client:

1. a **first** prediction — answered synchronously (no job created),
   with a well-formed payload: monotone sampled MRC, per-region gating
   verdicts, tiling report;
2. the **same** prediction again — must be served from the in-process
   cache (the ``predicts`` metric, which counts model builds, moves by
   exactly one for the pair) and be identical to the first answer;
3. a **fresh floor** — re-gates the cached analysis: ``predicts`` does
   not move, and the payload equals an in-process
   ``predict_benchmark`` at that floor (``elapsed_ms`` aside);
4. a **policy** prediction with ``miss_floor=1.0`` — every region must
   gate off;
5. **bad requests** (unknown benchmark, bad scale, out-of-range
   floor) — all 400, and the server keeps serving afterwards.

Exit status 0 only if every claim holds.

Usage::

    PYTHONPATH=src python tools/predict_smoke.py
"""

from __future__ import annotations

import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analytic.predict import predict_benchmark  # noqa: E402
from repro.service.client import ServiceClient, ServiceError  # noqa: E402
from repro.workloads.base import TINY  # noqa: E402

BENCHMARK = "tpcd_q1"
#: A floor no earlier step sends.
FRESH_FLOOR = 0.37


def _fail(message: str) -> None:
    print(f"SMOKE FAILURE: {message}", file=sys.stderr)
    raise SystemExit(1)


def _boot(store: str) -> tuple[subprocess.Popen, int]:
    """Start ``repro serve`` on port 0; return (process, bound port)."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-u",  # the announce line must not sit in a pipe buffer
            "-m",
            "repro",
            "--scale",
            "tiny",
            "--jobs",
            "2",
            "--store",
            store,
            "serve",
            "--port",
            "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    line = process.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", line)
    if not match:
        process.terminate()
        _fail(f"server did not announce a port (got {line!r})")
    return process, int(match.group(1))


def _check_payload(payload: dict) -> None:
    if payload["benchmark"] != BENCHMARK:
        _fail(f"payload names {payload['benchmark']!r}")
    if not 0.0 <= payload["miss_ratio"] <= 1.0:
        _fail(f"miss ratio {payload['miss_ratio']} out of range")
    if not payload["regions"]:
        _fail("no region verdicts in the payload")
    ratios = [ratio for _, ratio in payload["mrc"]]
    sizes = [size for size, _ in payload["mrc"]]
    if sizes != sorted(sizes):
        _fail("MRC samples are not sorted by capacity")
    for earlier, later in zip(ratios, ratios[1:]):
        if later > earlier + 1e-12:
            _fail("predicted MRC is not monotone non-increasing")
    if payload["cache_lines"] not in sizes:
        _fail("MRC samples do not include the target L1 capacity")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-predict-") as store:
        process, port = _boot(store)
        try:
            client = ServiceClient("127.0.0.1", port, timeout=120)

            started = time.perf_counter()
            first = client.predict(BENCHMARK)
            first_s = time.perf_counter() - started
            _check_payload(first)
            if client.get("/v1/jobs")["jobs"]:
                _fail("a synchronous prediction created a job")
            print(
                f"predict({BENCHMARK}) answered in {first_s:.3f}s: "
                f"miss ratio {first['miss_ratio']:.4f}, "
                f"{len(first['regions'])} regions, "
                f"{len(first['mrc'])} MRC samples"
            )

            started = time.perf_counter()
            second = client.predict(BENCHMARK)
            second_s = time.perf_counter() - started
            if second != first:
                _fail("repeat prediction differs from the first answer")
            if client.metrics()["predicts"] != 1:
                _fail(
                    "expected one model build for the pair, got "
                    f"{client.metrics()['predicts']}"
                )
            print(
                f"repeat served from cache in {second_s:.4f}s, identical"
            )

            fresh = client.predict(BENCHMARK, miss_floor=FRESH_FLOOR)
            if client.metrics()["predicts"] != 1:
                _fail("a fresh miss_floor ran the model again")
            expected = predict_benchmark(
                BENCHMARK, TINY, miss_floor=FRESH_FLOOR
            )
            fresh.pop("elapsed_ms")
            expected.pop("elapsed_ms")
            if fresh != expected:
                _fail(
                    f"miss_floor={FRESH_FLOOR} differs from predict_benchmark"
                )
            print(
                f"miss_floor={FRESH_FLOOR} re-gated without a model build, "
                "equal to predict_benchmark"
            )

            strict = client.predict(BENCHMARK, miss_floor=1.0)
            if strict["model_on_regions"] != 0:
                _fail("miss_floor=1.0 left regions gated on")
            print("miss_floor=1.0 gates every region off")

            for body in (
                {"benchmark": "nosuch"},
                {"benchmark": BENCHMARK, "scale": "galactic"},
                {"benchmark": BENCHMARK, "miss_floor": 2.0},
            ):
                try:
                    client.post("/v1/predict", body)
                except ServiceError as exc:
                    if exc.status != 400:
                        _fail(f"bad request {body} answered {exc.status}")
                else:
                    _fail(f"bad request {body} was accepted")
            if not client.healthz():
                _fail("server unhealthy after rejected requests")
            print("bad requests rejected with 400; server still serving")
            return 0
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()


if __name__ == "__main__":
    raise SystemExit(main())
