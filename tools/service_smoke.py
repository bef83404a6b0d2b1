#!/usr/bin/env python
"""CI smoke test for the sweep service.

Boots ``python -m repro serve`` as a real subprocess on an ephemeral
port, then drives it over HTTP with the stdlib client:

1. a **cold** simulate job (scheduler execution, checkpointed);
2. the **same** job again — must be served from the run store with no
   scheduler involvement, and its result document must be
   **bit-identical** to the cold one;
3. a two-benchmark **sweep**, cold and then warm — every warm cell
   must come from the store, the warm document (``summary`` averages
   included) must be bit-identical to the cold one, and
   ``/v1/status`` must report no pending job once both are done;
4. a **fault-injected** job (worker killed on every attempt) — must
   degrade to a structured failed job while the server keeps
   answering;
5. twenty sequential requests from a new client — must share one
   persistent connection: ``/v1/metrics`` ``connections`` grows by
   exactly 1.

Exit status 0 only if every claim holds.

Usage::

    PYTHONPATH=src python tools/service_smoke.py
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

from repro.service.client import ServiceClient  # noqa: E402

BODY = {"kind": "simulate", "benchmark": "vpenta", "mechanisms": ["bypass"]}
SWEEP = {
    "kind": "sweep",
    "benchmarks": ["tpcd_q3", "compress"],
    "configs": ["Base Confg.", "Higher Mem. Lat."],
    "mechanisms": ["bypass"],
}


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


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-service-") as store:
        process, port = _boot(store)
        try:
            client = ServiceClient("127.0.0.1", port, timeout=120)

            status = client.status()
            if status["store"]["entries"] != 0:
                _fail("store not empty at boot")
            print(f"server up on port {port}, store empty")

            started = time.perf_counter()
            cold = client.run(BODY, timeout=600)
            cold_s = time.perf_counter() - started
            if cold["state"] != "done":
                _fail(f"cold job ended {cold['state']}")
            if cold["cells"][0]["source"] != "scheduler":
                _fail(f"cold cell source {cold['cells'][0]['source']!r}")
            cold_bytes = client.result_bytes(cold["id"])
            print(f"cold job done in {cold_s:.2f}s ({len(cold_bytes)} bytes)")

            started = time.perf_counter()
            warm = client.run(BODY, timeout=600)
            warm_s = time.perf_counter() - started
            if warm["cells"][0]["source"] != "store":
                _fail(f"warm cell source {warm['cells'][0]['source']!r}")
            warm_bytes = client.result_bytes(warm["id"])
            if warm_bytes != cold_bytes:
                _fail("warm result is not bit-identical to cold result")
            metrics = client.metrics()
            if metrics["scheduler_executions"] != 1:
                _fail(
                    "expected exactly one scheduler execution, got "
                    f"{metrics['scheduler_executions']}"
                )
            if metrics["warm_hits"] != 1:
                _fail(f"expected one warm hit, got {metrics['warm_hits']}")
            print(
                f"warm job done in {warm_s:.3f}s, bit-identical, "
                "store hit confirmed"
            )

            sweep_cold = client.run(SWEEP, timeout=600)
            if sweep_cold["state"] != "done":
                _fail(f"cold sweep ended {sweep_cold['state']}")
            sweep_bytes = client.result_bytes(sweep_cold["id"])
            sweep_warm = client.run(SWEEP, timeout=600)
            sources = [cell["source"] for cell in sweep_warm["cells"]]
            if sources != ["store"] * 4:
                _fail(f"warm sweep cell sources {sources}")
            if client.result_bytes(sweep_warm["id"]) != sweep_bytes:
                _fail("warm sweep is not bit-identical to the cold sweep")
            summary = client.result(sweep_warm["id"])["summary"]
            if sorted(summary) != sorted(SWEEP["configs"]):
                _fail(f"sweep summary covers {sorted(summary)}")
            pending = client.status()["admission"]["pending"]
            if pending != 0:
                _fail(f"{pending} jobs pending after both sweeps finished")
            print(
                f"warm {len(sources)}-cell sweep bit-identical to its cold "
                "run, summary included; no job pending"
            )

            faulted = client.run(
                {**BODY, "benchmark": "adi", "faults": "exit:adi:*",
                 "retries": 1},
                timeout=600,
            )
            if faulted["state"] != "failed":
                _fail(f"faulted job ended {faulted['state']}")
            failure = client.result(faulted["id"])["failures"][0]
            if failure["kind"] != "crash":
                _fail(f"failure kind {failure['kind']!r}")
            if client.status()["jobs"]["total"] != 5:
                _fail("server lost track of jobs after the fault")
            print(
                "fault-injected job degraded to structured failure "
                f"({failure['message']}); server still serving"
            )

            probe = ServiceClient("127.0.0.1", port, timeout=120)
            before = client.metrics()["connections"]
            for _ in range(20):
                probe.status()
            added = client.metrics()["connections"] - before
            if added != 1:
                _fail(f"20 sequential requests opened {added} connections")
            print("20 sequential requests from one client shared 1 connection")
            return 0
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()


if __name__ == "__main__":
    raise SystemExit(main())
