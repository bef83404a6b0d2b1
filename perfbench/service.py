"""The two service workloads, against a live ``python -m repro serve``.

``service_cold``: one closed-loop client; every request is a cell the
server's fresh store has never held.  ``service_warm``: two closed-loop
client threads against a server whose store and prep cache were filled
in set-up; nothing is simulated while it is measured.

Both boot the server at ``tiny`` with ``--jobs 1``: the cold cells stay
short enough to collect a latency distribution in one run, and the warm
path's work does not depend on the stored cells' scale.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
import tempfile
import threading

from common import (
    CLIENT_CPU,
    SRC,
    TMP_ROOT,
    WORK_CPU,
    HostSpeed,
    Report,
    clock,
    digest,
    load_golden,
    median,
    percentile,
    pin,
    proc_peak_rss_mb,
    run_digest,
    tail,
)
from sweep import cell_id

SCALE = "tiny"
SETUP_REPEATS = 3
COLD_BENCHMARKS = ("vpenta", "compress", "tpcd_q3")
CONFIGS = (
    "Base Confg.",
    "Higher Mem. Lat.",
    "Larger L2 Size",
    "Larger L1 Size",
    "Higher L2 Asc.",
    "Higher L1 Asc.",
)
MECHANISMS = ("bypass", "victim")
PROFILE_VERSIONS = ("base", "pure_sw", "pure_hw")
PROFILE_INTERVAL = 1000
#: Simulate cells per (benchmark, mechanism), of the six configurations.
SIMULATE_PER_MECHANISM = 4


class Server:
    """``python -m repro serve`` on an ephemeral port, in a subprocess."""

    def __init__(self, workdir):
        self.store = tempfile.mkdtemp(prefix="store-", dir=workdir)
        self.process = None
        self.client = None

    def start(self) -> "Server":
        from repro.service.client import ServiceClient

        self.process = subprocess.Popen(
            [
                sys.executable,
                "-u",
                "-m",
                "repro",
                "--scale",
                SCALE,
                "--jobs",
                "1",
                "--store",
                self.store,
                "serve",
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        pin(self.process.pid, WORK_CPU)
        line = self.process.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if not match:
            self.stop()
            raise RuntimeError(f"server did not announce a port: {line!r}")
        self.client = ServiceClient("127.0.0.1", int(match.group(1)), timeout=300)
        started = clock()
        while not self._ready():
            if clock() - started > 60:
                self.stop()
                raise RuntimeError("server never became ready")
        return self

    def _ready(self) -> bool:
        try:
            return self.client.readyz()[0]
        except OSError:
            return False

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """Terminate (the server drains and exits), wait, drop the store."""
        if self.process is None:
            return
        self.process.terminate()
        try:
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        shutil.rmtree(self.store, ignore_errors=True)


def metrics_delta(before: dict, after: dict) -> dict:
    return {name: after[name] - before.get(name, 0) for name in after}


def setup_servers(workdir, warm) -> tuple[Server, object, float]:
    """Set up ``SETUP_REPEATS`` servers and keep the last.

    ``warm(server)`` brings a booted server to the workload's starting
    state; set-up time is boot plus ``warm``, scaled to the reference
    host speed.  Returns the kept server, what its ``warm`` returned,
    and the median set-up time.
    """
    times = []
    with HostSpeed([WORK_CPU, CLIENT_CPU]) as speed:
        for repeat in range(SETUP_REPEATS):
            started = clock()
            server = Server(workdir).start()
            try:
                state = warm(server)
            except BaseException:
                server.stop()
                raise
            times.append((started, clock()))
            if repeat + 1 < SETUP_REPEATS:
                server.stop()
    return server, state, median(
        [(end - start) * speed.factor(start, end) for start, end in times]
    )


# ----------------------------------------------------------------------
# service_cold


def cold_bodies(seed: int) -> list[dict]:
    """The seeded batch of distinct cold cells.

    The mix is fixed so cost does not depend on the seed, only which
    cells fill it: per mechanism, each benchmark simulates four of the
    six configurations, and each configuration appears twice; each
    benchmark profiles each version on two configurations, and each
    configuration appears three times; one locality cell per benchmark.
    """
    rng = random.Random(seed)
    bodies = []
    for mechanism in MECHANISMS:
        configs = list(CONFIGS)
        rng.shuffle(configs)
        for index, benchmark in enumerate(COLD_BENCHMARKS):
            for offset in range(SIMULATE_PER_MECHANISM):
                bodies.append(
                    {
                        "kind": "simulate",
                        "benchmark": benchmark,
                        "config": configs[(2 * index + offset) % len(configs)],
                        "mechanisms": [mechanism],
                    }
                )
    configs = []
    for _ in range(len(PROFILE_VERSIONS)):
        block = list(CONFIGS)
        rng.shuffle(block)
        configs += block
    # Consecutive pairs never straddle two shuffled blocks, so the two
    # configurations of one (benchmark, version) always differ.
    slots = iter(configs)
    for benchmark in COLD_BENCHMARKS:
        for version in PROFILE_VERSIONS:
            for _ in range(2):
                bodies.append(
                    {
                        "kind": "profile",
                        "benchmark": benchmark,
                        "config": next(slots),
                        "version": version,
                        "mechanism": rng.choice(MECHANISMS)
                        if version == "pure_hw"
                        else "bypass",
                        "interval": PROFILE_INTERVAL,
                    }
                )
    for benchmark in COLD_BENCHMARKS:
        bodies.append({"kind": "locality", "benchmark": benchmark})
    rng.shuffle(bodies)
    return bodies


def cold_cell_id(body: dict) -> str:
    if body["kind"] == "simulate":
        return cell_id(
            SCALE, body["benchmark"], body["config"], body["mechanisms"]
        )
    if body["kind"] == "profile":
        return (
            f"profile/{SCALE}/{body['benchmark']}/{body['config']}/"
            f"{body['version']}/{body['mechanism']}"
        )
    return f"locality/{SCALE}/{body['benchmark']}"


def document_digest(kind: str, document: dict) -> str:
    """Digest of the simulated statistics in a job result document."""
    if kind == "simulate":
        return run_digest(document["cells"][0]["run"]["results"])
    if kind == "profile":
        profile = document["profile"]
        return run_digest({profile["version"]: profile["result"]})
    return digest(document["rows"][0])


def warm_prep_cache(server: Server) -> None:
    """Fill the server's prep cache for the cold benchmarks.

    Each request prepares its benchmark's codes in the server, then a
    per-request ``raise`` fault fails the cell in its worker before
    anything is simulated or stored, so no measured cell is warm.
    """
    for benchmark in COLD_BENCHMARKS:
        job = server.client.run(
            {
                "kind": "simulate",
                "benchmark": benchmark,
                "mechanisms": ["bypass"],
                "faults": f"raise:{benchmark}:*",
                "retries": 0,
            }
        )
        if job["state"] != "failed":
            raise RuntimeError(f"prep-cache request ended {job['state']}")


def cold_cell(client, body: dict) -> dict:
    """Submit one cold cell and follow it to its result document."""
    from repro.service.jobs import TERMINAL

    started = clock()
    job = client.submit(body)
    running = attempt_at = state = None
    attempts, sources = [], []
    for event in client.events(job["id"]):
        now = clock()
        if event["event"] == "cell":
            if event["state"] == "running" and running is None:
                running = now
            if event["state"] in ("done", "failed"):
                sources.append(event["source"])
        elif event["event"] == "attempt":
            attempt_at = now
            attempts.append(event)
        elif event["event"] == "job" and event["state"] in TERMINAL:
            state = event["state"]
    raw = client.result_bytes(job["id"])
    ended = clock()
    latency = ended - started
    record = {
        "body": body,
        "started": started,
        "latency": latency,
        "state": state,
        "sources": sources,
        "attempts": len(attempts),
        "bytes": len(raw),
        "document": json.loads(raw),
    }
    if running is not None and attempt_at is not None and attempts:
        execute = attempts[-1]["seconds"]
        record["split"] = (
            running - started,
            execute,
            ended - attempt_at,
        )
    return record


def safe_cold_cell(client, body: dict) -> dict:
    """:func:`cold_cell`, with a refused or broken request as a failure."""
    from repro.service.client import ServiceError

    started = clock()
    try:
        return cold_cell(client, body)
    except (ServiceError, OSError, ValueError) as exc:
        return {
            "body": body,
            "started": started,
            "latency": clock() - started,
            "state": f"error ({type(exc).__name__}: {exc})",
            "sources": [],
            "attempts": 0,
            "bytes": 0,
            "document": None,
        }


def run_cold(seed: int, trace: bool, quick: bool = False) -> Report:
    golden = load_golden()["cells"]
    bodies = cold_bodies(seed)
    if quick:
        # One cell of each kind, then the batch order, six in all.
        firsts = list({body["kind"]: body for body in reversed(bodies)}.values())
        bodies = firsts + [b for b in bodies if b not in firsts][: 6 - len(firsts)]
    report = Report()
    report.notes.append(
        f"workload service_cold: 1 closed-loop client, {len(bodies)} distinct "
        f"cold cells at {SCALE} against `repro serve --jobs 1` with a fresh "
        "store"
    )
    TMP_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="cold-", dir=TMP_ROOT)
    pin(0, CLIENT_CPU)
    try:
        server, _, setup_s = setup_servers(workdir, warm_prep_cache)
        try:
            before = server.client.metrics()
            with HostSpeed([WORK_CPU]) as speed:
                records = [safe_cold_cell(server.client, body) for body in bodies]
            delta = metrics_delta(before, server.client.metrics())
            rss_mb = server.peak_rss_mb()
        finally:
            server.stop()
        if trace:
            from layers import cold_layers

            cold_layers(report, bodies, records, delta, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for record in records:
        report.attempted += 1
        body = record["body"]
        key = cold_cell_id(body)
        problem = None
        if record["state"] != "done":
            problem = f"job ended {record['state']}"
        elif record["sources"] != ["scheduler"]:
            problem = f"cell sources {record['sources']}, expected a cold run"
        elif document_digest(body["kind"], record["document"]) != golden.get(key):
            problem = "simulated statistics differ from golden"
        if problem:
            report.failed += 1
            report.fail(f"{key}: {problem}")
    if delta["scheduler_executions"] != len(bodies):
        report.fail(
            f"{delta['scheduler_executions']} scheduler executions for "
            f"{len(bodies)} cold cells"
        )

    latencies = [record["latency"] for record in records]
    scaled = [
        r["latency"] * speed.factor(r["started"], r["started"] + r["latency"])
        for r in records
    ]
    work_s = records[-1]["started"] + records[-1]["latency"] - records[0]["started"]
    cell_tail, tail_label = tail(latencies)
    report.notes.append(speed.note())
    report.metric("setup_s", setup_s, "s")
    report.metric("work_s", sum(scaled), "s")
    report.metric("op_p50_ms", 1000 * median(scaled), "ms")
    report.metric("op_tail_ms", 1000 * tail(scaled)[0], "ms")
    report.metric("rss_peak_mb", rss_mb, "MB")
    report.name("setup_s", setup_s, "s", f"median of {SETUP_REPEATS}, scaled")
    report.name("rss_peak_mb", rss_mb, "MB", "server VmHWM")
    report.name("cold_cell_p50_s", median(latencies), "s")
    report.name("cold_cell_tail_s", cell_tail, "s", tail_label)
    report.name(
        "cold_cells_per_min", 60.0 * len(records) / work_s, "cells/min"
    )
    for kind in ("simulate", "profile", "locality"):
        values = [r["latency"] for r in records if r["body"]["kind"] == kind]
        report.name(f"cold_{kind}_p50_s", median(values), "s", f"n={len(values)}")
    return report


# ----------------------------------------------------------------------
# service_warm

WARM_BENCHMARKS = ("adi", "tpcd_q3")
WARM_CONFIGS = ("Base Confg.", "Higher Mem. Lat.")
PREDICT_BENCHMARKS = ("adi", "tpcd_q3", "vpenta", "compress")
#: Requests per run, split over the client threads.  Fixed rather than
#: sized by duration: the server scans every job it has seen on each
#: submit, so a duration-sized run would penalize a faster server.
WARM_REQUESTS = 4000
WARM_THREADS = 2
#: Every block of ten requests: 5 simulate, 2 sweep, 2 predict, 1 status.
BLOCK = ("simulate",) * 5 + ("sweep",) * 2 + ("predict",) * 2 + ("status",)
#: One predict request in this many carries a fresh miss_floor.
FRESH_PREDICT_EVERY = 10


def warm_bodies() -> dict[str, list[dict]]:
    simulate = [
        {
            "kind": "simulate",
            "benchmark": benchmark,
            "config": config,
            "mechanisms": [mechanism],
        }
        for benchmark in WARM_BENCHMARKS
        for config in WARM_CONFIGS
        for mechanism in MECHANISMS
    ]
    sweep = [
        {
            "kind": "sweep",
            "benchmarks": list(WARM_BENCHMARKS),
            "configs": list(WARM_CONFIGS),
            "mechanisms": [mechanism],
        }
        for mechanism in MECHANISMS
    ]
    return {"simulate": simulate, "sweep": sweep}


def warm_ops(seed: int, count: int) -> list[tuple]:
    """The seeded request stream: ``(kind, argument)`` tuples."""
    rng = random.Random(seed)
    bodies = warm_bodies()
    fresh_offset = rng.randrange(FRESH_PREDICT_EVERY)
    floors: set = set()
    ops, predicts = [], 0
    while len(ops) < count:
        block = list(BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind in bodies:
                ops.append((kind, rng.randrange(len(bodies[kind]))))
            elif kind == "predict":
                benchmark = rng.choice(PREDICT_BENCHMARKS)
                floor = None
                if predicts % FRESH_PREDICT_EVERY == fresh_offset:
                    while floor is None or floor in floors:
                        floor = round(rng.uniform(0.05, 0.95), 6)
                    floors.add(floor)
                predicts += 1
                ops.append(("predict", (benchmark, floor)))
            else:
                ops.append(("status", None))
    return ops[:count]


def fill_warm(server: Server) -> dict:
    """Cold-run every warm body and cache every default prediction."""
    written = {}
    for kind, bodies in warm_bodies().items():
        for index, body in enumerate(bodies):
            job = server.client.run(body)
            if job["state"] != "done":
                raise RuntimeError(f"warm fill job ended {job['state']}")
            written[(kind, index)] = server.client.result_bytes(job["id"])
    for benchmark in PREDICT_BENCHMARKS:
        payload = server.client.predict(benchmark)
        payload.pop("elapsed_ms")
        written[("predict", benchmark)] = payload
    written["entries"] = server.client.status()["store"]["entries"]
    return written


def check_predict(payload: dict, reference: dict, floor) -> str:
    """Empty if a prediction agrees with the cached default one.

    A fresh ``miss_floor`` changes only the gating threshold, so the
    curve, tilings and region profiles must equal the cached payload's,
    and every region's verdict must follow the new threshold.
    """
    payload = dict(payload)
    payload.pop("elapsed_ms", None)
    if floor is None:
        return "" if payload == reference else "cached prediction changed"
    if payload["miss_floor"] != floor:
        return "miss_floor not echoed"
    threshold = max(payload["miss_ratio"], floor)
    if payload["threshold"] != threshold:
        return "threshold is not max(miss ratio, miss_floor)"
    for name in ("mrc", "memory_refs", "miss_ratio", "tilings"):
        if payload[name] != reference[name]:
            return f"{name} differs from the cached prediction"
    if len(payload["regions"]) != len(reference["regions"]):
        return "region count differs"
    for region, ref in zip(payload["regions"], reference["regions"]):
        if region["model_on"] != (region["miss_ratio"] >= threshold):
            return "model_on disagrees with the threshold"
        if {**region, "model_on": None} != {**ref, "model_on": None}:
            return "region profile differs from the cached prediction"
    return ""


def warm_op(client, kind, argument, written, bodies) -> tuple[float, str, int]:
    """Run one request; returns (seconds, problem, cells requested)."""
    from repro.service.jobs import TERMINAL

    started = clock()
    problem, cells = "", 0
    if kind in ("simulate", "sweep"):
        job = client.submit(bodies[kind][argument])
        state, sources = None, []
        for event in client.events(job["id"]):
            if event["event"] == "cell" and event["state"] == "done":
                sources.append(event["source"])
            elif event["event"] == "job" and event["state"] in TERMINAL:
                state = event["state"]
        raw = client.result_bytes(job["id"])
        seconds = clock() - started
        cells = len(job["cells"])
        if state != "done":
            problem = f"warm job ended {state}"
        elif sources != ["store"] * cells:
            problem = f"warm job cell sources {sources}"
        elif raw != written[(kind, argument)]:
            problem = "warm result differs from its cold write"
    elif kind == "predict":
        benchmark, floor = argument
        payload = client.predict(benchmark, miss_floor=floor)
        seconds = clock() - started
        problem = check_predict(payload, written[("predict", benchmark)], floor)
    else:
        status = client.status()
        seconds = clock() - started
        store = status["store"]
        if store["entries"] != written["entries"] or store["ok"] != store["entries"]:
            problem = f"store status {store['entries']} entries, {store['ok']} ok"
    return seconds, problem, cells


def run_warm(seed: int, trace: bool, requests: int = WARM_REQUESTS) -> Report:
    ops = warm_ops(seed, requests)
    bodies = warm_bodies()
    report = Report()
    report.notes.append(
        f"workload service_warm: {WARM_THREADS} closed-loop client threads, "
        f"{len(ops)} requests at {SCALE} against a filled store "
        "(per 10: 5 simulate, 2 sweep, 2 predict, 1 status)"
    )
    TMP_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="warm-", dir=TMP_ROOT)
    pin(0, CLIENT_CPU)
    results: list = [None] * len(ops)
    errors: list = []

    def client_loop(client, indices) -> None:
        try:
            for index in indices:
                kind, argument = ops[index]
                results[index] = warm_op(client, kind, argument, written, bodies)
        except Exception as exc:  # noqa: BLE001 - reported as a failure
            errors.append(f"client thread: {type(exc).__name__}: {exc}")

    try:
        server, written, setup_s = setup_servers(workdir, fill_warm)
        try:
            before = server.client.metrics()
            threads = [
                threading.Thread(
                    target=client_loop,
                    args=(server.client, range(slot, len(ops), WARM_THREADS)),
                )
                for slot in range(WARM_THREADS)
            ]
            with HostSpeed([WORK_CPU, CLIENT_CPU]) as speed:
                started = clock()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                work_s = clock() - started
            delta = metrics_delta(before, server.client.metrics())
            rss_mb = server.peak_rss_mb()
            if trace:
                from layers import warm_layers

                warm_layers(report, ops, results, delta, server.store)
        finally:
            server.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in errors:
        report.fail(problem)
    latencies, by_kind, cells = [], {}, 0
    for (kind, _), result in zip(ops, results):
        report.attempted += 1
        if result is None:
            report.failed += 1
            continue
        seconds, problem, requested = result
        cells += requested
        latencies.append(seconds)
        by_kind.setdefault(kind, []).append(seconds)
        if problem:
            report.failed += 1
            report.fail(f"{kind}: {problem}")
    if delta["scheduler_executions"] != 0:
        report.fail(f"{delta['scheduler_executions']} scheduler executions")
    if delta["warm_hits"] != cells or delta["cells_total"] != cells:
        report.fail(
            f"warm hits {delta['warm_hits']} of {delta['cells_total']} cells, "
            f"expected {cells}"
        )

    # The result line's tail is p90 (500 samples beyond it).  p99 and the
    # highest percentile with ten samples beyond it are printed, but
    # they swing with single scheduler hiccups too much to gate on.
    op_tail, tail_label = tail(latencies)
    p90, p99 = percentile(latencies, 90), percentile(latencies, 99)
    # Each request is too short for a window of its own: the whole run's
    # factor, over the server's and the clients' CPUs, scales them all.
    factor = speed.factor()
    report.notes.append(speed.note())
    report.metric("setup_s", setup_s, "s")
    report.metric("work_s", work_s * factor, "s")
    report.metric("op_p50_ms", 1000 * median(latencies) * factor, "ms")
    report.metric("op_tail_ms", 1000 * p90 * factor, "ms")
    report.metric("rss_peak_mb", rss_mb, "MB")
    report.name("setup_s", setup_s, "s", f"median of {SETUP_REPEATS}, scaled")
    report.name("rss_peak_mb", rss_mb, "MB", "server VmHWM")
    report.name("warm_req_p50_ms", 1000 * median(latencies), "ms")
    report.name("warm_req_p90_ms", 1000 * p90, "ms")
    report.name("warm_req_p99_ms", 1000 * p99, "ms")
    report.name("warm_req_tail_ms", 1000 * op_tail, "ms", tail_label)
    report.name("warm_req_per_s", len(latencies) / work_s, "req/s")
    report.name(
        "predict_p50_ms",
        1000 * median(by_kind.get("predict", [])),
        "ms",
        f"n={len(by_kind.get('predict', []))}",
    )
    return report
