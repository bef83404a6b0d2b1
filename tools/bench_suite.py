#!/usr/bin/env python
"""Benchmark the sweep engine: serial vs parallel, packed vs objects.

Times a fixed mini-sweep (4 benchmarks x 2 machine configurations by
default) twice — once with ``jobs=1`` and once with ``--jobs`` worker
processes — verifies that every cell of the two sweeps is identical,
and measures the packed-columnar trace path against the legacy object
path for single-thread generation, simulation (scalar loop and the
block-batched numpy kernels), and the reuse-distance/
miss-ratio-curve engine, the analytic predictor against the cold
simulated service cell (budget: >=100x), plus the wall-clock of the
static verifier (``python -m repro lint``) over the full suite.
Results are written
to ``BENCH_sweep.json`` next to this script's repo root so future PRs
have a perf trajectory to compare against.

Usage::

    PYTHONPATH=src python tools/bench_suite.py            # full mini-sweep
    PYTHONPATH=src python tools/bench_suite.py --smoke    # CI-sized run
    PYTHONPATH=src python tools/bench_suite.py --jobs 8
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.compiler.verify.lint import lint_registry  # noqa: E402
from repro.core.experiment import simulate_trace  # noqa: E402
from repro.core.runner import run_suite  # noqa: E402
from repro.core.runstore import RunStore  # noqa: E402
from repro.locality.mrc import distance_histogram  # noqa: E402
from repro.params import SENSITIVITY_CONFIGS  # noqa: E402
from repro.telemetry import Telemetry  # noqa: E402
from repro.tracegen.interpreter import TraceGenerator  # noqa: E402
from repro.workloads.base import SMALL, TINY  # noqa: E402
from repro.workloads.registry import get_spec  # noqa: E402

FULL_BENCHMARKS = ["vpenta", "adi", "compress", "swim"]
SMOKE_BENCHMARKS = ["vpenta", "compress"]
CONFIG_NAMES = ("Base Confg.", "Higher Mem. Lat.")
#: Assists timed ``pure_hw`` (always on), scalar vs vectorized.
ASSIST_LEGS = ("victim", "bypass")


def _time(fn):
    """Run ``fn`` and return (result, wall_seconds)."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _suites_identical(a, b) -> bool:
    if a.config_names() != b.config_names():
        return False
    for config_name in a.sweeps:
        sa, sb = a.sweep(config_name), b.sweep(config_name)
        if list(sa.runs) != list(sb.runs):
            return False
        for name, run_a in sa.runs.items():
            run_b = sb.runs[name]
            if run_a.version_keys() != run_b.version_keys():
                return False
            for key in run_a.version_keys():
                if run_a.results[key] != run_b.results[key]:
                    return False
    return True


def bench_sweep(scale, benchmarks, configs, jobs):
    """Time run_suite serially and with ``jobs`` workers; verify equality.

    ``jobs`` is clamped to the machine's CPU count first: requesting
    more workers than cores only adds scheduling overhead, and the
    resulting "speedup" is a property of the oversubscription, not the
    engine.  A clamped run is flagged with ``jobs_capped`` so readers
    of BENCH_sweep.json don't compare numbers from different effective
    worker counts.  On a single-core machine the parallel leg is
    skipped outright — serial vs 1-worker-pool is pure overhead
    measurement noise dressed up as a comparison.

    Returns the report dict plus the serial suite so the resume bench
    can reuse it as its bit-identical reference without a third run.
    """
    cpu_count = os.cpu_count() or 1
    effective_jobs = min(jobs, cpu_count)
    jobs_capped = effective_jobs < jobs
    if jobs_capped:
        print(
            f"  warning: --jobs {jobs} exceeds cpu_count={cpu_count}; "
            f"clamping the parallel leg to {effective_jobs} workers",
            file=sys.stderr,
        )

    serial, serial_s = _time(
        lambda: run_suite(scale, benchmarks=benchmarks, configs=configs, jobs=1)
    )
    report = {
        "serial_seconds": round(serial_s, 3),
        "jobs_requested": jobs,
        "jobs": effective_jobs,
        "jobs_capped": jobs_capped,
        "cells": len(benchmarks) * len(configs),
    }
    if effective_jobs < 2:
        report.update(
            parallel_seconds=None,
            speedup=None,
            parallel_skipped="single-core machine: no parallelism to measure",
            results_identical=True,
        )
        return report, serial

    parallel, parallel_s = _time(
        lambda: run_suite(
            scale, benchmarks=benchmarks, configs=configs, jobs=effective_jobs
        )
    )
    report.update(
        parallel_seconds=round(parallel_s, 3),
        speedup=round(serial_s / parallel_s, 3) if parallel_s else None,
        results_identical=_suites_identical(serial, parallel),
    )
    return report, serial


def bench_sweep_resume(scale, benchmarks, configs, reference, serial_seconds):
    """Checkpoint overhead and resume speedup of the run store.

    Runs the same serial mini-sweep once against a cold store (every
    cell simulated + checkpointed) and once resuming from it (every
    cell restored after re-preparing traces for the content keys).
    ``checkpoint_overhead_pct`` compares the cold store leg against the
    store-less serial leg already timed by :func:`bench_sweep` — the
    acceptance budget for the store is <5%.
    """
    with tempfile.TemporaryDirectory(prefix="repro-runstore-") as tmp:
        store = RunStore(tmp)
        cold, cold_s = _time(
            lambda: run_suite(
                scale, benchmarks=benchmarks, configs=configs, jobs=1,
                store=store,
            )
        )
        warm, warm_s = _time(
            lambda: run_suite(
                scale, benchmarks=benchmarks, configs=configs, jobs=1,
                store=store, resume=True,
            )
        )
        cells = len(store.entries())
    identical = _suites_identical(reference, cold) and _suites_identical(
        reference, warm
    )
    overhead = (
        100.0 * (cold_s - serial_seconds) / serial_seconds
        if serial_seconds
        else None
    )
    return {
        "store_seconds": round(cold_s, 3),
        "resume_seconds": round(warm_s, 3),
        "checkpoint_overhead_pct": round(overhead, 2)
        if overhead is not None
        else None,
        "resume_speedup": round(cold_s / warm_s, 3) if warm_s else None,
        "cells": cells,
        "results_identical": identical,
    }


def bench_packed(scale, benchmark):
    """Single-thread object vs scalar-packed vs vectorized simulation.

    Returns two report dicts: the legacy packed-vs-objects comparison
    (``vectorize=False`` pins the scalar columnar loop so the numbers
    stay comparable across PRs) and the ``simulate_vectorized`` entry
    for the block-batched numpy kernels, measured on the same trace and
    checked bit-identical against both scalar paths.  The vectorized
    entry also times ``pure_hw`` with each assist in ``ASSIST_LEGS``
    (the same trace with that assist always on), scalar vs vectorized.
    """
    spec = get_spec(benchmark)

    obj_trace, obj_gen_s = _time(
        lambda: TraceGenerator(spec.instantiate(scale), trace_name="o").generate()
    )
    packed_trace, packed_gen_s = _time(
        lambda: TraceGenerator(
            spec.instantiate(scale), trace_name="o"
        ).generate_packed()
    )

    machine_builder = SENSITIVITY_CONFIGS["Base Confg."]

    # Interleaved best-of-3 per leg: a fresh machine every repetition,
    # minimum wall time per leg, so one background hiccup cannot skew
    # the recorded speedup in either direction.
    def simulate(trace, mechanism=None, vectorize=None):
        return simulate_trace(
            trace,
            machine_builder().scaled(scale.machine_divisor),
            mechanism=mechanism,
            vectorize=vectorize,
        )

    legs = {
        "obj": partial(simulate, obj_trace),
        "scalar": partial(simulate, packed_trace, vectorize=False),
        "vector": partial(simulate, packed_trace, vectorize=True),
    }
    for mechanism in ASSIST_LEGS:
        legs[f"{mechanism}_scalar"] = partial(
            simulate, packed_trace, mechanism, False
        )
        legs[f"{mechanism}_vector"] = partial(
            simulate, packed_trace, mechanism, True
        )
    times = {name: float("inf") for name in legs}
    results = {}
    for _ in range(3):
        for name, leg in legs.items():
            results[name], seconds = _time(leg)
            times[name] = min(times[name], seconds)
    obj_result, obj_sim_s = results["obj"], times["obj"]
    packed_result, packed_sim_s = results["scalar"], times["scalar"]
    vector_result, vector_sim_s = results["vector"], times["vector"]

    packed_report = {
        "benchmark": benchmark,
        "records": len(packed_trace),
        "object_generate_seconds": round(obj_gen_s, 3),
        "packed_generate_seconds": round(packed_gen_s, 3),
        "generate_speedup": round(obj_gen_s / packed_gen_s, 3)
        if packed_gen_s
        else None,
        "object_simulate_seconds": round(obj_sim_s, 3),
        "packed_simulate_seconds": round(packed_sim_s, 3),
        "simulate_speedup": round(obj_sim_s / packed_sim_s, 3)
        if packed_sim_s
        else None,
        "results_identical": obj_result == packed_result,
    }
    vector_report = {
        "benchmark": benchmark,
        "records": len(packed_trace),
        "scalar_simulate_seconds": round(packed_sim_s, 3),
        "vectorized_simulate_seconds": round(vector_sim_s, 3),
        "speedup_vs_objects": round(obj_sim_s / vector_sim_s, 3)
        if vector_sim_s
        else None,
        "speedup_vs_scalar": round(packed_sim_s / vector_sim_s, 3)
        if vector_sim_s
        else None,
        "results_identical": obj_result == packed_result == vector_result
        and all(
            results[f"{mechanism}_scalar"] == results[f"{mechanism}_vector"]
            for mechanism in ASSIST_LEGS
        ),
    }
    for mechanism in ASSIST_LEGS:
        scalar_s = times[f"{mechanism}_scalar"]
        vector_s = times[f"{mechanism}_vector"]
        vector_report[f"{mechanism}_scalar_seconds"] = round(scalar_s, 3)
        vector_report[f"{mechanism}_vectorized_seconds"] = round(vector_s, 3)
        vector_report[f"{mechanism}_speedup"] = (
            round(scalar_s / vector_s, 3) if vector_s else None
        )
    return packed_report, vector_report


def bench_mrc(scale, benchmark):
    """Time the reuse-distance/MRC engine: packed vs object trace path."""
    spec = get_spec(benchmark)
    packed_trace = TraceGenerator(
        spec.instantiate(scale), trace_name="m"
    ).generate_packed()
    object_trace = packed_trace.to_trace()

    obj_histogram, obj_s = _time(lambda: distance_histogram(object_trace))
    packed_histogram, packed_s = _time(
        lambda: distance_histogram(packed_trace)
    )
    curve = packed_histogram.curve()

    return {
        "benchmark": benchmark,
        "memory_refs": packed_histogram.total,
        "distinct_lines": packed_histogram.cold,
        "object_seconds": round(obj_s, 3),
        "packed_seconds": round(packed_s, 3),
        "packed_speedup": round(obj_s / packed_s, 3) if packed_s else None,
        "mrc_points": len(curve.sizes()),
        "results_identical": obj_histogram == packed_histogram,
    }


def bench_telemetry(scale, benchmark, repeats=3):
    """Cost of the telemetry hub on the packed simulation hot loop.

    Three legs over the same packed trace: no hub (the production
    default), a hub with ``interval=0`` (span/counter bookkeeping but
    no time-series sampling), and a hub sampling every 1000 cycles.
    Each leg takes the best of ``repeats`` runs so the disabled-path
    acceptance budget (<2% vs no hub) is not drowned by scheduler
    noise.  All three legs must produce identical simulation results.
    """
    spec = get_spec(benchmark)
    packed_trace = TraceGenerator(
        spec.instantiate(scale), trace_name="t"
    ).generate_packed()
    machine_builder = SENSITIVITY_CONFIGS["Base Confg."]

    def leg(make_hub):
        best_s, result, samples = None, None, 0
        for _ in range(repeats):
            machine = machine_builder().scaled(scale.machine_divisor)
            hub = make_hub()
            run, wall_s = _time(
                lambda: simulate_trace(packed_trace, machine, telemetry=hub)
            )
            if best_s is None or wall_s < best_s:
                best_s, result = wall_s, run
            if hub is not None:
                samples = len(hub.series)
        return result, best_s, samples

    off_result, off_s, _ = leg(lambda: None)
    idle_result, idle_s, _ = leg(lambda: Telemetry(interval=0))
    sampling_result, sampling_s, samples = leg(
        lambda: Telemetry(interval=1000)
    )

    def overhead(with_s):
        return round(100.0 * (with_s - off_s) / off_s, 2) if off_s else None

    return {
        "benchmark": benchmark,
        "records": len(packed_trace),
        "samples": samples,
        "off_seconds": round(off_s, 3),
        "idle_hub_seconds": round(idle_s, 3),
        "sampling_seconds": round(sampling_s, 3),
        "idle_hub_overhead_pct": overhead(idle_s),
        "sampling_overhead_pct": overhead(sampling_s),
        "results_identical": off_result == idle_result == sampling_result,
    }


def bench_service(scale, benchmark):
    """Warm vs cold latency of the sweep service over HTTP.

    Boots the asyncio server in-process on an ephemeral port with an
    empty run store, then submits the same one-cell simulate job
    twice.  The first request is cold (trace prepared, worker process
    simulates, result checkpointed); the second must be served from
    the content-addressed store.  The acceptance budget is a warm/cold
    ratio of at least 100x, and the two result documents must be
    byte-identical.
    """
    from repro.service import BackgroundServer, ServiceClient, ServiceConfig

    body = {
        "kind": "simulate",
        "benchmark": benchmark,
        "mechanisms": ["bypass"],
    }
    with tempfile.TemporaryDirectory(prefix="repro-service-") as tmp:
        config = ServiceConfig(store=tmp, jobs=1, scale=scale)
        with BackgroundServer(config) as background:
            client = ServiceClient("127.0.0.1", background.port, timeout=600)
            cold, cold_s = _time(lambda: client.run(body, timeout=600))
            cold_bytes = client.result_bytes(cold["id"])
            warm, warm_s = _time(lambda: client.run(body, timeout=600))
            warm_bytes = client.result_bytes(warm["id"])
            metrics = client.metrics()
    return {
        "benchmark": benchmark,
        "cold_seconds": round(cold_s, 3),
        "warm_seconds": round(warm_s, 4),
        "warm_speedup": round(cold_s / warm_s, 1) if warm_s else None,
        "scheduler_executions": metrics["scheduler_executions"],
        "warm_hits": metrics["warm_hits"],
        "results_identical": cold_bytes == warm_bytes
        and metrics["scheduler_executions"] == 1,
    }


def bench_analytic_predict(scale, benchmark, cold_seconds):
    """Analytic MRC prediction vs the cold simulated service cell.

    The analytic model's reason to exist is the latency gap: the cold
    service leg above prepares traces, simulates, and checkpoints one
    cell; ``predict_benchmark`` answers the same locality questions
    (MRC, gating, tilings) straight from the IR.  Best-of-3 per leg,
    and the acceptance budget is a speedup of at least 100x over the
    cold cell measured in :func:`bench_service`.
    """
    from repro.analytic.predict import predict_benchmark

    best_s, payload = float("inf"), None
    for _ in range(3):
        payload, seconds = _time(lambda: predict_benchmark(benchmark, scale))
        best_s = min(best_s, seconds)
    speedup = cold_seconds / best_s if best_s else None
    return {
        "benchmark": benchmark,
        "predict_seconds": round(best_s, 4),
        "cold_simulate_seconds": round(cold_seconds, 3),
        "speedup_vs_cold_cell": round(speedup, 1)
        if speedup is not None
        else None,
        "memory_refs": payload["memory_refs"],
        "mrc_points": len(payload["mrc"]),
        "predicted_miss_ratio": round(payload["miss_ratio"], 6),
        "within_budget": speedup is not None and speedup >= 100.0,
    }


def bench_verify(scale):
    """Wall-clock of the full static lint (``python -m repro lint``):
    all four analyses over every benchmark's base and optimized
    variants.  Purely static — the cost of the correctness backstop."""
    result, wall_s = _time(lambda: lint_registry(scale))
    return {
        "variants": len(result.rows),
        "diagnostics": len(result.diagnostics),
        "clean": result.ok(strict=True),
        "seconds": round(wall_s, 3),
    }


def bench_dependence(scale):
    """Wall-clock of the dependence-relation engine over every
    software nest the optimizer sees (``repro lint --deps``): relation
    solving, the merged per-pair view, and the decision
    cross-reference, suite-wide."""
    from repro.compiler.verify.deps import deps_summaries

    summaries, wall_s = _time(lambda: deps_summaries(scale))
    return {
        "nests": len(summaries),
        "relations": sum(s.relations for s in summaries),
        "analyzable": sum(1 for s in summaries if s.analyzable),
        "flagged": sum(1 for s in summaries if s.flagged),
        "seconds": round(wall_s, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs",
        type=int,
        default=4,
        help="worker processes for the parallel leg (default 4)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny scale and a 2x2 grid — for CI sanity, not perf numbers",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_sweep.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    scale = TINY if args.smoke else SMALL
    benchmarks = SMOKE_BENCHMARKS if args.smoke else FULL_BENCHMARKS
    configs = {name: SENSITIVITY_CONFIGS[name] for name in CONFIG_NAMES}

    print(
        f"mini-sweep: {len(benchmarks)} benchmarks x {len(configs)} configs "
        f"at scale={scale.name}, jobs={args.jobs} "
        f"(cpu_count={os.cpu_count()})"
    )
    sweep, reference = bench_sweep(scale, benchmarks, configs, args.jobs)
    if sweep.get("parallel_skipped"):
        print(
            f"  serial {sweep['serial_seconds']}s; "
            f"parallel leg skipped ({sweep['parallel_skipped']})"
        )
    else:
        print(
            f"  serial {sweep['serial_seconds']}s, "
            f"parallel {sweep['parallel_seconds']}s "
            f"(jobs={sweep['jobs']}"
            + (", capped" if sweep["jobs_capped"] else "")
            + f") -> {sweep['speedup']}x, "
            f"identical={sweep['results_identical']}"
        )

    resume = bench_sweep_resume(
        scale, benchmarks, configs, reference, sweep["serial_seconds"]
    )
    print(
        f"run store: cold {resume['store_seconds']}s "
        f"({resume['checkpoint_overhead_pct']}% overhead vs serial), "
        f"resume {resume['resume_seconds']}s "
        f"-> {resume['resume_speedup']}x, "
        f"identical={resume['results_identical']}"
    )

    packed, vectorized = bench_packed(scale, benchmarks[0])
    print(
        f"packed vs objects on {packed['benchmark']} "
        f"({packed['records']} records): "
        f"generate {packed['generate_speedup']}x, "
        f"simulate {packed['simulate_speedup']}x, "
        f"identical={packed['results_identical']}"
    )
    print(
        f"vectorized kernels on {vectorized['benchmark']}: "
        f"scalar {vectorized['scalar_simulate_seconds']}s, "
        f"vectorized {vectorized['vectorized_simulate_seconds']}s "
        f"-> {vectorized['speedup_vs_objects']}x vs objects "
        f"({vectorized['speedup_vs_scalar']}x vs scalar packed); "
        + "".join(
            f"pure_hw/{mechanism} scalar "
            f"{vectorized[f'{mechanism}_scalar_seconds']}s, vectorized "
            f"{vectorized[f'{mechanism}_vectorized_seconds']}s -> "
            f"{vectorized[f'{mechanism}_speedup']}x; "
            for mechanism in ASSIST_LEGS
        )
        + f"identical={vectorized['results_identical']}"
    )

    mrc = bench_mrc(scale, benchmarks[0])
    print(
        f"MRC engine on {mrc['benchmark']} "
        f"({mrc['memory_refs']} refs, {mrc['distinct_lines']} lines): "
        f"object {mrc['object_seconds']}s, packed {mrc['packed_seconds']}s "
        f"-> {mrc['packed_speedup']}x, identical={mrc['results_identical']}"
    )

    telemetry = bench_telemetry(scale, benchmarks[0])
    print(
        f"telemetry on {telemetry['benchmark']} "
        f"({telemetry['records']} records): off {telemetry['off_seconds']}s, "
        f"idle hub {telemetry['idle_hub_overhead_pct']}%, "
        f"sampling ({telemetry['samples']} samples) "
        f"{telemetry['sampling_overhead_pct']}%, "
        f"identical={telemetry['results_identical']}"
    )

    service = bench_service(scale, benchmarks[0])
    print(
        f"service on {service['benchmark']}: "
        f"cold {service['cold_seconds']}s, warm {service['warm_seconds']}s "
        f"-> {service['warm_speedup']}x, "
        f"identical={service['results_identical']}"
    )

    analytic = bench_analytic_predict(
        scale, benchmarks[0], service["cold_seconds"]
    )
    print(
        f"analytic predict on {analytic['benchmark']} "
        f"({analytic['memory_refs']} modeled refs): "
        f"{analytic['predict_seconds']}s vs cold cell "
        f"{analytic['cold_simulate_seconds']}s "
        f"-> {analytic['speedup_vs_cold_cell']}x, "
        f"within_budget={analytic['within_budget']}"
    )

    verify = bench_verify(scale)
    print(
        f"static lint: {verify['variants']} program variants in "
        f"{verify['seconds']}s, clean={verify['clean']}"
    )

    dependence = bench_dependence(scale)
    print(
        f"dependence engine: {dependence['relations']} relations over "
        f"{dependence['nests']} nests in {dependence['seconds']}s, "
        f"analyzable={dependence['analyzable']}/{dependence['nests']}"
    )

    report = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "cpu_count": os.cpu_count(),
        "smoke": args.smoke,
        "scale": scale.name,
        "benchmarks": benchmarks,
        "configs": list(configs),
        "sweep": sweep,
        "sweep_resume": resume,
        "packed_vs_objects": packed,
        "simulate_vectorized": vectorized,
        "mrc_engine": mrc,
        "telemetry_overhead": telemetry,
        "service": service,
        "analytic_predict": analytic,
        "verify": verify,
        "dependence": dependence,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if not (
        sweep["results_identical"]
        and resume["results_identical"]
        and packed["results_identical"]
        and vectorized["results_identical"]
        and mrc["results_identical"]
        and telemetry["results_identical"]
        and service["results_identical"]
        and analytic["within_budget"]
        and verify["clean"]
    ):
        print(
            "ERROR: parallel, resume, packed, vectorized, MRC, telemetry, "
            "service, analytic-predict, or lint results diverged",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
