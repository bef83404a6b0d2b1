"""The traced run: per-layer metrics for each workload.

Each function runs after its workload's untraced measurement, repeats
a slice of the same work with :class:`tracer.Tracer` patched in, and
fills ``report.layers`` with every metric of ``layers.json`` (0 where
the workload does no work in that layer).  The untraced run is the
baseline for the tracing overhead.
"""

from __future__ import annotations

import json
import tempfile

from common import BENCH_DIR, Report, clock, median
from tracer import Tracer, instrument

RECONCILE_TOLERANCE_PCT = 5.0
#: miss_floor values of the in-process prediction replay (service_warm).
PREDICT_FLOORS = (0.05, 0.15, 0.25, 0.35, 0.45)


def catalogue() -> list[dict]:
    return json.loads((BENCH_DIR / "layers.json").read_text())["metrics"]


def fill(report: Report, values: dict) -> None:
    """Set every catalogued layer metric, 0 where not measured."""
    report.layers = {}
    for metric in catalogue():
        value = float(values.get(metric["name"], 0.0))
        report.layers[metric["name"]] = {"value": value, "unit": metric["unit"]}
        if value:
            report.notes.append(
                f"  layer {metric['name']:<30} {value:14.6f} {metric['unit']}"
            )


def tracer_values(tracer: Tracer) -> dict:
    """Layer metrics that come straight from span self times and counts."""
    self_s, counts = tracer.self_s, tracer.counts
    simulated = tracer.total("cpu.sim")
    values = {
        "compiler.optimize_s": self_s.get("compiler.optimize", 0.0),
        "compiler.markers_s": self_s.get("compiler.markers", 0.0),
        "tracegen.generate_s": self_s.get("tracegen.generate", 0.0),
        "tracegen.records": counts["tracegen.records"],
        "cpu.sim_assist_off_s": tracer.total("cpu.sim_assist_off"),
        "cpu.sim_assist_on_s": tracer.total("cpu.sim_assist_on"),
        "cpu.sim_selective_s": tracer.total("cpu.sim_selective"),
        "cpu.sim_bypass_s": sum(
            s for name, s in self_s.items() if name.endswith("/bypass")
        ),
        "cpu.sim_victim_s": sum(
            s for name, s in self_s.items() if name.endswith("/victim")
        ),
        "cpu.records_per_s": counts["cpu.records"] / simulated if simulated else 0,
        "locality.histogram_s": self_s.get("locality.histogram", 0.0),
        "locality.gating_s": self_s.get("locality.gating", 0.0),
        "analytic.predict_s": self_s.get("analytic.predict", 0.0),
        "analytic.tiles_s": self_s.get("analytic.tiles", 0.0),
        "core.prepare_s": self_s.get("core.prepare", 0.0),
        "core.glue_s": sum(
            self_s.get(name, 0.0)
            for name in ("core.run_benchmark", "core.cell")
        ),
    }
    for name in (
        "cpu.instructions",
        "cpu.cycles",
        "memory.l1d_misses",
        "memory.l2_misses",
        "hwopt.hw_toggles",
    ):
        values[name] = counts[name]
    return values


def overhead_pct(traced: float, untraced: float) -> float:
    return 100.0 * (traced - untraced) / untraced if untraced else 0.0


# ----------------------------------------------------------------------
# sweep_cold


def sweep_layers(report, scale, benchmarks, configs, sweep_s, suite) -> None:
    """Trace a second pass of the grid.

    The reconciliation compares the layer self times with the traced
    pass's own ``sweep_s``: what they miss is time in ``run_suite``
    outside every layer call.  The untraced pass is the baseline of the
    tracing overhead only, since two passes differ by host noise too.
    """
    from sweep import run_grid

    with instrument(Tracer()) as tracer:
        traced, (started, ended), _ = run_grid(scale, benchmarks, configs)
    traced_s = ended - started
    for config in suite.config_names():
        for name, run in suite.sweep(config).runs.items():
            if traced.sweep(config).runs.get(name) != run:
                report.fail(f"traced {name} on {config} differs from untraced")

    values = tracer_values(tracer)
    layer_sum = sum(tracer.self_s.values())
    error = 100.0 * abs(traced_s - layer_sum) / traced_s
    values["core.attempts_per_cell"] = 1.0
    values["trace.overhead_pct"] = overhead_pct(traced_s, sweep_s)
    values["trace.reconcile_err_pct"] = error
    report.notes.append(
        f"reconcile: layer self times sum to {layer_sum:.3f} s of the traced "
        f"sweep_s {traced_s:.3f} s (error {error:.2f}%, tolerance "
        f"{RECONCILE_TOLERANCE_PCT}%); untraced sweep_s {sweep_s:.3f} s"
    )
    if error > RECONCILE_TOLERANCE_PCT:
        report.fail(f"layer self times miss sweep_s by {error:.2f}%")
    fill(report, values)


# ----------------------------------------------------------------------
# service_cold


def _timed(fn, *args, **kwargs):
    started = clock()
    value = fn(*args, **kwargs)
    return value, clock() - started


def cold_layers(report, bodies, records, delta, workdir) -> None:
    """Client-stamped service split, plus an in-process traced replay.

    The replay runs the batch's first simulate, profile and locality
    cells through the same worker entries the server uses, once
    untraced and once traced, and times the pieces the server does
    around them: the forked ``execute_cell`` and ``RunStore.put``.
    """
    from repro.core.parallel import execute_cell
    from repro.core.runstore import RunStore
    from repro.core.versions import prepare_codes
    from repro.evaluation.profile import profile_benchmark
    from repro.params import SENSITIVITY_CONFIGS, base_config
    from repro.service.cells import SCALES, decompose
    from repro.workloads.registry import get_spec

    from service import SCALE

    scale = SCALES[SCALE]
    values: dict = {}

    splits = [r["split"] for r in records if "split" in r]
    if splits:
        values["service.queue_s"] = median([s[0] for s in splits])
        values["service.execute_s"] = median([s[1] for s in splits])
        values["service.finish_s"] = median([s[2] for s in splits])
    measured = sum(r["latency"] for r in records if "split" in r)
    stamped = sum(sum(s) for s in splits)
    error = 100.0 * abs(stamped - measured) / measured if measured else 100.0
    values["trace.reconcile_err_pct"] = error
    report.notes.append(
        f"reconcile: queue+execute+finish sum to {stamped:.3f} s over "
        f"{len(splits)} cells, cell latencies to {measured:.3f} s "
        f"(error {error:.2f}%, tolerance {RECONCILE_TOLERANCE_PCT}%)"
    )
    if len(splits) != len(records) or error > RECONCILE_TOLERANCE_PCT:
        report.fail(f"service split misses cell latency by {error:.2f}%")
    values["core.result_bytes"] = median([r["bytes"] for r in records])
    values["core.attempts_per_cell"] = sum(r["attempts"] for r in records) / len(
        records
    )
    values["service.scheduler_executions"] = delta["scheduler_executions"]
    values["service.warm_hit_ratio"] = (
        delta["warm_hits"] / delta["cells_total"] if delta["cells_total"] else 0
    )

    first = {}
    for body in bodies:
        first.setdefault(body["kind"], body)
    specs = {kind: decompose(body, scale).specs[0] for kind, body in first.items()}
    sim = specs["simulate"]
    reference = base_config().scaled(scale.machine_divisor)
    codes = prepare_codes(get_spec(sim.benchmark), scale, reference)
    workers = {
        kind: spec.worker(codes if spec.needs_codes else None)
        for kind, spec in specs.items()
    }

    def replay():
        return {kind: fn(make_task(0, None)) for kind, (fn, make_task) in workers.items()}

    replay()  # lazy imports and first-call costs stay untimed
    untraced, untraced_s = _timed(replay)
    fn, make_task = workers["simulate"]
    inprocess_s = _timed(fn, make_task(0, None))[1]
    (value, attempts), executed_s = _timed(
        execute_cell,
        fn,
        make_task,
        benchmark=sim.benchmark,
        config=sim.config,
        retries=0,
    )
    if value != untraced["simulate"]:
        report.fail("execute_cell result differs from the in-process run")
    values["core.execute_overhead_s"] = executed_s - inprocess_s

    with tempfile.TemporaryDirectory(dir=workdir) as root:
        store = RunStore(root)
        puts = [
            _timed(store.put, f"put-{kind}-{i}", untraced[kind], specs[kind].store_meta())[1]
            for i in range(3)
            for kind in untraced
        ]
    values["runstore.put_s"] = median(puts)

    body = first["profile"]
    machine = SENSITIVITY_CONFIGS[body["config"]]().scaled(scale.machine_divisor)

    def profile(interval):
        return _timed(
            profile_benchmark,
            body["benchmark"],
            scale,
            machine,
            body["config"],
            version=body["version"],
            mechanism=body["mechanism"],
            interval=interval,
        )[1]

    # Best of three per leg: host contention only ever adds time.
    values["telemetry.sampling_s"] = min(
        profile(body["interval"]) for _ in range(3)
    ) - min(profile(0) for _ in range(3))

    with instrument(Tracer()) as tracer:
        started = clock()
        traced = {}
        for kind, (fn, make_task) in workers.items():
            with tracer.span("core.cell"):
                traced[kind] = fn(make_task(0, None))
        traced_s = clock() - started
    if traced["simulate"] != untraced["simulate"]:
        report.fail("traced replay differs from the untraced one")
    values.update(tracer_values(tracer))
    values["trace.overhead_pct"] = overhead_pct(traced_s, untraced_s)
    fill(report, values)


# ----------------------------------------------------------------------
# service_warm


def warm_layers(report, ops, results, delta, store_dir) -> None:
    """Per-class latencies and server counters, plus in-process reads
    of the filled store and a traced replay of the predictions."""
    import repro.analytic.predict as predict
    from repro.core.runstore import RunStore
    from repro.service.cells import SCALES

    from service import PREDICT_BENCHMARKS, SCALE

    values: dict = {}
    by_kind: dict = {}
    for (kind, _), result in zip(ops, results):
        if result is not None:
            by_kind.setdefault(kind, []).append(result[0])
    jobs = by_kind.get("simulate", []) + by_kind.get("sweep", [])
    values["service.job_warm_ms"] = 1000 * median(jobs)
    values["service.status_ms"] = 1000 * median(by_kind.get("status", []))
    values["service.scheduler_executions"] = delta["scheduler_executions"]
    values["service.warm_hit_ratio"] = (
        delta["warm_hits"] / delta["cells_total"] if delta["cells_total"] else 0
    )
    predicts = len(by_kind.get("predict", []))
    values["analytic.cache_hit_ratio"] = (
        1.0 - delta["predicts"] / predicts if predicts else 0
    )

    store = RunStore(store_dir)
    keys = store.keys()
    gets = []
    for _ in range(5):
        for key in keys:
            gets.append(_timed(store.get, key)[1])
    values["runstore.get_s"] = median(gets)
    values["runstore.stats_s"] = median([_timed(store.stats)[1] for _ in range(5)])

    scale = SCALES[SCALE]

    # Through the module attribute, so the traced pass sees the patch.
    def predict_all():
        return [
            predict.predict_benchmark(name, scale, miss_floor=floor)
            for floor in PREDICT_FLOORS
            for name in PREDICT_BENCHMARKS
        ]

    predict_all()  # lazy imports and first-call costs stay untimed
    untraced, untraced_s = _timed(predict_all)
    with instrument(Tracer()) as tracer:
        traced, traced_s = _timed(predict_all)
    for a, b in zip(untraced, traced):
        a.pop("elapsed_ms"), b.pop("elapsed_ms")
        if a != b:
            report.fail(f"traced prediction of {a['benchmark']} differs")
    values.update(tracer_values(tracer))
    values["trace.overhead_pct"] = overhead_pct(traced_s, untraced_s)
    fill(report, values)
