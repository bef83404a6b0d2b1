"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's evaluation artifacts:

* ``list``       — the benchmark suite with categories;
* ``run``        — the four versions of one benchmark on one config;
* ``regions``    — region detection + marker placement for a benchmark;
* ``table2``     — benchmark characteristics (Table 2);
* ``table3``     — average improvements across configurations (Table 3);
* ``figure N``   — one of Figures 4-9;
* ``locality``   — reuse-distance / miss-ratio-curve profile of each
  benchmark plus model-driven vs compiler ON/OFF gating (``--json``
  for machine-readable rows, ``--miss-floor`` to tune the policy);
* ``predict``    — the analytic locality model: predicted MRC,
  per-region gating, and tile choices computed straight from the IR
  in milliseconds — no trace, no simulation;
* ``lint``       — static IR verification (structure, markers, bounds,
  transform legality) of every benchmark's base and optimized+marked
  variants;
* ``profile``    — one version of one benchmark with telemetry
  attached: per-region statistics plus an optional Chrome trace
  (``--trace-out``, opens in Perfetto / chrome://tracing);
* ``runs``       — list and validate the cells of a ``--store`` run
  store (checkpointed sweep results);
* ``trace``      — dump a benchmark's trace to a file (binary format);
* ``serve``      — run the sweep service: an asyncio HTTP server that
  answers simulation/sweep/locality/profile jobs from the ``--store``
  run store (warm cells, microseconds) or the fault-tolerant scheduler
  (cold cells), with single-flight coalescing of duplicate requests.

``--trace-out FILE`` also works on the sweep commands (``table2``,
``table3``, ``figure``), where it exports a wall-clock timeline of
prepare/simulate/retry/restore spans, and on ``run --telemetry``,
where it exports simulated-cycle telemetry for all versions.

Long sweeps (``table2``/``table3``/``figure``) are fault-tolerant:
``--store DIR`` checkpoints every completed cell (atomic write +
checksum) and ``--resume`` skips verified-complete cells on a re-run;
``--timeout``/``--retries`` bound each cell's execution; a cell that
fails permanently is reported (partial results, exit status 1) instead
of aborting the sweep.  ``--faults``/``$REPRO_FAULTS`` inject
deterministic failures for testing the recovery paths.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro.core.faults import FaultPlan
from repro.core.parallel import (
    DEFAULT_RETRIES,
    resolve_jobs,
    run_benchmark_parallel,
)
from repro.core.runner import SuiteResult, run_suite
from repro.core.runstore import RunStore
from repro.core.versions import prepare_codes
from repro.evaluation.figures import FIGURES, figure_series
from repro.evaluation.locality import locality_rows
from repro.evaluation.profile import profile_benchmark
from repro.evaluation.report import (
    render_failures,
    render_figure,
    render_locality,
    render_profile,
    render_runs,
    render_table2,
    render_table3,
)
from repro.evaluation.table2 import table2_rows
from repro.evaluation.table3 import sweep_to_row
from repro.hwopt.policy import DEFAULT_MISS_FLOOR
from repro.isa.encoding import encode_trace
from repro.params import SENSITIVITY_CONFIGS, base_config
from repro.telemetry import (
    SweepTimeline,
    Telemetry,
    sweep_trace_events,
    telemetry_trace_events,
    write_trace,
)
from repro.workloads.base import MEDIUM, SMALL, TINY, Scale
from repro.workloads.registry import all_specs, get_spec

__all__ = ["main"]

_SCALES = {"tiny": TINY, "small": SMALL, "medium": MEDIUM}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'An Integrated Approach for Improving "
            "Cache Behavior' (DATE 2003)"
        ),
    )
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="small",
        help="workload problem size (default: small)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for run/table2/table3/figure (default: "
            "$REPRO_JOBS or the CPU count; results are identical for "
            "any job count)"
        ),
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help=(
            "run-store directory: checkpoint each completed sweep cell "
            "(atomic write + checksum) for crash-safe restarts"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "skip cells already completed and verified in --store "
            "(without this flag the store is written but existing "
            "entries are recomputed)"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry any sweep cell running longer than this",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=DEFAULT_RETRIES,
        metavar="N",
        help=(
            "retry budget per sweep cell (crash/timeout/error); a cell "
            f"failing all attempts is reported, not fatal "
            f"(default: {DEFAULT_RETRIES})"
        ),
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help=(
            "inject deterministic faults into worker cells "
            "(kind:benchmark:config[:times][;...], kinds: raise, hang, "
            "exit, corrupt); overrides $REPRO_FAULTS"
        ),
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help=(
            "write a Chrome trace-event JSON file (Perfetto / "
            "chrome://tracing): simulated-cycle telemetry for "
            "profile and run --telemetry, wall-clock sweep timeline "
            "for table2/table3/figure"
        ),
    )
    parser.add_argument(
        "--interval",
        type=int,
        default=1000,
        metavar="CYCLES",
        help=(
            "telemetry sampling period in simulated cycles for "
            "profile / run --telemetry (default: 1000)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def accept_trace_args(cmd: argparse.ArgumentParser) -> None:
        """Let --trace-out/--interval appear after the subcommand too.

        ``SUPPRESS`` keeps the parent parser's value when the option is
        absent, so both positions work and the subcommand wins.
        """
        cmd.add_argument(
            "--trace-out",
            metavar="FILE",
            default=argparse.SUPPRESS,
            help=argparse.SUPPRESS,
        )
        cmd.add_argument(
            "--interval",
            type=int,
            metavar="CYCLES",
            default=argparse.SUPPRESS,
            help=argparse.SUPPRESS,
        )

    def accept_miss_floor(cmd: argparse.ArgumentParser) -> None:
        """The gating policy's named miss-ratio floor knob."""
        cmd.add_argument(
            "--miss-floor",
            type=float,
            default=DEFAULT_MISS_FLOOR,
            metavar="RATIO",
            help=(
                "minimum miss ratio for the adaptive ON/OFF threshold "
                f"(default: {DEFAULT_MISS_FLOOR}) — regions missing "
                "less than this never get assists, however good the "
                "program average looks"
            ),
        )

    sub.add_parser("list", help="list the benchmark suite")

    run_cmd = sub.add_parser(
        "run", help="run the four versions of one benchmark"
    )
    run_cmd.add_argument("benchmark")
    run_cmd.add_argument(
        "--config",
        choices=list(SENSITIVITY_CONFIGS),
        default="Base Confg.",
    )
    run_cmd.add_argument(
        "--telemetry",
        action="store_true",
        help=(
            "attach a telemetry hub to every version (runs "
            "sequentially); combine with --trace-out for a Chrome trace"
        ),
    )
    accept_trace_args(run_cmd)

    regions_cmd = sub.add_parser(
        "regions", help="show region detection + markers for a benchmark"
    )
    regions_cmd.add_argument("benchmark")

    table2_cmd = sub.add_parser("table2", help="reproduce Table 2")
    accept_trace_args(table2_cmd)

    table3_cmd = sub.add_parser("table3", help="reproduce Table 3")
    table3_cmd.add_argument(
        "--config",
        action="append",
        choices=list(SENSITIVITY_CONFIGS),
        help="restrict to specific configurations (default: all six)",
    )
    table3_cmd.add_argument(
        "--benchmark",
        action="append",
        metavar="NAME",
        help="restrict to specific benchmarks (default: all 13)",
    )

    accept_trace_args(table3_cmd)

    figure_cmd = sub.add_parser("figure", help="reproduce one figure")
    figure_cmd.add_argument("number", type=int, choices=sorted(FIGURES))
    accept_trace_args(figure_cmd)

    locality_cmd = sub.add_parser(
        "locality",
        help=(
            "reuse-distance profile and miss-ratio curves per benchmark, "
            "plus model-driven ON/OFF gating vs the compiler's markers"
        ),
    )
    locality_cmd.add_argument(
        "benchmarks",
        nargs="*",
        metavar="benchmark",
        help="benchmarks to profile (default: the whole suite)",
    )
    locality_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the rows as a JSON array instead of the table",
    )
    accept_miss_floor(locality_cmd)

    predict_cmd = sub.add_parser(
        "predict",
        help=(
            "closed-form locality prediction straight from the IR: "
            "predicted MRC, per-region gating, and tile choices — no "
            "trace, no simulation (JSON output)"
        ),
    )
    predict_cmd.add_argument(
        "benchmarks",
        nargs="*",
        metavar="benchmark",
        help="benchmarks to predict (default: the whole suite)",
    )
    predict_cmd.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="RATIO",
        help=(
            "explicit ON/OFF miss-ratio threshold (default: the "
            "program's predicted ratio floored at --miss-floor)"
        ),
    )
    accept_miss_floor(predict_cmd)

    lint_cmd = sub.add_parser(
        "lint",
        help=(
            "statically verify structure, markers, bounds, and transform "
            "legality for each benchmark's base and optimized variants"
        ),
    )
    lint_cmd.add_argument(
        "benchmarks",
        nargs="*",
        metavar="benchmark",
        help="benchmarks to lint (default: the whole suite)",
    )
    lint_cmd.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings (e.g. removable markers) as failures",
    )
    lint_cmd.add_argument(
        "--deps",
        action="store_true",
        help=(
            "also print per-nest dependence-relation summaries: counts, "
            "flow/anti/output mix, '*' directions, unanalyzable "
            "references, and the transforms each nest received"
        ),
    )

    profile_cmd = sub.add_parser(
        "profile",
        help=(
            "simulate one version of one benchmark with telemetry: "
            "per-region statistics + optional Chrome trace (--trace-out)"
        ),
    )
    profile_cmd.add_argument("benchmark")
    profile_cmd.add_argument(
        "--config",
        choices=list(SENSITIVITY_CONFIGS),
        default="Base Confg.",
    )
    profile_cmd.add_argument(
        "--version",
        choices=["base", "pure_sw", "pure_hw", "combined", "selective"],
        default="selective",
        help="which version to profile (default: selective)",
    )
    profile_cmd.add_argument(
        "--mechanism",
        choices=["bypass", "victim", "prefetch"],
        default="bypass",
        help="hardware assist for hw-backed versions (default: bypass)",
    )
    accept_trace_args(profile_cmd)

    runs_cmd = sub.add_parser(
        "runs",
        help=(
            "list the cells of the --store run store, verifying each "
            "entry's checksum"
        ),
    )
    runs_cmd.add_argument(
        "--purge-bad",
        action="store_true",
        help="delete entries that fail verification",
    )
    runs_cmd.add_argument(
        "--scrub",
        action="store_true",
        help=(
            "re-verify every entry's embedded sha256 up front and "
            "print a scrub report (exit 1 if anything is corrupt)"
        ),
    )
    runs_cmd.add_argument(
        "--quarantine",
        action="store_true",
        help=(
            "with --scrub: move corrupt entries into the store's "
            "quarantine/ directory instead of leaving them in place"
        ),
    )

    trace_cmd = sub.add_parser(
        "trace", help="dump a benchmark's base trace to a file"
    )
    trace_cmd.add_argument("benchmark")
    trace_cmd.add_argument("output")
    trace_cmd.add_argument(
        "--version",
        choices=["base", "optimized", "selective"],
        default="base",
    )

    serve_cmd = sub.add_parser(
        "serve",
        help=(
            "run the sweep service: an HTTP server that answers "
            "simulate/sweep/table2/locality/profile jobs from the "
            "--store run store (warm cells) or the fault-tolerant "
            "scheduler (cold cells)"
        ),
    )
    serve_cmd.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve_cmd.add_argument(
        "--port",
        type=int,
        default=8023,
        help="TCP port; 0 picks an ephemeral port (default: 8023)",
    )
    serve_cmd.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help=(
            "admission high-water mark: shed (429) beyond this many "
            "non-terminal jobs (default: 64)"
        ),
    )
    serve_cmd.add_argument(
        "--client-cap",
        type=int,
        default=16,
        help="max in-flight jobs per client identity (default: 16)",
    )
    serve_cmd.add_argument(
        "--drain-grace",
        type=float,
        default=20.0,
        help=(
            "seconds a SIGTERM drain waits for in-flight jobs before "
            "cancelling them (default: 20)"
        ),
    )
    serve_cmd.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help=(
            "consecutive worker failures that trip warm-only mode "
            "(default: 5)"
        ),
    )
    serve_cmd.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        help=(
            "seconds an open circuit breaker waits before its "
            "half-open probe (default: 30)"
        ),
    )
    return parser


def _cmd_list() -> int:
    print(f"{'name':<10} {'category':<10} description")
    for spec in all_specs():
        print(f"{spec.name:<10} {spec.category:<10} {spec.description}")
    return 0


def _run_with_telemetry(codes, machine, interval: int):
    """Sequential run of all versions, one telemetry hub per version."""
    from repro.core.experiment import (
        BenchmarkRun,
        simulate_trace,
        version_simulations,
    )

    run = BenchmarkRun(codes.name, codes.category, machine.name)
    hubs: dict[str, Telemetry] = {}
    for key, args in version_simulations(codes, machine):
        hub = Telemetry(interval=interval, name=f"{codes.name}/{key}")
        run.results[key] = simulate_trace(*args, telemetry=hub)
        hubs[key] = hub
    return run, hubs


def _cmd_run(
    name: str,
    config_name: str,
    scale: Scale,
    jobs: Optional[int],
    telemetry: bool,
    interval: int,
    trace_out: Optional[str],
) -> int:
    machine = SENSITIVITY_CONFIGS[config_name]().scaled(
        scale.machine_divisor
    )
    reference = base_config().scaled(scale.machine_divisor)
    started = time.time()
    codes = prepare_codes(get_spec(name), scale, reference)
    if telemetry or trace_out:
        run, hubs = _run_with_telemetry(codes, machine, interval)
        if trace_out:
            events = []
            for pid, (key, hub) in enumerate(hubs.items(), start=1):
                events += telemetry_trace_events(
                    hub, pid=pid, label=f"{name}/{key}"
                )
            write_trace(
                trace_out,
                events,
                meta={"benchmark": name, "config": config_name},
            )
            print(
                f"wrote Chrome trace ({len(events)} events) to "
                f"{trace_out}",
                file=sys.stderr,
            )
    else:
        run = run_benchmark_parallel(codes, machine, jobs=jobs)
    print(
        f"{name} on {config_name} (scale {scale.name}, "
        f"{time.time() - started:.1f}s)"
    )
    print(f"base: {run.baseline.cycles:,} cycles, "
          f"L1D miss rate {run.baseline.l1d_miss_rate:.3f}\n")
    print(f"{'version':<22}{'cycles':>12}{'improvement':>13}")
    for key in run.version_keys():
        if key == "base":
            continue
        result = run.results[key]
        print(f"{key:<22}{result.cycles:>12,}"
              f"{run.improvement(key):>12.2f}%")
    return 0


def _cmd_regions(name: str, scale: Scale) -> int:
    from repro.compiler.regions.detect import detect_regions
    from repro.compiler.regions.markers import insert_markers

    program = get_spec(name).instantiate(scale)
    detection = detect_regions(program)
    report = insert_markers(program, rerun_detection=False)
    print(detection.summary())
    print("regions in program order:", detection.preferences())
    print(
        f"markers: {report.activates} ON, {report.deactivates} OFF "
        f"({report.eliminated} redundant eliminated of "
        f"{report.naive_markers} naive)"
    )
    return 0


def _sweep_timeline(trace_out: Optional[str]) -> Optional[SweepTimeline]:
    return SweepTimeline() if trace_out else None


def _write_sweep_trace(
    timeline: Optional[SweepTimeline], trace_out: Optional[str]
) -> None:
    if timeline is None or trace_out is None:
        return
    events = sweep_trace_events(timeline)
    write_trace(trace_out, events, meta={"kind": "sweep"})
    print(
        f"wrote sweep timeline ({len(timeline)} spans, "
        f"{len(events)} events) to {trace_out}",
        file=sys.stderr,
    )


def _cmd_table2(
    scale: Scale,
    jobs: Optional[int],
    resilience: dict,
    trace_out: Optional[str],
) -> int:
    timeline = _sweep_timeline(trace_out)
    rows = table2_rows(
        scale,
        jobs=jobs,
        store=resilience["store"],
        resume=resilience["resume"],
        timeline=timeline,
    )
    print(render_table2(rows))
    _write_sweep_trace(timeline, trace_out)
    return 0


def _report_failures(suite: SuiteResult) -> int:
    """Print the partial-results warning; exit status 1 if any cell died."""
    if suite.failures:
        print(render_failures(suite.failures), file=sys.stderr)
        return 1
    return 0


def _cmd_table3(
    config_names: Optional[list[str]],
    benchmarks: Optional[list[str]],
    scale: Scale,
    jobs: Optional[int],
    resilience: dict,
    trace_out: Optional[str],
) -> int:
    names = config_names or list(SENSITIVITY_CONFIGS)
    configs = {name: SENSITIVITY_CONFIGS[name] for name in names}
    timeline = _sweep_timeline(trace_out)
    suite = run_suite(
        scale,
        benchmarks=benchmarks,
        configs=configs,
        progress=_progress,
        jobs=jobs,
        timeline=timeline,
        **resilience,
    )
    rows = [
        sweep_to_row(name, suite.sweeps[name]) for name in suite.sweeps
    ]
    print(render_table3(rows))
    _write_sweep_trace(timeline, trace_out)
    return _report_failures(suite)


def _cmd_figure(
    number: int,
    scale: Scale,
    jobs: Optional[int],
    resilience: dict,
    trace_out: Optional[str],
) -> int:
    config_name = FIGURES[number]
    timeline = _sweep_timeline(trace_out)
    suite = run_suite(
        scale,
        configs={config_name: SENSITIVITY_CONFIGS[config_name]},
        progress=_progress,
        jobs=jobs,
        timeline=timeline,
        **resilience,
    )
    print(render_figure(figure_series(number, suite.sweep(config_name))))
    _write_sweep_trace(timeline, trace_out)
    return _report_failures(suite)


def _cmd_profile(
    name: str,
    config_name: str,
    version: str,
    mechanism: str,
    scale: Scale,
    interval: int,
    trace_out: Optional[str],
) -> int:
    machine = SENSITIVITY_CONFIGS[config_name]().scaled(
        scale.machine_divisor
    )
    profile = profile_benchmark(
        name,
        scale,
        machine,
        config_name,
        version=version,
        mechanism=mechanism,
        interval=interval,
    )
    print(render_profile(profile))
    if trace_out:
        events = telemetry_trace_events(
            profile.telemetry, label=f"{name}/{profile.version}"
        )
        write_trace(
            trace_out,
            events,
            meta={
                "benchmark": name,
                "version": profile.version,
                "config": config_name,
                "interval": interval,
            },
        )
        print(
            f"wrote Chrome trace ({len(events)} events) to {trace_out}; "
            "open in Perfetto (ui.perfetto.dev) or chrome://tracing"
        )
    return 0 if profile.consistent() else 1


def _cmd_runs(
    store: Optional[RunStore],
    purge_bad: bool,
    scrub: bool = False,
    quarantine: bool = False,
) -> int:
    if store is None:
        print("error: 'runs' requires --store DIR", file=sys.stderr)
        return 2
    if quarantine and not scrub:
        print("error: --quarantine requires --scrub", file=sys.stderr)
        return 2
    if purge_bad:
        for key in store.purge_corrupt():
            print(f"purged {key}", file=sys.stderr)
    if scrub:
        report = store.scrub(quarantine=quarantine)
        for key in report.corrupt:
            action = (
                "quarantined" if key in report.quarantined else "corrupt"
            )
            print(f"{action} {key}: {report.errors[key]}", file=sys.stderr)
        print(
            f"scrub: {report.checked} checked, {report.ok} ok, "
            f"{len(report.corrupt)} corrupt, "
            f"{len(report.quarantined)} quarantined"
        )
        return 0 if report.clean else 1
    entries = store.entries()
    print(render_runs(entries))
    return 0 if all(entry.ok for entry in entries) else 1


def _cmd_locality(
    benchmarks: list[str],
    scale: Scale,
    jobs: Optional[int],
    as_json: bool,
    miss_floor: float,
) -> int:
    import dataclasses
    import json

    names = benchmarks or None
    progress = None if as_json else _progress
    try:
        rows = locality_rows(
            scale, names, jobs=jobs, progress=progress,
            miss_floor=miss_floor,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if as_json:
        print(json.dumps(
            [dataclasses.asdict(row) for row in rows], indent=2
        ))
    else:
        print(render_locality(rows))
    return 0


def _cmd_predict(
    benchmarks: list[str],
    scale: Scale,
    threshold: Optional[float],
    miss_floor: float,
) -> int:
    import json

    from repro.analytic.predict import predict_benchmark

    names = benchmarks or [spec.name for spec in all_specs()]
    payloads = []
    for name in names:
        try:
            payloads.append(
                predict_benchmark(
                    name, scale,
                    threshold=threshold, miss_floor=miss_floor,
                )
            )
        except (KeyError, ValueError) as exc:
            message = exc.args[0] if exc.args else exc
            print(f"error: {message}", file=sys.stderr)
            return 2
    print(json.dumps(
        payloads[0] if len(payloads) == 1 and benchmarks else payloads,
        indent=2,
    ))
    return 0


def _cmd_lint(
    benchmarks: list[str], scale: Scale, strict: bool, deps: bool = False
) -> int:
    from repro.compiler.verify.lint import lint_registry, render_lint

    result = lint_registry(scale, benchmarks or None)
    print(render_lint(result, strict))
    if deps:
        from repro.compiler.verify.deps import deps_summaries, render_deps

        print()
        print(render_deps(deps_summaries(scale, benchmarks or None)))
    return 0 if result.ok(strict) else 1


def _cmd_trace(name: str, output: str, version: str, scale: Scale) -> int:
    reference = base_config().scaled(scale.machine_divisor)
    codes = prepare_codes(get_spec(name), scale, reference)
    trace = {
        "base": codes.base_trace,
        "optimized": codes.optimized_trace,
        "selective": codes.selective_trace,
    }[version]
    data = encode_trace(trace)
    with open(output, "wb") as handle:
        handle.write(data)
    print(
        f"wrote {len(data):,} bytes ({len(trace):,} records, "
        f"{trace.memory_reference_count:,} memory refs) to {output}"
    )
    return 0


def _cmd_serve(
    host: str,
    port: int,
    store: Optional[RunStore],
    jobs: int,
    scale: Scale,
    resilience: dict,
    admission: dict,
) -> int:
    from repro.service.server import ServiceConfig, serve_forever

    if store is None:
        print("error: 'serve' requires --store DIR", file=sys.stderr)
        return 2
    serve_forever(
        ServiceConfig(
            host=host,
            port=port,
            store=store,
            jobs=jobs,
            scale=scale,
            timeout=resilience["timeout"],
            retries=resilience["retries"],
            faults=resilience["faults"],
            max_pending=admission["max_pending"],
            client_cap=admission["client_cap"],
            drain_grace=admission["drain_grace"],
            breaker_threshold=admission["breaker_threshold"],
            breaker_cooldown=admission["breaker_cooldown"],
        )
    )
    return 0


def _progress(message: str) -> None:
    print(f"  [{message}]", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    scale = _SCALES[args.scale]
    try:
        jobs = resolve_jobs(args.jobs)
        faults = FaultPlan.parse(args.faults) if args.faults else None
        if args.retries < 0:
            raise ValueError(f"--retries must be >= 0, got {args.retries}")
        if args.timeout is not None and args.timeout <= 0:
            raise ValueError(f"--timeout must be positive, got {args.timeout}")
        if args.resume and args.store is None:
            raise ValueError("--resume requires --store DIR")
        if args.interval < 0:
            raise ValueError(
                f"--interval must be >= 0, got {args.interval}"
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = RunStore(args.store) if args.store else None
    resilience = {
        "store": store,
        "resume": args.resume,
        "timeout": args.timeout,
        "retries": args.retries,
        "faults": faults,
    }
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(
            args.benchmark,
            args.config,
            scale,
            jobs,
            args.telemetry,
            args.interval,
            args.trace_out,
        )
    if args.command == "regions":
        return _cmd_regions(args.benchmark, scale)
    if args.command == "table2":
        return _cmd_table2(scale, jobs, resilience, args.trace_out)
    if args.command == "table3":
        return _cmd_table3(
            args.config, args.benchmark, scale, jobs, resilience,
            args.trace_out,
        )
    if args.command == "figure":
        return _cmd_figure(args.number, scale, jobs, resilience, args.trace_out)
    if args.command == "profile":
        return _cmd_profile(
            args.benchmark,
            args.config,
            args.version,
            args.mechanism,
            scale,
            args.interval,
            args.trace_out,
        )
    if args.command == "locality":
        return _cmd_locality(
            args.benchmarks, scale, jobs, args.json, args.miss_floor
        )
    if args.command == "predict":
        return _cmd_predict(
            args.benchmarks, scale, args.threshold, args.miss_floor
        )
    if args.command == "lint":
        return _cmd_lint(args.benchmarks, scale, args.strict, args.deps)
    if args.command == "runs":
        return _cmd_runs(
            store, args.purge_bad, args.scrub, args.quarantine
        )
    if args.command == "trace":
        return _cmd_trace(args.benchmark, args.output, args.version, scale)
    if args.command == "serve":
        return _cmd_serve(
            args.host,
            args.port,
            store,
            jobs,
            scale,
            resilience,
            {
                "max_pending": args.max_pending,
                "client_cap": args.client_cap,
                "drain_grace": args.drain_grace,
                "breaker_threshold": args.breaker_threshold,
                "breaker_cooldown": args.breaker_cooldown,
            },
        )
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
