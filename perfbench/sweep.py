"""``sweep_cold``: an offline reproduction through ``run_suite``.

The grid is vpenta (regular), compress (irregular) and tpcd_q3 (mixed)
on the base and higher-memory-latency configurations, with the bypass
and victim mechanisms, at SMALL, in-process with ``jobs=1`` and no
store.  The seed only permutes the order of the configurations within
each benchmark: the work, the peak memory (one benchmark's traces are
alive at a time, in a fixed order) and every simulated statistic stay
the same, so each cell is checked against its golden digest.
"""

from __future__ import annotations

import random
import subprocess
import sys

from common import (
    SRC,
    WORK_CPU,
    HostSpeed,
    Report,
    clock,
    load_golden,
    median,
    pin,
    run_digest,
    self_peak_rss_mb,
    tail,
)

BENCHMARKS = ("vpenta", "compress", "tpcd_q3")
CONFIGS = ("Base Confg.", "Higher Mem. Lat.")
MECHANISMS = ("bypass", "victim")
SETUP_REPEATS = 3


def cell_id(scale: str, benchmark: str, config: str, mechanisms) -> str:
    return f"cell/{scale}/{benchmark}/{config}/{'+'.join(mechanisms)}"


def grid(seed: int):
    configs = list(CONFIGS)
    random.Random(seed).shuffle(configs)
    return list(BENCHMARKS), configs


def time_setup() -> float:
    """Median start-up of the CLI (interpreter, package, registry),
    scaled to the reference host speed."""
    times = []
    with HostSpeed([WORK_CPU]) as speed:
        for _ in range(SETUP_REPEATS):
            started = clock()
            subprocess.run(
                [sys.executable, "-m", "repro", "list"],
                check=True,
                stdout=subprocess.DEVNULL,
                env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
            )
            times.append((started, clock()))
    return median([(end - start) * speed.factor(start, end) for start, end in times])


def warm_up() -> None:
    """One small cell first, so lazy imports and first calls (numpy
    kernels, the optimizer's tile search) stay out of ``sweep_s``."""
    from repro.service.cells import SCALES

    run_grid(SCALES["tiny"], ["tpcd_q3"], ["Base Confg."])


def run_grid(scale, benchmarks, configs):
    """One ``run_suite`` call; returns (suite, (start, end), cell windows).

    A cell runs from its own progress line to the next line (the next
    cell or the next benchmark's preparation) or to the end.
    """
    from repro.core.runner import run_suite
    from repro.params import SENSITIVITY_CONFIGS

    stamps: list[tuple[float, str]] = []

    def progress(message: str) -> None:
        stamps.append((clock(), message))

    started = clock()
    suite = run_suite(
        scale,
        benchmarks=benchmarks,
        configs={name: SENSITIVITY_CONFIGS[name] for name in configs},
        mechanisms=MECHANISMS,
        progress=progress,
        jobs=1,
    )
    ended = clock()
    marks = stamps + [(ended, "end")]
    cells = [
        (stamp, marks[i + 1][0])
        for i, (stamp, message) in enumerate(stamps)
        if not message.startswith("preparing")
    ]
    return suite, (started, ended), cells


def check(report: Report, suite, scale_name: str, golden: dict) -> int:
    """Compare every cell with its golden digest; returns instructions."""
    import dataclasses

    instructions = 0
    for config in suite.config_names():
        for benchmark, run in suite.sweep(config).runs.items():
            report.attempted += 1
            results = {
                key: dataclasses.asdict(value)
                for key, value in run.results.items()
            }
            instructions += sum(r["instructions"] for r in results.values())
            key = cell_id(scale_name, benchmark, config, MECHANISMS)
            if run_digest(results) != golden.get(key):
                report.failed += 1
                report.fail(f"{key}: simulated statistics differ from golden")
    return instructions


def run(seed: int, trace: bool, scale_name: str = "small") -> Report:
    from repro.service.cells import SCALES

    scale = SCALES[scale_name]
    golden = load_golden()["cells"]
    benchmarks, configs = grid(seed)
    report = Report()
    report.notes.append(
        f"workload sweep_cold: run_suite(jobs=1, no store) at {scale_name}, "
        f"benchmarks {benchmarks}, configs {configs}, "
        f"mechanisms {list(MECHANISMS)}"
    )

    pin(0, WORK_CPU)
    setup_s = time_setup()
    warm_up()
    with HostSpeed([WORK_CPU]) as speed:
        suite, (started, ended), windows = run_grid(scale, benchmarks, configs)
    report.notes.append(speed.note())
    sweep_s = ended - started
    cells = [end - start for start, end in windows]
    scaled = [(end - start) * speed.factor(start, end) for start, end in windows]
    rss_mb = self_peak_rss_mb()
    instructions = check(report, suite, scale_name, golden)
    if report.attempted != len(BENCHMARKS) * len(CONFIGS):
        report.fail(f"expected {len(BENCHMARKS) * len(CONFIGS)} cells")
    cell_tail, tail_label = tail(cells)

    report.metric("setup_s", setup_s, "s")
    report.metric("work_s", sweep_s * speed.factor(started, ended), "s")
    report.metric("op_p50_ms", 1000 * median(scaled), "ms")
    report.metric("op_tail_ms", 1000 * tail(scaled)[0], "ms")
    report.metric("rss_peak_mb", rss_mb, "MB")
    report.name("setup_s", setup_s, "s", f"median of {SETUP_REPEATS}, scaled")
    report.name("rss_peak_mb", rss_mb, "MB", "benchmark process")
    report.name("sweep_s", sweep_s, "s", f"{len(cells)} cells")
    report.name(
        "sim_minstr_per_s",
        instructions / 1e6 / sweep_s,
        "Minstr/s",
        f"{instructions / 1e6:.3f} M simulated instructions",
    )
    report.name("cell_p50_s", median(cells), "s")
    report.name("cell_tail_s", cell_tail, "s", tail_label)

    if trace:
        from layers import sweep_layers

        sweep_layers(report, scale, benchmarks, configs, sweep_s, suite)
    return report
