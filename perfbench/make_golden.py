#!/usr/bin/env python3
"""Regenerate ``perfbench/golden.json`` from the current program.

Run only when the simulated results are meant to change (a change to
the modelled design); a speed-only change must leave every digest as
it is, which is what the benchmark checks.  Takes about two minutes::

    python3 perfbench/make_golden.py

It covers every cell any seed can draw: the sweep_cold grid at small
(and at tiny, for the self-test), and every simulate, profile and
locality cell of service_cold's universe, computed in-process through
the same worker entries and JSON encoding the service uses.
"""

from __future__ import annotations

import dataclasses
import json
import sys

from common import GOLDEN_PATH, SRC, run_digest

sys.path.insert(0, str(SRC))

import service  # noqa: E402
import sweep  # noqa: E402


def sweep_cells(golden: dict, scale_name: str) -> None:
    from repro.service.cells import SCALES

    suite = sweep.run_grid(
        SCALES[scale_name], list(sweep.BENCHMARKS), list(sweep.CONFIGS)
    )[0]
    for config in suite.config_names():
        for benchmark, run in suite.sweep(config).runs.items():
            results = {
                key: dataclasses.asdict(value)
                for key, value in run.results.items()
            }
            key = sweep.cell_id(scale_name, benchmark, config, sweep.MECHANISMS)
            golden[key] = run_digest(results)


def service_universe() -> list[dict]:
    bodies = []
    for benchmark in service.COLD_BENCHMARKS:
        for config in service.CONFIGS:
            for mechanism in service.MECHANISMS:
                bodies.append(
                    {
                        "kind": "simulate",
                        "benchmark": benchmark,
                        "config": config,
                        "mechanisms": [mechanism],
                    }
                )
            for version in service.PROFILE_VERSIONS:
                mechanisms = (
                    service.MECHANISMS if version == "pure_hw" else ("bypass",)
                )
                for mechanism in mechanisms:
                    bodies.append(
                        {
                            "kind": "profile",
                            "benchmark": benchmark,
                            "config": config,
                            "version": version,
                            "mechanism": mechanism,
                            "interval": service.PROFILE_INTERVAL,
                        }
                    )
        bodies.append({"kind": "locality", "benchmark": benchmark})
    return bodies


def service_cells(golden: dict) -> None:
    from repro.core.versions import prepare_codes
    from repro.params import base_config
    from repro.service.cells import SCALES, aggregate_result, canonical_json, decompose
    from repro.workloads.registry import get_spec

    scale = SCALES[service.SCALE]
    reference = base_config().scaled(scale.machine_divisor)
    codes = {}
    for body in service_universe():
        request = decompose(body, scale)
        spec = request.specs[0]
        if spec.needs_codes and spec.benchmark not in codes:
            codes[spec.benchmark] = prepare_codes(
                get_spec(spec.benchmark), scale, reference
            )
        fn, make_task = spec.worker(codes.get(spec.benchmark))
        value = fn(make_task(0, None))
        document = json.loads(
            canonical_json(aggregate_result(request.kind, [spec], ["key"], [value]))
        )
        golden[service.cold_cell_id(body)] = service.document_digest(
            body["kind"], document
        )


def main() -> int:
    golden: dict = {}
    sweep_cells(golden, "small")
    sweep_cells(golden, "tiny")
    service_cells(golden)
    GOLDEN_PATH.write_text(
        json.dumps({"cells": dict(sorted(golden.items()))}, indent=1) + "\n"
    )
    print(f"wrote {len(golden)} digests to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
