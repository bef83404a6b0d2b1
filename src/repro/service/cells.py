"""Request decomposition: service jobs become run-store cells.

Every service request is decomposed into :class:`CellSpec` records —
the independent units the run store content-addresses.  A ``simulate``
or ``sweep`` request maps onto exactly the same ``cell`` entries the
offline sweep engine writes (:func:`repro.core.runner.run_grid`), a
``table2`` request onto the ``table2`` rows of
:func:`repro.evaluation.table2.table2_rows`, and so on — so a store
warmed by an offline ``repro table3 --store DIR`` serves the matching
service requests without a single scheduler execution, and vice versa.

Worker entries here are module-level (picklable) functions run by
:func:`repro.core.parallel.execute_cell` in child processes; each
applies the deterministic fault plan first, so the ``REPRO_FAULTS``
chaos suite exercises the service exactly as it does the sweep
scheduler.

Result payloads are serialized with :func:`canonical_json` (sorted
keys, no whitespace), so a cell's response bytes depend only on its
content — warm and cold paths, and the offline runner, produce
byte-identical JSON for the same key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.experiment import BenchmarkRun, expected_version_keys
from repro.core.parallel import CellFailure, task_factory
from repro.core.runner import _run_cell
from repro.core.runstore import RunStore, to_plain
from repro.core.sweep import SweepResult
from repro.core.versions import MECHANISMS, PREFETCH
from repro.evaluation.locality import LocalityRow, _locality_cell
from repro.evaluation.table2 import Table2Row, _table2_cell
from repro.evaluation.table3 import TABLE3_COLUMNS
from repro.hwopt.policy import DEFAULT_MISS_FLOOR
from repro.params import SENSITIVITY_CONFIGS, MachineParams
from repro.workloads.base import MEDIUM, SMALL, TINY, Scale
from repro.workloads.registry import all_specs, get_spec

__all__ = [
    "JOB_KINDS",
    "MACHINES",
    "SCALES",
    "CellSpec",
    "JobRequest",
    "aggregate_result",
    "canonical_json",
    "decompose",
    "run_to_json",
]

SCALES = {"tiny": TINY, "small": SMALL, "medium": MEDIUM}

#: (config, scale name) → the scaled machine every cell of that pair
#: shares.  ``MachineParams`` is frozen, so sharing one is safe, and a
#: request costs a lookup rather than a rebuild.
MACHINES = {
    (config, name): make().scaled(scale.machine_divisor)
    for config, make in SENSITIVITY_CONFIGS.items()
    for name, scale in SCALES.items()
}

JOB_KINDS = ("simulate", "sweep", "table2", "locality", "profile")

_KNOWN_MECHANISMS = MECHANISMS + (PREFETCH,)

#: Profile versions accepted by ``repro profile`` and the service.
_PROFILE_VERSIONS = ("base", "pure_sw", "pure_hw", "combined", "selective")


def canonical_json(payload: Any) -> bytes:
    """Deterministic JSON bytes: sorted keys, minimal separators."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode()


def run_to_json(run: BenchmarkRun) -> dict:
    """A :class:`BenchmarkRun` as a JSON-able dict (full fidelity)."""
    return {
        "benchmark": run.benchmark,
        "category": run.category,
        "machine": run.machine_name,
        "results": to_plain(run.results),
        "improvements": {
            key: run.improvement(key)
            for key in run.version_keys()
            if key != "base"
        },
    }


def failure_to_json(failure: CellFailure) -> dict:
    """A permanent cell failure, without wall-clock noise.

    ``duration`` is deliberately excluded: the result document must be
    byte-identical across repeats of the same deterministic request.
    """
    return {
        "benchmark": failure.benchmark,
        "config": failure.config,
        "kind": failure.kind,
        "attempts": failure.attempts,
        "message": failure.message,
    }


# ----------------------------------------------------------------------
# worker entries (module-level: run via execute_cell in child processes)


def _profile_cell(task):
    (
        name,
        scale,
        machine,
        config_name,
        version,
        mechanism,
        interval,
        attempt,
        plan,
    ) = task
    if plan is not None:
        plan.apply_execution(name, config_name, attempt)
    from repro.evaluation.profile import profile_benchmark
    from repro.evaluation.report import render_profile
    from repro.telemetry import telemetry_trace_events

    profile = profile_benchmark(
        name,
        scale,
        machine,
        config_name,
        version=version,
        mechanism=mechanism,
        interval=interval,
    )
    return {
        "benchmark": name,
        "version": profile.version,
        "config": config_name,
        "interval": interval,
        "result": to_plain(profile.result),
        "regions": to_plain(profile.regions),
        "consistent": profile.consistent(),
        "rendered": render_profile(profile),
        "trace_events": telemetry_trace_events(
            profile.telemetry, label=f"{name}/{profile.version}"
        ),
    }


# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CellSpec:
    """One content-addressed unit of service work.

    ``kind`` is the run-store payload kind (``cell``, ``table2``,
    ``locality``, ``profile``); ``needs_codes`` marks the kinds whose
    store key embeds trace digests and whose worker task ships prepared
    (slimmed) codes — the others prepare inside the worker, keyed over
    benchmark × scale × machine alone (workload builders are
    deterministic, the same argument Table 2 keys rely on).
    """

    kind: str
    benchmark: str
    config: str
    scale: Scale
    machine: MachineParams
    mechanisms: tuple[str, ...] = ()
    classify_misses: bool = False
    extra_digests: tuple[str, ...] = ()
    needs_codes: bool = False

    # -- keys ----------------------------------------------------------

    def store_key(self, store: RunStore, digests: Iterable[str] = ()) -> str:
        return store.cell_key(
            self.kind,
            self.benchmark,
            self.config,
            scale=self.scale,
            machine=self.machine,
            mechanisms=self.mechanisms,
            classify_misses=self.classify_misses,
            digests=tuple(digests) + self.extra_digests,
        )

    def store_meta(self) -> dict:
        return {
            "kind": self.kind,
            "benchmark": self.benchmark,
            "config": self.config,
            "scale": self.scale.name,
        }

    # -- execution -----------------------------------------------------

    def worker(self, codes=None):
        """(fn, make_task) for :func:`repro.core.parallel.execute_cell`.

        ``codes`` (slimmed :class:`BenchmarkCodes`) is required exactly
        when ``needs_codes`` is true.
        """
        if self.kind == "cell":
            if codes is None:
                raise ValueError("cell kind requires prepared codes")
            return _run_cell, task_factory(
                codes,
                self.machine,
                self.mechanisms,
                self.classify_misses,
                self.config,
            )
        if self.kind == "table2":
            return _table2_cell, task_factory(
                self.benchmark, self.scale, self.machine
            )
        if self.kind == "locality":
            return _locality_cell, task_factory(
                self.benchmark, self.scale, self.machine, DEFAULT_MISS_FLOOR
            )
        if self.kind == "profile":
            return _profile_cell, task_factory(
                self.benchmark,
                self.scale,
                self.machine,
                self.config,
                *self._profile_identity(),
            )
        raise ValueError(f"unknown cell kind {self.kind!r}")

    def _profile_identity(self) -> tuple[str, str, int]:
        identity = dict(
            field.split("=", 1) for field in self.extra_digests
        )
        return (
            identity["version"],
            identity["mechanism"],
            int(identity["interval"]),
        )

    # -- warm-hit validation ------------------------------------------

    def payload_valid(self, payload: Any) -> bool:
        """Whether a store payload is a trustworthy warm hit."""
        if payload is None:
            return False
        if self.kind == "cell":
            return isinstance(payload, BenchmarkRun) and list(
                payload.results
            ) == expected_version_keys(self.mechanisms)
        if self.kind == "table2":
            return (
                isinstance(payload, Table2Row)
                and payload.benchmark == self.benchmark
            )
        if self.kind == "locality":
            return (
                isinstance(payload, LocalityRow)
                and payload.benchmark == self.benchmark
            )
        if self.kind == "profile":
            return (
                isinstance(payload, dict)
                and payload.get("benchmark") == self.benchmark
                and "result" in payload
                and "trace_events" in payload
            )
        return False

    # -- serialization -------------------------------------------------

    def payload_json(self, payload: Any) -> dict:
        if self.kind == "cell":
            return run_to_json(payload)
        if self.kind in ("table2", "locality"):
            return to_plain(payload)
        if self.kind == "profile":
            return {
                key: value
                for key, value in payload.items()
                if key != "trace_events"
            }
        raise ValueError(f"unknown cell kind {self.kind!r}")


@dataclass(frozen=True)
class JobRequest:
    """A validated, decomposed ``POST /v1/jobs`` body."""

    kind: str
    specs: tuple[CellSpec, ...]
    params: dict  # sanitized echo for the job document


def is_integer(value) -> bool:
    """A JSON integer.  ``bool`` is an ``int`` subclass, so a JSON
    ``true`` would pass a bare ``isinstance(value, int)``."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A JSON number (integer or float), never a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_names(value, fallback: list[str], what: str) -> list[str]:
    if value is None:
        return list(fallback)
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, list) or not value:
        raise ValueError(f"{what} must be a non-empty list of names")
    return [str(name) for name in value]


def _benchmarks(body: dict) -> list[str]:
    names = _as_names(
        body.get("benchmarks", body.get("benchmark")),
        [spec.name for spec in all_specs()],
        "benchmarks",
    )
    for name in names:
        try:
            get_spec(name)
        except KeyError:
            raise ValueError(f"unknown benchmark {name!r}") from None
    return names


def _configs(body: dict, fallback: list[str]) -> list[str]:
    names = _as_names(
        body.get("configs", body.get("config")), fallback, "configs"
    )
    for name in names:
        if name not in SENSITIVITY_CONFIGS:
            raise ValueError(
                f"unknown config {name!r}; expected one of "
                f"{list(SENSITIVITY_CONFIGS)}"
            )
    return names


def _mechanisms(body: dict) -> tuple[str, ...]:
    value = body.get("mechanisms")
    if value is None:
        return MECHANISMS
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, list) or not value:
        raise ValueError("mechanisms must be a non-empty list")
    for mechanism in value:
        if mechanism not in _KNOWN_MECHANISMS:
            raise ValueError(
                f"unknown mechanism {mechanism!r}; expected one of "
                f"{_KNOWN_MECHANISMS}"
            )
    return tuple(value)


def decompose(body: dict, default_scale: Scale) -> JobRequest:
    """Validate a job request and expand it into cell specs.

    Raises ``ValueError`` with a client-facing message on any invalid
    field (the server answers 400).
    """
    if not isinstance(body, dict):
        raise ValueError("request body must be a JSON object")
    kind = body.get("kind")
    if kind not in JOB_KINDS:
        raise ValueError(
            f"kind must be one of {list(JOB_KINDS)}, got {kind!r}"
        )
    scale_name = body.get("scale", default_scale.name)
    if scale_name not in SCALES:
        raise ValueError(
            f"unknown scale {scale_name!r}; expected one of {list(SCALES)}"
        )
    scale = SCALES[scale_name]

    params: dict = {"kind": kind, "scale": scale.name}
    specs: list[CellSpec] = []

    if kind in ("simulate", "sweep"):
        if kind == "simulate" and "benchmark" not in body and (
            "benchmarks" not in body
        ):
            raise ValueError("simulate requires a benchmark")
        benchmarks = _benchmarks(body)
        fallback = (
            ["Base Confg."] if kind == "simulate"
            else list(SENSITIVITY_CONFIGS)
        )
        configs = _configs(body, fallback)
        mechanisms = _mechanisms(body)
        classify = bool(body.get("classify_misses", False))
        params.update(
            benchmarks=benchmarks,
            configs=configs,
            mechanisms=list(mechanisms),
            classify_misses=classify,
        )
        for benchmark in benchmarks:
            for config in configs:
                machine = MACHINES[config, scale.name]
                specs.append(
                    CellSpec(
                        kind="cell",
                        benchmark=benchmark,
                        config=config,
                        scale=scale,
                        machine=machine,
                        mechanisms=mechanisms,
                        classify_misses=classify,
                        needs_codes=True,
                    )
                )
    elif kind in ("table2", "locality"):
        benchmarks = _benchmarks(body)
        machine = MACHINES["Base Confg.", scale.name]
        params.update(benchmarks=benchmarks, config=machine.name)
        for benchmark in benchmarks:
            specs.append(
                CellSpec(
                    kind=kind,
                    benchmark=benchmark,
                    config=machine.name,
                    scale=scale,
                    machine=machine,
                    classify_misses=kind == "table2",
                )
            )
    elif kind == "profile":
        if "benchmark" not in body:
            raise ValueError("profile requires a benchmark")
        benchmark = _benchmarks({"benchmark": body["benchmark"]})[0]
        config = _configs(body, ["Base Confg."])[0]
        version = body.get("version", "selective")
        if version not in _PROFILE_VERSIONS:
            raise ValueError(
                f"unknown version {version!r}; expected one of "
                f"{_PROFILE_VERSIONS}"
            )
        mechanism = body.get("mechanism", "bypass")
        if mechanism not in _KNOWN_MECHANISMS:
            raise ValueError(f"unknown mechanism {mechanism!r}")
        interval = body.get("interval", 1000)
        if not is_integer(interval) or interval < 0:
            raise ValueError(f"interval must be an integer >= 0, got {interval!r}")
        machine = MACHINES[config, scale.name]
        params.update(
            benchmark=benchmark,
            config=config,
            version=version,
            mechanism=mechanism,
            interval=interval,
        )
        specs.append(
            CellSpec(
                kind="profile",
                benchmark=benchmark,
                config=config,
                scale=scale,
                machine=machine,
                mechanisms=(mechanism,),
                extra_digests=(
                    f"version={version}",
                    f"mechanism={mechanism}",
                    f"interval={interval}",
                ),
            )
        )
    return JobRequest(kind=kind, specs=tuple(specs), params=params)


def aggregate_result(
    kind: str,
    specs: Iterable[CellSpec],
    keys: Iterable[str],
    values: Iterable[Any],
) -> dict:
    """Fold resolved cell payloads into the job's result document.

    Deterministic: depends only on the request and the cell payloads
    (no timestamps, job ids, or wall-clock durations), so identical
    requests produce byte-identical ``canonical_json`` documents.
    """
    specs = list(specs)
    keys = list(keys)
    values = list(values)
    failures = [
        failure_to_json(value)
        for value in values
        if isinstance(value, CellFailure)
    ]
    document: dict = {"kind": kind, "failures": failures}

    if kind in ("simulate", "sweep"):
        cells = []
        sweeps: dict[str, SweepResult] = {}
        for spec, key, value in zip(specs, keys, values):
            if isinstance(value, CellFailure):
                continue
            cells.append(
                {
                    "benchmark": spec.benchmark,
                    "config": spec.config,
                    "key": key,
                    "run": run_to_json(value),
                }
            )
            sweeps.setdefault(
                spec.config, SweepResult(spec.machine.name)
            ).runs[spec.benchmark] = value
        document["cells"] = cells
        summary = {}
        for config, sweep in sweeps.items():
            if not sweep.runs:
                continue
            summary[config] = {
                column: sweep.average_improvement(version_key)
                for column, version_key in TABLE3_COLUMNS.items()
                if all(
                    version_key in run.results
                    for run in sweep.runs.values()
                )
            }
        document["summary"] = summary
    elif kind in ("table2", "locality"):
        document["rows"] = [
            spec.payload_json(value)
            for spec, value in zip(specs, values)
            if not isinstance(value, CellFailure)
        ]
    elif kind == "profile":
        document["profile"] = (
            specs[0].payload_json(values[0])
            if values and not isinstance(values[0], CellFailure)
            else None
        )
    return document
