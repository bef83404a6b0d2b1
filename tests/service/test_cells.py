"""Request decomposition and canonical serialization (no HTTP)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.parallel import CellFailure
from repro.core.runstore import RunStore
from repro.params import SENSITIVITY_CONFIGS, base_config
from repro.service.cells import (
    MACHINES,
    SCALES,
    aggregate_result,
    canonical_json,
    decompose,
    failure_to_json,
)
from repro.workloads.base import TINY
from repro.workloads.registry import all_specs


class TestDecompose:
    def test_simulate_defaults_to_one_base_cell(self):
        request = decompose(
            {"kind": "simulate", "benchmark": "vpenta"}, TINY
        )
        (spec,) = request.specs
        assert spec.kind == "cell"
        assert spec.benchmark == "vpenta"
        assert spec.config == "Base Confg."
        assert spec.needs_codes
        assert spec.scale is TINY

    def test_sweep_defaults_to_full_grid(self):
        request = decompose({"kind": "sweep"}, TINY)
        assert len(request.specs) == len(all_specs()) * len(
            SENSITIVITY_CONFIGS
        )

    def test_machines_are_scaled(self):
        request = decompose(
            {"kind": "simulate", "benchmark": "vpenta"}, TINY
        )
        expected = SENSITIVITY_CONFIGS["Base Confg."]().scaled(
            TINY.machine_divisor
        )
        assert request.specs[0].machine == expected

    def test_table2_and_locality_prepare_in_worker(self):
        for kind in ("table2", "locality"):
            request = decompose(
                {"kind": kind, "benchmarks": ["vpenta", "adi"]}, TINY
            )
            assert [spec.benchmark for spec in request.specs] == [
                "vpenta",
                "adi",
            ]
            assert not any(spec.needs_codes for spec in request.specs)

    def test_profile_identity_lands_in_extra_digests(self):
        request = decompose(
            {
                "kind": "profile",
                "benchmark": "vpenta",
                "version": "combined",
                "mechanism": "victim",
                "interval": 500,
            },
            TINY,
        )
        (spec,) = request.specs
        assert spec.extra_digests == (
            "version=combined",
            "mechanism=victim",
            "interval=500",
        )
        assert spec._profile_identity() == ("combined", "victim", 500)

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ({"kind": "nonesuch"}, "kind"),
            ({"kind": "simulate"}, "requires a benchmark"),
            ({"kind": "simulate", "benchmark": "nope"}, "unknown benchmark"),
            (
                {"kind": "simulate", "benchmark": "vpenta", "configs": ["?"]},
                "unknown config",
            ),
            (
                {
                    "kind": "simulate",
                    "benchmark": "vpenta",
                    "mechanisms": ["warp"],
                },
                "unknown mechanism",
            ),
            (
                {"kind": "simulate", "benchmark": "vpenta", "scale": "huge"},
                "unknown scale",
            ),
            ({"kind": "profile"}, "requires a benchmark"),
            (
                {
                    "kind": "profile",
                    "benchmark": "vpenta",
                    "version": "nope",
                },
                "unknown version",
            ),
            (
                {
                    "kind": "profile",
                    "benchmark": "vpenta",
                    "interval": -1,
                },
                "interval",
            ),
            ([], "JSON object"),
        ],
    )
    def test_invalid_bodies_rejected(self, body, fragment):
        with pytest.raises(ValueError, match=fragment):
            decompose(body, TINY)

    def test_scale_override_changes_keys(self, tmp_path):
        from repro.core.runstore import RunStore

        store = RunStore(tmp_path)
        tiny = decompose(
            {"kind": "table2", "benchmarks": ["vpenta"]}, TINY
        ).specs[0]
        small = decompose(
            {
                "kind": "table2",
                "benchmarks": ["vpenta"],
                "scale": "small",
            },
            TINY,
        ).specs[0]
        assert tiny.store_key(store) != small.store_key(store)


class TestSharedMachines:
    """Every request shares one scaled machine per (config, scale)."""

    @pytest.mark.parametrize("scale", SCALES.values(), ids=list(SCALES))
    def test_table_equals_fresh_scaling(self, scale):
        divisor = scale.machine_divisor
        for config, make in SENSITIVITY_CONFIGS.items():
            assert MACHINES[config, scale.name] == make().scaled(divisor)
        assert MACHINES["Base Confg.", scale.name] == (
            base_config().scaled(divisor)
        )
        assert len(MACHINES) == len(SENSITIVITY_CONFIGS) * len(SCALES)

    def test_shared_machines_are_frozen(self):
        machine = MACHINES["Base Confg.", "tiny"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            machine.mem_latency = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            machine.l1d.size = 1

    def test_decompose_hands_out_table_machines(self):
        sweep = decompose({"kind": "sweep", "scale": "small"}, TINY)
        for spec in sweep.specs:
            assert spec.machine is MACHINES[spec.config, "small"]
        for kind in ("table2", "locality"):
            (spec, *_) = decompose({"kind": kind}, TINY).specs
            assert spec.machine is MACHINES["Base Confg.", "tiny"]
        (spec,) = decompose(
            {"kind": "profile", "benchmark": "vpenta", "config": "Larger L1 Size"},
            TINY,
        ).specs
        assert spec.machine is MACHINES["Larger L1 Size", "tiny"]

    @pytest.mark.parametrize("scale", SCALES.values(), ids=list(SCALES))
    def test_keys_from_shared_and_fresh_machines_agree(self, tmp_path, scale):
        store = RunStore(tmp_path)
        for config, make in SENSITIVITY_CONFIGS.items():
            fresh = make().scaled(scale.machine_divisor)
            shared = MACHINES[config, scale.name]
            for machine in (shared, fresh, shared):
                assert store.cell_key(
                    "cell", "vpenta", config, scale=scale, machine=machine,
                    mechanisms=("bypass",), digests=("d",),
                ) == store.cell_key(
                    "cell", "vpenta", config, scale=scale, machine=fresh,
                    mechanisms=("bypass",), digests=("d",),
                )


class TestCanonicalJson:
    def test_sorted_compact_newline_terminated(self):
        raw = canonical_json({"b": 1, "a": [1, 2]})
        assert raw == b'{"a":[1,2],"b":1}\n'

    def test_key_order_never_leaks(self):
        assert canonical_json({"x": 1, "y": 2}) == canonical_json(
            {"y": 2, "x": 1}
        )


class TestAggregation:
    def test_failures_carry_no_wall_clock(self):
        failure = CellFailure(
            benchmark="vpenta",
            config="Base Confg.",
            kind="crash",
            attempts=3,
            message="worker died",
            duration=12.5,
        )
        doc = failure_to_json(failure)
        assert "duration" not in doc
        assert doc["attempts"] == 3

    def test_all_failed_sweep_has_empty_summary(self):
        request = decompose(
            {"kind": "simulate", "benchmark": "vpenta"}, TINY
        )
        failure = CellFailure(
            benchmark="vpenta",
            config="Base Confg.",
            kind="error",
            attempts=1,
            message="boom",
        )
        doc = aggregate_result(
            "simulate", request.specs, ["key"], [failure]
        )
        assert doc["cells"] == []
        assert doc["summary"] == {}
        assert len(doc["failures"]) == 1
