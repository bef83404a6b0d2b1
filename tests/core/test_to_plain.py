"""``to_plain`` against the standard library's ``dataclasses.asdict``.

Result documents, ``repro locality --json`` and store keys all turn
dataclasses into plain dicts with :func:`repro.core.runstore.to_plain`.
It must equal ``asdict`` — the same values and the same key order —
on every kind of payload the run store holds and on every machine a
key hashes; and store keys must stay what they were, or every existing
store goes cold.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.core.experiment import run_benchmark
from repro.core.runstore import RunStore, to_plain
from repro.core.versions import prepare_codes
from repro.evaluation.locality import locality_row
from repro.evaluation.profile import profile_benchmark
from repro.evaluation.table2 import _characterize
from repro.params import SENSITIVITY_CONFIGS, base_config
from repro.service.cells import CellSpec, run_to_json
from repro.workloads.base import MEDIUM, SMALL, TINY
from repro.workloads.registry import get_spec

BENCHMARK = "tpcd_q3"
SCALES = (TINY, SMALL, MEDIUM)


def assert_same_as_asdict(value) -> None:
    oracle = (
        [dataclasses.asdict(item) for item in value]
        if isinstance(value, list)
        else dataclasses.asdict(value)
    )
    plain = to_plain(value)
    assert plain == oracle
    # Same key order too: ``locality --json`` prints unsorted keys.
    assert json.dumps(plain) == json.dumps(oracle)


@pytest.fixture(scope="module")
def machine():
    return base_config().scaled(TINY.machine_divisor)


@pytest.fixture(scope="module")
def codes(machine):
    return prepare_codes(get_spec(BENCHMARK), TINY, machine)


class TestSameAsAsdict:
    @pytest.mark.parametrize("classify", [False, True])
    def test_benchmark_run_results(self, codes, machine, classify):
        run = run_benchmark(
            codes, machine, ("bypass", "victim", "prefetch"), classify
        )
        for result in run.results.values():
            assert_same_as_asdict(result)
        document = run_to_json(run)
        assert document["results"] == {
            key: dataclasses.asdict(result)
            for key, result in run.results.items()
        }

    def test_table2_and_locality_rows(self, machine):
        rows = {
            "table2": _characterize(BENCHMARK, TINY, machine),
            "locality": locality_row(get_spec(BENCHMARK), TINY, machine),
        }
        for kind, row in rows.items():
            assert_same_as_asdict(row)
            spec = CellSpec(
                kind=kind,
                benchmark=BENCHMARK,
                config=machine.name,
                scale=TINY,
                machine=machine,
            )
            assert spec.payload_json(row) == dataclasses.asdict(row)

    def test_profile_result_and_regions(self, machine):
        profile = profile_benchmark(
            BENCHMARK, TINY, machine, "Base Confg.", interval=1000
        )
        assert profile.regions
        assert_same_as_asdict(profile.result)
        assert_same_as_asdict(profile.regions)

    @pytest.mark.parametrize("scale", SCALES, ids=lambda s: s.name)
    def test_every_machine_and_scale(self, scale):
        assert_same_as_asdict(scale)
        for make in SENSITIVITY_CONFIGS.values():
            assert_same_as_asdict(make().scaled(scale.machine_divisor))

    def test_containers_are_rebuilt(self):
        row = {"a": [1, (2.5, "x")], 3: None}
        plain = to_plain(row)
        assert plain == row and plain is not row
        assert plain["a"] is not row["a"]
        assert plain["a"][1] == (2.5, "x")


DIGESTS = ("digest-base", "digest-optimized", "digest-selective")


def _key(store, kind, benchmark, config, scale, mechanisms, classify,
         digests):
    return store.cell_key(
        kind,
        benchmark,
        config,
        scale=scale,
        machine=SENSITIVITY_CONFIGS[config]().scaled(scale.machine_divisor),
        mechanisms=mechanisms,
        classify_misses=classify,
        digests=digests,
    )


class TestPinnedKeys:
    """Keys computed by the ``asdict`` implementation, pinned as
    literals: a change to the key JSON must fail here, since it would
    turn every stored cell cold."""

    def test_single_keys(self, tmp_path):
        store = RunStore(tmp_path)
        assert _key(
            store, "cell", "vpenta", "Base Confg.", TINY, ("bypass",),
            False, DIGESTS,
        ) == "cell-vpenta-Base_Confg-06159b1df23f738cf62cb2b8a678a751"
        assert _key(
            store, "cell", "compress", "Higher L1 Asc.", SMALL, ("victim",),
            False, DIGESTS,
        ) == "cell-compress-Higher_L1_Asc-fac23d008ea6687dfe6abeab47a8ae39"

    def test_every_kind_scale_and_config(self, tmp_path):
        store = RunStore(tmp_path)
        identities = (
            ("cell", ("bypass", "victim"), False, DIGESTS),
            ("cell", ("prefetch",), True, DIGESTS),
            ("table2", (), True, ()),
            ("locality", (), False, ()),
            (
                "profile",
                ("bypass",),
                False,
                ("version=selective", "mechanism=bypass", "interval=1000"),
            ),
        )
        keys = [
            _key(store, kind, BENCHMARK, config, scale, mechanisms,
                 classify, digests)
            for scale in SCALES
            for config in SENSITIVITY_CONFIGS
            for kind, mechanisms, classify, digests in identities
        ]
        assert len(set(keys)) == 90
        assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == (
            "baf3a2de98593f24a9516d54b8dbeb4917dc7dcf35e56d3993a0e39bc6a30b87"
        )
