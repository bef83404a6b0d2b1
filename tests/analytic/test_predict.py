"""The prediction entry points: payload, CLI, service, and policy knob.

``predict_benchmark`` is the one-call JSON packaging of the analytic
subsystem; ``repro predict`` and ``POST /v1/predict`` are thin shells
around it.  The miss-floor policy parameter rides the same interfaces,
so its validation and threading are covered here too.
"""

import json

import numpy as np
import pytest

from repro.analytic.predict import predict_benchmark
from repro.cli import main
from repro.hwopt.policy import DEFAULT_MISS_FLOOR, compare_policies
from repro.locality.mrc import DistanceHistogram
from repro.locality.profile import LocalityProfile, RegionProfile
from repro.workloads.base import TINY


@pytest.fixture(scope="module")
def payload():
    return predict_benchmark("tpcd_q1", TINY)


class TestPredictBenchmark:
    def test_payload_shape(self, payload):
        assert payload["benchmark"] == "tpcd_q1"
        assert payload["scale"] == "tiny"
        assert payload["cache_lines"] == 128
        assert payload["miss_floor"] == DEFAULT_MISS_FLOOR
        assert payload["memory_refs"] > 0
        assert 0.0 <= payload["miss_ratio"] <= 1.0
        assert payload["regions"]
        for region in payload["regions"]:
            assert set(region) == {
                "index", "compiler_on", "model_on",
                "miss_ratio", "memory_refs",
            }
        assert payload["elapsed_ms"] > 0
        json.dumps(payload)  # JSON-clean end to end

    def test_mrc_is_sampled_and_monotone(self, payload):
        points = payload["mrc"]
        sizes = [size for size, _ in points]
        ratios = [ratio for _, ratio in points]
        assert sizes == sorted(sizes)
        assert payload["cache_lines"] in sizes
        for earlier, later in zip(ratios, ratios[1:]):
            assert later <= earlier + 1e-12
        # The curve bottoms out: the top sample holds every distance.
        assert ratios[-1] <= ratios[0]

    def test_unknown_benchmark_raises_key_error(self):
        with pytest.raises(KeyError):
            predict_benchmark("nosuch", TINY)

    def test_bad_miss_floor_rejected(self):
        with pytest.raises(ValueError):
            predict_benchmark("perl", TINY, miss_floor=1.5)

    def test_floor_one_gates_everything_off(self):
        strict = predict_benchmark("perl", TINY, miss_floor=1.0)
        assert strict["model_on_regions"] == 0


class TestPolicyMissFloor:
    def _profile(self, miss_ratio_region):
        # 10 refs at distance 1000 (misses at 128) per miss unit.
        misses = int(miss_ratio_region * 100)
        distances = np.array([1000] * misses + [0] * (100 - misses))
        region = RegionProfile(0, True, 0, DistanceHistogram.of(distances))
        return LocalityProfile("synthetic", 32, [region])

    def test_floor_masks_low_miss_regions(self):
        profile = self._profile(0.15)
        default = compare_policies(profile, 128)
        assert not default.recommendations[0].model_on
        lenient = compare_policies(profile, 128, miss_floor=0.1)
        assert lenient.recommendations[0].model_on

    def test_floor_validation(self):
        profile = self._profile(0.5)
        with pytest.raises(ValueError):
            compare_policies(profile, 128, miss_floor=-0.1)
        with pytest.raises(ValueError):
            compare_policies(profile, 128, miss_floor=1.01)

    def test_explicit_threshold_ignores_floor(self):
        profile = self._profile(0.15)
        comparison = compare_policies(
            profile, 128, threshold=0.05, miss_floor=0.9
        )
        assert comparison.threshold == 0.05
        assert comparison.recommendations[0].model_on


class TestPredictCLI:
    def test_single_benchmark_emits_object(self, capsys):
        assert main(["--scale", "tiny", "predict", "tpcd_q1"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["benchmark"] == "tpcd_q1"
        assert document["tilings"] is not None

    def test_multiple_benchmarks_emit_array(self, capsys):
        assert main(
            ["--scale", "tiny", "predict", "perl", "swim"]
        ) == 0
        documents = json.loads(capsys.readouterr().out)
        assert [d["benchmark"] for d in documents] == ["perl", "swim"]

    def test_miss_floor_flag_threads_through(self, capsys):
        assert main(
            [
                "--scale", "tiny", "predict", "perl",
                "--miss-floor", "1.0",
            ]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["miss_floor"] == 1.0
        assert document["model_on_regions"] == 0

    def test_unknown_benchmark_exits_2(self, capsys):
        assert main(["--scale", "tiny", "predict", "nosuch"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestLocalityCLI:
    def test_json_output_is_parseable(self, capsys):
        assert main(
            ["--scale", "tiny", "locality", "tpcd_q1", "--json"]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["benchmark"] == "tpcd_q1"
        assert rows[0]["memory_refs"] > 0

    def test_miss_floor_changes_the_policy(self, capsys):
        assert main(
            [
                "--scale", "tiny", "locality", "tpcd_q1", "--json",
                "--miss-floor", "0.99",
            ]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["model_on_regions"] == 0

    def test_bad_miss_floor_exits_2(self, capsys):
        assert main(
            [
                "--scale", "tiny", "locality", "tpcd_q1",
                "--miss-floor", "2.0",
            ]
        ) == 2
        assert "miss_floor" in capsys.readouterr().err
