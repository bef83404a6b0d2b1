"""The verdict of ``tools/perf_budget.py`` on canned perfbench reports."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "perf_budget.py"
_spec = importlib.util.spec_from_file_location("perf_budget", SCRIPT)
perf_budget = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_budget)


def _report(lines: dict[str, str], failed: int = 0) -> str:
    """Report text as perfbench prints it: named lines, result line last."""
    body = [
        "host: nproc=2 python=3.11.7 numpy=1.26.4 seed=1",
        f"errors_pct                         0.0000 %   "
        f"({failed} of 12 operations failed)",
    ]
    body += [f"{name:<28} {value}" for name, value in lines.items()]
    body.append(
        json.dumps(
            {"correct": failed == 0, "attempted": 12, "failed": failed,
             "metrics": {}},
            sort_keys=True,
        )
    )
    return "\n".join(body) + "\n"


COLD = {"setup_s": "      1.2000 s", "cold_cell_p50_s": "      0.2790 s"}
WARM = {"warm_req_p50_ms": "      5.0000 ms",
        "predict_p50_ms": "      1.1400 ms   (n=30)"}


def test_within_budget():
    ok, summary = perf_budget.verdict(_report(COLD), _report(WARM))
    assert ok, summary
    assert "244.7x" in summary


def test_exactly_at_budget_passes():
    warm = dict(WARM, predict_p50_ms="      2.7900 ms")
    ok, summary = perf_budget.verdict(_report(COLD), _report(warm))
    assert ok, summary


def test_under_budget_fails():
    warm = dict(WARM, predict_p50_ms="      2.8000 ms")
    ok, summary = perf_budget.verdict(_report(COLD), _report(warm))
    assert not ok
    assert "BELOW BUDGET" in summary


def test_missing_metric_line_fails():
    warm = {"warm_req_p50_ms": WARM["warm_req_p50_ms"]}
    ok, summary = perf_budget.verdict(_report(COLD), _report(warm))
    assert not ok
    assert "predict_p50_ms" in summary
    ok, summary = perf_budget.verdict(_report({}), _report(WARM))
    assert not ok
    assert "cold_cell_p50_s" in summary


def test_failed_operations_fail():
    ok, summary = perf_budget.verdict(_report(COLD, failed=1), _report(WARM))
    assert not ok
    assert "service_cold" in summary
    ok, summary = perf_budget.verdict(_report(COLD), _report(WARM, failed=2))
    assert not ok
    assert "service_warm" in summary


def test_missing_result_line_fails():
    ok, _ = perf_budget.verdict("Traceback (most recent call last):\n", "")
    assert not ok


def test_uncached_leg_is_reported_not_gated():
    ok, summary = perf_budget.verdict(
        _report(COLD), _report(WARM), uncached_ms=27.9
    )
    assert ok, summary
    assert summary.endswith(
        "; uncached predict 27.900 ms -> 10.0x (reported, not gated)"
    )
    warm = dict(WARM, predict_p50_ms="      2.8000 ms")
    ok, summary = perf_budget.verdict(
        _report(COLD), _report(warm), uncached_ms=0.1
    )
    assert not ok
    assert "BELOW BUDGET" in summary


def test_uncached_predict_times_the_model(monkeypatch):
    import repro.analytic.predict as predict

    calls = []

    def fake(benchmark, scale):
        calls.append((benchmark, scale.name))

    monkeypatch.setattr(predict, "predict_benchmark", fake)
    assert perf_budget.uncached_predict_ms() >= 0.0
    assert calls == [("vpenta", "tiny")] * 3
