"""End-to-end service tests over a live asyncio server.

One module-scoped server runs against a store pre-warmed by the
*offline* runner (``run_suite`` with ``store=``), so the central
claims are testable directly:

* warm cells are served from the store without ever invoking the
  scheduler (pinned by monkeypatching the scheduler to explode);
* service responses are byte-identical to what the offline runner
  computed for the same store keys;
* duplicate in-flight requests coalesce onto one execution;
* an injected worker kill degrades to a structured failed job while
  the server keeps serving.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.runner import run_suite
from repro.core.runstore import RunStore
from repro.params import SENSITIVITY_CONFIGS
from repro.service import (
    BackgroundServer,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service import server as server_module
from repro.workloads.base import TINY

WARM_BENCHMARK = "vpenta"
MECHANISMS = ("bypass",)


@pytest.fixture(scope="module")
def offline(tmp_path_factory):
    """Run the offline sweep for one cell, checkpointing to a store."""
    root = tmp_path_factory.mktemp("service-store")
    suite = run_suite(
        TINY,
        benchmarks=[WARM_BENCHMARK],
        configs={"Base Confg.": SENSITIVITY_CONFIGS["Base Confg."]},
        mechanisms=MECHANISMS,
        store=RunStore(root),
    )
    return root, suite.sweeps["Base Confg."].runs[WARM_BENCHMARK]


@pytest.fixture(scope="module")
def server(offline):
    root, _ = offline
    config = ServiceConfig(store=root, jobs=2, scale=TINY)
    with BackgroundServer(config) as background:
        yield background


@pytest.fixture
def client(server):
    return ServiceClient("127.0.0.1", server.port)


def _simulate_body(benchmark: str) -> dict:
    return {
        "kind": "simulate",
        "benchmark": benchmark,
        "mechanisms": list(MECHANISMS),
    }


class TestWarmPath:
    def test_offline_cells_served_without_scheduler(
        self, client, offline, monkeypatch
    ):
        def explode(*args, **kwargs):
            raise AssertionError(
                "scheduler invoked for a warm cell"
            )  # pragma: no cover

        monkeypatch.setattr(server_module, "execute_cell", explode)
        before = client.metrics()
        job = client.run(_simulate_body(WARM_BENCHMARK), timeout=120)
        after = client.metrics()
        assert job["state"] == "done"
        (cell,) = job["cells"]
        assert cell["source"] == "store"
        assert (
            after["scheduler_executions"] == before["scheduler_executions"]
        )
        assert after["warm_hits"] == before["warm_hits"] + 1

    def test_response_matches_offline_run_exactly(self, client, offline):
        root, offline_run = offline
        job = client.run(_simulate_body(WARM_BENCHMARK), timeout=120)
        result = client.result(job["id"])
        (cell,) = result["cells"]
        assert cell["key"] in RunStore(root).keys()
        for key, offline_result in offline_run.results.items():
            assert cell["run"]["results"][key] == dataclasses.asdict(
                offline_result
            )

    def test_repeat_requests_are_byte_identical(self, client):
        first = client.run(_simulate_body(WARM_BENCHMARK), timeout=120)
        second = client.run(_simulate_body(WARM_BENCHMARK), timeout=120)
        assert client.result_bytes(first["id"]) == client.result_bytes(
            second["id"]
        )


class TestColdAndCoalescing:
    def test_duplicate_cold_requests_single_flight(self, client):
        body = _simulate_body("adi")
        before = client.metrics()
        first = client.submit(body)
        second = client.submit(body)
        done_first = client.wait(first["id"], timeout=240)
        done_second = client.wait(second["id"], timeout=240)
        after = client.metrics()
        assert done_first["state"] == done_second["state"] == "done"
        # exactly ONE scheduler execution served both requests
        assert (
            after["scheduler_executions"]
            == before["scheduler_executions"] + 1
        )
        assert after["coalesced"] == before["coalesced"] + 1
        cold_bytes = client.result_bytes(first["id"])
        assert client.result_bytes(second["id"]) == cold_bytes
        # The same request once stored: served warm, byte-identical.
        warm = client.run(body, timeout=120)
        assert client.result_bytes(warm["id"]) == cold_bytes
        assert (
            client.metrics()["scheduler_executions"]
            == after["scheduler_executions"]
        )

    def test_cold_result_now_warm_in_store(self, client):
        job = client.run(_simulate_body("adi"), timeout=120)
        (cell,) = job["cells"]
        assert cell["source"] == "store"


class TestFaultInjection:
    def test_killed_worker_degrades_to_structured_failure(self, client):
        body = _simulate_body("swim")
        body["faults"] = "exit:swim:*"
        body["retries"] = 1
        job = client.run(body, timeout=240)
        assert job["state"] == "failed"
        (cell,) = job["cells"]
        assert cell["state"] == "failed"
        assert "exit code 23" in cell["message"]
        result = client.result(job["id"])
        (failure,) = result["failures"]
        assert failure["kind"] == "crash"
        assert failure["attempts"] == 2
        # the server is not wedged: it still answers everything
        assert client.status()["jobs"]["total"] >= 1
        follow_up = client.run(_simulate_body(WARM_BENCHMARK), timeout=120)
        assert follow_up["state"] == "done"

    def test_fault_recovered_within_retries(self, client):
        body = _simulate_body("swim")
        body["faults"] = "raise:swim:*:1"  # only attempt 0 sabotaged
        job = client.run(body, timeout=240)
        assert job["state"] == "done"
        attempts = [
            event
            for event in client.job(job["id"])["cells"]
        ]
        assert attempts[0]["attempts"] == 2


class TestEndpoints:
    def test_status_surfaces_store_stats(self, client):
        status = client.status()
        assert status["store"]["entries"] >= 1
        assert status["store"]["by_kind"]["cell"]["entries"] >= 1
        assert status["service"]["workers"] == 2
        assert status["service"]["scale"] == "tiny"

    def test_cells_listing_matches_store(self, client, offline):
        root, _ = offline
        listed = {cell["key"] for cell in client.cells()}
        assert set(RunStore(root).keys()) == listed

    def test_event_stream_replays_and_terminates(self, client):
        job = client.run(_simulate_body(WARM_BENCHMARK), timeout=120)
        events = list(client.events(job["id"]))
        assert events[0]["seq"] == 0
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert events[-1]["event"] == "job"
        assert events[-1]["state"] == "done"
        assert any(e["event"] == "cell" for e in events)

    def test_trace_artifact_is_a_chrome_trace(self, client):
        from repro.telemetry import validate_trace

        job = client.run(_simulate_body(WARM_BENCHMARK), timeout=120)
        trace = client.trace(job["id"])
        summary = validate_trace(trace)  # raises on malformed traces
        assert summary["events"] == len(trace["traceEvents"])
        assert trace["otherData"]["kind"] == "simulate"

    def test_profile_job_returns_telemetry_trace(self, client):
        job = client.run(
            {"kind": "profile", "benchmark": WARM_BENCHMARK}, timeout=240
        )
        assert job["state"] == "done"
        result = client.result(job["id"])
        assert result["profile"]["consistent"] is True
        assert "trace_events" not in result["profile"]
        trace = client.trace(job["id"])
        assert len(trace["traceEvents"]) > 0

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-999999")
        assert excinfo.value.status == 404

    def test_bad_body_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"kind": "simulate", "benchmark": "nope"})
        assert excinfo.value.status == 400
        status, _, _ = client.request("POST", "/v1/jobs", None)
        assert status == 400  # empty body is not a valid job

    def test_unrouted_path_is_404(self, client):
        status, _, raw = client.request("GET", "/v2/everything")
        assert status == 404
        assert b"no route" in raw

    def test_jobs_listing_contains_submitted_jobs(self, client):
        job = client.run(_simulate_body(WARM_BENCHMARK), timeout=120)
        listing = client.get("/v1/jobs")["jobs"]
        assert job["id"] in {entry["id"] for entry in listing}

    def test_per_request_jobs_override_validated(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({**_simulate_body(WARM_BENCHMARK), "jobs": 0})
        assert excinfo.value.status == 400
        job = client.run(
            {**_simulate_body(WARM_BENCHMARK), "jobs": 1}, timeout=120
        )
        assert job["state"] == "done"


    def test_booleans_are_not_numbers(self, client):
        """JSON ``true`` is an ``int`` to Python, not a number to the
        API: a boolean interval or option is a 400 at submission, not a
        cell that fails in the worker."""
        profile = {"kind": "profile", "benchmark": "tpcd_q3"}
        for body in (
            {**profile, "interval": True},
            {**_simulate_body(WARM_BENCHMARK), "jobs": True},
            {**_simulate_body(WARM_BENCHMARK), "retries": False},
            {**_simulate_body(WARM_BENCHMARK), "timeout": True},
            {**_simulate_body(WARM_BENCHMARK), "deadline": True},
        ):
            with pytest.raises(ServiceError) as excinfo:
                client.submit(body)
            assert excinfo.value.status == 400, body
        for body in (
            {"benchmark": WARM_BENCHMARK, "threshold": True},
            {"benchmark": WARM_BENCHMARK, "miss_floor": False},
        ):
            with pytest.raises(ServiceError) as excinfo:
                client.post("/v1/predict", body)
            assert excinfo.value.status == 400, body


class TestPredictEndpoint:
    def test_predict_answers_synchronously(self, client):
        payload = client.predict(WARM_BENCHMARK)
        assert payload["benchmark"] == WARM_BENCHMARK
        assert payload["scale"] == "tiny"  # service default
        assert 0.0 <= payload["miss_ratio"] <= 1.0
        assert payload["regions"]
        assert payload["mrc"]
        # no job was created for it
        listing = client.get("/v1/jobs")["jobs"]
        assert all(entry["kind"] != "predict" for entry in listing)

    def test_repeat_predictions_cached_and_identical(self, client):
        before = client.metrics()["predicts"]
        first = client.predict(WARM_BENCHMARK, miss_floor=0.3)
        second = client.predict(WARM_BENCHMARK, miss_floor=0.3)
        after = client.metrics()["predicts"]
        assert first == second
        assert after == before + 1  # one model build served both

    def test_predict_validation_is_400(self, client):
        for body in (
            {},
            {"benchmark": "nosuch"},
            {"benchmark": WARM_BENCHMARK, "scale": "galactic"},
            {"benchmark": WARM_BENCHMARK, "miss_floor": 2.0},
            {"benchmark": WARM_BENCHMARK, "threshold": "high"},
        ):
            with pytest.raises(ServiceError) as excinfo:
                client.post("/v1/predict", body)
            assert excinfo.value.status == 400

    def test_predict_miss_floor_threads_through(self, client):
        strict = client.predict(WARM_BENCHMARK, miss_floor=1.0)
        assert strict["model_on_regions"] == 0
        assert strict["threshold"] >= 1.0
