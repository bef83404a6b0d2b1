"""Resilience layer of the sweep service, over live servers.

Covers the production-hardening contract:

* admission control sheds structured 429s (with ``Retry-After``) at
  the pending high-water mark and per-client cap, while admitted jobs
  run to completion;
* ``DELETE /v1/jobs/{id}`` and per-job deadlines kill in-flight cell
  workers and finish the job ``cancelled``;
* graceful drain stops admission, cancels stragglers, and leaves no
  running jobs;
* a tripped circuit breaker serves warm store cells and sheds cold
  work until its half-open probe succeeds;
* ``/v1/healthz`` / ``/v1/readyz`` report liveness vs readiness;
* the client fails fast on non-transient 4xx instead of retrying.

Hang-faulted cells (worker sleeps for an hour) stand in for long
cold work; every test cancels them before the server is torn down, so
the kill path itself is what keeps the suite fast.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.service import (
    BackgroundServer,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.server import CircuitBreaker
from repro.workloads.base import TINY

WARM_BENCHMARK = "vpenta"


def _body(benchmark: str, **extra) -> dict:
    return {
        "kind": "simulate",
        "benchmark": benchmark,
        "mechanisms": ["bypass"],
        **extra,
    }


def _hang_body(**extra) -> dict:
    return _body("adi", faults="hang:*:*", **extra)


def _wait_state(client, job_id, predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        doc = client.job(job_id)
        if predicate(doc):
            return doc
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never reached the awaited state")


def _wait_cell_running(client, job_id):
    return _wait_state(
        client,
        job_id,
        lambda doc: doc["cell_counts"].get("running", 0) >= 1
        or doc["state"] in ("done", "failed", "cancelled"),
    )


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServiceConfig(
        store=tmp_path_factory.mktemp("resilience-store"),
        jobs=2,
        scale=TINY,
    )
    with BackgroundServer(config) as background:
        yield background


@pytest.fixture
def client(server):
    return ServiceClient("127.0.0.1", server.port)


class TestLifecycle:
    def test_delete_cancels_in_flight_job_and_kills_worker(self, client):
        job = client.submit(_hang_body())
        _wait_cell_running(client, job["id"])
        accepted = client.cancel(job["id"])
        assert accepted["id"] == job["id"]
        started = time.monotonic()
        final = client.wait(job["id"], timeout=60)
        assert final["state"] == "cancelled"
        assert final["cancel_reason"] == "cancelled by client request"
        # the hour-long hang died at the kill path, not the sleep
        assert time.monotonic() - started < 30.0
        assert final["cell_counts"].get("cancelled", 0) >= 1

    def test_cancelling_a_terminal_job_is_409(self, client):
        job = client.run(_body(WARM_BENCHMARK), timeout=120)
        with pytest.raises(ServiceError) as excinfo:
            client.cancel(job["id"])
        assert excinfo.value.status == 409

    def test_cancellation_is_visible_in_the_event_stream(self, client):
        job = client.submit(_hang_body())
        _wait_cell_running(client, job["id"])
        client.cancel(job["id"])
        client.wait(job["id"], timeout=60)
        events = list(client.events(job["id"]))
        states = [
            event.get("state")
            for event in events
            if event["event"] == "job"
        ]
        assert "cancelling" in states
        assert states[-1] == "cancelled"

    def test_deadline_auto_cancels(self, client):
        job = client.submit(_hang_body(deadline=1.0))
        final = client.wait(job["id"], timeout=60)
        assert final["state"] == "cancelled"
        assert "deadline" in final["cancel_reason"]

    def test_invalid_deadline_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit(_body(WARM_BENCHMARK, deadline=-1))
        assert excinfo.value.status == 400


class TestHealth:
    def test_healthz_is_alive(self, client):
        assert client.healthz() is True

    def test_readyz_reports_ready_with_breaker_state(self, client):
        ready, doc = client.readyz()
        assert ready is True
        assert doc["draining"] is False
        assert doc["breaker"]["state"] == "closed"

    def test_status_surfaces_admission_and_breaker(self, client):
        status = client.status()
        assert status["admission"]["high_water"] >= 1
        assert status["breaker"]["state"] in (
            "closed",
            "open",
            "half-open",
        )
        assert status["draining"] is False


class TestClientFailFast:
    def test_wait_on_missing_job_raises_immediately(self, client):
        started = time.monotonic()
        with pytest.raises(ServiceError) as excinfo:
            client.wait("job-999999", timeout=120)
        assert excinfo.value.status == 404
        # fail-fast: nowhere near the 120s wait budget
        assert time.monotonic() - started < 10.0


class TestAdmissionControl:
    def test_overload_sheds_429_while_admitted_jobs_complete(
        self, tmp_path
    ):
        config = ServiceConfig(
            store=tmp_path / "store",
            jobs=2,
            scale=TINY,
            max_pending=1,
            shed_retry_after=2.5,
        )
        with BackgroundServer(config) as background:
            client = ServiceClient("127.0.0.1", background.port)
            admitted = client.submit(_hang_body())
            with pytest.raises(ServiceError) as excinfo:
                client.submit(_body(WARM_BENCHMARK))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after >= 1.0
            assert "high-water" in excinfo.value.message
            metrics = client.metrics()
            assert metrics["shed_overload"] == 1
            assert metrics["admitted"] == 1
            # the admitted job still completes (here: by cancellation)
            client.cancel(admitted["id"])
            final = client.wait(admitted["id"], timeout=60)
            assert final["state"] == "cancelled"
            # capacity freed: the next submission is admitted and runs
            job = client.run(_body(WARM_BENCHMARK), timeout=120)
            assert job["state"] == "done"

    def test_per_client_cap_keys_on_client_identity(self, tmp_path):
        config = ServiceConfig(
            store=tmp_path / "store",
            jobs=2,
            scale=TINY,
            client_cap=1,
        )
        with BackgroundServer(config) as background:
            alice = ServiceClient(
                "127.0.0.1", background.port, client_id="alice"
            )
            bob = ServiceClient(
                "127.0.0.1", background.port, client_id="bob"
            )
            held = alice.submit(_hang_body())
            with pytest.raises(ServiceError) as excinfo:
                alice.submit(_body(WARM_BENCHMARK))
            assert excinfo.value.status == 429
            assert "alice" in excinfo.value.message
            # a different client is unaffected by alice's cap
            job = bob.run(_body(WARM_BENCHMARK), timeout=120)
            assert job["state"] == "done"
            assert alice.metrics()["shed_client_cap"] == 1
            alice.cancel(held["id"])
            assert alice.wait(held["id"], timeout=60)["state"] == "cancelled"


def _scan_and_count(background) -> tuple[int, int]:
    """(old O(jobs) scan, ``pending_jobs()``), read together on the
    service loop so no job can change state in between."""
    service = background.service

    async def read() -> tuple[int, int]:
        scan = sum(not job.done for job in service.jobs.values())
        return scan, service.pending_jobs()

    return asyncio.run_coroutine_threadsafe(
        read(), background._loop
    ).result(timeout=30)


class TestAdmissionCount:
    """``pending_jobs`` sums the per-client in-flight counts; the scan
    over every job it replaced is the oracle, and ``/v1/status`` and
    ``/v1/readyz`` must report the same number after every kind of
    transition."""

    def test_counts_match_the_job_scan(self, tmp_path):
        config = ServiceConfig(
            store=tmp_path / "store",
            jobs=2,
            scale=TINY,
            max_pending=2,
            breaker_threshold=1,
            breaker_cooldown=600.0,
        )
        with BackgroundServer(config) as background:
            client = ServiceClient("127.0.0.1", background.port)

            def check(expected: int) -> None:
                scan, counted = _scan_and_count(background)
                assert (scan, counted) == (expected, expected)
                assert client.status()["admission"]["pending"] == expected
                assert client.readyz()[1]["pending"] == expected

            try:
                check(0)
                held = client.submit(_hang_body())  # submit
                _wait_cell_running(client, held["id"])
                check(1)
                cold = client.run(_body(WARM_BENCHMARK), timeout=240)
                assert cold["cells"][0]["source"] == "scheduler"
                check(1)  # cold finish
                warm = client.run(_body(WARM_BENCHMARK), timeout=120)
                assert warm["cells"][0]["source"] == "store"
                check(1)  # warm finish
                # Other mechanisms than ``held``'s, so neither job coalesces
                # onto its in-flight cell.
                second = client.submit(_hang_body(mechanisms=["victim"]))
                _wait_cell_running(client, second["id"])
                check(2)
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(_body(WARM_BENCHMARK))
                assert excinfo.value.status == 429
                check(2)  # overload shed
                client.cancel(second["id"])
                assert client.wait(second["id"], timeout=60)["state"] == (
                    "cancelled"
                )
                check(1)  # DELETE cancel
                expiring = client.submit(
                    _hang_body(mechanisms=["prefetch"], deadline=1.0)
                )
                assert client.wait(expiring["id"], timeout=60)["state"] == (
                    "cancelled"
                )
                check(1)  # deadline cancel
                tripped = client.run(
                    _body("swim", faults="exit:swim:*", retries=0),
                    timeout=240,
                )
                assert tripped["state"] == "failed"
                check(1)  # failed finish
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(_body("mgrid"))
                assert excinfo.value.status == 503
                check(1)  # breaker shed
                summary = background.drain(budget=0.5)
                assert summary["cancelled"] == 1
                check(0)  # drain
            finally:
                # A failed check must not leave an hour-long hang behind.
                background.drain(budget=0.5)


class TestCoalescedCancel:
    """A job whose cell waits on another job's in-flight cell is
    cancelled on its own: it does not wait for the leader's cell, it
    gives back its admission slot, and the leader keeps running."""

    def test_cancel_does_not_wait_for_the_leader(self, tmp_path):
        config = ServiceConfig(store=tmp_path / "store", jobs=2, scale=TINY)
        with BackgroundServer(config) as background:
            client = ServiceClient("127.0.0.1", background.port)

            def follow(**extra) -> dict:
                job = client.submit(_hang_body(**extra))
                doc = _wait_cell_running(client, job["id"])
                assert doc["cells"][0]["source"] == "coalesced"
                return job

            try:
                leader = client.submit(_hang_body())
                _wait_cell_running(client, leader["id"])
                follower = follow()
                assert client.status()["admission"]["pending"] == 2
                client.cancel(follower["id"])  # DELETE
                started = time.monotonic()
                final = client.wait(follower["id"], timeout=30)
                # One poll period is 0.5 s; the leader's hang is an hour.
                assert time.monotonic() - started < 5.0
                assert final["state"] == "cancelled"
                assert final["cells"][0]["state"] == "cancelled"
                assert client.status()["admission"]["pending"] == 1
                assert client.job(leader["id"])["state"] == "running"

                expiring = follow(deadline=1.5)  # deadline
                final = client.wait(expiring["id"], timeout=30)
                assert final["state"] == "cancelled"
                assert "deadline" in final["cancel_reason"]
                assert client.status()["admission"]["pending"] == 1
                assert client.job(leader["id"])["state"] == "running"
            finally:
                # A failed check must not leave an hour-long hang behind.
                background.drain(budget=0.5)


class TestDrain:
    def test_drain_stops_admission_and_cancels_stragglers(self, tmp_path):
        config = ServiceConfig(
            store=tmp_path / "store", jobs=2, scale=TINY
        )
        with BackgroundServer(config) as background:
            client = ServiceClient("127.0.0.1", background.port)
            job = client.submit(_hang_body())
            _wait_cell_running(client, job["id"])
            summary = background.drain(budget=0.5)
            assert summary["jobs"] == 1
            assert summary["cancelled"] == 1
            final = client.job(job["id"])
            assert final["state"] == "cancelled"
            assert "drain" in final["cancel_reason"]
            # draining is sticky: no new admissions, not ready
            with pytest.raises(ServiceError) as excinfo:
                client.submit(_body(WARM_BENCHMARK))
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after > 0
            ready, doc = client.readyz()
            assert ready is False and doc["draining"] is True
            assert client.metrics()["shed_draining"] == 1

    def test_drain_lets_live_jobs_finish_within_budget(self, tmp_path):
        config = ServiceConfig(
            store=tmp_path / "store", jobs=2, scale=TINY
        )
        with BackgroundServer(config) as background:
            client = ServiceClient("127.0.0.1", background.port)
            job = client.submit(_body(WARM_BENCHMARK))
            summary = background.drain(budget=120.0)
            assert summary["cancelled"] == 0
            assert summary["finished"] == summary["jobs"]
            final = client.job(job["id"])
            assert final["state"] == "done"
            # the draining event reached the job's stream
            events = list(client.events(job["id"]))
            kinds = {event["event"] for event in events}
            assert final["state"] == "done"
            if summary["jobs"]:
                assert "draining" in kinds


class TestCircuitBreaker:
    def test_unit_state_machine(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            threshold=2, cooldown=10.0, clock=lambda: clock[0]
        )
        assert breaker.allow_cold()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow_cold()
        breaker.record_failure()
        assert breaker.state == "open" and breaker.trips == 1
        assert not breaker.allow_cold()
        assert breaker.retry_after() == 10.0
        clock[0] = 10.5
        assert breaker.allow_cold()  # half-open probe admitted
        assert breaker.state == "half-open"
        assert not breaker.allow_cold()  # one probe at a time
        breaker.record_failure()  # probe failed: reopen
        assert breaker.state == "open" and breaker.trips == 2
        clock[0] = 21.0
        assert breaker.allow_cold()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.failures == 0
        assert breaker.retry_after() == 0.0

    def test_release_probe_unsticks_a_cancelled_probe(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            threshold=1, cooldown=1.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        clock[0] = 2.0
        assert breaker.allow_cold()
        breaker.release_probe()  # probe cancelled, no verdict
        assert breaker.allow_cold()  # next probe may proceed

    def test_open_breaker_serves_warm_and_sheds_cold(self, tmp_path):
        config = ServiceConfig(
            store=tmp_path / "store",
            jobs=2,
            scale=TINY,
            breaker_threshold=1,
            breaker_cooldown=120.0,
        )
        with BackgroundServer(config) as background:
            client = ServiceClient("127.0.0.1", background.port)
            # warm the store (and the server's prepared-codes cache)
            warm = client.run(_body(WARM_BENCHMARK), timeout=240)
            assert warm["state"] == "done"
            # trip the breaker: one consecutive scheduler failure
            tripped = client.run(
                _body("swim", faults="exit:swim:*", retries=0),
                timeout=240,
            )
            assert tripped["state"] == "failed"
            assert client.status()["breaker"]["state"] == "open"
            # cold work is shed with a structured 503 + Retry-After
            with pytest.raises(ServiceError) as excinfo:
                client.submit(_body("mgrid"))
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after > 0
            assert "breaker" in excinfo.value.message
            # warm cells keep serving from the store
            again = client.run(_body(WARM_BENCHMARK), timeout=120)
            assert again["state"] == "done"
            assert again["cells"][0]["source"] == "store"
            assert client.metrics()["shed_breaker"] == 1
            # degraded mode is visible but the service stays "ready"
            ready, doc = client.readyz()
            assert ready is True
            assert doc["breaker"]["state"] == "open"

    def test_half_open_probe_recovers_the_breaker(self, tmp_path):
        config = ServiceConfig(
            store=tmp_path / "store",
            jobs=2,
            scale=TINY,
            breaker_threshold=1,
            breaker_cooldown=0.2,
        )
        with BackgroundServer(config) as background:
            client = ServiceClient("127.0.0.1", background.port)
            tripped = client.run(
                _body("swim", faults="exit:swim:*", retries=0),
                timeout=240,
            )
            assert tripped["state"] == "failed"
            assert client.status()["breaker"]["trips"] == 1
            time.sleep(0.3)  # past the cooldown: probes admitted
            probe = client.run(_body(WARM_BENCHMARK), timeout=240)
            assert probe["state"] == "done"
            status = client.status()
            assert status["breaker"]["state"] == "closed"
            assert status["breaker"]["consecutive_failures"] == 0
