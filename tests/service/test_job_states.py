"""``/v1/status`` job-state counts are kept as jobs change state.

The service no longer scans every job on each status request: each
job moves its state through one setter, which keeps the service's
counts.  The scan it replaced is the oracle, after every kind of
transition.
"""

from __future__ import annotations

import asyncio
import time

from repro.service import BackgroundServer, ServiceClient, ServiceConfig
from repro.workloads.base import TINY


def _body(benchmark: str, **extra) -> dict:
    return {
        "kind": "simulate",
        "benchmark": benchmark,
        "mechanisms": ["bypass"],
        **extra,
    }


def _hang_body(**extra) -> dict:
    return _body("adi", faults="hang:*:*", **extra)


def _tally_and_counts(background) -> tuple[dict, dict]:
    """(a fresh tally over every job, the kept counts), read together
    on the service loop."""
    service = background.service

    async def read() -> tuple[dict, dict]:
        tally: dict[str, int] = {}
        for job in service.jobs.values():
            tally[job.state] = tally.get(job.state, 0) + 1
        return tally, dict(service.job_states)

    return asyncio.run_coroutine_threadsafe(
        read(), background._loop
    ).result(timeout=30)


def _wait_running(client, job_id) -> dict:
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        doc = client.job(job_id)
        if doc["cell_counts"].get("running", 0) >= 1:
            return doc
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never ran a cell")


def test_counts_match_a_fresh_tally(tmp_path):
    config = ServiceConfig(store=tmp_path / "store", jobs=2, scale=TINY)
    with BackgroundServer(config) as background:
        client = ServiceClient("127.0.0.1", background.port)

        def check(expected: dict) -> None:
            tally, counts = _tally_and_counts(background)
            assert tally == counts == expected
            assert client.status()["jobs"]["states"] == expected

        try:
            check({})
            assert client.run(_body("vpenta"), timeout=240)["state"] == "done"
            check({"done": 1})
            failed = client.run(
                _body("swim", faults="exit:swim:*", retries=0), timeout=240
            )
            assert failed["state"] == "failed"
            check({"done": 1, "failed": 1})
            leader = client.submit(_hang_body())
            _wait_running(client, leader["id"])
            check({"done": 1, "failed": 1, "running": 1})
            follower = client.submit(_hang_body())
            doc = _wait_running(client, follower["id"])
            assert doc["cells"][0]["source"] == "coalesced"
            check({"done": 1, "failed": 1, "running": 2})
            client.cancel(follower["id"])  # a coalesced cancel
            assert client.wait(follower["id"], timeout=60)["state"] == (
                "cancelled"
            )
            check({"done": 1, "failed": 1, "running": 1, "cancelled": 1})
            client.cancel(leader["id"])  # a cancel of a running cell
            assert client.wait(leader["id"], timeout=60)["state"] == (
                "cancelled"
            )
            check({"done": 1, "failed": 1, "cancelled": 2})
            straggler = client.submit(_hang_body(mechanisms=["victim"]))
            _wait_running(client, straggler["id"])
            assert background.drain(budget=0.5)["cancelled"] == 1
            check({"done": 1, "failed": 1, "cancelled": 3})
        finally:
            # A failed check must not leave an hour-long hang behind.
            background.drain(budget=0.5)
            client.close()
