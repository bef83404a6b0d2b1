"""Network chaos: client + server survive a sabotaged wire.

A :class:`~repro.service.chaos.ChaosProxy` sits between the stdlib
client and a live server, deterministically dropping connections,
stalling responses before their first byte, and truncating NDJSON
mid-event.  The acceptance bar for every mode is the same: the request sequence
completes and the result document is **bit-identical** to what a
clean connection returns — chaos may cost retries, never correctness.

The store is pre-warmed through the server itself, so chaos runs are
fast (no scheduler) and the identical-bytes comparison pins the whole
read path: store → aggregation → canonical JSON → HTTP → client.
"""

from __future__ import annotations

import http.client
import socket
import time

import pytest

from repro.core.faults import NetworkFaultPlan
from repro.service import (
    BackgroundServer,
    ChaosProxy,
    ServiceClient,
    ServiceConfig,
)
from repro.workloads.base import TINY

BENCHMARK = "vpenta"
BODY = {
    "kind": "simulate",
    "benchmark": BENCHMARK,
    "mechanisms": ["bypass"],
}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServiceConfig(
        store=tmp_path_factory.mktemp("chaos-store"), jobs=2, scale=TINY
    )
    with BackgroundServer(config) as background:
        yield background


@pytest.fixture(scope="module")
def reference(server):
    """Clean-connection run: (job id, terminal doc, result bytes)."""
    client = ServiceClient("127.0.0.1", server.port)
    job = client.run(BODY, timeout=240)
    assert job["state"] == "done"
    return job["id"], job, client.result_bytes(job["id"])


def _proxied_client(proxy, timeout=30.0, retries=6) -> ServiceClient:
    return ServiceClient(
        "127.0.0.1", proxy.port, timeout=timeout, retries=retries
    )


def _run_through(proxy, server, reference, **client_kw):
    """Full submit→wait→fetch through the proxy; assert bit-identity."""
    _, _, ref_bytes = reference
    client = _proxied_client(proxy, **client_kw)
    job = client.run(BODY, timeout=120)
    assert job["state"] == "done"
    assert client.result_bytes(job["id"]) == ref_bytes
    return job


class TestFaultModes:
    def test_dropped_connections_are_survived(self, server, reference):
        plan = NetworkFaultPlan.parse("drop:2")
        with ChaosProxy("127.0.0.1", server.port, plan) as proxy:
            _run_through(proxy, server, reference)
            assert proxy.faults["drop"] >= 1

    def test_stalled_responses_are_survived(
        self, server, reference, monkeypatch
    ):
        # Stall far past the client's read timeout so the timeout path
        # (not patience) is what recovers: the stall holds back the
        # first response byte, so a request's read times out and the
        # client retries it.
        outcomes = []
        request_once = ServiceClient._request_once

        def spy(client, *args):
            try:
                response = request_once(client, *args)
            except TimeoutError:
                outcomes.append("timeout")
                raise
            outcomes.append("ok")
            return response

        monkeypatch.setattr(ServiceClient, "_request_once", spy)
        plan = NetworkFaultPlan.parse("stall:3:10")
        with ChaosProxy("127.0.0.1", server.port, plan) as proxy:
            _run_through(proxy, server, reference, timeout=1.0)
            assert proxy.faults["stall"] >= 1
        assert "timeout" in outcomes
        assert "ok" in outcomes[outcomes.index("timeout") :]

    def test_truncated_responses_are_survived(self, server, reference):
        plan = NetworkFaultPlan.parse("truncate:2:150")
        with ChaosProxy("127.0.0.1", server.port, plan) as proxy:
            _run_through(proxy, server, reference)
            assert proxy.faults["truncate"] >= 1

    def test_mixed_chaos_is_survived(self, server, reference):
        plan = NetworkFaultPlan.parse("drop:5;truncate:3:200")
        with ChaosProxy("127.0.0.1", server.port, plan) as proxy:
            _run_through(proxy, server, reference)

    def test_truncated_response_reaches_client_as_eof(
        self, server, reference
    ):
        """The proxy ends a cut response with a FIN: the client reads
        the forwarded bytes and then EOF at once, rather than waiting
        out its read timeout."""
        ref_id, _, _ = reference
        plan = NetworkFaultPlan.parse("truncate:1:150")
        with ChaosProxy("127.0.0.1", server.port, plan) as proxy:
            with socket.create_connection(
                ("127.0.0.1", proxy.port), timeout=30
            ) as sock:
                started = time.monotonic()
                sock.sendall(
                    f"GET /v1/jobs/{ref_id} HTTP/1.1\r\n"
                    "Host: 127.0.0.1\r\n\r\n".encode()
                )
                received = b""
                while chunk := sock.recv(4096):
                    received += chunk
                elapsed = time.monotonic() - started
        assert len(received) == 150
        assert elapsed < 1.0

    def test_close_wakes_the_accept_loop(self, server):
        """Closing the proxy ends its accept loop at once, instead of
        waiting out the join timeout."""
        proxy = ChaosProxy("127.0.0.1", server.port, NetworkFaultPlan())
        with proxy:
            time.sleep(0.2)  # the accept loop is blocked in accept()
            started = time.monotonic()
        assert time.monotonic() - started < 1.0
        assert not proxy._accept_thread.is_alive()

    def test_clean_proxy_is_transparent(self, server, reference):
        ref_id, ref_doc, ref_bytes = reference
        with ChaosProxy(
            "127.0.0.1", server.port, NetworkFaultPlan()
        ) as proxy:
            client = _proxied_client(proxy, retries=0)
            assert client.result_bytes(ref_id) == ref_bytes
            assert proxy.connections == 1
            assert sum(proxy.faults.values()) == 0


class TestStreamFallback:
    def test_truncated_event_stream_ends_cleanly(self, server, reference):
        """A mid-event cut ends events() instead of raising."""
        ref_id, _, _ = reference
        direct = ServiceClient("127.0.0.1", server.port)
        full = list(direct.events(ref_id))
        plan = NetworkFaultPlan.parse("truncate:1:180")  # every conn
        with ChaosProxy("127.0.0.1", server.port, plan) as proxy:
            client = _proxied_client(proxy, retries=0)
            partial = list(client.events(ref_id))
        assert len(partial) < len(full)
        # whatever made it through is a verbatim prefix
        assert partial == full[: len(partial)]

    def test_wait_falls_back_to_polling_after_stream_cut(
        self, server, reference
    ):
        """Satellite claim: killing the NDJSON connection mid-event
        leaves wait() with the same terminal job document."""
        ref_id, ref_doc, _ = reference
        plan = NetworkFaultPlan.parse("truncate:2:180")
        with ChaosProxy("127.0.0.1", server.port, plan) as proxy:
            client = _proxied_client(proxy)
            final = client.wait(ref_id, timeout=60)
        assert final == ref_doc

    def test_every_connection_dropped_eventually_errors(self, server):
        """Chaos the client cannot survive surfaces, not hangs."""
        plan = NetworkFaultPlan.parse("drop:1")
        with ChaosProxy("127.0.0.1", server.port, plan) as proxy:
            client = _proxied_client(proxy, retries=2)
            with pytest.raises((OSError, http.client.HTTPException)):
                client.status()


class TestServerSideHealth:
    def test_server_unscathed_by_chaos(self, server, reference):
        """After all that, the server still answers everything."""
        client = ServiceClient("127.0.0.1", server.port)
        assert client.healthz() is True
        ready, _ = client.readyz()
        assert ready is True
        status = client.status()
        assert status["breaker"]["state"] == "closed"
        job = client.run(BODY, timeout=120)
        assert job["state"] == "done"
