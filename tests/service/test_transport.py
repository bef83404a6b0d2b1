"""Persistent connections of the sweep service's HTTP transport.

The server keeps a connection open across requests and closes it when
the client asks, after a 400 or a 500, when it idles past
``IDLE_TIMEOUT``, and when the service drains.  Every close must reach
the client as EOF at once, even while a forked cell worker holds a copy
of the socket.  The client reuses one connection per thread and sends
a request again only when no byte of its response arrived, so a stale
socket never runs a job twice.

Raw sockets drive the server where the client would hide what the
wire does.
"""

from __future__ import annotations

import http.client
import multiprocessing
import re
import socket
import time
from contextlib import closing

import pytest

from repro.core.faults import NetworkFaultPlan
from repro.service import (
    BackgroundServer,
    ChaosProxy,
    ServiceClient,
    ServiceConfig,
)
from repro.service import transport
from repro.workloads.base import TINY

BODY = {"kind": "simulate", "benchmark": "vpenta", "mechanisms": ["bypass"]}
GET = b"GET /v1/healthz HTTP/1.1\r\nHost: test\r\n\r\n"
GET_CLOSE = (
    b"GET /v1/healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
)


def _hang_body(mechanism: str = "bypass") -> dict:
    return {
        "kind": "simulate",
        "benchmark": "adi",
        "mechanisms": [mechanism],
        "faults": "hang:*:*",
    }


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServiceConfig(
        store=tmp_path_factory.mktemp("transport-store"), jobs=2, scale=TINY
    )
    with BackgroundServer(config) as background:
        yield background


@pytest.fixture(scope="module")
def done_job(server) -> str:
    with closing(ServiceClient("127.0.0.1", server.port)) as client:
        job = client.run(BODY, timeout=240)
    assert job["state"] == "done"
    return job["id"]


def _connect(server) -> socket.socket:
    return socket.create_connection(("127.0.0.1", server.port), timeout=10)


def _exchange(sock: socket.socket, request: bytes) -> bytes:
    """Send one request; read its whole response and return the head."""
    sock.sendall(request)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(4096)
        assert chunk, "connection closed before the response head"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
    while len(body) < length:
        body += sock.recv(4096)
    return head


def _read_to_eof(sock: socket.socket) -> tuple[bytes, float]:
    """Everything until EOF, and the seconds EOF took to arrive."""
    started = time.monotonic()
    data = b""
    while chunk := sock.recv(4096):
        data += chunk
    return data, time.monotonic() - started


def _wait_for_workers(count: int, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while len(multiprocessing.active_children()) < count:
        assert time.monotonic() < deadline, "cell worker never forked"
        time.sleep(0.05)


class TestKeepAlive:
    def test_sequential_requests_share_one_connection(self, server):
        service = server.service
        before = service.metrics["connections"]
        with closing(ServiceClient("127.0.0.1", server.port)) as client:
            for _ in range(10):
                assert client.healthz() is True
                client.status()
            status, headers, _ = client.request("GET", "/v1/healthz")
        assert status == 200 and "connection" not in headers
        assert service.metrics["connections"] - before == 1

    def test_connection_close_is_honoured(self, server):
        with _connect(server) as sock:
            assert b"Connection" not in _exchange(sock, GET)
            sock.sendall(GET_CLOSE)
            data, elapsed = _read_to_eof(sock)
        assert data.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"\r\nConnection: close\r\n" in data
        assert elapsed < 1.0

    def test_bad_request_is_answered_and_closed(self, server):
        with _connect(server) as sock:
            _exchange(sock, GET)
            sock.sendall(b"NONSENSE\r\n\r\n")
            data, elapsed = _read_to_eof(sock)
        assert data.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"\r\nConnection: close\r\n" in data
        assert elapsed < 1.0

    def test_handler_error_is_answered_and_closed(self, server, monkeypatch):
        def broken() -> dict:
            raise RuntimeError("status broke")

        monkeypatch.setattr(server.service, "status_json", broken)
        with _connect(server) as sock:
            _exchange(sock, GET)
            sock.sendall(b"GET /v1/status HTTP/1.1\r\nHost: test\r\n\r\n")
            data, elapsed = _read_to_eof(sock)
        assert data.startswith(b"HTTP/1.1 500 Internal Server Error\r\n")
        assert b"\r\nConnection: close\r\n" in data
        assert elapsed < 1.0

    def test_idle_connection_is_closed(self, server, monkeypatch):
        monkeypatch.setattr(transport, "IDLE_TIMEOUT", 0.2)
        with _connect(server) as sock:
            _exchange(sock, GET)
            data, elapsed = _read_to_eof(sock)
        assert data == b""
        assert elapsed < 2.0

    def test_error_after_the_head_ends_the_connection(
        self, server, done_job, monkeypatch
    ):
        """A torn response from the server itself ends in EOF, as the
        chaos proxy's do, and the server keeps serving."""
        canonical_json = transport.canonical_json

        def broken(payload) -> bytes:
            if "seq" in payload:  # an event, after the stream's head
                raise RuntimeError("event broke")
            return canonical_json(payload)

        monkeypatch.setattr(transport, "canonical_json", broken)
        errors = server.service.metrics["errors"]
        with _connect(server) as sock:
            sock.sendall(
                f"GET /v1/jobs/{done_job}/events HTTP/1.1\r\n\r\n".encode()
            )
            data, elapsed = _read_to_eof(sock)
        assert data.startswith(b"HTTP/1.1 200 OK\r\n")
        assert data.endswith(b"\r\n\r\n")  # the head, then nothing
        assert elapsed < 1.0
        assert server.service.metrics["errors"] == errors + 1
        with closing(ServiceClient("127.0.0.1", server.port)) as client:
            assert client.healthz() is True


class TestStaleSockets:
    def test_post_on_an_idle_closed_connection_runs_once(
        self, server, done_job, monkeypatch
    ):
        monkeypatch.setattr(transport, "IDLE_TIMEOUT", 0.2)
        metrics = server.service.metrics
        client = ServiceClient("127.0.0.1", server.port, retries=0)
        with closing(client):
            client.healthz()
            connections = metrics["connections"]
            submitted = metrics["jobs_submitted"]
            time.sleep(0.6)  # the server closes the idle connection
            job = client.submit(BODY)
            assert metrics["jobs_submitted"] - submitted == 1
            # The first send met the closed socket; the resend opened
            # one.
            assert metrics["connections"] - connections == 1
            assert client.wait(job["id"], timeout=120)["state"] == "done"

    def test_torn_response_is_raised_not_resent(self, server, done_job):
        healthz = len(transport._json_response(200, {"ok": True}))
        # Cut every connection 150 bytes into its second response: past
        # the head of a job document, inside its body.
        plan = NetworkFaultPlan.parse(f"truncate:1:{healthz + 150}")
        metrics = server.service.metrics
        with ChaosProxy("127.0.0.1", server.port, plan) as proxy:
            client = ServiceClient("127.0.0.1", proxy.port, retries=0)
            assert client.healthz() is True
            submitted = metrics["jobs_submitted"]
            with pytest.raises((OSError, http.client.HTTPException)):
                client.submit(BODY)
            assert proxy.connections == 1
        assert metrics["jobs_submitted"] - submitted == 1


class TestClosesWhileWorkersLive:
    """``fork`` copies every open socket into a cell worker; a close
    must still send the FIN while that worker runs."""

    def test_closed_connection_sees_eof_at_once(self, server):
        client = ServiceClient("127.0.0.1", server.port)
        with closing(client), _connect(server) as sock:
            _exchange(sock, GET)  # open and idle when the worker forks
            job = client.submit(_hang_body())
            try:
                _wait_for_workers(1)
                sock.sendall(GET_CLOSE)
                data, elapsed = _read_to_eof(sock)
            finally:
                client.cancel(job["id"])
                client.wait(job["id"], timeout=60)
        assert data.startswith(b"HTTP/1.1 200 OK\r\n")
        assert elapsed < 1.0

    def test_event_stream_sees_eof_at_once(self, server):
        client = ServiceClient("127.0.0.1", server.port)
        first = client.submit(_hang_body("bypass"))
        second = None
        try:
            _wait_for_workers(1)
            with _connect(server) as sock:
                sock.sendall(
                    f"GET /v1/jobs/{first['id']}/events HTTP/1.1\r\n\r\n"
                    .encode()
                )
                assert sock.recv(4096).startswith(b"HTTP/1.1 200 OK\r\n")
                # A second worker forks while the stream is open.
                second = client.submit(_hang_body("victim"))
                _wait_for_workers(2)
                client.cancel(first["id"])
                _, elapsed = _read_to_eof(sock)
            # One poll period (0.5 s) and the kill end the first job.
            assert elapsed < 5.0
        finally:
            for job in (first, second):
                if job is not None:
                    try:
                        client.cancel(job["id"])
                    except Exception:  # noqa: BLE001 - already over
                        pass
                    client.wait(job["id"], timeout=60)
            client.close()


class TestDrain:
    def test_drain_closes_idle_connections(self, tmp_path):
        config = ServiceConfig(store=tmp_path / "store", jobs=2, scale=TINY)
        background = BackgroundServer(config)
        with background:
            client = ServiceClient("127.0.0.1", background.port)
            assert client.healthz() is True  # pooled, now idle
            with _connect(background) as sock:
                _exchange(sock, GET)
                started = time.monotonic()
                background.drain(budget=0.5)
                data, elapsed = _read_to_eof(sock)
                assert data == b"" and elapsed < 1.0
            # The pooled connection was closed too: the client resends.
            ready, doc = client.readyz()
            assert ready is False and doc["draining"] is True
            client.close()
        assert time.monotonic() - started < 0.5 + 5.0
