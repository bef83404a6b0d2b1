"""Stdlib client for the sweep service (``http.client``, no deps).

Used by the test suite, the CI smoke step, and the benchmark harness;
also a reference for talking to the service from anything that can
speak HTTP.  Each calling thread keeps one persistent connection per
client and sends its requests on it in turn; :meth:`ServiceClient.events`
opens its own, because the server ends an event stream by closing it.

Failure behaviour is deliberate, because the chaos suite drives this
client through a fault-injecting proxy:

* transport errors (dropped connections, resets) retry with
  decorrelated-jitter exponential backoff up to ``retries`` times;
* a request sent on a kept-alive connection that the server has
  closed meanwhile (idle timeout, drain) is sent once more on a new
  connection, whatever ``retries`` is — but only when no byte of its
  response arrived, so a stale socket never runs a request twice;
* a truncated NDJSON event stream ends the :meth:`events` generator
  cleanly, and :meth:`wait` falls back to polling the job document;
* :meth:`wait` honours ``Retry-After`` on 429/503 shed responses and
  **fails fast** on any other 4xx — a missing job will not exist no
  matter how long we retry.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
from typing import Any, Iterator, Optional

from repro.service.jobs import TERMINAL

__all__ = ["ServiceClient", "ServiceError"]

#: Decorrelated-jitter backoff bounds (seconds) for transient errors.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0


class ServiceError(RuntimeError):
    """A non-2xx response from the service.

    ``retry_after`` carries the server's Retry-After hint in seconds
    (0.0 when absent); shed responses (429/503) always set it.
    """

    def __init__(self, status: int, message: str, retry_after: float = 0.0):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after = retry_after

    @property
    def transient(self) -> bool:
        """Worth retrying? (load shedding / server-side trouble)"""
        return self.status == 429 or self.status >= 500


def _next_backoff(previous: float) -> float:
    """Decorrelated jitter: sleep ~ U(base, 3*previous), capped."""
    return min(_BACKOFF_CAP, random.uniform(_BACKOFF_BASE, previous * 3))


def _send(
    connection: http.client.HTTPConnection,
    method: str,
    path: str,
    payload: Optional[bytes],
    headers: dict,
) -> None:
    """Send one request and block until its response's first byte.

    Raises ``ConnectionError`` if the connection ends before that byte
    arrives.  The server answers every request it reads, so only then
    may the request be sent again without running it twice.
    """
    connection.request(method, path, body=payload, headers=headers)
    if not connection.sock.recv(1, socket.MSG_PEEK):
        raise http.client.RemoteDisconnected(
            "connection closed before the response"
        )


class ServiceClient:
    """Thin convenience wrapper over the service's JSON endpoints.

    ``retries`` bounds transport-level retries (connection refused or
    reset before a response lands) per :meth:`request` call; responses,
    once received, are never retried at this layer.  ``client_id`` is
    sent as ``X-Repro-Client`` so the server's per-client admission cap
    keys on it rather than on the peer address.

    Safe to share between threads: each thread sends on its own
    kept-alive connection, which :meth:`close` closes.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        retries: int = 0,
        client_id: Optional[str] = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.client_id = client_id
        self._local = threading.local()

    # ------------------------------------------------------------------
    # transport

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection (opened on first use)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.connection = connection
        return connection

    def close(self) -> None:
        """Close the calling thread's connection; the next call reopens
        it."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()

    def _request_once(
        self, method: str, path: str, body: Optional[dict]
    ) -> tuple[int, dict, bytes]:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        if self.client_id:
            headers["X-Repro-Client"] = self.client_id
        connection = self._connection()
        reused = connection.sock is not None
        try:
            try:
                _send(connection, method, path, payload, headers)
            except ConnectionError:
                if not reused:
                    raise
                # The server closed the kept-alive connection before
                # any byte of the response: resend once on a new one.
                connection.close()
                _send(connection, method, path, payload, headers)
            response = connection.getresponse()
            response_headers = {
                name.lower(): value
                for name, value in response.getheaders()
            }
            return response.status, response_headers, response.read()
        except BaseException:
            connection.close()
            raise

    def request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
    ) -> tuple[int, dict, bytes]:
        """One HTTP exchange; returns (status, headers, body bytes).

        Retries transport failures — connection errors *and* torn
        responses (``IncompleteRead``, ``BadStatusLine`` from a peer
        dying mid-response) — up to ``self.retries`` times with
        decorrelated-jitter backoff, each on a new connection.  POSTs
        are retried too: job submission is idempotent at the cell level
        (the store and single-flight registry dedupe), so a duplicate
        submit costs a duplicate job document, never duplicate work.
        """
        attempts = self.retries + 1
        sleep = _BACKOFF_BASE
        for attempt in range(attempts):
            try:
                return self._request_once(method, path, body)
            except (OSError, http.client.HTTPException):
                if attempt + 1 >= attempts:
                    raise
                sleep = _next_backoff(sleep)
                time.sleep(sleep)
        raise AssertionError("unreachable")

    @staticmethod
    def _retry_after(headers: dict) -> float:
        try:
            return max(0.0, float(headers.get("retry-after", "0")))
        except ValueError:
            return 0.0

    def _json(self, method: str, path: str, body: Optional[dict] = None) -> Any:
        status, headers, raw = self.request(method, path, body)
        if not 200 <= status < 300:
            try:
                message = json.loads(raw).get("error", raw.decode())
            except ValueError:
                message = raw.decode("utf-8", "replace")
            raise ServiceError(status, message, self._retry_after(headers))
        return json.loads(raw)

    def get(self, path: str) -> Any:
        return self._json("GET", path)

    def post(self, path: str, body: dict) -> Any:
        return self._json("POST", path, body)

    # ------------------------------------------------------------------
    # endpoints

    def healthz(self) -> bool:
        """Liveness: True iff the event loop answered 200."""
        status, _, _ = self.request("GET", "/v1/healthz")
        return status == 200

    def readyz(self) -> tuple[bool, dict]:
        """Readiness: (admitting?, readiness document)."""
        status, _, raw = self.request("GET", "/v1/readyz")
        return status == 200, json.loads(raw)

    def status(self) -> dict:
        return self.get("/v1/status")

    def metrics(self) -> dict:
        return self.get("/v1/metrics")

    def cells(self) -> list[dict]:
        return self.get("/v1/cells")["cells"]

    def predict(
        self,
        benchmark: str,
        scale: Optional[str] = None,
        threshold: Optional[float] = None,
        miss_floor: Optional[float] = None,
    ) -> dict:
        """POST /v1/predict — analytic locality prediction, no job.

        Synchronous: the model runs in milliseconds, so the response
        carries the full payload (predicted MRC, per-region gating,
        tile choices) directly instead of a job document.
        """
        body: dict = {"benchmark": benchmark}
        if scale is not None:
            body["scale"] = scale
        if threshold is not None:
            body["threshold"] = threshold
        if miss_floor is not None:
            body["miss_floor"] = miss_floor
        return self.post("/v1/predict", body)

    def submit(self, body: dict) -> dict:
        """POST /v1/jobs; returns the job document.

        Raises :class:`ServiceError` with ``retry_after`` set when the
        server sheds the submission (429/503).
        """
        return self.post("/v1/jobs", body)

    def job(self, job_id: str) -> dict:
        return self.get(f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        """DELETE /v1/jobs/{id}; returns the (cancelling) job document."""
        return self._json("DELETE", f"/v1/jobs/{job_id}")

    def events(self, job_id: str, since: int = 0) -> Iterator[dict]:
        """Stream the job's NDJSON events until it finishes.

        A connection drop or a line truncated mid-event (chaos proxy,
        server drain) ends the generator cleanly instead of raising —
        callers that need the terminal state poll :meth:`job`, which is
        exactly what :meth:`wait` does.
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request("GET", f"/v1/jobs/{job_id}/events?since={since}")
            response = connection.getresponse()
            if response.status != 200:
                raise ServiceError(
                    response.status, response.read().decode("utf-8", "replace")
                )
            for line in response:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except ValueError:
                    return  # truncated mid-event; stream is unusable
        except (ConnectionError, TimeoutError, http.client.HTTPException):
            return  # dropped mid-stream; fall back to polling
        finally:
            connection.close()

    def wait(self, job_id: str, timeout: float = 300.0) -> dict:
        """Follow the event stream until the job's terminal event.

        Falls back to polling if the stream drops; returns the final
        job document.  Transient errors (connection trouble, 429/503
        shedding) back off with decorrelated jitter, honouring the
        server's ``Retry-After``; any other 4xx raises immediately —
        retrying a 404 will never make the job exist.

        The calling thread's connection is closed first: it would idle
        while the stream runs, and a job usually outlasts the server's
        idle timeout, so the request after the stream would otherwise
        meet a socket the server has closed.
        """
        self.close()
        deadline = time.monotonic() + timeout
        sleep = _BACKOFF_BASE
        while True:
            streamed = False
            try:
                for event in self.events(job_id):
                    streamed = True
                    if (
                        event.get("event") == "job"
                        and event.get("state") in TERMINAL
                    ):
                        return self.job(job_id)
            except ServiceError as exc:
                if not exc.transient:
                    raise
            try:
                job = self.job(job_id)
            except ServiceError as exc:
                if not exc.transient:
                    raise
                job = None
                sleep = max(_next_backoff(sleep), exc.retry_after)
            except (OSError, http.client.HTTPException):
                job = None
                sleep = _next_backoff(sleep)
            if job is not None:
                if job["state"] in TERMINAL:
                    return job
                # Stream progress resets the backoff: the service is
                # alive and the job is moving.
                sleep = _BACKOFF_BASE if streamed else _next_backoff(sleep)
            if time.monotonic() + sleep > deadline:
                raise TimeoutError(
                    f"job {job_id} did not finish within {timeout}s"
                )
            time.sleep(sleep)

    def run(self, body: dict, timeout: float = 300.0) -> dict:
        """Submit a job and wait for its terminal state."""
        job = self.submit(body)
        return self.wait(job["id"], timeout=timeout)

    def result_bytes(self, job_id: str) -> bytes:
        """The job's canonical result document (exact bytes)."""
        status, headers, raw = self.request(
            "GET", f"/v1/jobs/{job_id}/result"
        )
        if status != 200:
            raise ServiceError(
                status,
                raw.decode("utf-8", "replace"),
                self._retry_after(headers),
            )
        return raw

    def result(self, job_id: str) -> dict:
        return json.loads(self.result_bytes(job_id))

    def trace(self, job_id: str) -> dict:
        return self.get(f"/v1/jobs/{job_id}/trace")
