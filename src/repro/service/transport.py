"""HTTP/1.1 transport of the sweep service (asyncio streams).

Parses requests, routes them to a :class:`~repro.service.server.SweepService`
and writes its answers: JSON documents, canonical result bytes, and the
NDJSON event stream of a job.  The service raises :class:`_BadRequest`
and :class:`_Shed`; this layer turns them into 400 and 429/503
responses.

Connections persist across requests (RFC 9112 section 9.3): every
response but the event stream carries a ``Content-Length``, so a client
sends its next request on the same connection.  The server closes a
connection after a request that asks for it (``Connection: close``, or
any HTTP/1.0 request), after a 400, a torn request or a 500, once the
service drains, and when no request line arrives for
:data:`IDLE_TIMEOUT` seconds.  The NDJSON event stream is
close-delimited: its connection ends with the stream.  A response is
written whole or the connection is closed, so a reused connection is
never left mid-response.

Every close shuts the socket down first (:func:`_close`).  Cold cells
run in forked worker processes, and ``fork`` copies every open socket
into each worker; a plain ``close`` then sends no FIN while a worker
lives, and the peer would wait out its own timeout on a connection that
never answers.
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import urllib.parse
from typing import Any, Optional

from repro.service.cells import canonical_json
from repro.service.jobs import Job

#: Seconds a kept-alive connection may wait for its next request line
#: before the server closes it.  Long enough for a client that follows
#: a job: :meth:`~repro.service.client.ServiceClient.wait` pauses at
#: most 2 s between polls, a shed response asks for 1 s by default,
#: and a connection idles while the job's event stream runs on its own
#: connection, about 0.1 s for a TINY cold cell.  A longer gap costs
#: the client one resend, not an error.  Short enough that a client
#: that never closes its connection holds a descriptor and a task for
#: seconds, not minutes.
IDLE_TIMEOUT = 5.0

#: Hard ceilings on what one HTTP request may carry.
_MAX_BODY = 1 << 20
_MAX_HEADERS = 100

_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _BadRequest(ValueError):
    """Client error surfaced as an HTTP 400."""


class _Shed(Exception):
    """An admission refusal: HTTP 429/503 + Retry-After + JSON body."""

    def __init__(
        self,
        status: int,
        reason: str,
        message: str,
        retry_after: float,
        **extra: Any,
    ):
        super().__init__(message)
        self.status = status
        self.reason = reason
        self.message = message
        self.retry_after = retry_after
        self.extra = extra

    def body(self) -> dict:
        return {
            "error": self.message,
            "reason": self.reason,
            "retry_after": round(self.retry_after, 3),
            **self.extra,
        }


# ----------------------------------------------------------------------
# HTTP layer (asyncio streams; persistent connections, one request at
# a time)


async def _read_request(line: bytes, reader: asyncio.StreamReader):
    """Parse the request whose request line is ``line``.

    Returns ``(method, path, query, headers, body, keep)``; ``keep`` is
    False when the client asked for the connection to close.
    """
    parts = line.decode("latin-1", "replace").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _BadRequest(f"malformed request line {line!r}")
    method, target = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if not raw:
            raise asyncio.IncompleteReadError(b"", None)  # torn head
        if raw in (b"\r\n", b"\n"):
            break
        name, _, value = raw.decode("latin-1", "replace").partition(":")
        headers[name.strip().lower()] = value.strip()
        if len(headers) > _MAX_HEADERS:
            raise _BadRequest("too many headers")
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise _BadRequest("bad Content-Length") from None
    if not 0 <= length <= _MAX_BODY:
        raise _BadRequest(f"body too large ({length} bytes)")
    body = await reader.readexactly(length) if length else b""
    path, _, query = target.partition("?")
    tokens = headers.get("connection", "").lower().split(",")
    keep = parts[2] == "HTTP/1.1" and "close" not in map(str.strip, tokens)
    return method, path, urllib.parse.parse_qs(query), headers, body, keep


def _response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Optional[dict] = None,
) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    for name, value in (extra_headers or {}).items():
        head += f"{name}: {value}\r\n"
    head += "\r\n"
    return head.encode() + body


def _json_response(
    status: int, payload: Any, extra_headers: Optional[dict] = None
) -> bytes:
    return _response(
        status, canonical_json(payload), extra_headers=extra_headers
    )


def _shed_response(exc: _Shed) -> bytes:
    """Structured load-shed response with a Retry-After header."""
    return _json_response(
        exc.status,
        exc.body(),
        extra_headers={
            "Retry-After": str(max(1, math.ceil(exc.retry_after)))
        },
    )


def _error(status: int, message: str) -> bytes:
    return _json_response(status, {"error": message})


async def _stream_events(
    writer: asyncio.StreamWriter, job: Job, since: int
) -> None:
    """NDJSON event stream: replay from ``since``, then follow live."""
    writer.write(
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: application/x-ndjson\r\n"
        b"Connection: close\r\n"
        b"\r\n"
    )
    seq = since
    while True:
        pending = job.events[seq:]
        if pending:
            for event in pending:
                writer.write(canonical_json(event))
            seq = pending[-1]["seq"] + 1
            await writer.drain()
        if job.done and len(job.events) <= seq:
            return
        if not pending:
            await job.wait_events(seq)


async def _handle_request(
    service, method, path, query, body, headers=None, peer=""
):
    """Route one parsed request; returns response bytes or a coroutine
    marker ``("stream", job, since)`` for NDJSON endpoints."""
    service.metrics["requests"] += 1
    headers = headers or {}

    if path == "/v1/healthz" and method == "GET":
        # Liveness: answers whenever the event loop does.
        return _json_response(200, {"ok": True})
    if path == "/v1/readyz" and method == "GET":
        ready, payload = service.ready_json()
        return _json_response(200 if ready else 503, payload)
    if path == "/v1/status" and method == "GET":
        return _json_response(200, service.status_json())
    if path == "/v1/metrics" and method == "GET":
        return _json_response(200, service.metrics)
    if path == "/v1/cells" and method == "GET":
        return _json_response(200, {"cells": service.cells_json()})
    if path == "/v1/jobs" and method == "POST":
        try:
            payload = json.loads(body.decode() or "{}")
        except ValueError:
            raise _BadRequest("request body is not valid JSON") from None
        client = headers.get("x-repro-client") or peer or "anonymous"
        try:
            job = service.submit(payload, client=client)
        except _Shed as exc:
            return _shed_response(exc)
        return _json_response(201, job.to_json())
    if path == "/v1/jobs" and method == "GET":
        return _json_response(
            200, {"jobs": [job.to_json() for job in service.jobs.values()]}
        )
    if path == "/v1/predict" and method == "POST":
        try:
            payload = json.loads(body.decode() or "{}")
        except ValueError:
            raise _BadRequest("request body is not valid JSON") from None
        if not isinstance(payload, dict):
            raise _BadRequest("request body must be a JSON object")
        return _json_response(200, await service.predict(payload))

    if path.startswith("/v1/jobs/"):
        rest = path[len("/v1/jobs/"):]
        job_id, _, sub = rest.partition("/")
        job = service.jobs.get(job_id)
        if job is None:
            return _error(404, f"no such job {job_id!r}")
        if method == "DELETE" and sub == "":
            if job.done:
                return _error(
                    409, f"job {job.id} is already {job.state}"
                )
            service.cancel_job(job, "cancelled by client request")
            return _json_response(202, job.to_json())
        if method != "GET":
            return _error(405, "only GET and DELETE on job endpoints")
        since = 0
        if "since" in query:
            try:
                since = int(query["since"][0])
            except ValueError:
                raise _BadRequest("since must be an integer") from None
        if sub == "" and "events" not in query:
            return _json_response(200, job.to_json())
        if sub == "events" or (sub == "" and "events" in query):
            return ("stream", job, since)
        if sub == "result":
            if not job.done:
                return _error(409, f"job {job.id} is {job.state}")
            return _response(200, job.result_bytes)
        if sub == "trace":
            if not job.done:
                return _error(409, f"job {job.id} is {job.state}")
            return _json_response(200, job.trace_document)
        return _error(404, f"unknown job endpoint {sub!r}")

    return _error(404, f"no route for {method} {path}")


def _close(writer: asyncio.StreamWriter) -> None:
    """Close a connection, sending its FIN even while a forked cell
    worker holds a copy of the socket.

    Every write is drained before the connection goes idle or closes
    (the write buffer's high-water mark is 0), so no response byte is
    still queued when the socket is shut down.
    """
    try:
        writer.get_extra_info("socket").shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already closed or reset by the peer
    writer.close()


async def _serve_request(service, reader, writer, peer: str) -> bool:
    """Read one request and write its response; False ends the
    connection."""
    timer = asyncio.get_running_loop().call_later(
        IDLE_TIMEOUT, _close, writer
    )
    service.idle_connections.add(writer)
    try:
        try:
            line = await reader.readline()
        finally:
            timer.cancel()
            service.idle_connections.discard(writer)
        if not line:
            return False
        method, path, query, headers, body, keep = await _read_request(
            line, reader
        )
        result = await _handle_request(
            service, method, path, query, body, headers, peer
        )
    except _BadRequest as exc:
        service.metrics["errors"] += 1
        result, keep = _error(400, str(exc)), False
    except (asyncio.IncompleteReadError, ConnectionError):
        return False  # torn request: there is nothing to answer
    except Exception as exc:  # noqa: BLE001 - keep serving
        service.metrics["errors"] += 1
        result, keep = _error(500, f"{type(exc).__name__}: {exc}"), False
    if isinstance(result, tuple):
        _, job, since = result
        await _stream_events(writer, job, since)
        return False
    keep = keep and not service.draining
    if not keep:
        # Announce the close (RFC 9112 section 9.6) after the status
        # line.
        result = result.replace(b"\r\n", b"\r\nConnection: close\r\n", 1)
    writer.write(result)
    await writer.drain()
    return keep


async def _handle_connection(service, reader, writer) -> None:
    """Serve requests on one connection until either side ends it."""
    service.metrics["connections"] += 1
    peername = writer.get_extra_info("peername")
    peer = peername[0] if peername else ""
    writer.transport.set_write_buffer_limits(0)
    try:
        while await _serve_request(service, reader, writer, peer):
            pass
    except (ConnectionResetError, BrokenPipeError):
        pass  # client went away mid-response; nothing to salvage
    except Exception:
        # No 500 can follow a sent head: count it, close the connection,
        # and let asyncio log the traceback.
        service.metrics["errors"] += 1
        raise
    finally:
        _close(writer)
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
