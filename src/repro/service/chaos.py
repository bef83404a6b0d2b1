"""Fault-injecting TCP proxy for sweep-service chaos testing.

Sits between a :class:`~repro.service.client.ServiceClient` and a live
server, sabotaging chosen connections according to a
:class:`~repro.core.faults.NetworkFaultPlan`:

* ``drop``     — the connection is closed the moment it is accepted,
  before a single byte is forwarded (connection refused, mid-handshake
  LB failure);
* ``stall``    — the first response chunk is held back and the stream
  freezes for ``amount`` seconds (half-dead peer, network partition)
  before resuming, so the client has no byte of the response while
  it waits;
* ``truncate`` — at most ``amount`` response bytes are forwarded, then
  both sides are closed (crash mid-response; lands mid-NDJSON-event by
  construction for the service's event streams).

Which connections are sabotaged is deterministic — a function of the
0-based accept index and the plan's ``every`` strides — so every chaos
test is reproducible.  The proxy is plain blocking sockets on daemon
threads: it must not share an event loop with the server under test,
or a server bug could deadlock the harness that is meant to catch it.

Usage::

    plan = NetworkFaultPlan.parse("truncate:2:150")
    with ChaosProxy("127.0.0.1", server_port, plan) as proxy:
        client = ServiceClient("127.0.0.1", proxy.port, retries=4)
        ...  # connections 1, 3, 5... are cut after 150 bytes

``tools/chaos_proxy.py`` wraps this in a CLI for manual prodding.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional

from repro.core.faults import (
    DROP,
    STALL,
    TRUNCATE,
    NetworkFault,
    NetworkFaultPlan,
)

__all__ = ["ChaosProxy"]

_CHUNK = 4096


class ChaosProxy:
    """A TCP proxy applying one :class:`NetworkFault` per connection.

    Context manager; binds on construction (ephemeral port by default,
    read it from ``self.port``), serves on daemon threads, and closes
    every tracked socket on exit so no test leaks file descriptors.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        plan: NetworkFaultPlan,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.plan = plan
        self.host = host
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
        )
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.port = self._listener.getsockname()[1]
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._live: set = set()
        self.connections = 0  # accepted
        self.faults: dict[str, int] = {DROP: 0, STALL: 0, TRUNCATE: 0}
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"chaos-proxy-{self.port}",
            daemon=True,
        )

    # ------------------------------------------------------------------
    # lifecycle

    def __enter__(self) -> "ChaosProxy":
        self._accept_thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._stop.set()
        # As in _untrack: a listener closed while the accept loop is
        # blocked on it does not wake the loop, and the join below
        # would wait out its timeout; shutting it down first does.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            live = list(self._live)
        for sock in live:
            try:
                sock.close()
            except OSError:
                pass
        self._accept_thread.join(timeout=5)

    def _track(self, sock: socket.socket) -> socket.socket:
        with self._lock:
            self._live.add(sock)
        return sock

    def _untrack(self, sock: socket.socket) -> None:
        with self._lock:
            self._live.discard(sock)
        # Shut down before closing: the request pump may be blocked in
        # ``recv`` on this socket, and while it is, ``close`` alone
        # leaves the descriptor open and sends no FIN, so a truncated
        # response would reach the client as a read timeout, not EOF.
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # proxying

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                downstream, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            index = self.connections
            self.connections += 1
            fault = self.plan.fault_for(index)
            if fault is not None:
                self.faults[fault.kind] = self.faults.get(fault.kind, 0) + 1
            if fault is not None and fault.kind == DROP:
                # Sabotage before a single byte crosses.
                try:
                    downstream.close()
                except OSError:
                    pass
                continue
            self._track(downstream)
            threading.Thread(
                target=self._serve_connection,
                args=(downstream, fault),
                name=f"chaos-conn-{index}",
                daemon=True,
            ).start()

    def _serve_connection(
        self, downstream: socket.socket, fault: Optional[NetworkFault]
    ) -> None:
        try:
            upstream = socket.create_connection(
                (self.upstream_host, self.upstream_port), timeout=30
            )
        except OSError:
            self._untrack(downstream)
            return
        self._track(upstream)
        # Request direction is always clean (the chaos vocabulary
        # targets responses); pump it on a side thread so streaming
        # endpoints still work.
        pump = threading.Thread(
            target=self._pump_requests,
            args=(downstream, upstream),
            daemon=True,
        )
        pump.start()
        try:
            self._pump_responses(upstream, downstream, fault)
        finally:
            self._untrack(upstream)
            self._untrack(downstream)

    def _pump_requests(
        self, downstream: socket.socket, upstream: socket.socket
    ) -> None:
        try:
            while True:
                chunk = downstream.recv(_CHUNK)
                if not chunk:
                    break
                upstream.sendall(chunk)
            upstream.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # either side closed; response pump owns cleanup

    def _pump_responses(
        self,
        upstream: socket.socket,
        downstream: socket.socket,
        fault: Optional[NetworkFault],
    ) -> None:
        forwarded = 0
        stalled = False
        try:
            while True:
                chunk = upstream.recv(_CHUNK)
                if not chunk:
                    break
                if fault is not None and fault.kind == TRUNCATE:
                    budget = int(fault.amount) - forwarded
                    if budget <= 0:
                        return
                    chunk = chunk[:budget]
                    downstream.sendall(chunk)
                    forwarded += len(chunk)
                    if forwarded >= int(fault.amount):
                        return  # cut mid-response
                    continue
                if fault is not None and fault.kind == STALL and not stalled:
                    stalled = True
                    # Freeze before the first chunk is forwarded; wake
                    # early if the proxy is torn down.
                    if self._stop.wait(fault.amount):
                        return
                downstream.sendall(chunk)
        except OSError:
            pass
