"""Deterministic fault injection for the sweep scheduler.

The resilience layer (run store, retry/timeout scheduler, resume) is
only trustworthy if every recovery path is exercised, the same way the
static verifier proved the compiler: by deliberately breaking things.
This module injects four failure modes into chosen worker cells of a
sweep grid:

* ``raise``   — the cell raises :class:`FaultInjected` before running;
* ``hang``    — the cell sleeps far past any sane per-cell timeout, so
  the scheduler must kill it;
* ``exit``    — the worker process dies via :func:`os._exit` without
  reporting anything (simulating an OOM kill or segfault);
* ``corrupt`` — the cell runs normally but its run-store entry is
  written corrupted, so resume-time checksum verification must reject
  it and recompute.

Faults are described by a compact spec string, settable via the
``REPRO_FAULTS`` environment variable or the ``--faults`` CLI flag::

    kind:benchmark:config[:times][;kind:benchmark:config[:times]...]

``benchmark`` and ``config`` may be ``*`` (match any).  ``times``
bounds how many *attempts* of a matching cell are sabotaged (default:
all of them) — ``exit:vpenta:*:1`` kills only attempt 0 of every
vpenta cell, so bounded retry recovers; ``exit:vpenta:*`` keeps
killing, so retries exhaust into a structured
:class:`~repro.core.parallel.CellFailure`.

Injection is deterministic: whether a fault fires depends only on the
(benchmark, config, attempt) triple, never on timing or randomness, so
every recovery test is reproducible.  Execution faults fire only inside
worker processes (the in-process fallback path strips the plan — a
parent-process ``os._exit`` would kill the whole sweep rather than one
cell); ``corrupt`` fires in the parent at store-write time.

The second half of this module is the *network* fault vocabulary used
by the chaos proxy (:mod:`repro.service.chaos`, ``tools/chaos_proxy``):
``drop`` (connection closed on accept), ``stall`` (the response stream
freezes before its first byte), and ``truncate`` (the response is cut after N
bytes — mid-NDJSON-event by construction).  Like execution faults,
network faults are deterministic: whether a connection is sabotaged
depends only on its 0-based accept index, via ``every``-th matching.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runstore import RunStore

__all__ = [
    "EXECUTION_KINDS",
    "FAULT_KINDS",
    "FAULTS_ENV",
    "NETWORK_KINDS",
    "Fault",
    "FaultInjected",
    "FaultPlan",
    "NetworkFault",
    "NetworkFaultPlan",
    "corrupt_stored_entry",
]

FAULTS_ENV = "REPRO_FAULTS"

RAISE = "raise"
HANG = "hang"
EXIT = "exit"
CORRUPT = "corrupt"

#: Kinds applied inside a worker, before the cell's simulations run.
EXECUTION_KINDS = (RAISE, HANG, EXIT)
FAULT_KINDS = EXECUTION_KINDS + (CORRUPT,)

#: Exit status of an ``exit``-faulted worker; chosen to be obviously
#: deliberate in scheduler logs and tests.
EXIT_STATUS = 23

#: How long a ``hang`` fault sleeps.  Any realistic per-cell timeout is
#: orders of magnitude shorter, so the scheduler must kill the worker.
HANG_SECONDS = 3600.0


class FaultInjected(RuntimeError):
    """Raised by a ``raise`` fault inside a sabotaged worker cell."""


@dataclass(frozen=True)
class Fault:
    """One fault-spec entry."""

    kind: str
    benchmark: str  # benchmark name or "*"
    config: str  # machine configuration name or "*"
    times: Optional[int] = None  # sabotage attempts [0, times); None = all

    def matches(self, benchmark: str, config: str, attempt: int) -> bool:
        if self.benchmark not in ("*", benchmark):
            return False
        if self.config not in ("*", config):
            return False
        return self.times is None or attempt < self.times

    def spec(self) -> str:
        times = "" if self.times is None else f":{self.times}"
        return f"{self.kind}:{self.benchmark}:{self.config}{times}"


def _parse_entry(entry: str) -> Fault:
    fields = [field.strip() for field in entry.split(":")]
    if not 3 <= len(fields) <= 4:
        raise ValueError(
            f"bad fault entry {entry!r}: expected "
            "kind:benchmark:config[:times]"
        )
    kind = fields[0]
    if kind not in FAULT_KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
        )
    times: Optional[int] = None
    if len(fields) == 4 and fields[3] != "*":
        try:
            times = int(fields[3])
        except ValueError:
            raise ValueError(
                f"bad fault entry {entry!r}: times must be an integer or '*'"
            ) from None
        if times < 1:
            raise ValueError(
                f"bad fault entry {entry!r}: times must be >= 1"
            )
    return Fault(kind, fields[1], fields[2], times)


@dataclass(frozen=True)
class FaultPlan:
    """A parsed set of fault entries; empty plans inject nothing."""

    entries: tuple[Fault, ...] = ()

    @classmethod
    def parse(cls, spec: Optional[str]) -> "FaultPlan":
        if not spec or not spec.strip():
            return cls()
        return cls(
            tuple(
                _parse_entry(entry)
                for entry in spec.split(";")
                if entry.strip()
            )
        )

    @classmethod
    def from_env(cls) -> "FaultPlan":
        """Parse ``REPRO_FAULTS``; unset/empty means no faults."""
        return cls.parse(os.environ.get(FAULTS_ENV))

    def __bool__(self) -> bool:
        return bool(self.entries)

    def spec(self) -> str:
        return ";".join(entry.spec() for entry in self.entries)

    def _find(
        self, kinds: tuple[str, ...], benchmark: str, config: str, attempt: int
    ) -> Optional[Fault]:
        for fault in self.entries:
            if fault.kind in kinds and fault.matches(benchmark, config, attempt):
                return fault
        return None

    def execution_fault(
        self, benchmark: str, config: str, attempt: int
    ) -> Optional[Fault]:
        return self._find(EXECUTION_KINDS, benchmark, config, attempt)

    def store_fault(
        self, benchmark: str, config: str, attempt: int
    ) -> Optional[Fault]:
        return self._find((CORRUPT,), benchmark, config, attempt)

    def apply_execution(self, benchmark: str, config: str, attempt: int) -> None:
        """Fire any matching execution fault (called inside the worker)."""
        fault = self.execution_fault(benchmark, config, attempt)
        if fault is None:
            return
        if fault.kind == RAISE:
            raise FaultInjected(
                f"injected fault {fault.spec()!r} on {benchmark}/{config} "
                f"attempt {attempt}"
            )
        if fault.kind == HANG:
            import time

            time.sleep(HANG_SECONDS)
            return
        if fault.kind == EXIT:
            os._exit(EXIT_STATUS)
        raise AssertionError(f"unhandled fault kind {fault.kind!r}")


# ----------------------------------------------------------------------
# network faults (chaos proxy vocabulary)

DROP = "drop"
STALL = "stall"
TRUNCATE = "truncate"

#: Kinds the chaos proxy can inject into a TCP connection.
NETWORK_KINDS = (DROP, STALL, TRUNCATE)

#: Default stall length: long enough that any sane client read timeout
#: fires first, short enough that proxy threads drain promptly.
DEFAULT_STALL_SECONDS = 30.0

#: Default truncation point, in response bytes.  Small enough to land
#: inside the HTTP headers or the first NDJSON event of any response.
DEFAULT_TRUNCATE_BYTES = 120


@dataclass(frozen=True)
class NetworkFault:
    """One chaos-proxy fault entry.

    ``every`` selects which connections are sabotaged: the fault fires
    on every ``every``-th accepted connection (0-based index, so
    ``every=2`` hits connections 1, 3, 5, ... and the first connection
    is always clean).  ``amount`` is the stall length in seconds for
    ``stall`` and the byte offset for ``truncate``; ``drop`` ignores
    it.
    """

    kind: str
    every: int = 1
    amount: float = 0.0

    def fires(self, connection: int) -> bool:
        return (connection + 1) % self.every == 0

    def spec(self) -> str:
        if self.kind == DROP:
            return f"{self.kind}:{self.every}"
        return f"{self.kind}:{self.every}:{self.amount:g}"


def _parse_network_entry(entry: str) -> NetworkFault:
    fields = [field.strip() for field in entry.split(":")]
    if not 1 <= len(fields) <= 3:
        raise ValueError(
            f"bad network fault entry {entry!r}: expected "
            "kind[:every[:amount]]"
        )
    kind = fields[0]
    if kind not in NETWORK_KINDS:
        raise ValueError(
            f"unknown network fault kind {kind!r}; expected one of "
            f"{NETWORK_KINDS}"
        )
    every = 1
    if len(fields) >= 2 and fields[1]:
        try:
            every = int(fields[1])
        except ValueError:
            raise ValueError(
                f"bad network fault entry {entry!r}: every must be an "
                "integer"
            ) from None
        if every < 1:
            raise ValueError(
                f"bad network fault entry {entry!r}: every must be >= 1"
            )
    amount = (
        DEFAULT_STALL_SECONDS
        if kind == STALL
        else float(DEFAULT_TRUNCATE_BYTES)
    )
    if len(fields) == 3 and fields[2]:
        try:
            amount = float(fields[2])
        except ValueError:
            raise ValueError(
                f"bad network fault entry {entry!r}: amount must be a "
                "number"
            ) from None
        if amount < 0:
            raise ValueError(
                f"bad network fault entry {entry!r}: amount must be >= 0"
            )
    return NetworkFault(kind, every, amount)


@dataclass(frozen=True)
class NetworkFaultPlan:
    """A parsed set of network fault entries for the chaos proxy.

    Spec syntax mirrors :class:`FaultPlan`::

        kind[:every[:amount]][;kind[:every[:amount]]...]

    e.g. ``drop:3`` (every 3rd connection refused), ``stall:2:5``
    (every 2nd connection stalls 5 s before its response), ``truncate:1:200``
    (every response cut after 200 bytes).  The first matching entry
    wins when several fire on one connection.
    """

    entries: tuple[NetworkFault, ...] = ()

    @classmethod
    def parse(cls, spec: Optional[str]) -> "NetworkFaultPlan":
        if not spec or not spec.strip():
            return cls()
        return cls(
            tuple(
                _parse_network_entry(entry)
                for entry in spec.split(";")
                if entry.strip()
            )
        )

    def __bool__(self) -> bool:
        return bool(self.entries)

    def spec(self) -> str:
        return ";".join(entry.spec() for entry in self.entries)

    def fault_for(self, connection: int) -> Optional[NetworkFault]:
        """The fault to apply to the ``connection``-th accept, if any."""
        for fault in self.entries:
            if fault.fires(connection):
                return fault
        return None


def corrupt_stored_entry(store: "RunStore", key: str) -> None:
    """Flip one payload byte of a stored entry in place.

    Used by the ``corrupt`` fault after a successful store write: the
    file keeps its valid header and embedded checksum, so only the
    checksum verification on read can catch the damage.
    """
    path = store.path_for(key)
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"cannot corrupt empty store entry {key!r}")
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
