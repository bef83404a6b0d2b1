"""Crash-safe on-disk store for completed sweep cells.

The evaluation grid (13 benchmarks × 6 configurations × 11 simulations
per cell, plus sensitivity sweeps) runs for minutes to hours; before
this store existed, nothing was persisted until the whole suite
finished, so one OOM-killed worker threw the entire sweep away.  The
store checkpoints every completed cell so a killed sweep resumes by
skipping verified-complete cells.

Design:

* **Content-addressed keys** — a cell's key is a digest over everything
  that determines its result: store format version, payload kind,
  benchmark, configuration name, workload scale, the full machine
  parameters, the mechanism tuple, the miss-classification flag, and
  the checksums of the input traces (:meth:`PackedTrace.checksum`).
  Change any input and the key changes, so stale entries can never be
  mistaken for current ones — there is no invalidation logic to get
  wrong.
* **Atomic writes** — entries are written to a temp file in the store
  directory and published with :func:`os.replace`, so a crash mid-write
  leaves either no entry or a complete one, never a torn file that a
  resume would trust.
* **Embedded checksums** — each entry carries a SHA-256 of its payload
  bytes; :meth:`RunStore.get` re-verifies on every read and treats any
  mismatch (bit rot, torn copy, deliberate corruption from the fault
  harness) as a miss, so a corrupt entry costs a recompute, never a
  wrong result.

Keys hash raw ``array('q')`` column bytes, so they are stable across
processes on one machine but not across byte orders — a store is a
local checkpoint, not a portable artifact.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Optional, Union

from repro.isa.packed import AnyTrace, as_packed
from repro.params import MachineParams
from repro.workloads.base import Scale

__all__ = [
    "STORE_FORMAT",
    "RunStore",
    "ScrubReport",
    "StoreStats",
    "StoredEntry",
    "to_plain",
    "trace_checksum",
]

#: Bump to invalidate every existing entry (keys embed this version).
STORE_FORMAT = 2

_MAGIC = b"repro-runstore v1\n"
_SUFFIX = ".cell"


def to_plain(value: Any) -> Any:
    """``value`` with every dataclass turned into a dict of its fields.

    Equal to the standard library's ``asdict`` on the plain data that
    results, keys and documents hold (dataclasses, lists, tuples and
    dicts over ``str``/``int``/``float``/``bool``/``None`` leaves), but
    leaves are shared rather than deep-copied, and a scalar field costs
    no call: ``asdict`` was the largest cost of a warm service hit.
    """
    fields = getattr(type(value), "__dataclass_fields__", None)
    if fields is not None:
        plain = {}
        for name in fields:
            item = getattr(value, name)
            plain[name] = (
                item if isinstance(item, (str, int, float)) else to_plain(item)
            )
        return plain
    if isinstance(value, list):
        return [to_plain(item) for item in value]
    if isinstance(value, tuple):
        return tuple(map(to_plain, value))
    if isinstance(value, dict):
        return {to_plain(key): to_plain(item) for key, item in value.items()}
    return value


def trace_checksum(trace: AnyTrace) -> str:
    """Content digest of a trace in either representation.

    Object traces are packed first so both forms of the same stream
    digest identically.
    """
    return as_packed(trace).checksum()


@dataclass(frozen=True)
class StoredEntry:
    """One store file, as seen by ``repro runs``."""

    key: str
    path: Path
    size: int
    ok: bool
    error: str = ""
    meta: Optional[dict] = None

    @property
    def kind(self) -> str:
        return (self.meta or {}).get("kind", "?")

    @property
    def benchmark(self) -> str:
        return (self.meta or {}).get("benchmark", "?")

    @property
    def config(self) -> str:
        return (self.meta or {}).get("config", "?")


@dataclass(frozen=True)
class ScrubReport:
    """Outcome of a ``repro runs --scrub`` pass over the store.

    ``corrupt`` lists the keys whose embedded sha256 (or header) failed
    re-verification; ``quarantined`` the subset moved aside into the
    store's ``quarantine/`` directory rather than left in place.
    """

    checked: int
    ok: int
    corrupt: tuple[str, ...]
    quarantined: tuple[str, ...]
    errors: dict

    @property
    def clean(self) -> bool:
        return not self.corrupt

    def to_json(self) -> dict:
        return {
            "checked": self.checked,
            "ok": self.ok,
            "corrupt": list(self.corrupt),
            "quarantined": list(self.quarantined),
            "errors": dict(self.errors),
        }


@dataclass(frozen=True)
class StoreStats:
    """Aggregate shape of a run store (``repro runs`` / ``/v1/status``).

    ``by_kind`` maps payload kind (``cell``, ``table2``, ...) to
    ``{"entries": n, "bytes": b}``; corrupt entries are counted under
    their header's kind when the header survived, else under ``"?"``.
    """

    entries: int
    bytes: int
    ok: int
    corrupt: int
    by_kind: dict

    def to_json(self) -> dict:
        return {
            "entries": self.entries,
            "bytes": self.bytes,
            "ok": self.ok,
            "corrupt": self.corrupt,
            "by_kind": {
                kind: dict(counts)
                for kind, counts in sorted(self.by_kind.items())
            },
        }

    @classmethod
    def from_entries(cls, entries: Iterable[StoredEntry]) -> "StoreStats":
        entries = list(entries)
        by_kind: dict[str, dict] = {}
        for entry in entries:
            bucket = by_kind.setdefault(
                entry.kind, {"entries": 0, "bytes": 0}
            )
            bucket["entries"] += 1
            bucket["bytes"] += entry.size
        return cls(
            entries=len(entries),
            bytes=sum(entry.size for entry in entries),
            ok=sum(1 for entry in entries if entry.ok),
            corrupt=sum(1 for entry in entries if not entry.ok),
            by_kind=by_kind,
        )


class RunStore:
    """Directory of checksummed, atomically-written result cells."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def __repr__(self) -> str:
        return f"RunStore({str(self.root)!r})"

    # ------------------------------------------------------------------
    # keys

    def cell_key(
        self,
        kind: str,
        benchmark: str,
        config: str,
        *,
        scale: Scale,
        machine: MachineParams,
        mechanisms: tuple[str, ...] = (),
        classify_misses: bool = False,
        digests: Iterable[str] = (),
    ) -> str:
        """Deterministic content-addressed key for one grid cell."""
        identity = {
            "format": STORE_FORMAT,
            "kind": kind,
            "benchmark": benchmark,
            "config": config,
            "scale": to_plain(scale),
            "machine": to_plain(machine),
            "mechanisms": list(mechanisms),
            "classify_misses": bool(classify_misses),
            "digests": list(digests),
        }
        blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
        digest = hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()
        return f"{kind}-{_slug(benchmark)}-{_slug(config)}-{digest}"

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}{_SUFFIX}"

    # ------------------------------------------------------------------
    # read/write

    def put(self, key: str, payload: Any, meta: Optional[dict] = None) -> Path:
        """Persist one cell atomically (temp file + rename)."""
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        header = dict(meta or {})
        header["sha256"] = hashlib.sha256(data).hexdigest()
        header["size"] = len(data)
        header["created"] = time.time()
        path = self.path_for(key)
        tmp = self.root / f".{key}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as handle:
                handle.write(_MAGIC)
                handle.write(json.dumps(header, sort_keys=True).encode())
                handle.write(b"\n")
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # publish failed; don't leave droppings
                tmp.unlink()
        return path

    def _read(self, key: str) -> tuple[Optional[dict], Any, str]:
        """(meta, payload, error); error is "" only on a verified read."""
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None, None, "missing"
        if not raw.startswith(_MAGIC):
            return None, None, "bad magic"
        body = raw[len(_MAGIC):]
        newline = body.find(b"\n")
        if newline < 0:
            return None, None, "truncated header"
        try:
            meta = json.loads(body[:newline])
        except ValueError:
            return None, None, "unparseable header"
        data = body[newline + 1:]
        if len(data) != meta.get("size"):
            return meta, None, (
                f"payload size mismatch: {len(data)} != {meta.get('size')}"
            )
        if hashlib.sha256(data).hexdigest() != meta.get("sha256"):
            return meta, None, "payload checksum mismatch"
        try:
            payload = pickle.loads(data)
        except Exception as exc:
            return meta, None, f"unpicklable payload: {exc}"
        return meta, payload, ""

    def get(self, key: str) -> Any:
        """The stored payload, or None if missing or failing verification.

        Corruption is deliberately indistinguishable from absence for
        callers: the sweep recomputes the cell either way.  ``repro
        runs`` surfaces the difference for humans via :meth:`entries`.
        """
        _, payload, error = self._read(key)
        return payload if not error else None

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def delete(self, key: str) -> bool:
        path = self.path_for(key)
        try:
            path.unlink()
            return True
        except FileNotFoundError:
            return False

    # ------------------------------------------------------------------
    # maintenance / listing

    def keys(self) -> list[str]:
        return sorted(
            path.name[: -len(_SUFFIX)]
            for path in self.root.glob(f"*{_SUFFIX}")
        )

    def entries(self) -> list[StoredEntry]:
        """Every entry, verified — what ``repro runs`` renders."""
        out = []
        for key in self.keys():
            meta, _, error = self._read(key)
            out.append(
                StoredEntry(
                    key=key,
                    path=self.path_for(key),
                    size=self.path_for(key).stat().st_size,
                    ok=not error,
                    error=error,
                    meta=meta,
                )
            )
        return out

    def stats(self) -> StoreStats:
        """Entry count, bytes on disk, and per-kind breakdown (verified)."""
        return StoreStats.from_entries(self.entries())

    def purge_corrupt(self) -> list[str]:
        """Delete entries failing verification; returns their keys."""
        removed = []
        for entry in self.entries():
            if not entry.ok:
                self.delete(entry.key)
                removed.append(entry.key)
        return removed

    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def scrub(self, quarantine: bool = False) -> ScrubReport:
        """Proactively re-verify every entry's embedded sha256.

        Reads normally detect corruption lazily — a rotted entry costs
        a recompute whenever it is next requested.  ``scrub`` walks the
        whole store up front (``repro runs --scrub``) so operators
        learn about damage before a sweep trips over it.  With
        ``quarantine=True`` corrupt entries are moved (atomic rename)
        into ``quarantine/`` under the store root, out of the key
        namespace but preserved for forensics; without it they are only
        reported.
        """
        corrupt: list[str] = []
        quarantined: list[str] = []
        errors: dict[str, str] = {}
        checked = 0
        for key in self.keys():
            checked += 1
            _, _, error = self._read(key)
            if not error:
                continue
            corrupt.append(key)
            errors[key] = error
            if quarantine:
                target_dir = self.quarantine_dir()
                target_dir.mkdir(parents=True, exist_ok=True)
                source = self.path_for(key)
                try:
                    os.replace(source, target_dir / source.name)
                except FileNotFoundError:
                    continue  # raced with a concurrent delete
                quarantined.append(key)
        return ScrubReport(
            checked=checked,
            ok=checked - len(corrupt),
            corrupt=tuple(corrupt),
            quarantined=tuple(quarantined),
            errors=errors,
        )


def _slug(text: str) -> str:
    """Filename-safe version of a benchmark/configuration name."""
    return "".join(
        ch if ch.isalnum() or ch in "-_" else "_" for ch in text
    ).strip("_") or "x"
