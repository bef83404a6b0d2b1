"""The failure contracts of the service's single-flight builds.

Preparation and analysis each build a value once per (benchmark,
scale), with concurrent callers awaiting the first build.  When the
build fails, its builder sees its own exception, and each waiter:

* of a preparation, a ``RuntimeError`` naming the failure;
* of an analysis that failed on an unknown benchmark (``KeyError``), a
  400 with the same message; of any other failed analysis, a
  ``RuntimeError``.

A failed build is never kept: the next call builds again.  A builder
and two waiters arrive while the build is held open.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

import repro.service.server as server
from repro.service.server import ServiceConfig, SweepService, _BadRequest
from repro.workloads.base import TINY


def _held(error):
    """A build that raises ``error`` once ``release`` is set."""
    release = threading.Event()

    def build(*args):
        release.wait(10)
        raise error

    return build, release


def _three_callers(tmp_path, call, release):
    """Run ``call(service)`` three times at once, the first being the
    builder; release the build only once all three wait on it.  Returns
    the three outcomes and the service."""
    service = SweepService(ServiceConfig(store=tmp_path, jobs=1, scale=TINY))

    async def main():
        service.attach(asyncio.get_running_loop())
        tasks = [asyncio.ensure_future(call(service)) for _ in range(3)]
        await asyncio.sleep(0.05)
        assert not any(task.done() for task in tasks)
        release.set()
        return await asyncio.gather(*tasks, return_exceptions=True)

    try:
        return asyncio.run(main()), service
    finally:
        service.close()


def _prepare(service):
    return service._prepared("vpenta", TINY)


def _analyse(service):
    return service._analysis("vpenta", TINY)


def test_failed_preparation_gives_waiters_a_runtime_error(
    tmp_path, monkeypatch
):
    build, release = _held(ValueError("no codes"))
    monkeypatch.setattr(server, "prepare_codes", build)
    (builder, *waiters), service = _three_callers(tmp_path, _prepare, release)
    assert type(builder) is ValueError and str(builder) == "no codes"
    for waiter in waiters:
        assert type(waiter) is RuntimeError
        assert str(waiter) == "ValueError: no codes"
    assert len(service._prepares) == 0
    assert service.metrics["prepares"] == 1


def test_unknown_benchmark_analysis_gives_everyone_a_400(
    tmp_path, monkeypatch
):
    build, release = _held(KeyError("unknown benchmark 'vpenta'"))
    monkeypatch.setattr(server, "predict_benchmark", build)
    outcomes, service = _three_callers(tmp_path, _analyse, release)
    for outcome in outcomes:
        assert type(outcome) is _BadRequest
        assert str(outcome) == "unknown benchmark 'vpenta'"
    assert len(service._analyses) == 0
    assert service.metrics["predicts"] == 1


def test_failed_analysis_gives_waiters_a_runtime_error(
    tmp_path, monkeypatch
):
    build, release = _held(ZeroDivisionError("empty region"))
    monkeypatch.setattr(server, "predict_benchmark", build)
    (builder, *waiters), service = _three_callers(tmp_path, _analyse, release)
    assert type(builder) is ZeroDivisionError
    for waiter in waiters:
        assert type(waiter) is RuntimeError
        assert str(waiter) == "ZeroDivisionError: empty region"
    assert len(service._analyses) == 0


def test_failed_build_is_not_kept(tmp_path, monkeypatch):
    """After a failed analysis the next call builds again, and its
    success is then served without another build."""
    calls = []

    def build(*args):
        calls.append(args)
        if len(calls) == 1:
            raise ZeroDivisionError("flaky")
        return {"ok": 1}

    monkeypatch.setattr(server, "predict_benchmark", build)
    service = SweepService(ServiceConfig(store=tmp_path, jobs=1, scale=TINY))

    async def main():
        service.attach(asyncio.get_running_loop())
        with pytest.raises(ZeroDivisionError):
            await _analyse(service)
        return [await _analyse(service) for _ in range(2)]

    try:
        assert asyncio.run(main()) == [{"ok": 1}, {"ok": 1}]
    finally:
        service.close()
    assert len(calls) == service.metrics["predicts"] == 2
