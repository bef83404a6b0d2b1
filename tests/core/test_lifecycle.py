"""One cell lifecycle for every job count and every fan-out caller.

Every set of cells runs through :func:`repro.core.parallel.run_cells`:
the ``jobs=1`` suite path, the forked grid, and the per-version,
Table 2 and locality fan-outs.  These tests pin what that buys:

* ``jobs=1`` keeps its exact progress lines, which downstream timing
  windows are cut from;
* a cell that raises at ``jobs=1`` degrades (or aborts) like any other
  failed cell instead of escaping ``run_suite``;
* an aborted parallel sweep leaves no worker process behind;
* a worker that dies is retried in every fan-out caller.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time

import pytest

import repro.core.runner as runner
import repro.evaluation.table2 as table2
from repro.core import run_benchmark_parallel
from repro.core.faults import FaultPlan
from repro.core.parallel import CellFailure, SweepInterrupted
from repro.core.runner import run_suite
from repro.core.versions import prepare_codes
from repro.evaluation.locality import locality_rows
from repro.evaluation.table2 import table2_rows
from repro.params import SENSITIVITY_CONFIGS, base_config
from repro.workloads.base import TINY
from repro.workloads.registry import get_spec

BASE, SLOW = "Base Confg.", "Higher Mem. Lat."
CONFIGS = {name: SENSITIVITY_CONFIGS[name] for name in (BASE, SLOW)}
NAMES = ["vpenta", "tpcd_q3"]


class TestSerialProgress:
    def test_lines_precede_each_cell_and_nothing_follows(self, monkeypatch):
        events: list[str] = []
        real = runner.run_benchmark

        def observed(codes, *args):
            events.append(f"run {codes.name}")
            return real(codes, *args)

        monkeypatch.setattr(runner, "run_benchmark", observed)
        run_suite(
            TINY,
            benchmarks=["vpenta", "compress"],
            configs=CONFIGS,
            mechanisms=("bypass",),
            jobs=1,
            progress=events.append,
        )
        assert events == [
            "preparing vpenta",
            f"  vpenta on {BASE}",
            "run vpenta",
            f"  vpenta on {SLOW}",
            "run vpenta",
            "preparing compress",
            f"  compress on {BASE}",
            "run compress",
            f"  compress on {SLOW}",
            "run compress",
        ]


class TestSerialFailure:
    @pytest.fixture
    def vpenta_raises(self, monkeypatch):
        real = runner.run_benchmark

        def broken(codes, *args):
            if codes.name == "vpenta":
                raise RuntimeError("deliberate")
            return real(codes, *args)

        monkeypatch.setattr(runner, "run_benchmark", broken)

    def _suite(self, on_failure):
        return run_suite(
            TINY,
            benchmarks=["vpenta", "compress"],
            configs={BASE: SENSITIVITY_CONFIGS[BASE]},
            mechanisms=("bypass",),
            jobs=1,
            retries=1,
            backoff=0.01,
            on_failure=on_failure,
        )

    def test_recorded_as_cell_failure(self, vpenta_raises):
        suite = self._suite("record")
        (failure,) = suite.failures
        assert isinstance(failure, CellFailure)
        assert (failure.benchmark, failure.kind) == ("vpenta", "error")
        assert failure.attempts == 2
        assert "RuntimeError: deliberate" in failure.message
        assert list(suite.sweep(BASE).runs) == ["compress"]

    def test_raise_mode_interrupts(self, vpenta_raises):
        with pytest.raises(SweepInterrupted) as excinfo:
            self._suite("raise")
        assert excinfo.value.failure.benchmark == "vpenta"


class TestAbort:
    def test_interrupt_kills_in_flight_sibling(self):
        started = time.monotonic()
        with pytest.raises(SweepInterrupted):
            run_suite(
                TINY,
                benchmarks=["vpenta"],
                configs=CONFIGS,
                mechanisms=("bypass",),
                jobs=2,
                retries=0,
                faults=FaultPlan.parse(
                    f"raise:vpenta:{BASE};hang:vpenta:{SLOW}"
                ),
                on_failure="raise",
            )
        assert multiprocessing.active_children() == []
        # Killed through the cancel path, not waited out.
        assert time.monotonic() - started < 60.0


def _dies_once(real, marker):
    """``real``, except that the first call in a child process exits."""
    parent = os.getpid()

    def wrapper(*args, **kwargs):
        if os.getpid() != parent:
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os._exit(3)
        return real(*args, **kwargs)

    return wrapper


def _versions(jobs):
    machine = base_config().scaled(TINY.machine_divisor)
    codes = prepare_codes(get_spec("vpenta"), TINY, machine)
    return run_benchmark_parallel(
        codes, machine, mechanisms=("bypass",), jobs=jobs
    ).results


def _table2(jobs):
    return table2_rows(TINY, jobs=jobs)


def _locality(jobs):
    return locality_rows(TINY, NAMES, jobs=jobs)


class TestWorkerDeathRetried:
    @pytest.mark.parametrize(
        "caller, entry, run",
        [
            (run_benchmark_parallel, "simulate_trace", _versions),
            (table2_rows, "_characterize", _table2),
            (locality_rows, "locality_row", _locality),
        ],
        ids=["run_benchmark_parallel", "table2_rows", "locality_rows"],
    )
    def test_matches_serial(self, monkeypatch, tmp_path, caller, entry, run):
        monkeypatch.setattr(
            table2, "all_specs", lambda: [get_spec(name) for name in NAMES]
        )
        expected = run(1)
        module = sys.modules[caller.__module__]
        marker = tmp_path / "died"
        monkeypatch.setattr(
            module, entry, _dies_once(getattr(module, entry), marker)
        )
        assert run(2) == expected
        assert marker.exists()
