"""End-to-end recovery: every fault kind against the hardened sweep.

These tests drive the fault-injection harness (:mod:`repro.core.faults`)
through the scheduler and the run store, proving each recovery path the
same way the static verify suite proved the compiler:

* a sweep killed mid-grid (worker ``os._exit``) resumes from the store
  to a result **bit-identical** to an uninterrupted serial run — this
  extends the serial/parallel determinism pin of
  tests/cpu/test_packed_equivalence.py and tests/core/test_parallel.py
  to the checkpoint/resume path;
* transient crashes and raises are absorbed by bounded retry;
* permanent failures degrade to a structured
  :class:`~repro.core.parallel.CellFailure` with the rest of the suite
  intact;
* hung workers are killed at the per-cell timeout;
* corrupted store entries are rejected by checksum verification and
  recomputed;
* an unusable worker pool falls back to in-process execution.
"""

from __future__ import annotations

import pytest

import repro.core.parallel as parallel
from repro.core.faults import FaultPlan
from repro.core.parallel import CellFailure, SweepInterrupted, run_grid
from repro.core.runner import run_suite
from repro.core.runstore import RunStore
from repro.core.versions import prepare_codes
from repro.params import SENSITIVITY_CONFIGS, base_config
from repro.workloads.base import TINY
from repro.workloads.registry import get_spec

BENCHMARKS = ["vpenta", "compress"]
CONFIG_NAME = "Base Confg."
CONFIGS = {CONFIG_NAME: SENSITIVITY_CONFIGS[CONFIG_NAME]}
MECHANISMS = ("bypass",)
#: Fast-failure knobs shared by every sweep in this module.
FAST = dict(
    benchmarks=BENCHMARKS,
    configs=CONFIGS,
    mechanisms=MECHANISMS,
)


@pytest.fixture(scope="module")
def reference_suite():
    """The uninterrupted serial run every recovery must reproduce."""
    return run_suite(TINY, jobs=1, **FAST)


def assert_suites_equal(actual, expected):
    assert actual.config_names() == expected.config_names()
    for config_name in expected.sweeps:
        expected_sweep = expected.sweep(config_name)
        actual_sweep = actual.sweep(config_name)
        assert list(actual_sweep.runs) == list(expected_sweep.runs)
        for name, expected_run in expected_sweep.runs.items():
            actual_run = actual_sweep.runs[name]
            assert actual_run.version_keys() == expected_run.version_keys()
            for key in expected_run.version_keys():
                assert actual_run.results[key] == expected_run.results[key], (
                    f"{config_name}/{name}/{key}"
                )


class TestKilledSweepResumes:
    def test_os_exit_mid_grid_then_resume_is_bit_identical(
        self, tmp_path, reference_suite
    ):
        """The acceptance scenario: kill, resume, compare bit-for-bit."""
        store = RunStore(tmp_path / "store")
        reference_machine = base_config().scaled(TINY.machine_divisor)
        machines = {
            name: factory().scaled(TINY.machine_divisor)
            for name, factory in CONFIGS.items()
        }
        # One worker executes cells in order, so vpenta's cell completes
        # and checkpoints before compress's worker os._exits; raise mode
        # with no retries then kills the sweep mid-grid.
        with pytest.raises(SweepInterrupted) as excinfo:
            run_grid(
                [get_spec(name) for name in BENCHMARKS],
                machines,
                prepare=lambda spec: prepare_codes(
                    spec, TINY, reference_machine
                ),
                mechanisms=MECHANISMS,
                jobs=1,
                store=store,
                retries=0,
                faults=FaultPlan.parse("exit:compress:*"),
                on_failure="raise",
            )
        assert excinfo.value.failure.kind == "crash"
        assert excinfo.value.failure.benchmark == "compress"
        entries = store.entries()
        assert [e.benchmark for e in entries if e.ok] == ["vpenta"]

        # Resume without faults: vpenta restored, compress computed.
        messages: list[str] = []
        resumed = run_suite(
            TINY,
            jobs=2,
            store=store,
            resume=True,
            progress=messages.append,
            **FAST,
        )
        assert resumed.complete
        restored = [m for m in messages if "restored from store" in m]
        assert len(restored) == 1 and "vpenta" in restored[0]
        assert_suites_equal(resumed, reference_suite)

    def test_resume_false_recomputes_and_overwrites(
        self, tmp_path, reference_suite
    ):
        store = RunStore(tmp_path / "store")
        run_suite(TINY, jobs=2, store=store, **FAST)
        messages: list[str] = []
        rerun = run_suite(
            TINY,
            jobs=2,
            store=store,
            resume=False,
            progress=messages.append,
            **FAST,
        )
        assert not any("restored" in m for m in messages)
        assert_suites_equal(rerun, reference_suite)

    def test_serial_path_checkpoints_and_resumes(
        self, tmp_path, reference_suite
    ):
        store = RunStore(tmp_path / "store")
        first = run_suite(TINY, jobs=1, store=store, **FAST)
        assert len([e for e in store.entries() if e.ok]) == len(BENCHMARKS)
        messages: list[str] = []
        resumed = run_suite(
            TINY, jobs=1, store=store, progress=messages.append, **FAST
        )
        assert sum("restored from store" in m for m in messages) == len(
            BENCHMARKS
        )
        assert_suites_equal(first, reference_suite)
        assert_suites_equal(resumed, reference_suite)

    def test_serial_store_and_resume_every_version_both_configs(
        self, tmp_path
    ):
        """Every version key (both assists) on two machines round-trips
        the store: a checkpointing run and a resume from it both equal
        a store-less run."""
        grid = dict(
            benchmarks=BENCHMARKS,
            configs={
                name: SENSITIVITY_CONFIGS[name]
                for name in ("Base Confg.", "Higher Mem. Lat.")
            },
        )
        reference = run_suite(TINY, jobs=1, **grid)
        store = RunStore(tmp_path / "store")
        first = run_suite(TINY, jobs=1, store=store, **grid)
        resumed = run_suite(TINY, jobs=1, store=store, **grid)
        assert len([e for e in store.entries() if e.ok]) == 4
        assert_suites_equal(first, reference)
        assert_suites_equal(resumed, reference)


class TestRetry:
    def test_transient_worker_exit_recovered(self, reference_suite):
        suite = run_suite(
            TINY,
            jobs=2,
            retries=2,
            backoff=0.05,
            faults=FaultPlan.parse("exit:vpenta:*:1"),
            **FAST,
        )
        assert suite.complete
        assert_suites_equal(suite, reference_suite)

    def test_transient_raise_recovered(self, reference_suite):
        suite = run_suite(
            TINY,
            jobs=2,
            retries=1,
            backoff=0.05,
            faults=FaultPlan.parse("raise:compress:*:1"),
            **FAST,
        )
        assert suite.complete
        assert_suites_equal(suite, reference_suite)


class TestGracefulDegradation:
    def test_exhausted_retries_yield_structured_failure(
        self, reference_suite
    ):
        suite = run_suite(
            TINY,
            jobs=2,
            retries=1,
            backoff=0.05,
            faults=FaultPlan.parse("raise:vpenta:*"),
            **FAST,
        )
        assert not suite.complete
        (failure,) = suite.failures
        assert isinstance(failure, CellFailure)
        assert failure.kind == "error"
        assert failure.benchmark == "vpenta"
        assert failure.config == CONFIG_NAME
        assert failure.attempts == 2
        assert "FaultInjected" in failure.message
        assert "vpenta" in suite.failure_report()
        # The surviving benchmark is still bit-identical.
        sweep = suite.sweep(CONFIG_NAME)
        assert list(sweep.runs) == ["compress"]
        assert (
            sweep.runs["compress"].results
            == reference_suite.sweep(CONFIG_NAME).runs["compress"].results
        )

    def test_hung_worker_killed_at_timeout(self):
        suite = run_suite(
            TINY,
            benchmarks=["vpenta"],
            configs=CONFIGS,
            mechanisms=MECHANISMS,
            jobs=2,
            retries=0,
            timeout=2.0,
            faults=FaultPlan.parse("hang:vpenta:*"),
        )
        (failure,) = suite.failures
        assert failure.kind == "timeout"
        assert failure.attempts == 1
        assert "timeout" in failure.message
        # The timed-out cell ran for at least the timeout; its report
        # carries what the dead cell actually cost.
        assert failure.duration >= 2.0
        assert f"in {failure.duration:.1f}s" in failure.describe()

    def test_broken_pool_falls_back_in_process(
        self, monkeypatch, reference_suite
    ):
        def broken(fn, task):
            raise OSError("fork failed (simulated)")

        monkeypatch.setattr(parallel, "_start_worker", broken)
        messages: list[str] = []
        suite = run_suite(
            TINY, jobs=2, progress=messages.append, **FAST
        )
        assert suite.complete
        assert any("in-process" in m for m in messages)
        assert_suites_equal(suite, reference_suite)


class TestCorruptStore:
    def test_corrupt_entry_rejected_and_recomputed(
        self, tmp_path, reference_suite
    ):
        store = RunStore(tmp_path / "store")
        first = run_suite(
            TINY,
            jobs=2,
            store=store,
            faults=FaultPlan.parse("corrupt:vpenta:*"),
            **FAST,
        )
        # In-memory results are unaffected; only the checkpoint is bad.
        assert_suites_equal(first, reference_suite)
        bad = [e for e in store.entries() if not e.ok]
        assert [e.benchmark for e in bad] == ["vpenta"]

        messages: list[str] = []
        resumed = run_suite(
            TINY,
            jobs=2,
            store=store,
            resume=True,
            progress=messages.append,
            **FAST,
        )
        restored = [m for m in messages if "restored from store" in m]
        assert len(restored) == 1 and "compress" in restored[0]
        assert_suites_equal(resumed, reference_suite)
        # The recompute re-checkpointed a good entry.
        assert all(e.ok for e in store.entries())
