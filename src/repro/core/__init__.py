"""The integrated selective framework and experiment drivers.

This package glues everything together the way Sections 4.3/4.4
describe: it builds the three code versions of each benchmark (base,
optimized, optimized+markers), attaches the chosen hardware mechanism,
and times the four simulated versions — *Pure Hardware*, *Pure
Software*, *Combined*, and *Selective* — against any machine
configuration.
"""

from repro.core.experiment import (
    BenchmarkRun,
    expected_version_keys,
    run_benchmark,
)
from repro.core.faults import FaultInjected, FaultPlan
from repro.core.parallel import CellFailure, SweepInterrupted, resolve_jobs
from repro.core.runner import (
    SuiteResult,
    run_benchmark_parallel,
    run_grid,
    run_suite,
)
from repro.core.runstore import RunStore, trace_checksum
from repro.core.sweep import SweepResult, run_sweep
from repro.core.versions import (
    BYPASS,
    MECHANISMS,
    VERSIONS,
    VICTIM,
    BenchmarkCodes,
    prepare_codes,
)

__all__ = [
    "BYPASS",
    "BenchmarkCodes",
    "BenchmarkRun",
    "CellFailure",
    "FaultInjected",
    "FaultPlan",
    "MECHANISMS",
    "RunStore",
    "SuiteResult",
    "SweepInterrupted",
    "SweepResult",
    "VERSIONS",
    "VICTIM",
    "expected_version_keys",
    "prepare_codes",
    "resolve_jobs",
    "run_benchmark",
    "run_benchmark_parallel",
    "run_grid",
    "run_suite",
    "run_sweep",
    "trace_checksum",
]
