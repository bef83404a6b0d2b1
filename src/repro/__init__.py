"""repro — a reproduction of Memik et al., "An Integrated Approach for
Improving Cache Behavior" (DATE 2003).

The package implements the paper's full stack from scratch:

* a multi-level cache/TLB/DRAM substrate to which a hardware assist
  attaches as a fill placer or a miss-stream filter
  (:mod:`repro.memory`);
* the two run-time locality mechanisms — MAT/SLDT cache bypassing and
  victim caching — gateable by activate/deactivate instructions
  (:mod:`repro.hwopt`);
* a trace-driven out-of-order timing model (:mod:`repro.cpu`,
  :mod:`repro.isa`);
* the compiler framework: executable loop-nest IR, reference
  classification, region detection with ON/OFF marker insertion, and
  the locality transformations — interchange, layout selection,
  padding, tiling, unroll-and-jam, scalar replacement
  (:mod:`repro.compiler`);
* a quantitative locality model — exact LRU stack (reuse) distances
  of a whole trace in one numpy pass, whole-curve miss-ratio
  prediction, per-region profiles, and a model-driven ON/OFF gating
  policy (:mod:`repro.locality`, :mod:`repro.hwopt.policy`);
* the 13-benchmark workload suite (:mod:`repro.workloads`), experiment
  drivers (:mod:`repro.core`) and the table/figure reproduction
  harness (:mod:`repro.evaluation`).

Quick start::

    from repro import run_suite, SMALL, base_config
    suite = run_suite(SMALL, benchmarks=["vpenta", "perl", "tpcd_q1"],
                      configs={"Base Confg.": base_config})
    sweep = suite.sweep("Base Confg.")
    print(sweep.improvements("selective/bypass"))
"""

from repro.compiler import (
    LocalityOptimizer,
    OptimizationReport,
    VerificationError,
    VerifyReport,
    verify_program,
)
from repro.compiler.regions import detect_regions, insert_markers
from repro.core import (
    BenchmarkCodes,
    BenchmarkRun,
    SuiteResult,
    SweepResult,
    prepare_codes,
    run_benchmark,
    run_suite,
    run_sweep,
)
from repro.cpu import CPUSimulator, SimulationResult
from repro.hwopt import (
    CacheBypassAssist,
    HardwareGate,
    VictimCacheAssist,
    recommend_gating,
)
from repro.isa import Instruction, Opcode, Trace, TraceBuilder
from repro.locality import (
    MissRatioCurve,
    distance_histogram,
    split_profiles,
    stack_distances,
)
from repro.memory import MemoryHierarchy
from repro.params import (
    SENSITIVITY_CONFIGS,
    MachineParams,
    base_config,
    higher_l1_assoc,
    higher_l2_assoc,
    higher_mem_latency,
    larger_l1,
    larger_l2,
)
from repro.tracegen import TraceGenerator
from repro.workloads import MEDIUM, SMALL, TINY, Scale, all_specs, get_spec

__version__ = "1.0.0"

__all__ = [
    "BenchmarkCodes",
    "BenchmarkRun",
    "CPUSimulator",
    "CacheBypassAssist",
    "HardwareGate",
    "Instruction",
    "LocalityOptimizer",
    "MEDIUM",
    "MachineParams",
    "MemoryHierarchy",
    "MissRatioCurve",
    "Opcode",
    "OptimizationReport",
    "SENSITIVITY_CONFIGS",
    "SMALL",
    "Scale",
    "SimulationResult",
    "SuiteResult",
    "SweepResult",
    "TINY",
    "Trace",
    "TraceBuilder",
    "TraceGenerator",
    "VerificationError",
    "VerifyReport",
    "VictimCacheAssist",
    "all_specs",
    "base_config",
    "detect_regions",
    "distance_histogram",
    "get_spec",
    "higher_l1_assoc",
    "higher_l2_assoc",
    "higher_mem_latency",
    "insert_markers",
    "larger_l1",
    "larger_l2",
    "prepare_codes",
    "recommend_gating",
    "run_benchmark",
    "run_suite",
    "run_sweep",
    "split_profiles",
    "stack_distances",
    "verify_program",
]
