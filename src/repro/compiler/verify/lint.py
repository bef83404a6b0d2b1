"""Registry-wide lint driver behind ``python -m repro lint``.

For every benchmark two variants are verified:

* **base** — the program exactly as the workload builder wrote it
  (structure and bounds must hold before any tool touches it);
* **selective** — the program after marker insertion *and* the full
  locality-optimization pipeline, the order the experiment drivers use
  (:func:`repro.core.versions.prepare_codes`), verified with all four
  analyses including the legality replay against a pristine baseline.

Lint is purely static: no traces are generated and no simulation runs,
so linting the whole suite costs a fraction of a single benchmark run
(0.16 s at TINY, 0.59 s at SMALL, best of 3 on a 2-vCPU Xeon).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.compiler.optimizer import LocalityOptimizer
from repro.compiler.regions.markers import insert_markers
from repro.compiler.verify.program import verify_program
from repro.compiler.verify.diagnostics import Diagnostic, VerifyReport
from repro.params import base_config
from repro.workloads.base import Scale
from repro.workloads.registry import all_specs, get_spec

__all__ = ["LintRow", "lint_registry", "render_lint"]


@dataclass
class LintRow:
    """Verification outcome of one benchmark variant."""

    benchmark: str
    variant: str  # "base" | "selective"
    report: VerifyReport
    markers: int = 0

    @property
    def diagnostics(self) -> list[Diagnostic]:
        return self.report.diagnostics

    def status(self, strict: bool = False) -> str:
        if self.report.ok(strict=True):
            return "ok"
        if self.report.ok(strict=strict):
            return "warn"
        return "FAIL"


@dataclass
class LintResult:
    """Everything one lint invocation produced."""

    rows: list[LintRow] = field(default_factory=list)

    @property
    def diagnostics(self) -> list[Diagnostic]:
        return [d for row in self.rows for d in row.diagnostics]

    def ok(self, strict: bool = False) -> bool:
        return all(row.report.ok(strict) for row in self.rows)


def lint_benchmark(name: str, scale: Scale) -> list[LintRow]:
    """Verify the base and optimized+marked variants of one benchmark."""
    spec = get_spec(name)
    machine = base_config().scaled(scale.machine_divisor)

    base_program = spec.instantiate(scale)
    base_report = verify_program(base_program)
    rows = [LintRow(name, "base", base_report)]

    selective = spec.instantiate(scale)
    insert_markers(selective)
    baseline = selective.clone()
    optimization = LocalityOptimizer(machine).optimize(selective)
    selective_report = verify_program(
        selective, report=optimization, baseline=baseline
    )
    rows.append(
        LintRow(
            name,
            "selective",
            selective_report,
            markers=len(selective.markers()),
        )
    )
    return rows


def lint_registry(
    scale: Scale, names: Optional[Sequence[str]] = None
) -> LintResult:
    """Lint every benchmark (or the given subset) at ``scale``."""
    result = LintResult()
    for name in names or [spec.name for spec in all_specs()]:
        result.rows.extend(lint_benchmark(name, scale))
    return result


def render_lint(result: LintResult, strict: bool = False) -> str:
    """Human-readable lint table plus every diagnostic."""
    lines = [
        f"{'benchmark':<10} {'variant':<10} {'status':<7} "
        f"{'refs':>6} {'markers':>8} {'nests':>6}  findings"
    ]
    for row in result.rows:
        report = row.report
        findings = (
            ", ".join(
                f"{count} {analysis}"
                for analysis, count in sorted(report.by_analysis().items())
            )
            or "-"
        )
        lines.append(
            f"{row.benchmark:<10} {row.variant:<10} "
            f"{row.status(strict):<7} {report.refs_checked:>6} "
            f"{row.markers:>8} {report.nests_audited:>6}  {findings}"
        )
    for diagnostic in result.diagnostics:
        lines.append(str(diagnostic))
    checked = len(result.rows)
    verdict = "clean" if result.ok(strict) else "FAILED"
    mode = " (strict)" if strict else ""
    lines.append(
        f"{checked} program variant(s) verified{mode}: {verdict}, "
        f"{len(result.diagnostics)} diagnostic(s)"
    )
    return "\n".join(lines)
