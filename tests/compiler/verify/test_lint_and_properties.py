"""The lint driver, the CLI wiring, the optimizer hook, and the
Hypothesis differential property: whatever the real pipeline emits,
the independent verifier accepts — and seeded corruption, it rejects.
"""

from hypothesis import given, settings

from repro.cli import main
from repro.compiler.ir.stmts import MarkerStmt
from repro.compiler.optimizer import LocalityOptimizer
from repro.compiler.regions.markers import insert_markers
from repro.compiler.verify import VerificationError, verify_program
from repro.compiler.verify.lint import (
    LintResult,
    lint_benchmark,
    lint_registry,
    render_lint,
)
from repro.compiler.verify.markers import _marker_sites
from repro.params import base_config
from repro.workloads.base import TINY

from tests.compiler.test_marker_properties import build_program, region_tree


def test_lint_benchmark_produces_clean_rows():
    rows = lint_benchmark("vpenta", TINY)
    assert [row.variant for row in rows] == ["base", "selective"]
    assert all(row.status() == "ok" for row in rows)
    assert rows[1].report.nests_audited > 0
    assert rows[1].report.refs_checked > 0


def test_lint_registry_subset_and_render():
    result = lint_registry(TINY, ["tpcd_q6", "chaos"])
    assert len(result.rows) == 4
    assert result.ok(strict=True)
    rendered = render_lint(result, strict=True)
    assert "clean" in rendered
    assert "tpcd_q6" in rendered and "chaos" in rendered


def test_lint_registry_every_benchmark_strict_clean():
    """Both variants of all 13 benchmarks lint strict-clean."""
    result = lint_registry(TINY)
    assert len(result.rows) == 26
    assert result.ok(strict=True), render_lint(result, strict=True)


def test_render_lint_failure_verdict():
    rows = lint_benchmark("perl", TINY)
    from repro.compiler.verify.diagnostics import Diagnostic

    rows[0].report.diagnostics.append(
        Diagnostic("perl", "structure", "loop x", "seeded failure")
    )
    result = LintResult(rows=rows)
    assert not result.ok()
    rendered = render_lint(result)
    assert "FAILED" in rendered
    assert "seeded failure" in rendered
    assert "FAIL" in rendered.splitlines()[1]


def test_cli_lint_exits_zero(capsys):
    assert main(["--scale", "tiny", "lint", "tpcd_q6"]) == 0
    out = capsys.readouterr().out
    assert "tpcd_q6" in out
    assert "clean" in out


def test_cli_lint_strict_exits_zero(capsys):
    assert main(["--scale", "tiny", "lint", "--strict", "li"]) == 0
    assert "(strict)" in capsys.readouterr().out


def test_optimizer_verify_flag_fills_report():
    program = build_program(("sw", "hw"))
    insert_markers(program)
    report = LocalityOptimizer(base_config()).optimize(program, verify=True)
    assert report.verification is not None
    assert report.verification.ok(strict=True)


def test_optimizer_verify_flag_raises_on_corruption():
    program = build_program(("sw", "hw"))
    insert_markers(program)
    container, index, marker, _ancestors = _marker_sites(program)[0]
    container[index] = MarkerStmt("off" if marker.activates else "on")
    try:
        LocalityOptimizer(base_config()).optimize(program, verify=True)
    except VerificationError as caught:
        assert caught.report.errors
        assert "markers" in str(caught)
    else:
        raise AssertionError("corrupted program verified clean")


@given(region_tree)
@settings(max_examples=40, deadline=None)
def test_differential_pipeline_always_verifies(tree):
    """insert_markers + full optimization never produces a program the
    independent verifier rejects — for any region structure."""
    program = build_program(tree)
    insert_markers(program)
    baseline = program.clone()
    report = LocalityOptimizer(base_config()).optimize(program)
    result = verify_program(program, report=report, baseline=baseline)
    assert not result.errors, [str(d) for d in result.errors]
    # The emitter's elimination is exactly minimal, so the minimality
    # probe must stay silent too.
    assert not result.warnings, [str(d) for d in result.warnings]


@given(region_tree)
@settings(max_examples=25, deadline=None)
def test_differential_every_marker_is_load_bearing(tree):
    """Deleting any single emitted marker must break verification —
    the dual of the minimality warning staying silent above."""
    program = build_program(tree)
    insert_markers(program)
    from repro.compiler.verify import verify_markers

    for container, index, marker, _ancestors in _marker_sites(program):
        del container[index]
        try:
            diags = verify_markers(program, check_minimality=False)
            assert any(d.severity == "error" for d in diags)
        finally:
            container.insert(index, marker)
