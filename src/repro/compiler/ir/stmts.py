"""Statements: the leaves of the loop-nest IR."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.compiler.ir.refs import Reference

__all__ = ["Statement", "MarkerStmt"]


@dataclass
class Statement:
    """One assignment-like statement.

    Executing it loads every reference in ``reads``, performs ``work``
    ALU instructions, and stores every reference in ``writes``.  The
    reference lists are ordered (the trace preserves program order).
    """

    reads: list[Reference] = field(default_factory=list)
    writes: list[Reference] = field(default_factory=list)
    work: int = 1
    label: Optional[str] = None
    #: Region preference ("sw"/"hw") — filled in by region detection for
    #: statements sandwiched between loops of differing preference
    #: (Section 2.2: "treated as if they are within an imaginary loop
    #: that iterates only once").
    preference: Optional[str] = None

    def __post_init__(self) -> None:
        if self.work < 0:
            raise ValueError("work must be non-negative")

    @property
    def references(self) -> list[Reference]:
        """All references in program order (reads then writes)."""
        return [*self.reads, *self.writes]

    def __repr__(self) -> str:
        name = self.label or "stmt"
        return (
            f"<{name}: {len(self.reads)}R {len(self.writes)}W "
            f"work={self.work}>"
        )


@dataclass
class MarkerStmt:
    """An activate (ON) or deactivate (OFF) instruction (Section 2.2).

    Inserted by :mod:`repro.compiler.regions.markers`; the executor
    turns it into a HW_ON / HW_OFF trace record which toggles the
    hardware mechanism at run time and costs one issue slot.
    """

    kind: str  # "on" | "off"

    def __post_init__(self) -> None:
        if self.kind not in ("on", "off"):
            raise ValueError(f"marker kind must be 'on'/'off', got {self.kind}")

    @property
    def activates(self) -> bool:
        return self.kind == "on"

    def __repr__(self) -> str:
        return f"<HW_{self.kind.upper()}>"
