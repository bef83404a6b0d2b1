"""Whole-program container."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterator

from repro.compiler.ir.loops import Loop, Node
from repro.compiler.ir.refs import ArrayDecl
from repro.compiler.ir.stmts import MarkerStmt, Statement

__all__ = ["Program"]


@dataclass
class Program:
    """A program: array declarations plus a top-level statement/loop list.

    Programs are the unit the paper's framework operates on: region
    detection annotates the loops, the locality optimizer rewrites the
    analyzable nests, marker insertion adds ON/OFF statements, and the
    executor (:mod:`repro.tracegen`) runs the result into a
    trace.
    """

    name: str
    arrays: dict[str, ArrayDecl] = field(default_factory=dict)
    body: list[Node] = field(default_factory=list)

    def __post_init__(self) -> None:
        for name, decl in self.arrays.items():
            if name != decl.name:
                raise ValueError(
                    f"array registered as {name} but declared as {decl.name}"
                )

    def add_array(self, decl: ArrayDecl) -> ArrayDecl:
        if decl.name in self.arrays:
            raise ValueError(f"array {decl.name} already declared")
        self.arrays[decl.name] = decl
        return decl

    # -- traversal -------------------------------------------------------

    def walk(self) -> Iterator[Node]:
        """Pre-order traversal of the whole program."""
        for child in self.body:
            if isinstance(child, Loop):
                yield from child.walk()
            else:
                yield child

    def loops(self) -> Iterator[Loop]:
        for node in self.walk():
            if isinstance(node, Loop):
                yield node

    def top_level_loops(self) -> list[Loop]:
        return [node for node in self.body if isinstance(node, Loop)]

    def all_statements(self) -> Iterator[Statement]:
        for node in self.walk():
            if isinstance(node, Statement):
                yield node

    def markers(self) -> list[MarkerStmt]:
        return [node for node in self.walk() if isinstance(node, MarkerStmt)]

    # -- copying -----------------------------------------------------------

    def clone(self) -> "Program":
        """Deep copy for independent transformation.

        Run-time data arrays (index contents, pointer successors) are
        shared between clones — they are read-only inputs, and copying
        them would waste memory.  Aliasing between references and the
        declarations in ``arrays`` is preserved, so in-place layout
        changes on a clone affect every reference of that clone only.
        """
        memo: dict[int, object] = {}
        for decl in self.arrays.values():
            if decl.data is not None:
                memo[id(decl.data)] = decl.data
        return copy.deepcopy(self, memo)

    def total_footprint_bytes(self) -> int:
        return sum(decl.footprint_bytes for decl in self.arrays.values())

    def __repr__(self) -> str:
        return (
            f"Program({self.name}, {len(self.arrays)} arrays, "
            f"{len(self.body)} top-level nodes)"
        )
