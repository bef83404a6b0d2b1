"""The record-by-record IR interpreter, kept as the executor's oracle.

This is the walk :class:`repro.tracegen.interpreter.TraceGenerator`
used before it emitted columns a loop nest at a time: every loop
iteration, statement and reference is visited in program order and
appended through a :class:`repro.isa.trace.TraceBuilder`.  It shares
the generator's static layout (pc slots and scalar addresses) and
re-derives everything dynamic, so equality of the two traces checks
the nest-level executor record for record.
"""

from __future__ import annotations

from typing import Mapping

from repro.compiler.ir.loops import Loop, Node
from repro.compiler.ir.refs import (
    AffineRef,
    IndexedRef,
    NonAffineRef,
    PointerChaseRef,
    Reference,
    RegisterRef,
    ScalarRef,
)
from repro.compiler.ir.stmts import MarkerStmt, Statement
from repro.isa.packed import PackedTrace
from repro.isa.trace import TraceBuilder
from repro.tracegen.interpreter import TraceGenerator

__all__ = ["OracleGenerator"]


class OracleGenerator(TraceGenerator):
    """:class:`TraceGenerator` with the per-record walk as executor.

    After :meth:`generate_packed`, ``chains`` holds the pointer-chase
    state the walk ended with (chain name -> next node), like the
    executor's.
    """

    def generate_packed(self) -> PackedTrace:
        builder = TraceBuilder(self.trace_name)
        chains: dict[str, int] = {}
        self._exec_nodes(self.program.body, {}, builder, chains)
        self.chains = chains
        return builder.build_packed()

    def _exec_nodes(
        self,
        nodes: list[Node],
        bindings: dict[str, int],
        builder: TraceBuilder,
        chains: dict[str, int],
    ) -> None:
        for node in nodes:
            if isinstance(node, Loop):
                self._exec_loop(node, bindings, builder, chains)
            elif isinstance(node, Statement):
                self._exec_statement(node, bindings, builder, chains)
            elif isinstance(node, MarkerStmt):
                builder.set_pc(self._pcs[id(node)])
                if node.activates:
                    builder.hw_on()
                else:
                    builder.hw_off()
            else:  # pragma: no cover - IR is closed over these types
                raise TypeError(f"cannot execute {node!r}")

    def _exec_loop(
        self,
        loop: Loop,
        bindings: dict[str, int],
        builder: TraceBuilder,
        chains: dict[str, int],
    ) -> None:
        lower = loop.lower.eval(bindings)
        upper = loop.upper.eval(bindings)
        step = loop.step
        branch_pc = self._pcs[id(loop)]
        body = loop.body
        variable = loop.var
        for value in range(lower, upper, step):
            bindings[variable] = value
            self._exec_nodes(body, bindings, builder, chains)
            builder.set_pc(branch_pc)
            builder.alu(1)  # induction increment + compare
            builder.branch(value + step < upper)

    def _exec_statement(
        self,
        statement: Statement,
        bindings: Mapping[str, int],
        builder: TraceBuilder,
        chains: dict[str, int],
    ) -> None:
        builder.set_pc(self._pcs[id(statement)])
        for ref in statement.reads:
            self._touch(ref, bindings, builder, chains, is_write=False)
        if statement.work:
            builder.alu(statement.work)
        for ref in statement.writes:
            self._touch(ref, bindings, builder, chains, is_write=True)

    def _touch(
        self,
        ref: Reference,
        bindings: Mapping[str, int],
        builder: TraceBuilder,
        chains: dict[str, int],
        is_write: bool,
    ) -> None:
        emit = builder.store if is_write else builder.load
        if isinstance(ref, AffineRef):
            emit(ref.address(bindings))
        elif isinstance(ref, ScalarRef):
            emit(self._scalar_addrs[ref.name])
        elif isinstance(ref, RegisterRef):
            pass  # promoted to a register: no memory traffic
        elif isinstance(ref, IndexedRef):
            index_addr, data_addr = ref.addresses(bindings)
            builder.load(index_addr)  # the subscript load is always a read
            emit(data_addr)
        elif isinstance(ref, PointerChaseRef):
            node = chains.get(ref.chain, 0)
            addr, nxt = ref.address_and_next(node)
            emit(addr)
            chains[ref.chain] = nxt
        elif isinstance(ref, NonAffineRef):
            emit(ref.address(bindings))
        else:  # pragma: no cover - reference taxonomy is closed
            raise TypeError(f"cannot execute reference {ref!r}")
