"""The IR executor: runs a program and records its instruction trace.

This stands in for the paper's compile-and-simulate flow (Section 4.4):
the (possibly transformed, possibly marker-carrying) program is
"executed" — loops iterate, references resolve to byte addresses under
the current layouts, markers become HW_ON/HW_OFF records — and the
resulting :class:`repro.isa.PackedTrace` is what the CPU model times.

Program counters are synthetic but stable: every static statement and
loop branch owns fixed pc slots, so the instruction cache and branch
predictor see realistic repetition.

Execution works a loop nest at a time, treating affine reference
streams in closed form as "Fully Symbolic Analysis of Loop Locality"
does.  A loop is *bulk* when no trip count inside it depends on a
variable of its own subtree: all its iterations then share one op/pc
template, and the args of every iteration are evaluated at once with
numpy, the loop variables bound to vectors of iteration points.  Loops
outside bulk nests (tile loops under ``min`` bounds, triangular outer
loops) iterate in Python.  A pointer chase depends only on record
order, so each chain is resolved last, over the whole trace.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple, Optional, Union

import numpy as np

from repro.compiler.ir.expr import AffineExpr, as_expr
from repro.compiler.ir.loops import Loop, Node
from repro.compiler.ir.program import Program
from repro.compiler.ir.refs import (
    AffineRef,
    IndexedRef,
    NonAffineRef,
    PointerChaseRef,
    RegisterRef,
    ScalarRef,
)
from repro.compiler.ir.stmts import Statement
from repro.isa.instructions import Opcode
from repro.isa.packed import PackedTrace
from repro.isa.trace import Trace
from repro.tracegen.memory_map import SCALAR_BASE, assign_addresses

__all__ = ["TraceGenerator"]

_PC_BASE = 0x1000
_PC_STRIDE = 4
_INT = np.int64

#: Records per bulk block a top-level run emits.  Blocks pass straight
#: into the output columns, so this bounds the executor's working
#: memory beyond the trace itself to a few MB, whatever its length.
_BLOCK_RECORDS = 1 << 14

#: A variable binding: one value, or one value per instance.
Value = Union[int, np.ndarray]


class _Block(NamedTuple):
    """The records of ``count`` instances of one piece of code.

    ``template`` is ``(3, width)``: the op, the pc and the chase tag
    (1 + index into the chase refs, 0 for other records) of each
    record, shared by every instance.  ``args`` is ``(count, width)``.
    """

    template: np.ndarray
    args: np.ndarray


class _Columns:
    """The trace being emitted: the packed op, arg and pc columns, plus
    the positions and tags of its pointer-chase records."""

    def __init__(self) -> None:
        self.ops, self.args, self.pcs = array("q"), array("q"), array("q")
        self.chase_positions: list[np.ndarray] = [np.zeros(0, _INT)]
        self.chase_tags: list[np.ndarray] = [np.zeros(0, _INT)]

    def append(self, block: _Block) -> None:
        """Append one instance of ``block``."""
        ops, pcs, tags = block.template
        if not ops.size:
            return  # memoryview cannot cast an empty array
        tagged = np.flatnonzero(tags)
        if tagged.size:
            self.chase_positions.append(len(self.ops) + tagged)
            self.chase_tags.append(tags[tagged])
        for column, values in (
            (self.ops, ops), (self.args, block.args), (self.pcs, pcs)
        ):
            values = np.ascontiguousarray(values)
            column.frombytes(memoryview(values).cast("B"))


def _branch_template(pc: int) -> np.ndarray:
    """A loop's increment (ALU) and branch records."""
    return np.array(
        [[Opcode.ALU, Opcode.BRANCH], [pc, pc + _PC_STRIDE], [0, 0]], _INT
    )


class TraceGenerator:
    """Executes one program into a trace.

    The generator assigns array addresses on construction (unless the
    caller has already done so and passes ``assign_bases=False``).
    Pointer-chase chains start at node 0 and persist across statements,
    so repeated traversals continue around the cycle like a real list
    walk; after a run, ``chains`` maps each chain to its next node.
    """

    def __init__(
        self,
        program: Program,
        trace_name: Optional[str] = None,
        assign_bases: bool = True,
        alignment: Optional[int] = None,
    ):
        self.program = program
        self.trace_name = trace_name or program.name
        if assign_bases:
            if alignment is None:
                assign_addresses(program)
            else:
                assign_addresses(program, alignment=alignment)
        self.chains: dict[str, int] = {}
        self._scalar_addrs: dict[str, int] = {}
        self._pcs: dict[int, int] = {}
        self._bulk: dict[int, bool] = {}
        self._templates: dict[int, tuple[np.ndarray, list]] = {}
        self._chase_refs: list[PointerChaseRef] = []
        self._assign_pcs(program.body, _PC_BASE)
        for node in program.body:
            if isinstance(node, Loop):
                self._plan_bulk(node)

    def generate(self) -> Trace:
        """Run the program once; return the object-form trace."""
        return self.generate_packed().to_trace()

    def generate_packed(self) -> PackedTrace:
        """Run the program once; return the packed columnar trace."""
        columns = _Columns()
        self._run(self.program.body, {}, columns)
        self.chains = self._resolve_chases(
            np.concatenate(columns.chase_positions),
            np.concatenate(columns.chase_tags),
            np.frombuffer(columns.args, dtype=_INT),
        )
        return PackedTrace(
            self.trace_name, columns.ops, columns.args, columns.pcs
        )

    # ------------------------------------------------------------------
    # static layout: pc slots, scalar addresses, statement templates

    def _assign_pcs(self, nodes: list[Node], cursor: int) -> int:
        for node in nodes:
            self._pcs[id(node)] = cursor
            if isinstance(node, Loop):
                # One pc for the loop's increment+branch pair.
                cursor = self._assign_pcs(
                    node.body, cursor + 2 * _PC_STRIDE
                )
            elif isinstance(node, Statement):
                self._register_scalars(node)
                self._templates[id(node)] = self._template(node, cursor)
                cursor += (2 * len(node.references) + 2) * _PC_STRIDE
            else:  # MarkerStmt
                cursor += _PC_STRIDE
        return cursor

    def _register_scalars(self, statement: Statement) -> None:
        for ref in statement.references:
            if isinstance(ref, RegisterRef):
                ref = ref.original
            names = self._scalar_addrs
            if isinstance(ref, ScalarRef) and ref.name not in names:
                names[ref.name] = SCALAR_BASE + 8 * len(names)

    def _template(self, statement: Statement, pc: int) -> tuple:
        """The statement's records: (template, arg producer per ref).

        A producer is a constant (scalar address, ALU burst) or a ref
        whose args each run computes.  An indexed ref emits two
        records, its subscript load and then its data access.
        """
        records: list[tuple[int, int]] = []  # (op, chase tag)
        producers: list = []

        def touch(ref, op: int) -> None:
            if isinstance(ref, RegisterRef):
                return  # promoted to a register: no memory traffic
            tag = 0
            if isinstance(ref, IndexedRef):
                records.append((Opcode.LOAD, 0))  # always a read
            elif isinstance(ref, PointerChaseRef):
                self._chase_refs.append(ref)
                tag = len(self._chase_refs)
            elif not isinstance(ref, (AffineRef, ScalarRef, NonAffineRef)):
                raise TypeError(f"cannot execute reference {ref!r}")
            records.append((op, tag))
            producers.append(
                self._scalar_addrs[ref.name]
                if isinstance(ref, ScalarRef) else ref
            )

        for ref in statement.reads:
            touch(ref, Opcode.LOAD)
        if statement.work:
            records.append((Opcode.ALU, 0))
            producers.append(statement.work)
        for ref in statement.writes:
            touch(ref, Opcode.STORE)
        template = np.array(
            [
                [op for op, _ in records],
                [pc + _PC_STRIDE * k for k in range(len(records))],
                [tag for _, tag in records],
            ],
            _INT,
        )
        return template, producers

    def _plan_bulk(self, loop: Loop) -> tuple[set[str], set[str]]:
        """Mark ``loop`` and its descendants bulk or not.

        Returns the variables declared in the subtree and those the
        trip counts strictly inside it depend on.  A loop is bulk when
        the two are disjoint; every loop inside a bulk loop is bulk.
        """
        declared = {loop.var}
        inner_trips: set[str] = set()
        for child in loop.body:
            if isinstance(child, Loop):
                child_declared, child_trips = self._plan_bulk(child)
                declared |= child_declared
                inner_trips |= child_trips | _trip_variables(child)
        self._bulk[id(loop)] = not declared & inner_trips
        return declared, inner_trips

    # ------------------------------------------------------------------
    # execution

    def _run(
        self, nodes: list[Node], bindings: dict[str, int], out: _Columns
    ) -> None:
        """Execute ``nodes`` once under scalar ``bindings``.

        A bulk loop runs as blocks of whole iterations; any other loop,
        or a bulk loop whose single iteration outgrows a block, steps
        through its values here.
        """
        for node in nodes:
            if not isinstance(node, Loop):
                out.append(self._node(node, bindings, 1))
                continue
            trips = _trips(node, bindings)
            if self._bulk[id(node)]:
                width = self._width(node.body, bindings) + 2
                if width <= _BLOCK_RECORDS:
                    per_block = _BLOCK_RECORDS // width
                    for first in range(0, trips, per_block):
                        out.append(self._loop(
                            node, bindings, 1, first,
                            min(per_block, trips - first),
                        ))
                    continue
            branch = _branch_template(self._pcs[id(node)])
            lower = node.lower.eval(bindings)
            for trip in range(trips):
                bindings[node.var] = lower + trip * node.step
                self._run(node.body, bindings, out)
                taken = int(trip < trips - 1)
                out.append(_Block(branch, np.array([[1, taken]], _INT)))

    def _width(self, nodes: list[Node], bindings: dict[str, int]) -> int:
        """Records one execution of bulk ``nodes`` emits."""
        width = 0
        for node in nodes:
            if isinstance(node, Loop):
                width += _trips(node, bindings) * (
                    self._width(node.body, bindings) + 2
                )
            elif isinstance(node, Statement):
                width += self._templates[id(node)][0].shape[1]
            else:
                width += 1
        return width

    def _node(self, node: Node, env: dict[str, Value], count: int) -> _Block:
        """``count`` instances of one node under vector bindings."""
        if isinstance(node, Loop):
            return self._loop(node, env, count)
        if isinstance(node, Statement):
            return self._statement(node, env, count)
        op = Opcode.HW_ON if node.activates else Opcode.HW_OFF
        return _Block(
            np.array([[op], [self._pcs[id(node)]], [0]], _INT),
            np.zeros((count, 1), _INT),
        )

    def _loop(
        self,
        loop: Loop,
        env: dict[str, Value],
        count: int,
        first: int = 0,
        trips: Optional[int] = None,
    ) -> _Block:
        """``count`` instances of iterations ``first`` to ``first +
        trips`` (default: all) of a bulk loop."""
        if trips is None:
            trips = _trips(loop, env)
        if not trips:
            return _Block(np.zeros((3, 0), _INT), np.zeros((count, 0), _INT))
        instances = count * trips
        inner = {
            name: np.repeat(value, trips)
            if isinstance(value, np.ndarray) else value
            for name, value in env.items()
        }
        lower, upper = (
            np.repeat(bound, trips) if isinstance(bound, np.ndarray)
            else bound
            for bound in (loop.lower.eval(env), loop.upper.eval(env))
        )
        step = loop.step
        offsets = np.arange(
            first * step, (first + trips) * step, step, dtype=_INT
        )
        values = inner[loop.var] = lower + np.tile(offsets, count)
        parts = [self._node(child, inner, instances) for child in loop.body]
        template = np.concatenate(
            [p.template for p in parts]
            + [_branch_template(self._pcs[id(loop)])],
            axis=1,
        )
        args = np.empty((instances, template.shape[1]), _INT)
        column = 0
        for part in parts:
            width = part.template.shape[1]
            args[:, column:column + width] = part.args
            column += width
        args[:, -2] = 1  # induction increment + compare
        args[:, -1] = values + step < upper
        return _Block(np.tile(template, trips), args.reshape(count, -1))

    def _statement(
        self, statement: Statement, env: dict[str, Value], count: int
    ) -> _Block:
        template, producers = self._templates[id(statement)]
        args = np.empty((count, template.shape[1]), _INT)
        column = 0
        for producer in producers:
            if isinstance(producer, int):
                args[:, column] = producer
            elif isinstance(producer, AffineRef):
                args[:, column] = producer.address(env)
            elif isinstance(producer, IndexedRef):
                index_addr, data_addr = producer.addresses(env)
                args[:, column] = index_addr
                column += 1
                args[:, column] = data_addr
            elif isinstance(producer, PointerChaseRef):
                if producer.array.data is None:
                    raise ValueError(
                        f"pointer array {producer.array.name} has no "
                        "run-time data"
                    )
                args[:, column] = 0  # filled in by _resolve_chases
            else:
                args[:, column] = _non_affine(producer, env, count)
            column += 1
        return _Block(template, args)

    # ------------------------------------------------------------------
    # pointer chases

    def _resolve_chases(
        self, positions: np.ndarray, tags: np.ndarray, args: np.ndarray
    ) -> dict[str, int]:
        """Fill in the chase records (at ``positions``, in record order)
        chain by chain.  Returns each chain's next node after the run.
        """
        chains: dict[str, int] = {}
        refs: list = [None, *self._chase_refs]
        offsets = np.array(
            [0] + [r.array.base + r.field_offset for r in refs[1:]], _INT
        )
        sizes = np.array([0] + [r.node_size for r in refs[1:]], _INT)
        slots: dict[str, list[int]] = {}
        for tag, ref in enumerate(refs[1:], start=1):
            slots.setdefault(ref.chain, []).append(tag)
        for chain, chain_tags in slots.items():
            on_chain = np.isin(tags, chain_tags)
            if not on_chain.any():
                continue
            record_tags = tags[on_chain]
            arrays = {id(refs[tag].array) for tag in np.unique(record_tags)}
            if len(arrays) == 1:
                data = refs[record_tags[0]].array.data
                nodes, chains[chain] = _chase(data, record_tags.size)
            else:
                # The chain steps across several arrays: each step
                # follows its own ref's successor data.
                nodes = np.empty(record_tags.size, _INT)
                node = 0
                for index, tag in enumerate(record_tags.tolist()):
                    nodes[index] = node
                    node = refs[tag].address_and_next(node)[1]
                chains[chain] = node
            args[positions[on_chain]] = (
                offsets[record_tags] + nodes * sizes[record_tags]
            )
        return chains


def _trip_bounds(loop: Loop) -> tuple:
    """Bounds whose range has ``loop``'s trip count and that depend only
    on the variables the trip count depends on: a skewed loop's affine
    bounds shift together, so only their difference counts."""
    lower, upper = loop.lower, loop.upper
    if isinstance(lower, AffineExpr) and isinstance(upper, AffineExpr):
        return as_expr(0), upper - lower
    return lower, upper


def _trip_variables(loop: Loop) -> frozenset[str]:
    """Variables ``loop``'s trip count depends on."""
    lower, upper = _trip_bounds(loop)
    return lower.variables | upper.variables


def _trips(loop: Loop, env: dict[str, Value]) -> int:
    lower, upper = _trip_bounds(loop)
    return len(range(lower.eval(env), upper.eval(env), loop.step))


def _non_affine(
    ref: NonAffineRef, env: dict[str, Value], count: int
) -> np.ndarray:
    """Call ``ref.index_fn`` once per instance, with scalar bindings."""
    columns = {
        name: value.tolist() if isinstance(value, np.ndarray)
        else [value] * count
        for name, value in env.items()
    }
    return np.array(
        [
            ref.address({name: column[i] for name, column in columns.items()})
            for i in range(count)
        ],
        _INT,
    )


def _chase(data, count: int) -> tuple[np.ndarray, int]:
    """The first ``count`` nodes a chase from node 0 visits, and the
    node after them.

    Node ``n`` moves to ``data[n % len(data)]``.  The walk records
    successor slots until it has ``count`` of them or closes a cycle;
    later steps go around that cycle.
    """
    values = np.asarray(data).astype(_INT)
    successors = (values % len(values)).tolist()
    seen = [-1] * len(values)
    path: list[int] = []
    slot = 0
    while len(path) < count and seen[slot] < 0:
        seen[slot] = len(path)
        path.append(slot)
        slot = successors[slot]
    steps = np.arange(count, dtype=_INT)
    if len(path) < count:
        start = seen[slot]
        tail = steps >= len(path)
        steps[tail] = start + (steps[tail] - start) % (len(path) - start)
    slots = np.asarray(path, _INT)[steps]
    nodes = np.empty(count, _INT)
    nodes[0] = 0
    nodes[1:] = values[slots[:-1]]
    return nodes, int(values[slots[-1]])
