"""Polyhedral-grade dependence engine: direction/distance relations.

This is the engine behind every loop transform's legality question.
It answers with per-reference-pair :class:`DependenceRelation` objects
carrying

* a **direction vector** over the nest's loops (``<``/``=``/``>``, with
  ``*`` appearing only in merged per-pair summaries),
* the **exact distance** per level when the subscripts pin it, and
* the **dependence kind** — flow (write before read), anti (read before
  write) or output (write before write) in execution order.

Feasibility of each candidate direction vector is decided by a GCD test
plus a Banerjee-style bounds test evaluated at the vertices of the
constrained iteration-pair region, with loop-variable intervals pulled
from the interval analysis in :mod:`repro.compiler.verify.bounds`.
Soundness rules for variables that are not nest loops:

* variables bound by loops *enclosing* the nest are parameters — both
  end points of a dependence share their binding, so they subtract out;
* variables bound by loops *inside* the analyzed chain (an imperfect
  nest's deeper levels) are existentially projected: any subscript
  dimension touching one contributes no constraint (conservative).

Anything non-affine that can conflict with a write makes the nest
*unanalyzable* (with a reason), which every legality answer treats as
"refuse".  Transforms ask legality questions through the generic
:meth:`NestDependences.legal` interface with small transform
descriptors (:class:`Permutation`, :class:`Tiling`, :class:`UnrollJam`,
:class:`Skew`), so interchange/tiling/unroll/skewing all consume the
same relation set; loop fusion and fission ask the cross-nest questions
:func:`fusion_preventing` / :func:`fission_preventing`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence, Union

from repro.compiler.ir.loops import Loop
from repro.compiler.ir.refs import (
    AffineRef,
    IndexedRef,
    NonAffineRef,
    PointerChaseRef,
    Reference,
    RegisterRef,
    ScalarRef,
)
from repro.compiler.ir.stmts import Statement

if TYPE_CHECKING:  # runtime import is lazy: verify imports this module
    from repro.compiler.verify.bounds import Interval

__all__ = [
    "DependenceRelation",
    "NestDependences",
    "UnanalyzableRef",
    "Permutation",
    "Tiling",
    "UnrollJam",
    "Skew",
    "Transform",
    "Verdict",
    "analyze_nest",
    "nest_dependences",
    "fusion_preventing",
    "fission_preventing",
]

LT, EQ, GT, ANY = "<", "=", ">", "*"

#: Kind names, oriented by execution order (source executes first).
FLOW, ANTI, OUTPUT = "flow", "anti", "output"


@dataclass(frozen=True)
class DependenceRelation:
    """One feasible direction vector between an ordered reference pair.

    ``distance[k]`` is the exact per-level distance (sink iteration
    minus source iteration) when the subscripts pin it, else None;
    it is 0 wherever ``directions[k] == '='``.  ``source``/``sink``
    identify the references by ``(statement index, phase, slot)`` where
    phase 0 is the read list and phase 1 the write list.
    """

    array: str
    kind: str
    directions: tuple[str, ...]
    distance: tuple[Optional[int], ...]
    source: tuple[int, int, int]
    sink: tuple[int, int, int]
    source_label: str = ""
    sink_label: str = ""

    @property
    def loop_independent(self) -> bool:
        return all(d == EQ for d in self.directions)

    def __repr__(self) -> str:
        dirs = ",".join(self.directions)
        return f"<{self.kind} {self.array} ({dirs})>"


@dataclass(frozen=True)
class UnanalyzableRef:
    """A reference the engine cannot reason about, with the reason."""

    array: str
    description: str
    reason: str


# -- transform descriptors ----------------------------------------------


@dataclass(frozen=True)
class Permutation:
    """Reorder the nest: ``order[k]`` is the original position of the
    loop placed at level k."""

    order: tuple[int, ...]


@dataclass(frozen=True)
class Tiling:
    """Strip-mine-and-interleave the outermost ``depth`` levels (all
    levels when None): requires full permutability."""

    depth: Optional[int] = None


@dataclass(frozen=True)
class UnrollJam:
    """Unroll the loop at ``level`` and jam the copies together."""

    level: int = 0


@dataclass(frozen=True)
class Skew:
    """``level``'s variable becomes ``var + factor * wrt's var``."""

    wrt: int
    level: int
    factor: int


Transform = Union[Permutation, Tiling, UnrollJam, Skew]


@dataclass(frozen=True)
class Verdict:
    """A legality answer that explains itself."""

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class NestDependences:
    """The full relation set of one loop nest."""

    nest_vars: tuple[str, ...]
    relations: list[DependenceRelation] = field(default_factory=list)
    unanalyzable: list[UnanalyzableRef] = field(default_factory=list)

    @property
    def analyzable(self) -> bool:
        return not self.unanalyzable

    def merged(self) -> list[DependenceRelation]:
        """One relation per (source, sink) pair, directions collapsed
        to ``*`` at levels where the feasible directions disagree."""
        groups: dict[tuple, list[DependenceRelation]] = {}
        for rel in self.relations:
            groups.setdefault((rel.source, rel.sink), []).append(rel)
        out = []
        for rels in groups.values():
            first = rels[0]
            directions = []
            distance: list[Optional[int]] = []
            for level in range(len(self.nest_vars)):
                dirs = {r.directions[level] for r in rels}
                directions.append(dirs.pop() if len(dirs) == 1 else ANY)
                dists = {r.distance[level] for r in rels}
                only = dists.pop() if len(dists) == 1 else None
                distance.append(only)
            out.append(
                DependenceRelation(
                    first.array, first.kind, tuple(directions),
                    tuple(distance), first.source, first.sink,
                    first.source_label, first.sink_label,
                )
            )
        return out

    # -- legality -----------------------------------------------------

    def legal(self, transform: Transform) -> Verdict:
        """Is ``transform`` provably order-preserving for this nest?"""
        if self.unanalyzable:
            bad = self.unanalyzable[0]
            return Verdict(
                False,
                f"unanalyzable reference {bad.description}: {bad.reason}",
            )
        if isinstance(transform, Permutation):
            return self._permutation_legal(transform.order)
        if isinstance(transform, Tiling):
            depth = (
                len(self.nest_vars)
                if transform.depth is None
                else transform.depth
            )
            return self._fully_permutable(depth)
        if isinstance(transform, UnrollJam):
            return self._unroll_jam_legal(transform.level)
        if isinstance(transform, Skew):
            return self.skewed(
                transform.wrt, transform.level, transform.factor
            )._fully_permutable(len(self.nest_vars))
        raise TypeError(f"unknown transform {transform!r}")

    def _permutation_legal(self, order: Sequence[int]) -> Verdict:
        for rel in self.relations:
            for level in order:
                direction = rel.directions[level]
                if direction == LT:
                    break
                if direction != EQ:
                    return Verdict(
                        False,
                        f"{rel!r} becomes lexicographically negative",
                    )
        return Verdict(True)

    def _fully_permutable(self, depth: int) -> Verdict:
        for rel in self.relations:
            for direction in rel.directions[:depth]:
                if direction in (GT, ANY):
                    return Verdict(
                        False, f"{rel!r} is not forward at every level"
                    )
        return Verdict(True)

    def _unroll_jam_legal(self, level: int) -> Verdict:
        """Unroll-and-jam at ``level`` is strip-mine-plus-interchange:
        the element loop moves innermost.  A relation carried *outside*
        ``level`` is untouched; one carried *at* ``level`` survives the
        move iff its inner suffix is lexicographically non-negative
        (the jammed copies then still execute in source order)."""
        for rel in self.relations:
            prefix = rel.directions[:level]
            if LT in prefix:
                continue  # carried by an enclosing loop: unaffected
            if any(d in (GT, ANY) for d in prefix):
                return Verdict(
                    False, f"{rel!r} is not forward above the jam level"
                )
            at = rel.directions[level]
            if at == EQ:
                continue
            if at in (GT, ANY):
                return Verdict(
                    False, f"{rel!r} is backward at the unrolled loop"
                )
            for direction in rel.directions[level + 1:]:
                if direction == LT:
                    break
                if direction != EQ:
                    return Verdict(
                        False,
                        f"{rel!r} reverses when the jammed copies "
                        "interleave",
                    )
        return Verdict(True)

    def fully_permutable(self) -> bool:
        return bool(self.legal(Tiling()))

    # -- skewing ------------------------------------------------------

    def skew_factor(self, wrt: int = 0, level: int = 1) -> Optional[int]:
        """The smallest factor making the nest fully permutable by
        skewing ``level`` with respect to ``wrt``, or None when no
        factor can (or the relations are unanalyzable)."""
        if self.unanalyzable:
            return None
        required = 0
        for rel in self.relations:
            for k, direction in enumerate(rel.directions):
                if k not in (wrt, level) and direction in (GT, ANY):
                    return None  # skewing this pair of levels cannot fix it
            outer = rel.directions[wrt]
            inner = rel.directions[level]
            d_outer = rel.distance[wrt]
            d_inner = rel.distance[level]
            if outer == EQ:
                if inner in (GT, ANY):
                    return None  # backward at equal outer: unfixable
            elif outer == LT:
                if inner in (EQ, LT):
                    continue  # already forward; any factor keeps it so
                if inner == GT and d_inner is not None:
                    if d_outer is not None:
                        # need d_inner + f*d_outer >= 0 with exact
                        # d_outer >= 1: f >= ceil(-d_inner / d_outer)
                        required = max(
                            required,
                            (-d_inner + d_outer - 1) // d_outer,
                        )
                    else:
                        # d_outer >= 1 unknown: worst case is 1
                        required = max(required, -d_inner)
                else:
                    return None
            else:
                return None  # outer '>' / '*': not skewable this way
        return required

    def skewed(self, wrt: int, level: int, factor: int) -> "NestDependences":
        """The relation set after skewing (conservative where the
        exact distances are unknown)."""
        out = NestDependences(
            self.nest_vars, unanalyzable=list(self.unanalyzable)
        )
        for rel in self.relations:
            directions = list(rel.directions)
            distance = list(rel.distance)
            outer = directions[wrt]
            d_outer = distance[wrt]
            d_inner = distance[level]
            if outer != EQ and factor != 0:
                if d_outer is not None and d_inner is not None:
                    new = d_inner + factor * d_outer
                    distance[level] = new
                    directions[level] = LT if new > 0 else (
                        EQ if new == 0 else GT
                    )
                elif (
                    outer == LT
                    and factor > 0
                    and directions[level] in (EQ, LT)
                    and (d_inner is None or d_inner >= 0)
                ):
                    # d_inner >= 0 plus factor * (>=1) is strictly positive
                    directions[level] = LT
                    distance[level] = None
                else:
                    directions[level] = ANY
                    distance[level] = None
            out.relations.append(
                DependenceRelation(
                    rel.array, rel.kind, tuple(directions),
                    tuple(distance), rel.source, rel.sink,
                    rel.source_label, rel.sink_label,
                )
            )
        return out


# -- the solver ---------------------------------------------------------


@dataclass(frozen=True)
class _Space:
    """The iteration space a relation set is computed over."""

    vars: tuple[str, ...]
    bounds: tuple[Optional[Interval], ...]
    inner: frozenset[str]
    param_env: Mapping[str, Interval]


@dataclass(frozen=True)
class _Instance:
    """One reference occurrence, positioned in program order."""

    ref: AffineRef
    position: tuple[int, int, int]  # (statement, phase, slot)
    is_write: bool
    label: str


def _equations(
    src: AffineRef, snk: AffineRef, space: _Space
) -> Optional[list[tuple[tuple[int, ...], tuple[int, ...], dict[str, int], int]]]:
    """Per-dimension constraints ``sum(a_k x_k - b_k y_k) + params = c``.

    Dimensions touching a projected inner variable contribute no
    constraint.  Returns None when the pair provably never overlaps
    (constant subscripts in disjoint slices).
    """
    equations = []
    for sub_src, sub_snk in zip(src.subscripts, snk.subscripts):
        touched = sub_src.variables | sub_snk.variables
        if touched & space.inner:
            continue  # existentially projected: no constraint
        a = tuple(sub_src.coefficient(v) for v in space.vars)
        b = tuple(sub_snk.coefficient(v) for v in space.vars)
        params: dict[str, int] = {}
        for name in touched - set(space.vars):
            coeff = sub_src.coefficient(name) - sub_snk.coefficient(name)
            if coeff:
                params[name] = coeff
        c = sub_snk.const - sub_src.const
        if not any(a) and not any(b) and not params:
            if c != 0:
                return None  # disjoint constant slices: independent
            continue
        equations.append((a, b, params, c))
    return equations


def _pinned_distances(
    equations: Iterable[
        tuple[tuple[int, ...], tuple[int, ...], dict[str, int], int]
    ],
    depth: int,
) -> Optional[dict[int, int]]:
    """Levels whose distance the subscripts pin exactly.

    A dimension of the form ``a*x_k - a*y_k = c`` (single level, equal
    coefficients, no parameters) forces ``y_k - x_k = -c/a``.  Returns
    None when two dimensions contradict or a distance is fractional —
    the pair is independent.
    """
    pinned: dict[int, int] = {}
    for a, b, params, c in equations:
        if params:
            continue
        levels = [k for k in range(depth) if a[k] or b[k]]
        if len(levels) != 1:
            continue
        (k,) = levels
        if a[k] != b[k] or a[k] == 0:
            continue
        if c % a[k]:
            return None  # stride never bridges the offset
        distance = -(c // a[k])
        if k in pinned and pinned[k] != distance:
            return None  # inconsistent constraints: no solution
        pinned[k] = distance
    return pinned


def _term_range(
    a: int, b: int, direction: str, bound: Optional[Interval]
) -> Optional[tuple[int, int]]:
    """Range of ``a*x - b*y`` with ``x``, ``y`` in ``bound`` and
    related by ``direction``; None means unbounded."""
    if a == 0 and b == 0:
        return (0, 0)
    if bound is None:
        return None
    lo, hi = bound.lo, bound.hi
    if direction == EQ:
        coeff = a - b
        values = (coeff * lo, coeff * hi)
    elif direction == LT:
        # vertices of the lattice triangle {lo <= x < y <= hi}
        values = (
            a * lo - b * (lo + 1),
            a * lo - b * hi,
            a * (hi - 1) - b * hi,
        )
    else:
        values = (
            a * (lo + 1) - b * lo,
            a * hi - b * lo,
            a * hi - b * (hi - 1),
        )
    return (min(values), max(values))


def _direction_feasible(
    directions: tuple[str, ...],
    equations: list,
    space: _Space,
) -> bool:
    """GCD + Banerjee vertex-bounds feasibility of one direction."""
    for level, direction in enumerate(directions):
        if direction == EQ:
            continue
        bound = space.bounds[level]
        if bound is not None and bound.hi - bound.lo < 1:
            return False  # a single iterate cannot differ from itself
    for a, b, params, c in equations:
        # GCD test over the per-variable coefficients of the equation.
        coeffs = []
        for level, direction in enumerate(directions):
            if direction == EQ:
                if a[level] - b[level]:
                    coeffs.append(a[level] - b[level])
            else:
                if a[level]:
                    coeffs.append(a[level])
                if b[level]:
                    coeffs.append(b[level])
        coeffs.extend(v for v in params.values() if v)
        if not coeffs:
            if c != 0:
                return False
            continue
        if c % math.gcd(*(abs(v) for v in coeffs)):
            return False
        # Banerjee bounds test: c must lie inside the value range of
        # the left-hand side under the direction constraints.
        lo = hi = 0
        unbounded = False
        for level, direction in enumerate(directions):
            term = _term_range(
                a[level], b[level], direction, space.bounds[level]
            )
            if term is None:
                unbounded = True
                break
            lo += term[0]
            hi += term[1]
        if not unbounded:
            for name, coeff in params.items():
                interval = space.param_env.get(name)
                if interval is None:
                    unbounded = True
                    break
                values = (coeff * interval.lo, coeff * interval.hi)
                lo += min(values)
                hi += max(values)
        if not unbounded and not (lo <= c <= hi):
            return False
    return True


def _sign_direction(distance: int) -> str:
    return LT if distance > 0 else (EQ if distance == 0 else GT)


def _pair_relations(
    src: _Instance,
    snk: _Instance,
    space: _Space,
    allowed,
) -> list[tuple[tuple[str, ...], tuple[Optional[int], ...]]]:
    """All feasible (direction, distance) vectors from src to snk.

    ``allowed(directions)`` filters candidate vectors by the execution
    -order orientation the caller needs.
    """
    equations = _equations(src.ref, snk.ref, space)
    if equations is None:
        return []
    depth = len(space.vars)
    pinned = _pinned_distances(equations, depth)
    if pinned is None:
        return []
    for level, distance in pinned.items():
        bound = space.bounds[level]
        if bound is not None and abs(distance) > bound.hi - bound.lo:
            return []  # the pinned distance exceeds the iteration range
    options = []
    for level in range(depth):
        if level in pinned:
            options.append((_sign_direction(pinned[level]),))
        else:
            options.append((LT, EQ, GT))
    results = []
    for directions in itertools.product(*options):
        if not allowed(directions):
            continue
        if not _direction_feasible(directions, equations, space):
            continue
        distance = tuple(
            pinned.get(level, 0 if directions[level] == EQ else None)
            for level in range(depth)
        )
        results.append((directions, distance))
    return results


def _lex_positive(directions: Sequence[str]) -> bool:
    for direction in directions:
        if direction == LT:
            return True
        if direction == GT:
            return False
    return False


def _lex_negative(directions: Sequence[str]) -> bool:
    return _lex_positive([_FLIP[d] for d in directions])


_FLIP = {LT: GT, GT: LT, EQ: EQ, ANY: ANY}


def _kind(src: _Instance, snk: _Instance) -> str:
    if src.is_write:
        return OUTPUT if snk.is_write else FLOW
    return ANTI


# -- building relation sets from the IR ---------------------------------


def _collect_instances(
    statements: Sequence[Statement],
) -> tuple[list[_Instance], list[tuple[str, str, bool, str]], set[str]]:
    """Classify every reference: affine instances to solve, deferred
    non-affine candidates (array, description, is_write, reason), and
    the set of written array names."""
    instances: list[_Instance] = []
    deferred: list[tuple[str, str, bool, str]] = []
    written: set[str] = set()
    for index, statement in enumerate(statements):
        label = statement.label or f"stmt{index}"
        for phase, refs in ((0, statement.reads), (1, statement.writes)):
            for slot, ref in enumerate(refs):
                base: Reference = ref
                if isinstance(base, RegisterRef):
                    base = base.original
                if isinstance(base, ScalarRef):
                    continue  # privatizable work registers
                is_write = phase == 1
                position = (index, phase, slot)
                if isinstance(base, AffineRef):
                    if is_write:
                        written.add(base.array.name)
                    instances.append(
                        _Instance(base, position, is_write, label)
                    )
                    continue
                if isinstance(base, IndexedRef):
                    # The index load is an affine read we can analyze;
                    # the data access is run-time dependent.
                    instances.append(
                        _Instance(base.index, position, False, label)
                    )
                    name = base.array.name
                    reason = "indexed (run-time subscript values)"
                elif isinstance(base, PointerChaseRef):
                    name = base.array.name
                    reason = "pointer chase (run-time link values)"
                elif isinstance(base, NonAffineRef):
                    name = base.array.name
                    reason = f"non-affine subscript ({base.description})"
                else:
                    name = base.array_name or "?"
                    reason = f"unrecognized reference {type(base).__name__}"
                if is_write:
                    written.add(name)
                deferred.append((name, repr(base), is_write, reason))
    return instances, deferred, written


def _unanalyzable_refs(
    instances: Sequence[_Instance],
    deferred: Sequence[tuple[str, str, bool, str]],
    written: set[str],
) -> list[UnanalyzableRef]:
    """Which problem references actually block analysis.

    A non-affine *read* of an array nobody writes is harmless; any
    other non-affine reference is reported.  Two affine references to
    the same array name with different ranks mean the declarations
    alias inconsistently — also a blocker (never a zip-truncated
    "answer").
    """
    out = [
        UnanalyzableRef(name, description, reason)
        for name, description, is_write, reason in deferred
        if is_write or name in written
    ]
    ranks: dict[str, int] = {}
    flagged: set[str] = set()
    for inst in instances:
        name = inst.ref.array.name
        rank = len(inst.ref.subscripts)
        if name in ranks and ranks[name] != rank and name not in flagged:
            flagged.add(name)
            out.append(
                UnanalyzableRef(
                    name, repr(inst.ref),
                    f"rank mismatch: references with {ranks[name]} and "
                    f"{rank} subscripts alias the same array",
                )
            )
        ranks.setdefault(name, rank)
    return out


def _build_space(
    chain: Sequence[Loop],
    inner_roots: Sequence[Loop],
    outer_env: Optional[Mapping[str, Interval]],
) -> _Space:
    # Imported here, not at module level: the verify package's facade
    # imports the legality audit, which imports this module.
    from repro.compiler.verify.bounds import loop_var_interval

    env: dict[str, Interval] = dict(outer_env or {})
    bounds: list[Optional[Interval]] = []
    for loop in chain:
        interval = loop_var_interval(loop, env)
        bounds.append(interval)
        if interval is not None:
            env[loop.var] = interval
    chain_vars = {loop.var for loop in chain}
    inner: set[str] = set()
    for root in inner_roots:
        for node in root.walk():
            if isinstance(node, Loop) and node.var not in chain_vars:
                inner.add(node.var)
    return _Space(
        tuple(loop.var for loop in chain),
        tuple(bounds),
        frozenset(inner),
        dict(outer_env or {}),
    )


def analyze_nest(
    chain: Sequence[Loop],
    statements: Optional[Sequence[Statement]] = None,
    outer_env: Optional[Mapping[str, Interval]] = None,
) -> NestDependences:
    """Relation set of the perfect chain ``chain`` (outermost first).

    ``statements`` defaults to every statement under the chain bottom;
    ``outer_env`` supplies intervals for enclosing loop variables when
    known (they are treated as parameters either way).
    """
    if statements is None:
        statements = list(chain[-1].all_statements())
    space = _build_space(chain, [chain[-1]], outer_env)
    instances, deferred, written = _collect_instances(statements)
    deps = NestDependences(
        space.vars,
        unanalyzable=_unanalyzable_refs(instances, deferred, written),
    )
    for src in instances:
        for snk in instances:
            if not (src.is_write or snk.is_write):
                continue
            if src.ref.array.name != snk.ref.array.name:
                continue
            if len(src.ref.subscripts) != len(snk.ref.subscripts):
                continue  # aliasing bug: already reported as unanalyzable
            same_iteration_ok = src.position < snk.position

            def allowed(directions: tuple[str, ...]) -> bool:
                if _lex_positive(directions):
                    return True
                return same_iteration_ok and all(
                    d == EQ for d in directions
                )

            for directions, distance in _pair_relations(
                src, snk, space, allowed
            ):
                deps.relations.append(
                    DependenceRelation(
                        src.ref.array.name, _kind(src, snk),
                        directions, distance, src.position, snk.position,
                        src.label, snk.label,
                    )
                )
    return deps


def nest_dependences(
    head: Loop,
    limit: Optional[int] = None,
    outer_env: Optional[Mapping[str, Interval]] = None,
) -> NestDependences:
    """Relation set of the perfect nest rooted at ``head``."""
    chain = head.perfect_nest_loops()
    if limit is not None:
        chain = chain[:limit]
    return analyze_nest(chain, outer_env=outer_env)


# -- cross-nest questions (fusion / fission) -----------------------------


def _rename_subscripts(ref: AffineRef, mapping: Mapping[str, str]) -> AffineRef:
    from repro.compiler.ir.expr import var as _var

    subscripts = []
    for subscript in ref.subscripts:
        for old, new in mapping.items():
            subscript = subscript.substitute(old, _var(new))
        subscripts.append(subscript)
    return AffineRef(ref.array, tuple(subscripts))


def _cross_feasible(
    chain: Sequence[Loop],
    inner_roots: Sequence[Loop],
    src_statements: Sequence[Statement],
    snk_statements: Sequence[Statement],
    rename: Mapping[str, str],
    allowed,
) -> tuple[Optional[DependenceRelation], Optional[str]]:
    """First relation between the groups whose direction ``allowed``
    accepts, or a reason the question is unanswerable."""
    space = _build_space(chain, inner_roots, None)
    src_inst, src_deferred, src_written = _collect_instances(src_statements)
    snk_inst, snk_deferred, snk_written = _collect_instances(snk_statements)
    # A non-affine ref is harmless only if its array is written in
    # *neither* group, so filter against the union of written sets.
    written = src_written | snk_written
    blockers = _unanalyzable_refs(
        list(src_inst) + list(snk_inst),
        list(src_deferred) + list(snk_deferred),
        written,
    )
    if blockers:
        bad = blockers[0]
        return None, (
            f"unanalyzable reference {bad.description}: {bad.reason}"
        )
    renamed = [
        _Instance(
            _rename_subscripts(inst.ref, rename), inst.position,
            inst.is_write, inst.label,
        )
        for inst in snk_inst
    ]
    for src in src_inst:
        for snk in renamed:
            if not (src.is_write or snk.is_write):
                continue
            if src.ref.array.name != snk.ref.array.name:
                continue
            found = _pair_relations(src, snk, space, allowed)
            if found:
                directions, distance = found[0]
                return (
                    DependenceRelation(
                        src.ref.array.name, _kind(src, snk), directions,
                        distance, src.position, snk.position,
                        src.label, snk.label,
                    ),
                    None,
                )
    return None, None


def fusion_preventing(
    chain: Sequence[Loop],
    second: Sequence[Loop],
    src_statements: Sequence[Statement],
    snk_statements: Sequence[Statement],
    rename: Mapping[str, str],
) -> Optional[str]:
    """Why fusing ``second``'s statements into ``chain`` is illegal.

    ``chain`` is the first nest's perfect chain (which defines the
    fused iteration space), ``rename`` maps the second nest's loop
    variables onto it.  Fusion is illegal iff some dependence from a
    first-nest instance to a second-nest instance would have to flow
    *backwards* in the fused space (a lexicographically negative
    direction): originally every first-nest instance ran before every
    second-nest instance, afterwards order follows the common
    iteration vector.  Returns None when fusion is legal, else the
    reason.
    """
    relation, trouble = _cross_feasible(
        chain, [chain[-1], *second], src_statements, snk_statements,
        rename, lambda directions: _lex_negative(directions),
    )
    if trouble is not None:
        return trouble
    if relation is not None:
        return (
            f"fusion-preventing {relation.kind} dependence on "
            f"{relation.array} (direction "
            f"{','.join(relation.directions)})"
        )
    return None


def fission_preventing(
    chain: Sequence[Loop],
    first_group: Sequence[Statement],
    second_group: Sequence[Statement],
) -> Optional[str]:
    """Why splitting the nest between the groups is illegal.

    After fission every ``first_group`` instance runs before every
    ``second_group`` instance; that breaks exactly the dependences
    from a second-group instance to a first-group instance in a
    *later* iteration (strictly lexicographically positive
    direction).  Returns None when fission is legal, else the reason.
    """
    relation, trouble = _cross_feasible(
        chain, [chain[-1]], second_group, first_group, {},
        lambda directions: _lex_positive(directions),
    )
    if trouble is not None:
        return trouble
    if relation is not None:
        return (
            f"fission-preventing {relation.kind} dependence on "
            f"{relation.array} (direction "
            f"{','.join(relation.directions)})"
        )
    return None
