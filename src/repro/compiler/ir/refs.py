"""Array declarations and memory references.

The reference taxonomy follows paper Section 2.3 exactly:

*analyzable* (compile-time optimizable)
    :class:`ScalarRef` (``A``) and :class:`AffineRef`
    (``B[i]``, ``C[i+j][k-1]``).

*non-analyzable*
    :class:`NonAffineRef` (``D[i*i][j]``, ``E[i/j]``),
    :class:`IndexedRef` (``G[IP[j]+2]`` — subscripted subscripts), and
    :class:`PointerChaseRef` (``*H[i]``, linked structures, struct
    fields reached through pointers).

Every reference is *executable*: given loop-variable bindings and the
run-time data attached to index/pointer arrays it yields the byte
address(es) it touches, which is how traces are generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.compiler.ir.expr import AffineExpr, as_expr

__all__ = [
    "ArrayDecl",
    "Reference",
    "ScalarRef",
    "AffineRef",
    "NonAffineRef",
    "IndexedRef",
    "PointerChaseRef",
    "RegisterRef",
]


@dataclass(eq=False)
class ArrayDecl:
    """A program array with shape, element size, and storage layout.

    Declarations are *entities*: equality and hashing are by identity
    (``eq=False``), so references can embed them in frozen dataclasses
    and layout mutations stay visible through every alias.

    ``dim_order`` is the storage-dimension permutation from slowest- to
    fastest-varying.  Row-major for a 2-D array is ``(0, 1)``; the data
    transformation of Section 3.2 selects e.g. column-major ``(1, 0)``
    per array.  ``pad`` adds unused elements to the fastest-varying
    extent (array padding, mentioned in Section 4.2).

    ``data`` optionally holds run-time *values* (for index arrays and
    pointer-successor arrays); it never affects addressing, only the
    targets of indexed/pointer references.
    """

    name: str
    shape: tuple[int, ...]
    element_size: int = 8
    dim_order: Optional[tuple[int, ...]] = None
    pad: int = 0
    #: Inter-array padding: bytes added to the allocator-assigned base
    #: so same-index elements of different arrays stop sharing cache
    #: sets.  Set by the padding transformation.
    base_skew: int = 0
    base: int = 0
    data: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if not self.shape or any(extent <= 0 for extent in self.shape):
            raise ValueError(f"{self.name}: bad shape {self.shape}")
        if self.element_size <= 0:
            raise ValueError(f"{self.name}: element_size must be positive")
        if self.dim_order is None:
            self.dim_order = tuple(range(len(self.shape)))
        if sorted(self.dim_order) != list(range(len(self.shape))):
            raise ValueError(
                f"{self.name}: dim_order {self.dim_order} is not a "
                f"permutation of the {len(self.shape)} dimensions"
            )

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def element_count(self) -> int:
        count = 1
        for extent in self.shape:
            count *= extent
        return count

    @property
    def footprint_bytes(self) -> int:
        """Allocated bytes including padding."""
        return self._padded_row_elements() * self._outer_product() * (
            self.element_size
        )

    def _padded_row_elements(self) -> int:
        fastest = self.dim_order[-1]
        return self.shape[fastest] + self.pad

    def _outer_product(self) -> int:
        product = 1
        for dim in self.dim_order[:-1]:
            product *= self.shape[dim]
        return product

    def offset_of(self, indices: Sequence[int]) -> int:
        """Linear element offset of logical ``indices`` under the layout."""
        if len(indices) != self.rank:
            raise ValueError(
                f"{self.name}: expected {self.rank} indices, got {indices}"
            )
        return self._horner_offset(indices)

    def _horner_offset(self, indices: Sequence[int]) -> int:
        order = self.dim_order
        offset = 0
        for position, dim in enumerate(order):
            extent = (
                self._padded_row_elements()
                if position == len(order) - 1
                else self.shape[dim]
            )
            if position:
                offset *= extent
            index = indices[dim]
            offset = offset + index if position else index
        return offset

    def address_of(self, indices: Sequence[int]) -> int:
        """Byte address of the element at logical ``indices``."""
        return self.base + self._horner_offset(indices) * self.element_size

    def stride_of_dim(self, dim: int) -> int:
        """Elements skipped when logical dimension ``dim`` advances by 1."""
        order = self.dim_order
        position = order.index(dim)
        stride = 1
        for later_position in range(position + 1, len(order)):
            extent = (
                self._padded_row_elements()
                if later_position == len(order) - 1
                else self.shape[order[later_position]]
            )
            stride *= extent
        return stride

    def with_layout(self, dim_order: tuple[int, ...]) -> "ArrayDecl":
        """Copy of this declaration under a different storage order."""
        return ArrayDecl(
            name=self.name,
            shape=self.shape,
            element_size=self.element_size,
            dim_order=dim_order,
            pad=self.pad,
            base_skew=self.base_skew,
            base=self.base,
            data=self.data,
        )

    # -- sugar: A[i, j] builds an AffineRef ------------------------------

    def __getitem__(
        self, subscripts: Union[AffineExpr, int, tuple]
    ) -> "AffineRef":
        if not isinstance(subscripts, tuple):
            subscripts = (subscripts,)
        return AffineRef(self, tuple(as_expr(s) for s in subscripts))

    def __repr__(self) -> str:
        return f"ArrayDecl({self.name}, shape={self.shape})"


class Reference:
    """Base class for all memory references."""

    #: Whether Section 2.3 classifies this reference kind as analyzable.
    analyzable: bool = False

    @property
    def array_name(self) -> Optional[str]:
        return None


@dataclass(frozen=True)
class ScalarRef(Reference):
    """A scalar variable (``A``): analyzable, one fixed address."""

    name: str
    analyzable = True


@dataclass(frozen=True)
class AffineRef(Reference):
    """An affine array reference (``C[i+j][k-1]``): analyzable."""

    array: ArrayDecl
    subscripts: tuple[AffineExpr, ...]

    analyzable = True

    def __post_init__(self) -> None:
        if len(self.subscripts) != self.array.rank:
            raise ValueError(
                f"{self.array.name}: {len(self.subscripts)} subscripts for "
                f"rank-{self.array.rank} array"
            )

    @property
    def array_name(self) -> str:
        return self.array.name

    @property
    def variables(self) -> frozenset[str]:
        names: frozenset[str] = frozenset()
        for subscript in self.subscripts:
            names |= subscript.variables
        return names

    def address(self, bindings: Mapping[str, int]) -> int:
        indices = [s.eval(bindings) for s in self.subscripts]
        return self.array.address_of(indices)

    def depends_on(self, variable: str) -> bool:
        return any(s.depends_on(variable) for s in self.subscripts)

    def with_array(self, array: ArrayDecl) -> "AffineRef":
        return AffineRef(array, self.subscripts)

    def __repr__(self) -> str:
        inner = "][".join(repr(s) for s in self.subscripts)
        return f"{self.array.name}[{inner}]"


@dataclass(frozen=True)
class NonAffineRef(Reference):
    """A non-affine subscript (``D[i*i][j]``, ``E[i/j]``).

    ``index_fn`` computes the logical indices from the loop bindings at
    execution time; it is opaque to the compiler, which is precisely why
    the reference is non-analyzable.
    """

    array: ArrayDecl
    index_fn: Callable[[Mapping[str, int]], tuple[int, ...]]
    description: str = "non-affine"

    analyzable = False

    @property
    def array_name(self) -> str:
        return self.array.name

    def address(self, bindings: Mapping[str, int]) -> int:
        indices = self.index_fn(bindings)
        return self.array.address_of(indices)

    def __repr__(self) -> str:
        return f"{self.array.name}[<{self.description}>]"


@dataclass(frozen=True)
class IndexedRef(Reference):
    """A subscripted-subscript reference (``G[IP[j]+2]``).

    Executing it touches memory twice: first the index load
    (``IP[j]`` — itself an affine access), then the data access at the
    loaded value (scaled and offset).  The index array must carry
    run-time ``data``.
    """

    array: ArrayDecl
    index: AffineRef
    offset: int = 0
    scale: int = 1

    analyzable = False

    @property
    def array_name(self) -> str:
        return self.array.name

    def addresses(self, bindings: Mapping[str, Any]) -> tuple[Any, Any]:
        """(index-load address, data address).

        Bindings may be numpy vectors of iteration points; the data
        access is then one gather and both addresses come back as
        vectors.
        """
        index_array = self.index.array
        if index_array.data is None:
            raise ValueError(
                f"index array {index_array.name} has no run-time data"
            )
        index_indices = tuple(s.eval(bindings) for s in self.index.subscripts)
        value = np.asarray(index_array.data[index_indices]).astype(np.int64)
        target = value * self.scale + self.offset
        target %= self.array.element_count  # defensive wrap for tests
        return (
            index_array.address_of(index_indices),
            self.array.base + target * self.array.element_size,
        )

    def __repr__(self) -> str:
        return f"{self.array.name}[{self.index!r}*{self.scale}+{self.offset}]"


@dataclass(frozen=True)
class PointerChaseRef(Reference):
    """A pointer dereference walking a linked structure (``*H``, ``K->f``).

    The chase keeps per-``chain`` state (the current node id) in the
    trace executor; each execution touches the node's field at
    ``field_offset`` and then follows ``array.data[node]`` to the next
    node.  ``array.data`` must hold the successor ids (a permutation or
    list structure built by the workload).
    """

    array: ArrayDecl
    chain: str
    field_offset: int = 0
    node_size: int = 32

    analyzable = False

    @property
    def array_name(self) -> str:
        return self.array.name

    def address_and_next(self, node: int) -> tuple[int, int]:
        """(address touched for ``node``, successor node id)."""
        if self.array.data is None:
            raise ValueError(
                f"pointer array {self.array.name} has no run-time data"
            )
        addr = self.array.base + node * self.node_size + self.field_offset
        nxt = int(self.array.data[node % len(self.array.data)])
        return addr, nxt

    def __repr__(self) -> str:
        return f"*{self.array.name}<{self.chain}>"


@dataclass(frozen=True)
class RegisterRef(Reference):
    """A reference promoted to a register by scalar replacement.

    Wraps the original reference for bookkeeping; executing it touches
    no memory.  Produced by
    :mod:`repro.compiler.transforms.scalar_replacement`.
    """

    original: Reference

    analyzable = True

    @property
    def array_name(self) -> Optional[str]:
        return self.original.array_name

    def __repr__(self) -> str:
        return f"reg({self.original!r})"
