"""Sparse linear algebra over Z2 for coboundary matrices.

Columns are stored as Python integers used as bitmasks of row indices, so
column addition is XOR and the pivot of a column is its highest set bit.
A bitmask is exactly a sorted set of row indices, just packed.  The
coboundary matrix A and its reduction R keep one bitmask per column.  The
reduction matrix V keeps its unit diagonal implicit and stores only the
part above the diagonal of the columns that received an addition: a
bitmask costs as many bits as its highest row index, so a stored identity
alone would cost O(m^2) bits, while few columns ever change.

The cosimplex basis runs anti-parallel to the filtration: the matrix
position of the i-th simplex (in filtration order, m simplices total) is
m - 1 - i.  With this ordering the coboundary matrix and its column
reduction are strictly upper triangular and the reduction matrix V is
upper unitriangular, which is what makes restriction to a filtration
stage a simple trailing principal submatrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import SimplexNotAlive
from .simplicial import FilteredComplex, faces

if TYPE_CHECKING:  # pragma: no cover
    from .cohomology import Cochain


class SparseZ2Matrix:
    """A matrix over Z2 with per-column bitmask storage."""

    __slots__ = ("n_rows", "n_cols", "_cols")

    def __init__(self, n_rows: int, n_cols: int, cols: list[int] | None = None):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self._cols = [0] * n_cols if cols is None else cols
        if len(self._cols) != n_cols:
            raise ValueError("column count mismatch")

    def column(self, j: int) -> tuple[int, ...]:
        """Row indices of the ones in column j, strictly sorted."""
        return tuple(_bits(self.col_mask(j)))

    def col_mask(self, j: int) -> int:
        return self._cols[j]

    def pivot(self, j: int) -> int | None:
        """Largest row index with a one in column j, or None."""
        m = self.col_mask(j)
        return m.bit_length() - 1 if m else None

    def nnz(self) -> int:
        return sum(c.bit_count() for c in self._cols)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n_rows}x{self.n_cols}, nnz={self.nnz()})"


class UnitUpperZ2Matrix(SparseZ2Matrix):
    """A square upper unitriangular matrix over Z2 with its diagonal implicit.

    ``_cols`` maps a column index to the bitmask of that column's entries
    above the diagonal; a column absent from it is a unit vector.
    """

    __slots__ = ()

    def __init__(self, n: int, upper: dict[int, int]):
        self.n_rows = self.n_cols = n
        self._cols = upper

    def col_mask(self, j: int) -> int:
        if not 0 <= j < self.n_cols:
            raise IndexError(f"column {j} out of range")
        return self._cols.get(j, 0) | 1 << j

    def nnz(self) -> int:
        return self.n_cols + sum(c.bit_count() for c in self._cols.values())


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of_rows(rows: list[int]) -> int:
    """Bitmask of a non-empty row list whose first entry is its largest.

    Sets the bits in a buffer and converts once, instead of growing an int
    by ``|=``, which copies the whole int on every row.
    """
    buf = bytearray((rows[0] >> 3) + 1)
    for r in rows:
        buf[r >> 3] |= 1 << (r & 7)
    return int.from_bytes(buf, "little")


def coboundary_matrix(c: FilteredComplex) -> SparseZ2Matrix:
    """Square coboundary matrix over the anti-filtration cosimplex basis.

    Row/column position of the i-th simplex is m - 1 - i, so the matrix
    is strictly upper triangular.  Every simplex is indexed, vertices
    included, so the one matrix sees coboundaries of every dimension.
    """
    m = len(c.simplices)
    last = m - 1
    index = c.index_of
    rows: list[list[int]] = [[] for _ in range(m)]
    for i, v in enumerate(c.simplices):
        if len(v) == 1:
            continue
        # cofacets arrive in filtration order, so each row list descends
        for f in faces(v):
            rows[last - index[f]].append(last - i)
    return SparseZ2Matrix(m, m, [_mask_of_rows(r) if r else 0 for r in rows])


def column_reduce(A: SparseZ2Matrix) -> tuple[SparseZ2Matrix, UnitUpperZ2Matrix, dict[int, int]]:
    """Left-to-right column reduction R = A V with unique column pivots.

    Returns R, V and the map from each pivot row to the column owning it.
    V is upper unitriangular and stores only the columns that received an
    addition.
    """
    if A.n_rows != A.n_cols:
        raise ValueError("column_reduce expects a square matrix")
    n = A.n_cols
    R = [A.col_mask(j) for j in range(n)]
    V: dict[int, int] = {}
    pivot_to_col: dict[int, int] = {}
    for j in range(n):
        col = R[j]
        added = 0
        while col:
            p = col.bit_length() - 1
            owner = pivot_to_col.get(p)
            if owner is None:
                pivot_to_col[p] = j
                break
            col ^= R[owner]
            # owner < j, so all of its V column lies above row j
            added ^= V.get(owner, 0) | 1 << owner
        R[j] = col
        if added:
            V[j] = added
    return SparseZ2Matrix(n, n, R), UnitUpperZ2Matrix(n, V), pivot_to_col


@dataclass(frozen=True)
class ReducedCoboundary:
    """The reduced coboundary matrix R = A V of a complex over Z2.

    ``pivot_to_col`` maps each pivot row of R to the unique column owning
    it.  One reduction serves the barcode pairing, the representative
    cocycles (columns of V) and every exactness test.
    """

    complex: FilteredComplex = field(repr=False)
    A: SparseZ2Matrix
    R: SparseZ2Matrix
    V: SparseZ2Matrix
    pivot_to_col: dict[int, int] = field(repr=False)

    def cochain_mask(self, sigma: "Cochain") -> int:
        last = self.R.n_rows - 1
        index = self.complex.index_of
        y = 0
        for v in sigma.summands:
            y |= 1 << (last - index[v])
        return y


def reduce_coboundary(c: FilteredComplex) -> ReducedCoboundary:
    """Build and column-reduce the full coboundary matrix of a complex."""
    A = coboundary_matrix(c)
    R, V, pivot_to_col = column_reduce(A)
    return ReducedCoboundary(c, A, R, V, pivot_to_col)


def is_coboundary(sigma: "Cochain", t: float, rc: ReducedCoboundary) -> bool:
    """Whether the restriction of sigma to the stage-t subcomplex is exact there.

    Every summand of sigma must already be alive at t.
    """
    grade_of = rc.complex.grade_of
    for v in sigma.summands:
        if grade_of(v) > t:
            raise SimplexNotAlive(f"summand {v} enters after t={t}")
    return in_reduced_column_space(rc.cochain_mask(sigma), t, rc)


def in_reduced_column_space(mask: int, t: float, rc: ReducedCoboundary) -> bool:
    """Exactness at stage t of the cochain with coefficient mask ``mask``.

    Reduces the vector against the stage-restricted pivot columns of R;
    membership in their span is exactness.  Since A is strictly upper
    triangular and V upper unitriangular, the trailing block of R over
    the simplices alive at t is the reduced coboundary matrix of that
    stage: the positions at or above the stage cut ``m - stage_count(t)``.
    Positions below the cut are ignored.  An XOR with a pivot column never
    sets a bit above its pivot, so the bits at or above the cut evolve as
    if everything below it were masked off, and the reduction can stop as
    soon as the top bit falls below the cut.
    """
    cut = rc.R.n_rows - rc.complex.stage_count(t)
    cols = rc.R._cols
    pivot_to_col = rc.pivot_to_col
    while mask:
        p = mask.bit_length() - 1
        if p < cut:
            return True
        j = pivot_to_col.get(p)
        if j is None:
            return False
        mask ^= cols[j]
    return True
