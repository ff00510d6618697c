"""Sparse linear algebra over Z2 for coboundary matrices.

Columns are Python integers used as bitmasks of row indices, so column
addition is XOR and the pivot of a column is its highest set bit.  A
bitmask is exactly a sorted set of row indices, just packed, but it costs
as many bits as its highest row index, so a stored coboundary matrix
would cost O(m^2) bits.  None is stored here.

The cosimplex basis runs anti-parallel to the filtration: the matrix
position of the i-th simplex (in filtration order, m simplices total) is
m - 1 - i.  With this ordering the coboundary matrix A and its column
reduction R are strictly upper triangular and the reduction matrix V is
upper unitriangular, which is what makes restriction to a filtration
stage a simple trailing principal submatrix.  Positions stay in this
module: ``ReducedCoboundary`` answers in filtration indices.

A, R and V are views:

- A stores the filtration index of each simplex's first cofacet, one int
  per simplex; that cofacet's position is the pivot of the simplex's
  column.  It also lists each dimension's column positions, left to
  right, as ``A.columns(p)``.  A column packs the positions of the
  simplex's cofacets, built on demand, and is zero for a simplex with no
  cofacet.  A reads the complex through its views only: its first
  cofacets and cofacets, and the position dict of the simplices below
  ``top``, in whatever order it iterates.  How a complex finds them, from
  its distances or from its listing, is ``simplicial``'s alone.
- ``column_reduce`` visits ``A.columns(0)``, ``A.columns(1)``, ... in
  turn, up to the one below the complex's dimension, whose columns have
  no pivot.  A column i whose position is already the pivot row of a
  column j of the dimension below is cleared (the twist of Chen and
  Kerber): R_i = 0 and V_i := R_j, which keeps A V = R because A R_j =
  A A V_j = 0.  A column whose pivot is still free takes it without being
  built (an apparent pair, in Bauer's Ripser).  Only a column whose pivot is
  already owned is built, and reduced against the owners it adds.
- R stores the reduced columns and the owners they added whose pivot row
  lies below ``top``.  Any other column of R is A's column when it owns
  its pivot, and zero otherwise; reading it builds it and keeps nothing.
- V stores the part above the diagonal of each reduced column.  A
  cleared column is a pivot row of R and equals the column of R that
  owns it, which the pivot map names.  Every other column is a unit
  vector.

So A stores a 4-byte int per simplex and one more per simplex below
``top`` (``array('i')``: positions and filtration indices stay below
2**31), the run adds the columns it reduces, the owners below ``top``
they add and one pivot map entry per pivot, and the complex itself holds
no vertex tuple or dict entry for a top simplex (see ``simplicial``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import SimplexNotAlive
from .simplicial import FilteredComplex

if TYPE_CHECKING:  # pragma: no cover
    from .cohomology import Cochain


class SparseZ2Matrix:
    """A Z2 matrix read column by column as bitmasks.

    Subclasses set ``n_rows`` and ``n_cols`` and provide ``col_mask(j)``
    and ``nnz()``.
    """

    __slots__ = ("n_rows", "n_cols")

    def __repr__(self) -> str:
        # the shape only: counting non-zeros would build every column
        return f"{type(self).__name__}({self.n_rows}x{self.n_cols})"


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of_rows(last: int, positions: list[int]) -> int:
    """Bitmask of the rows ``last - i`` of a non-empty list of positions i.

    Sets the bits in a buffer and converts once, instead of growing an int
    by ``|=``, which copies the whole int on every row.
    """
    buf = bytearray(((last - min(positions)) >> 3) + 1)
    for i in positions:
        r = last - i
        buf[r >> 3] |= 1 << (r & 7)
    return int.from_bytes(buf, "little")


class CoboundaryMatrix(SparseZ2Matrix):
    """The square coboundary matrix of a complex, built column by column.

    Stores ``c.first_cofacets()``, the filtration index of each simplex's
    first cofacet (m when it has none), which gives each column's pivot,
    and the column positions of each dimension below ``c.top``, read off
    ``c.lower_index``.  ``col_mask(j)`` is zero for a simplex with no
    cofacet; any other simplex is decoded through ``c.simplices`` and its
    column packs the positions ``c.cofacets`` gives.  A read outside the
    matrix raises ``IndexError``.  How a complex finds its cofacets is
    ``simplicial``'s business, not this module's.
    """

    __slots__ = ("_complex", "_first", "_columns")

    def __init__(self, c: FilteredComplex):
        last = len(c) - 1
        columns: list[list[int]] = [[] for _ in range(c.top)]
        for v, i in c.lower_index.items():
            columns[len(v) - 1].append(last - i)
        self.n_rows = self.n_cols = len(c)
        self._complex = c
        self._first = c.first_cofacets()
        self._columns = [array("i", sorted(cols)) for cols in columns]

    def columns(self, p: int) -> array:
        """The positions of the p-simplices, left to right; empty when the
        complex has no p-simplex.  The top dimension's, which no reduction
        visits, are every position outside the lower dimensions' columns,
        worked out on each call."""
        if p < len(self._columns):
            return self._columns[p]
        cols = array("i")
        if p == len(self._columns):
            lower = set().union(*self._columns)
            cols.extend(j for j in range(self.n_cols) if j not in lower)
        return cols

    def col_mask(self, j: int) -> int:
        if self.pivot(j) is None:
            return 0  # no cofacet, a top simplex among them
        c = self._complex
        last = self.n_cols - 1
        return _mask_of_rows(last, c.cofacets(c.simplices[last - j]))

    def pivot(self, j: int) -> int | None:
        last = self.n_cols - 1
        if j > last:
            raise IndexError(f"column {j} out of range")
        p = last - self._first[last - j]
        return p if p >= 0 else None

    def nnz(self) -> int:
        # the complex is face-closed: each of the p + 1 faces of a p-simplex
        # is a row of its column
        counts = [len(cols) for cols in self._columns]
        counts.append(self.n_cols - sum(counts))  # the top simplices
        return sum((p + 1) * n for p, n in enumerate(counts) if p)


def coboundary_matrix(c: FilteredComplex) -> CoboundaryMatrix:
    """Square coboundary matrix over the anti-filtration cosimplex basis.

    Row/column position of the i-th simplex is m - 1 - i, so the matrix
    is strictly upper triangular.  Every simplex is indexed, vertices
    included, so the one matrix sees coboundaries of every dimension.
    The matrix is a view: see ``CoboundaryMatrix``.
    """
    return CoboundaryMatrix(c)


class ReducedMatrix(SparseZ2Matrix):
    """The reduced matrix R = A V, read on demand.

    ``_cols`` holds the columns ``column_reduce`` keeps.  Any other column
    is A's column if it owns its first-cofacet pivot, and zero otherwise:
    it was cleared, or A's column is zero.  Reading it keeps nothing.
    """

    __slots__ = ("_A", "_pivot_to_col", "_cols")

    def __init__(self, A: CoboundaryMatrix, pivot_to_col: dict[int, int], built: dict[int, int]):
        self.n_rows, self.n_cols = A.n_rows, A.n_cols
        self._A = A
        self._pivot_to_col = pivot_to_col
        self._cols = built

    def col_mask(self, j: int) -> int:
        col = self._cols.get(j)
        if col is None and self._pivot_to_col.get(self._A.pivot(j)) == j:
            col = self._A.col_mask(j)
        return col or 0

    def nnz(self) -> int:
        return sum(self.col_mask(j).bit_count() for j in range(self.n_cols))


class ReductionMatrix(SparseZ2Matrix):
    """The reduction matrix V: upper unitriangular with its diagonal implicit.

    ``_cols`` maps each column the reduction built to its part above the
    diagonal.  Each pivot row i of R is a cleared column: V_i = R_j for
    the column j owning it, ``pivot_to_col[i]``.  Every other column is a
    unit vector.
    """

    __slots__ = ("_R", "_cols", "_pivot_to_col")

    def __init__(self, R: ReducedMatrix, upper: dict[int, int], pivot_to_col: dict[int, int]):
        self.n_rows = self.n_cols = R.n_cols
        self._R = R
        self._cols = upper
        self._pivot_to_col = pivot_to_col

    def col_mask(self, j: int) -> int:
        if not 0 <= j < self.n_cols:
            raise IndexError(f"column {j} out of range")
        owner = self._pivot_to_col.get(j)
        if owner is not None:
            return self._R.col_mask(owner)
        return self._cols.get(j, 0) | 1 << j

    def nnz(self) -> int:
        upper = sum(c.bit_count() for c in self._cols.values())
        cleared = sum(self._R.col_mask(j).bit_count() - 1 for j in self._pivot_to_col.values())
        return self.n_cols + upper + cleared


def column_reduce(A: CoboundaryMatrix) -> tuple[ReducedMatrix, ReductionMatrix, dict[int, int]]:
    """Column reduction R = A V with unique column pivots, dimension by dimension.

    Returns R, V and the map from each pivot row to the column owning it.
    The columns are visited in the order of ``A.columns(0)``,
    ``A.columns(1)``, ... .  A column i whose position is the pivot row of
    a column j of the dimension below is cleared, with V_i := R_j; that
    keeps A V = R because A A = 0.  The pivot row of a p-simplex's column
    is a (p + 1)-simplex, so within one dimension no column is cleared and
    a pivot row is only ever owned by a column of the dimension below it,
    recorded before its own dimension is visited: one map serves clearing,
    reduction and V alike.  A top-dimension column has no pivot, so the
    visit stops below the top dimension.  An owner read from A is kept only
    if its pivot row lies below ``top``: exactness tests, of cochains below
    the top, read no other.
    """
    pivot_to_col: dict[int, int] = {}
    built: dict[int, int] = {}
    upper: dict[int, int] = {}
    for dim in range(A._complex.dim):
        keep = dim + 1 < A._complex.top
        for j in A.columns(dim):
            if j in pivot_to_col:
                continue
            p = A.pivot(j)
            if p is None:
                continue
            owner = pivot_to_col.get(p)
            if owner is None:
                pivot_to_col[p] = j
                continue
            col = A.col_mask(j)
            added = 0
            while owner is not None:
                owned = built.get(owner)
                if owned is None:
                    owned = A.col_mask(owner)
                    if keep:
                        built[owner] = owned
                col ^= owned
                # owner < j, so all of its V column lies above row j
                added ^= upper.get(owner, 0) | 1 << owner
                if not col:
                    break
                p = col.bit_length() - 1
                owner = pivot_to_col.get(p)
            else:
                pivot_to_col[p] = j
            built[j] = col
            upper[j] = added
    R = ReducedMatrix(A, pivot_to_col, built)
    return R, ReductionMatrix(R, upper, pivot_to_col), pivot_to_col


@dataclass(frozen=True)
class ReducedCoboundary:
    """The reduced coboundary matrix R = A V of a complex over Z2.

    ``pivot_to_col`` maps each pivot row of R to the unique column owning
    it.  A, R and V are the views of the module docstring.  One reduction
    serves the barcode pairing, the representative cocycles (columns of V)
    and every exactness test, read out by ``classes`` and ``born``.
    """

    complex: FilteredComplex = field(repr=False)
    A: CoboundaryMatrix
    R: ReducedMatrix
    V: ReductionMatrix
    pivot_to_col: dict[int, int] = field(repr=False)

    def cochain_mask(self, sigma: "Cochain") -> int:
        """The bitmask of sigma's summands."""
        last = self.R.n_rows - 1
        index = self.complex.positions(sigma.p)
        y = 0
        for v in sigma.summands:
            y |= 1 << (last - index[v])
        return y

    def classes(self, dims: Iterable[int]) -> Iterator[tuple[int, int, int | None, list[int]]]:
        """``(p, i, d, summands)`` for each class of each dimension p in
        ``dims``, in filtration indices: simplex i's column starts the class,
        d is its pivot row's simplex (None for an essential class) and
        ``summands`` are the rows of V's column, its representative.
        Cleared columns and pairs of equal grade start no class.  A
        column's pivot row is the top bit of its stored column in R, and
        otherwise A's first-cofacet pivot when the pivot map names the
        column its owner."""
        last = self.R.n_rows - 1
        grades = self.complex.grades
        kept, pivot_to_col = self.R._cols, self.pivot_to_col
        for p in dims:
            for col in self.A.columns(p):
                if col in pivot_to_col:
                    continue  # cleared, so R's column is zero
                i = last - col
                mask = kept.get(col)
                row = self.A.pivot(col) if mask is None else mask.bit_length() - 1
                d = last - row if pivot_to_col.get(row) == col else None
                if d is None or grades[i] < grades[d]:
                    yield p, i, d, [last - r for r in _bits(self.V.col_mask(col))]

    def born(self, sigma: "Cochain", t: float) -> int | None:
        """None when sigma restricted to stage t is exact there; otherwise
        the filtration index of the simplex at which its class is born."""
        row = in_reduced_column_space(self.cochain_mask(sigma), t, self)
        return None if row is None else self.R.n_rows - 1 - row


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
    return rc.born(sigma, t) is None


def in_reduced_column_space(mask: int, t: float, rc: ReducedCoboundary) -> int | None:
    """None if the cochain with coefficient mask ``mask`` is exact at stage
    t, else the row where its reduction stops.

    Reduces the vector against the stage-restricted pivot columns of R;
    membership in their span is exactness.  Since A is strictly upper
    triangular and V upper unitriangular, the trailing block of R over
    the simplices alive at t is the reduced coboundary matrix of that
    stage: the positions at or above the stage cut ``m - stage_count(t)``.
    Positions below the cut are ignored.  An XOR with a pivot column never
    sets a bit above its pivot, so the bits at or above the cut evolve as
    if everything below it were masked off, and the reduction can stop as
    soon as the top bit falls below the cut.  The XORs do not depend on t,
    only where they stop: if they stop at a row p that no column owns, the
    cochain is non-exact at the stages the simplex at row p (filtration
    index m - 1 - p) has entered and exact before, so its class is born there.
    """
    cut = rc.R.n_rows - rc.complex.stage_count(t)
    col_mask = rc.R.col_mask
    pivot_to_col = rc.pivot_to_col
    while mask:
        p = mask.bit_length() - 1
        if p < cut:
            return None
        j = pivot_to_col.get(p)
        if j is None:
            return p
        mask ^= col_mask(j)
    return None
