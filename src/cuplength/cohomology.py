"""Persistent cohomology barcodes with representative cocycles over Z2.

The barcode is harvested from a single reduction of the coboundary matrix
(vertex block included) in anti-filtration cosimplex order, dimension by
dimension with clearing (see ``z2``).  A non-zero reduced column pairs its
(birth) simplex with the simplex of its pivot row (death).  A column
whose own row is a pivot was cleared and starts no bar; a zero column
whose row is never a pivot yields an essential class.  The matching V
column, read as a set of cosimplices, is the representative cocycle: its
coboundary is supported on simplices entering at or after the death
grade, so its restriction to any stage before death is a cocycle there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import z2
from .functions import Interval
from .simplicial import FilteredComplex, Verts, truncate

INF = math.inf


@dataclass(frozen=True)
class Cochain:
    """A Z2 formal sum of p-cosimplices, stored as the set of summands."""

    p: int
    summands: frozenset[Verts]

    def __post_init__(self) -> None:
        summands = self.summands
        # a frozenset of tuples, as products and restrictions pass, is kept
        if type(summands) is not frozenset or not {tuple}.issuperset(map(type, summands)):
            summands = frozenset(tuple(v) for v in summands)
            object.__setattr__(self, "summands", summands)
        if not {self.p + 1}.issuperset(map(len, summands)):
            bad = next(v for v in summands if len(v) != self.p + 1)
            raise ValueError(f"summand {bad} is not {self.p}-dimensional")

    @classmethod
    def zero(cls, p: int) -> "Cochain":
        return cls(p, frozenset())

    @classmethod
    def of(cls, *summands) -> "Cochain":
        vs = [tuple(s) for s in summands]
        if not vs:
            raise ValueError("use Cochain.zero(p) for the empty cochain")
        return cls(len(vs[0]) - 1, frozenset(vs))

    def is_zero(self) -> bool:
        return not self.summands

    def __xor__(self, other: "Cochain") -> "Cochain":
        if self.p != other.p:
            raise ValueError("cochain dimensions differ")
        return Cochain(self.p, self.summands ^ other.summands)

    def restrict(self, c: FilteredComplex, t: float) -> "Cochain":
        """Drop the summands that have not entered the filtration by t."""
        return Cochain(self.p, frozenset(v for v in self.summands if c.grade_of(v) <= t))

    def sorted_summands(self) -> list[Verts]:
        return sorted(self.summands)


@dataclass(frozen=True)
class Bar:
    """One barcode interval with its representative cocycle.

    Reported as closed-open [birth, death); ``death`` is ``math.inf`` for
    essential classes.  The representative of a finite bar restricts to a
    cocycle at every critical value strictly before death; an essential
    bar's representative is a cocycle of the final stage.
    """

    dim: int
    birth: float
    death: float
    representative: Cochain

    def __post_init__(self) -> None:
        if not self.birth < self.death:
            raise ValueError(f"bar [{self.birth}, {self.death}) is empty")

    @property
    def essential(self) -> bool:
        return math.isinf(self.death)

    @property
    def length(self) -> float:
        return self.death - self.birth

    def contains(self, t: float) -> bool:
        return self.birth <= t < self.death

    def interval(self) -> Interval:
        return Interval(self.birth, self.death, left_closed=True, right_closed=False)


def _bar_sort_key(bar: Bar):
    return (bar.death, bar.birth, bar.dim, bar.representative.sorted_summands())


@dataclass
class AnnotatedBarcode:
    """Bars of dimensions 1..dim_bound, sorted by death then birth.

    ``reduction`` is the reduced coboundary matrix the bars were read
    from, and ``reduction.complex`` their complex, truncated to dimension
    ``dim_bound + 1``.  The cup products, the dimension-0 bars and the
    family check read the complex, the bound and the reduction from here
    instead of taking them again.
    """

    bars: list[Bar]
    dim_bound: int
    reduction: z2.ReducedCoboundary = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        if any(bar.dim > self.dim_bound for bar in self.bars):
            raise ValueError(f"barcode contains dimensions above {self.dim_bound}")
        self.bars = sorted(self.bars, key=_bar_sort_key)

    def __len__(self) -> int:
        return len(self.bars)


def _harvest(rc: z2.ReducedCoboundary, min_dim: int, max_dim: int) -> list[Bar]:
    m = rc.R.n_rows
    simplices = rc.complex.simplices
    grades = rc.complex.grades
    bars = []
    for dim in range(min_dim, max_dim + 1):
        for col in rc.A.columns(dim):
            i = m - 1 - col
            pivot = rc.R.pivot(col)
            if pivot is not None:
                death = grades[m - 1 - pivot]
                if grades[i] == death:
                    continue
                rep = _column_cochain(rc.V, col, simplices, m, dim)
                bars.append(Bar(dim, grades[i], death, rep))
            elif col not in rc.pivot_to_col:
                rep = _column_cochain(rc.V, col, simplices, m, dim)
                bars.append(Bar(dim, grades[i], INF, rep))
    return bars


def _column_cochain(V: z2.ReductionMatrix, col: int, simplices: list[Verts], m: int, p: int) -> Cochain:
    return Cochain(p, frozenset(simplices[m - 1 - r] for r in V.column(col)))


def compute_barcode(c: FilteredComplex, k: int) -> AnnotatedBarcode:
    """Barcode of dimensions 1..k with a family of representative cocycles.

    Reduces c truncated to dimension k+1, which preserves cohomology up to
    dimension k; the barcode carries that reduction and so that complex.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    rc = z2.reduce_coboundary(truncate(c, k + 1))
    return AnnotatedBarcode(_harvest(rc, 1, k), dim_bound=k, reduction=rc)


def connected_component_bars(b: AnnotatedBarcode) -> list[Bar]:
    """Dimension-0 bars (component merge events), for reporting."""
    return sorted(_harvest(b.reduction, 0, 0), key=_bar_sort_key)
