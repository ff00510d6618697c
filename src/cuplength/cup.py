"""Cup products of Z2 cochains and the persistent cup-length diagram.

The diagram algorithm multiplies bar representatives pairwise: new
factors always come from the barcode itself, which together with
associativity and symmetry of the product reaches every multi-fold
product.  Each non-trivial product is located on the critical grid: its
right end is inherited from the intersection of the factor intervals and
its left end is the smallest barcode birth at which the restricted
product cochain is still not a coboundary.  Exactness is monotone
downward along the filtration, so one test at the last birth inside the
intersection decides whether the product survives, and bisection over
the birth grid finds the left end, as a linear descent would.  Each fold
multiplies its pairs as it visits them.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from . import z2
from .cohomology import AnnotatedBarcode, Cochain, compute_barcode
from .functions import Interval
from .simplicial import FilteredComplex, Verts, truncate

INF = math.inf


def cup_product(sigma1: Cochain, sigma2: Cochain, c: FilteredComplex) -> Cochain:
    """Cochain-level cup product inside c.

    Summand pairs whose overlap vertex matches concatenate to a candidate
    simplex; candidates present in c survive, cancelling mod 2.  Returns
    the zero cochain when the product dimension exceeds the dimension of
    the complex.
    """
    p = sigma1.p + sigma2.p
    if p > c.dim or sigma1.is_zero() or sigma2.is_zero():
        return Cochain.zero(p)
    by_first: dict[int, list[Verts]] = {}
    for b in sigma2.summands:
        by_first.setdefault(b[0], []).append(b)
    index = c.index_of
    out: set[Verts] = set()
    for a in sigma1.summands:
        for b in by_first.get(a[-1], ()):
            cand = a + b[1:]
            if cand in index:
                out ^= {cand}
    return Cochain(p, frozenset(out))


@dataclass(frozen=True)
class _Entry:
    """A product interval with the cochain that realizes it."""

    interval: Interval
    cochain: Cochain


@dataclass
class CupDiagram:
    """Finite map from intervals to the maximal product fold realizing them."""

    points: dict[Interval, int]

    def sorted_points(self) -> list[tuple[Interval, int]]:
        return sorted(
            self.points.items(),
            key=lambda kv: (kv[0].left, kv[0].unbounded, kv[0].right, kv[1]),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, CupDiagram) and self.points == other.points


@dataclass
class RunStats:
    m_k: int
    q_1: int
    q_ell: dict[int, int] = field(default_factory=dict)
    product_count: int = 0
    coboundary_test_count: int = 0


class _TestCounter:
    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0


def _grid_right_end(interval: Interval, c: FilteredComplex) -> float:
    """Last critical value at which the (closed-open) interval is alive."""
    if interval.unbounded:
        return c.final_value()
    return c.previous_critical(interval.right)


def support(
    sigma_prod: Cochain,
    factor_intervals: list[Interval],
    rc: z2.ReducedCoboundary,
    c: FilteredComplex,
    birth_grid: list[float],
    _counter: _TestCounter | None = None,
) -> Interval | None:
    """Parameter interval on which a product of representatives is non-zero.

    Returns None when the factor intervals do not intersect, or when the
    product is exact at the last birth value in their intersection (or no
    birth lies there).  Otherwise the right end is that of the
    intersection and the left end is the smallest birth value whose stage
    still carries a non-zero restriction.
    """
    counter = _counter if _counter is not None else _TestCounter()
    inter: Interval | None = factor_intervals[0]
    for other in factor_intervals[1:]:
        inter = inter.intersect(other)
        if inter is None:
            return None
    d_grid = _grid_right_end(inter, c)
    mask = rc.cochain_mask(sigma_prod)

    def exact_at(t: float) -> bool:
        counter.n += 1
        return z2.in_reduced_column_space(mask, t, rc)

    lo = bisect_left(birth_grid, inter.left)
    hi = bisect_right(birth_grid, d_grid) - 1
    # exactness is monotone downward, so this also drops a product exact at d_grid
    if hi < lo or exact_at(birth_grid[hi]):
        return None
    # invariant: non-exact at birth_grid[hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if exact_at(birth_grid[mid]):
            lo = mid + 1
        else:
            hi = mid
    b_left = birth_grid[hi]
    return Interval(b_left, inter.right, left_closed=True, right_closed=inter.right_closed)


def cup_diagram(
    b: AnnotatedBarcode, c: FilteredComplex, k: int, trim_eps: float = 0.0
) -> tuple[CupDiagram, RunStats]:
    """Persistent cup-length diagram of a (k+1)-truncated filtration.

    Bars of length below ``trim_eps`` are discarded first.  Every
    surviving bar contributes its own interval at value 1; repeated
    products against the bar set contribute the interval of each
    non-empty support at the fold count, merged by maximum.  Products
    whose total dimension would exceed k are skipped, matching the
    truncation's trustworthy range.  Exactness tests reuse the reduction
    ``b`` was read from.  The result does not depend on the order of
    ``b.bars``.
    """
    if not trim_eps >= 0:  # also rejects nan
        raise ValueError(f"trim_eps must be non-negative, got {trim_eps}")
    if any(bar.dim > k for bar in b.bars):
        raise ValueError("barcode contains dimensions above k")
    bars = [bar for bar in b.bars if bar.length >= trim_eps]
    points: dict[Interval, int] = {}

    def record(interval: Interval, value: int) -> None:
        if points.get(interval, 0) < value:
            points[interval] = value

    base = [_Entry(bar.interval(), bar.representative) for bar in bars]
    for e in base:
        record(e.interval, 1)

    stats = RunStats(
        m_k=sum(1 for v in c.simplices if len(v) > 1),
        q_1=len(base),
        q_ell={1: len(base)},
    )
    if not base or k < 2:
        return CupDiagram(points), stats

    rc = b.reduction
    birth_grid = sorted({e.interval.left for e in base})
    counter = _TestCounter()

    p_max = min(k, c.dim)
    current = base
    ell = 1
    while current and ell <= k - 1:
        fresh: dict[tuple[Interval, frozenset[Verts]], _Entry] = {}
        for e1 in base:
            for e2 in current:
                if e1.cochain.p + e2.cochain.p > p_max or not e1.interval.overlaps(e2.interval):
                    continue
                stats.product_count += 1
                sigma = cup_product(e1.cochain, e2.cochain, c)
                if sigma.is_zero():
                    continue
                supp = support(sigma, [e1.interval, e2.interval], rc, c, birth_grid, _counter=counter)
                if supp is not None:
                    fresh.setdefault((supp, sigma.summands), _Entry(supp, sigma))
        nxt = list(fresh.values())
        for e in nxt:
            record(e.interval, ell + 1)
        ell += 1
        stats.q_ell[ell] = len(nxt)
        current = nxt
    stats.coboundary_test_count = counter.n
    return CupDiagram(points), stats


def compute_cup_diagram(
    c: FilteredComplex, k: int, trim_eps: float = 0.0
) -> tuple[CupDiagram, RunStats, AnnotatedBarcode]:
    """Truncate, compute the annotated barcode, and build the diagram."""
    ct = truncate(c, k + 1)
    barcode = compute_barcode(ct, k)
    diagram, stats = cup_diagram(barcode, ct, k, trim_eps)
    return diagram, stats, barcode
