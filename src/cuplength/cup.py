"""Cup products of Z2 cochains and the persistent cup-length diagram.

The annotated barcode is the diagram's only input: it carries the
representative cocycles, the dimension bound and the reduction of the
complex they were read from.  The diagram algorithm multiplies bar
representatives pairwise: new factors always come from the barcode
itself, which together with associativity and symmetry of the product
reaches every multi-fold product.  Each non-trivial product is located on
the grid of bar births: its right end is inherited from the intersection
of the factor intervals and its left end is the smallest birth at which
the restricted product cochain is still not a coboundary.  Exactness is
monotone downward along the filtration, so one test at the last birth
strictly below the intersection's right end decides whether the product
survives, and bisection over the birth grid finds the left end, as a
linear descent would.  Each fold multiplies its pairs as it visits them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from . import z2
from .cohomology import AnnotatedBarcode, Cochain, compute_barcode
from .functions import Interval
from .simplicial import FilteredComplex, Verts


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


@dataclass
class CupDiagram:
    """Finite map from intervals to the maximal product fold realizing them."""

    points: dict[Interval, int]

    def sorted_points(self) -> list[tuple[Interval, int]]:
        return sorted(
            self.points.items(),
            key=lambda kv: (kv[0].left, kv[0].unbounded, kv[0].right, kv[1]),
        )


@dataclass
class RunStats:
    m_k: int
    q_1: int
    q_ell: dict[int, int] = field(default_factory=dict)
    product_count: int = 0
    coboundary_test_count: int = 0


def support(
    sigma_prod: Cochain,
    inter: Interval,
    rc: z2.ReducedCoboundary,
    birth_grid: list[float],
    stats: RunStats | None = None,
) -> Interval | None:
    """Parameter interval on which a product of representatives is non-zero.

    ``inter`` is the (non-empty) intersection of the factor intervals and
    ``birth_grid`` the sorted bar births.  The topmost candidate is the
    last birth strictly below ``inter.right``: births are critical values,
    so that is the last stage of the grid inside ``inter``.  Returns None
    when no birth lies in ``inter`` or the product is exact at the topmost
    candidate.  Otherwise the right end is that of ``inter`` and the left
    end is the smallest birth whose stage still carries a non-zero
    restriction.  Exactness tests are counted into
    ``stats.coboundary_test_count``.
    """
    mask = rc.cochain_mask(sigma_prod)

    def exact_at(i: int) -> bool:
        if stats is not None:
            stats.coboundary_test_count += 1
        return z2.in_reduced_column_space(mask, birth_grid[i], rc)

    lo = bisect_left(birth_grid, inter.left)
    hi = bisect_left(birth_grid, inter.right) - 1
    # exactness is monotone downward, so this also drops a product exact at the top
    if hi < lo or exact_at(hi):
        return None
    # invariant: non-exact at birth_grid[hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if exact_at(mid):
            lo = mid + 1
        else:
            hi = mid
    return Interval(birth_grid[hi], inter.right, left_closed=True, right_closed=inter.right_closed)


def cup_diagram(b: AnnotatedBarcode, trim_eps: float = 0.0) -> tuple[CupDiagram, RunStats]:
    """Persistent cup-length diagram of an annotated barcode.

    The complex is the one ``b`` was reduced from, already truncated to
    dimension ``b.dim_bound + 1``.  Bars of length below ``trim_eps`` are
    discarded first.  Every surviving bar contributes its own interval at
    value 1; repeated products against the bar set contribute the interval
    of each non-empty support at the fold count, merged by maximum.
    Products whose total dimension would exceed ``b.dim_bound`` are
    skipped, matching the truncation's trustworthy range.  Exactness tests
    reuse the reduction ``b`` was read from.  The result does not depend on
    the order of ``b.bars``.
    """
    if not trim_eps >= 0:  # also rejects nan
        raise ValueError(f"trim_eps must be non-negative, got {trim_eps}")
    rc = b.reduction
    c = rc.complex
    k = b.dim_bound
    base = [(bar.interval(), bar.representative) for bar in b.bars if bar.length >= trim_eps]
    points: dict[Interval, int] = {}

    def record(interval: Interval, value: int) -> None:
        if points.get(interval, 0) < value:
            points[interval] = value

    for interval, _ in base:
        record(interval, 1)

    stats = RunStats(
        m_k=sum(1 for v in c.simplices if len(v) > 1),
        q_1=len(base),
        q_ell={1: len(base)},
    )
    if not base or k < 2:
        return CupDiagram(points), stats

    birth_grid = sorted({interval.left for interval, _ in base})
    p_max = min(k, c.dim)
    current = base
    ell = 1
    while current and ell <= k - 1:
        # an insertion-ordered set of (support, product) pairs
        fresh: dict[tuple[Interval, Cochain], None] = {}
        for i1, s1 in base:
            for i2, s2 in current:
                if s1.p + s2.p > p_max or not i1.overlaps(i2):
                    continue
                stats.product_count += 1
                sigma = cup_product(s1, s2, c)
                if sigma.is_zero():
                    continue
                supp = support(sigma, i1.intersect(i2), rc, birth_grid, stats)
                if supp is not None:
                    fresh[supp, sigma] = None
        ell += 1
        current = list(fresh)
        for interval, _ in current:
            record(interval, ell)
        stats.q_ell[ell] = len(current)
    return CupDiagram(points), stats


def compute_cup_diagram(
    c: FilteredComplex, k: int, trim_eps: float = 0.0
) -> tuple[CupDiagram, RunStats, AnnotatedBarcode]:
    """Compute the annotated barcode of c up to dimension k, then its diagram."""
    barcode = compute_barcode(c, k)
    diagram, stats = cup_diagram(barcode, trim_eps)
    return diagram, stats, barcode
