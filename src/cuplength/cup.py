"""Cup products of Z2 cochains and the persistent cup-length diagram.

The annotated barcode is the diagram's only input: it carries the
representative cocycles, the dimension bound and the reduction of the
complex they were read from.  The diagram algorithm multiplies bar
representatives pairwise: new factors always come from the barcode
itself, which together with associativity and symmetry of the product
reaches every multi-fold product.  Each non-trivial product is located on
the grid of bar births: its right end is inherited from the intersection
of the factor intervals and its left end is the smallest birth at which
the restricted product cochain is still not a coboundary.  One reduction
of the product, at the last birth strictly below the intersection's right
end, decides whether it survives; if it does, the row where the reduction
stops names the simplex at which its class is born, and the left end is
the first birth at or after that simplex's grade, as a linear descent
would find.  A fold multiplies a pair only when a summand of
the left factor ends at a vertex where a summand of the right factor
starts: the Alexander-Whitney product joins exactly such summands, so
every other pair multiplies to zero and is never visited.  A product's
summands are found through ``c.positions(p)``; since the barcode's
complex is truncated at k + 1, that is a plain dict for every degree a
product can land in, unless the caller capped the complex lower.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from . import z2
from .cohomology import AnnotatedBarcode, Cochain, compute_barcode
from .functions import Interval
from .simplicial import FilteredComplex, Verts


def _by_first_vertex(sigma: Cochain) -> dict[int, list[Verts]]:
    """The summands of sigma by their first vertex."""
    by_first: dict[int, list[Verts]] = {}
    for b in sigma.summands:
        by_first.setdefault(b[0], []).append(b)
    return by_first


def cup_product(
    sigma1: Cochain,
    sigma2: Cochain,
    c: FilteredComplex,
    by_first: dict[int, list[Verts]] | None = None,
) -> Cochain:
    """Cochain-level cup product inside c.

    Summand pairs whose overlap vertex matches concatenate to a candidate
    simplex; candidates present in c survive, cancelling mod 2.  Returns
    the zero cochain when the product dimension exceeds the dimension of
    the complex.  ``by_first``, when given, is sigma2's summands by first
    vertex, for a caller that multiplies sigma2 again and again.
    """
    p = sigma1.p + sigma2.p
    if p > c.dim or sigma1.is_zero() or sigma2.is_zero():
        return Cochain.zero(p)
    if by_first is None:
        by_first = _by_first_vertex(sigma2)
    index = c.positions(p)
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
    """Sizes and work counts of one cup-length diagram run; none is an output.

    ``m_k`` is the number of simplices of positive dimension in the complex,
    ``q_1`` the number of bars kept after trimming and ``q_ell[ell]`` the
    number of distinct (support, product) pairs found at fold ``ell``.
    ``product_count`` counts the pairs actually multiplied: those that share
    an end/start vertex and pass the dimension and overlap checks.
    ``coboundary_test_count`` counts the products ``support`` reduces: one
    per product with a birth in the intersection of its factors.
    """

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
    end is the smallest birth in ``inter`` at which the simplex named by
    the reduction's stop row has entered: exactly the births whose stage
    still carries a non-zero restriction.  The one reduction is counted
    into ``stats.coboundary_test_count``.
    """
    lo = bisect_left(birth_grid, inter.left)
    hi = bisect_left(birth_grid, inter.right) - 1
    if hi < lo:
        return None
    if stats is not None:
        stats.coboundary_test_count += 1
    p = z2.in_reduced_column_space(rc.cochain_mask(sigma_prod), birth_grid[hi], rc)
    if p is None:
        return None
    born = rc.complex.grades[rc.R.n_rows - 1 - p]
    left = birth_grid[bisect_left(birth_grid, born, lo)]
    return Interval(left, inter.right, left_closed=True, right_closed=inter.right_closed)


def cup_diagram(b: AnnotatedBarcode, trim_eps: float = 0.0) -> tuple[CupDiagram, RunStats]:
    """Persistent cup-length diagram of an annotated barcode.

    The complex is the one ``b`` was reduced from, already truncated to
    dimension ``b.dim_bound + 1``.  Bars of length below ``trim_eps`` are
    discarded first.  Every surviving bar contributes its own interval at
    value 1; repeated products against the bar set contribute the interval
    of each non-empty support at the fold count, merged by maximum: a later
    fold's count is the larger, so it is assigned.
    Each fold indexes the summands of each product found so far by first
    vertex, once, and multiplies a bar representative only against those
    sharing a vertex with the last vertices of its own summands, in the
    order they were found; the other pairs multiply to zero.  Products
    whose total dimension would exceed ``b.dim_bound`` are skipped,
    matching the truncation's trustworthy range.  Exactness tests reuse the
    reduction ``b`` was read from.  The result does not depend on the order
    of ``b.bars``.
    """
    if not trim_eps >= 0:  # also rejects nan
        raise ValueError(f"trim_eps must be non-negative, got {trim_eps}")
    rc = b.reduction
    c = rc.complex
    k = b.dim_bound
    base = [(bar.interval(), bar.representative) for bar in b.bars if bar.length >= trim_eps]
    points = {interval: 1 for interval, _ in base}
    stats = RunStats(
        m_k=len(c) - len(rc.A.columns(0)),
        q_1=len(base),
        q_ell={1: len(base)},
    )
    if not base or k < 2:
        return CupDiagram(points), stats

    birth_grid = sorted({interval.left for interval, _ in base})
    p_max = min(k, c.dim)
    last_vertices = [{verts[-1] for verts in s1.summands} for _, s1 in base]
    current = base
    ell = 1
    while current and ell <= k - 1:
        # each cochain of current indexed by first vertex, once per fold, and
        # the positions in current of those with a summand starting at each
        # vertex
        indexed = [_by_first_vertex(s2) for _, s2 in current]
        starting_at: dict[int, list[int]] = {}
        for j, by_first in enumerate(indexed):
            for v in by_first:
                starting_at.setdefault(v, []).append(j)
        # an insertion-ordered set of (support, product) pairs
        fresh: dict[tuple[Interval, Cochain], None] = {}
        for (i1, s1), ends in zip(base, last_vertices):
            partners = {j for v in ends for j in starting_at.get(v, ())}
            # in list order, so fresh is filled in the order all pairs would fill it
            for j in sorted(partners):
                i2, s2 = current[j]
                if s1.p + s2.p > p_max or not i1.overlaps(i2):
                    continue
                stats.product_count += 1
                sigma = cup_product(s1, s2, c, indexed[j])
                if sigma.is_zero():
                    continue
                supp = support(sigma, i1.intersect(i2), rc, birth_grid, stats)
                if supp is not None:
                    fresh[supp, sigma] = None
        ell += 1
        current = list(fresh)
        for interval, _ in current:
            points[interval] = ell
        stats.q_ell[ell] = len(current)
    return CupDiagram(points), stats


def compute_cup_diagram(
    c: FilteredComplex, k: int, trim_eps: float = 0.0
) -> tuple[CupDiagram, RunStats, AnnotatedBarcode]:
    """Compute the annotated barcode of c up to dimension k, then its diagram."""
    barcode = compute_barcode(c, k)
    diagram, stats = cup_diagram(barcode, trim_eps)
    return diagram, stats, barcode
