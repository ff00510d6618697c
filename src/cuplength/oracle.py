"""Brute-force ground truth, kept independent of the main pipeline.

Everything here is recomputed from scratch with its own plain Gaussian
elimination over Z2 (bitmask row echelon) and its own cup product against
an explicit stage of the filtration.  It exists to verify the
reduction-based pipeline, so it shares no matrix code with it; only the
complex and cochain containers are reused.  Intended for desk-scale
instances.

A stage is a prefix of the canonical order; one skeleton serves every
stage.  It numbers each dimension's simplices by canonical rank, their
bits, so a stage's p-simplices are the first bits and a cochain restricts
to a stage as the prefix of its summands sorted by bit.  It eliminates
each dimension's boundaries once, in canonical order, and keeps the rank
of every prefix, a stage's coboundary rank one degree down.  Only where
those ranks leave H^p non-zero does a stage eliminate its degree-p
coboundary map, for the cocycles of degree p and the coboundaries of
degree p + 1; each row is an AND of a cofacet mask that the skeleton
builds for a degree the first time a stage reads it.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement

from .cohomology import Cochain
from .errors import NotCriticalValue, UnknownSimplex
from .functions import CupFunction, Interval
from .simplicial import FilteredComplex, Verts

INF = math.inf


class _Echelon:
    """Row-echelon accumulator over Z2 bitmask vectors."""

    def __init__(self) -> None:
        self.rows: dict[int, int] = {}

    def reduce(self, v: int) -> int:
        rows = self.rows
        while v:
            top = v.bit_length() - 1
            pivot = rows.get(top)
            if pivot is None:
                return v
            v ^= pivot
        return 0

    def extend(self, vectors) -> array:
        """Insert each vector in turn; the rank before and after each."""
        rows = self.rows
        ranks = array("i", [len(rows)])
        for v in vectors:
            while v:
                top = v.bit_length() - 1
                pivot = rows.get(top)
                if pivot is None:
                    rows[top] = v
                    break
                v ^= pivot
            ranks.append(len(rows))
        return ranks

    def insert(self, v: int) -> bool:
        v = self.reduce(v)
        if v:
            self.rows[v.bit_length() - 1] = v
            return True
        return False

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def copy(self) -> _Echelon:
        twin = _Echelon()
        twin.rows = dict(self.rows)
        return twin


class _Skeleton:
    """The simplices of dimension at most ``top`` among the first ``n`` of
    the canonical order.  A p-simplex's *bit* is its rank among the prefix's
    p-simplices, so a stage's p-simplices are bits ``0 .. size - 1``;
    ``canon[p]`` lists their positions by bit.  Below ``top``, ``index[p]``
    maps each p-simplex to its bit, ``lex[p]`` lists the bits in
    lexicographic order, the column order of every elimination, and
    ``ranks[p][j]``, the rank of the boundaries of the (p + 1)-bits
    ``0 .. j - 1``, is the rank of the degree-p coboundary map of a stage
    with j (p + 1)-simplices.  A vector of degree p, cochain or map row, is
    a mask over p-bits; ``cofacets(p)`` builds the degree-p rows once.
    """

    def __init__(self, c: FilteredComplex, n: int, top: int):
        self.c = c
        self.canon: list[list[int]] = [[] for _ in range(top + 1)]
        # each dimension's vertex tuples, by bit
        verts: list[list[Verts]] = [[] for _ in range(top + 1)]
        for i, v in zip(range(n), c.simplices):
            p = len(v) - 1
            if p <= top:
                self.canon[p].append(i)
                verts[p].append(v)
        self.index = [dict(zip(vs, range(len(vs)))) for vs in verts[:top]]
        self.lex = [sorted(range(len(vs)), key=vs.__getitem__) for vs in verts[:top]]
        self.ranks: list[array] = []
        for p, index in enumerate(self.index):
            # a boundary is the sum of its faces' one-bit masks
            ones = {v: 1 << b for v, b in index.items()}.__getitem__
            boundaries = (sum(map(ones, combinations(v, p + 1))) for v in verts[p + 1])
            self.ranks.append(_Echelon().extend(boundaries))
        self._cofacets: dict[int, list[int]] = {}

    def cofacets(self, p: int) -> list[int]:
        """For each p-bit the mask of its cofacets' (p + 1)-bits, built once."""
        masks = self._cofacets.get(p)
        if masks is None:
            index = self.index[p]
            # the (p + 1)-simplices by bit: the keys of their index below the top
            if p + 1 < len(self.index):
                up = self.index[p + 1]
            else:
                up = map(self.c.simplices.__getitem__, self.canon[p + 1])
            rows: list[list[int]] = [[] for _ in index]
            for b, v in enumerate(up):
                for f in combinations(v, p + 1):
                    rows[index[f]].append(b)
            masks = self._cofacets[p] = list(map(_mask, rows))
        return masks


def _mask(bits: list[int]) -> int:
    """The mask of increasing bits, set in a buffer: an int grown by |= is copied on every bit."""
    buf = bytearray((bits[-1] >> 3) + 1 if bits else 0)
    for b in bits:
        buf[b >> 3] |= 1 << (b & 7)
    return int.from_bytes(buf, "little")


class _Stage:
    """The subcomplex at one parameter: a prefix of the canonical order, so
    it holds every face of its simplices, whose p-simplices are the
    skeleton's bits ``0 .. size[p] - 1``."""

    def __init__(self, skeleton: _Skeleton, t: float):
        self.c = c = skeleton.c
        n = c.stage_count(t)
        self.skeleton = skeleton
        self.size = [bisect_left(ps, n) for ps in skeleton.canon]
        # exact spans by degree, from cohomology_basis's eliminations or built on first read
        self.spans: dict[int, _Echelon] = {}

    def gens(self, p: int) -> list[int]:
        """Bits of the stage's p-simplices, in lexicographic order."""
        size = self.size[p]
        return [b for b in self.skeleton.lex[p] if b < size]

    def mask(self, sigma: Cochain) -> int:
        return sum(1 << b for b in map(self.skeleton.index[sigma.p].__getitem__, sigma.summands))

    def coboundary_map(self, p: int, gens: list[int] | None = None) -> list[int]:
        """For each p-simplex (column order) the mask of its cofacets in the
        stage; ``gens``, when given, is ``self.gens(p)``."""
        cofacets = self.skeleton.cofacets(p)
        in_stage = (1 << self.size[p + 1]) - 1
        return [cofacets[b] & in_stage for b in (self.gens(p) if gens is None else gens)]

    def exact_span(self, p: int) -> _Echelon:
        """Echelon of the image of the degree-(p-1) coboundary map."""
        span = self.spans.get(p)
        if span is None:
            span = self.spans[p] = _Echelon()
            if p >= 1:
                span.extend(self.coboundary_map(p - 1))
        return span

    def product(self, sigma1: Cochain, sigma2: Cochain) -> Cochain:
        p = sigma1.p + sigma2.p
        index, size = self.skeleton.index[p], self.size[p]
        out: set[Verts] = set()
        for a in sigma1.summands:
            for b in sigma2.summands:
                if a[-1] == b[0]:
                    cand = a + b[1:]
                    if index.get(cand, size) < size:
                        out ^= {cand}
        return Cochain(p, frozenset(out))


class _BitSorted:
    """A cochain with its summands sorted by bit.  Bits are canonical ranks,
    so its mask at a stage is its full mask cut to the stage's size, and its
    restriction there its first summands, one per bit of that mask."""

    def __init__(self, skeleton: _Skeleton, sigma: Cochain):
        index = skeleton.index[sigma.p]
        if not index.keys() >= sigma.summands:
            raise UnknownSimplex(f"simplex {min(sigma.summands - index.keys())} not in complex")
        self.p = sigma.p
        self.summands = sorted(sigma.summands, key=index.__getitem__)
        self.full = _mask(list(map(index.__getitem__, self.summands)))
        self.restricted = sigma  # the last restriction built

    def mask(self, stage: _Stage) -> int:
        return self.full & ((1 << stage.size[self.p]) - 1)

    def restrict(self, mask: int) -> Cochain:
        """The restriction to a stage where the mask is ``mask``."""
        n = mask.bit_count()
        if n != len(self.restricted.summands):
            self.restricted = Cochain(self.p, frozenset(self.summands[:n]))
        return self.restricted


@dataclass
class CohomBasis:
    """Representative cocycles forming a basis of H^p at one stage."""

    t: float
    basis: dict[int, list[Cochain]]

    def dim(self, p: int) -> int:
        return len(self.basis.get(p, []))


def _kernel_basis(
    images: list[int], columns: list[int] | range, image: _Echelon | None = None
) -> list[int]:
    """Combination masks spanning the kernel of a Z2 linear map given by
    the image of each generator.

    Generator j is bit ``columns[j]`` of a combination.  Each kernel mask
    is generator j plus the unique combination of the earlier independent
    generators with the same image, so the kernel list depends on the
    order of the generators but not on how the image rows are numbered.
    Given a starting echelon ``image``, which it extends, the kernel is
    taken modulo that span.
    """
    if image is None:
        image = _Echelon()
    rows = image.rows
    combos = dict.fromkeys(rows, 0)
    kernel = []
    for col, v in zip(columns, images):
        combo = 1 << col
        while v:
            top = v.bit_length() - 1
            row = rows.get(top)
            if row is None:
                break
            v ^= row
            combo ^= combos[top]
        if v:
            top = v.bit_length() - 1
            rows[top] = v
            combos[top] = combo
        else:
            kernel.append(combo)
    return kernel


def cohomology_basis(
    c: FilteredComplex, t: float, k: int, *, _stage: _Stage | None = None
) -> CohomBasis:
    """Bases of H^p of the stage-t subcomplex for p = 0..k, by elimination.

    The skeleton's prefix ranks give the rank of each degree-p coboundary
    map, so H^p is non-zero exactly when dim ker, the p-simplices minus
    that rank, exceeds the rank of the degree-(p - 1) map.  Only then is
    the degree-p map built: one elimination gives its kernel, with the
    combinations that name the cocycles, and its image, the exact span at
    p + 1.  Otherwise the representative list is empty.  ``_stage`` is the
    stage-t subcomplex of a skeleton of dimension k + 1 that the caller
    already holds; it keeps the exact spans below degree k + 1, taken
    before the representatives enter them.
    """
    if t not in c.critical_values:
        raise NotCriticalValue(f"{t} is not a critical value")
    stage = _stage or _Stage(_Skeleton(c, c.stage_count(t), k + 1), t)
    canon, ranks, size = stage.skeleton.canon, stage.skeleton.ranks, stage.size
    basis: dict[int, list[Cochain]] = {}
    below = 0  # rank of the degree-(p - 1) map, the dimension of the exact span
    for p in range(k + 1):
        rank = ranks[p][size[p + 1]]
        reps = []
        if size[p] - rank > below:
            gens = stage.gens(p)
            image = _Echelon()
            kernel = _kernel_basis(stage.coboundary_map(p, gens), gens, image)
            span = stage.exact_span(p).copy()
            if p < k:  # no product of degree above k is tested
                stage.spans[p + 1] = image
            for combo in kernel:
                if span.insert(combo):
                    summands = frozenset(c.simplices[canon[p][b]] for b in _bits(combo))
                    reps.append(Cochain(p, summands))
        basis[p] = reps
        below = rank
    return CohomBasis(t, basis)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _length_at_stage(stage: _Stage, reps: list[_BitSorted], k: int) -> int:
    """Largest number of factors with a non-exact product at this stage:
    tuples drawn with repetition from the restrictions of ``reps``, of total
    degree at most k, each product taken at cochain level and tested
    against the exact span of its degree."""

    def nonzero_class(p: int, mask: int) -> bool:
        return mask != 0 and not stage.exact_span(p).contains(mask)

    usable = [r.restrict(m) for r in reps if nonzero_class(r.p, m := r.mask(stage))]
    if not usable:
        return 0
    # more positive-degree factors than the complex's dimension multiply to 0
    for ell in range(min(k, stage.c.dim), 1, -1):
        for tup in combinations_with_replacement(usable, ell):
            if sum(s.p for s in tup) > k:
                continue
            prod = tup[0]
            for extra in tup[1:]:
                prod = stage.product(prod, extra)
                if prod.is_zero():
                    break
            else:
                if nonzero_class(prod.p, stage.mask(prod)):
                    return ell
    return 1


def image_cup_length(c: FilteredComplex, t: float, s: float, k: int) -> int:
    """Cup-length of the image ring of the stage-s cohomology inside stage t.

    Restricts a basis of the positive-dimensional cohomology at s down to
    t and searches for the largest tuple (dimension sum capped at k) with
    a product that is not exact at t.
    """
    if t > s:
        raise ValueError("need t <= s")
    if t not in c.critical_values or s not in c.critical_values:
        raise NotCriticalValue(f"({t}, {s}) must be critical values")
    skeleton = _Skeleton(c, c.stage_count(s), k + 1)
    src = cohomology_basis(c, s, k, _stage=_Stage(skeleton, s))
    return _length_at_stage(_Stage(skeleton, t), _positive(skeleton, src, k), k)


def _positive(skeleton: _Skeleton, basis: CohomBasis, k: int) -> list[_BitSorted]:
    """The representatives of degree 1 to k, sorted by bit."""
    return [_BitSorted(skeleton, s) for p in range(1, k + 1) for s in basis.basis.get(p, [])]


def oracle_cup_function(c: FilteredComplex, k: int) -> CupFunction:
    """The cup-length function evaluated cell by cell on the critical grid.

    Generators are closed grid rectangles of positive value (the last
    column extends to infinity, since the complex is constant past its
    final critical value), pruned of dominated entries in one sweep of
    the grid; evaluation on any closed interval with critical endpoints
    equals the direct image computation.  A stage with no positive-degree
    class gives 0 on its whole column without any product.
    """
    cvs = c.critical_values
    skeleton = _Skeleton(c, len(c), k + 1)
    stages: list[_Stage] = []
    # values[sj][ti]: cup-length of the image of stage sj inside stage ti
    values: list[bytearray] = []
    for sj, s in enumerate(cvs):
        stages.append(_Stage(skeleton, s))
        reps = _positive(skeleton, cohomology_basis(c, s, k, _stage=stages[sj]), k)
        column = bytearray(sj + 1)
        if reps:
            for ti in range(sj + 1):
                column[ti] = _length_at_stage(stages[ti], reps, k)
        values.append(column)
    last = len(cvs) - 1
    return CupFunction.from_pairs(
        (Interval.closed(cvs[ti], INF if sj == last else cvs[sj]), values[sj][ti])
        for ti, sj in _undominated(values)
    )


def _undominated(values: list[bytearray]) -> list[tuple[int, int]]:
    """The cells (ti, sj) of the triangle ``values[sj][ti]`` (ti <= sj) whose
    value is positive and above that of every other cell (ti' <= ti,
    sj' >= sj), found in one sweep from the last column to the first.

    ``above[ti]`` is the largest value over the cells (ti' <= ti) of the
    columns already swept; ``run`` is the largest value of the earlier
    cells (ti' < ti) of the current column.
    """
    above = bytearray(len(values))
    kept = []
    for sj in range(len(values) - 1, -1, -1):
        run = 0
        for ti, v in enumerate(values[sj]):
            if v > run:
                if v > above[ti]:
                    kept.append((ti, sj))
                run = v
            if run > above[ti]:
                above[ti] = run
    return kept


@dataclass
class FamilyReport:
    """Outcome of validating the representative-family property; of the first
    failure, ``bar`` indexes a representative in ``b.bars`` that is not a
    cocycle and ``combination`` masks an exact one over the bars alive."""

    ok: bool
    first_failure: tuple[float, int] | None = None
    failures: list[tuple[float, int, str]] = field(default_factory=list)
    bar: int | None = None
    combination: int | None = None


def validate_family(b) -> FamilyReport:
    """Check that the bar representatives of the annotated barcode ``b``
    restrict to a basis at every stage.

    At each critical value t of the complex ``b`` was reduced from and each
    dimension p, the representatives of the bars containing t must be as
    many as dim H^p, restrict to cocycles (members of the exact span plus
    the stage's basis) and be independent modulo coboundaries: one
    elimination against the exact span finds any exact combination.  One
    skeleton serves every stage.
    """
    report = FamilyReport(ok=True)

    def fail(t: float, p: int, reason: str, bar: int | None = None, combo: int | None = None):
        if report.ok:
            report.ok, report.first_failure = False, (t, p)
            report.bar, report.combination = bar, combo
        report.failures.append((t, p, reason))

    c = b.reduction.complex
    k = b.dim_bound
    skeleton = _Skeleton(c, len(c), k + 1)
    reps = {}  # by index into b.bars, the representatives of degree 1 to k
    for i, bar in enumerate(b.bars):
        if 0 < bar.dim <= k:
            reps[i] = _BitSorted(skeleton, bar.representative)
    for t in c.critical_values:
        stage = _Stage(skeleton, t)
        basis = cohomology_basis(c, t, k, _stage=stage)
        for p in range(1, k + 1):
            alive = [i for i, bar in enumerate(b.bars) if bar.dim == p and bar.contains(t)]
            expected = basis.dim(p)
            if len(alive) != expected:
                fail(t, p, f"{len(alive)} bars alive but dim H^{p} = {expected}")
                continue
            if not alive:
                continue
            masks = [reps[i].mask(stage) for i in alive]
            exact = stage.exact_span(p)
            cocycles = exact.copy()
            cocycles.extend(stage.mask(sigma) for sigma in basis.basis[p])
            bad = next((i for i, m in zip(alive, masks) if not cocycles.contains(m)), None)
            if bad is not None:
                fail(t, p, f"representative of bar {b.bars[bad]} is not a cocycle at {t}", bad)
                continue
            combo = next(iter(_kernel_basis(masks, range(len(masks)), exact.copy())), None)
            if combo is not None:
                fail(t, p, f"combination {combo:b} of restrictions is exact at {t}", None, combo)
    return report
