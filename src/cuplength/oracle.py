"""Brute-force ground truth, kept independent of the main pipeline.

Everything here is recomputed from scratch with its own plain Gaussian
elimination over Z2 (bitmask row echelon) and its own cup product against
an explicit stage of the filtration.  It exists to verify the
reduction-based pipeline, so it shares no matrix code with it; only the
complex and cochain containers are reused.  Intended for desk-scale
instances.

A stage is a prefix of the complex's canonical order.  Each computation
builds one skeleton of the complex and reads every stage from it.  The
skeleton numbers each dimension's simplices by canonical rank and stores
each simplex's cofacets once, as a mask over those numbers; a stage's
p-simplices are then the first bits, and each row of a stage's
coboundary map is one AND of a stored mask.
A stage's rank of the degree-p coboundary map equals the rank of its
boundary map from degree p + 1, and a stage is a prefix in which faces
precede their cofaces, so the skeleton eliminates each dimension's
boundaries once, in canonical order, and keeps the rank of every prefix.
``oracle_cup_function`` and the representative-family check
``validate_family`` build each stage once and read its ranks from the
skeleton; a stage builds and eliminates its degree-p coboundary map only
when those ranks leave H^p non-zero, and that elimination gives both the
cocycles of degree p and the coboundaries of degree p + 1.  Any other
exact span is eliminated when first read.  ``oracle_cup_function`` keeps
one small value per grid cell and prunes the dominated cells in one
sweep of the grid.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

from .cohomology import Cochain
from .errors import NotCriticalValue
from .functions import CupFunction, Interval
from .simplicial import FilteredComplex, Verts, faces

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

    def extend(self, vectors) -> None:
        """Insert each vector in turn."""
        rows = self.rows
        for v in vectors:
            while v:
                top = v.bit_length() - 1
                pivot = rows.get(top)
                if pivot is None:
                    rows[top] = v
                    break
                v ^= pivot

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
    the canonical order, numbered per dimension by canonical rank.

    A p-simplex's *bit* is its rank among the prefix's p-simplices in the
    canonical order, so the p-simplices of any stage inside the prefix
    are exactly bits ``0 .. size - 1``.  ``canon[p]`` lists the positions
    by bit; ``lex[p]`` lists the bits in lexicographic order, the column
    order of every elimination; for p < top, ``cofacets[p][b]`` is the
    mask of the (p + 1)-bits of bit b's cofacets, and ``ranks[p][j]`` is
    the rank of the boundaries of the (p + 1)-bits ``0 .. j - 1``, from one
    elimination in canonical order.  Every vector of degree p, cochain or
    coboundary map row, is a mask over p-bits.

    One skeleton serves every stage inside its prefix.  A stage's degree-p
    coboundary map is the transpose of its boundary map from degree p + 1,
    whose columns are the first boundaries, so its rank is
    ``ranks[p][size[p + 1]]``.
    """

    def __init__(self, c: FilteredComplex, n: int, top: int):
        self.c = c
        self.canon: list[list[int]] = [[] for _ in range(top + 1)]
        # each dimension's vertex tuples, by bit
        verts: list[list[Verts]] = [[] for _ in range(top + 1)]
        # bit by position, for the simplices of dimension at most top
        self.bit = bit = array("i", bytes(4 * n))
        for i, v in zip(range(n), c.simplices):
            p = len(v) - 1
            if p <= top:
                bit[i] = len(self.canon[p])
                self.canon[p].append(i)
                verts[p].append(v)
        self.lex = [sorted(range(len(vs)), key=vs.__getitem__) for vs in verts]
        self.cofacets: list[list[int]] = []
        self.ranks: list[array] = []
        for p in range(top):
            index = c.positions(p)
            rows: list[list[int]] = [[] for _ in self.canon[p]]
            boundaries = _Echelon()
            ranks = array("i", [0])
            for b, v in enumerate(verts[p + 1]):
                boundary = 0
                for f in faces(v):
                    fb = bit[index[f]]
                    rows[fb].append(b)
                    boundary |= 1 << fb
                boundaries.insert(boundary)
                ranks.append(len(boundaries.rows))
            self.ranks.append(ranks)
            masks = []
            for row in rows:
                # set the bits in a buffer and convert once: an int grown
                # by |= is copied whole on every bit
                buf = bytearray((row[-1] >> 3) + 1 if row else 0)
                for b in row:
                    buf[b >> 3] |= 1 << (b & 7)
                masks.append(int.from_bytes(buf, "little"))
            self.cofacets.append(masks)


class _Stage:
    """The subcomplex at one parameter: a prefix of the canonical order.

    Its p-simplices are the skeleton's bits ``0 .. size[p] - 1``.  Faces
    precede their cofaces in the canonical order, so every face of a
    stage simplex is in the stage.
    """

    def __init__(self, skeleton: _Skeleton, t: float):
        c = skeleton.c
        n = c.stage_count(t)
        self.c = c
        self.n = n
        self.skeleton = skeleton
        self.size = [bisect_left(ps, n) for ps in skeleton.canon]
        # exact spans by degree: the image echelon of an elimination that
        # cohomology_basis ran, or built on first read
        self.spans: dict[int, _Echelon] = {}

    def gens(self, p: int) -> list[int]:
        """Bits of the stage's p-simplices, in lexicographic order."""
        size = self.size[p]
        return [b for b in self.skeleton.lex[p] if b < size]

    def mask(self, sigma: Cochain) -> int:
        index_of = self.c.index_of
        bit = self.skeleton.bit
        m = 0
        for v in sigma.summands:
            m |= 1 << bit[index_of[v]]
        return m

    def coboundary_map(self, p: int, gens: list[int] | None = None) -> list[int]:
        """For each p-simplex (column order) the mask of its cofacets in the
        stage; ``gens``, when given, is ``self.gens(p)``."""
        cofacets = self.skeleton.cofacets[p]
        in_stage = (1 << self.size[p + 1]) - 1
        return [cofacets[b] & in_stage for b in (self.gens(p) if gens is None else gens)]

    def exact_span(self, p: int) -> _Echelon:
        """Echelon of the image of the degree-(p-1) coboundary map."""
        span = self.spans.get(p)
        if span is None:
            span = _Echelon()
            if p >= 1:
                span.extend(self.coboundary_map(p - 1))
            self.spans[p] = span
        return span

    def product(self, sigma1: Cochain, sigma2: Cochain) -> Cochain:
        index_of = self.c.index_of
        n = self.n
        out: set[Verts] = set()
        for a in sigma1.summands:
            for b in sigma2.summands:
                if a[-1] == b[0]:
                    cand = a + b[1:]
                    if index_of.get(cand, n) < n:
                        out ^= {cand}
        return Cochain(sigma1.p + sigma2.p, frozenset(out))


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
    stage = _stage
    if stage is None:
        stage = _Stage(_Skeleton(c, c.stage_count(t), k + 1), t)
    canon = stage.skeleton.canon
    ranks = stage.skeleton.ranks
    size = stage.size
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


def _length_at_stage(stage: _Stage, restricted: list[Cochain], k: int) -> int:
    """Largest number of factors with a non-exact product at this stage.

    Tuples are drawn with repetition from the restricted basis, pruned to
    total dimension at most k; each candidate product is computed at
    cochain level and tested against the exact span of its dimension.
    """

    def nonzero_class(sigma: Cochain) -> bool:
        if sigma.is_zero():
            return False
        return not stage.exact_span(sigma.p).contains(stage.mask(sigma))

    usable = [s for s in restricted if nonzero_class(s)]
    if not usable:
        return 0
    best = 1
    # more positive-degree factors than the complex's dimension multiply to 0
    for ell in range(min(k, stage.c.dim), 1, -1):
        found = False
        for tup in combinations_with_replacement(usable, ell):
            if sum(s.p for s in tup) > k:
                continue
            prod = tup[0]
            for extra in tup[1:]:
                prod = stage.product(prod, extra)
                if prod.is_zero():
                    break
            else:
                if nonzero_class(prod):
                    found = True
                    break
        if found:
            best = ell
            break
    return best


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
    restricted = [
        sigma.restrict(c, t) for p in range(1, k + 1) for sigma in src.basis.get(p, [])
    ]
    return _length_at_stage(_Stage(skeleton, t), restricted, k)


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
        src = cohomology_basis(c, s, k, _stage=stages[sj])
        reps = [sigma for p in range(1, k + 1) for sigma in src.basis.get(p, [])]
        column = bytearray(sj + 1)
        if reps:
            for ti in range(sj + 1):
                restricted = [sigma.restrict(c, cvs[ti]) for sigma in reps]
                column[ti] = _length_at_stage(stages[ti], restricted, k)
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
    """Outcome of validating the representative-family property."""

    ok: bool
    first_failure: tuple[float, int] | None = None
    failures: list[tuple[float, int, str]] = field(default_factory=list)


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

    def fail(t: float, p: int, reason: str) -> None:
        if report.ok:
            report.first_failure = (t, p)
        report.ok = False
        report.failures.append((t, p, reason))

    c = b.reduction.complex
    k = b.dim_bound
    skeleton = _Skeleton(c, len(c), k + 1)
    for t in c.critical_values:
        stage = _Stage(skeleton, t)
        basis = cohomology_basis(c, t, k, _stage=stage)
        for p in range(1, k + 1):
            alive = [bar for bar in b.bars if bar.dim == p and bar.contains(t)]
            expected = basis.dim(p)
            if len(alive) != expected:
                fail(t, p, f"{len(alive)} bars alive but dim H^{p} = {expected}")
                continue
            if not alive:
                continue
            masks = [stage.mask(bar.representative.restrict(c, t)) for bar in alive]
            exact = stage.exact_span(p)
            cocycles = exact.copy()
            cocycles.extend(stage.mask(sigma) for sigma in basis.basis[p])
            bad = next((i for i, m in enumerate(masks) if not cocycles.contains(m)), None)
            if bad is not None:
                fail(t, p, f"representative of bar {alive[bad]} is not a cocycle at {t}")
                continue
            kernel = _kernel_basis(masks, range(len(masks)), exact.copy())
            if kernel:
                fail(t, p, f"combination {kernel[0]:b} of restrictions is exact at {t}")
    return report
