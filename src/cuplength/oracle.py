"""Brute-force ground truth, kept independent of the main pipeline.

Everything here is recomputed from scratch with its own plain Gaussian
elimination over Z2 (bitmask row echelon) and its own cup product against
an explicit stage of the filtration.  It exists to verify the
reduction-based pipeline, so it shares no matrix code with it; only the
complex and cochain containers are reused.  Intended for desk-scale
instances.

A stage is a prefix of the complex's canonical order.  Each computation
builds one skeleton of the complex, its simplices as integer positions
with integer face positions, and reads every stage from it.
``oracle_cup_function`` and the representative-family check
``validate_family`` build each stage once and compute each of its
coboundary maps once: one elimination of the degree-p map gives both the
cocycles of degree p and the coboundaries of degree p + 1.
"""

from __future__ import annotations

import math
from array import array
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
    the canonical order, as ints: each dimension's positions in
    lexicographic order, and each simplex's face positions.

    One skeleton serves every stage inside its prefix.
    """

    def __init__(self, c: FilteredComplex, n: int, top: int):
        simplices = c.simplices
        index_of = c.index_of
        by_dim: dict[int, list[int]] = {}
        for i in range(n):
            p = len(simplices[i]) - 1
            if p <= top:
                by_dim.setdefault(p, []).append(i)
        self.c = c
        self.top = top
        self.lex = {p: sorted(ps, key=simplices.__getitem__) for p, ps in by_dim.items()}
        self.faces: dict[int, list[int]] = {
            i: [index_of[f] for f in faces(simplices[i])]
            for p, ps in by_dim.items()
            if p >= 1
            for i in ps
        }


class _Stage:
    """The subcomplex at one parameter: a prefix of the canonical order.

    A p-simplex's local index is its rank among the stage's p-simplices
    in lexicographic order.  Faces precede their cofaces in the canonical
    order, so every face of a stage simplex is in the stage.
    """

    def __init__(self, skeleton: _Skeleton, t: float):
        c = skeleton.c
        n = c.stage_count(t)
        self.c = c
        self.n = n
        self.skeleton = skeleton
        self.size: dict[int, int] = {}
        # local index by position, for the dimensions below the skeleton's
        # top: the only ones a cochain or a coboundary map's rows can have
        self.rank = rank = array("i", bytes(4 * n))
        for p in range(skeleton.top):
            kept = self.gens(p)
            self.size[p] = len(kept)
            for r, i in enumerate(kept):
                rank[i] = r
        # exact spans by degree, kept by cohomology_basis or built on use
        self.spans: dict[int, _Echelon] = {}

    def gens(self, p: int) -> list[int]:
        """Positions of the stage's p-simplices, in lexicographic order."""
        n = self.n
        return [i for i in self.skeleton.lex.get(p, ()) if i < n]

    def mask(self, sigma: Cochain) -> int:
        index_of = self.c.index_of
        rank = self.rank
        m = 0
        for v in sigma.summands:
            m |= 1 << rank[index_of[v]]
        return m

    def coboundary_map(self, p: int) -> list[int]:
        """For each p-simplex (local order) the mask of its cofacets."""
        out = [0] * self.size[p]
        rank = self.rank
        faces_of = self.skeleton.faces
        for bit, j in enumerate(self.gens(p + 1)):
            b = 1 << bit
            for f in faces_of[j]:
                out[rank[f]] |= b
        return out

    def exact_span(self, p: int) -> _Echelon:
        """Echelon of the image of the degree-(p-1) coboundary map."""
        span = self.spans.get(p)
        if span is None:
            span = _Echelon()
            if p >= 1:
                for image in self.coboundary_map(p - 1):
                    span.insert(image)
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


def _kernel_basis(images: list[int], image: _Echelon | None = None) -> tuple[list[int], _Echelon]:
    """Combination masks spanning the kernel of a Z2 linear map given by
    the image of each generator, and an echelon of its image.

    The echelon is row for row the one that inserting each image in turn
    builds, so one elimination serves both.  Given a starting echelon
    ``image``, which it extends, the kernel is taken modulo that span.
    """
    if image is None:
        image = _Echelon()
    rows = image.rows
    combos = dict.fromkeys(rows, 0)
    kernel = []
    for j, v in enumerate(images):
        combo = 1 << j
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
    return kernel, image


def cohomology_basis(
    c: FilteredComplex, t: float, k: int, *, _stage: _Stage | None = None
) -> CohomBasis:
    """Bases of H^p of the stage-t subcomplex for p = 0..k, by elimination.

    One elimination of each degree-p coboundary map gives the kernel at p
    and the exact span at p + 1.  ``_stage`` is the stage-t subcomplex of
    a skeleton of dimension k + 1 that the caller already holds; it keeps
    each exact span, taken before the representatives enter it.
    """
    if t not in c.critical_values:
        raise NotCriticalValue(f"{t} is not a critical value")
    stage = _stage
    if stage is None:
        stage = _Stage(_Skeleton(c, c.stage_count(t), k + 1), t)
    basis: dict[int, list[Cochain]] = {}
    exact = _Echelon()
    for p in range(k + 1):
        gens = stage.gens(p)
        if not gens:
            basis[p] = []
            continue
        stage.spans[p] = exact
        kernel, image = _kernel_basis(stage.coboundary_map(p))
        span = exact.copy()
        reps = []
        for combo in kernel:
            if span.insert(combo):
                summands = frozenset(c.simplices[gens[i]] for i in _bits(combo))
                reps.append(Cochain(p, summands))
        basis[p] = reps
        exact = image
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
    final critical value), pruned of dominated entries; evaluation on any
    closed interval with critical endpoints equals the direct image
    computation.
    """
    cvs = c.critical_values
    skeleton = _Skeleton(c, len(c), k + 1)
    stages: list[_Stage] = []
    gens: list[tuple[Interval, int]] = []
    for sj, s in enumerate(cvs):
        stages.append(_Stage(skeleton, s))
        src = cohomology_basis(c, s, k, _stage=stages[sj])
        reps = [sigma for p in range(1, k + 1) for sigma in src.basis.get(p, [])]
        for ti in range(sj + 1):
            t = cvs[ti]
            restricted = [sigma.restrict(c, t) for sigma in reps]
            value = _length_at_stage(stages[ti], restricted, k)
            if value > 0:
                right = INF if sj == len(cvs) - 1 else s
                gens.append((Interval.closed(t, right), value))
    kept = []
    for gen, v in gens:
        dominated = False
        for og, ov in gens:
            if (og, ov) == (gen, v):
                continue
            if og.left <= gen.left and og.right >= gen.right and ov >= v:
                dominated = True
                break
        if not dominated:
            kept.append((gen, v))
    return CupFunction.from_pairs(kept)


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
            for sigma in basis.basis[p]:
                cocycles.insert(stage.mask(sigma))
            bad = next((i for i, m in enumerate(masks) if not cocycles.contains(m)), None)
            if bad is not None:
                fail(t, p, f"representative of bar {alive[bad]} is not a cocycle at {t}")
                continue
            kernel, _ = _kernel_basis(masks, exact.copy())
            if kernel:
                fail(t, p, f"combination {kernel[0]:b} of restrictions is exact at {t}")
    return report
