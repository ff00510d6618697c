"""Persistent cup-length functions as generator sets, and erosion distance.

A function Int -> N is represented by finitely many generators
(interval, value); it evaluates on a query interval to the maximum value
over generators containing the query, 0 when none does.  This makes the
function monotone by construction (shrinking the query can only grow the
containing set) and makes reconstruction from a diagram the identity on
the point data.

Closures are compared in one endpoint order: an interval stores its ends
as ``lo = (left, not left_closed)``, an open left end sorting just after its
value, and ``hi = (right, right_closed)``, a closed right end sorting just
after its value.  It is non-empty iff ``lo < hi``, and containment,
overlap and intersection compare these keys as tuples.

Erosion distance is found by a search in floats: as epsilon grows the
combinatorial configuration only changes when a shrunk generator
endpoint crosses another endpoint or a generator collapses to a point.
All such breakpoints are differences or half differences of finite
generator endpoints, so the infimum is the first sorted candidate whose
gap to the next one passes the eroded predicate. The predicate is
monotone in epsilon, so a probe at any candidate tells on which side of
it the answer lies. The candidates are rows of sorted endpoint
differences and their halves, never listed whole: probes at the median
of a stride sample narrow a value bracket until a few hundred candidates
are left, and bisection over the gaps of those finds the answer with
logarithmically many probes. The candidates are float differences and
the predicate adds epsilon to endpoints in floats, so the answer can lie
a few floats from the exact infimum, above or below it; ROADMAP item 10
has the exact closed form that replaces this search.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from .cup import CupDiagram

INF = math.inf

# Erosion distance samples every _STRIDE-th candidate and narrows by probes
# until at most about _LISTED candidates are left to list.
_STRIDE = 16
_LISTED = 512


@dataclass(frozen=True)
class Interval:
    """A real interval with explicit endpoint closures; right end may be inf."""

    left: float
    right: float
    left_closed: bool = True
    right_closed: bool = False
    lo: tuple[float, bool] = field(init=False, repr=False, compare=False)
    hi: tuple[float, bool] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if math.isinf(self.left):
            raise ValueError("left endpoint must be finite")
        if math.isinf(self.right) and self.right_closed:
            object.__setattr__(self, "right_closed", False)
        if not self.left <= self.right:  # also rejects a nan at either end
            raise ValueError(f"interval needs left <= right, got left={self.left}, right={self.right}")
        if self.left == self.right and not (self.left_closed and self.right_closed):
            raise ValueError("a degenerate interval must be closed at both ends")
        object.__setattr__(self, "lo", (self.left, not self.left_closed))
        object.__setattr__(self, "hi", (self.right, self.right_closed))

    @classmethod
    def closed(cls, a: float, b: float) -> "Interval":
        return cls(a, b, True, True)

    @classmethod
    def closed_open(cls, a: float, b: float) -> "Interval":
        return cls(a, b, True, False)

    @classmethod
    def open(cls, a: float, b: float) -> "Interval":
        return cls(a, b, False, False)

    @classmethod
    def point(cls, a: float) -> "Interval":
        return cls(a, a, True, True)

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.right)

    @property
    def length(self) -> float:
        return self.right - self.left

    def contains(self, other: "Interval") -> bool:
        """Set containment, honoring closures."""
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        return self.lo < other.hi and other.lo < self.hi

    def intersect(self, other: "Interval") -> "Interval | None":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo[0], hi[0], not lo[1], hi[1]) if lo < hi else None

    def __str__(self) -> str:
        lb = "[" if self.left_closed else "("
        rb = "]" if self.right_closed else ")"
        right = "inf" if self.unbounded else f"{self.right:g}"
        return f"{lb}{self.left:g}, {right}{rb}"


Generator = tuple[Interval, int]


@dataclass(frozen=True)
class CupFunction:
    """Finite generator set for a monotone function from intervals to N."""

    generators: tuple[Generator, ...]

    def __post_init__(self) -> None:
        gens = sorted(
            set(self.generators),
            key=lambda g: (g[0].left, g[0].right, g[0].left_closed, g[0].right_closed, g[1]),
        )
        for _, v in gens:
            if v < 1:
                raise ValueError("generator values must be positive")
        object.__setattr__(self, "generators", tuple(gens))

    @classmethod
    def from_pairs(cls, pairs: Iterable[Generator]) -> "CupFunction":
        return cls(tuple(pairs))

    @classmethod
    def zero(cls) -> "CupFunction":
        return cls(())

    def __call__(self, interval: Interval) -> int:
        return evaluate(self, interval)


def evaluate(f: CupFunction, interval: Interval) -> int:
    """Largest generator value over generators containing the query, else 0."""
    best = 0
    for gen, value in f.generators:
        if value > best and gen.contains(interval):
            best = value
    return best


def reconstruct(diagram: "CupDiagram") -> CupFunction:
    """Cup-length function realized by a diagram: its points become the
    generators, so evaluation is the max of the diagram over containing
    intervals."""
    return CupFunction.from_pairs((i, v) for i, v in diagram.points.items())


def pointwise_sum(f: CupFunction, g: CupFunction) -> CupFunction:
    """Generator set evaluating to f + g everywhere.

    Besides both generator sets, every non-empty pairwise intersection is
    added with the summed value; the max rule then realizes the sum.
    """
    gens = list(f.generators) + list(g.generators)
    for gf, vf in f.generators:
        for gg, vg in g.generators:
            inter = gf.intersect(gg)
            if inter is not None:
                gens.append((inter, vf + vg))
    return CupFunction.from_pairs(gens)


def pointwise_max(f: CupFunction, g: CupFunction) -> CupFunction:
    return CupFunction.from_pairs(tuple(f.generators) + tuple(g.generators))


def _finite_ends(f: CupFunction, g: CupFunction) -> list[float]:
    """Sorted distinct finite endpoints of both generator sets."""
    return sorted(
        {x for gen, _ in f.generators + g.generators for x in ((gen.left,) if gen.unbounded else (gen.left, gen.right))}
    )


def _sampled_candidates(ends: list[float]) -> list[float]:
    """Every _STRIDE-th entry of the difference rows ends[j] - ends[i]
    (j > i) laid end to end, and its half, sorted; each stands for
    _STRIDE candidates."""
    sample: list[float] = []
    skip = 0
    for i, base in enumerate(ends):
        diffs = [x - base for x in ends[i + 1 + skip :: _STRIDE]]
        sample += diffs
        sample += [d / 2.0 for d in diffs]
        skip = (skip - (len(ends) - 1 - i)) % _STRIDE
    sample.sort()
    return sample


def _candidates_between(ends: list[float], lo: float, hi: float) -> list[float]:
    """Sorted distinct candidates in [lo, hi]: 0 and every difference
    ends[j] - ends[i] (j > i) or half difference in range.

    A row ascends in j and descends in i, so the first index of a row at
    or above lo, and the first above hi, never move back from row to row.
    Halves are compared as computed: d / 2.0 rounds among subnormals, and
    2 * hi may overflow.
    """
    found = [0.0] if lo == 0.0 else []
    n = len(ends)
    for div in (1.0, 2.0):  # d / 1.0 is d exactly
        start = stop = 0
        for i, base in enumerate(ends):
            if start <= i:
                start = i + 1
            while start < n and (ends[start] - base) / div < lo:
                start += 1
            if start == n:
                break  # this row and every later one lies below lo
            if stop < start:
                stop = start
            while stop < n and (ends[stop] - base) / div <= hi:
                stop += 1
            found += [(x - base) / div for x in ends[start:stop]]
    return sorted(set(found))


def _covers_shrunk(f: CupFunction, outer: Interval, value: int, eps: float) -> bool:
    """Does some generator of f with value >= ``value`` contain every closed
    query [a, b] whose eps-expansion lies inside ``outer``?"""
    lo = (outer.left + eps, not outer.left_closed)
    hi = (outer.right - eps, outer.right_closed)  # (inf, False) for unbounded outer
    return not lo < hi or any(v >= value and gen.lo <= lo and hi <= gen.hi for gen, v in f.generators)


def _eroded(f: CupFunction, g: CupFunction, eps: float) -> bool:
    """The eroded predicate for closed query intervals at a given eps."""
    return all(_covers_shrunk(f, outer, value, eps) for outer, value in g.generators) and all(
        _covers_shrunk(g, outer, value, eps) for outer, value in f.generators
    )


def erosion_distance(f: CupFunction, g: CupFunction) -> float:
    """Infimum over eps such that each function dominates the other after
    expanding closed query intervals by eps; inf if no eps suffices.

    The predicate is piecewise constant between the endpoint-difference
    candidates, so the infimum is the left candidate of the first gap whose
    midpoint passes; the last gap reaches to its candidate plus one.  A
    larger eps shrinks every query the predicate must cover, so it is
    non-decreasing in eps; the midpoints grow with the gap index, so the
    passing gaps form a suffix.

    The candidates are never all listed.  A probe at a candidate v splits
    them: if v fails, so does every gap below it, whose midpoint is at most
    v, and the answer is at least v; if v passes, so does the gap starting
    at v, and the answer is at most v.  Probes at the median of a sorted
    sample narrow the bracket [lo, hi] until about _LISTED candidates are
    left; those are listed, and bisection over their gaps finds the first
    that passes.  A pivot v whose double overflows ends the narrowing: the
    midpoint of the gap below such a v can round up past it.
    """
    ends = _finite_ends(f, g)
    sample = _sampled_candidates(ends)
    lo, hi = 0.0, INF  # the answer lies in [lo, hi]; hi stays INF until a probe passes
    p, q = 0, len(sample)  # sample[p:q] holds the sampled candidates inside the bracket
    while (q - p) * _STRIDE > _LISTED:
        pivot = sample[(p + q) // 2]
        if math.isinf(pivot + pivot):
            break
        if _eroded(f, g, pivot):
            hi, q = pivot, bisect_left(sample, pivot, p, q)
        else:
            lo, p = pivot, bisect_right(sample, pivot, p, q)
    cands = _candidates_between(ends, lo, hi)
    n = len(cands)
    first, last = 0, (n - 1 if hi < INF else n)  # the first passing gap lies in [first, last]; n means none
    while first < last:
        mid = (first + last) // 2
        upper = cands[mid + 1] if mid + 1 < n else cands[mid] + 1.0
        if _eroded(f, g, (cands[mid] + upper) / 2.0):
            last = mid
        else:
            first = mid + 1
    return cands[first] if first < n else INF


def analytic_vr_circle(L: int) -> CupFunction:
    """Cup-length function of the Rips filtration of the unit geodesic circle.

    Value 1 on each open scale window (2*pi*l/(2l+1), 2*pi*(l+1)/(2l+3)),
    materialized for l = 0..L.
    """
    if L < 1:
        raise ValueError("L must be at least 1")
    gens = []
    for l in range(L + 1):
        a = 2.0 * math.pi * l / (2 * l + 1)
        b = 2.0 * math.pi * (l + 1) / (2 * l + 3)
        gens.append((Interval.open(a, b), 1))
    return CupFunction.from_pairs(gens)


def analytic_vr_torus(L: int) -> CupFunction:
    """Same windows as the circle at value 2 (the product of two circles
    under the sup metric doubles the cup-length on each window)."""
    return CupFunction.from_pairs((gen, 2) for gen, _ in analytic_vr_circle(L).generators)


def analytic_vr_wedge_lower() -> CupFunction:
    """Known lower part of the Rips cup-length function of a wedge of a
    circle, a 2-sphere and a circle: value 1 on (0, arccos(-1/3))."""
    zeta = math.acos(-1.0 / 3.0)
    return CupFunction.from_pairs([(Interval.open(0.0, zeta), 1)])
