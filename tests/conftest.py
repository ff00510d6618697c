"""Shared generators and brute-force oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import random

from cuplength import functions as fn
from cuplength.cohomology import Cochain
from cuplength.simplicial import FilteredComplex, faces, from_simplex_list

GRID = (0.0, 1.0, 2.0, 3.0)


def random_filtration(
    rng: random.Random,
    max_vertices: int = 7,
    max_dim: int = 3,
    grid: tuple[float, ...] = GRID,
    max_positive: int = 25,
    density: tuple[float, ...] = (0.8, 0.55, 0.3),
) -> FilteredComplex:
    """A random face-closed filtration with grades drawn from a small grid."""
    n = rng.randint(3, max_vertices)
    chosen: dict[tuple[int, ...], float] = {(v,): rng.choice(grid) for v in range(n)}
    for d, prob in zip(range(1, max_dim + 1), density):
        for combo in itertools.combinations(range(n), d + 1):
            if rng.random() < prob:
                chosen[combo] = rng.choice(grid)
    for length in range(max_dim + 1, 1, -1):
        for s in [x for x in chosen if len(x) == length]:
            for f in faces(s):
                if f not in chosen:
                    chosen[f] = chosen[s]
    for s in sorted(chosen, key=len):
        if len(s) > 1:
            m = max(chosen[f] for f in faces(s))
            if chosen[s] < m:
                chosen[s] = m
    while sum(1 for s in chosen if len(s) > 1) > max_positive:
        maximal = sorted(
            s for s in chosen if len(s) > 1 and not any(set(s) < set(o) for o in chosen)
        )
        del chosen[rng.choice(maximal)]
    return from_simplex_list([(list(s), g) for s, g in sorted(chosen.items())])


def cochain_coboundary(c: FilteredComplex, sigma: Cochain, t: float) -> Cochain:
    """Coboundary of sigma evaluated in the stage-t subcomplex, face by face:
    the cocycle reference, independent of the reduction."""
    out: set[tuple[int, ...]] = set()
    q = sigma.p + 1
    for verts, grade in zip(c.simplices, c.grades):
        if grade > t:
            break
        if len(verts) != q + 1:
            continue
        count = sum(1 for f in faces(verts) if f in sigma.summands)
        if count & 1:
            out.add(verts)
    return Cochain(q, frozenset(out))


def homology_bars(c: FilteredComplex, max_dim: int) -> list[tuple[int, float, float]]:
    """Sorted (dim, birth, death) bars of dimensions 0..max_dim, from the
    boundary matrix: persistent homology and cohomology have the same
    barcode (de Silva, Morozov and Vejdemo-Johansson, "Dualities in
    persistent (co)homology", Inverse Problems 2011).

    The pipeline's independent reference: it reads c only through
    ``simplices`` and ``grades`` and uses nothing of z2, cohomology or
    cup.  Columns are bitmasks over filtration indices, reduced from the
    top dimension the bars need down to edges, in filtration order; the
    column of a simplex that is already a pivot row is cleared, since it
    reduces to zero.  A simplex whose column reduces to zero is born; it
    dies at the column whose pivot row it is, if any.
    """
    simplices, grades = c.simplices, c.grades
    index = {v: i for i, v in enumerate(simplices)}
    by_dim: dict[int, list[int]] = {}
    for i, v in enumerate(simplices):
        by_dim.setdefault(len(v) - 1, []).append(i)
    owner: dict[int, int] = {}  # pivot row -> the column that owns it
    reduced: dict[int, int] = {}  # the non-zero reduced columns
    for p in range(min(max(by_dim), max_dim + 1), 0, -1):
        for j in by_dim[p]:
            if j in owner:
                continue
            col = 0
            for f in itertools.combinations(simplices[j], p):
                col |= 1 << index[f]
            while col:
                low = col.bit_length() - 1
                if low not in owner:
                    owner[low] = j
                    reduced[j] = col
                    break
                col ^= reduced[owner[low]]
    bars = []
    for p in range(min(max(by_dim), max_dim) + 1):
        for i in by_dim[p]:
            if i in reduced:
                continue
            j = owner.get(i)
            if j is None:
                bars.append((p, grades[i], math.inf))
            elif grades[i] < grades[j]:
                bars.append((p, grades[i], grades[j]))
    return sorted(bars)


def regrade(rng: random.Random, c: FilteredComplex, grid: tuple[float, ...] = GRID) -> FilteredComplex:
    """Reassign random monotone grades from the grid to a fixed complex."""
    chosen = {v: rng.choice(grid) for v in c.simplices}
    for s in sorted(chosen, key=len):
        if len(s) > 1:
            m = max(chosen[f] for f in faces(s))
            if chosen[s] < m:
                chosen[s] = m
    return from_simplex_list([(list(s), g) for s, g in sorted(chosen.items())])


def random_cup_function(
    rng: random.Random,
    max_gens: int = 4,
    allow_unbounded: bool = True,
    endpoint_range: int = 16,
    max_value: int = 3,
) -> fn.CupFunction:
    """Random generator-set function with half-integer endpoints."""
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        a = rng.randint(0, endpoint_range) / 2.0
        if allow_unbounded and rng.random() < 0.2:
            interval = fn.Interval(a, math.inf)
        else:
            b = a + rng.randint(1, 8) / 2.0
            interval = fn.Interval(a, b, rng.random() < 0.7, rng.random() < 0.5)
        gens.append((interval, rng.randint(1, max_value)))
    return fn.CupFunction.from_pairs(gens)


def grid_erosion(
    f: fn.CupFunction,
    g: fn.CupFunction,
    step: float = 0.5,
    eps_span: float = 16.0,
    data_span: float = 13.0,
) -> float:
    """Brute-force erosion distance on a uniform grid of queries and epsilons.

    Query points extend past the epsilon range by the data range so that
    unbounded generators always have witnesses on the grid; the result is
    exact up to one grid step for half-integer generator data.
    """
    q_span = eps_span + data_span
    pts = [i * step for i in range(int(q_span / step) + 1)]
    cache_f: dict = {}
    cache_g: dict = {}

    def ev(h, cache, a, b):
        key = (a, b)
        if key not in cache:
            q = fn.Interval(a, b) if math.isinf(b) else fn.Interval.closed(a, b)
            cache[key] = fn.evaluate(h, q)
        return cache[key]

    queries = [(a, b) for a in pts for b in pts if a <= b] + [(a, math.inf) for a in pts]

    def eroded(eps):
        for a, b in queries:
            if ev(f, cache_f, a, b) < ev(g, cache_g, a - eps, b + eps):
                return False
            if ev(g, cache_g, a, b) < ev(f, cache_f, a - eps, b + eps):
                return False
        return True

    for i in range(int(eps_span / step) + 1):
        if eroded(i * step):
            return i * step
    return math.inf


def sup_torus_distances(n: int) -> list[list[float]]:
    """Sup-metric distances of the n x n grid on two geodesic circles of
    circumference 2 pi."""
    h = 2 * math.pi / n

    def circle(a, b):
        d = abs(a - b)
        return min(d, n - d) * h

    grid = [(i, j) for i in range(n) for j in range(n)]
    return [[max(circle(p[0], q[0]), circle(p[1], q[1])) for q in grid] for p in grid]


def grid_queries(values, pad: float = 0.25):
    """Closed intervals over a grid of endpoints and their small offsets."""
    base = sorted(set(values))
    pts = sorted({x + d for x in base for d in (-pad, 0.0, pad)})
    return [fn.Interval.closed(a, b) for a in pts for b in pts if a <= b]


def simplicial_product(a: FilteredComplex, b: FilteredComplex) -> FilteredComplex:
    """Order-complex triangulation of the product of two filtrations.

    Simplices are the monotone chains of vertex pairs whose projections
    are simplices of the factors; a chain enters at the later of its two
    projection grades, realizing the stage-wise product filtration.
    """
    maximal_a = [s for s in a.simplices if not any(set(s) < set(o) for o in a.simplices)]
    maximal_b = [s for s in b.simplices if not any(set(s) < set(o) for o in b.simplices)]
    vid: dict[tuple[int, int], int] = {}

    def v(pa: int, pb: int) -> int:
        if (pa, pb) not in vid:
            vid[(pa, pb)] = len(vid)
        return vid[(pa, pb)]

    chains: set[tuple[tuple[int, int], ...]] = set()
    for sa in maximal_a:
        for sb in maximal_b:
            grid = sorted((x, y) for x in sa for y in sb)

            def extend(chain, start):
                if chain:
                    chains.add(tuple(chain))
                for i in range(start, len(grid)):
                    x, y = grid[i]
                    if not chain or (x >= chain[-1][0] and y >= chain[-1][1]):
                        extend(chain + [(x, y)], i + 1)

            extend([], 0)
    entries: dict[tuple[int, ...], float] = {}
    for chain in chains:
        pa = tuple(sorted({x for x, _ in chain}))
        pb = tuple(sorted({y for _, y in chain}))
        grade = max(a.grades[a.index_of[pa]], b.grades[b.index_of[pb]])
        entries[tuple(sorted(v(x, y) for x, y in chain))] = grade
    return from_simplex_list([(list(k), g) for k, g in entries.items()])
