"""Finite filtered simplicial complexes over a discrete grid of critical values.

A complex stores its simplices in a single canonical total order that is
compatible with the filtration: grade ascending, then dimension ascending,
then lexicographic on vertices.  Everything downstream (matrix reduction,
barcode harvesting, stage restriction) indexes simplices by their position
in this order, so the order is part of the data structure's contract.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import (
    AsymmetricMatrix,
    DuplicateSimplex,
    InvalidSimplex,
    MissingFace,
    NegativeDistance,
    NonFiniteDistance,
    NonFiniteGrade,
    NonMonotoneGrades,
    UnknownSimplex,
)

Verts = tuple[int, ...]


@dataclass(frozen=True)
class Simplex:
    """A simplex as a strictly increasing tuple of non-negative vertex ids."""

    vertices: Verts

    def __post_init__(self) -> None:
        v = tuple(self.vertices)
        object.__setattr__(self, "vertices", v)
        if not v:
            raise InvalidSimplex("simplex needs at least one vertex")
        if any(x < 0 for x in v):
            raise InvalidSimplex(f"negative vertex id in {v}")
        if any(a >= b for a, b in zip(v, v[1:])):
            raise InvalidSimplex(f"vertices must be strictly increasing: {v}")

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1


def faces(verts: Verts) -> list[Verts]:
    """All codimension-1 faces of a vertex tuple."""
    return [verts[:i] + verts[i + 1 :] for i in range(len(verts))]


@dataclass
class FilteredComplex:
    """A face-closed simplicial complex with a grade per simplex.

    ``simplices[i]`` is the vertex tuple at order position ``i`` and
    ``grades[i]`` its filtration value; positions follow the canonical
    (grade, dimension, lexicographic) order.  ``index_of``,
    ``critical_values`` and ``dim`` are derived from these two at
    construction.  Instances are treated as immutable after construction
    and are safe to share between threads.
    """

    simplices: list[Verts]
    grades: list[float]
    index_of: dict[Verts, int] = field(init=False, repr=False)
    critical_values: list[float] = field(init=False)
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        self.index_of = {v: i for i, v in enumerate(self.simplices)}
        self.critical_values = sorted(set(self.grades))
        self.dim = max(len(v) for v in self.simplices) - 1

    def __len__(self) -> int:
        return len(self.simplices)

    def __contains__(self, verts) -> bool:
        key = verts.vertices if isinstance(verts, Simplex) else tuple(verts)
        return key in self.index_of

    def grade_of(self, verts) -> float:
        key = verts.vertices if isinstance(verts, Simplex) else tuple(verts)
        try:
            return self.grades[self.index_of[key]]
        except KeyError:
            raise UnknownSimplex(f"simplex {key} not in complex") from None

    def alive_at(self, s, t: float) -> bool:
        """True iff the simplex has entered the filtration by parameter t."""
        return self.grade_of(s) <= t

    def stage_count(self, t: float) -> int:
        """Number of simplices with grade <= t (a prefix of the order)."""
        return bisect.bisect_right(self.grades, t)


def _ordered_complex(entries: list[tuple[Verts, float]]) -> FilteredComplex:
    """The complex of (vertex tuple, grade) entries, sorted into the canonical order."""
    entries.sort(key=lambda e: (e[1], len(e[0]), e[0]))
    return FilteredComplex([v for v, _ in entries], [g for _, g in entries])


def from_simplex_list(entries: Iterable[tuple[Sequence[int], float]]) -> FilteredComplex:
    """Build a validated complex from (vertex list, grade) pairs.

    Vertex lists are treated as sets and sorted; duplicate simplices,
    missing faces, non-finite and non-monotone grades are rejected rather
    than fixed up silently.
    """
    graded: dict[Verts, float] = {}
    for raw, grade in entries:
        verts = tuple(sorted(raw))
        if len(set(verts)) != len(verts):
            raise DuplicateSimplex(f"repeated vertex in {raw}")
        Simplex(verts)
        if verts in graded:
            raise DuplicateSimplex(f"simplex {verts} listed twice")
        grade = float(grade)
        if not math.isfinite(grade):
            raise NonFiniteGrade(f"simplex {verts} has non-finite grade {grade}")
        graded[verts] = grade
    if not graded:
        raise MissingFace("empty simplex list")

    for verts, grade in graded.items():
        if len(verts) == 1:
            continue
        for face in faces(verts):
            if face not in graded:
                raise MissingFace(f"face {face} of {verts} is missing")
            if graded[face] > grade:
                raise NonMonotoneGrades(
                    f"face {face} at {graded[face]} enters after {verts} at {grade}"
                )

    return _ordered_complex(list(graded.items()))


def build_vietoris_rips(
    D: Sequence[Sequence[float]], max_dim: int, max_scale: float
) -> FilteredComplex:
    """Vietoris-Rips filtration of a finite metric space.

    Contains every simplex on at most ``max_dim + 1`` points whose diameter
    is at most ``max_scale``, graded by diameter; vertices enter at 0.
    """
    n = len(D)
    for i in range(n):
        if len(D[i]) != n:
            raise AsymmetricMatrix("distance matrix is not square")
        for j, d in enumerate(D[i]):
            if not math.isfinite(d):
                raise NonFiniteDistance(f"non-finite distance {d} at ({i},{j})")
    for i in range(n):
        if D[i][i] != 0:
            raise AsymmetricMatrix(f"non-zero diagonal entry at {i}")
        for j in range(n):
            if D[i][j] < 0:
                raise NegativeDistance(f"negative distance at ({i},{j})")
            if D[i][j] != D[j][i]:
                raise AsymmetricMatrix(f"asymmetry at ({i},{j})")
    if max_dim < 0:
        raise ValueError("max_dim must be non-negative")

    entries: list[tuple[Verts, float]] = [((i,), 0.0) for i in range(n)]
    frontier: list[tuple[Verts, float]] = [((i,), 0.0) for i in range(n)]
    for _ in range(max_dim):
        grown: list[tuple[Verts, float]] = []
        for verts, diam in frontier:
            # extend by smaller-id vertices only, so each clique appears once
            for v in range(verts[0]):
                d = diam
                ok = True
                for u in verts:
                    duv = D[u][v]
                    if duv > max_scale:
                        ok = False
                        break
                    if duv > d:
                        d = duv
                if ok:
                    grown.append(((v,) + verts, d))
        entries.extend(grown)
        frontier = grown

    return _ordered_complex(entries)


def truncate(c: FilteredComplex, dim_cap: int) -> FilteredComplex:
    """Keep exactly the simplices of dimension <= dim_cap, grades unchanged.

    To preserve cohomology up to dimension k, pass ``dim_cap = k + 1``.
    """
    if dim_cap < 0:
        raise ValueError("dim_cap must be non-negative")
    if c.dim <= dim_cap:
        return c
    keep = [i for i, v in enumerate(c.simplices) if len(v) - 1 <= dim_cap]
    return FilteredComplex([c.simplices[i] for i in keep], [c.grades[i] for i in keep])


def diameter(D: Sequence[Sequence[float]]) -> float:
    return max(max(row) for row in D)


def distances_from_points(points: Sequence[Sequence[float]]) -> list[list[float]]:
    """Euclidean distance matrix of a point cloud."""
    n = len(points)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = math.dist(points[i], points[j])
            out[i][j] = out[j][i] = d
    return out
