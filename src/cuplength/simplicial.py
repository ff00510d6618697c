"""Finite filtered simplicial complexes over a discrete grid of critical values.

A complex stores its simplices in a single canonical total order that is
compatible with the filtration: grade ascending, then dimension ascending,
then lexicographic on vertices.  Everything downstream (matrix reduction,
barcode harvesting, stage restriction) indexes simplices by their position
in this order, so the order is part of the data structure's contract.

``FilteredComplex`` has one constructor.  It takes the simplices listed by
dimension and then lexicographically, as ``from_simplex_list``,
``build_vietoris_rips`` and ``truncate`` produce them, and sorts that
listing by grade alone: ``sorted`` is stable, so simplices of equal grade
keep their (dimension, lexicographic) order and the result is the
canonical order without a composite key.

The dimension a caller caps a complex at, ``top``, is stored without a
vertex tuple or index entry per simplex: K, most of the complex, for
``build_vietoris_rips(D, K)`` and ``cap`` for ``truncate(c, cap)``.  Its
simplices are listed by parent (the simplex on their first vertices) and
then by last vertex, which is lexicographic order: three parallel
``array('i')`` hold each one's parent, last vertex and position, and the
children of a parent are a contiguous run of that listing.  The
dimensions below are vertex tuples with a dict from tuple to position.  A
complex read from a list names no cap: its ``top`` is one above its
dimension and empty.  ``simplices`` and ``index_of`` are views over both
that answer for every simplex.

A complex finds its own cofacets: ``cofacets(verts)`` joins a simplex
with the common neighbours of its vertices, read from one neighbour map
built from the complex's edges, and ``first_cofacets()`` gives every
simplex's first cofacet.  A Vietoris-Rips complex, and a truncation of
it, keeps its own copy of the distances it was built from and takes every
first cofacet from them: a join t + w has the grade of t or more, and
joins of equal grade are ordered by w, so the first is the join of least
w that keeps t's grade (an emergent pair, in Bauer's Ripser) when there
is one, and otherwise the join of least (grade, w).  A listed complex
reads them off its simplices' faces, a walk that also checks their closure
and grade order, and, when truncated, off its top listing.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict, deque
from collections.abc import Mapping, Sequence
from typing import Iterable, Iterator

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


def faces(verts: Verts) -> list[Verts]:
    """All codimension-1 faces of a vertex tuple."""
    return [verts[:i] + verts[i + 1 :] for i in range(len(verts))]


class FilteredComplex:
    """A face-closed simplicial complex with a grade per simplex.

    ``grades[i]`` is the filtration value at order position ``i``;
    positions follow the canonical (grade, dimension, lexicographic)
    order.  ``top`` is the dimension stored as arrays: the cap of a
    Vietoris-Rips complex or a truncation, or ``dim + 1``, empty, for a
    complex read from a list.  It is at least 1, since a vertex has no
    parent.

    - ``lower`` lists the simplices below ``top`` as vertex
      tuples, by dimension and then lexicographically, and
      ``lower_index`` maps each to its position.
    - The top simplices are listed by parent and then by last vertex,
      the order their constructors produce.  The j-th listed one is
      ``lower[parent[j]]`` followed by the vertex ``last[j]``, and it
      sits at position ``top_pos[j]``.  The children of ``lower[r]`` are
      the listed entries ``child_start[r]`` to ``child_start[r + 1]``;
      ``top_children()`` reads them parent by parent.
    - ``rank_at[i]`` is the index into the whole listing, the lower
      simplices and then the top ones, of what sits at position i:
      ``lower[r]`` for ``r < len(lower)``, and otherwise the
      ``(r - len(lower))``-th listed top simplex.
    - ``simplices`` and ``index_of`` are read-only views of the vertex
      tuple at each position and the position of each tuple.  A lower
      tuple is one dict hit; a top one is its parent's dict hit and a
      bisection among the parent's children by last vertex.
    - ``distances`` is the distance matrix of a Vietoris-Rips complex or
      its truncation, a tuple of row tuples, and None for a complex read
      from a list.

    Only this module reads these arrays; other modules read a complex
    through ``simplices``, ``index_of``, ``positions``, ``top_children``,
    ``first_cofacets``, ``cofacets`` and ``lower_index`` as a mapping.
    Instances are treated as immutable after construction, but for the
    neighbour map and the first-cofacet array, each built on first use and
    stored whole, and are safe to share between threads.
    """

    __slots__ = (
        "grades",
        "critical_values",
        "dim",
        "top",
        "lower",
        "lower_index",
        "parent",
        "last",
        "top_pos",
        "child_start",
        "rank_at",
        "simplices",
        "index_of",
        "distances",
        "_near",
        "_first",
    )

    def __init__(
        self,
        lower: list[Verts],
        grades: list[float],
        parent: array,
        last: array,
        top: int,
        distances: tuple[tuple[float, ...], ...] | None = None,
    ):
        """Store the simplices listed in (dimension, lexicographic) order:
        the ones below dimension ``top`` as tuples, ``lower``, and each top
        one as its parent, an index into ``lower``, and its last vertex,
        two ``array('i')`` kept in that listed order.  The caller splits the
        top dimension off; ``grades`` runs parallel to the whole listing,
        the lower simplices and then the top ones.  A Vietoris-Rips complex
        also passes the distances it was built from."""
        self.top = top
        self.distances = distances
        self._near = None
        self._first = None
        n_lower = len(lower)
        self.dim = top if parent else len(lower[-1]) - 1
        self.lower = lower
        # stable, so at equal grade a lower simplex precedes every top one
        # and each dimension stays lexicographic
        rank_at = array("i", sorted(range(len(grades)), key=grades.__getitem__))
        self.grades = list(map(grades.__getitem__, rank_at))
        # one per run of equal grades, the first, as a set would keep it
        self.critical_values = [g for g, _ in itertools.groupby(self.grades)]
        index = {}
        top_pos = array("i", bytes(4 * len(parent)))
        for i, r in enumerate(rank_at):
            if r < n_lower:
                index[lower[r]] = i
            else:
                top_pos[r - n_lower] = i
        self.rank_at = rank_at
        self.top_pos = top_pos
        self.lower_index = index
        self.parent = parent
        self.last = last
        counts = map(Counter(parent).get, range(n_lower), itertools.repeat(0))
        self.child_start = array("i", itertools.accumulate(counts, initial=0))
        self.simplices = _SimplexView(self)
        self.index_of = _IndexView(self)

    def __len__(self) -> int:
        return len(self.grades)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FilteredComplex):
            return NotImplemented
        return self.grades == other.grades and self.simplices == other.simplices

    def __repr__(self) -> str:
        return f"FilteredComplex({len(self)} simplices, dim {self.dim})"

    def __contains__(self, verts) -> bool:
        return tuple(verts) in self.index_of

    def grade_of(self, verts) -> float:
        key = tuple(verts)
        try:
            return self.grades[self.index_of[key]]
        except KeyError:
            raise UnknownSimplex(f"simplex {key} not in complex") from None

    def positions(self, p: int) -> Mapping[Verts, int]:
        """The position of each p-simplex: ``index_of`` at ``top``, and
        ``lower_index``, a plain dict, at every other dimension."""
        return self.index_of if p == self.top else self.lower_index

    def top_children(self) -> Iterator[tuple[Verts, array, array]]:
        """The top simplices as listed, parent by parent: each parent's
        vertex tuple with the last vertices of its children, increasing,
        and their positions.  A complex with no top simplex yields nothing."""
        parent, start, last, at = self.parent, self.child_start, self.last, self.top_pos
        if not parent:
            return
        for r in range(parent[0], parent[-1] + 1):
            lo, hi = start[r], start[r + 1]
            if lo < hi:
                yield self.lower[r], last[lo:hi], at[lo:hi]

    def first_cofacets(self) -> array:
        """The position of each simplex's first cofacet, the least position
        among its cofacets, or ``len(self)`` where it has none: from the
        distances when the complex has them, else off its faces and its top
        listing.  Built on the first call and kept; callers must not change it."""
        if self._first is None:
            first = array("i", [len(self)]) * len(self)
            if self.distances is None:
                self._listed_first_cofacets(first)
            else:
                self._scanned_first_cofacets(first)
            self._first = first
        return self._first

    def cofacets(self, verts: Verts) -> list[int]:
        """The positions of the cofacets of a simplex of the complex, in no
        order: its joins with the common neighbours of its vertices that
        the complex holds (all of them, in a flag complex)."""
        near = self._neighbours()
        common = near[verts[0]]
        for v in verts[1:]:
            common = common & near[v]
        get = self.positions(len(verts)).get
        found = []
        for w in common:
            j = bisect_right(verts, w)
            i = get(verts[:j] + (w,) + verts[j:])
            if i is not None:
                found.append(i)
        return found

    def _neighbours(self) -> dict[int, set[int]]:
        """Each vertex's neighbours, the other ends of its edges: tuples
        below a top of 2 or more, the top listing at 1.  A dict, since a
        listed complex's ids may be sparse, built on the first call and
        stored whole, so two threads at worst build it twice."""
        near = self._near
        if near is None:
            lower = self.lower
            n = bisect_left(lower, 2, key=len)
            near = {v: set() for (v,) in lower[:n]}
            if self.top == 1:
                edges = ((lower[r][0], w) for r, w in zip(self.parent, self.last))
            else:
                edges = lower[n : bisect_left(lower, 3, key=len)]
            for a, b in edges:
                near[a].add(b)
                near[b].add(a)
            self._near = near
        return near

    def _scanned_first_cofacets(self, first: array) -> None:
        """First cofacets from the distances.

        The cofacets of a simplex t of grade d are its joins t + w, one for
        each vertex w outside t within the cap of all of t's vertices, and
        a join's grade is the largest of d and the distances from w to t's
        vertices.  Two joins differ in w alone, so their lexicographic
        order is the order of w, and the first cofacet is the join of least
        (grade, w).  No join has a grade below d, so the first is the join
        of least w that keeps the grade d, an emergent pair in Bauer's
        Ripser, when there is one: the lowest bit of the intersection, over
        t's vertices u, of the neighbours within d of u.  Only when that is
        empty are the joins' grades compared.  One position is looked up
        per simplex.  The vertex ids of a Vietoris-Rips complex are 0 to
        n - 1, the rows of its distances, so a bitmask over them is small.
        """
        D, grades, lower = self.distances, self.grades, self.lower
        near = self._neighbours()
        # for each vertex u, the distances to its neighbours, ascending, and
        # nearest[u][r], the bitmask of the r nearest
        radii, nearest = [], []
        for u, row in enumerate(D):
            order = sorted(near[u], key=row.__getitem__)
            radii.append(list(map(row.__getitem__, order)))
            nearest.append(list(itertools.accumulate((1 << w for w in order), operator.or_, initial=0)))
        index, lo = self.lower_index, 0
        for p in range(self.top):
            hi = bisect_left(lower, p + 2, key=len)
            get = self.positions(p + 1).get
            for face in lower[lo:hi]:
                k = index[face]
                d = grades[k]
                kept = -1
                for u in face:
                    kept &= nearest[u][bisect_right(radii[u], d)]
                if kept:
                    w = (kept & -kept).bit_length() - 1
                else:
                    joins = -1
                    for u in face:
                        joins &= nearest[u][-1]
                    if not joins:
                        continue
                    least = math.inf
                    while joins:
                        low = joins & -joins
                        joins ^= low
                        x = low.bit_length() - 1
                        g = max(map(D[x].__getitem__, face))
                        if g < least:
                            least, w = g, x
                j = bisect_right(face, w)
                first[k] = get(face[:j] + (w,) + face[j:])
            lo = hi

    def _listed_first_cofacets(self, first: array) -> None:
        """First cofacets from the faces of the simplices below ``top``,
        one dict hit per face, and then from the top listing, parent P by
        parent: P's least child position is one ``min``, and the other
        faces of a child P + (w,) are f + (w,) for the faces f of P, found
        by the int w in an index of f's own children.  Each keeps the least
        position that names it, so the result does not depend on the order
        of ``lower_index`` or of the listing.  The walk also checks the
        faces: a missing one is ``MissingFace``, and one after its coface
        (of larger grade, in the canonical order) ``NonMonotoneGrades``."""
        index, top, grades = self.lower_index, self.top, self.grades
        for v, i in index.items():
            if len(v) > 1:
                for f in itertools.combinations(v, len(v) - 1):
                    k = index.get(f)
                    if k is None:
                        raise MissingFace(f"face {f} of {v} is missing")
                    if i < first[k]:
                        if k > i:  # first[k] > k once set, so no cofacet before k skips this
                            raise NonMonotoneGrades(f"face {f} at {grades[k]} enters after {v} at {grades[i]}")
                        first[k] = i
        if not self.parent:
            return
        # joins[f][w] is the position of the (top - 1)-simplex f + (w,)
        joins: defaultdict[Verts, dict[int, int]] = defaultdict(dict)
        for v in self.lower[bisect_left(self.lower, top, key=len) :]:
            joins[v[:-1]][v[-1]] = index[v]
        for v, ws, at in self.top_children():
            k = index[v]
            i = min(at)
            if i < first[k]:
                first[k] = i
            for f in itertools.combinations(v, top - 1):
                position = joins[f]
                for w, i in zip(ws, at):
                    k = position[w]
                    if i < first[k]:
                        first[k] = i

    def stage_count(self, t: float) -> int:
        """Number of simplices with grade <= t (a prefix of the order)."""
        return bisect_right(self.grades, t)


class _SimplexView(Sequence):
    """The vertex tuple at each position of a complex.

    Views hold the complex's arrays, not the complex, so that a complex
    is freed as soon as its last reference goes.
    """

    __slots__ = ("_lower", "_parent", "_last", "_rank_at")

    def __init__(self, c: FilteredComplex):
        self._lower = c.lower
        self._parent = c.parent
        self._last = c.last
        self._rank_at = c.rank_at

    def __len__(self) -> int:
        return len(self._rank_at)

    def __getitem__(self, i: int) -> Verts:
        r = self._rank_at[i]
        lower = self._lower
        if r < len(lower):
            return lower[r]
        r -= len(lower)
        return lower[self._parent[r]] + (self._last[r],)

    def __iter__(self):
        lower, parent, last = self._lower, self._parent, self._last
        n = len(lower)
        for r in self._rank_at:
            yield lower[r] if r < n else lower[parent[r - n]] + (last[r - n],)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, tuple, _SimplexView)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


class _IndexView(Mapping):
    """The position of each vertex tuple of a complex."""

    __slots__ = ("_simplices", "_index", "_rank_at", "_start", "_last", "_pos", "_top_len")

    def __init__(self, c: FilteredComplex):
        self._simplices = c.simplices
        self._index = c.lower_index
        self._rank_at = c.rank_at
        self._start = c.child_start
        self._last = c.last
        self._pos = c.top_pos
        self._top_len = c.top + 1

    def get(self, key, default=None):
        if len(key) != self._top_len:
            return self._index.get(key, default)
        i = self._index.get(key[:-1])
        if i is None:
            return default
        i = self._rank_at[i]
        start, last = self._start, self._last
        hi = start[i + 1]
        x = bisect_left(last, key[-1], start[i], hi)
        return self._pos[x] if x < hi and last[x] == key[-1] else default

    def __getitem__(self, key) -> int:
        i = self.get(key)
        if i is None:
            raise KeyError(key)
        return i

    def __contains__(self, key) -> bool:
        return self.get(key) is not None

    def __iter__(self):
        return iter(self._simplices)

    def __len__(self) -> int:
        return len(self._simplices)


def from_simplex_list(entries: Iterable[tuple[Sequence[int], float]]) -> FilteredComplex:
    """Build a validated complex from (vertex list, grade) pairs.

    The pairs are read once, so a file can stream into it.  Vertex lists
    are treated as sets and sorted; repeated vertices, non-integer and
    negative vertex ids and ids of 2**31 or more (past ``array('i')``),
    duplicate simplices, non-numeric and non-finite grades, an empty list
    and, in the first-cofacet walk, missing and late faces are rejected,
    not fixed up.  No dimension is capped, so every simplex is a tuple.
    """
    graded: dict[Verts, float] = {}
    for raw, grade in entries:
        # an id that does not compare with ints, or a grade that is no
        # number, fails here; the errors of reading the entries pass through
        try:
            verts = tuple(sorted(raw))
            if len(set(verts)) != len(verts):
                raise DuplicateSimplex(f"repeated vertex in {raw}")
            if not verts:
                raise InvalidSimplex("simplex needs at least one vertex")
            if verts[0] < 0:
                raise InvalidSimplex(f"negative vertex id in {verts}")
            if verts[-1] >= 2**31:
                raise InvalidSimplex(f"vertex id {verts[-1]} in {verts} is 2**31 or more")
            grade = float(grade)
        except InvalidSimplex:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidSimplex(f"non-integer vertex id or non-numeric grade in {raw!r}: {exc}") from None
        if verts in graded:
            raise DuplicateSimplex(f"simplex {verts} listed twice")
        if not math.isfinite(grade):
            raise NonFiniteGrade(f"simplex {verts} has non-finite grade {grade}")
        graded[verts] = grade
    if not graded:
        raise MissingFace("empty simplex list")
    try:  # one C-level pass over every id, keeping nothing
        deque(map(operator.index, itertools.chain.from_iterable(graded)), maxlen=0)
    except TypeError as exc:
        raise InvalidSimplex(f"non-integer vertex id: {exc}") from None

    simplices = sorted(sorted(graded), key=len)
    grades = list(map(graded.__getitem__, simplices))
    graded.clear()  # freed before the complex indexes every simplex
    c = FilteredComplex(simplices, grades, array("i"), array("i"), len(simplices[-1]))
    c.first_cofacets()  # checks face closure and grade order
    return c


def build_vietoris_rips(
    D: Sequence[Sequence[float]], max_dim: int, max_scale: float
) -> FilteredComplex:
    """Vietoris-Rips filtration of a finite metric space.

    Contains every simplex on at most ``max_dim + 1`` points whose diameter
    is at most ``max_scale``, graded by diameter; vertices enter at 0.

    Each dimension is grown from the one below by appending a vertex larger
    than the last, taking the simplices below in list order and the new
    vertices in increasing order.  A simplex is its predecessor plus its
    last vertex, so if the dimension below is in lexicographic order, so is
    the new one, and the whole list is in (dimension, lexicographic) order
    before the stable sort by grade.  Dimension ``max_dim``, the top, is
    appended straight to the parent and last-vertex arrays, and every
    grade to the one list parallel to that listing.  An empty matrix is
    rejected, as ``from_simplex_list`` rejects an empty list.  The growth
    stops at the first dimension that comes out empty, which is then the
    top, so the work is bounded by the complex and not by ``max_dim``.
    The complex keeps a copy of ``D``, not the caller's rows, from which it
    finds its first cofacets.
    """
    n = len(D)
    if not n:
        raise MissingFace("empty distance matrix")
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
    if math.isnan(max_scale):
        raise ValueError("max_scale must be a number, got nan")

    simplices: list[Verts] = [(i,) for i in range(n)]
    grades: list[float] = [0.0] * n
    parent = array("i")
    last = array("i")
    top, lo = 1, 0
    for top in range(1, max_dim + 1):
        hi = len(simplices)
        capped = top == max_dim
        # extend by larger-id vertices only, so each clique appears once
        for p, verts, diam in zip(range(lo, hi), simplices[lo:hi], grades[lo:hi]):
            for v in range(verts[-1] + 1, n):
                d = diam
                for u in verts:
                    duv = D[u][v]
                    if duv > max_scale:
                        break
                    if duv > d:
                        d = duv
                else:
                    if capped:
                        parent.append(p)
                        last.append(v)
                    else:
                        simplices.append(verts + (v,))
                    grades.append(d)
        if len(simplices) == hi:
            break
        lo = hi

    distances = tuple(map(tuple, D))
    return FilteredComplex(simplices, grades, parent, last, top, distances)


def truncate(c: FilteredComplex, dim_cap: int) -> FilteredComplex:
    """Keep exactly the simplices of dimension <= dim_cap, grades unchanged.

    To preserve cohomology up to dimension k, pass ``dim_cap = k + 1``.
    A deeper complex is cut to one whose ``top`` is ``dim_cap`` (at least
    1): the kept simplices below it are a prefix of ``c.lower``, so a
    parent keeps its rank there.  The cut of a Vietoris-Rips complex is the
    Vietoris-Rips complex of the same distances and cap at ``top``, and
    keeps the distances.
    """
    if dim_cap < 0:
        raise ValueError("dim_cap must be non-negative")
    if c.dim <= dim_cap:
        return c
    index, top = c.lower_index, max(dim_cap, 1)
    cut = bisect_left(c.lower, top + 1, key=len)
    tops = c.lower[cut : bisect_left(c.lower, dim_cap + 2, key=len)]
    grades = [c.grades[index[v]] for v in c.lower[: cut + len(tops)]]
    parent = array("i", [c.rank_at[index[v[:-1]]] for v in tops])
    last = array("i", [v[-1] for v in tops])
    return FilteredComplex(c.lower[:cut], grades, parent, last, top, c.distances)


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
