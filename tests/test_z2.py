import itertools
import math
import os
import random
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuplength import cli, spaces
from cuplength.cohomology import Cochain, compute_barcode
from cuplength.errors import SimplexNotAlive
from cuplength.simplicial import (
    FilteredComplex,
    build_vietoris_rips,
    diameter,
    distances_from_points,
    faces,
    from_simplex_list,
    truncate,
)
from cuplength.z2 import (
    CoboundaryMatrix,
    coboundary_matrix,
    column_reduce,
    in_reduced_column_space,
    is_coboundary,
    reduce_coboundary,
)
from conftest import cochain_coboundary, random_filtration, sup_torus_distances

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def test_single_edge_positive_matrix_is_zero():
    c = from_simplex_list([([0], 0), ([1], 0), ([0, 1], 0)])
    a = coboundary_matrix(c)
    # the edge sits at position 0 and its column, the positive-dimensional
    # block, is zero; each vertex column holds the edge
    assert a.n_rows == a.n_cols == 3
    assert a.column(0) == ()
    assert a.column(1) == a.column(2) == (0,)


def test_hollow_triangle_matrix_is_zero():
    a = coboundary_matrix(spaces.hollow_triangle())
    # edges at positions 0..2 have zero columns; vertex v sits at 5 - v
    assert a.n_rows == 6
    assert [a.column(j) for j in range(6)] == [(), (), (), (0, 1), (0, 2), (1, 2)]


def test_filled_triangle_matrix():
    c = spaces.filled_triangle()
    a = coboundary_matrix(c)
    # filtration order: three vertices, three edges, the triangle; cosimplex
    # position of the triangle is 0, of edge i is 6 - i, of vertex v is 6 - v
    assert a.n_rows == 7
    assert a.column(0) == ()
    for j in (1, 2, 3):
        assert a.column(j) == (0,)
    assert [a.column(j) for j in (4, 5, 6)] == [(1, 2), (1, 3), (2, 3)]


def _reference_coboundary(c):
    """The coboundary columns of c, set face by face from every simplex."""
    last = len(c) - 1
    cols = [0] * len(c)
    for i, v in enumerate(c.simplices):
        if len(v) > 1:
            for f in faces(v):
                cols[last - c.index_of[f]] |= 1 << (last - i)
    return cols


# random filtrations, the single vertex (a zero matrix) and the hollow
# triangle, which is not a flag complex
_complexes = st.one_of(
    st.randoms(use_true_random=False).map(random_filtration),
    st.sampled_from([from_simplex_list([([0], 0.0)]), spaces.hollow_triangle()]),
)


@settings(max_examples=100, deadline=None)
@given(_complexes)
def test_coboundary_view_pivot_is_first_cofacet(c):
    # the hollow triangle is not a flag complex: the common neighbour of an
    # edge's vertices spans no triangle there
    a = coboundary_matrix(c)
    masks = _masks(a)
    assert masks == _reference_coboundary(c)
    assert [a.pivot(j) for j in range(a.n_cols)] == [m.bit_length() - 1 if m else None for m in masks]
    assert a.nnz() == sum(m.bit_count() for m in masks)


def _assert_first_cofacets(c):
    """Pivots, columns and column masks of A against the reference."""
    a = coboundary_matrix(c)
    ref = _reference_coboundary(c)
    last = len(c) - 1
    assert [a.pivot(j) for j in range(a.n_cols)] == [m.bit_length() - 1 if m else None for m in ref]
    assert _masks(a) == ref
    for p in range(c.dim + 2):
        expected = sorted(last - i for i, v in enumerate(c.simplices) if len(v) == p + 1)
        assert list(a.columns(p)) == expected


def _tied_grade_complexes():
    """Vietoris-Rips complexes of random integer distance matrices (the
    tied-grade ones of test_simplicial), where a parent has many top
    children: top dimensions 0-4, two caps, and the truncations."""
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(3, 9)
        d = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            d[i][j] = d[j][i] = rng.randint(1, 3)
        for cap in (diameter(d) - 1, diameter(d)):
            for max_dim in range(5):
                c = build_vietoris_rips(d, max_dim, cap)
                yield c
            for dim_cap in range(c.dim):
                yield truncate(c, dim_cap)


def test_first_cofacets_on_vr_complexes_with_many_children_per_parent():
    checked = 0
    for c in _tied_grade_complexes():
        _assert_first_cofacets(c)
        checked += 1
    assert checked > 900


def _cloud_complexes():
    """Vietoris-Rips complexes of random float clouds with duplicated points,
    at distance 0 from each other: top dimensions 0-4, caps below, at and
    above the diameter.  The caller's distance matrix is scrambled before a
    complex is yielded, so each complex must keep its own copy."""
    rng = random.Random(67)
    for _ in range(30):
        points = [(rng.random(), rng.random()) for _ in range(rng.randint(2, 8))]
        points += rng.choices(points, k=rng.randint(1, 2))
        rng.shuffle(points)
        d = distances_from_points(points)
        diam = diameter(d)
        caps = (rng.choice([x for row in d for x in row if x]), diam / 2, diam, math.inf)
        built = [build_vietoris_rips(d, max_dim, cap) for cap in caps for max_dim in range(5)]
        for row in d:
            row.reverse()
        yield from built


def _truncated_listed_complexes():
    """Truncations of random listed complexes below their dimension."""
    rng = random.Random(71)
    for _ in range(40):
        c = random_filtration(rng)
        for dim_cap in range(c.dim):
            yield truncate(c, dim_cap)


def test_first_cofacets_on_float_clouds_and_truncated_listed_complexes():
    # a complex built from distances finds every first cofacet from them,
    # with or without top simplices; a truncated listed one reads its top
    # listing
    counts = Counter()
    for c in itertools.chain(_cloud_complexes(), _truncated_listed_complexes()):
        _assert_first_cofacets(c)
        if c.distances is not None:
            counts["scanned"] += 1
            counts["scanned, no top simplex"] += len(c.lower_index) == len(c)
        elif len(c.lower_index) < len(c):
            counts["listed"] += 1
    # 30 clouds at 4 caps and 5 top dimensions each
    assert counts["scanned"] == 600 and counts["scanned, no top simplex"] > 100 and counts["listed"] > 40


def test_first_cofacets_on_a_capped_sparse_cloud():
    """A cloud capped far below its diameter, where most pairs of points
    are no edge and some points have none: every top from 1 to 4 and
    every truncation, so the edges are tuples and the top listing."""
    rng = random.Random(200)
    points = [(rng.random(), rng.random()) for _ in range(80)] + [(3.0, 3.0)]
    d = distances_from_points(points)
    cap = 0.15
    degrees = Counter(i for i, j in itertools.permutations(range(81), 2) if d[i][j] <= cap)
    assert sum(degrees.values()) < 0.1 * 81 * 80 and len(degrees) < 81
    tops = Counter()
    for max_dim in range(1, 5):
        c = build_vietoris_rips(d, max_dim, cap)
        for ct in [c] + [truncate(c, dim_cap) for dim_cap in range(1, c.dim)]:
            _assert_first_cofacets(ct)
            tops[ct.top] += 1
    assert set(tops) == {1, 2, 3, 4}


def test_coboundary_of_a_vr_complex_reads_no_top_listing(monkeypatch, tmp_path, capsys):
    # neither the matrix nor a whole command-line job on a distance file
    # walks the top simplices parent by parent
    rng = random.Random(31)
    d = distances_from_points([(rng.random(), rng.random()) for _ in range(12)])
    path = tmp_path / "cloud.csv"
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in d))
    argv = ["cup-diagram", str(path), "--max-dim", "2"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    calls = []
    monkeypatch.setattr(FilteredComplex, "top_children", lambda self: calls.append(self) or iter(()))
    c = build_vietoris_rips(d, 3, math.inf)
    assert len(c.lower_index) < len(c)
    coboundary_matrix(c)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
    assert calls == []


def _pivot_simplex(c, verts):
    a = coboundary_matrix(c)
    last = len(c) - 1
    return c.simplices[last - a.pivot(last - c.index_of[verts])]


def test_first_cofacet_found_through_a_later_parent():
    # the cofacets of the edge (3, 4) are children of (0, 3), (1, 3) and
    # (2, 3), listed in that order; the middle one enters first
    entries = {(0, 3, 4): 2.0, (1, 3, 4): 1.0, (2, 3, 4): 3.0}
    c = from_simplex_list([(list(v), g) for v, g in spaces.close_under_faces(entries).items()])
    assert _pivot_simplex(c, (3, 4)) == (1, 3, 4)
    _assert_first_cofacets(c)


def test_first_cofacet_among_a_parents_own_children():
    # (1, 2)'s cofacets are (0, 1, 2), a child of (0, 1) listed first, and
    # its own children (1, 2, 3) and (1, 2, 4), of which the later enters first
    entries = {(0, 1, 2): 3.0, (1, 2, 3): 2.0, (1, 2, 4): 1.0}
    c = from_simplex_list([(list(v), g) for v, g in spaces.close_under_faces(entries).items()])
    assert _pivot_simplex(c, (1, 2)) == (1, 2, 4)
    _assert_first_cofacets(c)


def _reorder_lower_index(c):
    """Rebuild c.lower_index from the same entries, vertices first and the
    rest in reverse, so it no longer iterates in filtration order."""
    entries = list(c.lower_index.items())
    vertices = [e for e in entries if len(e[0]) == 1]
    rest = [e for e in entries if len(e[0]) > 1]
    c.lower_index = dict(vertices + rest[::-1])
    c._first = None  # dropped, so the walk runs again on the new order


def test_first_cofacets_do_not_depend_on_the_order_of_the_lower_index():
    rng = random.Random(53)
    listed = [random_filtration(rng) for _ in range(16)]
    # top 1 holds only vertices below it, which no reordering moves
    deep = (c for c in _tied_grade_complexes() if c.top > 1)
    built = list(itertools.islice(deep, 0, None, 30))[:16]
    for c in listed + built:
        _reorder_lower_index(c)
        _assert_first_cofacets(c)
    assert len(listed + built) == 32


def test_a_listed_complex_walks_its_faces_once(monkeypatch):
    # the walk that validates a listed complex at load gives the first
    # cofacets of every later reduction; a complex with distances never
    # takes it
    calls = []
    walk = FilteredComplex._listed_first_cofacets
    monkeypatch.setattr(
        FilteredComplex, "_listed_first_cofacets", lambda self, first: calls.append(self) or walk(self, first)
    )
    c = cli.load_filtered_complex(os.path.join(FIXTURES, "torus_7.txt"))
    assert len(calls) == 1
    assert reduce_coboundary(c).pivot_to_col == reduce_coboundary(c).pivot_to_col
    assert calls == [c]
    reduce_coboundary(_small_vr_complex(61))
    assert calls == [c]


_STORAGE = {"lower", "parent", "last", "top_pos", "child_start", "rank_at"}


class _StorageGuarded(FilteredComplex):
    """A complex that fails when code in z2 reads one of its storage arrays."""

    __slots__ = ()

    def __getattribute__(self, name):
        if name in _STORAGE and sys._getframe(1).f_globals["__name__"] == "cuplength.z2":
            raise AssertionError(f"z2 reads the complex's {name}")
        return super().__getattribute__(name)


def test_z2_reads_a_complex_only_through_its_views():
    # simplicial is the one module that knows how a complex is stored
    rng = random.Random(59)
    corpus = [random_filtration(rng) for _ in range(5)]
    corpus += list(itertools.islice(_tied_grade_complexes(), 0, 100, 7))
    corpus.append(_small_vr_complex(61))
    for c in corpus:
        c.__class__ = _StorageGuarded
        rc = reduce_coboundary(c)
        A = rc.A
        for p in range(c.top + 2):
            A.columns(p)
        _masks(A), _masks(rc.R), _masks(rc.V)
        A.nnz(), rc.R.nnz(), rc.V.nnz()
        for t in c.critical_values:
            in_reduced_column_space(rng.getrandbits(len(c)), t, rc)
        sigma = Cochain(1, frozenset(v for v in c.simplices if len(v) == 2))
        is_coboundary(sigma, c.critical_values[-1], rc)


def _masks(M):
    return [M.col_mask(j) for j in range(M.n_cols)]


def _assert_reduction(A, R, V):
    """A V = R, and V is upper unitriangular."""
    for j in range(V.n_cols):
        v = V.col_mask(j)
        assert v >> j == 1
        acc = 0
        for i in range(j + 1):
            if v >> i & 1:
                acc ^= A.col_mask(i)
        assert acc == R.col_mask(j)


def test_reduction_identities_on_complex_matrices():
    rng = random.Random(5)
    for _ in range(15):
        c = random_filtration(rng)
        rc = reduce_coboundary(c)
        assert rc.A.n_cols == len(c)
        _assert_reduction(rc.A, rc.R, rc.V)


def _dense_column_reduce(cols):
    """Reference reduction with V stored densely, identity columns included.

    Returns R and V as lists of column bitmasks, the pivot map, and the
    columns that received at least one addition.
    """
    n = len(cols)
    R = list(cols)
    V = [1 << j for j in range(n)]
    pivot_to_col = {}
    added = set()
    for j in range(n):
        col = R[j]
        while col:
            p = col.bit_length() - 1
            owner = pivot_to_col.get(p)
            if owner is None:
                pivot_to_col[p] = j
                break
            col ^= R[owner]
            V[j] ^= V[owner]
            added.add(j)
        R[j] = col
    return R, V, pivot_to_col, added


def _rows(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _cleared(c, pivot_to_col):
    """Columns whose position is the pivot row of a column of a lower dimension."""
    last = len(c) - 1
    size = [len(c.simplices[last - j]) for j in range(len(c))]
    return {i for i, j in pivot_to_col.items() if size[j] < size[i]}


def _assert_matches_dense(c):
    A = coboundary_matrix(c)
    R, V, pivot_to_col = column_reduce(A)
    n = A.n_cols
    dense_R, dense_V, dense_pivots, added = _dense_column_reduce([A.col_mask(j) for j in range(n)])
    assert [R.col_mask(j) for j in range(n)] == dense_R
    assert pivot_to_col == dense_pivots
    cleared = _cleared(c, pivot_to_col)
    kept = [j for j in range(n) if j not in cleared]
    assert [V.column(j) for j in kept] == [_rows(dense_V[j]) for j in kept]
    assert [V.col_mask(j) for j in kept] == [dense_V[j] for j in kept]
    # a cleared column i takes the column of R whose pivot row it is
    for i in cleared:
        assert V.col_mask(i) == R.col_mask(pivot_to_col[i])
    # V stores exactly the columns that were not cleared and received an
    # addition, and its nnz still counts the implicit diagonal
    assert set(V._cols) == added - cleared
    assert V.nnz() == sum(m.bit_count() for m in _masks(V))
    return set(V._cols), cleared


@settings(max_examples=100, deadline=None)
@given(_complexes)
def test_reduction_matches_dense_reference_on_generated_complexes(c):
    _assert_matches_dense(c)


def test_reduction_matches_dense_reference_on_complexes():
    rng = random.Random(29)
    for _ in range(25):
        _assert_matches_dense(random_filtration(rng))


def test_reduction_matches_dense_reference_on_vr_complex():
    rng = random.Random(31)
    points = [(rng.random(), rng.random()) for _ in range(12)]
    c = build_vietoris_rips(distances_from_points(points), 3, math.inf)
    stored, cleared = _assert_matches_dense(c)
    # most columns are cleared or never touched, so most of V is left implicit
    assert 0 < len(stored) < len(c) // 4
    assert cleared


def test_reduction_stores_far_less_than_the_coboundary_matrix():
    # memory regression guard: every column of A as a bitmask is what a
    # stored coboundary matrix costs; the reduction must peak well below it
    rng = random.Random(37)
    points = [(rng.random(), rng.random()) for _ in range(30)]
    c = build_vietoris_rips(distances_from_points(points), 3, math.inf)
    assert len(c) == 31_930
    tracemalloc.start()
    try:
        rc = reduce_coboundary(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = sum(sys.getsizeof(rc.A.col_mask(j)) for j in range(rc.A.n_cols))
    assert peak < stored / 2


def _small_vr_complex(seed):
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(10)]
    return build_vietoris_rips(distances_from_points(points), 3, math.inf)


def test_repr_of_a_reduction_builds_no_column(monkeypatch):
    rc = reduce_coboundary(_small_vr_complex(41))
    calls = []
    col_mask = CoboundaryMatrix.col_mask

    def counting(self, j):
        calls.append(j)
        return col_mask(self, j)

    monkeypatch.setattr(CoboundaryMatrix, "col_mask", counting)
    text = repr(rc)
    assert calls == []
    n = len(rc.complex)
    assert f"ReducedMatrix({n}x{n})" in text


def test_reading_R_stores_nothing():
    c = _small_vr_complex(43)
    rc = reduce_coboundary(c)
    built = set(rc.R._cols)
    n = rc.R.n_cols
    masks = [rc.R.col_mask(j) for j in range(n)]
    # the reduction leaves columns of R unbuilt, so the reads above built some
    assert any(masks[j] for j in range(n) if j not in built)
    rc.R.nnz()
    rc.V.nnz()
    rng = random.Random(47)
    for _ in range(20):
        in_reduced_column_space(rng.getrandbits(n), rng.choice(c.critical_values), rc)
    for mask in masks[:20]:
        assert in_reduced_column_space(mask, c.critical_values[-1], rc) is None
    assert set(rc.R._cols) == built


def _cloud(seed):
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(14)]
    return build_vietoris_rips(distances_from_points(points), 3, math.inf)


def test_reduction_keeps_no_owner_of_a_top_row():
    # an exactness test reduces cochains below the top dimension, so it never
    # reads a column whose pivot row is a top simplex: only a reduced column
    # of that kind is stored
    # the 6 x 6 grid torus at cap 2h, h = 2 pi / 6, as the command line
    # builds it for --max-dim 2
    torus = build_vietoris_rips(sup_torus_distances(6), 3, 2 * (2 * math.pi / 6))
    assert len(torus) == 8_004
    for c in [torus] + [_cloud(seed) for seed in range(10)]:
        rc = compute_barcode(c, 2).reduction
        assert rc.complex.top == 3
        last = len(c) - 1
        for j in rc.R._cols:
            assert j in rc.V._cols or len(c.simplices[last - rc.R.pivot(j)]) <= c.top


def _staged_torus(n, levels, seed):
    """A listed triangulated n x n torus graded from ``levels`` values, built
    as the ``staged_torus`` benchmark input is."""
    rng = random.Random(seed)

    def vid(i, j):
        return i % n * n + j % n

    simplices = set()
    for i, j in itertools.product(range(n), repeat=2):
        a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
        for tri in (sorted((a, b, c)), sorted((a, d, c))):
            for k in (1, 2, 3):
                simplices.update(itertools.combinations(tri, k))
    grade = {}
    for s in sorted(simplices, key=lambda s: (len(s), s)):
        faces_grades = [grade[f] for f in faces(s)] if len(s) > 1 else []
        grade[s] = max([rng.randrange(levels)] + faces_grades)
    return from_simplex_list(list(grade.items()))


def test_reduction_of_a_listed_complex_keeps_every_column_it_reads(monkeypatch):
    # a listed complex has no top simplex, so the reduction keeps every
    # column of A it reads, each read once: the reduced ones and their owners
    klein = cli.load_filtered_complex(os.path.join(FIXTURES, "klein_staged.txt"))
    for c in (klein, _staged_torus(8, 4, 0)):
        reads = []
        col_mask = CoboundaryMatrix.col_mask

        def counting(self, j):
            reads.append(j)
            return col_mask(self, j)

        monkeypatch.setattr(CoboundaryMatrix, "col_mask", counting)
        rc = compute_barcode(c, 2).reduction
        monkeypatch.undo()
        assert rc.complex.top == c.dim + 1
        assert len(reads) == len(set(reads))
        assert set(rc.R._cols) == set(reads)
        assert set(rc.V._cols) < set(reads)


def test_is_coboundary_hollow_triangle():
    c = spaces.hollow_triangle()
    rc = reduce_coboundary(c)
    assert is_coboundary(Cochain.of((0, 1), (0, 2)), 0.0, rc)
    assert not is_coboundary(Cochain.of((0, 1)), 0.0, rc)


def test_is_coboundary_requires_alive_summands():
    c = spaces.two_disks()
    rc = reduce_coboundary(c)
    with pytest.raises(SimplexNotAlive):
        is_coboundary(Cochain.of((3, 4)), 0.0, rc)


def test_is_coboundary_zero_cochains():
    c = spaces.hollow_triangle()
    rc = reduce_coboundary(c)
    assert is_coboundary(Cochain.zero(1), 0.0, rc)
    assert is_coboundary(Cochain.zero(0), 0.0, rc)
    assert not is_coboundary(Cochain.of((0,)), 0.0, rc)


def _alive(c, t, p):
    return [v for v, g in zip(c.simplices, c.grades) if g <= t and len(v) == p + 1]


def _brute_force_coboundary(c, sigma, t):
    """Literal enumeration of Z2 combinations of coboundaries of alive
    (p-1)-cosimplices."""
    gens = _alive(c, t, sigma.p - 1)
    images = [cochain_coboundary(c, Cochain(sigma.p - 1, frozenset([g])), t) for g in gens]
    for r in range(len(images) + 1):
        for combo in itertools.combinations(images, r):
            acc = Cochain.zero(sigma.p)
            for img in combo:
                acc ^= img
            if acc == sigma:
                return True
    return False


def test_is_coboundary_matches_brute_force_enumeration():
    rng = random.Random(17)
    checked = 0
    for _ in range(40):
        c = random_filtration(rng, max_vertices=5, max_positive=14)
        rc = reduce_coboundary(c)
        for _ in range(6):
            t = rng.choice(c.critical_values)
            p = rng.randint(0, c.dim)
            alive = _alive(c, t, p)
            if not alive or len(_alive(c, t, p - 1)) > 14:
                continue
            size = rng.randint(1, min(3, len(alive)))
            sigma = Cochain(p, frozenset(rng.sample(alive, size)))
            expect = _brute_force_coboundary(c, sigma, t)
            assert is_coboundary(sigma, t, rc) == expect
            # summands entering after t lie outside the stage block
            later = [v for v, g in zip(c.simplices, c.grades) if g > t and len(v) == p + 1]
            padded = Cochain(p, sigma.summands | frozenset(later))
            assert (in_reduced_column_space(rc.cochain_mask(padded), t, rc) is None) == expect
            checked += 1
    assert checked > 50


def test_coboundaries_test_positive():
    rng = random.Random(23)
    for _ in range(20):
        c = random_filtration(rng, max_vertices=6)
        rc = reduce_coboundary(c)
        t = rng.choice(c.critical_values)
        for p in range(0, c.dim):
            alive = _alive(c, t, p)
            if not alive:
                continue
            tau = Cochain(p, frozenset(rng.sample(alive, rng.randint(1, len(alive)))))
            delta = cochain_coboundary(c, tau, t)
            assert is_coboundary(delta, t, rc)
