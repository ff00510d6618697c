import ast
import itertools
import math
import os
import random
import re
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import conftest
from cuplength import cli, spaces
from cuplength.errors import (
    AsymmetricMatrix,
    CupLengthError,
    DuplicateSimplex,
    InvalidSimplex,
    MissingFace,
    NegativeDistance,
    NonFiniteGrade,
    NonMonotoneGrades,
    UnknownSimplex,
)
from cuplength.simplicial import (
    build_vietoris_rips,
    diameter,
    distances_from_points,
    faces,
    from_simplex_list,
    truncate,
)
from conftest import random_filtration

R2 = math.sqrt(2.0)


def test_simplex_validation():
    # a package error that callers catching ValueError still catch
    assert issubclass(InvalidSimplex, CupLengthError)
    assert issubclass(InvalidSimplex, ValueError)
    with pytest.raises(InvalidSimplex, match="at least one vertex"):
        from_simplex_list([([], 0)])
    with pytest.raises(InvalidSimplex, match="negative vertex"):
        from_simplex_list([([-1], 0), ([2], 0), ([2, -1], 0)])
    # a vertex list is a set: listed in any order, it is stored sorted
    c = from_simplex_list([([5], 0), ([3], 0), ([5, 3], 0)])
    assert c.simplices[-1] == (3, 5)


@pytest.mark.parametrize("raw", [[0.5], [1.0], [0, 2.5], ["1"], ["1", 0], [None], [(0,)], [[0]]])
def test_non_integer_vertex_ids_are_rejected(raw):
    # a float id would be stored, and fail later as an array('i') entry; an
    # id that does not compare with ints fails the checks themselves
    entries = [([0], 0), ([2], 0), ([0, 2], 0), (raw, 1)]
    with pytest.raises(InvalidSimplex, match=r"^non-integer vertex id[^\n]*$"):
        from_simplex_list(entries)
    with pytest.raises(InvalidSimplex, match="non-integer vertex id"):
        from_simplex_list([(raw, 0)])


@pytest.mark.parametrize("grade", ["one", None, [1], 10**400], ids=["str", "none", "list", "huge-int"])
def test_non_numeric_grades_are_rejected(grade):
    with pytest.raises(InvalidSimplex, match=r"non-numeric grade in \[1\]: [^\n]+$"):
        from_simplex_list([([0], 0), ([1], grade)])


def test_from_simplex_list_edge():
    c = from_simplex_list([([0], 0), ([1], 0), ([0, 1], 0)])
    assert len(c) == 3
    assert c.critical_values == [0.0]


def test_from_simplex_list_rejects_nonmonotone():
    with pytest.raises(NonMonotoneGrades):
        from_simplex_list([([0], 0), ([1], 0), ([0, 1], -1)])


def test_from_simplex_list_hollow_triangle():
    c = from_simplex_list(
        [([0], 0), ([1], 0), ([2], 0), ([0, 1], 0), ([0, 2], 0), ([1, 2], 0)]
    )
    assert len(c) == 6
    assert c.dim == 1


def test_from_simplex_list_missing_face_and_duplicates():
    with pytest.raises(MissingFace):
        from_simplex_list([([0], 0), ([0, 1], 0)])
    with pytest.raises(DuplicateSimplex):
        from_simplex_list([([0], 0), ([0], 1)])
    with pytest.raises(DuplicateSimplex):
        from_simplex_list([([0, 0], 0)])


def _is_face(f, v):
    return len(f) + 1 == len(v) and set(f) < set(v)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 3))
def test_a_broken_listing_names_a_real_defect(rng, dim):
    # the listed complex's one walk over its faces is also its validation:
    # whatever it names must be a defect of the listing it was given
    c = random_filtration(rng, max_dim=dim)
    listed = dict(zip(c.simplices, c.grades))
    cofaced = [s for s in listed if len(s) > 1]
    assume(cofaced)
    v = rng.choice(cofaced)
    f = rng.choice(faces(v))

    dropped = {s: g for s, g in listed.items() if s != f}
    with pytest.raises(MissingFace) as missing:
        from_simplex_list([(list(s), g) for s, g in dropped.items()])
    named = re.fullmatch(r"face (\(.*?\)) of (\(.*?\)) is missing", str(missing.value))
    face, coface = map(ast.literal_eval, named.groups())
    assert face not in dropped and coface in dropped and _is_face(face, coface)

    raised = dict(listed)
    raised[f] = listed[v] + 1.0
    with pytest.raises(NonMonotoneGrades) as late:
        from_simplex_list([(list(s), g) for s, g in raised.items()])
    named = re.fullmatch(r"face (\(.*?\)) at (\S+) enters after (\(.*?\)) at (\S+)", str(late.value))
    face, coface = ast.literal_eval(named[1]), ast.literal_eval(named[3])
    assert _is_face(face, coface)
    assert (raised[face], raised[coface]) == (float(named[2]), float(named[4]))
    assert raised[face] > raised[coface]


def test_vr_three_points():
    d = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    c = build_vietoris_rips(d, 2, 2.0)
    assert c.grade_of((0,)) == 0
    assert c.grade_of((0, 1)) == 1
    assert c.grade_of((0, 1, 2)) == 1
    assert len(c) == 7


def test_vr_scale_cut():
    c = build_vietoris_rips([[0, 2], [2, 0]], 1, 1.0)
    assert len(c) == 2
    assert (0, 1) not in c


def test_vr_unit_square():
    c = build_vietoris_rips(spaces.unit_square_distances(), 2, 2.0)
    assert sum(1 for v in c.simplices if len(v) == 1) == 4
    sides = [v for v in c.simplices if len(v) == 2 and c.grade_of(v) == 1.0]
    diagonals = [v for v in c.simplices if len(v) == 2 and c.grade_of(v) == R2]
    assert len(sides) == 4 and len(diagonals) == 2
    triangles = [v for v in c.simplices if len(v) == 3]
    assert len(triangles) == 4
    assert all(c.grade_of(t) == R2 for t in triangles)


def _vr_reference(d, max_dim, max_scale):
    # every vertex subset of at most max_dim + 1 points within the cap,
    # sorted by the canonical (grade, dimension, lexicographic) key
    entries = []
    for size in range(1, max_dim + 2):
        for verts in itertools.combinations(range(len(d)), size):
            diam = max((d[a][b] for a in verts for b in verts), default=0.0)
            if diam <= max_scale:
                entries.append((diam, size, verts))
    entries.sort()
    return [v for _, _, v in entries], [g for g, _, _ in entries]


def test_vr_matches_brute_force_with_tied_grades():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(3, 9)
        d = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            d[i][j] = d[j][i] = rng.randint(1, 3)
        top = diameter(d)
        for max_dim in range(4):
            for cap in (top - 1, top):
                c = build_vietoris_rips(d, max_dim, cap)
                assert (c.simplices, c.grades) == _vr_reference(d, max_dim, cap)


def test_vr_rejects_bad_matrices():
    with pytest.raises(AsymmetricMatrix):
        build_vietoris_rips([[0, 1], [2, 0]], 1, 5.0)
    with pytest.raises(AsymmetricMatrix):
        build_vietoris_rips([[1, 1], [1, 0]], 1, 5.0)
    with pytest.raises(NegativeDistance):
        build_vietoris_rips([[0, -1], [-1, 0]], 1, 5.0)
    with pytest.raises(ValueError, match="max_scale"):
        build_vietoris_rips(spaces.unit_square_distances(), 3, math.nan)
    with pytest.raises(MissingFace, match="^empty distance matrix$"):
        build_vietoris_rips([], 2, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_vr_rejects_non_finite_distances(bad):
    # symmetric, so only the finiteness check can catch it
    with pytest.raises(NonFiniteGrade, match=r"non-finite distance .* at \(0,2\)"):
        build_vietoris_rips([[0, 1, bad], [1, 0, 1], [bad, 1, 0]], 2, math.inf)
    with pytest.raises(NonFiniteGrade, match=r"at \(1,1\)"):
        build_vietoris_rips([[0, 1], [1, bad]], 1, 5.0)


def test_truncate_tetrahedron():
    full = spaces.close_under_faces({(0, 1, 2, 3): 0.0})
    c = from_simplex_list([(list(v), g) for v, g in full.items()])
    assert len(c) == 15
    t = truncate(c, 2)
    assert len(t) == 14 and t.dim == 2


def _rebuilt(c):
    # the two stored lists determine the rest of the complex
    return from_simplex_list(zip(c.simplices, c.grades)) == c


def test_truncate_noop_and_composition():
    c = spaces.hollow_triangle()
    assert truncate(c, 2) is c
    sq = build_vietoris_rips(spaces.unit_square_distances(), 2, 2.0)
    t1 = truncate(sq, 1)
    assert len(t1) == 10
    assert _rebuilt(c) and _rebuilt(sq) and _rebuilt(t1)
    rng = random.Random(1)
    for _ in range(10):
        r = random_filtration(rng)
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        lhs = truncate(truncate(r, a), b)
        rhs = truncate(r, min(a, b))
        assert lhs.simplices == rhs.simplices and lhs.grades == rhs.grades
        assert _rebuilt(r) and _rebuilt(lhs)


def test_truncate_keeps_a_list_complex_that_ends_at_the_cap():
    # a `vr` output read back at the --max-dim it was written with: its top
    # dimension stays as read, since once its tuples are loaded, splitting
    # them off into arrays again costs more time than it saves
    sq = build_vietoris_rips(spaces.unit_square_distances(), 2, 2.0)
    c = from_simplex_list((list(v), g) for v, g in zip(sq.simplices, sq.grades))
    assert c == sq and c.dim == 2 and truncate(c, 2) is c


def test_vr_alive_matches_diameter_predicate():
    d = spaces.unit_square_distances()
    c = build_vietoris_rips(d, 2, 2.0)
    for verts in c.simplices:
        diam = max((d[a][b] for a in verts for b in verts), default=0.0)
        for t in c.critical_values:
            assert (c.grade_of(verts) <= t) == (diam <= t)
    with pytest.raises(UnknownSimplex):
        c.grade_of((0, 9))


def test_random_complexes_are_closed_and_monotone():
    rng = random.Random(7)
    for _ in range(25):
        c = random_filtration(rng)
        for verts in c.simplices:
            if len(verts) == 1:
                continue
            g = c.grade_of(verts)
            for f in faces(verts):
                assert f in c
                assert c.grade_of(f) <= g


def test_canonical_order_is_filtration_compatible():
    rng = random.Random(11)
    for _ in range(10):
        c = random_filtration(rng)
        keys = [(g, len(v), v) for v, g in zip(c.simplices, c.grades)]
        assert keys == sorted(keys)
        entries = [(list(v), g) for v, g in zip(c.simplices, c.grades)]
        rng.shuffle(entries)
        shuffled = from_simplex_list(entries)
        assert shuffled.simplices == c.simplices and shuffled.grades == c.grades


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _reference(entries):
    """The (vertex tuple, grade) pairs of a complex in canonical order."""
    keyed = sorted((float(g), len(v), tuple(sorted(v))) for v, g in entries)
    return [(v, g) for g, _, v in keyed]


def _fixture_entries(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        rows = [line.split("#", 1)[0].split() for line in fh]
    return [([int(x) for x in row[1:]], float(row[0])) for row in rows if row]


def _random_entries(rng, monkeypatch):
    """The entries random_filtration hands to from_simplex_list."""
    seen = []

    def capture(entries):
        seen.extend(entries)
        return from_simplex_list(seen)

    monkeypatch.setattr(conftest, "from_simplex_list", capture)
    random_filtration(rng)
    monkeypatch.undo()
    return seen


def _storage_corpus(monkeypatch):
    """Complexes with their tuple references: random filtrations, the
    fixtures, tied-grade Vietoris-Rips complexes, and every truncation."""
    rng = random.Random(71)
    for _ in range(25):
        entries = _random_entries(rng, monkeypatch)
        yield from_simplex_list(entries), _reference(entries)
    for name in sorted(os.listdir(FIXTURES)):
        if name.endswith(".txt"):
            entries = _fixture_entries(name)
            yield from_simplex_list(entries), _reference(entries)
    d = cli.load_distance_csv(os.path.join(FIXTURES, "unit_square.csv"))
    simplices, grades = _vr_reference(d, 2, diameter(d))
    yield build_vietoris_rips(d, 2, diameter(d)), list(zip(simplices, grades))
    rng = random.Random(3)
    for _ in range(12):
        n = rng.randint(3, 9)
        d = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            d[i][j] = d[j][i] = rng.randint(1, 3)
        for max_dim in range(4):
            for cap in (diameter(d) - 1, diameter(d)):
                simplices, grades = _vr_reference(d, max_dim, cap)
                yield build_vietoris_rips(d, max_dim, cap), list(zip(simplices, grades))


def _assert_pinned(c, ref):
    simplices = [v for v, _ in ref]
    grades = [g for _, g in ref]
    assert len(c) == len(ref)
    assert [c.simplices[i] for i in range(len(c))] == simplices
    assert list(c.simplices) == simplices
    assert c.grades == grades
    assert c.dim == max(map(len, simplices)) - 1
    assert c.critical_values == sorted(set(grades))
    cuts = sorted(set(grades))
    for t in cuts + [cuts[0] - 1] + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]:
        assert c.stage_count(t) == sum(g <= t for g in grades)
    # only the simplices below the top dimension are tuples
    assert len(c.lower) + len(c.last) == len(c)
    assert all(len(v) <= c.top for v in c.lower)
    for i, (v, g) in enumerate(ref):
        assert c.index_of[v] == c.index_of.get(v) == i
        assert v in c and c.grade_of(v) == g
    present = set(simplices)
    vertices = sorted({x for v in simplices for x in v})
    for v in simplices:
        for w in vertices + [vertices[-1] + 1]:
            join = tuple(sorted(set(v) | {w}))
            if join in present:
                continue
            assert join not in c and c.index_of.get(join) is None
            with pytest.raises(KeyError):
                c.index_of[join]
            with pytest.raises(UnknownSimplex):
                c.grade_of(join)


def test_compact_storage_matches_the_tuple_reference(monkeypatch):
    checked = 0
    for c, ref in _storage_corpus(monkeypatch):
        _assert_pinned(c, ref)
        for cap in range(c.dim):
            _assert_pinned(truncate(c, cap), [(v, g) for v, g in ref if len(v) <= cap + 1])
        checked += 1
    assert checked > 100


def test_vr_complex_stores_far_less_than_a_tuple_per_simplex():
    # memory regression guard: with a vertex tuple and an index entry per
    # simplex this complex took 156 B per simplex; the top dimension, 86 %
    # of it, is stored as arrays
    rng = random.Random(37)
    d = distances_from_points([(rng.random(), rng.random()) for _ in range(30)])
    tracemalloc.start()
    try:
        c = build_vietoris_rips(d, 3, math.inf)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(c) == 31_930
    assert live < 64 * len(c)


def test_loading_a_complex_file_peaks_near_the_complex_it_returns(tmp_path):
    # memory regression guard: the file's lines stream into one validation,
    # so no parsed copy of the file is held beside the complex (the peak was
    # 1.9 times the complex when the loader listed every line first)
    rng = random.Random(37)
    d = distances_from_points([(rng.random(), rng.random()) for _ in range(30)])
    path = tmp_path / "vr.txt"
    path.write_text(cli.complex_to_text(build_vietoris_rips(d, 3, math.inf)))
    tracemalloc.start()
    try:
        c = cli.load_filtered_complex(str(path))
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(c) == 31_930
    assert peak < 1.5 * live


def _list_corpus():
    """Complexes read from lists: random filtrations and the fixtures."""
    rng = random.Random(19)
    for _ in range(20):
        yield random_filtration(rng)
    for name in sorted(os.listdir(FIXTURES)):
        if name.endswith(".txt"):
            yield from_simplex_list(_fixture_entries(name))


def test_a_complex_read_from_a_list_keeps_every_simplex_as_a_tuple():
    for c in _list_corpus():
        for d in (c, from_simplex_list(zip(c.simplices, c.grades))):
            assert len(d.last) == 0 and len(d.lower) == len(d)
            assert d.top == d.dim + 1


def test_truncate_stores_the_capped_dimension_as_arrays():
    checked = 0
    for c in _list_corpus():
        for cap in range(1, c.dim):
            t = truncate(c, cap)
            tops = [v for v in c.simplices if len(v) == cap + 1]
            assert t.top == cap and len(t.last) == len(tops) > 0
            assert all(len(v) <= cap for v in t.lower)
            assert sorted(t.lower[r] + (w,) for r, w in zip(t.parent, t.last)) == sorted(tops)
            checked += 1
        # a cap of 0 leaves vertices alone, which have no parent
        t = truncate(c, 0)
        assert t.top == 1 and len(t.last) == 0 and t.dim == 0
    assert checked > 10


def test_vr_stores_its_capped_dimension_as_arrays():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(3, 9)
        d = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            d[i][j] = d[j][i] = rng.randint(1, 3)
        for max_dim in range(1, 4):
            for cap in (diameter(d) - 1, diameter(d)):
                c = build_vietoris_rips(d, max_dim, cap)
                simplices, _ = _vr_reference(d, max_dim, cap)
                tops = [v for v in simplices if len(v) == max_dim + 1]
                assert len(c.last) == len(tops)
                assert all(len(v) <= max_dim for v in c.lower)
                assert c.top == (max_dim if tops else c.dim + 1)


def test_vr_stops_at_the_first_empty_dimension():
    # the unit square's Vietoris-Rips complex is a tetrahedron at the diameter
    d = spaces.unit_square_distances()
    tet = build_vietoris_rips(d, 3, 2.0)
    deep = build_vietoris_rips(d, 50, 2.0)
    assert deep == tet and deep.dim == tet.dim == tet.top == 3 and deep.top == 4
    # below the diagonal there is no triangle, so growth stops at dimension 2
    square = build_vietoris_rips(d, 50, 1.0)
    assert square.dim == 1 and square.top == 2 and len(square.last) == 0
