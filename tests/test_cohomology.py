import math
import random
from bisect import bisect_left
from itertools import combinations

import pytest

from cuplength import oracle, spaces
from cuplength.cohomology import (
    AnnotatedBarcode,
    Bar,
    Cochain,
    compute_barcode,
    connected_component_bars,
)
from cuplength.cup import cup_product
from cuplength.oracle import validate_family
from cuplength.simplicial import build_vietoris_rips, from_simplex_list, truncate
from conftest import cochain_coboundary, random_filtration, regrade

R2 = math.sqrt(2.0)


def test_cochain_validation_and_restriction():
    with pytest.raises(ValueError):
        Cochain(1, frozenset({(0, 1, 2)}))
    c = spaces.two_disks()
    sigma = Cochain.of((0, 1), (3, 4))
    assert sigma.restrict(c, 0.0) == Cochain.of((0, 1))
    assert (sigma ^ Cochain.of((0, 1))) == Cochain.of((3, 4))


def test_cochain_keeps_a_frozenset_of_tuples():
    summands = frozenset({(0, 1), (1, 2)})
    assert Cochain(1, summands).summands is summands
    # other iterables, and frozensets of other sequences, become tuples
    for given in ([[0, 1], [1, 2]], [(0, 1), (1, 2)], iter([(0, 1), [1, 2]]), frozenset({"ab"})):
        sigma = Cochain(1, given)
        assert all(type(v) is tuple for v in sigma.summands)
    assert Cochain(1, [[0, 1], [1, 2]]).summands == summands
    assert Cochain(1, frozenset({"ab"})).summands == {("a", "b")}
    # every summand's length is checked, whichever way it came
    for bad in (frozenset({(0, 1), (0, 1, 2)}), [[0, 1], [2]], frozenset({"abc"})):
        with pytest.raises(ValueError, match="is not 1-dimensional"):
            Cochain(1, bad)
    assert Cochain.zero(3).summands == frozenset()


def test_bar_rejects_empty_interval():
    with pytest.raises(ValueError):
        Bar(1, 1.0, 1.0, Cochain.zero(1))


def test_hollow_triangle_barcode():
    b = compute_barcode(spaces.hollow_triangle(), 1)
    assert [(bar.dim, bar.birth, bar.death) for bar in b.bars] == [(1, 0.0, math.inf)]


def test_two_disks_barcode():
    b = compute_barcode(spaces.two_disks(), 1)
    assert [(bar.birth, bar.death) for bar in b.bars] == [(0.0, 2.0), (1.0, 3.0)]
    zero = connected_component_bars(b)
    assert [(bar.birth, bar.death) for bar in zero] == [(0.0, math.inf), (1.0, math.inf)]


def test_square_vr_barcode():
    c = truncate(build_vietoris_rips(spaces.unit_square_distances(), 2, 2.0), 2)
    b = compute_barcode(c, 1)
    assert [(bar.dim, bar.birth, bar.death) for bar in b.bars] == [(1, 1.0, R2)]


def test_barcode_sorted_by_death_then_birth():
    rng = random.Random(2)
    for _ in range(20):
        c = random_filtration(rng)
        b = compute_barcode(truncate(c, 3), 2)
        keys = [(bar.death, bar.birth) for bar in b.bars]
        assert keys == sorted(keys)


def test_representatives_are_cocycles_before_death():
    rng = random.Random(3)
    for _ in range(20):
        c = truncate(random_filtration(rng), 3)
        b = compute_barcode(c, 2)
        for bar in b.bars:
            # the last critical value at which the bar is alive
            t = c.critical_values[bisect_left(c.critical_values, bar.death) - 1]
            restricted = bar.representative.restrict(c, t)
            assert not restricted.is_zero()
            assert cochain_coboundary(c, restricted, t).is_zero()


def test_bar_counts_match_oracle_dimensions():
    rng = random.Random(5)
    for _ in range(25):
        c = truncate(random_filtration(rng), 3)
        b = compute_barcode(c, 2)
        for t in c.critical_values:
            basis = oracle.cohomology_basis(c, t, 2)
            for p in (1, 2):
                alive = sum(1 for bar in b.bars if bar.dim == p and bar.contains(t))
                assert alive == basis.dim(p)


def test_zero_dim_bars_match_union_find():
    rng = random.Random(8)
    for _ in range(25):
        c = random_filtration(rng)
        b = compute_barcode(truncate(c, 2), 1)
        got = [(bar.birth, bar.death) for bar in connected_component_bars(b)]
        assert got == sorted(_union_find_bars(c), key=lambda t: (t[1], t[0]))


def _union_find_bars(c):
    parent = {}
    birth = {}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    bars = []
    for verts, grade in zip(c.simplices, c.grades):
        if len(verts) == 1:
            parent[verts[0]] = verts[0]
            birth[verts[0]] = grade
        elif len(verts) == 2:
            a, b = find(verts[0]), find(verts[1])
            if a == b:
                continue
            # elder rule: the younger component dies
            if (birth[a], a) < (birth[b], b):
                a, b = b, a
            if birth[a] < grade:
                bars.append((birth[a], grade))
            parent[a] = b
    for v in parent:
        if find(v) == v:
            bars.append((birth[v], math.inf))
    return bars


def test_barcode_cardinality_bounded_by_positive_simplices():
    rng = random.Random(13)
    for _ in range(20):
        c = truncate(random_filtration(rng), 3)
        b = compute_barcode(c, 2)
        m_k = sum(1 for v in c.simplices if len(v) > 1)
        assert len(b.bars) <= m_k


def test_validate_family_passes_on_fixtures():
    fixtures = [
        spaces.hollow_triangle(),
        spaces.filled_triangle(),
        spaces.two_disks(),
        spaces.projective_plane(),
        spaces.csaszar_torus(),
        spaces.staged_klein(),
    ]
    for c in fixtures:
        ct = truncate(c, 3)
        b = compute_barcode(ct, 2)
        assert validate_family(b).ok


def test_validate_family_detects_zeroed_representative():
    c = spaces.two_disks()
    b = compute_barcode(c, 1)
    broken = [
        Bar(bar.dim, bar.birth, bar.death, Cochain.zero(1)) if bar.birth == 0.0 else bar
        for bar in b.bars
    ]
    report = validate_family(AnnotatedBarcode(broken, 1, b.reduction))
    assert not report.ok
    assert report.first_failure == (0.0, 1)


def test_validate_family_detects_duplicate_representative():
    c = spaces.two_disks()
    b = compute_barcode(c, 1)
    rep = next(bar for bar in b.bars if bar.birth == 0.0).representative
    broken = [Bar(bar.dim, bar.birth, bar.death, rep) for bar in b.bars]
    report = validate_family(AnnotatedBarcode(broken, 1, b.reduction))
    assert not report.ok
    assert report.first_failure == (1.0, 1)


def test_validate_family_detects_non_cocycle_representative():
    # one edge of the projective plane lies on two triangles
    b = compute_barcode(spaces.projective_plane(), 1)
    (bar,) = b.bars
    edge = min(bar.representative.summands)
    broken = [Bar(1, bar.birth, bar.death, Cochain.of(edge))]
    report = validate_family(AnnotatedBarcode(broken, 1, b.reduction))
    assert not report.ok
    assert report.first_failure == (0.0, 1)
    assert "is not a cocycle at 0.0" in report.failures[0][2]


def test_validate_family_finds_the_one_exact_combination_of_many_bars():
    # a wedge of 14 circles at grade 0, the last representative replaced by
    # the sum of the other 13 and the coboundary of the wedge point: the
    # only exact combination uses all 14, and it is not zero
    simplices = [([0], 0.0)]
    for i in range(14):
        u, v = 2 * i + 1, 2 * i + 2
        simplices += [([u], 0.0), ([v], 0.0), ([0, u], 0.0), ([0, v], 0.0), ([u, v], 0.0)]
    c = from_simplex_list(simplices)
    b = compute_barcode(c, 1)
    assert len(b.bars) == 14
    bars = list(b.bars)
    total = cochain_coboundary(c, Cochain.of((0,)), 0.0)
    for bar in bars[:-1]:
        total ^= bar.representative
    bars[-1] = Bar(1, bars[-1].birth, bars[-1].death, total)
    report = validate_family(AnnotatedBarcode(bars, 1, b.reduction))
    assert not report.ok
    assert report.first_failure == (0.0, 1)
    assert f"combination {'1' * 14} of" in report.failures[0][2]


def test_validate_family_on_random_regraded_surfaces():
    rng = random.Random(21)
    bases = [spaces.projective_plane(), spaces.csaszar_torus(), spaces.staged_klein()]
    for i in range(12):
        c = regrade(rng, bases[i % len(bases)])
        b = compute_barcode(c, 2)
        assert validate_family(b).ok


def test_compute_barcode_truncates_to_k_plus_one():
    # the full 3-simplex, graded by dimension: three 1-bars [1, 2)
    full = [(list(v), float(len(v) - 1)) for n in range(1, 5) for v in combinations(range(4), n)]
    c = from_simplex_list(full)
    assert c.dim == 3
    got = compute_barcode(c, 1)
    want = compute_barcode(truncate(c, 2), 1)
    assert got.reduction.complex.dim == 2
    assert got.bars == want.bars
    assert [(bar.dim, bar.birth, bar.death) for bar in got.bars] == [(1, 1.0, 2.0)] * 3
    # products above the truncated complex vanish at cochain level
    ct = got.reduction.complex
    assert cup_product(Cochain.of((0, 1)), Cochain.of((1, 2)), ct) == Cochain.of((0, 1, 2))
    assert cup_product(Cochain.of((0, 1, 2)), Cochain.of((2, 3)), ct) == Cochain.zero(3)


def test_annotated_barcode_rejects_bars_above_its_bound():
    b = compute_barcode(spaces.staged_klein(), 2)
    assert any(bar.dim == 2 for bar in b.bars)
    with pytest.raises(ValueError, match="above 1"):
        AnnotatedBarcode(b.bars, 1, b.reduction)
