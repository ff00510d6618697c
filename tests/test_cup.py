import math
import random

import pytest

from cuplength import cli, oracle, spaces
from cuplength.cohomology import Cochain, compute_barcode
from cuplength.cup import (
    CupDiagram,
    RunStats,
    _by_first_vertex,
    compute_cup_diagram,
    cup_diagram,
    cup_product,
    support,
)
from cuplength.functions import Interval, evaluate, reconstruct
from cuplength.simplicial import from_simplex_list, truncate
from cuplength.z2 import in_reduced_column_space, is_coboundary, reduce_coboundary
from conftest import random_filtration, regrade, simplicial_product


def _chain(entries):
    closed = spaces.close_under_faces({tuple(k): v for k, v in entries.items()})
    return from_simplex_list([(list(v), g) for v, g in closed.items()])


def test_cup_product_single_match():
    c = spaces.filled_triangle()
    out = cup_product(Cochain.of((0, 1)), Cochain.of((1, 2)), c)
    assert out == Cochain.of((0, 1, 2))


def test_cup_product_endpoint_mismatch():
    c = spaces.filled_triangle()
    assert cup_product(Cochain.of((0, 1)), Cochain.of((0, 2)), c).is_zero()


def test_cup_product_bilinear_expansion():
    c = _chain({(1, 2, 3): 0.0, (0, 1): 0.0, (2, 3): 0.0})
    left = Cochain.of((0, 1)) ^ Cochain.of((1, 2))
    out = cup_product(left, Cochain.of((2, 3)), c)
    assert out == Cochain.of((1, 2, 3))


def test_cup_product_takes_the_right_factor_indexed_by_first_vertex():
    rng = random.Random(17)
    for _ in range(20):
        c = random_filtration(rng, max_vertices=6, max_positive=30)
        by_dim = {}
        for v in c.simplices:
            by_dim.setdefault(len(v) - 1, []).append(v)
        for p1, p2 in ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1)):
            if p1 not in by_dim or p2 not in by_dim:
                continue
            s1 = Cochain(p1, frozenset(rng.sample(by_dim[p1], min(4, len(by_dim[p1])))))
            s2 = Cochain(p2, frozenset(rng.sample(by_dim[p2], min(4, len(by_dim[p2])))))
            assert cup_product(s1, s2, c, _by_first_vertex(s2)) == cup_product(s1, s2, c)


def test_cup_product_dimension_guard():
    c = spaces.hollow_triangle()
    out = cup_product(Cochain.of((0, 1)), Cochain.of((1, 2)), c)
    assert out.is_zero() and out.p == 2


def _bars_by_dim(b, p):
    return [bar for bar in b.bars if bar.dim == p]


def test_support_torus_pair_and_square():
    c = spaces.csaszar_torus()
    b = compute_barcode(c, 2)
    rc = reduce_coboundary(c)
    births = sorted({bar.birth for bar in b.bars})
    one = _bars_by_dim(b, 1)
    assert len(one) == 2
    s1, s2 = one[0].representative, one[1].representative
    prod = cup_product(s1, s2, c)
    supp = support(prod, one[0].interval().intersect(one[1].interval()), rc, births)
    assert supp == Interval(0.0, math.inf)
    square = cup_product(s1, s1, c)
    assert support(square, one[0].interval(), rc, births) is None


def test_support_klein_mixed_product():
    c = spaces.staged_klein()
    b = compute_barcode(c, 2)
    rc = reduce_coboundary(c)
    births = sorted({bar.birth for bar in b.bars})
    finite = next(bar for bar in b.bars if bar.dim == 1 and not bar.essential)
    essential = next(bar for bar in b.bars if bar.dim == 1 and bar.essential)
    assert (finite.birth, finite.death) == (1.0, 3.0)
    assert essential.birth == 2.0
    prod = cup_product(finite.representative, essential.representative, c)
    supp = support(prod, finite.interval().intersect(essential.interval()), rc, births)
    sq = cup_product(essential.representative, essential.representative, c)
    supp_sq = support(sq, essential.interval(), rc, births)
    assert supp_sq == Interval(2.0, math.inf)
    # the harvested family has the mixed product landing exactly on [2, 3)
    # and the finite class squaring to zero
    assert supp == Interval.closed_open(2.0, 3.0)
    sq_fin = cup_product(finite.representative, finite.representative, c)
    assert support(sq_fin, finite.interval(), rc, births) is None


def test_support_symmetry():
    rng = random.Random(6)
    bases = [spaces.csaszar_torus(), spaces.projective_plane(), spaces.staged_klein()]
    for i in range(9):
        c = regrade(rng, bases[i % len(bases)])
        b = compute_barcode(c, 2)
        rc = reduce_coboundary(c)
        births = sorted({bar.birth for bar in b.bars})
        ones = _bars_by_dim(b, 1)
        for x in ones:
            for y in ones:
                pxy = cup_product(x.representative, y.representative, c)
                pyx = cup_product(y.representative, x.representative, c)
                sxy = syx = None
                if x.interval().overlaps(y.interval()):
                    sxy = support(pxy, x.interval().intersect(y.interval()), rc, births)
                    syx = support(pyx, y.interval().intersect(x.interval()), rc, births)
                assert sxy == syx


def _linear_support(sigma, inter, c, rc, births):
    """Reference for support: test exactness at every birth in
    [inter.left, inter.right), from the top down."""
    candidates = [t for t in births if inter.left <= t < inter.right]
    left = None
    for t in reversed(candidates):
        if is_coboundary(sigma.restrict(c, t), t, rc):
            break
        left = t
    if left is None:
        return None
    return Interval(left, inter.right, left_closed=True, right_closed=inter.right_closed)


def test_support_matches_linear_descent():
    # the topmost candidate is the last birth strictly below the right end;
    # a birth at the right end itself must not be tested
    rng = random.Random(47)
    bases = [spaces.csaszar_torus(), spaces.staged_klein(), spaces.projective_plane()]
    instances = [(random_filtration(rng) if i % 2 else regrade(rng, bases[i % 3]), 2) for i in range(40)]
    circle_rp2 = simplicial_product(spaces.hollow_triangle(), spaces.projective_plane())
    instances += [(circle_rp2, 3)] + [(regrade(rng, circle_rp2), 3) for _ in range(3)]
    products = births_at_right_end = degree_3 = 0
    for c, k in instances:
        b = compute_barcode(c, k)
        ct, rc = b.reduction.complex, b.reduction
        births = sorted({bar.birth for bar in b.bars})
        for x in b.bars:
            for y in b.bars:
                if x.dim + y.dim > k or not x.interval().overlaps(y.interval()):
                    continue
                sigma = cup_product(x.representative, y.representative, ct)
                if sigma.is_zero():
                    continue
                inter = x.interval().intersect(y.interval())
                assert support(sigma, inter, rc, births) == _linear_support(sigma, inter, ct, rc, births)
                products += 1
                births_at_right_end += inter.right in births
                degree_3 += sigma.p == 3
    assert products > 50
    assert births_at_right_end > 20
    assert degree_3 > 20


def test_cup_diagram_hollow_triangle():
    d, stats, _ = compute_cup_diagram(spaces.hollow_triangle(), 2)
    assert d.points == {Interval(0.0, math.inf): 1}
    assert stats.q_1 == 1


def test_cup_diagram_klein_exact():
    d, stats, b = compute_cup_diagram(spaces.staged_klein(), 2)
    assert [(bar.dim, bar.birth, bar.death) for bar in b.bars] == [
        (1, 1.0, 3.0),
        (1, 2.0, math.inf),
        (2, 2.0, math.inf),
    ]
    assert d.points == {
        Interval.closed_open(1.0, 3.0): 1,
        Interval.closed_open(2.0, 3.0): 2,
        Interval(2.0, math.inf): 2,
    }


def test_cup_diagram_torus():
    d, stats, _ = compute_cup_diagram(spaces.csaszar_torus(), 2)
    assert d.points == {Interval(0.0, math.inf): 2}


def test_cup_diagram_projective_plane():
    d, _, _ = compute_cup_diagram(spaces.projective_plane(), 2)
    assert d.points == {Interval(0.0, math.inf): 2}


def test_trimming_drops_short_bars():
    c = spaces.two_disks()
    d, stats, _ = compute_cup_diagram(c, 2, trim_eps=2.5)
    assert d.points == {}
    d2, stats2, _ = compute_cup_diagram(c, 2, trim_eps=1.5)
    assert set(d2.points) == {Interval.closed_open(0.0, 2.0), Interval.closed_open(1.0, 3.0)}


def test_run_stats_consistency():
    rng = random.Random(12)
    for i in range(8):
        c = regrade(rng, spaces.csaszar_torus()) if i % 2 else random_filtration(rng)
        d, stats, b = compute_cup_diagram(c, 2)
        ct = truncate(c, 3)
        assert stats.m_k == sum(1 for v in ct.simplices if len(v) > 1)
        assert stats.q_1 == len(b.bars) == stats.q_ell[1]
        assert stats.q_1 <= stats.m_k
        for ell, count in stats.q_ell.items():
            assert count >= 0


def test_factor_containment():
    rng = random.Random(14)
    bases = [spaces.csaszar_torus(), spaces.staged_klein(), spaces.projective_plane()]
    for i in range(9):
        c = regrade(rng, bases[i % len(bases)])
        d, _, b = compute_cup_diagram(c, 2)
        bar_intervals = [bar.interval() for bar in b.bars]
        for interval, value in d.points.items():
            if value >= 2:
                assert any(big.contains(interval) for big in bar_intervals)


def test_support_ends_come_from_the_bar_grid():
    # every product interval starts at a bar birth and ends at the right
    # end of some intersection of bar intervals
    rng = random.Random(41)
    bases = [spaces.csaszar_torus(), spaces.staged_klein(), spaces.projective_plane()]
    for i in range(12):
        c = regrade(rng, bases[i % len(bases)])
        d, _, b = compute_cup_diagram(c, 2)
        births = {bar.birth for bar in b.bars}
        right_ends = set()
        for x in b.bars:
            for y in b.bars:
                inter = x.interval().intersect(y.interval())
                if inter is not None:
                    right_ends.add(inter.right)
        for interval, value in d.points.items():
            if value >= 2:
                assert interval.left in births
                assert interval.right in right_ends


def test_exactness_holds_on_a_prefix_of_the_critical_values():
    # support reduces a product once, at its topmost candidate, and reads
    # the left end off the row where the reduction stops.  That needs, for
    # any mask, exactness at t to imply it at every earlier t, and every
    # stage that is not exact to stop at one row p, whose simplex enters at
    # the first stage that is not exact
    rng = random.Random(43)
    switches = stopped = 0
    for _ in range(40):
        c = random_filtration(rng)
        rc = reduce_coboundary(c)
        m = len(c)
        for _ in range(10):
            mask = 0
            for j in rng.sample(range(m), rng.randint(0, min(4, m))):
                mask ^= rc.R.col_mask(j)
            if rng.random() < 0.5:
                mask ^= 1 << rng.randrange(m)
            stops = [in_reduced_column_space(mask, t, rc) for t in c.critical_values]
            exact = [p is None for p in stops]
            assert exact == sorted(exact, reverse=True)
            switches += exact[0] and not exact[-1]
            rows = {p for p in stops if p is not None}
            assert len(rows) <= 1
            if rows:
                (p,) = rows
                assert exact == [t < c.grades[m - 1 - p] for t in c.critical_values]
                stopped += 1
    assert switches > 50
    assert stopped > 100


def test_diagram_matches_oracle_on_random_instances():
    rng = random.Random(18)
    for trial in range(30):
        c = random_filtration(rng) if trial % 2 else regrade(
            rng, [spaces.csaszar_torus(), spaces.projective_plane(), spaces.staged_klein()][trial % 3]
        )
        d, _, _ = compute_cup_diagram(c, 2)
        f = reconstruct(d)
        ct = truncate(c, 3)
        g = oracle.oracle_cup_function(ct, 2)
        for j, s in enumerate(ct.critical_values):
            for t in ct.critical_values[: j + 1]:
                q = Interval.closed(t, s)
                assert evaluate(f, q) == evaluate(g, q)


def test_sorted_and_reversed_bar_orders_give_the_same_diagram():
    # two product evaluation orders: the sorted bars, then the bars reversed
    rng = random.Random(25)
    for i in range(6):
        c = regrade(rng, [spaces.csaszar_torus(), spaces.staged_klein()][i % 2])
        b = compute_barcode(c, 2)
        forward, s1 = cup_diagram(b)
        b.bars.reverse()
        backward, s2 = cup_diagram(b)
        assert cli.diagram_to_json(forward) == cli.diagram_to_json(backward)
        assert s1.product_count == s2.product_count
        assert s1.coboundary_test_count == s2.coboundary_test_count


def test_cup_diagram_rejects_negative_trim():
    c = spaces.hollow_triangle()
    b = compute_barcode(c, 2)
    for eps in (-1.0, math.nan):
        with pytest.raises(ValueError, match=f"got {eps}"):
            cup_diagram(b, trim_eps=eps)


def _all_pairs_cup_diagram(b, trim_eps=0.0):
    """Reference for cup_diagram: each fold multiplies every base entry
    against every product found so far, in list order."""
    rc = b.reduction
    c = rc.complex
    k = b.dim_bound
    base = [(bar.interval(), bar.representative) for bar in b.bars if bar.length >= trim_eps]
    points = {}

    def record(interval, value):
        if points.get(interval, 0) < value:
            points[interval] = value

    for interval, _ in base:
        record(interval, 1)
    stats = RunStats(
        m_k=sum(1 for v in c.simplices if len(v) > 1),
        q_1=len(base),
        q_ell={1: len(base)},
    )
    if not base or k < 2:
        return CupDiagram(points), stats
    birth_grid = sorted({interval.left for interval, _ in base})
    p_max = min(k, c.dim)
    current = base
    ell = 1
    while current and ell <= k - 1:
        fresh = {}
        for i1, s1 in base:
            for i2, s2 in current:
                if s1.p + s2.p > p_max or not i1.overlaps(i2):
                    continue
                stats.product_count += 1
                sigma = cup_product(s1, s2, c)
                if sigma.is_zero():
                    continue
                stats.coboundary_test_count += 1
                supp = support(sigma, i1.intersect(i2), rc, birth_grid)
                if supp is not None:
                    fresh[supp, sigma] = None
        ell += 1
        current = list(fresh)
        for interval, _ in current:
            record(interval, ell)
        stats.q_ell[ell] = len(current)
    return CupDiagram(points), stats


def test_vertex_index_multiplies_the_same_products_as_all_pairs():
    rng = random.Random(91)
    circle_rp2 = simplicial_product(spaces.hollow_triangle(), spaces.projective_plane())
    bases = [spaces.csaszar_torus(), spaces.staged_klein(), spaces.projective_plane()]
    instances = [
        (random_filtration(rng, max_vertices=8, max_positive=40, density=(0.7, 0.45, 0.2)), 2 + i % 2, False)
        for i in range(12)
    ]
    instances += [(regrade(rng, bases[i % 3]), 2, i % 3 == 0) for i in range(15)]
    instances += [(circle_rp2, 3, False)] + [(regrade(rng, circle_rp2), 3, False) for _ in range(3)]
    torus_products = torus_reference = 0
    later_folds = 0
    for c, k, torus in instances:
        b = compute_barcode(c, k)
        d, stats = cup_diagram(b)
        ref_d, ref_stats = _all_pairs_cup_diagram(b)
        assert cli.diagram_to_json(d) == cli.diagram_to_json(ref_d)
        assert stats.q_ell == ref_stats.q_ell
        assert stats.coboundary_test_count == ref_stats.coboundary_test_count
        assert stats.product_count <= ref_stats.product_count
        if torus:
            torus_products += stats.product_count
            torus_reference += ref_stats.product_count
        later_folds += k == 3 and stats.q_ell.get(2, 0) > 0
    assert torus_products < torus_reference
    # a fold with current != base ran
    assert later_folds >= 1


def test_products_of_a_list_complex_never_reach_the_index_view(monkeypatch):
    # a complex read from a list keeps every simplex as a tuple, so every
    # product and every read of R is a dict hit, none a parent-and-bisection
    # lookup of an array-stored simplex
    c = spaces.csaszar_torus()
    b = compute_barcode(c, 2)
    top_len = b.reduction.complex.top + 1
    view = type(c.index_of)
    get = view.get
    lengths = []

    def counting_get(self, key, default=None):
        lengths.append(len(key))
        return get(self, key, default)

    monkeypatch.setattr(view, "get", counting_get)
    diagram, stats = cup_diagram(b)
    assert stats.product_count > 0 and max(diagram.points.values()) == 2
    assert top_len not in lengths
