import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuplength import functions
from cuplength.cup import CupDiagram
from cuplength.functions import (
    CupFunction,
    Interval,
    analytic_vr_circle,
    analytic_vr_torus,
    analytic_vr_wedge_lower,
    erosion_distance,
    evaluate,
    pointwise_max,
    pointwise_sum,
    reconstruct,
)
from conftest import grid_erosion, grid_queries, random_cup_function

PI = math.pi


def klein_diagram():
    return CupDiagram(
        {
            Interval.closed_open(1.0, 3.0): 1,
            Interval.closed_open(2.0, 3.0): 2,
            Interval(2.0, math.inf): 2,
        }
    )


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError, match="left=nan, right=1.0"):
        Interval(math.nan, 1.0)
    with pytest.raises(ValueError, match="left=0.0, right=nan"):
        Interval(0.0, math.nan)
    with pytest.raises(ValueError):
        Interval(1.0, 1.0, True, False)
    assert Interval.point(1.0).length == 0.0
    assert Interval(0.0, math.inf).unbounded


def test_interval_containment_closures():
    gen = Interval.open(0.0, 2.0)
    assert not gen.contains(Interval.closed(0.0, 1.0))
    assert gen.contains(Interval.closed(0.5, 1.0))
    assert Interval.closed(0.0, 2.0).contains(Interval.open(0.0, 2.0))
    assert Interval(0.0, math.inf).contains(Interval.closed(5.0, 500.0))


def test_reconstruct_klein_cases():
    f = reconstruct(klein_diagram())
    assert evaluate(f, Interval.closed(2.5, 10.0)) == 2
    assert evaluate(f, Interval.closed(1.2, 2.4)) == 1
    assert evaluate(f, Interval.closed(0.5, 0.9)) == 0


def test_reconstruct_empty():
    f = reconstruct(CupDiagram({}))
    assert evaluate(f, Interval.closed(0.0, 1.0)) == 0


def test_evaluate_open_generator_cases():
    f = CupFunction.from_pairs([(Interval.open(0.0, 2 * PI / 3), 2)])
    assert evaluate(f, Interval.point(PI / 3)) == 2
    assert evaluate(f, Interval.closed(0.0, 1.0)) == 0
    g = CupFunction.from_pairs([(Interval.closed(0.0, 4.0), 1)])
    assert evaluate(g, Interval.closed(0.0, 4.0)) == 1


def test_pointwise_sum_examples():
    circle = analytic_vr_circle(4)
    torus = analytic_vr_torus(4)
    doubled = pointwise_sum(circle, circle)
    for q in grid_queries([0.0, PI / 3, 2 * PI / 3, 0.9 * PI, PI], pad=0.05):
        assert evaluate(doubled, q) == evaluate(torus, q)
        assert evaluate(doubled, q) == 2 * evaluate(circle, q)
    f = CupFunction.from_pairs([(Interval.closed(0.0, 4.0), 1)])
    assert pointwise_sum(f, CupFunction.zero()).generators == f.generators


def test_pointwise_sum_overlap_region():
    f = CupFunction.from_pairs([(Interval.closed(0.0, 4.0), 1)])
    g = CupFunction.from_pairs([(Interval.closed(2.0, 6.0), 1)])
    s = pointwise_sum(f, g)
    for q in grid_queries([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]):
        expect = evaluate(f, q) + evaluate(g, q)
        assert evaluate(s, q) == expect
        assert (evaluate(s, q) == 2) == (2.0 <= q.left and q.right <= 4.0)


def test_pointwise_max_examples():
    f = CupFunction.from_pairs([(Interval.closed(0.0, 2.0), 1)])
    g = CupFunction.from_pairs([(Interval.closed(1.0, 3.0), 2)])
    m = pointwise_max(f, g)
    for q in grid_queries([0.0, 1.0, 2.0, 3.0]):
        assert evaluate(m, q) == max(evaluate(f, q), evaluate(g, q))
    same = pointwise_max(f, f)
    for q in grid_queries([0.0, 1.0, 2.0]):
        assert evaluate(same, q) == evaluate(f, q)
    # wedge model: the circle and sphere parts combine by max and stay 1
    # on the window below the sphere collapse scale
    zeta = math.acos(-1.0 / 3.0)
    wedge = pointwise_max(analytic_vr_circle(3), analytic_vr_wedge_lower())
    assert evaluate(wedge, Interval.closed(0.1, zeta - 0.1)) == 1
    assert evaluate(wedge, Interval.closed(0.1, PI / 3)) == 1


def test_pointwise_identities_on_random_functions():
    rng = random.Random(3)
    for _ in range(25):
        f = random_cup_function(rng)
        g = random_cup_function(rng)
        ends = [x for gen, _ in f.generators + g.generators for x in (gen.left, gen.right) if not math.isinf(x)]
        s, m = pointwise_sum(f, g), pointwise_max(f, g)
        for q in grid_queries(ends or [0.0]):
            fv, gv = evaluate(f, q), evaluate(g, q)
            assert evaluate(s, q) == fv + gv
            assert evaluate(m, q) == max(fv, gv)


def test_monotone_evaluation():
    rng = random.Random(5)
    for _ in range(20):
        f = random_cup_function(rng)
        ends = [x for gen, _ in f.generators for x in (gen.left, gen.right) if not math.isinf(x)]
        queries = grid_queries(ends or [0.0])
        for small in queries:
            for big in queries:
                if big.contains(small):
                    assert evaluate(f, small) >= evaluate(f, big)


def test_erosion_identity_and_simple_pair():
    t = analytic_vr_torus(3)
    assert erosion_distance(t, t) == 0.0
    f = CupFunction.from_pairs([(Interval.closed(0.0, 4.0), 1)])
    g = CupFunction.from_pairs([(Interval.closed(0.0, 2.0), 1)])
    assert erosion_distance(f, g) == 2.0


def test_erosion_torus_vs_wedge_is_pi_over_three():
    d = erosion_distance(analytic_vr_torus(8), analytic_vr_wedge_lower())
    assert abs(d - PI / 3) <= 1e-9


def test_erosion_unbounded_mismatch_is_infinite():
    f = CupFunction.from_pairs([(Interval(0.0, math.inf), 1)])
    g = CupFunction.from_pairs([(Interval.closed(0.0, 2.0), 1)])
    assert math.isinf(erosion_distance(f, g))
    h = CupFunction.from_pairs([(Interval(5.0, math.inf), 1)])
    assert erosion_distance(f, h) == 5.0
    two = CupFunction.from_pairs([(Interval(0.0, math.inf), 2)])
    assert math.isinf(erosion_distance(f, two))


def test_erosion_infimum_not_attained():
    # against the empty function the closed generator keeps a point query
    # alive exactly at eps = 2, so the predicate first holds just above it
    f = CupFunction.from_pairs([(Interval.closed(0.0, 4.0), 1)])
    assert erosion_distance(f, CupFunction.zero()) == 2.0
    g = CupFunction.from_pairs([(Interval.open(0.0, 4.0), 1)])
    assert erosion_distance(g, CupFunction.zero()) == 2.0
    # 0 is the only candidate and the point query survives eps = 0 itself
    point = CupFunction.from_pairs([(Interval.point(1.0), 1)])
    assert erosion_distance(point, CupFunction.zero()) == 0.0


def test_erosion_closure_sensitivity():
    closed = CupFunction.from_pairs([(Interval.closed(0.0, 2.0), 1)])
    opened = CupFunction.from_pairs([(Interval.open(0.0, 2.0), 1)])
    # the closed generator honors endpoint queries the open one cannot serve,
    # but only on measure-zero queries, which erosion absorbs at any eps > 0
    assert erosion_distance(closed, opened) == 0.0


def test_erosion_zero_for_evaluation_equal_functions():
    f = CupFunction.from_pairs([(Interval.closed(0.0, 2.0), 1), (Interval.closed(0.0, 4.0), 1)])
    g = CupFunction.from_pairs([(Interval.closed(0.0, 4.0), 1)])
    assert erosion_distance(f, g) == 0.0


def test_erosion_agrees_with_grid_oracle():
    rng = random.Random(8)
    for _ in range(40):
        f = random_cup_function(rng)
        g = random_cup_function(rng)
        exact = erosion_distance(f, g)
        approx = grid_erosion(f, g)
        if math.isinf(exact) or math.isinf(approx):
            assert math.isinf(exact) == math.isinf(approx)
        else:
            assert abs(exact - approx) <= 0.5 + 1e-9


def test_erosion_symmetry_and_triangle():
    rng = random.Random(13)
    for _ in range(60):
        f, g, h = (random_cup_function(rng) for _ in range(3))
        dfg = erosion_distance(f, g)
        assert dfg == erosion_distance(g, f)
        dgh = erosion_distance(g, h)
        dfh = erosion_distance(f, h)
        assert dfh <= dfg + dgh + 1e-12


def _erosion_candidates(f, g):
    """Every endpoint difference and half difference of f and g, and 0, sorted."""
    ends = []
    for gen, _ in f.generators + g.generators:
        ends.append(gen.left)
        if not gen.unbounded:
            ends.append(gen.right)
    cands = {0.0}
    for i, x in enumerate(ends):
        for y in ends[i:]:
            d = abs(x - y)
            cands.add(d)
            cands.add(d / 2.0)
    return sorted(cands)


def _scan_erosion_distance(f, g):
    """Reference erosion distance: probe every candidate gap in order."""
    cands = _erosion_candidates(f, g)
    for i, c in enumerate(cands):
        upper = cands[i + 1] if i + 1 < len(cands) else c + 1.0
        if functions._eroded(f, g, (c + upper) / 2.0):
            return c
    return math.inf


def _probed_erosion(f, g):
    """erosion_distance(f, g) and the number of eroded-predicate probes it made."""
    eroded = functions._eroded
    probes = []

    def counting(f, g, eps):
        probes.append(eps)
        return eroded(f, g, eps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functions, "_eroded", counting)
        d = erosion_distance(f, g)
    return d, len(probes)


def _with_unbounded_top(f, value):
    """f plus an unbounded generator of the given value."""
    left = min(gen.left for gen, _ in f.generators)
    return CupFunction.from_pairs(list(f.generators) + [(Interval(left, math.inf), value)])


@st.composite
def _function_pairs(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    f, g = random_cup_function(rng, max_gens=6), random_cup_function(rng, max_gens=6)
    if draw(st.booleans()):
        # a point generator can make the largest candidate the distance
        point = Interval.point(draw(st.integers(0, 16)) / 2.0)
        g = CupFunction.from_pairs(list(g.generators) + [(point, draw(st.integers(1, 3)))])
    if draw(st.booleans()):
        # values of random_cup_function stay below 4, so g never reaches
        # this top on long queries and the distance is inf
        f = _with_unbounded_top(f, 4)
    return f, g


@settings(max_examples=300, deadline=None)
@given(_function_pairs())
def test_erosion_bisection_matches_scan(pair):
    f, g = pair
    assert erosion_distance(f, g) == _scan_erosion_distance(f, g)


def test_erosion_bisection_matches_scan_on_finite_and_inf_pairs():
    rng = random.Random(21)
    seen = set()
    for _ in range(80):
        f, g = random_cup_function(rng), random_cup_function(rng)
        if rng.random() < 0.3:
            f = _with_unbounded_top(f, 4)
        d = erosion_distance(f, g)
        assert d == _scan_erosion_distance(f, g)
        seen.add(math.isinf(d))
    assert seen == {False, True}
    torus, wedge = analytic_vr_torus(8), analytic_vr_wedge_lower()
    assert erosion_distance(torus, wedge) == _scan_erosion_distance(torus, wedge)


def test_erosion_probes_logarithmically_many_gaps():
    rng = random.Random(34)
    pairs = [
        (analytic_vr_torus(8), analytic_vr_wedge_lower()),
        (analytic_vr_torus(8), analytic_vr_circle(8)),
        (pointwise_max(analytic_vr_torus(40), CupFunction.from_pairs([(Interval(10.0, math.inf), 3)])), analytic_vr_circle(40)),
    ] + [(random_cup_function(rng, max_gens=8), random_cup_function(rng, max_gens=8)) for _ in range(20)]
    sizes = []
    for f, g in pairs:
        n = len(_erosion_candidates(f, g))
        _, probes = _probed_erosion(f, g)
        assert probes <= math.ceil(math.log2(n + 1)) + 1
        sizes.append(n)
    # the third pair is at distance inf, where a scan probes all its gaps
    assert math.isinf(erosion_distance(*pairs[2])) and sizes[2] > 1000


@st.composite
def _benchmark_like_pairs(draw):
    """Pairs shaped like the erosion benchmark's inputs: 12-24 generators,
    3-decimal endpoints in [0, 14], mixed closures, up to three unbounded
    generators.  Their near-equal differences (1.855 and 1.8549999999999995)
    and thousands of candidates take the search through its narrowing
    probes before it lists any."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def function(top):
        gens = []
        unbounded = rng.randint(0, 3)
        for k in range(rng.randint(12, 24)):
            left = round(rng.uniform(0.0, 10.0), 3)
            if k < unbounded:
                gens.append((Interval(left, math.inf, rng.random() < 0.5), top if k == 0 else rng.randint(1, top)))
            else:
                right = round(left + rng.uniform(0.05, 4.0), 3)
                gens.append((Interval(left, right, rng.random() < 0.5, rng.random() < 0.5), rng.randint(1, 3)))
        return CupFunction.from_pairs(gens)

    # equal tops keep most distances finite; unequal ones make them inf
    top = draw(st.integers(1, 3))
    return function(top), function(top if draw(st.booleans()) else draw(st.integers(1, 3)))


@settings(max_examples=60, deadline=None)
@given(_benchmark_like_pairs())
def test_erosion_matches_scan_on_benchmark_like_pairs(pair):
    f, g = pair
    d, probes = _probed_erosion(f, g)
    assert repr(d) == repr(_scan_erosion_distance(f, g))
    assert probes <= math.ceil(math.log2(len(_erosion_candidates(f, g)) + 1)) + 1


TINY = math.ulp(0.0)


def _unit_grid_function(rng, unit, count):
    """Generators with endpoints at multiples of ``unit`` in [-179, 179] units, a tenth unbounded."""
    gens = []
    for _ in range(count):
        a = rng.randint(-179, 178)
        if rng.random() < 0.1:
            gens.append((Interval(a * unit, math.inf), 1))
        else:
            b = rng.randint(a + 1, 179)
            gens.append((Interval(a * unit, b * unit, rng.random() < 0.5, rng.random() < 0.5), rng.randint(1, 2)))
    return CupFunction.from_pairs(gens)


ZERO = CupFunction.zero()
EDGE_PAIRS = {
    "both-zero": (ZERO, ZERO, 0.0),
    "zero-vs-unbounded-only": (
        ZERO,
        CupFunction.from_pairs([(Interval(1.0, math.inf), 1), (Interval(2.5, math.inf), 2)]),
        math.inf,
    ),
    "single-endpoint": (CupFunction.from_pairs([(Interval.point(1.0), 1)]), ZERO, 0.0),
    "overflowing-difference": (
        CupFunction.from_pairs([(Interval.closed(-1e308, 1e308), 1)]),
        CupFunction.from_pairs([(Interval.closed(-1e308, 0.0), 1)]),
        1e308,
    ),
    # 3 * TINY / 2.0 rounds to 2 * TINY, the only candidate between 0 and 3 * TINY
    "rounded-half": (CupFunction.from_pairs([(Interval.closed(0.0, 3 * TINY), 1)]), ZERO, 2 * TINY),
}


@pytest.mark.parametrize("case", sorted(EDGE_PAIRS))
def test_erosion_edge_cases_match_scan(case):
    f, g, expected = EDGE_PAIRS[case]
    assert repr(erosion_distance(f, g)) == repr(_scan_erosion_distance(f, g)) == repr(expected)
    assert repr(erosion_distance(g, f)) == repr(expected)


@pytest.mark.parametrize("unit", [1e306, TINY], ids=["overflowing", "subnormal"])
def test_erosion_matches_scan_at_extreme_magnitudes(unit):
    # 30 generators a side give thousands of candidates, so the search
    # narrows first: near 1e308 a pivot's double overflows, and among
    # subnormals the half of an odd multiple of TINY rounds
    rng = random.Random(55)
    finite = 0
    for _ in range(15):
        f, g = _unit_grid_function(rng, unit, 30), _unit_grid_function(rng, unit, 30)
        cands = _erosion_candidates(f, g)
        assert (math.inf in cands) if unit > 1.0 else any(c / 2.0 * 2.0 != c for c in cands)
        d = erosion_distance(f, g)
        assert repr(d) == repr(_scan_erosion_distance(f, g))
        finite += not math.isinf(d)
    assert finite >= 5


@pytest.mark.parametrize("unit", [1e306, TINY, 0.001], ids=["overflowing", "subnormal", "millesimal"])
def test_candidates_between_lists_the_reference_candidates_in_range(unit):
    # bounds are drawn from the candidates themselves, so a bound that only
    # a rounded half or an overflowed difference reaches is among them
    rng = random.Random(89)
    for _ in range(4):
        f, g = _unit_grid_function(rng, unit, 8), _unit_grid_function(rng, unit, 8)
        ref = _erosion_candidates(f, g)
        ends = functions._finite_ends(f, g)
        for lo in rng.sample(ref, min(len(ref), 12)) + [0.0]:
            above = [c for c in ref if c > lo]
            for hi in rng.sample(above, min(len(above), 3)) + [lo, math.inf]:
                listed = functions._candidates_between(ends, lo, hi)
                assert listed == [c for c in ref if lo <= c <= hi], (lo, hi)


def _case_contains(gen, q):
    """Reference containment: closure rules spelled out case by case."""
    if gen.left > q.left:
        return False
    if gen.left == q.left and q.left_closed and not gen.left_closed:
        return False
    if gen.right < q.right:
        return False
    if gen.right == q.right and q.right_closed and not gen.right_closed:
        return False
    return True


def _case_intersect(a, b):
    """Reference intersection: closure rules spelled out case by case."""
    if a.left > b.left or (a.left == b.left and not a.left_closed):
        left, lc = a.left, a.left_closed
        if b.left == left:
            lc = lc and b.left_closed
    else:
        left, lc = b.left, b.left_closed
        if a.left == left:
            lc = lc and a.left_closed
    if a.right < b.right or (a.right == b.right and not a.right_closed):
        right, rc = a.right, a.right_closed
        if b.right == right:
            rc = rc and b.right_closed
    else:
        right, rc = b.right, b.right_closed
        if a.right == right:
            rc = rc and a.right_closed
    if left > right or (left == right and not (lc and rc)):
        return None
    return Interval(left, right, lc, rc)


def _case_covers_shrunk(f, outer, value, eps):
    """Reference for functions._covers_shrunk: closure rules case by case."""
    lo = outer.left + eps
    left_attained = outer.left_closed
    if outer.unbounded:
        hi = math.inf
        right_attained = False
    else:
        hi = outer.right - eps
        right_attained = outer.right_closed
        if lo > hi:
            return True
        if lo == hi and not (left_attained and right_attained):
            return True
    for gen, v in f.generators:
        if v < value:
            continue
        if gen.left > lo:
            continue
        if gen.left == lo and left_attained and not gen.left_closed:
            continue
        if outer.unbounded:
            if not gen.unbounded:
                continue
        else:
            if gen.right < hi:
                continue
            if gen.right == hi and right_attained and not gen.right_closed:
                continue
        return True
    return False


@st.composite
def _intervals(draw):
    """Intervals on a coarse grid, so shared endpoints and points are common."""
    left = draw(st.integers(0, 8)) / 2.0
    right = draw(st.one_of(st.integers(int(2 * left), 8).map(lambda i: i / 2.0), st.just(math.inf)))
    if left == right:
        return Interval.point(left)
    # a closed infinite right end is normalized to open
    return Interval(left, right, draw(st.booleans()), draw(st.booleans()))


def _fields(interval):
    return None if interval is None else (interval.left, interval.right, interval.left_closed, interval.right_closed)


@settings(max_examples=800, deadline=None)
@given(_intervals(), _intervals())
def test_endpoint_order_matches_case_analysis(a, b):
    assert a.contains(b) == _case_contains(a, b)
    assert _fields(a.intersect(b)) == _fields(_case_intersect(a, b))
    assert repr(a.intersect(b)) == repr(_case_intersect(a, b))
    assert a.overlaps(b) == (a.intersect(b) is not None) == b.overlaps(a)


@st.composite
def _shrink_cases(draw):
    gens = draw(st.lists(st.tuples(_intervals(), st.integers(1, 3)), max_size=5))
    outer = draw(_intervals())
    # half the length shrinks a bounded query to a single point
    eps = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.5, outer.length / 2 if not outer.unbounded else 0.75]))
    return CupFunction.from_pairs(gens), outer, draw(st.integers(1, 3)), eps


@settings(max_examples=500, deadline=None)
@given(_shrink_cases())
def test_covers_shrunk_matches_case_analysis(case):
    f, outer, value, eps = case
    assert functions._covers_shrunk(f, outer, value, eps) == _case_covers_shrunk(f, outer, value, eps)


@settings(max_examples=200, deadline=None)
@given(_function_pairs())
def test_erosion_matches_case_analysis(pair):
    f, g = pair
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functions, "_covers_shrunk", _case_covers_shrunk)
        expected = erosion_distance(f, g)
    assert repr(erosion_distance(f, g)) == repr(expected)


def test_analytic_functions():
    torus1 = analytic_vr_torus(1)
    gen, value = torus1.generators[0]
    assert value == 2
    assert gen.left == 0.0 and abs(gen.right - 2 * PI / 3) <= 1e-15
    assert not gen.left_closed and not gen.right_closed
    wedge = analytic_vr_wedge_lower()
    assert evaluate(wedge, Interval.closed(PI / 3 - 0.01, PI / 3 + 0.01)) == 1
    with pytest.raises(ValueError):
        analytic_vr_circle(0)
