"""Cross-checks on product spaces: higher folds and the sum identity."""

import math
import random

from cuplength import oracle, spaces
from cuplength.cup import compute_cup_diagram
from cuplength.functions import Interval, evaluate, pointwise_sum, reconstruct
from cuplength.simplicial import truncate
from conftest import regrade, simplicial_product


def test_product_of_circles_is_a_torus():
    t2 = simplicial_product(spaces.hollow_triangle(), spaces.hollow_triangle())
    basis = oracle.cohomology_basis(t2, 0.0, 2)
    assert [basis.dim(p) for p in (0, 1, 2)] == [1, 2, 1]
    diagram, _, _ = compute_cup_diagram(t2, 2)
    assert diagram.points == {Interval(0.0, math.inf): 2}


def test_circle_times_projective_plane_has_length_three():
    m = simplicial_product(spaces.hollow_triangle(), spaces.projective_plane())
    assert m.dim == 3
    basis = oracle.cohomology_basis(m, 0.0, 3)
    assert [basis.dim(p) for p in range(4)] == [1, 2, 2, 1]
    assert oracle.image_cup_length(m, 0.0, 0.0, 3) == 3
    diagram, _, _ = compute_cup_diagram(m, 3)
    assert diagram.points == {Interval(0.0, math.inf): 3}
    f = reconstruct(diagram)
    g = oracle.oracle_cup_function(truncate(m, 4), 3)
    q = Interval.closed(0.0, 0.0)
    assert evaluate(f, q) == evaluate(g, q) == 3


def test_three_fold_product_capped_by_k():
    # with k = 2 the same space reports only the two-fold products
    m = simplicial_product(spaces.hollow_triangle(), spaces.projective_plane())
    diagram, _, _ = compute_cup_diagram(m, 2)
    assert diagram.points == {Interval(0.0, math.inf): 2}
    assert oracle.image_cup_length(m, 0.0, 0.0, 2) == 2


def test_staged_product_adds_cup_functions():
    rng = random.Random(77)
    for _ in range(6):
        a = regrade(rng, spaces.hollow_triangle(), grid=(0.0, 1.0, 2.0))
        b = regrade(rng, spaces.hollow_triangle(), grid=(0.0, 1.0, 2.0))
        prod = simplicial_product(a, b)
        fa = oracle.oracle_cup_function(a, 2)
        fb = oracle.oracle_cup_function(b, 2)
        fp = oracle.oracle_cup_function(prod, 2)
        summed = pointwise_sum(fa, fb)
        for j, s in enumerate(prod.critical_values):
            for t in prod.critical_values[: j + 1]:
                q = Interval.closed(t, s)
                assert evaluate(fp, q) == evaluate(summed, q)
        diagram, _, _ = compute_cup_diagram(prod, 2)
        f = reconstruct(diagram)
        for j, s in enumerate(prod.critical_values):
            for t in prod.critical_values[: j + 1]:
                q = Interval.closed(t, s)
                assert evaluate(f, q) == evaluate(fp, q)


def test_staged_disks_times_circle_pipeline_matches_oracle():
    rng = random.Random(5)
    for _ in range(3):
        a = spaces.two_disks()
        b = regrade(rng, spaces.hollow_triangle(), grid=(0.0, 1.0))
        prod = truncate(simplicial_product(a, b), 3)
        diagram, _, _ = compute_cup_diagram(prod, 2)
        f = reconstruct(diagram)
        g = oracle.oracle_cup_function(prod, 2)
        for j, s in enumerate(prod.critical_values):
            for t in prod.critical_values[: j + 1]:
                q = Interval.closed(t, s)
                assert evaluate(f, q) == evaluate(g, q)


def _assert_pipeline_adds_factor_functions(a, b, k):
    """The pipeline's function of a x b is the pointwise sum of the factors' oracle functions."""
    prod = truncate(simplicial_product(a, b), k + 1)
    diagram, _, _ = compute_cup_diagram(prod, k)
    f = reconstruct(diagram)
    summed = pointwise_sum(oracle.oracle_cup_function(a, k), oracle.oracle_cup_function(b, k))
    values = set()
    for j, s in enumerate(prod.critical_values):
        for t in prod.critical_values[: j + 1]:
            q = Interval.closed(t, s)
            assert evaluate(f, q) == evaluate(summed, q), q
            values.add(evaluate(f, q))
    return values


def test_staged_circle_times_disks_adds_cup_functions():
    # the circle enters at 0, 1 or 2 and the disks' circles live on [0, 2)
    # and [1, 3), so the product's function steps between 1 and 2
    rng = random.Random(19)
    seen = set()
    for _ in range(4):
        a = regrade(rng, spaces.hollow_triangle(), grid=(0.0, 1.0, 2.0))
        seen |= _assert_pipeline_adds_factor_functions(a, spaces.two_disks(), 2)
    assert {1, 2} <= seen


def test_staged_circle_times_projective_plane_adds_cup_functions():
    rng = random.Random(23)
    seen = set()
    for _ in range(2):
        a = regrade(rng, spaces.hollow_triangle(), grid=(0.0, 1.0))
        b = regrade(rng, spaces.projective_plane(), grid=(0.0, 1.0))
        seen |= _assert_pipeline_adds_factor_functions(a, b, 3)
    assert 3 in seen
