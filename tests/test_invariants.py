"""The paper's invariants of the persistent cup-length function.

Each property compares two functions on every closed interval of a
critical grid: the function of a disjoint union against the pointwise
max of the parts, and the function of a relabeled or monotonically
regraded complex against the original.  Stability compares two functions
by erosion distance instead, for perturbed distance matrices and for
perturbed grades of an explicit filtration.
"""

import math
import random

from cuplength import spaces
from cuplength.cup import compute_cup_diagram
from cuplength.functions import Interval, erosion_distance, evaluate, pointwise_max, reconstruct
from cuplength.simplicial import build_vietoris_rips, distances_from_points, faces, from_simplex_list
from conftest import random_filtration, regrade

SURFACES = (spaces.csaszar_torus, spaces.staged_klein, spaces.projective_plane)


def _function(c):
    return reconstruct(compute_cup_diagram(c, 2)[0])


def _random_complex(rng, i):
    return random_filtration(rng, max_vertices=6) if i % 2 else regrade(rng, SURFACES[i % 3]())


def _grid_intervals(grid):
    return [(t, s) for j, s in enumerate(grid) for t in grid[: j + 1]]


def _values(f, grid):
    return [evaluate(f, Interval.closed(t, s)) for t, s in _grid_intervals(grid)]


def test_disjoint_union_takes_the_pointwise_max():
    rng = random.Random(61)
    top = 0
    for i in range(20):
        a, b = _random_complex(rng, i), _random_complex(rng, i + 1)
        union = spaces.disjoint_union(a, b)
        grid = union.critical_values
        got = _values(_function(union), grid)
        assert got == _values(pointwise_max(_function(a), _function(b)), grid)
        top = max(top, *got)
    assert top == 2


def test_vertex_relabeling_leaves_the_function_unchanged():
    rng = random.Random(62)
    top = 0
    for i in range(20):
        c = _random_complex(rng, i)
        n = 1 + max(v[-1] for v in c.simplices)
        perm = list(range(n))
        rng.shuffle(perm)
        # and onto sparse ids, most of them far past 2**31
        sparse = rng.sample(range(2**62), n)
        grid = c.critical_values
        want = _values(_function(c), grid)
        for ids in (perm, sparse):
            relabeled = from_simplex_list([([ids[x] for x in v], g) for v, g in zip(c.simplices, c.grades)])
            assert _values(_function(relabeled), grid) == want
        top = max(top, *want)
    assert top == 2


def test_monotone_regrading_reparametrizes_the_function():
    rng = random.Random(63)
    top = 0
    for i in range(20):
        c = _random_complex(rng, i)
        grid = c.critical_values
        images = sorted(rng.sample(range(1, 100), len(grid)))
        phi = {t: images[j] / 8.0 for j, t in enumerate(grid)}
        moved = from_simplex_list([(list(v), phi[g]) for v, g in zip(c.simplices, c.grades)])
        f, g = _function(c), _function(moved)
        for t, s in _grid_intervals(grid):
            value = evaluate(f, Interval.closed(t, s))
            assert evaluate(g, Interval.closed(phi[t], phi[s])) == value
            top = max(top, value)
    assert top == 2


def _vr_function(D):
    return _function(build_vietoris_rips(D, 3, math.inf))


def test_erosion_distance_is_stable_under_perturbed_distances():
    # the paper's stability theorem on a common vertex set, under the
    # diam <= r convention: erosion(f(VR(D)), f(VR(D'))) <= |D - D'|_inf
    rng = random.Random(64)
    nonzero = 0
    for i in range(30):
        n = rng.randint(6, 10)
        D = distances_from_points([[rng.random() for _ in range(3)] for _ in range(n)])
        delta = (0.01, 0.05, 0.1, 0.2)[i % 4]
        E = [row[:] for row in D]
        for a in range(n):
            for b in range(a):
                E[a][b] = E[b][a] = max(0.0, D[a][b] + rng.uniform(-delta, delta))
        bound = max(abs(x - y) for row, other in zip(D, E) for x, y in zip(row, other))
        distance = erosion_distance(_vr_function(D), _vr_function(E))
        assert distance <= bound
        nonzero += distance > 0
    assert nonzero > 10


def _perturbed(rng, c, delta):
    """Each grade moved by at most delta, then raised to the largest grade
    of its faces.  A face's moved grade is at most its own grade plus
    delta, which is at most the simplex's grade plus delta, so no grade
    moves by more than delta."""
    moved = {}
    for v, g in sorted(zip(c.simplices, c.grades), key=lambda e: len(e[0])):
        g += rng.uniform(-delta, delta)
        moved[v] = max([g] + [moved[f] for f in faces(v)]) if len(v) > 1 else g
    return from_simplex_list([(list(v), g) for v, g in moved.items()])


def test_erosion_distance_is_stable_under_perturbed_grades():
    # the same theorem for explicit filtrations of one complex:
    # erosion(f(K, g), f(K, g')) <= |g - g'|_inf
    rng = random.Random(65)
    nonzero = 0
    for i in range(30):
        c = _random_complex(rng, i)
        delta = (0.05, 0.2, 0.5, 1.0)[i % 4]
        moved = _perturbed(rng, c, delta)
        bound = max(abs(moved.grade_of(v) - g) for v, g in zip(c.simplices, c.grades))
        assert bound <= delta
        distance = erosion_distance(_function(c), _function(moved))
        assert distance <= bound
        nonzero += distance > 0
    assert nonzero > 20
