"""The paper's invariants of the persistent cup-length function.

Each property compares two functions on every closed interval of a
critical grid: the function of a disjoint union against the pointwise
max of the parts, and the function of a relabeled or monotonically
regraded complex against the original.
"""

import random

from cuplength import spaces
from cuplength.cup import compute_cup_diagram
from cuplength.functions import Interval, evaluate, pointwise_max, reconstruct
from cuplength.simplicial import from_simplex_list
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
        relabeled = from_simplex_list([([perm[x] for x in v], g) for v, g in zip(c.simplices, c.grades)])
        grid = c.critical_values
        want = _values(_function(c), grid)
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
