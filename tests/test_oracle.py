import ast
import math
import os
import random
from itertools import combinations_with_replacement

import pytest

from cuplength import cli, oracle, spaces
from cuplength.cohomology import Cochain
from cuplength.cup import compute_cup_diagram
from cuplength.errors import NotCriticalValue
from cuplength.functions import CupFunction, Interval, evaluate, reconstruct
from cuplength.oracle import cohomology_basis, image_cup_length, oracle_cup_function
from cuplength.simplicial import (
    build_vietoris_rips,
    diameter,
    distances_from_points,
    faces,
    from_simplex_list,
    truncate,
)
from conftest import cochain_coboundary, random_filtration, regrade, simplicial_product, sup_torus_distances

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def test_basis_hollow_triangle():
    basis = cohomology_basis(spaces.hollow_triangle(), 0.0, 2)
    assert basis.dim(0) == 1 and basis.dim(1) == 1 and basis.dim(2) == 0


def test_basis_filled_triangle():
    basis = cohomology_basis(spaces.filled_triangle(), 0.0, 2)
    assert basis.dim(0) == 1 and basis.dim(1) == 0


def test_basis_projective_plane():
    basis = cohomology_basis(spaces.projective_plane(), 0.0, 2)
    assert basis.dim(0) == 1 and basis.dim(1) == 1 and basis.dim(2) == 1


def test_basis_torus_and_klein_stages():
    basis = cohomology_basis(spaces.csaszar_torus(), 0.0, 2)
    assert (basis.dim(0), basis.dim(1), basis.dim(2)) == (1, 2, 1)
    kl = spaces.staged_klein()
    dims = {
        t: tuple(cohomology_basis(kl, t, 2).dim(p) for p in (0, 1, 2))
        for t in kl.critical_values
    }
    assert dims == {
        0.0: (1, 0, 0),
        1.0: (1, 1, 0),
        2.0: (1, 2, 1),
        3.0: (1, 1, 1),
    }


def test_basis_elements_are_cocycles():
    rng = random.Random(2)
    for _ in range(15):
        c = random_filtration(rng)
        t = rng.choice(c.critical_values)
        basis = cohomology_basis(c, t, 2)
        for p, reps in basis.basis.items():
            for sigma in reps:
                assert cochain_coboundary(c, sigma, t).is_zero()


def test_image_cup_length_projective_plane():
    assert image_cup_length(spaces.projective_plane(), 0.0, 0.0, 2) == 2


def test_image_cup_length_contractible():
    # a growing cone over vertex 0: every stage is star-shaped, so the
    # image ring is trivial in positive dimensions for every window
    cone = spaces.close_under_faces({(0, 1, 2): 0.0, (0, 2, 3): 1.0, (0, 1, 4): 2.0})
    c = from_simplex_list([(list(v), g) for v, g in cone.items()])
    for s in c.critical_values:
        for t in c.critical_values:
            if t <= s:
                assert image_cup_length(c, t, s, 2) == 0
    assert image_cup_length(spaces.filled_triangle(), 0.0, 0.0, 2) == 0


def test_image_cup_length_two_disks():
    c = spaces.two_disks()
    assert image_cup_length(c, 1.0, 1.0, 2) == 1
    assert image_cup_length(c, 0.0, 2.0, 2) == 0
    assert image_cup_length(c, 1.0, 2.0, 2) == 1


def test_image_cup_length_validates_inputs():
    c = spaces.two_disks()
    with pytest.raises(NotCriticalValue):
        image_cup_length(c, 0.5, 1.0, 2)
    with pytest.raises(ValueError):
        image_cup_length(c, 2.0, 1.0, 2)


def test_image_cup_length_monotone_in_window():
    rng = random.Random(9)
    for _ in range(12):
        c = truncate(random_filtration(rng, max_vertices=6), 3)
        cvs = c.critical_values
        values = {
            (t, s): image_cup_length(c, t, s, 2)
            for j, s in enumerate(cvs)
            for t in cvs[: j + 1]
        }
        for (t, s), v in values.items():
            for (t2, s2), v2 in values.items():
                if t2 <= t and s2 >= s:
                    assert v2 <= v


def test_oracle_cup_function_hollow_triangle():
    f = oracle_cup_function(spaces.hollow_triangle(), 2)
    assert evaluate(f, Interval.closed(0.0, 0.0)) == 1
    assert evaluate(f, Interval.closed(0.0, 17.0)) == 1


def test_oracle_cup_function_two_disks_region():
    f = oracle_cup_function(spaces.two_disks(), 2)
    grid = [0.0, 1.0, 2.0, 3.0]
    expected = {
        (t, s): image_cup_length(spaces.two_disks(), t, s, 2)
        for j, s in enumerate(grid)
        for t in grid[: j + 1]
    }
    for (t, s), v in expected.items():
        assert evaluate(f, Interval.closed(t, s)) == v
    # the two bar triangles carry value 1, the rest is 0
    assert evaluate(f, Interval.closed(0.0, 1.0)) == 1
    assert evaluate(f, Interval.closed(2.0, 2.0)) == 1
    assert evaluate(f, Interval.closed(0.0, 2.0)) == 0
    assert evaluate(f, Interval.closed(3.0, 3.0)) == 0


def test_oracle_cup_function_torus_constant_two():
    f = oracle_cup_function(spaces.csaszar_torus(), 2)
    assert evaluate(f, Interval.closed(0.0, 0.0)) == 2
    assert evaluate(f, Interval.closed(0.0, 99.0)) == 2


def test_tuple_search_stops_at_the_complex_dimension(monkeypatch):
    # more positive-degree factors than dim c always multiply to zero
    lengths = []

    def recording(pool, ell):
        lengths.append(ell)
        return combinations_with_replacement(pool, ell)

    c = cli.load_filtered_complex(os.path.join(FIXTURES, "torus_7.txt"))
    monkeypatch.setattr(oracle, "combinations_with_replacement", recording)
    assert oracle_cup_function(c, 60) == oracle_cup_function(c, 2)
    assert lengths and max(lengths) <= c.dim


def test_each_stage_lists_its_generators_once(monkeypatch):
    calls = {}
    gens = oracle._Stage.gens

    def counting(stage, p):
        calls[id(stage), p] = calls.get((id(stage), p), 0) + 1
        return gens(stage, p)

    monkeypatch.setattr(oracle._Stage, "gens", counting)
    oracle_cup_function(spaces.staged_klein(), 2)
    assert calls and max(calls.values()) == 1


def test_oracle_cup_function_matches_image_on_grid():
    rng = random.Random(4)
    for _ in range(10):
        c = truncate(random_filtration(rng, max_vertices=6), 3)
        f = oracle_cup_function(c, 2)
        cvs = c.critical_values
        for j, s in enumerate(cvs):
            for t in cvs[: j + 1]:
                assert evaluate(f, Interval.closed(t, s)) == image_cup_length(c, t, s, 2)


def test_diagonal_values_equal_stage_cup_length():
    # at t = s the image ring is the stage cohomology ring itself
    for c in (spaces.projective_plane(), spaces.csaszar_torus(), spaces.staged_klein()):
        f = oracle_cup_function(c, 2)
        for t in c.critical_values:
            assert evaluate(f, Interval.closed(t, t)) == image_cup_length(c, t, t, 2)


def test_disjoint_union_takes_max_of_parts():
    pairs = [
        (spaces.projective_plane(), spaces.hollow_triangle()),
        (spaces.csaszar_torus(), spaces.projective_plane()),
        (spaces.hollow_triangle(), spaces.filled_triangle()),
    ]
    for a, b in pairs:
        u = spaces.disjoint_union(a, b)
        for t in u.critical_values:
            va = image_cup_length(a, t, t, 2) if t in a.critical_values else None
            vb = image_cup_length(b, t, t, 2) if t in b.critical_values else None
            parts = [v for v in (va, vb) if v is not None]
            assert image_cup_length(u, t, t, 2) == max(parts)


# ------------------------------------------------- reference implementation


class _ReferenceStage:
    """The oracle's stage before the shared skeleton: its own simplex set
    and tuple-keyed indices, with every coboundary map rebuilt on use."""

    def __init__(self, c, t):
        self.alive = set()
        self.by_dim = {}
        for verts, grade in zip(c.simplices, c.grades):
            if grade > t:
                break
            self.alive.add(verts)
            self.by_dim.setdefault(len(verts) - 1, []).append(verts)
        self.index = {
            p: {v: i for i, v in enumerate(sorted(vs))} for p, vs in self.by_dim.items()
        }

    def mask(self, sigma):
        idx = self.index.get(sigma.p, {})
        m = 0
        for v in sigma.summands:
            m |= 1 << idx[v]
        return m

    def coboundary_map(self, p):
        src = self.index.get(p, {})
        out = [0] * len(src)
        for verts, bit in self.index.get(p + 1, {}).items():
            for f in faces(verts):
                j = src.get(f)
                if j is not None:
                    out[j] |= 1 << bit
        return out

    def exact_span(self, p):
        ech = oracle._Echelon()
        if p >= 1:
            for image in self.coboundary_map(p - 1):
                ech.insert(image)
        return ech

    def product(self, sigma1, sigma2):
        out = set()
        for a in sigma1.summands:
            for b in sigma2.summands:
                if a[-1] == b[0]:
                    cand = a + b[1:]
                    if cand in self.alive:
                        out ^= {cand}
        return Cochain(sigma1.p + sigma2.p, frozenset(out))


def _reference_kernel_basis(images):
    stored = {}
    kernel = []
    for j, v in enumerate(images):
        combo = 1 << j
        while v:
            hit = stored.get(v.bit_length() - 1)
            if hit is None:
                break
            v ^= hit[0]
            combo ^= hit[1]
        if v:
            stored[v.bit_length() - 1] = (v, combo)
        else:
            kernel.append(combo)
    return kernel


def _reference_cohomology_basis(c, t, k):
    """Each degree's basis from a fresh stage, its kernel and exact span
    eliminated separately."""
    stage = _ReferenceStage(c, t)
    basis = {}
    for p in range(k + 1):
        gens = sorted(stage.by_dim.get(p, []))
        if not gens:
            basis[p] = []
            continue
        kernel = _reference_kernel_basis(stage.coboundary_map(p))
        exact = stage.exact_span(p)
        basis[p] = [
            Cochain(p, frozenset(gens[i] for i in oracle._bits(combo)))
            for combo in kernel
            if exact.insert(combo)
        ]
    return oracle.CohomBasis(t, basis)


def _reference_length_at_stage(stage, restricted, k, spans):
    def nonzero_class(sigma):
        if sigma.is_zero():
            return False
        if sigma.p not in spans:
            spans[sigma.p] = stage.exact_span(sigma.p)
        return not spans[sigma.p].contains(stage.mask(sigma))

    usable = [s for s in restricted if nonzero_class(s)]
    if not usable:
        return 0
    for ell in range(k, 1, -1):
        for tup in combinations_with_replacement(usable, ell):
            if sum(s.p for s in tup) > k:
                continue
            prod = tup[0]
            for extra in tup[1:]:
                prod = stage.product(prod, extra)
                if prod.is_zero():
                    break
            else:
                if nonzero_class(prod):
                    return ell
    return 1


def _reference_oracle_cup_function(c, k):
    """The cup-length function with a second stage per critical value
    built for each basis, as computed before the shared skeleton."""
    cvs = c.critical_values
    stages = {t: _ReferenceStage(c, t) for t in cvs}
    spans = {t: {} for t in cvs}
    gens = []
    for sj, s in enumerate(cvs):
        src = _reference_cohomology_basis(c, s, k)
        reps = [sigma for p in range(1, k + 1) for sigma in src.basis.get(p, [])]
        for t in cvs[: sj + 1]:
            restricted = [sigma.restrict(c, t) for sigma in reps]
            value = _reference_length_at_stage(stages[t], restricted, k, spans[t])
            if value > 0:
                right = math.inf if sj == len(cvs) - 1 else s
                gens.append((Interval.closed(t, right), value))
    kept = [
        (gen, v)
        for gen, v in gens
        if not any(
            (og, ov) != (gen, v) and og.left <= gen.left and og.right >= gen.right and ov >= v
            for og, ov in gens
        )
    ]
    return CupFunction.from_pairs(kept)


def _equivalence_corpus():
    """(name, complex, k): the fixtures, random filtrations at k = 2 and 3,
    and a 12-point Vietoris-Rips cloud."""
    out = []
    for name in sorted(os.listdir(FIXTURES)):
        path = os.path.join(FIXTURES, name)
        if name.endswith(".csv"):
            d = cli.load_distance_csv(path)
            c = build_vietoris_rips(d, 3, diameter(d))
        else:
            c = cli.load_filtered_complex(path)
        out.append((name, truncate(c, 3), 2))
    rng = random.Random(20261018)
    for i in range(20):
        k = 2 + i % 2
        out.append((f"random {i}", truncate(random_filtration(rng), k + 1), k))
    points = [(rng.random(), rng.random()) for _ in range(12)]
    d = distances_from_points(points)
    out.append(("12-point cloud", build_vietoris_rips(d, 3, diameter(d)), 2))
    return out


def test_oracle_matches_reference_implementation(monkeypatch):
    """Same basis representatives, in the same order, at every critical
    value, standalone and inside oracle_cup_function; equal functions;
    one skeleton and one stage per critical value."""
    built = {"skeleton": 0, "stage": 0}

    class CountedSkeleton(oracle._Skeleton):
        def __init__(self, *args):
            built["skeleton"] += 1
            super().__init__(*args)

    class CountedStage(oracle._Stage):
        def __init__(self, *args):
            built["stage"] += 1
            super().__init__(*args)

    seen = []

    def recording_basis(c, t, k, **kwargs):
        basis = real_basis(c, t, k, **kwargs)
        seen.append(basis)
        return basis

    real_basis = oracle.cohomology_basis
    monkeypatch.setattr(oracle, "_Skeleton", CountedSkeleton)
    monkeypatch.setattr(oracle, "_Stage", CountedStage)
    monkeypatch.setattr(oracle, "cohomology_basis", recording_basis)
    for name, c, k in _equivalence_corpus():
        cvs = c.critical_values
        reference = [_reference_cohomology_basis(c, t, k) for t in cvs]
        for t, ref in zip(cvs, reference):
            assert real_basis(c, t, k) == ref, (name, t)
        seen.clear()
        built.update(skeleton=0, stage=0)
        f = oracle.oracle_cup_function(c, k)
        assert seen == reference, name
        assert built == {"skeleton": 1, "stage": len(cvs)}, name
        assert f == _reference_oracle_cup_function(c, k), name


def test_stage_coboundary_maps_match_reference():
    """Each stage's coboundary map, read back through the skeleton's bits,
    gives the reference's cofacet sets row for row, in the top degree and
    at stages with no simplex one degree up."""
    seen = set()
    for name, c, k in _equivalence_corpus():
        skeleton = oracle._Skeleton(c, len(c), k + 1)
        for t in c.critical_values:
            stage = oracle._Stage(skeleton, t)
            reference = _ReferenceStage(c, t)
            for p in range(k + 1):
                up = skeleton.canon[p + 1]
                rows = [{c.simplices[up[b]] for b in oracle._bits(m)} for m in stage.coboundary_map(p)]
                cofaces = sorted(reference.by_dim.get(p + 1, []))
                expected = [{cofaces[b] for b in oracle._bits(m)} for m in reference.coboundary_map(p)]
                assert rows == expected, (name, t, p)
                if p == k and any(rows):
                    seen.add("top degree")
                if rows and not cofaces:
                    seen.add("no simplex one degree up")
    assert seen == {"top degree", "no simplex one degree up"}


def test_prefix_ranks_match_each_stage_elimination():
    """The skeleton's prefix rank of each degree-p boundary map, read at a
    stage, equals the rank of that stage's coboundary map eliminated from
    scratch, in the top degree and at stages with no simplex one degree
    up."""
    seen = set()
    for name, c, k in _equivalence_corpus():
        skeleton = oracle._Skeleton(c, len(c), k + 1)
        for t in c.critical_values:
            stage = oracle._Stage(skeleton, t)
            for p in range(k + 1):
                echelon = oracle._Echelon()
                echelon.extend(stage.coboundary_map(p))
                assert skeleton.ranks[p][stage.size[p + 1]] == len(echelon.rows), (name, t, p)
                if p == k and echelon.rows:
                    seen.add("top degree")
                if stage.size[p] and not stage.size[p + 1]:
                    seen.add("no simplex one degree up")
    assert seen == {"top degree", "no simplex one degree up"}


def test_top_degree_map_is_built_only_where_cohomology_lives(monkeypatch):
    """cohomology_basis builds a stage's degree-k coboundary map only where
    H^k is non-zero: on the torus at its one stage, and on a Vietoris-Rips
    cloud at no stage whose k-simplices carry no class."""
    corpus = {name: (c, k) for name, c, k in _equivalence_corpus()}
    degrees = []
    real = oracle._Stage.coboundary_map

    def recording(stage, p, gens=None):
        degrees.append(p)
        return real(stage, p, gens)

    monkeypatch.setattr(oracle._Stage, "coboundary_map", recording)
    seen = set()
    for name in ("torus_7.txt", "12-point cloud"):
        c, k = corpus[name]
        skeleton = oracle._Skeleton(c, len(c), k + 1)
        for t in c.critical_values:
            degrees.clear()
            stage = oracle._Stage(skeleton, t)
            basis = oracle.cohomology_basis(c, t, k, _stage=stage)
            assert (k in degrees) == (basis.dim(k) > 0), (name, t)
            if basis.dim(k):
                seen.add(f"{name}: built where H^k lives")
            elif stage.size[k]:
                seen.add(f"{name}: skipped where H^k = 0")
    assert {"torus_7.txt: built where H^k lives", "12-point cloud: skipped where H^k = 0"} <= seen


def test_kernel_basis_ignores_row_numbering():
    """Renumbering the rows of every image leaves the kernel list as it
    is: each kernel mask is fixed by the order of the generators alone."""
    rng = random.Random(20261018)
    with_kernel = 0
    for _ in range(300):
        width, count = rng.randint(1, 12), rng.randint(1, 12)
        # images in a small random span, so that many columns are dependent
        span = [rng.getrandbits(width) for _ in range(rng.randint(1, width))]
        images = []
        for _ in range(count):
            v = 0
            for w in rng.sample(span, rng.randint(0, len(span))):
                v ^= w
            images.append(v)
        perm = rng.sample(range(width), width)
        renumbered = [sum(1 << perm[r] for r in oracle._bits(v)) for v in images]
        columns = rng.sample(range(2 * count), count)
        kernel = oracle._kernel_basis(images, columns)
        assert oracle._kernel_basis(renumbered, columns) == kernel
        with_kernel += bool(kernel)
    assert with_kernel > 100


def _brute_force_undominated(values):
    """Positive cells of ``values[sj][ti]`` that no other cell (ti' <= ti,
    sj' >= sj) matches or exceeds, by comparing every pair of cells."""
    cells = {(ti, sj): v for sj, column in enumerate(values) for ti, v in enumerate(column)}
    return {
        (ti, sj)
        for (ti, sj), v in cells.items()
        if v > 0
        and not any(
            (oi, oj) != (ti, sj) and oi <= ti and oj >= sj and ov >= v
            for (oi, oj), ov in cells.items()
        )
    }


def test_dominance_sweep_matches_brute_force():
    """The one-sweep pruning keeps exactly the cells that the pairwise rule
    keeps, on seeded random value triangles: non-monotone ones, ties and a
    single critical value among them."""
    rng = random.Random(20261019)
    seen = set()
    for trial in range(400):
        grid = 1 if trial % 20 == 0 else rng.randint(2, 9)
        top = rng.randint(1, 4)
        values = [bytearray(rng.randint(0, top) for _ in range(sj + 1)) for sj in range(grid)]
        kept = oracle._undominated(values)
        assert len(kept) == len(set(kept))
        assert set(kept) == _brute_force_undominated(values), values
        for sj, column in enumerate(values):
            for ti, v in enumerate(column):
                for oj in range(sj, grid):
                    for oi in range(ti + 1):
                        ov = values[oj][oi]
                        if (oi, oj) != (ti, sj) and 0 < ov == v:
                            seen.add("tie")
                        if ov > v:
                            seen.add("non-monotone")
        if grid == 1 and kept:
            seen.add("single critical value")
    assert seen == {"tie", "non-monotone", "single critical value"}


@pytest.mark.parametrize("name, degrees", [("filled_triangle.txt", [0]), ("torus_7.txt", [0, 1, 2])])
def test_kernel_is_eliminated_only_where_cohomology_lives(monkeypatch, name, degrees):
    """cohomology_basis eliminates the kernel of the degree-p map only when
    H^p is non-zero: on the contractible filled triangle never above
    degree 0, on the torus in degrees 1 and 2 as well."""
    c = cli.load_filtered_complex(os.path.join(FIXTURES, name))
    k = 2
    skeleton = oracle._Skeleton(c, len(c), k + 1)
    called = []

    def recording(images, columns, image=None):
        matches = [p for p in range(k + 1) if images == stage.coboundary_map(p)]
        assert len(matches) == 1
        called.append(matches[0])
        return real(images, columns, image)

    real = oracle._kernel_basis
    monkeypatch.setattr(oracle, "_kernel_basis", recording)
    assert c.critical_values == [0.0]
    stage = oracle._Stage(skeleton, 0.0)
    basis = oracle.cohomology_basis(c, 0.0, k, _stage=stage)
    assert called == degrees == [p for p in range(k + 1) if basis.dim(p)]


def _pipeline_imports(source):
    """Dotted names that a module imports from z2, cup or cohomology,
    other than the shared Cochain container."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            paths = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        for path in paths:
            parts = path.split(".")
            if {"z2", "cup", "cohomology"} & set(parts) and parts[-2:] != ["cohomology", "Cochain"]:
                found.append(path)
    return found


def test_oracle_shares_no_code_with_the_pipeline():
    with open(oracle.__file__, encoding="utf-8") as fh:
        assert _pipeline_imports(fh.read()) == []
    # the check itself sees each way of importing pipeline code
    assert _pipeline_imports("from .cohomology import Cochain, Bar") == ["cohomology.Bar"]
    assert _pipeline_imports("from . import z2") == [".z2"]
    assert _pipeline_imports("import cuplength.cup as c") == ["cuplength.cup"]
    assert _pipeline_imports("def f():\n    from .z2 import column_reduce") == ["z2.column_reduce"]


# ------------------------------------------------------ wider oracle corpus


def _clouds():
    rng = random.Random(8910)
    out = []
    for n in (8, 9, 10) * 10:
        d = distances_from_points([(rng.random(), rng.random()) for _ in range(n)])
        out.append((build_vietoris_rips(d, 3, diameter(d)), 2))
    return out


def _staged_products():
    rng = random.Random(31)
    circle, rp2 = spaces.hollow_triangle(), spaces.projective_plane()
    out = []
    for _ in range(6):
        a = regrade(rng, circle, grid=(0.0, 1.0))
        out.append((simplicial_product(a, regrade(rng, rp2, grid=(0.0, 1.0, 2.0))), 3))
    for _ in range(4):
        torus = simplicial_product(regrade(rng, circle, grid=(0.0, 1.0)), regrade(rng, circle, grid=(0.0, 1.0)))
        out.append((simplicial_product(torus, regrade(rng, circle, grid=(0.0, 1.0, 2.0))), 3))
    for _ in range(2):
        out.append((simplicial_product(spaces.two_disks(), regrade(rng, circle, grid=(0.0, 1.0))), 3))
        out.append((simplicial_product(spaces.staged_klein(), regrade(rng, circle, grid=(0.0, 2.0))), 3))
    return out


def _unions():
    rng = random.Random(47)
    circle, rp2 = spaces.hollow_triangle(), spaces.projective_plane()
    late = simplicial_product(regrade(rng, circle, grid=(2.0, 3.0)), regrade(rng, rp2, grid=(2.0, 3.0)))
    torus = simplicial_product(regrade(rng, circle, grid=(0.0, 1.0)), regrade(rng, circle, grid=(1.0, 2.0)))
    return [
        (spaces.disjoint_union(late, spaces.staged_klein()), 3),
        (spaces.disjoint_union(regrade(rng, spaces.csaszar_torus(), grid=(0.0, 1.0)), late), 3),
        (spaces.disjoint_union(torus, regrade(rng, rp2, grid=(0.0, 2.0))), 3),
    ]


def _torus_grid():
    """The 6 x 6 grid at --max-scale 3h, h = 2 pi / 6: every pair is within
    3h, so the last stage is the full 3-skeleton on 36 vertices."""
    return [(build_vietoris_rips(sup_torus_distances(6), 3, 3 * (2 * math.pi / 6)), 2)]


# each family with the function values its grid intervals must reach
WIDER_CORPUS = {
    "vr-clouds": (_clouds, {1}),
    "staged-products": (_staged_products, {1, 2, 3}),
    "disjoint-unions": (_unions, {1, 2, 3}),
    "torus-6x6": (_torus_grid, {1, 2}),
}


@pytest.mark.parametrize("family", sorted(WIDER_CORPUS))
def test_pipeline_matches_oracle_on_wider_corpus(family):
    """Pipeline and oracle agree on every closed interval of critical
    values, beyond the criterion-2 corpus. The loop is the cell-by-cell
    reference: it evaluates both functions on each grid interval, where
    oracle-check evaluates them once per run of intervals it cannot tell
    apart."""
    build, reached = WIDER_CORPUS[family]
    values = set()
    for c, k in build():
        f = reconstruct(compute_cup_diagram(c, k)[0])
        ct = truncate(c, k + 1)
        g = oracle_cup_function(ct, k)
        cvs = ct.critical_values
        for j, s in enumerate(cvs):
            for t in cvs[: j + 1]:
                q = Interval.closed(t, s)
                value = evaluate(g, q)
                assert evaluate(f, q) == value, (family, t, s)
                values.add(value)
    assert reached <= values
