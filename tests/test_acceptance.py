"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated elsewhere.
"""

import math
import os
import random
import time

from cuplength import cli, oracle, spaces
from cuplength.cohomology import (
    AnnotatedBarcode,
    Bar,
    Cochain,
    compute_barcode,
)
from cuplength.cup import CupDiagram, compute_cup_diagram, cup_diagram
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
from cuplength.oracle import validate_family
from cuplength.simplicial import (
    build_vietoris_rips,
    diameter,
    distances_from_points,
    truncate,
)
from conftest import grid_erosion, random_cup_function, random_filtration

PI = math.pi


def _report(n: int, name: str) -> None:
    print(f"ACCEPTANCE {n} ({name}): PASS")


def fixture_complexes():
    return [
        ("hollow triangle", spaces.hollow_triangle()),
        ("filled triangle", spaces.filled_triangle()),
        ("two disks", spaces.two_disks()),
        ("square VR", build_vietoris_rips(spaces.unit_square_distances(), 3, 2.0)),
        ("projective plane", spaces.projective_plane()),
        ("torus", spaces.csaszar_torus()),
    ]


_CORPUS: list = []


def corpus():
    """Criterion 2's instances with their computed barcodes, reused by 6."""
    if not _CORPUS:
        rng = random.Random(20260809)
        for name, c in fixture_complexes():
            ct = truncate(c, 3)
            diagram, _, barcode = compute_cup_diagram(c, 2)
            _CORPUS.append((name, ct, diagram, barcode))
        for i in range(100):
            c = random_filtration(rng, max_vertices=7, max_dim=3, max_positive=25)
            ct = truncate(c, 3)
            diagram, _, barcode = compute_cup_diagram(c, 2)
            _CORPUS.append((f"random {i}", ct, diagram, barcode))
    return _CORPUS


def test_criterion_1_reconstruction_of_reference_diagram():
    start = time.time()
    diagram = CupDiagram(
        {
            Interval.closed_open(1.0, 3.0): 1,
            Interval.closed_open(2.0, 3.0): 2,
            Interval(2.0, math.inf): 2,
        }
    )
    f = reconstruct(diagram)

    def expected(t: float, s: float) -> int:
        if t >= 2.0:
            return 2
        if 1.0 <= t < 2.0 and s < 3.0:
            return 1
        return 0

    grid = [5.0 * i / 49 for i in range(50)]
    for a in grid:
        for b in grid:
            if a <= b:
                assert evaluate(f, Interval.closed(a, b)) == expected(a, b)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(1, f"reference diagram reconstruction, {elapsed:.2f}s")


def test_criterion_2_end_to_end_oracle_equivalence():
    start = time.time()
    checked = 0
    for name, ct, diagram, _ in corpus():
        f = reconstruct(diagram)
        g = oracle.oracle_cup_function(ct, 2)
        cvs = ct.critical_values
        for j, s in enumerate(cvs):
            for t in cvs[: j + 1]:
                q = Interval.closed(t, s)
                assert evaluate(f, q) == evaluate(g, q), (name, t, s)
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(2, f"oracle equivalence on {len(corpus())} instances / {checked} grid intervals, {elapsed:.1f}s")


def test_criterion_3_klein_fixture_exact():
    c = cli.load_filtered_complex(
        os.path.join(os.path.dirname(__file__), "..", "fixtures", "klein_staged.txt")
    )
    barcode = compute_barcode(c, 2)
    assert [(b.dim, b.birth, b.death) for b in barcode.bars] == [
        (1, 1.0, 3.0),
        (1, 2.0, math.inf),
        (2, 2.0, math.inf),
    ]
    diagram, _, _ = compute_cup_diagram(c, 2)
    assert diagram.points == {
        Interval.closed_open(1.0, 3.0): 1,
        Interval.closed_open(2.0, 3.0): 2,
        Interval(2.0, math.inf): 2,
    }
    assert validate_family(barcode).ok
    betti = {
        t: tuple(oracle.cohomology_basis(c, t, 2).dim(p) for p in (0, 1, 2))
        for t in c.critical_values
    }
    assert betti == {0.0: (1, 0, 0), 1.0: (1, 1, 0), 2.0: (1, 2, 1), 3.0: (1, 1, 1)}
    _report(3, "Klein bottle fixture barcode and diagram")


def test_criterion_4_erosion_reference_value():
    start = time.time()
    d = erosion_distance(analytic_vr_torus(8), analytic_vr_wedge_lower())
    assert abs(d - PI / 3) <= 1e-9
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(4, f"erosion distance pi/3, {elapsed:.2f}s")


def test_criterion_5_erosion_metric_properties():
    start = time.time()
    rng = random.Random(5050)
    pairs = 0
    for _ in range(100):
        f, g = random_cup_function(rng), random_cup_function(rng)
        exact = erosion_distance(f, g)
        assert exact == erosion_distance(g, f)
        approx = grid_erosion(f, g, step=0.5)
        if math.isinf(exact) or math.isinf(approx):
            assert math.isinf(exact) == math.isinf(approx)
        else:
            assert abs(exact - approx) <= 0.5 + 1e-9
        pairs += 1
    triples = 0
    for _ in range(100):
        f, g, h = (random_cup_function(rng) for _ in range(3))
        dfg, dgh, dfh = (
            erosion_distance(f, g),
            erosion_distance(g, h),
            erosion_distance(f, h),
        )
        assert dfh <= dfg + dgh + 1e-12
        assert dfg == erosion_distance(g, f)
        triples += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(5, f"{pairs} pairs vs grid oracle and {triples} triples, {elapsed:.1f}s")


def test_criterion_6_family_validation_and_mutations():
    for name, ct, _, barcode in corpus():
        assert validate_family(barcode).ok, name
    mutated = 0
    for name, ct, _, barcode in corpus():
        if len(barcode.bars) >= 1:
            bars = list(barcode.bars)
            bars[0] = Bar(
                bars[0].dim, bars[0].birth, bars[0].death, Cochain.zero(bars[0].dim)
            )
            assert not validate_family(
                AnnotatedBarcode(bars, barcode.dim_bound, barcode.reduction)
            ).ok
            mutated += 1
        twins = [
            (i, j)
            for i, x in enumerate(barcode.bars)
            for j, y in enumerate(barcode.bars)
            if i < j and x.dim == y.dim
            and x.contains(max(x.birth, y.birth)) and y.contains(max(x.birth, y.birth))
        ]
        if twins:
            i, j = twins[0]
            bars = list(barcode.bars)
            bars[j] = Bar(bars[j].dim, bars[j].birth, bars[j].death, bars[i].representative)
            assert not validate_family(
                AnnotatedBarcode(bars, barcode.dim_bound, barcode.reduction)
            ).ok
            mutated += 1
    assert mutated >= 20
    _report(6, f"family property on corpus, {mutated} mutations rejected")


def test_criterion_7_monotonicity_of_produced_functions():
    functions: list[CupFunction] = [
        analytic_vr_circle(4),
        analytic_vr_torus(4),
        analytic_vr_wedge_lower(),
        pointwise_sum(analytic_vr_circle(3), analytic_vr_circle(3)),
        pointwise_max(analytic_vr_circle(3), analytic_vr_wedge_lower()),
    ]
    for _, c in fixture_complexes():
        d, _, _ = compute_cup_diagram(c, 2)
        functions.append(reconstruct(d))
        functions.append(oracle.oracle_cup_function(truncate(c, 3), 2))
    rng = random.Random(77)
    functions.extend(random_cup_function(rng) for _ in range(20))
    for f in functions:
        ends = sorted(
            {
                x
                for gen, _ in f.generators
                for x in (gen.left, gen.right)
                if not math.isinf(x)
            }
            | {0.0}
        )
        pts = sorted({x + d for x in ends for d in (-0.25, 0.0, 0.25)})
        queries = [Interval.closed(a, b) for a in pts for b in pts if a <= b]
        values = {q: evaluate(f, q) for q in queries}
        for small in queries:
            for big in queries:
                if big.contains(small):
                    assert values[small] >= values[big]
    _report(7, f"monotone evaluation over {len(functions)} functions")


def test_criterion_8_performance_smoke():
    rng = random.Random(30303)
    pts = [(rng.random(), rng.random()) for _ in range(30)]
    dmat = distances_from_points(pts)
    start = time.time()
    c = build_vietoris_rips(dmat, 3, diameter(dmat))
    diagram, stats, barcode = compute_cup_diagram(c, 2)
    elapsed = time.time() - start
    assert elapsed < 60.0
    assert stats.q_1 <= stats.m_k
    assert stats.q_1 == len(barcode.bars) == stats.q_ell[1]
    assert all(v >= 0 for v in stats.q_ell.values())
    assert set(diagram.points.values()) <= {1, 2}
    _report(
        8,
        f"30-point VR ({stats.m_k} positive simplices, q1={stats.q_1}) in {elapsed:.1f}s",
    )


def test_criterion_9_determinism_serial_vs_parallel():
    # the product loop runs once over the sorted bars and once over the
    # bars reversed in place; both orders must give the same bytes
    for name, c in fixture_complexes() + [("klein", spaces.staged_klein())]:
        barcode = compute_barcode(c, 2)
        forward, s1 = cup_diagram(barcode)
        barcode.bars.reverse()
        backward, s2 = cup_diagram(barcode)
        assert cli.diagram_to_json(forward) == cli.diagram_to_json(backward), name
        assert s1.product_count == s2.product_count, name
        assert s1.coboundary_test_count == s2.coboundary_test_count, name
    _report(9, "byte-identical diagrams for sorted and reversed bar order")
