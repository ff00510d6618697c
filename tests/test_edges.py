"""Degenerate inputs and the k = 1 path."""

import math
import os
import subprocess
import sys

from cuplength import oracle, spaces
from cuplength.cohomology import compute_barcode, connected_component_bars
from cuplength.cup import compute_cup_diagram
from cuplength.functions import Interval, evaluate, reconstruct
from cuplength.oracle import validate_family
from cuplength.simplicial import from_simplex_list, truncate


def test_single_vertex_complex():
    c = from_simplex_list([([0], 0.0)])
    b = compute_barcode(c, 1)
    assert b.bars == []
    assert validate_family(b).ok
    diagram, stats, _ = compute_cup_diagram(c, 2)
    assert diagram.points == {} and stats.m_k == 0 and stats.q_1 == 0
    assert [bar.birth for bar in connected_component_bars(b)] == [0.0]
    f = oracle.oracle_cup_function(c, 2)
    assert f.generators == ()


def test_disconnected_vertices_only():
    c = from_simplex_list([([0], 0.0), ([1], 1.0), ([2], 2.0)])
    b = compute_barcode(c, 2)
    assert b.bars == []
    zero = connected_component_bars(b)
    assert [(bar.birth, bar.death) for bar in zero] == [
        (0.0, math.inf),
        (1.0, math.inf),
        (2.0, math.inf),
    ]


def test_k_equals_one_reports_bars_only():
    for c in (spaces.csaszar_torus(), spaces.projective_plane()):
        ct = truncate(c, 2)
        diagram, stats, barcode = compute_cup_diagram(c, 1)
        assert set(diagram.points.values()) == {1}
        assert stats.q_ell == {1: len(barcode.bars)}
        f = reconstruct(diagram)
        g = oracle.oracle_cup_function(ct, 1)
        for t in ct.critical_values:
            q = Interval.closed(t, t)
            assert evaluate(f, q) == evaluate(g, q) == 1


def test_cli_accepts_distance_csv_directly(tmp_path):
    fixtures = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "cuplength.cli",
            "cup-diagram",
            os.path.join(fixtures, "unit_square.csv"),
            "--max-dim",
            "1",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert '"birth":1' in proc.stdout and '"value":1' in proc.stdout


def test_k_above_complex_dimension():
    # products past the complex dimension vanish at cochain level, so a
    # generous k changes nothing on a surface
    c = spaces.projective_plane()
    diagram, _, _ = compute_cup_diagram(c, 4)
    assert diagram.points == {Interval(0.0, math.inf): 2}
    assert oracle.image_cup_length(c, 0.0, 0.0, 4) == 2
    f = reconstruct(diagram)
    g = oracle.oracle_cup_function(c, 4)
    q = Interval.closed(0.0, 0.0)
    assert evaluate(f, q) == evaluate(g, q) == 2


def test_constant_filtration_single_stage():
    c = spaces.projective_plane()
    assert c.critical_values == [0.0]
    diagram, _, _ = compute_cup_diagram(c, 2)
    assert diagram.points == {Interval(0.0, math.inf): 2}
