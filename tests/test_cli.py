import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cuplength import cli, functions, spaces
from cuplength.cup import CupDiagram, compute_cup_diagram
from cuplength.errors import AsymmetricMatrix, DuplicateSimplex, MissingFace
from cuplength.functions import CupFunction, Interval, evaluate, reconstruct
from conftest import sup_torus_distances

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "cuplength.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_load_distance_csv(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0,1\n1,0\n")
    assert cli.load_distance_csv(str(p)) == [[0.0, 1.0], [1.0, 0.0]]


def test_load_distance_csv_rejects_asymmetry(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0,1\n2,0\n")
    with pytest.raises(AsymmetricMatrix):
        cli.load_distance_csv(str(p))


def test_unit_square_fixture_reproduces_square_complex():
    d = cli.load_distance_csv(fixture("unit_square.csv"))
    assert d == spaces.unit_square_distances()


def test_load_filtered_complex(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("# circle\n0 0\n0 1\n0 2\n0 0 1\n0 0 2\n0 1 2\n")
    c = cli.load_filtered_complex(str(p))
    assert len(c) == 6 and c.dim == 1


def test_load_klein_fixture():
    c = cli.load_filtered_complex(fixture("klein_staged.txt"))
    assert c.critical_values == [0.0, 1.0, 2.0, 3.0]
    ref = spaces.staged_klein()
    assert c.simplices == ref.simplices and c.grades == ref.grades


def test_load_complex_sorts_vertices_and_rejects_repeats(tmp_path):
    lone = tmp_path / "lone.txt"
    lone.write_text("1 3 2\n")
    with pytest.raises(MissingFace):
        cli.load_filtered_complex(str(lone))
    ok = tmp_path / "ok.txt"
    ok.write_text("0 2\n0 3\n1 3 2\n")
    c = cli.load_filtered_complex(str(ok))
    assert (2, 3) in c
    dup = tmp_path / "dup.txt"
    dup.write_text("1 2 2\n")
    with pytest.raises(DuplicateSimplex):
        cli.load_filtered_complex(str(dup))


def test_cup_diagram_klein_json_exact():
    proc = run_cli("cup-diagram", fixture("klein_staged.txt"), "--max-dim", "2")
    assert proc.returncode == 0
    assert proc.stdout == (
        '{"points":[{"birth":1,"death":3,"inf":false,"value":1},'
        '{"birth":2,"death":3,"inf":false,"value":2},'
        '{"birth":2,"inf":true,"value":2}]}\n'
    )


def test_erosion_presets_pi_third():
    proc = run_cli("erosion", "torus:8", "wedge-lower")
    assert proc.returncode == 0
    assert abs(float(proc.stdout.strip()) - math.pi / 3) <= 1e-9


def test_erosion_function_files(tmp_path):
    d, _, _ = compute_cup_diagram(spaces.staged_klein(), 2)
    f = reconstruct(d)
    p = tmp_path / "f.json"
    p.write_text(cli.function_to_json(f))
    proc = run_cli("erosion", str(p), str(p))
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == 0.0


def test_oracle_check_exit_codes():
    proc = run_cli("oracle-check", fixture("hollow_triangle.txt"))
    assert proc.returncode == 0
    assert "OK" in proc.stdout


def test_oracle_check_reports_each_mismatch(monkeypatch, capsys):
    """An oracle that differs from the pipeline on three grid intervals of
    the staged Klein bottle (pipeline values by [t, s]: 1 on [1, 1], 1 on
    [1, 2], 2 from [2, 2] on) fails the check, naming each interval in
    order of s, then t."""
    fake = CupFunction.from_pairs([(Interval.closed(0.0, 1.0), 1), (Interval.closed(2.0, math.inf), 2)])
    monkeypatch.setattr(cli.oracle, "oracle_cup_function", lambda c, k: fake)
    assert cli.main(["oracle-check", fixture("klein_staged.txt")]) == 1
    assert capsys.readouterr().out == (
        "MISMATCH [0, 0]: pipeline 0 vs oracle 1\n"
        "MISMATCH [0, 1]: pipeline 0 vs oracle 1\n"
        "MISMATCH [1, 2]: pipeline 1 vs oracle 0\n"
        "oracle-check: FAIL (3/10 grid intervals differ)\n"
    )


def test_oracle_check_names_mismatches_by_exact_grades(tmp_path, monkeypatch, capsys):
    """A hollow triangle closed at 1.0000001, next to the grade 1, which six
    significant digits would print the same: the FAIL lines name two
    different intervals."""
    path = tmp_path / "tri.txt"
    path.write_text("0 0\n0 1\n0 2\n1 0 1\n1 0 2\n1.0000001 1 2\n")
    fake = CupFunction.from_pairs([(Interval.closed(1.0, math.inf), 1)])
    monkeypatch.setattr(cli.oracle, "oracle_cup_function", lambda c, k: fake)
    assert cli.main(["oracle-check", str(path)]) == 1
    assert capsys.readouterr().out == (
        "MISMATCH [1, 1]: pipeline 0 vs oracle 1\n"
        "MISMATCH [1, 1.0000001]: pipeline 0 vs oracle 1\n"
        "oracle-check: FAIL (2/6 grid intervals differ)\n"
    )


def test_oracle_check_reports_a_mismatch_run_cut_at_the_diagonal(tmp_path, monkeypatch, capsys):
    """A hollow triangle closed at 2, with lone vertices at 3 to 6: the
    pipeline is 1 from [2, 2] on. A faked oracle adds the value 2 on
    (2, 5], open at the grid point 2, so one run of t >= 3 differs in the
    rows s = 3, 4 and 5, each cut at t = s."""
    path = tmp_path / "tri.txt"
    path.write_text("0 0\n0 1\n0 2\n1 0 1\n1 0 2\n2 1 2\n3 3\n4 4\n5 5\n6 6\n")
    fake = CupFunction.from_pairs([(Interval.closed(2.0, math.inf), 1), (Interval(2.0, 5.0, False, True), 2)])
    monkeypatch.setattr(cli.oracle, "oracle_cup_function", lambda c, k: fake)
    assert cli.main(["oracle-check", str(path)]) == 1
    assert capsys.readouterr().out == (
        "MISMATCH [3, 3]: pipeline 1 vs oracle 2\n"
        "MISMATCH [3, 4]: pipeline 1 vs oracle 2\n"
        "MISMATCH [4, 4]: pipeline 1 vs oracle 2\n"
        "MISMATCH [3, 5]: pipeline 1 vs oracle 2\n"
        "MISMATCH [4, 5]: pipeline 1 vs oracle 2\n"
        "MISMATCH [5, 5]: pipeline 1 vs oracle 2\n"
        "oracle-check: FAIL (6/28 grid intervals differ)\n"
    )


def _cell_by_cell_mismatches(f, g, cvs):
    """The reference comparison: both functions evaluated on every closed
    interval [t, s] of the grid."""
    lines = []
    for j, s in enumerate(cvs):
        for t in cvs[: j + 1]:
            q = Interval.closed(t, s)
            a, b = evaluate(f, q), evaluate(g, q)
            if a != b:
                lines.append(f"MISMATCH [{cli._fmt_num(t)}, {cli._fmt_num(s)}]: pipeline {a} vs oracle {b}\n")
    return lines


@st.composite
def _grid_function(draw):
    """Up to four generators with half-integer ends in [-1, 11], so a left end
    falls on an integer grid point, between two, or outside the grid."""
    gens = []
    for _ in range(draw(st.integers(0, 4))):
        left = draw(st.integers(-2, 22)) / 2
        if draw(st.booleans()):
            interval = Interval(left, math.inf, draw(st.booleans()))
        else:
            right = left + draw(st.integers(0, 8)) / 2
            closed = right == left or draw(st.booleans())
            interval = Interval(left, right, closed, right == left or draw(st.booleans()))
        gens.append((interval, draw(st.integers(1, 3))))
    return CupFunction.from_pairs(gens)


@settings(max_examples=300, deadline=None)
@given(
    st.sets(st.integers(0, 10), min_size=1, max_size=8).map(lambda v: [float(x) for x in sorted(v)]),
    _grid_function(),
    _grid_function(),
)
def test_grid_mismatches_match_the_cell_by_cell_reference(cvs, f, g):
    assert cli._grid_mismatches(f, g, cvs) == _cell_by_cell_mismatches(f, g, cvs)


def test_oracle_check_evaluates_once_per_run(tmp_path, monkeypatch, capsys):
    """On a 12-point cloud (67 critical values), oracle-check evaluates each
    function once per run of a row between two generators' left-end cuts,
    not once per grid interval."""
    rng = random.Random(3)
    pts = [(rng.random(), rng.random()) for _ in range(12)]
    path = tmp_path / "cloud.csv"
    path.write_text("".join(",".join(repr(math.dist(p, q)) for q in pts) + "\n" for p in pts))
    calls = []
    original = functions.evaluate

    def counted(f, q):
        calls.append((f, q))
        return original(f, q)

    for name, module in list(sys.modules.items()):
        if module is not None and name.startswith("cuplength"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    assert cli.main(["oracle-check", str(path), "--max-dim", "1"]) == 0
    # every row is evaluated at least once, so the right ends are the grid
    cvs = sorted({q.right for _, q in calls})
    n = len(cvs)
    assert n >= 50
    assert capsys.readouterr().out == f"oracle-check: OK ({n * (n + 1) // 2} grid intervals)\n"
    cuts = {0, n}
    for f in {f for f, _ in calls}:
        for gen, _ in f.generators:
            cuts.add((bisect_left if gen.left_closed else bisect_right)(cvs, gen.left))
    assert 1 <= len(calls) <= 2 * n * (len(cuts) - 1) < n * (n + 1) // 2


def test_vr_command_round_trip(tmp_path):
    out = tmp_path / "square.txt"
    proc = run_cli(
        "vr", fixture("unit_square.csv"), "--max-dim", "1", "--max-scale", "2",
        "--output", str(out),
    )
    assert proc.returncode == 0
    c = cli.load_filtered_complex(str(out))
    assert c.dim == 2
    assert len(c) == 4 + 6 + 4


def test_cup_diagram_of_the_8x8_sup_torus_is_pinned(tmp_path, capsys):
    # the grid distances tie often, so many joins share a grade; the torus
    # has cup-length 2 from the grid step h until 3h, where it fills in
    path = tmp_path / "torus.csv"
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in sup_torus_distances(8)))
    h = 2 * math.pi / 8
    assert cli.main(["cup-diagram", str(path), "--max-dim", "2", "--max-scale", repr(3 * h)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["points"] == [{"birth": h, "death": 3 * h, "inf": False, "value": 2}]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b6c4847ca96bb798902a1c86015a66f196cd1e871a2fcbb9f38adf2ef6105e46"
    )


def test_diagram_json_round_trip():
    for c in (spaces.staged_klein(), spaces.csaszar_torus(), spaces.two_disks()):
        d, _, _ = compute_cup_diagram(c, 2)
        again = cli.parse_diagram(cli.diagram_to_json(d))
        assert again == d


def test_function_json_round_trip():
    d, _, _ = compute_cup_diagram(spaces.staged_klein(), 2)
    f = reconstruct(d)
    assert cli.parse_function(cli.function_to_json(f)) == f


def test_barcode_json_round_trip_and_zero_bars():
    proc = run_cli("barcode", fixture("two_disks.txt"), "--max-dim", "1")
    assert proc.returncode == 0
    bars = cli.parse_barcode(proc.stdout)
    dims = sorted(bar.dim for bar in bars)
    assert dims == [0, 0, 1, 1]


def test_diagram_csv():
    d = CupDiagram(
        {Interval.closed_open(1.0, 3.0): 1, Interval(2.0, math.inf): 2}
    )
    assert cli.diagram_to_csv(d) == "birth,death,inf,value\n1,3,false,1\n2,,true,2\n"


def test_csv_rejected_outside_diagram():
    proc = run_cli("cup-function", fixture("hollow_triangle.txt"), "--format", "csv")
    assert proc.returncode == 2


def test_svg_deterministic_and_plot_command(tmp_path):
    a = run_cli("cup-diagram", fixture("klein_staged.txt"), "--format", "svg")
    b = run_cli("cup-diagram", fixture("klein_staged.txt"), "--format", "svg")
    assert a.returncode == 0 and a.stdout == b.stdout
    assert a.stdout.startswith("<svg") and a.stdout.rstrip().endswith("</svg>")
    dj = tmp_path / "d.json"
    run = run_cli("cup-diagram", fixture("klein_staged.txt"), "--output", str(dj))
    assert run.returncode == 0
    plot = run_cli("plot", str(dj))
    assert plot.returncode == 0 and plot.stdout.startswith("<svg")
    fj = tmp_path / "f.json"
    run_cli("cup-function", fixture("klein_staged.txt"), "--output", str(fj))
    plot2 = run_cli("plot", str(fj))
    assert plot2.returncode == 0 and "polygon" in plot2.stdout


def test_report_directory(tmp_path):
    out = tmp_path / "rep"
    proc = run_cli("report", fixture("klein_staged.txt"), "--output", str(out))
    assert proc.returncode == 0
    names = sorted(os.listdir(out))
    assert names == [
        "barcode.json",
        "barcode.svg",
        "diagram.csv",
        "diagram.json",
        "diagram.svg",
        "function.json",
        "function.svg",
    ]
    data = json.loads((out / "diagram.json").read_text())
    assert len(data["points"]) == 3


REPORT_FILES = {
    "barcode.json": ["barcode"],
    "barcode.svg": ["barcode", "--format", "svg"],
    "diagram.json": ["cup-diagram"],
    "diagram.csv": ["cup-diagram", "--format", "csv"],
    "diagram.svg": ["cup-diagram", "--format", "svg"],
    "function.json": ["cup-function"],
    "function.svg": ["cup-function", "--format", "svg"],
}


@pytest.mark.parametrize("name", sorted(os.listdir(FIXTURES)))
def test_each_report_file_is_what_its_command_prints(name, tmp_path):
    out = tmp_path / "rep"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["report", fixture(name), "--output", str(out)]) == 0
    assert sorted(os.listdir(out)) == sorted(REPORT_FILES)
    for artifact, (command, *flags) in REPORT_FILES.items():
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            assert cli.main([command, fixture(name), *flags]) == 0
        assert (out / artifact).read_bytes() == printed.getvalue().encode(), artifact


def test_missing_file_exit_code():
    proc = run_cli("cup-diagram", "no_such_file.txt")
    assert proc.returncode == 2
    assert "error" in proc.stderr


IGNORED_FLAGS = [
    ("erosion", "--max-dim", "3"),
    ("erosion", "--trim", "1"),
    ("erosion", "--format", "svg"),
    ("plot", "--max-dim", "3"),
    ("plot", "--trim", "1"),
    ("plot", "--format", "svg"),
    ("vr", "--trim", "1"),
    ("vr", "--format", "json"),
    ("barcode", "--trim", "1"),
    ("oracle-check", "--format", "json"),
    ("oracle-check", "--trim", "1"),
    ("report", "--format", "json"),
]


@pytest.mark.parametrize("command,flag,value", IGNORED_FLAGS, ids=[f"{c}{f}" for c, f, _ in IGNORED_FLAGS])
def test_subcommands_reject_flags_they_do_not_read(command, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "input", *(["circle"] if command == "erosion" else []), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


USAGE_ERRORS = {
    "unknown-flag": ["erosion", "circle", "wedge", "--trim", "1"],
    "missing-input": ["cup-diagram"],
    "bad-format": ["barcode", "input.txt", "--format", "csv"],
    "non-integer-max-dim": ["barcode", "input.txt", "--max-dim", "x"],
}


@pytest.mark.parametrize("probe", sorted(USAGE_ERRORS))
def test_usage_errors_are_one_line(probe, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(USAGE_ERRORS[probe])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("cuplength: error: ") and err.count("\n") == 1


def test_oracle_check_output_file(tmp_path):
    out = tmp_path / "check.txt"
    proc = run_cli("oracle-check", fixture("hollow_triangle.txt"), "--output", str(out))
    assert proc.returncode == 0 and proc.stdout == ""
    assert out.read_text() == run_cli("oracle-check", fixture("hollow_triangle.txt")).stdout


@pytest.mark.parametrize("command", ["barcode", "cup-diagram", "cup-function", "oracle-check", "report"])
def test_each_command_reduces_the_complex_once(command, monkeypatch, tmp_path):
    from cuplength import z2

    calls = []
    reduce_coboundary = z2.reduce_coboundary

    def counting(c):
        calls.append(c)
        return reduce_coboundary(c)

    monkeypatch.setattr("cuplength.z2.reduce_coboundary", counting)
    argv = [command, fixture("klein_staged.txt")]
    if command == "report":
        argv += ["--output", str(tmp_path / "rep")]
    assert cli.main(argv) == 0
    assert len(calls) == 1


# how often each command calls these, past the one reduction: a product
# diagram, the dimension-0 bars and a function are each computed only when printed
COUNTED = ("compute_cup_diagram", "connected_component_bars", "reconstruct")
COMPUTED = {
    "barcode": (0, 1, 0),
    "cup-diagram": (1, 0, 0),
    "cup-function": (1, 0, 1),
    "report": (1, 1, 1),
}


@pytest.mark.parametrize("command", sorted(COMPUTED))
def test_each_command_computes_only_what_it_prints(command, monkeypatch, tmp_path):
    calls = {}
    for name in COUNTED:
        original = getattr(cli, name)

        def counting(*args, name=name, original=original):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(cli, name, counting)
    argv = [command, fixture("klein_staged.txt")]
    if command == "report":
        argv += ["--output", str(tmp_path / "rep")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert tuple(calls.get(name, 0) for name in COUNTED) == COMPUTED[command]


MALFORMED = {
    "nan-grade": ("c.txt", "0 0\n0 1\nnan 0 1\n", ["cup-diagram"], "non-finite grade nan"),
    "inf-grade": ("c.txt", "0 0\n0 1\ninf 0 1\n", ["cup-diagram"], "non-finite grade inf"),
    "nan-distance": ("d.csv", "0,nan\nnan,0\n", ["cup-diagram"], "non-finite distance nan at (0,1)"),
    "inf-distance": ("d.csv", "0,1,inf\n1,0,1\ninf,1,0\n", ["cup-diagram"], "non-finite distance inf at (0,2)"),
    "negative-distance": ("d.csv", "0,-1\n-1,0\n", ["cup-diagram"], "d.csv: negative distance at (0,1)"),
    "negative-vertex": ("c.txt", "0 -1\n", ["cup-diagram"], "negative vertex id"),
    "repeated-vertex": ("c.txt", "0 0\n0 1\n0 0 1 1\n", ["cup-diagram"], "repeated vertex"),
    "simplex-listed-twice": ("c.txt", "0 0\n0 1\n0 0 1\n1 1 0\n", ["cup-diagram"], "listed twice"),
    "missing-face": ("c.txt", "0 0\n0 1\n0 0 1 2\n", ["cup-diagram"], "is missing"),
    "face-after-coface": ("c.txt", "0 0\n2 1\n1 0 1\n", ["cup-diagram"], "enters after"),
    # the triangle, listed first, lacks its face (1, 2), but the first
    # defect in the filtration order is the edge (0, 1) before its vertex
    "missing-face-and-face-after-coface": (
        "c.txt",
        "0 0\n0 2\n3 0 1 2\n0 0 2\n2 1\n1 0 1\n",
        ["cup-diagram"],
        "face (1,) at 2.0 enters after (0, 1) at 1.0",
    ),
    "function-without-right": (
        "f.json",
        '{"generators":[{"left":0,"inf":false,"value":1}]}',
        ["erosion", "circle"],
        "lacks key 'right'",
    ),
    "plot-non-json": ("d.json", "not json\n", ["plot"], "malformed JSON"),
    "function-nan-left": (
        "f.json",
        '{"generators":[{"left":NaN,"right":1,"inf":false,"value":1}]}',
        ["erosion", "circle"],
        "left=nan, right=1.0",
    ),
    "function-nan-right": (
        "f.json",
        '{"generators":[{"left":0,"right":NaN,"inf":false,"value":1}]}',
        ["plot"],
        "left=0.0, right=nan",
    ),
    "diagram-nan-death": (
        "d.json",
        '{"points":[{"birth":0,"death":NaN,"inf":false,"value":1}]}',
        ["plot"],
        "left=0.0, right=nan",
    ),
    "function-infinite-value": (
        "f.json",
        '{"generators":[{"left":0,"right":1,"inf":false,"value":1e999}]}',
        ["erosion", "circle"],
        "value must be a JSON integer, got Infinity",
    ),
    "function-float-value": (
        "f.json",
        '{"generators":[{"left":0,"right":1,"inf":false,"value":2.7}]}',
        ["erosion", "circle"],
        "value must be a JSON integer, got 2.7",
    ),
    "function-string-value": (
        "f.json",
        '{"generators":[{"left":0,"right":1,"inf":false,"value":"3"}]}',
        ["erosion", "circle"],
        'value must be a JSON integer, got "3"',
    ),
    "diagram-negative-value": (
        "d.json",
        '{"points":[{"birth":0,"death":1,"inf":false,"value":-2}]}',
        ["plot"],
        "value must be at least 1, got -2",
    ),
    "diagram-float-value": (
        "d.json",
        '{"points":[{"birth":0,"death":1,"inf":false,"value":1.5}]}',
        ["plot"],
        "value must be a JSON integer, got 1.5",
    ),
    "barcode-negative-dim": (
        "b.json",
        '{"bars":[{"dim":-1,"birth":0,"inf":true,"representative":[]}]}',
        ["plot"],
        "dim must be at least 0, got -1",
    ),
    "barcode-float-dim": (
        "b.json",
        '{"bars":[{"dim":1.5,"birth":0,"inf":true,"representative":[]}]}',
        ["plot"],
        "dim must be a JSON integer, got 1.5",
    ),
    "function-string-flags": (
        "f.json",
        '{"generators":[{"left":1,"right":2,"inf":"false","left_closed":"false","value":1}]}',
        ["erosion", "circle"],
        'inf must be JSON true or false, got "false"',
    ),
    "function-string-closure": (
        "f.json",
        '{"generators":[{"left":1,"right":2,"inf":false,"left_closed":"false","value":1}]}',
        ["erosion", "circle"],
        'left_closed must be JSON true or false, got "false"',
    ),
    "function-numeric-closure": (
        "f.json",
        '{"generators":[{"left":1,"right":2,"inf":false,"right_closed":1,"value":1}]}',
        ["plot"],
        "right_closed must be JSON true or false, got 1",
    ),
    "function-overflowing-right": (
        "f.json",
        '{"generators":[{"left":0,"right":1e999,"inf":false,"value":1}]}',
        ["erosion", "circle"],
        "right must be finite, got Infinity",
    ),
    "function-string-left": (
        "f.json",
        '{"generators":[{"left":"1","right":2,"inf":false,"value":1}]}',
        ["erosion", "circle"],
        'left must be a JSON number, got "1"',
    ),
    "function-bool-right": (
        "f.json",
        '{"generators":[{"left":0,"right":true,"inf":false,"value":1}]}',
        ["plot"],
        "right must be a JSON number, got true",
    ),
    "diagram-string-inf": (
        "d.json",
        '{"points":[{"birth":0,"death":1,"inf":"false","value":1}]}',
        ["plot"],
        'inf must be JSON true or false, got "false"',
    ),
    "diagram-overflowing-death": (
        "d.json",
        '{"points":[{"birth":0,"death":1e999,"inf":false,"value":1}]}',
        ["plot"],
        "death must be finite, got Infinity",
    ),
    "diagram-bool-birth": (
        "d.json",
        '{"points":[{"birth":true,"death":2,"inf":false,"value":1}]}',
        ["plot"],
        "birth must be a JSON number, got true",
    ),
    "barcode-numeric-inf": (
        "b.json",
        '{"bars":[{"dim":0,"birth":0,"inf":1,"representative":[]}]}',
        ["plot"],
        "inf must be JSON true or false, got 1",
    ),
    "barcode-overflowing-death": (
        "b.json",
        '{"bars":[{"dim":0,"birth":0,"death":1e999,"inf":false,"representative":[]}]}',
        ["plot"],
        "death must be finite, got Infinity",
    ),
    "barcode-string-birth": (
        "b.json",
        '{"bars":[{"dim":0,"birth":"0","inf":true,"representative":[]}]}',
        ["plot"],
        'birth must be a JSON number, got "0"',
    ),
    "function-object-generators": (
        "f.json",
        '{"generators":{}}',
        ["erosion", "circle"],
        "generators must be a JSON array",
    ),
    "diagram-object-points": ("d.json", '{"points":{}}', ["plot"], "points must be a JSON array"),
    "barcode-object-bars": ("b.json", '{"bars":{}}', ["plot"], "bars must be a JSON array"),
    "barcode-string-representative": (
        "b.json",
        '{"bars":[{"dim":0,"birth":0,"inf":true,"representative":"01"}]}',
        ["plot"],
        "representative must be a JSON array",
    ),
    "barcode-float-summand": (
        "b.json",
        '{"bars":[{"dim":1,"birth":0,"inf":true,"representative":[[1.5,2]]}]}',
        ["plot"],
        "summand must be a strictly increasing array of non-negative integers, got [1.5, 2]",
    ),
    "barcode-descending-summand": (
        "b.json",
        '{"bars":[{"dim":1,"birth":0,"inf":true,"representative":[[2,1]]}]}',
        ["plot"],
        "summand must be a strictly increasing array of non-negative integers, got [2, 1]",
    ),
    "barcode-negative-summand": (
        "b.json",
        '{"bars":[{"dim":1,"birth":0,"inf":true,"representative":[[-1,2]]}]}',
        ["plot"],
        "summand must be a strictly increasing array of non-negative integers, got [-1, 2]",
    ),
    "preset-zero": ("f.json", '{"generators":[]}', ["erosion", "circle:0"], "preset 'circle:0'"),
    "preset-not-a-number": ("f.json", '{"generators":[]}', ["erosion", "circle:x"], "preset 'circle:x'"),
    "directory-input": ("in.txt", None, ["barcode"], "Is a directory"),
    "directory-function": ("f.json", None, ["erosion", "circle"], "Is a directory"),
    "non-utf8-complex": ("c.txt", b"\xff\xfe0 0\n", ["barcode"], "not UTF-8"),
    "trim-nan": ("c.txt", "0 0\n0 1\n1 0 1\n", ["cup-diagram", "--trim", "nan"], "--trim must be non-negative, got nan"),
    "max-scale-nan": ("d.csv", "0,1\n1,0\n", ["cup-diagram", "--max-scale", "nan"], "--max-scale must be a number"),
    "max-scale-negative": ("d.csv", "0,1\n1,0\n", ["vr", "--max-scale", "-1"], "got -1.0"),
    "max-dim-zero": ("c.txt", "0 0\n0 1\n1 0 1\n", ["cup-diagram", "--max-dim", "0"], "--max-dim must be at least 1"),
    "trim-negative": ("c.txt", "0 0\n0 1\n1 0 1\n", ["cup-diagram", "--trim", "-1"], "--trim must be non-negative, got -1.0"),
    "max-scale-negative-diagram": (
        "d.csv",
        "0,1\n1,0\n",
        ["cup-diagram", "--max-scale", "-1"],
        "--max-scale must be a number >= 0, got -1.0",
    ),
    "deeply-nested-plot": ("d.json", "[" * 5000 + "]" * 5000, ["plot"], "malformed JSON input"),
    "deeply-nested-function": ("f.json", "[" * 5000 + "]" * 5000, ["erosion", "circle"], "malformed JSON input"),
    "max-scale-on-complex": ("c.txt", "0 0\n0 1\n1 0 1\n", ["cup-diagram", "--max-scale", "5"], "distance CSV input only"),
}


@pytest.mark.parametrize("probe", sorted(MALFORMED))
def test_malformed_input_is_a_one_line_error(probe, tmp_path):
    name, content, command, says = MALFORMED[probe]
    path = tmp_path / name
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    proc = run_cli(command[0], str(path), *command[1:])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("cuplength: error: ")
    assert says in proc.stderr
    assert proc.stderr.count("\n") == 1


SUBCOMMANDS = {
    "vr": ([".csv"], []),
    "barcode": ([".txt", ".csv"], []),
    "cup-diagram": ([".txt", ".csv"], []),
    "cup-function": ([".txt", ".csv"], []),
    "erosion": ([".json"], ["circle"]),
    "oracle-check": ([".txt", ".csv"], []),
    "plot": ([".json"], []),
    "report": ([".txt"], ["--output"]),
}


def _main_exit_code(argv, workdir):
    """cli.main's exit code, with its output captured and report output kept in workdir."""
    if argv[-1] == "--output":
        argv = argv + [os.path.join(workdir, "report")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if code == 2:
        assert err.getvalue().startswith("cuplength: error: ")
        assert err.getvalue().count("\n") == 1
    return code


def _assert_every_subcommand_exits_with(content, codes):
    """Run every subcommand on one input file (a directory when content is None)."""
    with tempfile.TemporaryDirectory() as workdir:
        for command, (suffixes, extra) in SUBCOMMANDS.items():
            for suffix in suffixes:
                path = os.path.join(workdir, "input" + suffix)
                if content is None:
                    os.mkdir(path)
                else:
                    with open(path, "wb") as fh:
                        fh.write(content)
                assert _main_exit_code([command, path, *extra], workdir) in codes, (command, suffix)
                if content is None:
                    os.rmdir(path)


_TEXTY = st.text(alphabet="0123456789 .,-+#eEinfaNI\n{}[]:\"", max_size=40).map(str.encode)


@st.composite
def _artifacts(draw):
    """JSON text shaped like a diagram, function or barcode, with arbitrary fields."""
    key = draw(st.sampled_from(["points", "generators", "bars"]))
    field_value = st.one_of(
        st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=2),
        st.lists(st.lists(st.integers(-1, 3), max_size=3), max_size=2),
    )
    item = st.dictionaries(
        st.sampled_from(
            ["birth", "death", "left", "right", "inf", "value", "left_closed", "right_closed", "dim", "representative"]
        ),
        field_value,
        max_size=7,
    )
    return json.dumps({key: draw(st.lists(item, max_size=3))}).encode()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(st.binary(max_size=48), _TEXTY, _artifacts()))
def test_fuzzed_inputs_exit_zero_or_two(content):
    _assert_every_subcommand_exits_with(content, (0, 2))


@pytest.mark.parametrize("content", [None, b""], ids=["directory", "empty-file"])
def test_directory_and_empty_inputs_exit_two(content):
    _assert_every_subcommand_exits_with(content, (2,))


def _run_bounded(*args):
    """run_cli under a time limit and a 2 GB address-space limit, so a run
    whose work grows with --max-dim fails instead of swamping the host."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    return subprocess.run(
        [sys.executable, "-m", "cuplength.cli", *args],
        capture_output=True,
        timeout=20,
        preexec_fn=limit,
    )


_DEEP_RUNS = [
    ("vr", "unit_square.csv", 3),
    ("barcode", "klein_staged.txt", 2),
    ("cup-diagram", "klein_staged.txt", 2),
    ("cup-diagram", "unit_square.csv", 3),
    ("cup-function", "klein_staged.txt", 2),
    ("oracle-check", "klein_staged.txt", 2),
    ("oracle-check", "unit_square.csv", 3),
    ("report", "klein_staged.txt", 2),
]


@pytest.mark.parametrize("command, name, dim", _DEEP_RUNS)
def test_a_large_max_dim_costs_what_the_complex_costs(command, name, dim, tmp_path):
    path = fixture(name)
    if name.endswith(".txt"):
        assert cli.load_filtered_complex(path).dim == dim
    outputs = []
    for max_dim in (dim, 10**9):
        out = tmp_path / str(max_dim)
        extra = ["--output", str(out)] if command == "report" else []
        proc = _run_bounded(command, path, "--max-dim", str(max_dim), *extra)
        assert proc.returncode == 0, proc.stderr
        files = sorted(out.iterdir()) if extra else []
        stdout = proc.stdout.replace(str(out).encode(), b"OUT")
        outputs.append((stdout, [(f.name, f.read_bytes()) for f in files]))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "command, content",
    [
        ("barcode", "0 0\n0 3000000000\n1 0 3000000000\n"),
        ("cup-diagram", "".join(
            f"0 {' '.join(map(str, v))}\n"
            for size in range(1, 5)
            for v in itertools.combinations((0, 1, 2, 3000000000), size)
        )),
    ],
)
def test_vertex_ids_of_2_31_or_more_are_a_one_line_error(command, content, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(content)
    proc = run_cli(command, str(path), "--max-dim", "1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("cuplength: error: ") and proc.stderr.count("\n") == 1
    assert "3000000000" in proc.stderr and "2**31 or more" in proc.stderr
