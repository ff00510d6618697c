"""Command-line pipeline and the JSON/CSV/complex file formats.

Subcommands:

  vr            distance CSV -> filtered complex (text)
  barcode       complex -> annotated barcode (dimension 0 included)
  cup-diagram   complex -> persistent cup-length diagram
  cup-function  complex -> persistent cup-length function
  erosion       two functions (JSON files or presets) -> distance
  oracle-check  complex -> compare pipeline against the brute-force oracle
  plot          diagram/function/barcode JSON -> SVG
  report        complex -> directory of JSON + CSV + SVG artifacts

barcode, cup-diagram and cup-function print one entry of the table of a
complex's artifacts; report writes every entry, each as a command prints it.

A complex file holds one simplex per line, "grade v0 v1 ... vp", with
'#' comments.  Commands that read a complex also accept a distance CSV
(suffix .csv), building the Vietoris-Rips filtration up to dimension
max_dim + 1 first.  JSON is the canonical interchange format; infinite
deaths are encoded as "inf": true with the "death"/"right" key omitted,
never as a numeric sentinel.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from bisect import bisect_left, bisect_right

from . import oracle, plots
from .cohomology import Bar, Cochain, compute_barcode, connected_component_bars
from .cup import CupDiagram, compute_cup_diagram
from .errors import AsymmetricMatrix, CupLengthError, NegativeDistance, NonFiniteDistance, ParseError
from .functions import (
    CupFunction,
    Interval,
    analytic_vr_circle,
    analytic_vr_torus,
    analytic_vr_wedge_lower,
    erosion_distance,
    evaluate,
    reconstruct,
)
from .simplicial import FilteredComplex, build_vietoris_rips, from_simplex_list, truncate

# ---------------------------------------------------------------- loading


def load_distance_csv(path: str) -> list[list[float]]:
    """Square symmetric distance matrix from comma-separated rows."""
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                rows.append([float(x) for x in line.split(",")])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ParseError(f"{path}: expected a non-empty square matrix")
    for i, row in enumerate(rows):
        for j, d in enumerate(row):
            if not math.isfinite(d):
                raise NonFiniteDistance(f"{path}: non-finite distance {d} at ({i},{j})")
            if d < 0:
                raise NegativeDistance(f"{path}: negative distance at ({i},{j})")
    for i in range(n):
        if rows[i][i] != 0:
            raise AsymmetricMatrix(f"{path}: non-zero diagonal at row {i}")
        for j in range(n):
            if abs(rows[i][j] - rows[j][i]) > 1e-12:
                raise AsymmetricMatrix(f"{path}: asymmetry at ({i},{j})")
            rows[i][j] = rows[j][i]
    return rows


def load_filtered_complex(path: str) -> FilteredComplex:
    """Parse 'grade v0 v1 ... vp' lines, streamed into ``from_simplex_list``,
    which sorts each line's vertices and validates the complex."""
    with open(path, "r", encoding="utf-8") as fh:
        return from_simplex_list(_graded_lines(path, fh))


def _graded_lines(path: str, fh):
    """The (vertex list, grade) of each line; a line that does not parse
    is a ParseError naming its path and line number."""
    for lineno, line in enumerate(fh, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ParseError(f"{path}:{lineno}: need a grade and vertices")
        try:
            grade = float(parts[0])
            verts = [int(x) for x in parts[1:]]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        yield verts, grade


def _vietoris_rips(args: argparse.Namespace, path: str) -> FilteredComplex:
    """VR filtration of a distance CSV, capped at --max-scale (default: no cap)."""
    return build_vietoris_rips(load_distance_csv(path), args.max_dim + 1, args.max_scale)


def _load_complex_input(args: argparse.Namespace, path: str) -> FilteredComplex:
    if path.endswith(".csv"):
        return _vietoris_rips(args, path)
    if not math.isinf(args.max_scale):
        raise ParseError("--max-scale applies to a distance CSV input only")
    return load_filtered_complex(path)


def complex_to_text(c: FilteredComplex) -> str:
    lines = [f"{_fmt_num(g)} {' '.join(str(v) for v in verts)}" for verts, g in zip(c.simplices, c.grades)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- JSON


def _fmt_num(x: float):
    xi = int(x)
    return xi if xi == x else x


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def _json_input(parse):
    """Report malformed JSON text or content as a ParseError."""

    @functools.wraps(parse)
    def wrapped(text: str):
        try:
            return parse(text)
        except KeyError as exc:
            raise ParseError(f"JSON input lacks key {exc}") from None
        except (AttributeError, OverflowError, RecursionError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed JSON input: {exc}") from None

    return wrapped


def _json_int(item: dict, key: str, least: int) -> int:
    """item[key] as a JSON integer of at least ``least``; a float, string or bool is an error."""
    value = item[key]
    if type(value) is not int:
        raise ParseError(f"{key} must be a JSON integer, got {json.dumps(value)}")
    if value < least:
        raise ParseError(f"{key} must be at least {least}, got {value}")
    return value


def _json_array(item: dict, key: str) -> list:
    """item[key] as a JSON array; an object, string, number or null is an error."""
    value = item[key]
    if type(value) is not list:
        raise ParseError(f"{key} must be a JSON array")
    return value


def _json_summand(value) -> tuple[int, ...]:
    """A representative's summand: a strictly increasing JSON array of
    non-negative integers, so a float, a repeat or a descent is an error."""
    if type(value) is not list or not all(type(v) is int for v in value) or not all(
        a < b for a, b in zip([-1] + value, value)
    ):
        raise ParseError(
            f"summand must be a strictly increasing array of non-negative integers, got {json.dumps(value)}"
        )
    return tuple(value)


def _json_flag(item: dict, key: str, default: bool) -> bool:
    """item[key] as JSON true or false, ``default`` when absent; any other value is an error."""
    value = item.get(key, default)
    if type(value) is not bool:
        raise ParseError(f"{key} must be JSON true or false, got {json.dumps(value)}")
    return value


def _json_number(item: dict, key: str) -> float:
    """item[key] as a float; a bool, string or other non-number is an error."""
    value = item[key]
    if type(value) not in (int, float):
        raise ParseError(f"{key} must be a JSON number, got {json.dumps(value)}")
    return float(value)


def _json_end(item: dict, key: str) -> float:
    """The right end or death that item[key] gives, inf when "inf" is true.

    A number too large for a float is an error, not an unbounded end; a
    NaN is left for Interval to reject."""
    if _json_flag(item, "inf", False):
        return math.inf
    value = _json_number(item, key)
    if math.isinf(value):
        raise ParseError(f'{key} must be finite, got {json.dumps(value)}; an unbounded end is "inf": true')
    return value


def _end(key: str, x: float) -> dict:
    """{"inf": true} for an unbounded end x, else {key: x, "inf": false}; the mirror of _json_end."""
    return {"inf": True} if math.isinf(x) else {key: _fmt_num(x), "inf": False}


def diagram_to_json(d: CupDiagram) -> str:
    pts = [
        {"birth": _fmt_num(interval.left), **_end("death", interval.right), "value": value}
        for interval, value in d.sorted_points()
    ]
    return _dumps({"points": pts})


@_json_input
def parse_diagram(text: str) -> CupDiagram:
    data = json.loads(text)
    points: dict[Interval, int] = {}
    for p in _json_array(data, "points"):
        interval = Interval.closed_open(_json_number(p, "birth"), _json_end(p, "death"))
        points[interval] = _json_int(p, "value", 1)
    return CupDiagram(points)


def diagram_to_csv(d: CupDiagram) -> str:
    lines = ["birth,death,inf,value"]
    for interval, value in d.sorted_points():
        death = "" if interval.unbounded else _fmt_num(interval.right)
        flag = "true" if interval.unbounded else "false"
        lines.append(f"{_fmt_num(interval.left)},{death},{flag},{value}")
    return "\n".join(lines) + "\n"


def function_to_json(f: CupFunction) -> str:
    gens = [
        {
            "left": _fmt_num(interval.left),
            **_end("right", interval.right),
            "left_closed": interval.left_closed,
            "right_closed": interval.right_closed,
            "value": value,
        }
        for interval, value in f.generators
    ]
    return _dumps({"generators": gens})


@_json_input
def parse_function(text: str) -> CupFunction:
    data = json.loads(text)
    gens = []
    for g in _json_array(data, "generators"):
        interval = Interval(
            _json_number(g, "left"),
            _json_end(g, "right"),
            _json_flag(g, "left_closed", True),
            _json_flag(g, "right_closed", False),
        )
        gens.append((interval, _json_int(g, "value", 1)))
    return CupFunction.from_pairs(gens)


def barcode_to_json(bars: list[Bar]) -> str:
    out = [
        {
            "dim": bar.dim,
            "birth": _fmt_num(bar.birth),
            **_end("death", bar.death),
            "representative": [list(v) for v in bar.representative.sorted_summands()],
        }
        for bar in bars
    ]
    return _dumps({"bars": out})


@_json_input
def parse_barcode(text: str) -> list[Bar]:
    data = json.loads(text)
    bars = []
    for item in _json_array(data, "bars"):
        death = _json_end(item, "death")
        dim = _json_int(item, "dim", 0)
        summands = frozenset(_json_summand(v) for v in _json_array(item, "representative"))
        rep = Cochain(dim, summands) if summands else Cochain.zero(dim)
        bars.append(Bar(dim, _json_number(item, "birth"), death, rep))
    return bars


@_json_input
def _render_artifact_svg(text: str) -> str:
    """SVG of a diagram, function or barcode JSON artifact."""
    data = json.loads(text)
    if "points" in data:
        return plots.render_diagram_svg(parse_diagram(text))
    if "generators" in data:
        return plots.render_function_svg(parse_function(text))
    if "bars" in data:
        return plots.render_barcode_svg(parse_barcode(text))
    raise ParseError("unrecognized artifact")


# ---------------------------------------------------------------- commands


# Every artifact of a complex, in the order ``report`` writes them; each
# renders the barcode, diagram or function that its name starts with.
_ARTIFACTS = {
    "barcode.json": lambda bars: barcode_to_json(bars) + "\n",
    "diagram.json": lambda diagram: diagram_to_json(diagram) + "\n",
    "diagram.csv": diagram_to_csv,
    "function.json": lambda f: function_to_json(f) + "\n",
    "diagram.svg": plots.render_diagram_svg,
    "function.svg": plots.render_function_svg,
    "barcode.svg": plots.render_barcode_svg,
}


def _stem(command: str) -> str:
    return command.removeprefix("cup-")  # the barcode, diagram or function it prints


def _render(args: argparse.Namespace, c: FilteredComplex, k: int, names) -> dict[str, str]:
    """The text of each named artifact of c, from one reduction; the barcode, diagram
    and function are each computed once, and only if a name reads them, as is --trim."""
    reads = {name.split(".")[0] for name in names}
    data = {}
    if reads == {"barcode"}:
        barcode = compute_barcode(c, k)
    else:
        data["diagram"], _, barcode = compute_cup_diagram(c, k, args.trim)
    if "function" in reads:
        data["function"] = reconstruct(data["diagram"])
    if "barcode" in reads:
        data["barcode"] = connected_component_bars(barcode) + list(barcode.bars)
    return {name: _ARTIFACTS[name](data[name.split(".")[0]]) for name in names}


def _emit(path: str | None, text: str) -> None:
    """Write text to the file at path, or to stdout when there is none."""
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _function_source(source: str) -> CupFunction:
    presets = {"wedge-lower": analytic_vr_wedge_lower, "wedge": analytic_vr_wedge_lower}
    if source in presets:
        return presets[source]()
    for name, builder in (("circle", analytic_vr_circle), ("torus", analytic_vr_torus)):
        if source == name:
            return builder(8)
        if source.startswith(name + ":"):
            try:
                L = int(source.split(":", 1)[1])
            except ValueError:
                L = 0
            if L < 1:
                raise ParseError(f"function preset {source!r} needs {name}:L with an integer L >= 1")
            return builder(L)
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            return parse_function(fh.read())
    raise ParseError(
        f"unknown function source {source!r}; expected a JSON file, "
        "'circle[:L]', 'torus[:L]' or 'wedge-lower'"
    )


def _grid_mismatches(f: CupFunction, g: CupFunction, cvs: list[float]) -> list[str]:
    """One MISMATCH line per closed interval [t, s] of the grid cvs on which
    the pipeline's f and the oracle's g differ, ordered by s, then t.

    Whether a generator contains [t, s] depends on t only through its left
    end, and that test turns true at one grid index, its cut.  Between two
    cuts both functions are constant along a row, so each run of a row is
    evaluated once."""
    cuts = {0, len(cvs)}
    for gen, _ in f.generators + g.generators:
        cuts.add((bisect_left if gen.left_closed else bisect_right)(cvs, gen.left))
    cuts = sorted(cuts)
    lines = []
    for j, s in enumerate(cvs):
        for lo, hi in zip(cuts, cuts[1:]):
            if lo > j:
                break
            q = Interval.closed(cvs[lo], s)
            a, b = evaluate(f, q), evaluate(g, q)
            if a != b:
                lines += (
                    f"MISMATCH [{_fmt_num(t)}, {_fmt_num(s)}]: pipeline {a} vs oracle {b}\n"
                    for t in cvs[lo : min(hi, j + 1)]
                )
    return lines


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line; returns the process exit code."""
    cmd = args.command
    if cmd == "vr":
        _emit(args.output, complex_to_text(_vietoris_rips(args, args.inputs[0])))
        return 0

    if cmd == "erosion":
        value = erosion_distance(*map(_function_source, args.inputs))
        _emit(args.output, f"{'inf' if math.isinf(value) else repr(value)}\n")
        return 0

    if cmd == "plot":
        with open(args.inputs[0], "r", encoding="utf-8") as fh:
            _emit(args.output, _render_artifact_svg(fh.read()))
        return 0

    if cmd == "report" and not args.output:
        raise ParseError("report needs --output DIRECTORY")
    c = _load_complex_input(args, args.inputs[0])
    # no class or non-zero product lives above the complex's dimension
    k = min(args.max_dim, max(c.dim, 1))

    if cmd == "oracle-check":
        # keep only the diagram, so the barcode's reduction is freed before
        # the oracle runs; the oracle keeps every bar, so no --trim here
        f = reconstruct(compute_cup_diagram(c, k)[0])
        ct = truncate(c, k + 1)
        g = oracle.oracle_cup_function(ct, k)
        cvs = ct.critical_values
        mismatches = _grid_mismatches(f, g, cvs)
        checked = len(cvs) * (len(cvs) + 1) // 2
        if mismatches:
            summary = f"oracle-check: FAIL ({len(mismatches)}/{checked} grid intervals differ)\n"
            _emit(args.output, "".join(mismatches) + summary)
            return 1
        _emit(args.output, f"oracle-check: OK ({checked} grid intervals)\n")
        return 0

    if cmd != "report":
        name = f"{_stem(cmd)}.{args.fmt}"  # barcode, cup-diagram, cup-function
        _emit(args.output, _render(args, c, k, [name])[name])
        return 0
    os.makedirs(args.output, exist_ok=True)
    for name, text in _render(args, c, k, _ARTIFACTS).items():
        path = os.path.join(args.output, name)
        _emit(path, text)
        print(path)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors end in one line and exit 2; subparsers inherit this class."""

    def error(self, message: str):
        self.exit(2, f"cuplength: error: {message}\n")


def _parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="cuplength",
        description="Persistent cup-length diagrams, functions and erosion distances over Z2.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, n_inputs=1, complex_input=True, trim=False):
        """A subcommand that takes exactly the flags its job reads and the formats _ARTIFACTS has."""
        formats = [n.split(".")[1] for n in _ARTIFACTS if n.split(".")[0] == _stem(name)]
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("inputs", nargs=n_inputs, metavar="INPUT")
        if complex_input:
            sp.add_argument("--max-dim", dest="max_dim", type=int, default=2, metavar="K")
            sp.add_argument("--max-scale", dest="max_scale", type=float, default=math.inf, metavar="R")
        if trim:
            sp.add_argument("--trim", type=float, default=0.0, metavar="EPS")
        if formats:
            sp.add_argument("--format", dest="fmt", choices=formats, default="json")
        sp.add_argument("--output", default=None, metavar="PATH")

    command("vr", "build a Vietoris-Rips filtration")
    command("barcode", "annotated barcode")
    command("cup-diagram", "persistent cup-length diagram", trim=True)
    command("cup-function", "persistent cup-length function", trim=True)
    command("erosion", "erosion distance of two functions", n_inputs=2, complex_input=False)
    command("oracle-check", "pipeline vs oracle equivalence")
    command("plot", "render a JSON artifact to SVG", complex_input=False)
    command("report", "emit all artifacts into a directory", trim=True)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if "max_dim" in args and args.max_dim < 1:
            raise ParseError("--max-dim must be at least 1")
        if "trim" in args and not args.trim >= 0:  # also rejects nan
            raise ParseError(f"--trim must be non-negative, got {args.trim}")
        if "max_scale" in args and not args.max_scale >= 0:  # also rejects nan
            raise ParseError(f"--max-scale must be a number >= 0, got {args.max_scale}")
        return run(args)
    except (CupLengthError, OSError) as exc:
        print(f"cuplength: error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"cuplength: error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
