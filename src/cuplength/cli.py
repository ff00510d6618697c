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
from dataclasses import dataclass, field

from . import oracle, plots
from .cohomology import Bar, Cochain, compute_barcode, connected_component_bars
from .cup import CupDiagram, compute_cup_diagram
from .errors import AsymmetricMatrix, CupLengthError, NonFiniteDistance, ParseError
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
from .simplicial import (
    FilteredComplex,
    build_vietoris_rips,
    diameter,
    from_simplex_list,
    truncate,
)

INF = math.inf


@dataclass
class JobConfig:
    command: str
    inputs: list[str] = field(default_factory=list)
    max_dim: int = 2
    max_scale: float = INF
    trim: float = 0.0
    fmt: str = "json"
    output: str | None = None

    def __post_init__(self) -> None:
        if self.max_dim < 1:
            raise ParseError("--max-dim must be at least 1")
        if not self.trim >= 0:  # also rejects nan
            raise ParseError(f"--trim must be non-negative, got {self.trim}")
        if not self.max_scale >= 0:  # also rejects nan
            raise ParseError(f"--max-scale must be a number >= 0, got {self.max_scale}")


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
    for i in range(n):
        if rows[i][i] != 0:
            raise AsymmetricMatrix(f"{path}: non-zero diagonal at row {i}")
        for j in range(n):
            if abs(rows[i][j] - rows[j][i]) > 1e-12:
                raise AsymmetricMatrix(f"{path}: asymmetry at ({i},{j})")
            rows[i][j] = rows[j][i]
    return rows


def load_filtered_complex(path: str) -> FilteredComplex:
    """Parse 'grade v0 v1 ... vp' lines; vertices are sorted, repeats rejected."""
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
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
            if len(set(verts)) != len(verts):
                raise ParseError(f"{path}:{lineno}: repeated vertex in {verts}")
            if min(verts) < 0:
                raise ParseError(f"{path}:{lineno}: negative vertex id in {verts}")
            entries.append((verts, grade))
    if not entries:
        raise ParseError(f"{path}: no simplices")
    return from_simplex_list(entries)


def _vietoris_rips(config: JobConfig, path: str) -> FilteredComplex:
    """VR filtration of a distance CSV, capped at --max-scale (default: the diameter)."""
    d = load_distance_csv(path)
    scale = config.max_scale if not math.isinf(config.max_scale) else diameter(d)
    return build_vietoris_rips(d, config.max_dim + 1, scale)


def _load_complex_input(config: JobConfig, path: str) -> FilteredComplex:
    if path.endswith(".csv"):
        return _vietoris_rips(config, path)
    if not math.isinf(config.max_scale):
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
        except (AttributeError, OverflowError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed JSON input: {exc}") from None

    return wrapped


def diagram_to_json(d: CupDiagram) -> str:
    pts = []
    for interval, value in d.sorted_points():
        if interval.unbounded:
            pts.append({"birth": _fmt_num(interval.left), "inf": True, "value": value})
        else:
            pts.append(
                {
                    "birth": _fmt_num(interval.left),
                    "death": _fmt_num(interval.right),
                    "inf": False,
                    "value": value,
                }
            )
    return _dumps({"points": pts})


@_json_input
def parse_diagram(text: str) -> CupDiagram:
    data = json.loads(text)
    points: dict[Interval, int] = {}
    for p in data["points"]:
        birth = float(p["birth"])
        if p.get("inf"):
            interval = Interval(birth, INF)
        else:
            interval = Interval.closed_open(birth, float(p["death"]))
        points[interval] = int(p["value"])
    return CupDiagram(points)


def diagram_to_csv(d: CupDiagram) -> str:
    lines = ["birth,death,inf,value"]
    for interval, value in d.sorted_points():
        death = "" if interval.unbounded else _fmt_num(interval.right)
        flag = "true" if interval.unbounded else "false"
        lines.append(f"{_fmt_num(interval.left)},{death},{flag},{value}")
    return "\n".join(lines) + "\n"


def function_to_json(f: CupFunction) -> str:
    gens = []
    for interval, value in f.generators:
        item = {"left": _fmt_num(interval.left)}
        if interval.unbounded:
            item["inf"] = True
        else:
            item["right"] = _fmt_num(interval.right)
            item["inf"] = False
        item["left_closed"] = interval.left_closed
        item["right_closed"] = interval.right_closed
        item["value"] = value
        gens.append(item)
    return _dumps({"generators": gens})


@_json_input
def parse_function(text: str) -> CupFunction:
    data = json.loads(text)
    gens = []
    for g in data["generators"]:
        right = INF if g.get("inf") else float(g["right"])
        interval = Interval(
            float(g["left"]),
            right,
            bool(g.get("left_closed", True)),
            bool(g.get("right_closed", False)),
        )
        gens.append((interval, int(g["value"])))
    return CupFunction.from_pairs(gens)


def barcode_to_json(bars: list[Bar]) -> str:
    out = []
    for bar in bars:
        item = {"dim": bar.dim, "birth": _fmt_num(bar.birth)}
        if bar.essential:
            item["inf"] = True
        else:
            item["death"] = _fmt_num(bar.death)
            item["inf"] = False
        item["representative"] = [list(v) for v in bar.representative.sorted_summands()]
        out.append(item)
    return _dumps({"bars": out})


@_json_input
def parse_barcode(text: str) -> list[Bar]:
    data = json.loads(text)
    bars = []
    for item in data["bars"]:
        death = INF if item.get("inf") else float(item["death"])
        summands = frozenset(tuple(v) for v in item["representative"])
        rep = Cochain(int(item["dim"]), summands) if summands else Cochain.zero(int(item["dim"]))
        bars.append(Bar(int(item["dim"]), float(item["birth"]), death, rep))
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


def _emit(config: JobConfig, text: str) -> None:
    if config.output:
        with open(config.output, "w", encoding="utf-8", newline="\n") as fh:
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


def run(config: JobConfig) -> int:
    """Execute one job; returns the process exit code."""
    cmd = config.command
    if cmd == "vr":
        _emit(config, complex_to_text(_vietoris_rips(config, config.inputs[0])))
        return 0

    if cmd == "erosion":
        f = _function_source(config.inputs[0])
        g = _function_source(config.inputs[1])
        value = erosion_distance(f, g)
        _emit(config, f"{'inf' if math.isinf(value) else repr(value)}\n")
        return 0

    if cmd == "plot":
        with open(config.inputs[0], "r", encoding="utf-8") as fh:
            text = fh.read()
        _emit(config, _render_artifact_svg(text))
        return 0

    c = _load_complex_input(config, config.inputs[0])
    k = config.max_dim

    if cmd == "barcode":
        barcode = compute_barcode(c, k)
        bars = connected_component_bars(barcode) + list(barcode.bars)
        if config.fmt == "svg":
            _emit(config, plots.render_barcode_svg(bars))
        else:
            _emit(config, barcode_to_json(bars) + "\n")
        return 0

    if cmd == "cup-diagram":
        diagram, _, _ = compute_cup_diagram(c, k, config.trim)
        if config.fmt == "svg":
            _emit(config, plots.render_diagram_svg(diagram))
        elif config.fmt == "csv":
            _emit(config, diagram_to_csv(diagram))
        else:
            _emit(config, diagram_to_json(diagram) + "\n")
        return 0

    if cmd == "cup-function":
        diagram, _, _ = compute_cup_diagram(c, k, config.trim)
        f = reconstruct(diagram)
        if config.fmt == "svg":
            _emit(config, plots.render_function_svg(f))
        else:
            _emit(config, function_to_json(f) + "\n")
        return 0

    if cmd == "oracle-check":
        # keep only the diagram, so the barcode's reduction is freed before
        # the oracle runs
        f = reconstruct(compute_cup_diagram(c, k, config.trim)[0])
        ct = truncate(c, k + 1)
        g = oracle.oracle_cup_function(ct, k)
        cvs = ct.critical_values
        mismatches = []
        checked = 0
        for j, s in enumerate(cvs):
            for t in cvs[: j + 1]:
                checked += 1
                q = Interval.closed(t, s)
                a, b = evaluate(f, q), evaluate(g, q)
                if a != b:
                    mismatches.append(f"MISMATCH [{t:g}, {s:g}]: pipeline {a} vs oracle {b}\n")
        if mismatches:
            summary = f"oracle-check: FAIL ({len(mismatches)}/{checked} grid intervals differ)\n"
            _emit(config, "".join(mismatches) + summary)
            return 1
        _emit(config, f"oracle-check: OK ({checked} grid intervals)\n")
        return 0

    if cmd == "report":
        if not config.output:
            raise ParseError("report needs --output DIRECTORY")
        os.makedirs(config.output, exist_ok=True)
        diagram, _, barcode = compute_cup_diagram(c, k, config.trim)
        f = reconstruct(diagram)
        bars = connected_component_bars(barcode) + list(barcode.bars)
        artifacts = {
            "barcode.json": barcode_to_json(bars) + "\n",
            "diagram.json": diagram_to_json(diagram) + "\n",
            "diagram.csv": diagram_to_csv(diagram),
            "function.json": function_to_json(f) + "\n",
            "diagram.svg": plots.render_diagram_svg(diagram),
            "function.svg": plots.render_function_svg(f),
            "barcode.svg": plots.render_barcode_svg(bars),
        }
        for name, text in artifacts.items():
            with open(os.path.join(config.output, name), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            print(os.path.join(config.output, name))
        return 0

    raise ParseError(f"unknown command {cmd!r}")


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

    def command(name: str, summary: str, n_inputs=1, complex_input=True, trim=False, formats=()):
        """A subcommand that takes exactly the flags its job reads."""
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("inputs", nargs=n_inputs, metavar="INPUT")
        if complex_input:
            sp.add_argument("--max-dim", dest="max_dim", type=int, default=2, metavar="K")
            sp.add_argument("--max-scale", dest="max_scale", type=float, default=INF, metavar="R")
        if trim:
            sp.add_argument("--trim", type=float, default=0.0, metavar="EPS")
        if formats:
            sp.add_argument("--format", dest="fmt", choices=["json", *formats], default="json")
        sp.add_argument("--output", default=None, metavar="PATH")

    command("vr", "build a Vietoris-Rips filtration")
    command("barcode", "annotated barcode", formats=["svg"])
    command("cup-diagram", "persistent cup-length diagram", trim=True, formats=["csv", "svg"])
    command("cup-function", "persistent cup-length function", trim=True, formats=["svg"])
    command("erosion", "erosion distance of two functions", n_inputs=2, complex_input=False)
    command("oracle-check", "pipeline vs oracle equivalence", trim=True)
    command("plot", "render a JSON artifact to SVG", complex_input=False)
    command("report", "emit all artifacts into a directory", trim=True)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = JobConfig(**vars(args))
        return run(config)
    except (CupLengthError, OSError) as exc:
        print(f"cuplength: error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"cuplength: error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
