"""The README's library sketch and command-line examples run and print what
their comments say, and every name the package exports resolves."""

import ast
import math
import os
import re
import shlex

import pytest

import cuplength
from cuplength import cli

README = os.path.join(os.path.dirname(__file__), "..", "README.md")
FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _sketch() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_every_exported_name_resolves():
    assert [name for name in cuplength.__all__ if not hasattr(cuplength, name)] == []


def test_readme_sketch_runs_and_matches_its_comments():
    code = _sketch()
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    checked = []
    for line in code.splitlines():
        expr, sep, expected = line.partition("# ->")
        if sep:
            expr = expr.strip()
            assert eval(expr, namespace) == ast.literal_eval(expected.strip()), expr
            checked.append(expr)
    assert checked == ["f(cl.Interval.closed(2.5, 10.0))", "report.ok"]



def _shell_commands() -> list[tuple[list[str], str]]:
    """Each ``cuplength`` line of the README's command-line block, split into
    arguments, with the ``#`` comment lines right below it joined: the
    output it documents, or "" where none follows."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.DOTALL)
    (block,) = [b for b in blocks if re.search(r"^cuplength ", b, re.MULTILINE)]
    commands, below = [], None
    for line in block.splitlines():
        if line.startswith("cuplength "):
            below = []
            commands.append((shlex.split(line)[1:], below))
        elif line.startswith("#") and below is not None:
            below.append(line[1:].strip())
        else:
            below = None
    return [(argv, "".join(below)) for argv, below in commands]


def test_readme_shell_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fixtures").symlink_to(os.path.abspath(FIXTURES))
    ran = []
    for argv, documented in _shell_commands():
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        if documented:
            assert out.strip() == documented, argv
        if argv[0] == "erosion":
            assert float(out) == pytest.approx(math.pi / 3, rel=1e-12)
        ran.append(argv[0])
    assert ran == ["cup-diagram", "cup-function", "barcode", "erosion", "oracle-check", "report"]
    assert (tmp_path / "klein.svg").is_file() and len(list((tmp_path / "out").iterdir())) == 7
