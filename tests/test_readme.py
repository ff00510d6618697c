"""The README's library sketch runs and prints what its comments say, and
every name the package exports resolves."""

import ast
import os
import re

import cuplength

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


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
