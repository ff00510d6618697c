"""The runtime is the standard library alone: ``pyproject.toml`` lists no
dependency, so every absolute import in the package names a
standard-library module or the package itself."""

import ast
import glob
import os
import sys

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "cuplength")


def _absolute_imports(path: str):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_the_package_imports_only_the_standard_library():
    imports = [
        (os.path.basename(path), name)
        for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
        for name in _absolute_imports(path)
    ]
    assert len(imports) > 20
    allowed = sys.stdlib_module_names | {"cuplength"}
    assert [(f, name) for f, name in imports if name.split(".")[0] not in allowed] == []
