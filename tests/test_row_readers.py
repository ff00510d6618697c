"""z2 is the one module that reads the reduction's rows.  The barcode and
each product's support take filtration indices from
``ReducedCoboundary.classes`` and ``born``, so a change to how z2 numbers or
stores rows stays inside z2."""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "cuplength")

# the row count, the pivot map, the matrices R and V, and the row-level reads
ROW_NAMES = {"n_rows", "pivot_to_col", "cochain_mask", "in_reduced_column_space"}
ROW_ATTRIBUTES = ROW_NAMES | {"R", "V"}


def _row_reads(path: str):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ROW_ATTRIBUTES:
            yield node.lineno, f".{node.attr}"
        elif isinstance(node, ast.Name) and node.id in ROW_NAMES:
            yield node.lineno, node.id
        elif isinstance(node, ast.alias) and node.name in ROW_NAMES:
            yield node.lineno, node.name


def test_only_z2_reads_the_reductions_rows():
    for module in ("cohomology.py", "cup.py"):
        assert list(_row_reads(os.path.join(PACKAGE, module))) == [], module
    # the guard does see a read where there is one
    assert {name for _, name in _row_reads(os.path.join(PACKAGE, "z2.py"))} >= {
        ".n_rows",
        ".pivot_to_col",
        ".R",
        ".V",
        ".cochain_mask",
        "in_reduced_column_space",
    }
