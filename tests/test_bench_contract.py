"""What the traced benchmark in perfbench/ reads from the program.

perfbench/tracer.py wraps program functions by name and sizes the matrices
of each reduction; a refactor that renames one of them or drops a matrix
attribute would break the traced run, so the contract is checked here.
"""

import importlib
import importlib.util
import os

from cuplength import spaces
from cuplength.z2 import reduce_coboundary

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for module, function, _, _ in _tracer().TARGETS:
        target = importlib.import_module(f"cuplength.{module}")
        assert callable(getattr(target, function, None)), f"{module}.{function}"


def test_reduction_exposes_sized_matrices():
    rc = reduce_coboundary(spaces.staged_klein())
    for name in ("A", "R", "V"):
        matrix = getattr(rc, name)
        assert matrix.n_cols == len(rc.complex)
        assert matrix.nnz() >= 0
        for j in range(matrix.n_cols):
            assert isinstance(matrix.col_mask(j), int)
