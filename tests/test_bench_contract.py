"""What the traced benchmark in perfbench/ reads from the program.

perfbench/tracer.py wraps program functions by name and sizes the matrices
of each reduction; a refactor that renames one of them or drops a matrix
attribute would break the traced run, so the contract is checked here.
"""

import contextlib
import importlib
import importlib.util
import io
import os

import pytest

from cuplength import cli, spaces
from cuplength.z2 import reduce_coboundary

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")
FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


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


# one fixture job per benchmark workload, shaped like that workload's jobs
TRACED_JOBS = {
    "staged_torus": ["cup-diagram", "klein_staged.txt", "--max-dim", "2"],
    "vr_cloud": ["cup-diagram", "unit_square.csv", "--max-dim", "2"],
    "oracle_check": ["oracle-check", "unit_square.csv"],
    "erosion_matrix": ["erosion", "circle", "wedge"],
}


@pytest.mark.parametrize("workload", sorted(TRACED_JOBS))
def test_traced_fixture_job_calls_every_mapped_target(workload):
    tracer = _tracer()
    argv = [os.path.join(FIXTURES, a) if a.endswith((".txt", ".csv")) else a for a in TRACED_JOBS[workload]]
    with contextlib.redirect_stdout(io.StringIO()):
        code, counters = tracer.Tracer().run_job(lambda: cli.main(argv))
    assert code == 0
    assert tracer.never_called(workload, counters) == []
