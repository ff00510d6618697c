"""Per-layer tracing of the CLI pipeline from outside the program.

The program has no tracing of its own, so this module wraps its public
functions wherever their names are bound: a module that did
``from .cup import compute_cup_diagram`` holds its own reference, and every
such reference is replaced, not only the defining one.  Stage-level calls
record a span (name, start, end, parent, job); hot calls record only a call
count and total time.  A function's self time is its time minus the time of
the wrapped calls made inside it, and a layer's self time is the sum over
its module's functions.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc

LAYERS = ("cli", "simplicial", "z2", "cohomology", "cup", "functions", "oracle")
PIPELINE = ("vr_cloud", "staged_torus", "oracle_check")
ALL = PIPELINE + ("erosion_matrix",)

# (module, function, hot, workloads on which it must be called)
TARGETS = (
    ("cli", "main", False, ALL),
    ("cli", "load_distance_csv", False, ("vr_cloud", "oracle_check")),
    ("cli", "load_filtered_complex", False, ("staged_torus",)),
    ("simplicial", "from_simplex_list", False, ("staged_torus",)),
    ("simplicial", "build_vietoris_rips", False, ("vr_cloud", "oracle_check")),
    ("simplicial", "truncate", False, PIPELINE),
    ("z2", "reduce_coboundary", False, PIPELINE),
    ("z2", "coboundary_matrix", False, PIPELINE),
    ("z2", "column_reduce", False, PIPELINE),
    ("z2", "in_reduced_column_space", True, ("staged_torus",)),
    ("cohomology", "compute_barcode", False, PIPELINE),
    ("cup", "compute_cup_diagram", False, PIPELINE),
    ("cup", "cup_diagram", False, PIPELINE),
    ("cup", "cup_product", True, ("staged_torus",)),
    ("cup", "support", True, ("staged_torus",)),
    ("functions", "reconstruct", False, ("oracle_check",)),
    ("functions", "evaluate", True, ("oracle_check",)),
    ("functions", "erosion_distance", False, ("erosion_matrix",)),
    ("oracle", "oracle_cup_function", False, ("oracle_check",)),
    ("oracle", "cohomology_basis", True, ("oracle_check",)),
)


def _observe_columns(extra, result):
    extra["columns"] = extra.get("columns", 0) + result.A.n_cols


def _observe_bars(extra, result):
    extra["bars"] = extra.get("bars", 0) + len(result.bars)


def _observe_nonzero(extra, result):
    extra["nonzero"] = extra.get("nonzero", 0) + (not result.is_zero())


def _observe_hits(extra, result):
    extra["hits"] = extra.get("hits", 0) + (result is not None)


def _observe_exact_tests(extra, result):
    extra["exact_tests"] = extra.get("exact_tests", 0) + result[1].coboundary_test_count


OBSERVERS = {
    "z2.reduce_coboundary": _observe_columns,
    "cohomology.compute_barcode": _observe_bars,
    "cup.cup_product": _observe_nonzero,
    "cup.support": _observe_hits,
    "cup.compute_cup_diagram": _observe_exact_tests,
}


class _Stat:
    __slots__ = ("calls", "total", "self_time", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.extra: dict[str, float] = {}


class _Patcher:
    """Replaces every binding of a function in the program's modules."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, original, replacement) -> int:
        bound = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "cuplength" or name.startswith("cuplength.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))
                    bound += 1
        return bound

    def restore(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _originals():
    modules = {layer: sys.modules[f"cuplength.{layer}"] for layer in LAYERS}
    return {f"{m}.{f}": getattr(modules[m], f) for m, f, _, _ in TARGETS}


class Tracer:
    """Spans and per-function counters of traced jobs, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.job = -1
        self.stats = {f"{m}.{f}": _Stat() for m, f, _, _ in TARGETS}
        self._child = [0.0]
        self._open: list[int | None] = [None]

    def _wrap(self, key: str, fn, hot: bool):
        stat = self.stats[key]
        child = self._child
        open_spans = self._open
        spans = self.spans
        observe = OBSERVERS.get(key)
        clock = time.perf_counter
        tracer = self

        if hot:
            # count and time only: the cheapest wrapper that still lets the
            # caller subtract this call from its own self time
            def wrapper(*args, **kwargs):
                child.append(0.0)
                t0 = clock()
                result = fn(*args, **kwargs)
                dt = clock() - t0
                inner = child.pop()
                child[-1] += dt
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - inner
                if observe is not None:
                    observe(stat.extra, result)
                return result

            return wrapper

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = open_spans[-1]
            open_spans.append(span_id)
            child.append(0.0)
            t0 = clock()
            result = fn(*args, **kwargs)
            t1 = clock()
            inner = child.pop()
            child[-1] += t1 - t0
            open_spans.pop()
            spans[span_id] = (key, t0, t1, parent, tracer.job)
            stat.calls += 1
            stat.total += t1 - t0
            stat.self_time += t1 - t0 - inner
            if observe is not None:
                observe(stat.extra, result)
            return result

        return wrapper

    def run_job(self, job):
        """Run ``job()`` with every target wrapped; returns its result and
        the per-function counters of this job.

        A call that raises leaves its span open; the job then counts as
        failed, and the stacks are reset before the next one.
        """
        self.job += 1
        for stat in self.stats.values():
            stat.__init__()
        self._child[:] = [0.0]
        self._open[:] = [None]
        with _Patcher() as patcher:
            for (_, _, hot, _), (key, fn) in zip(TARGETS, _originals().items()):
                if patcher.patch(fn, self._wrap(key, fn, hot)) == 0:
                    raise RuntimeError(f"{key} is bound nowhere in the program")
            result = job()
        return result, {key: (s.calls, s.total, s.self_time, dict(s.extra)) for key, s in self.stats.items()}

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "job": j}
            for n, s, e, p, j in (span for span in self.spans if span is not None)
        ]


def never_called(workload: str, counters: dict) -> list[str]:
    """Targets mapped to this workload that a traced job never called."""
    return [
        f"{m}.{f}" for m, f, _, where in TARGETS if workload in where and counters[f"{m}.{f}"][0] == 0
    ]


def layer_metrics(counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced job, from its counters."""
    calls = {k: v[0] for k, v in counters.items()}
    total = {k: v[1] for k, v in counters.items()}
    self_time = {k: v[2] for k, v in counters.items()}
    extra = {k: v[3] for k, v in counters.items()}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    job_s = total["cli.main"]
    out = {
        "job.traced_s": job_s,
        "cli.load_s": total["cli.load_distance_csv"] + total["cli.load_filtered_complex"],
        "simplicial.vr_s": total["simplicial.build_vietoris_rips"],
        "simplicial.truncate_s": total["simplicial.truncate"],
        "z2.coboundary_s": total["z2.coboundary_matrix"],
        "z2.reduce_s": total["z2.column_reduce"],
        "z2.reductions": calls["z2.reduce_coboundary"],
        "z2.columns": extra["z2.reduce_coboundary"].get("columns", 0),
        "z2.membership_calls": calls["z2.in_reduced_column_space"],
        "z2.membership_s": total["z2.in_reduced_column_space"],
        "cohomology.barcode_s": total["cohomology.compute_barcode"],
        "cohomology.barcode_self_s": self_time["cohomology.compute_barcode"],
        "cohomology.bars": extra["cohomology.compute_barcode"].get("bars", 0),
        "cup.diagram_self_s": self_time["cup.cup_diagram"],
        "cup.product_calls": calls["cup.cup_product"],
        "cup.product_s": total["cup.cup_product"],
        "cup.nonzero_ratio": ratio(extra["cup.cup_product"].get("nonzero", 0), calls["cup.cup_product"]),
        "cup.support_calls": calls["cup.support"],
        "cup.support_s": total["cup.support"],
        "cup.support_hit_ratio": ratio(extra["cup.support"].get("hits", 0), calls["cup.support"]),
        "cup.exact_tests": extra["cup.compute_cup_diagram"].get("exact_tests", 0),
        "oracle.function_s": total["oracle.oracle_cup_function"],
        "oracle.basis_calls": calls["oracle.cohomology_basis"],
        "oracle.basis_s": total["oracle.cohomology_basis"],
        "functions.evaluate_calls": calls["functions.evaluate"],
        "functions.evaluate_s": total["functions.evaluate"],
        "functions.reconstruct_s": total["functions.reconstruct"],
        "functions.erosion_calls": calls["functions.erosion_distance"],
        "functions.erosion_s": total["functions.erosion_distance"],
    }
    for layer in LAYERS:
        layer_self = sum(v for k, v in self_time.items() if k.split(".")[0] == layer)
        out[f"{layer}.self_s"] = layer_self
        out[f"{layer}.self_frac"] = ratio(layer_self, job_s)
    return out


def median_metrics(per_job: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}


def _matrix_bytes(matrix) -> int:
    """Computed size of a matrix's column storage: the sum of the sizes of
    its column objects, not a measurement of the process."""
    return sum(sys.getsizeof(matrix.col_mask(j)) for j in range(matrix.n_cols))


def memory_job(job) -> tuple[object, dict[str, float]]:
    """Run ``job()`` once, untimed, for sizes and allocation peaks.

    tracemalloc runs only inside ``reduce_coboundary``; its peak counts the
    bytes allocated there and still live at the peak.  Simplex counts come
    from the complex each loader returns.
    """
    originals = _originals()
    found: dict[str, float] = {
        "z2.nnz_R": 0,
        "z2.nnz_V": 0,
        "z2.bytes_computed": 0,
        "z2.alloc_peak_mb": 0.0,
    }
    dims: dict[int, int] = {}

    def reduce_coboundary(*args, **kwargs):
        tracemalloc.start()
        try:
            rc = originals["z2.reduce_coboundary"](*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        found["z2.alloc_peak_mb"] = max(found["z2.alloc_peak_mb"], peak / 2**20)
        found["z2.nnz_R"] += rc.R.nnz()
        found["z2.nnz_V"] += rc.V.nnz()
        found["z2.bytes_computed"] += sum(_matrix_bytes(M) for M in (rc.A, rc.R, rc.V))
        return rc

    def counting(key):
        def load(*args, **kwargs):
            c = originals[key](*args, **kwargs)
            for verts in c.simplices:
                dims[len(verts) - 1] = dims.get(len(verts) - 1, 0) + 1
            return c

        return load

    with _Patcher() as patcher:
        patcher.patch(originals["z2.reduce_coboundary"], reduce_coboundary)
        patcher.patch(originals["simplicial.build_vietoris_rips"], counting("simplicial.build_vietoris_rips"))
        patcher.patch(originals["simplicial.from_simplex_list"], counting("simplicial.from_simplex_list"))
        result = job()
    found["simplicial.simplices"] = sum(dims.values())
    for d in range(4):
        found[f"simplicial.simplices_d{d}"] = dims.get(d, 0)
    return result, found
