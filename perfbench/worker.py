"""One fresh process of the benchmark: set-up probe, timed jobs, or traced jobs.

Started by run.py with the program's ``src`` on PYTHONPATH and
CUPLENGTH_THREADS removed from the environment; prints one JSON object as
its last line of standard output.

  --mode setup   time importing the package and parsing the input files
  --mode run     warm up, then time untraced jobs, cycling over the
                 workload's input instances, for --seconds

  --mode trace   warm up, alternate untraced and traced jobs for --seconds,
                 then run one untimed job for sizes and allocation peaks;
                 writes the spans to spans.json in --workdir

Set-up and job times are reported both raw and scaled to the nominal speed
of a fixed reference loop timed next to them (see REFERENCE_NOMINAL_S);
run.py picks one of the two per workload.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

import tracer
from workloads import WORKLOADS, sha256


def run_job(cli, argvs: list[list[str]]) -> tuple[bytes, list[int]]:
    """Run one job's CLI calls in this process; returns stdout bytes and exit codes."""
    buf = io.StringIO()
    codes = []
    with contextlib.redirect_stdout(buf):
        for argv in argvs:
            codes.append(cli.main(argv))
    return buf.getvalue().encode("utf-8"), codes


REFERENCE_ITERATIONS = 2_000_000
# Times are reported at the host speed at which the reference loop takes
# this long: each measured time is scaled by REFERENCE_NOMINAL_S over the
# reference time measured next to it.  The host's speed drifts by up to
# 1.8x for tens of seconds at a time, which moves raw times between runs
# by more than the bounds allow on some workloads.  The loop is
# compute-bound, so it does not track every workload: README.md lists
# where the scaled time is reported and where the raw one is.
REFERENCE_NOMINAL_S = 0.1


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop that shares no code with the
    program: a yardstick for how fast the host runs this process right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i & 7
    return time.perf_counter() - t0


def corrupt(output: bytes) -> bytes:
    """The output with its last digit changed, as a bad result would read."""
    for i in range(len(output) - 1, -1, -1):
        ch = output[i : i + 1]
        if ch.isdigit():
            return output[:i] + (b"1" if ch != b"1" else b"2") + output[i + 1 :]
    return output + b"0"


class Jobs:
    """Runs and checks the jobs of every input instance, counting failures
    instead of stopping."""

    def __init__(self, instances, cli, workdirs: list[str]):
        self.instances = instances
        self.cli = cli
        self.argvs = [w.argvs(d) for w, d in zip(instances, workdirs)]
        # what each instance's output must hash to: the golden, else its first output
        self.reference = [w.golden for w in instances]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checker_ok = True

    def _record(self, reason: str | None) -> bool:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(reason)
        return reason is None

    def run(self, i: int, wrap=None) -> float | None:
        """Time one job on instance i and check its output; returns the
        seconds, or None when the job raised or its output is wrong.
        ``wrap(job)`` runs the job under tracing instead."""
        job = lambda: run_job(self.cli, self.argvs[i])  # noqa: E731
        t0 = time.perf_counter()
        try:
            output, codes = wrap(job) if wrap else job()
        except (Exception, SystemExit) as exc:
            self._record(f"instance {i} raised {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - t0
        workload, reference = self.instances[i], self.reference[i]
        reason = workload.check(output, codes, reference)
        ok = self._record(None if reason is None else f"instance {i}: {reason}")
        if ok and reference is None:
            self.reference[i] = sha256(output)
        if ok and self.attempted == 1:
            # the check must count a corrupted copy of a good output as failed
            self.checker_ok = workload.check(corrupt(output), codes, self.reference[i]) is not None
        return elapsed if ok else None

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "checker_ok": self.checker_ok,
        }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args()

    before = reference_s()
    t0 = time.perf_counter()
    import cuplength  # noqa: F401
    import cuplength.cli as cli

    kind = WORKLOADS[args.workload]
    instances = [kind(args.seed, i) for i in range(kind.instances)]
    workdirs = [os.path.join(args.workdir, f"in{i}") for i in range(kind.instances)]
    for workload, workdir in zip(instances, workdirs):
        workload.load(cli, workdir)
    setup_raw_s = time.perf_counter() - t0
    if args.mode == "setup":
        scale = REFERENCE_NOMINAL_S / ((before + reference_s()) / 2)
        print(json.dumps({
            "setup_scaled_s": setup_raw_s * scale,
            "setup_raw_s": setup_raw_s,
            "peak_rss_mb": _peak_rss_mb(),
        }))
        return 0

    jobs = Jobs(instances, cli, workdirs)
    jobs.run(0)  # warm-up: the first job in a process runs slower
    out: dict = {}
    if args.mode == "run":
        # cycle over the instances until --seconds have passed and each ran
        # once; time the reference loop between jobs, so each job is scaled
        # by the mean of the one just before and the one just after it
        raw: list[list[float]] = [[] for _ in instances]
        scaled: list[list[float]] = [[] for _ in instances]
        refs = [reference_s()]
        start = time.perf_counter()
        done = 0
        while done < len(instances) or time.perf_counter() - start < args.seconds:
            i = done % len(instances)
            elapsed = jobs.run(i)
            refs.append(reference_s())
            if elapsed is not None:
                raw[i].append(elapsed)
                scaled[i].append(elapsed * REFERENCE_NOMINAL_S / ((refs[-2] + refs[-1]) / 2))
            done += 1
        out["wall_scaled_s"] = scaled
        out["wall_raw_s"] = raw
        out["ref_s"] = refs
    else:
        # traced runs use instance 0 only, so per-layer counts repeat exactly
        trace = tracer.Tracer()
        plain, traced, per_job = [], [], []
        counters: dict = {}

        def under_trace(job):
            result, counters["last"] = trace.run_job(job)
            return result

        start = time.perf_counter()
        while True:
            elapsed = jobs.run(0)
            if elapsed is not None:
                plain.append(elapsed)
            elapsed = jobs.run(0, under_trace)
            if elapsed is not None:
                traced.append(elapsed)
                per_job.append(counters["last"])
            if time.perf_counter() - start >= args.seconds:
                break
        if not traced or not plain:
            out["layers"] = None
        else:
            memory: dict = {}

            def under_tracemalloc(job):
                result, found = tracer.memory_job(job)
                memory.update(found)
                return result

            jobs.run(0, under_tracemalloc)
            layers = tracer.median_metrics([tracer.layer_metrics(c) for c in per_job])
            layers.update(memory)
            layers["job.untraced_s"] = statistics.median(plain)
            layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
            layers["functions.candidates"] = instances[0].candidate_count()
            out["layers"] = layers
            out["never_called"] = tracer.never_called(args.workload, per_job[-1])
            out["samples"] = {"untraced": len(plain), "traced": len(traced)}
            with open(os.path.join(args.workdir, "spans.json"), "w", encoding="utf-8") as fh:
                json.dump(trace.span_records(), fh)
    out.update(jobs.summary())
    out["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
