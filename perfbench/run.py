"""Benchmark of the cuplength command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload vr_cloud --seed 0 --seconds 18 --trace 0

Each workload (see workloads.py and README.md) builds its input files from
the seed under .perfbench_work/, then runs one CLI job at a time, in process
through ``cuplength.cli.main`` and single-threaded, in fresh child processes
that import the program from ``src/`` with CUPLENGTH_THREADS removed:

  --trace 0  several set-up probes (import and parse only), then one process
             that warms up and times untraced jobs for --seconds; prints
             wall_s (median job), peak_rss_mb and setup_s (median probe).
             A time named in the workload's ``scaled`` is scaled to a
             nominal host speed by a fixed reference loop timed next to it
             (worker.REFERENCE_NOMINAL_S), the others are raw; the record
             holds both.
  --trace 1  one process that alternates untraced and traced jobs for
             --seconds, then runs one untimed job for sizes and allocation
             peaks; prints the per-layer metrics and writes the spans.

Every job's output is checked and failures are counted, not raised.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the run record (seed,
Python version, nproc, git commit, samples, failed_frac), which is also
written next to the inputs.  Exits 0 when every output was correct, 1 when
one was not or a child process failed, and 2 when the program's sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 11  # measured set-up processes per run, after one unmeasured
DEADLINE_S = 170.0  # a run ends well within 180 s


def git_commit(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CUPLENGTH_THREADS", None)  # the product loop takes its serial path
    env["PYTHONPATH"] = SRC
    return env


def run_worker(args, workdir: str, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--workdir", workdir,
        "--mode", mode,
        "--seconds", str(args.seconds),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError(f"no time left for the {mode} process")
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=remaining
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=18)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "cuplength", "cli.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2

    kind = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-seed{args.seed}")
    inputs = [kind(args.seed, i) for i in range(kind.instances)]
    for i, workload in enumerate(inputs):
        workload.write_inputs(os.path.join(workdir, f"in{i}"))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "instances": kind.instances,
        "golden": all(w.golden is not None for w in inputs),
    }
    try:
        if args.trace == 0:
            run_worker(args, workdir, "setup", deadline)  # fills the bytecode cache
            probes = [run_worker(args, workdir, "setup", deadline) for _ in range(SETUP_PROBES)]
            out = run_worker(args, workdir, "run", deadline)
            if not any(out["wall_raw_s"]):
                raise RuntimeError(f"no job succeeded: {out['failures']}")

            def per_instance_median(lists):
                # median job of each instance, then the median over instances;
                # an instance whose jobs all failed is counted in failed only
                return statistics.median(statistics.median(v) for v in lists if v)

            for how in ("raw", "scaled"):
                record[f"wall_{how}_s"] = per_instance_median(out[f"wall_{how}_s"])
                record[f"setup_{how}_s"] = statistics.median(p[f"setup_{how}_s"] for p in probes)
            record["scaled"] = list(kind.scaled)
            values = {
                "wall_s": record["wall_scaled_s" if "wall_s" in kind.scaled else "wall_raw_s"],
                "peak_rss_mb": out["peak_rss_mb"],
                "setup_s": record["setup_scaled_s" if "setup_s" in kind.scaled else "setup_raw_s"],
            }
            record["setup_peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in probes)
            record["samples"] = {"wall_s": sum(map(len, out["wall_raw_s"])), "setup_s": len(probes)}
            record["wall_raw_s_all"] = out["wall_raw_s"]
            record["ref_s_all"] = out["ref_s"]
            record["setup_raw_s_all"] = [p["setup_raw_s"] for p in probes]
        else:
            out = run_worker(args, workdir, "trace", deadline)
            if out["layers"] is None:
                raise RuntimeError(f"no traced job succeeded: {out['failures']}")
            values = out["layers"]
            record["samples"] = out["samples"]
            record["never_called"] = out["never_called"]
            record["spans"] = os.path.relpath(os.path.join(workdir, "spans.json"), ROOT)
        declared = declared_metrics(args.trace)
        if set(values) != set(declared):
            raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(declared))}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    correct = out["failed"] == 0 and out["checker_ok"] and not out.get("never_called")
    record.update(
        attempted=out["attempted"],
        failed=out["failed"],
        failed_frac=out["failed"] / out["attempted"],
        failures=out["failures"],
        checker_ok=out["checker_ok"],
        correct=correct,
    )
    with open(os.path.join(workdir, f"record-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({**record, "metrics": metrics}, fh, indent=1)
    print("perfbench: " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
