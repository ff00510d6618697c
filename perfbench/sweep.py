"""Run the benchmark over several seeds, summarise the spreads, write a baseline.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads vr_cloud,...]
                               [--sets A,B] [--out perfbench/baseline.json]

For each named set in turn, runs run.py once per workload and seed, one run
at a time, and prints for each end-to-end metric the median over seeds and
the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound in BENCHMARK.json; the raw and the scaled times are
summarised the same way.  With two or more sets it then prints how far each
median moved from the first set.  With --out it also makes one traced run
per workload at seed TRACE_SEED and writes everything in the layout of
baseline.json, rewriting the file after every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACE_SEED = 0  # instance 0 of seed 0 is the reference input of README.md
TIMINGS = ("wall_raw_s", "wall_scaled_s", "setup_raw_s", "setup_scaled_s", "setup_peak_rss_mb")


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return {"exit": proc.returncode, "stderr": proc.stderr.strip()[-500:]}
    return {
        "exit": proc.returncode,
        "record": json.loads(lines[-2].split(": ", 1)[1]),
        "result": json.loads(lines[-1]),
    }


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "spread": (q3 - q1) / med, "n": len(values)}


def summarise_set(runs: list[dict], metrics: list[dict]) -> dict:
    """One set's runs of one workload, in the layout of baseline.json."""
    good = [r for r in runs if "result" in r]
    values = {m["name"]: [r["result"]["metrics"][m["name"]]["value"] for r in good] for m in metrics}
    timings = {k: [r["record"][k] for r in good] for k in TIMINGS}
    first = good[0]["record"] if good else {}
    out = {
        "summary": {},
        "values": values,
        "timings": {},
        "scaled": first.get("scaled"),
        "seeds": [r["seed"] for r in runs],
        "exits": [r["exit"] for r in runs],
        "commit": first.get("commit"),
        "python": first.get("python"),
        "nproc": first.get("nproc"),
        "attempted": sum(r["record"]["attempted"] for r in good),
        "failed": sum(r["record"]["failed"] for r in good),
    }
    if len(good) >= 2:
        for m in metrics:
            out["summary"][m["name"]] = {**spread(values[m["name"]]), "bound": m["bound"]}
        for k, v in timings.items():
            out["timings"][k] = {**spread(v), "values": v}
    return out


def print_set(name: str, workload: str, summary: dict) -> None:
    for metric, s in {**summary["summary"], **summary["timings"]}.items():
        bound = s.get("bound", "-")
        print(f"  {name} {workload:15s} {metric:18s} median={s['median']:.6g} "
              f"spread={s['spread']:.3f} bound={bound} n={s['n']}", flush=True)


def print_moves(sets: dict) -> None:
    """How far each median moved from the first set, workload by workload."""
    names = list(sets)
    first = sets[names[0]]
    for workload in first:
        for metric in list(first[workload]["summary"]) + list(first[workload]["timings"]):
            base = {**first[workload]["summary"], **first[workload]["timings"]}[metric]["median"]
            moves = []
            for name in names[1:]:
                other = sets[name].get(workload, {})
                s = {**other.get("summary", {}), **other.get("timings", {})}.get(metric)
                if s:
                    moves.append(f"{name}/{names[0]}-1={s['median'] / base - 1:+.3f}")
            print(f"  {workload:15s} {metric:18s} " + " ".join(moves))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--sets", default="A")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    report = {
        "how": (f"python3 perfbench/sweep.py --seeds {args.seeds} --workloads {args.workloads} "
                f"--sets {args.sets} --seconds {args.seconds} --out <this file>"),
        "run_seconds": args.seconds,
        "sets": {},
        f"trace_seed{TRACE_SEED}": {},
    }

    def save() -> None:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=1)
                fh.write("\n")

    ok = True
    for name in args.sets.split(","):
        report["sets"][name] = {}
        for workload in workloads:
            runs = []
            for seed in parse_seeds(args.seeds):
                run = one_run(workload, seed, args.seconds, 0)
                runs.append({"seed": seed, **run})
                correct = run.get("result", {}).get("correct")
                ok = ok and run["exit"] == 0 and bool(correct)
                print(f"{name} {workload} seed={seed} exit={run['exit']} correct={correct}", flush=True)
            report["sets"][name][workload] = summarise_set(runs, spec["end_to_end"])
            print_set(name, workload, report["sets"][name][workload])
            save()
    if len(report["sets"]) >= 2:
        print_moves(report["sets"])
    if args.out:
        for workload in workloads:
            run = one_run(workload, TRACE_SEED, args.seconds, 1)
            ok = ok and run["exit"] == 0 and bool(run.get("result", {}).get("correct"))
            rec = run.get("record", {})
            report[f"trace_seed{TRACE_SEED}"][workload] = {
                "exit": run["exit"],
                "metrics": {k: v["value"] for k, v in run.get("result", {}).get("metrics", {}).items()},
                **{k: rec.get(k) for k in ("samples", "never_called", "commit", "attempted", "failed")},
            }
            print(f"trace {workload} seed={TRACE_SEED} exit={run['exit']}", flush=True)
            save()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
