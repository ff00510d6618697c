"""Compute the sha256 goldens of the workloads' outputs and store them.

    python3 perfbench/goldens.py --seeds 0-10,1000

Runs every instance's job of every workload that has goldens (all but
oracle_check, whose job checks itself) for each seed, in this process with
the program's ``src`` on the path, and checks each output against the
workload's invariants.  An output that differs from a golden already in
goldens.json is an error unless --replace is given, so the script can also
re-confirm stored goldens.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
os.environ.pop("CUPLENGTH_THREADS", None)

import workloads  # noqa: E402
from sweep import parse_seeds  # noqa: E402
from worker import run_job  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="0-10,1000")
    ap.add_argument("--replace", action="store_true")
    args = ap.parse_args()

    from cuplength import cli

    stored = workloads._load_goldens()
    workdir = os.path.join(os.path.dirname(HERE), ".perfbench_work", "goldens")
    status = 0
    for name, kind in workloads.WORKLOADS.items():
        if name not in stored:
            continue
        for seed in parse_seeds(args.seeds):
            digests = []
            for i in range(kind.instances):
                w = kind(seed, i)
                w.golden = None
                d = os.path.join(workdir, f"{name}-{seed}-{i}")
                w.write_inputs(d)
                output, codes = run_job(cli, w.argvs(d))
                reason = w.check(output, codes, None)
                if reason is not None:
                    print(f"{name} seed {seed} instance {i}: {reason}", file=sys.stderr)
                    return 1
                digests.append(workloads.sha256(output))
            old = stored[name].get(str(seed))
            if old is not None and old != digests and not args.replace:
                print(f"{name} seed {seed}: outputs differ from the stored goldens", file=sys.stderr)
                status = 1
                continue
            stored[name][str(seed)] = digests
            print(f"{name} seed {seed}: {'confirmed' if old == digests else 'stored'}", flush=True)
    with open(workloads.GOLDENS_FILE, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
