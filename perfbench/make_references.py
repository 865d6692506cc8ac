"""Regenerate ``references.json``: output summaries for the benchmark's seeds.

    python3 perfbench/make_references.py [--seeds 0-23]

Runs each workload once per seed through ``worker.py`` (invariant checks
on, no reference) and stores every job's numeric summary.  ``bounds`` does
not depend on the seed, so bounds_residual is stored once under "*".
Run this only when a change is meant to alter the program's outputs, and
say so in the change.
"""

import argparse
import json
import subprocess
import sys

from run import HERE, REFERENCES, child_env
from workloads import WORKLOADS, plan_jobs, write_configs

SEED_INDEPENDENT = ("bounds_residual",)
DIGITS = 12     # the CSV files carry 12 significant digits
# The worker without a reference file: invariant checks only.
UNCHECKED_WORKER = ("import sys, worker\n"
                    "sys.exit(worker.main(sys.argv[1:], references=None))")


def rounded(value):
    if isinstance(value, dict):
        return {k: rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [rounded(v) for v in value]
    if isinstance(value, float):
        return float(f"{value:.{DIGITS}g}")
    return value


def summaries(workload, seed):
    work_dir = HERE / "work" / f"refs-{workload}-s{seed}"
    _, configs = plan_jobs(workload, seed, work_dir)
    write_configs(configs)
    proc = subprocess.run(
        [sys.executable, "-c", UNCHECKED_WORKER, "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--work-dir", str(work_dir)],
        env=child_env(), cwd=HERE, capture_output=True, text=True, check=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {res['problems']}")
    return res["summaries"]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-23", help="inclusive range a-b")
    args = p.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    table = {}
    for workload in WORKLOADS:
        seeds = ["*"] if workload in SEED_INDEPENDENT else range(lo, hi + 1)
        table[workload] = {
            str(s): summaries(workload, 0 if s == "*" else s) for s in seeds}
        print(f"{workload}: {len(table[workload])} seed(s)", flush=True)
    REFERENCES.write_text(json.dumps(rounded(table), sort_keys=True) + "\n",
                          encoding="utf-8")


if __name__ == "__main__":
    main()
