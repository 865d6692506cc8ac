"""piezobeam benchmark: one workload, end-to-end metrics or per-layer trace.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Generates the workload's YAML configs from the seed
under ``perfbench/work/``, times ``setup_s`` on fresh processes, then runs
the workload in one child process (``worker.py``) with BLAS pinned to one
thread.  Gated times are calibrated against the reference loop of
``calib.py``.  Prints a readable report, then, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

Exits non-zero without a result when the checkout holds no program or the
child fails or overruns.
"""

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import MOVES
from workloads import WORKLOADS, plan_jobs, write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
SETUP_REPEATS = 7

# One fresh interpreter: import the CLI and load the first config, then,
# outside the timed part, read the reference loop (calib.py, whose directory
# is the second argument) and print the slowdown.
SETUP_PROBE = (
    "import sys\n"
    "import piezobeam.cli\n"
    "piezobeam.cli.load_config(sys.argv[1])\n"
    "print('ready', flush=True)\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import calib\n"
    "print(calib.reading())\n"
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # One process on a two-core box: pin BLAS so its threads do not
    # compete with the interpreter and with each other.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PIEZOBEAM_OUT", None)
    return env


def deadline(seconds):
    """Time allowed for the whole run: set-up probes, the measured budget
    (twice over, for the last job's overshoot and the output checks)."""
    return 2 * seconds + 60


def remaining(until):
    """Seconds left before the monotonic time ``until``; raises at zero."""
    left = until - time.monotonic()
    if left <= 0:
        raise subprocess.TimeoutExpired("benchmark", 0)
    return left


def finish(proc, until):
    """Wait for ``proc`` within the deadline; kill it if it overruns."""
    try:
        out, _ = proc.communicate(timeout=remaining(until))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return out


def setup_seconds(config, env, until):
    """Calibrated set-up time: the median over SETUP_REPEATS fresh
    processes of the time to ready divided by the process's slowdown.

    Each probe is timed until its 'ready' line arrives, so the reference
    loop and interpreter teardown after it do not count.  Also returns the
    raw times.
    """
    raw, calibrated = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE, config, str(HERE)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        ready = None
        try:
            if select.select([proc.stdout], [], [], remaining(until))[0]:
                if proc.stdout.readline().strip() == "ready":
                    ready = time.perf_counter() - t0
        finally:
            rest = finish(proc, until)
        if proc.returncode != 0 or ready is None:
            raise RuntimeError(
                f"set-up probe failed with code {proc.returncode}")
        raw.append(ready)
        calibrated.append(ready / float(rest.split()[-1]))
    return statistics.median(calibrated), raw


def run_worker(args, work_dir, env, until, tiny):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    out = finish(proc, until)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def cpu_ticks():
    """Whole-machine CPU ticks from /proc/stat: (total, steal, iowait)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields), fields[7], fields[4]


def contention(before, after):
    """Steal and iowait shares of the machine's ticks between two readings,
    and the 1-minute load average at the end: information beside the
    timings, read from files only."""
    if before is None or after is None:
        return "unavailable"
    total = max(after[0] - before[0], 1)
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            load = fh.read().split()[0]
    except OSError:
        load = "?"
    return (f"steal {(after[1] - before[1]) / total:.3f}  "
            f"iowait {(after[2] - before[2]) / total:.3f}  loadavg {load}")


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def job_medians(rounds, slowdowns):
    """Each job's median over the rounds of its time divided by its
    round's slowdown."""
    return [statistics.median(t / s for t, s in zip(times, slowdowns))
            for times in zip(*rounds)]


def end_to_end(res, setup_s):
    """Gated metrics and the informational ones printed beside them.

    The gated times are calibrated (``calib.py``): each job time is divided
    by its round's slowdown, and each job is taken at the median of its
    calibrated times over the rounds.  wall_cal_s sums those medians over
    the job list; job_p50_cal_s is their median.  The raw times, taken the
    same way without the division, are printed beside them.
    """
    rounds, slowdowns = res["rounds"], res["slowdowns"]
    per_job = job_medians(rounds, slowdowns)
    raw_per_job = job_medians(rounds, [1.0] * len(rounds))
    samples = [t / s for times, s in zip(rounds, slowdowns) for t in times]
    wall = sum(per_job)
    metrics = {
        "wall_cal_s": (wall, "s"),
        "job_p50_cal_s": (statistics.median(per_job), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "setup_s": (setup_s, "s"),
    }
    p95 = (statistics.quantiles(samples, n=20, method="inclusive")[-1]
           if len(samples) > 1 else samples[0])
    info = {
        "wall_s": (sum(raw_per_job), "s"),
        "job_p50_s": (statistics.median(raw_per_job), "s"),
        "slowdown": (statistics.median(slowdowns), "x"),
        "rounds": (len(rounds), ""),
        "job_samples": (len(samples), ""),
        "job_p95_cal_s": (p95, "s"),
        "jobs_beyond_p95": (sum(t > p95 for t in samples), ""),
        "failed_frac": (res["failed"] / res["attempted"], "ratio"),
    }
    if res["steps"]:
        info["rk4_steps_per_s"] = (res["steps"] / len(rounds) / wall, "1/s")
    return metrics, info


LAYER_UNITS = {"_s": "s", "_us": "us", "_frac": "ratio", "_bytes": "bytes"}


def layer_unit(name):
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None):
    start = time.monotonic()
    p = argparse.ArgumentParser(description="piezobeam benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="shrunken inputs, for the self-test")
    args = p.parse_args(argv)

    if not (SRC / "piezobeam" / "cli.py").is_file():
        print(f"no program at {SRC / 'piezobeam'}; run inside a checkout",
              file=sys.stderr)
        return 2

    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    work_dir = HERE / "work" / (name + ("-tiny" if args.tiny else ""))
    shutil.rmtree(work_dir, ignore_errors=True)
    jobs, configs = plan_jobs(args.workload, args.seed, work_dir, args.tiny)
    write_configs(configs)
    env = child_env()
    until = start + deadline(args.seconds)

    try:
        setup_s, setup_runs = setup_seconds(jobs[0].steps[0].config, env,
                                            until)
        ticks = cpu_ticks()
        res = run_worker(args, work_dir, env, until, args.tiny)
        busy = contention(ticks, cpu_ticks())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    finally:
        # The outputs are checked by now; a sim_long run leaves ~14 MB.
        shutil.rmtree(work_dir / "out", ignore_errors=True)

    metrics, info = end_to_end(res, setup_s)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"record: nproc {os.cpu_count()}  python {res['python']}  "
          f"numpy {res['numpy']}  blas {res['blas']} (1 thread)  "
          f"commit {git_commit()}  src_lines {src_lines()}  "
          f"machine {platform.machine()}")
    print(f"program {res['program']}  reference check: {res['reference']}")
    print(f"machine during the worker: {busy}")
    print("setup runs, raw (s): " + " ".join(f"{t:.4f}" for t in setup_runs))
    for key, (value, unit) in {**metrics, **info}.items():
        print(f"  {key:<18} {value:12.6g} {unit}")
    for problem in res["problems"]:
        print(f"  FAILED: {problem}")

    if args.trace:
        out = {}
        for key, value in res["layers"].items():
            unit = layer_unit(key)
            out[key] = {"value": value, "unit": unit}
            moves = MOVES.get(key, "")
            shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
            print(f"  {key:<28} {shown} {unit:<6} {moves}")
    else:
        out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
