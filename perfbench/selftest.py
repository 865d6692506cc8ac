"""Self-test of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

1. A tiny-size pass of every workload, untraced and traced, prints every
   metric named in BENCHMARK.json with its unit, and every job passes.
2. A deliberately perturbed reference value makes the output check fail,
   while the stored reference passes.
3. Without the program beside it, the benchmark exits non-zero and prints
   no result.

Exits 0 when all hold.
"""

import json
import shutil
import subprocess
import sys

from run import HERE, REFERENCES, ROOT, child_env
from workloads import plan_jobs, write_configs

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, str(HERE / "run.py")]
PERTURBATION = 1e-5     # relative; 100x the comparison tolerance
# The worker against another reference file, named by the first argument.
PERTURBED_WORKER = (
    "import sys, worker\n"
    "sys.exit(worker.main(sys.argv[2:], references=sys.argv[1]))")


def bench(*args, cwd=ROOT, runner=RUN):
    proc = subprocess.run(runner + [str(a) for a in args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def result(lines):
    return json.loads(lines[-1])


def expect(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def test_tiny_passes():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, lines = bench("--workload", workload, "--seed", 0,
                              "--seconds", 0.5, "--trace", trace, "--tiny")
            expect(rc == 0, f"{workload} trace {trace} exits 0")
            res = result(lines)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{workload} trace {trace} prints every "
                                f"{key} metric with its unit")
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1,
                   f"{workload} trace {trace}: all jobs pass")
            report = "\n".join(lines)
            for name in ("wall_s", "job_p50_s", "job_p95_cal_s", "slowdown",
                         "failed_frac"):
                expect(name in report, f"{workload} report shows {name}")
            if workload.startswith("sim_"):
                expect("rk4_steps_per_s" in report,
                       f"{workload} report shows rk4_steps_per_s")


def test_perturbed_reference_fails():
    args = ("--workload", "design_scan", "--seed", 0, "--seconds", 0,
            "--trace", 0)
    rc, lines = bench(*args)
    res = result(lines)
    expect(rc == 0 and res["correct"] and res["failed"] == 0,
           "stored reference passes")

    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    job = refs["design_scan"]["0"]["p000"]["tune"]
    job["K_norm"] *= 1.0 + PERTURBATION
    work_dir = HERE / "work" / "perturbed"
    path = work_dir / "perturbed_references.json"
    _, configs = plan_jobs("design_scan", 0, work_dir)
    write_configs(configs)
    path.write_text(json.dumps(refs), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", PERTURBED_WORKER, str(path)]
        + [str(a) for a in args] + ["--work-dir", str(work_dir)],
        env=child_env(), cwd=HERE, capture_output=True, text=True,
        timeout=300)
    res = result(proc.stdout.strip().splitlines())
    expect(proc.returncode == 0 and res["failed"] >= 1,
           "perturbed reference makes the output check fail")
    expect(any("K_norm" in problem for problem in res["problems"]),
           "the failure names the perturbed value")
    shutil.rmtree(work_dir)


def test_no_program_fails():
    bare = HERE / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    rc, lines = bench("--workload", "sim_long", "--seed", 0, "--seconds", 1,
                      "--trace", 0, cwd=bare,
                      runner=[sys.executable, f"{HERE.name}/run.py"])
    expect(rc != 0, "without the program the benchmark exits non-zero")
    expect(not any(line.startswith("{") for line in lines),
           "without the program no result is printed")
    shutil.rmtree(bare)


if __name__ == "__main__":
    test_tiny_passes()
    test_perturbed_reference_fails()
    test_no_program_fails()
    print("selftest passed")
