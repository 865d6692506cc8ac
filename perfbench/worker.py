"""Benchmark child process: runs one workload's jobs and checks every output.

Started by ``run.py`` with the program's ``src`` on PYTHONPATH and BLAS
pinned to one thread.  Each job goes through the public CLI entry point,
``piezobeam.cli.main``, on the generated YAML configs.  Jobs repeat in
rounds (one round = the workload's whole job list) until the timed CLI
time reaches the budget; output checks run between jobs, outside the
timed region.  The reference loop of ``calib.py`` is sampled inside the
timed calls, and its passes are taken out of the job times.  Prints one JSON object on
its last stdout line.

With ``--trace 1`` the budget is split: an untraced pass, then a pass with
the layer wrappers of ``tracer.py`` installed.
"""

import argparse
import contextlib
import io
import json
import re
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import calib
import piezobeam
import piezobeam.cli as cli
from checks import Prepared, check_step, compare
from run import REFERENCES, job_medians
from tracer import COUNT_METRICS, TIME_METRICS, Tracer
from workloads import plan_jobs

ROWS = re.compile(r"\((\d+) rows, dt = ")


def run_job(job, sampler):
    """Run the job's CLI calls; (timed seconds, [(rc, stdout)]).

    The time of the reference-loop passes that ``sampler`` ran inside the
    calls is taken out.
    """
    elapsed = 0.0
    results = []
    for step in job.steps:
        argv = [step.command, "--config", step.config, "--out", job.out_dir]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            spent = sampler.spent
            t0 = time.perf_counter()
            sampler.timing = True
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a traceback is a failed job, not a crash
                rc = f"{type(exc).__name__}: {exc}"
            finally:
                sampler.timing = False
            elapsed += time.perf_counter() - t0 - (sampler.spent - spent)
        results.append((rc, out.getvalue() + err.getvalue()))
    return elapsed, results


def coupled_steps(stdout):
    """RK4 steps of a simulate call: CSV rows - 1, as the CLI reports them."""
    m = ROWS.search(stdout)
    return int(m.group(1)) - 1 if m else 0


class Runner:
    """Runs rounds of a job list, checking outputs and counting failures."""

    def __init__(self, jobs, references):
        self.jobs = jobs
        self.references = references or {}
        self.preps = {s.config: Prepared(s.config, [x.command for x in j.steps])
                      for j in jobs for s in j.steps}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.summaries = {}

    def run_checked(self, job, sampler, tracer=None, key=None):
        if tracer is not None:
            tracer.job = key
        elapsed, results = run_job(job, sampler)
        if tracer is not None:
            tracer.job = None
        self.attempted += 1
        problems, steps = [], 0
        summaries = {}
        for step, (rc, stdout) in zip(job.steps, results):
            problem, summary = check_step(step, rc, stdout, job.out_dir,
                                          self.preps[step.config])
            if problem:
                problems.append(problem)
            elif summary is not None:
                summaries[step.command] = summary
            if rc == 0:
                steps += coupled_steps(stdout)
        ref = self.references.get(job.id)
        if not problems and ref is not None:
            problems += compare(summaries, ref, job.id)
        self.summaries.setdefault(job.id, summaries)
        if problems:
            self.failed += 1
            self.problems += problems[:3]
        return elapsed, steps

    def run_pass(self, budget, tracer=None, tag=""):
        """Rounds of the job list until the timed time reaches ``budget``.

        Returns the job times of each round, each round's slowdown and the
        coupled RK4 steps.  The reference loop is sampled inside the timed
        CLI calls; a round's slowdown comes from the samples taken during
        it, or from one taken at its end when it had none.
        """
        rounds, slowdowns, steps, timed = [], [], 0, 0.0
        with calib.Sampler() as sampler:
            while not rounds or timed < budget:
                first = len(sampler.samples)
                times = []
                for job in self.jobs:
                    key = f"{tag}{len(rounds)}:{job.id}"
                    elapsed, n = self.run_checked(job, sampler, tracer, key)
                    times.append(elapsed)
                    steps += n
                    timed += elapsed
                if len(sampler.samples) == first:
                    sampler.sample()
                rounds.append(times)
                slowdowns.append(sampler.slowdown(first))
        return rounds, slowdowns, steps


def layer_metrics(tracer, jobs, rounds, tag, problems):
    """Median over rounds of each layer's self time; counts per round.

    A count that differs between rounds of the same job list is reported
    as a problem: counts must repeat exactly.
    """
    per_round = []
    for r in range(len(rounds)):
        keys = [f"{tag}{r}:{job.id}" for job in jobs]
        per_round.append(tracer.layer_totals(keys))
    out = {}
    for name in TIME_METRICS:
        out[name] = statistics.median(t[name] for t, _ in per_round)
    for name in COUNT_METRICS:
        values = [c[name] for _, c in per_round]
        if len(set(values)) != 1:
            problems.append(f"count {name} differs between rounds: {values}")
        out[name] = values[0]
    step_us = [t["simulate.propagate_s"] / c["simulate.steps"] * 1e6
               for t, c in per_round if c["simulate.steps"]]
    out["simulate.step_us"] = statistics.median(step_us) if step_us else 0.0
    return out


def blas_version():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f'{deps["blas"]["name"]} {deps["blas"]["version"]}'
    except (KeyError, TypeError):
        return "unknown"


def load_references(path, workload, seed):
    """The stored summaries for one workload and seed, or None."""
    if path is None:
        return None
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh).get(workload, {})
    return table.get(str(seed), table.get("*"))


def main(argv=None, references=REFERENCES):
    """Run one workload; ``references`` is the summary file to compare
    against (None: invariant checks only, as make_references.py needs)."""
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    jobs, _ = plan_jobs(args.workload, args.seed, args.work_dir, args.tiny)
    if args.tiny:
        references = None
    else:
        references = load_references(references, args.workload, args.seed)
    runner = Runner(jobs, references)

    result = {
        "program": str(Path(piezobeam.__file__).resolve().parent),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_version(),
        "reference": "compared" if references is not None else "none",
    }
    budget = args.seconds / 2 if args.trace else args.seconds
    rounds, slowdowns, steps = runner.run_pass(budget)
    result.update(rounds=rounds, slowdowns=slowdowns, steps=steps)
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_slowdowns, _ = runner.run_pass(budget, tracer,
                                                          tag="t")
        finally:
            tracer.uninstall()
        tracer.dump(Path(args.work_dir) / "trace.json")
        problems = []
        layers = layer_metrics(tracer, jobs, traced, "t", problems)
        runner.failed += len(problems)
        runner.problems += problems
        layers["trace.overhead_frac"] = (
            sum(job_medians(traced, traced_slowdowns))
            / sum(job_medians(rounds, slowdowns)) - 1)
        result["layers"] = layers

    result.update(
        attempted=runner.attempted, failed=runner.failed,
        problems=runner.problems[:10], summaries=runner.summaries,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
