"""Seeded workload generator: turns (workload, seed) into job lists and YAML.

The program under test only ever sees the YAML files written here.  The
seed decides noise and initial-state seeds (simulate workloads) and the
drawn placements (design_scan); everything else is fixed per workload, so
the cost of a job list does not depend on the seed.

This module imports no part of the program and no NumPy, so the parent
process stays small.
"""

import random
from dataclasses import dataclass
from pathlib import Path

import yaml

WORKLOADS = ("sim_long", "sim_wide", "bounds_residual", "design_scan")

# design_scan: placements per retained-mode count.  Equal thirds put the job
# median inside the N = 10 cluster and the 95th percentile inside N = 20.
DESIGN_N = (3, 10, 20)
DESIGN_PER_N = 20
DESIGN_X2 = (0.05, 0.5)
DESIGN_X0 = (0.02, 0.98)


@dataclass(frozen=True)
class Step:
    command: str        # CLI subcommand
    config: str         # path of the YAML config file


@dataclass(frozen=True)
class Job:
    """One timed unit: a sequence of CLI invocations with one output dir."""

    id: str
    steps: tuple
    out_dir: str


def _seeds(rng):
    """(noise seed, initial-state seed) drawn from the workload's stream."""
    return rng.getrandbits(32), rng.getrandbits(32)


def job_configs(workload, seed, tiny=False):
    """List of (job id, [commands], config mapping) for one workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sim_long":
        noise, sim = _seeds(rng)
        cfg = {"preset": "fig1", "noise": {"seed": noise},
               "sim": {"seed": sim, "t_final": 0.5 if tiny else 48.0}}
        return [("fig1_long", ["simulate"], cfg)]
    if workload == "sim_wide":
        noise, sim = _seeds(rng)
        cfg = {"label": "wide", "N": 20, "noise": {"seed": noise},
               "placement": {"x2": 0.1037, "x0": 0.0951},
               "sim": {"seed": sim, "dt": None,
                       "t_final": 0.002 if tiny else 0.1,
                       "residual_modes": 60}}
        return [("wide", ["simulate"], cfg)]
    if workload == "bounds_residual":
        # bounds reads neither seed; they are set so every workload's
        # configs come from its seed the same way.
        noise, sim = _seeds(rng)
        cfg = {"preset": "fig7", "noise": {"seed": noise},
               "sim": {"seed": sim, "residual_modes": 6 if tiny else 40}}
        return [("fig7_bounds", ["bounds"], cfg)]
    if workload == "design_scan":
        jobs = []
        per_n = 1 if tiny else DESIGN_PER_N
        for i in range(per_n * len(DESIGN_N)):
            label = f"p{i:03d}"
            cfg = {"label": label, "N": DESIGN_N[i % len(DESIGN_N)],
                   "placement": {"x2": rng.uniform(*DESIGN_X2),
                                 "x0": rng.uniform(*DESIGN_X0)}}
            jobs.append((label, ["check", "tune"], cfg))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def plan_jobs(workload, seed, work_dir, tiny=False):
    """The workload's jobs and their config mappings, keyed by config path."""
    work_dir = Path(work_dir)
    jobs, configs = [], {}
    for job_id, commands, cfg in job_configs(workload, seed, tiny):
        path = str(work_dir / "configs" / f"{job_id}.yaml")
        configs[path] = cfg
        steps = tuple(Step(c, path) for c in commands)
        jobs.append(Job(job_id, steps, str(work_dir / "out" / job_id)))
    return jobs, configs


def write_configs(configs):
    """Write each config mapping to its YAML path."""
    for path, cfg in configs.items():
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(yaml.safe_dump(cfg, sort_keys=True), encoding="utf-8")
