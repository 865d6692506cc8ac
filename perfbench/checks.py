"""Output checks that survive reordered floating-point arithmetic.

Every job is checked for its exit code and for invariants that hold for any
seed.  For seeds with stored reference values (``references.json``) the
job's numeric summary is also compared with a relative tolerance.  No check
compares bytes: a change that reorders sums (blocked propagation, batched
RK4) moves results by ~1e-12 relative and must still pass.
"""

import csv
import math
import re

import numpy as np

from piezobeam.analysis import build_bound_report
from piezobeam.config import load_config
from piezobeam.modal import residual_block
from piezobeam.synthesis import radial_pole_targets

# Reference comparison; far above reordering noise (~1e-12 for simulation,
# ~1e-10 for N = 20 pole placement), far below any change of meaning.
REL_TOL = 1e-7
# Spectrum of A - BK / A - LC against the placement targets.
ROUND_TRIP_TOL = 1e-6
# Fitted log-log slope of the residual-mode amplitudes (structural damping).
DECAY_EXPONENT = -2.0
DECAY_EXPONENT_TOL = 0.05
# Every workload is chosen so that every CLI call succeeds.
EXPECTED_RC = 0

TIMESERIES = ("t", "norm_e", "norm_z", "V", "y", "norm_residual")


class Prepared:
    """Per-config facts computed once, before timing and tracing start.

    Computing them later would call into traced layers and charge the
    checker's work to the program.
    """

    def __init__(self, config_path, commands):
        self.config = cfg = load_config(config_path)
        self.system = cfg.build_system()
        if "simulate" in commands:
            gains = cfg.build_gains(self.system)
            report = build_bound_report(self.system, gains, cfg.F_bound,
                                        cfg.eps_bound)
            self.kappa_L = report.kappa_L
            self.lambda_L = gains.lambda_L
            self.L_norm = gains.L_norm
            block = residual_block(cfg.params, cfg.placement, cfg.N,
                                   cfg.sim.residual_modes, cfg.damping)
            self.c_res_norm = float(np.linalg.norm(block.C)) if block.R else 0.0


def _read_table(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _check_simulate(prep, stdout, out_dir):
    cfg = prep.config
    m = re.search(r"\((\d+) rows, dt = ([^)]+)\)", stdout)
    if m is None:
        return "simulate printed no row count", None
    rows, dt = int(m.group(1)), float(m.group(2))
    steps = max(1, int(round(cfg.sim.t_final / dt)))
    data = np.loadtxt(f"{out_dir}/{cfg.label}_timeseries.csv",
                      delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (steps + 1, len(TIMESERIES)) or rows != steps + 1:
        return f"{data.shape[0]} rows, expected steps + 1 = {steps + 1}", None
    if not np.all(np.isfinite(data)):
        return "non-finite value in the timeseries", None
    if abs(data[-1, 0] - steps * dt) > 1e-9 * max(1.0, steps * dt):
        return f"final time {data[-1, 0]} != steps * dt", None

    # sup ||e|| under the kappa_L-qualified error bound.  The measurement
    # disturbance is noise plus residual-mode spillover C_res z_res, and
    # |C_res z_res| <= ||C_res|| ||z_res||, a column of the CSV.
    eps = cfg.noise.bound + prep.c_res_norm * float(np.max(data[:, 5]))
    t, norm_e = data[:, 0], data[:, 1]
    bound = prep.kappa_L * (
        np.exp(-prep.lambda_L * t) * norm_e[0]
        + (cfg.F_bound + prep.L_norm * eps) / prep.lambda_L)
    excess = float(np.max(norm_e / bound))
    if excess > 1.0 + 1e-9:
        return f"sup ||e|| exceeds kappa_L x error bound ({excess:.6g})", None

    summary = {"rows": int(data.shape[0]),
               "max_abs": np.max(np.abs(data), axis=0).tolist(),
               "mean_abs": np.mean(np.abs(data), axis=0).tolist()}
    return None, summary


def _check_bounds(prep, stdout, out_dir):
    cfg = prep.config
    m = re.search(r"simulated decay exponent:\s+(\S+)", stdout)
    if m is None:
        return "bounds printed no decay exponent", None
    exponent = float(m.group(1))
    if abs(exponent - DECAY_EXPONENT) > DECAY_EXPONENT_TOL:
        return f"decay exponent {exponent} not within {DECAY_EXPONENT_TOL} " \
               f"of {DECAY_EXPONENT}", None
    _, bound_rows = _read_table(f"{out_dir}/{cfg.label}_bounds.csv")
    _, res_rows = _read_table(f"{out_dir}/{cfg.label}_residual.csv")
    if len(res_rows) != max(cfg.sim.residual_modes, 1):
        return f"{len(res_rows)} residual rows, expected " \
               f"{cfg.sim.residual_modes}", None
    values = [float(v) for row in res_rows for v in row[1:3]]
    values += [float(v) for _, v in bound_rows]
    if not all(math.isfinite(v) for v in values):
        return "non-finite value in the bound tables", None
    summary = {"decay_exponent": exponent,
               "bounds": {name: float(v) for name, v in bound_rows},
               "amplitude_bound": [float(r[1]) for r in res_rows],
               "simulated_sup": [float(r[2]) for r in res_rows]}
    return None, summary


def _check_check(prep, stdout, out_dir):
    if "observable:   True" not in stdout or "controllable: True" not in stdout:
        return "placement check did not report observable and controllable", \
            None
    return None, None


def _check_tune(prep, stdout, out_dir):
    cfg, system = prep.config, prep.system
    _, rows = _read_table(f"{out_dir}/{cfg.label}_gains.csv")
    values = {name: float(v) for name, v in rows}
    n = 2 * cfg.N
    K = np.array([values[f"K_{i}"] for i in range(n)])
    L = np.array([values[f"L_{i}"] for i in range(n)])
    # Round trip: the written gains must place the spectra that the tuned
    # decay rates name, under the documented target pattern.
    for name, lam, M in (
        ("A - BK", values["lambda_K"], system.A - np.outer(system.B, K)),
        ("A - LC", values["lambda_L"], system.A - np.outer(L, system.C)),
    ):
        got = np.sort_complex(np.linalg.eigvals(M))
        want = np.sort_complex(radial_pole_targets(system.A, lam))
        err = float(np.max(np.abs(got - want) / np.abs(want)))
        if not err <= ROUND_TRIP_TOL:
            return f"eig({name}) misses its targets by {err:.3g} relative", \
                None
    summary = {k: values[k] for k in
               ("lambda_L", "lambda_K", "K_norm", "L_norm")}
    return None, summary


CHECKS = {"simulate": _check_simulate, "bounds": _check_bounds,
          "check": _check_check, "tune": _check_tune}


def check_step(step, rc, stdout, out_dir, prep):
    """Return (problem or None, numeric summary or None) for one CLI call."""
    if rc != EXPECTED_RC:
        return f"{step.command}: exit code {rc}, expected {EXPECTED_RC}", None
    try:
        problem, summary = CHECKS[step.command](prep, stdout, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"{step.command}: unreadable output ({exc!r})", None
    return (f"{step.command}: {problem}" if problem else None), summary


def compare(summary, reference, path=""):
    """Mismatches between a summary and its reference, as messages."""
    if isinstance(reference, dict):
        if not isinstance(summary, dict) or summary.keys() != reference.keys():
            return [f"{path}: keys differ from the reference"]
        out = []
        for key in reference:
            out += compare(summary[key], reference[key], f"{path}/{key}")
        return out
    if isinstance(reference, list):
        if not isinstance(summary, list) or len(summary) != len(reference):
            return [f"{path}: length differs from the reference"]
        out = []
        for i, (s, r) in enumerate(zip(summary, reference)):
            out += compare(s, r, f"{path}[{i}]")
        return out
    if isinstance(reference, int) and not isinstance(reference, bool):
        return [] if summary == reference else [
            f"{path}: {summary} != reference {reference}"]
    if summary is None or not math.isclose(summary, reference,
                                           rel_tol=REL_TOL, abs_tol=0.0):
        return [f"{path}: {summary} != reference {reference} "
                f"(rel tol {REL_TOL})"]
    return []
