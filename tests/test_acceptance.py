"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the reported figures (attenuation ratio, kappa factors, slopes).
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import piezobeam
from oracles import continuous_eigenvalues, history, modal_energy, static_gain
from piezobeam.analysis import (
    error_bound_curve,
    performance_metrics,
    residual_bounds,
    state_bound_curve,
)
from piezobeam.beam import BeamParams
from piezobeam.cli import main
from piezobeam.config import resolve_config
from piezobeam.modal import Placement, assemble, mode_roots
from piezobeam.signals import NoiseSpec, build_disturbance, constant_disturbance
from piezobeam.simulate import CoupledDynamics, SimConfig, simulate
from piezobeam.synthesis import (
    GainSet,
    ZERO_TOL,
    _block_factors,
    check_placement,
    eigvec_condition,
    place_observer_poles,
    place_poles,
    radial_pole_targets,
    tune_gains,
)
from piezobeam.beam import sin_pi

PARAMS = BeamParams.dimensionless(a1=0.01)
PATCH = Placement(x1=0.0, x2=0.1, x0=0.095)
GRID = [6.0, 10.0, 14.0, 18.0, 24.0, 30.0]
F_BOUND = 11.0 * math.sqrt(3.0)
EPS_BOUND = 0.01


def report(num, name, detail):
    print(f"ACCEPTANCE {num} ({name}): PASS - {detail}")


def fig_run(lam_L, placement=PATCH, N=3):
    system = assemble(PARAMS, N, placement)
    gains = tune_gains(system, F_BOUND, EPS_BOUND, GRID, lambda_L=lam_L)
    cfg = resolve_config({"preset": "fig1"})
    result = simulate(system, gains, cfg.disturbance, cfg.noise, cfg.sim)
    return system, gains, result


@pytest.fixture(scope="module")
def fig1():
    return fig_run(34.0)


@pytest.fixture(scope="module")
def fig2():
    return fig_run(64.0)


# ---------------------------------------------------------------------------
# 1. eigenstructure
# ---------------------------------------------------------------------------

def test_criterion_1_eigenstructure():
    start = time.perf_counter()
    worst = 0.0
    for a1 in (0.01, 0.5, 3.0):
        params = BeamParams(a1=a1, a2=1.0)
        for N in range(1, 6):
            system = assemble(params, N, PATCH)
            got = np.sort_complex(np.linalg.eigvals(system.A))
            want = np.sort_complex(np.array([
                lam for n in range(1, N + 1)
                for lam in continuous_eigenvalues(params, n)
            ]))
            rel = np.max(np.abs(got - want) / np.abs(want))
            worst = max(worst, float(rel))
            assert rel < 1e-8, (a1, N, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    report(1, "eigenstructure", f"max rel err {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. placement verdicts
# ---------------------------------------------------------------------------

def _pbh_rank_ok(system, row_or_col, stacked_rows):
    """Modes whose PBH pencil loses rank (matrix_rank's tol) at their roots.

    The generic Hautus (1969) test, kept here as the reference for the
    per-mode block oracle of ``check_placement``.
    """
    A = system.A
    n = A.shape[0]
    roots = mode_roots(system.params, system.modes, system.damping_model)
    bad = set()
    for mode, *pair in zip(system.modes, *roots):
        for lam in pair:
            pencil = lam * np.eye(n) - A
            if stacked_rows:
                M = np.vstack([pencil, row_or_col[None, :].astype(complex)])
            else:
                M = np.hstack([pencil, row_or_col[:, None].astype(complex)])
            if np.linalg.matrix_rank(M) < n:
                bad.add(int(mode))
    return bad


def test_criterion_2_placement_verdicts():
    start = time.perf_counter()
    N = 3
    modes = np.arange(1, N + 1)
    rationals = sorted({k / n for n in range(1, N + 1) for k in range(1, n)})
    checked = 0
    for i in range(200):
        x0 = (i + 0.5) / 200.0
        if min(abs(x0 - r) for r in rationals) <= 1e-6:
            continue
        system = assemble(PARAMS, N, Placement(0.0, 0.1, x0))
        closed = {int(n) for n in
                  modes[np.abs(sin_pi(modes * x0)) <= ZERO_TOL]}
        pbh = _pbh_rank_ok(system, system.C, stacked_rows=True)
        assert closed == pbh, (x0, closed, pbh)
        obs, _ = _block_factors(system)
        block = {int(n) for n in modes[obs <= ZERO_TOL]}
        assert closed == block, (x0, closed, block)
        checked += 1
    assert checked == 200

    for N_case in (2, 3, 4, 5):
        verdict = check_placement(
            assemble(PARAMS, N_case, Placement(0.0, 0.1, 0.5)))
        assert not verdict.observable
        assert 2 in verdict.offending_modes
    verdict = check_placement(assemble(PARAMS, 3, Placement(0.0, 0.1, 0.6)))
    assert verdict.observable and verdict.controllable

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    report(2, "placement verdicts",
           f"{checked} grid points agree, x0=0.5/0.6 cases hold, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. pole placement round trip
# ---------------------------------------------------------------------------

def random_targets(rng, N):
    """Conjugate-symmetric stable targets with a minimum mutual spacing."""
    while True:
        re = -rng.uniform(2.0, 35.0, N)
        im = rng.uniform(1.0, 80.0, N)
        pts = re + 1j * im
        gaps = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(gaps, np.inf)
        if np.min(gaps) > 1.0:
            return np.concatenate([pts, pts.conj()])


def random_placement(rng, N):
    while True:
        x1 = rng.uniform(0.0, 0.4)
        x2 = rng.uniform(x1 + 0.05, 1.0)
        x0 = rng.uniform(0.05, 0.95)
        pl = Placement(float(x1), float(x2), float(x0))
        system = assemble(PARAMS, N, pl)
        if check_placement(system).ok:
            return system


def test_criterion_3_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(20240901)
    worst_place = 0.0
    worst_sep = 0.0
    for N in (1, 2, 3, 5):
        for _ in range(25):
            system = random_placement(rng, N)
            tgt_K = random_targets(rng, N)
            tgt_L = random_targets(rng, N)
            K = place_poles(system.A, system.B, tgt_K)
            L = place_observer_poles(system.A, system.C, tgt_L)
            for M, tgt in ((system.A - np.outer(system.B, K), tgt_K),
                           (system.A - np.outer(L, system.C), tgt_L)):
                got = np.sort_complex(np.linalg.eigvals(M))
                want = np.sort_complex(tgt)
                rel = float(np.max(np.abs(got - want) / np.abs(want)))
                worst_place = max(worst_place, rel)
                assert rel < 1e-6, (N, rel)
            gains = GainSet.from_matrices(system, K, L)
            loop = CoupledDynamics(
                system, gains, build_disturbance([]), NoiseSpec(bound=0.0),
                SimConfig(t_final=0.0)).M[:4 * N, :4 * N]
            got = np.sort_complex(np.linalg.eigvals(loop))
            want = np.sort_complex(np.concatenate([tgt_K, tgt_L]))
            rel = float(np.max(np.abs(got - want) / np.abs(want)))
            worst_sep = max(worst_sep, rel)
            assert rel < 1e-7, (N, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    report(3, "pole placement round trip",
           f"100 sets: placement {worst_place:.2e}, separation "
           f"{worst_sep:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. DC gain through the integrator
# ---------------------------------------------------------------------------

def test_criterion_4_dc_gain():
    start = time.perf_counter()
    N, R = 3, 5
    system = assemble(PARAMS, N, PATCH)
    dist = constant_disturbance([1.0] * (N + R))
    cfg = SimConfig(t_final=170.0, dt=4.5e-4, residual_modes=R,
                    z0=np.zeros(2 * N), z_hat0=np.zeros(2 * N))
    args = (system, None, dist, NoiseSpec(bound=0.0), cfg)
    h = history(*args)
    worst = 0.0
    for k in range(1, N + R + 1):
        expect = static_gain(PARAMS, k)
        got = h.z[-1, k - 1] if k <= N else h.residual[-1, k - N - 1]
        rel = abs(got - expect) / expect
        worst = max(worst, rel)
        assert rel < 1e-3, (k, got, expect)
    # the simulator's norms settle on the static gains' norms (w' -> 0)
    res = simulate(*args)
    gain = np.array([static_gain(PARAMS, k) for k in range(1, N + R + 1)])
    assert res.norm_z[-1] == pytest.approx(np.linalg.norm(gain[:N]),
                                           rel=1e-3)
    assert res.norm_residual[-1] == pytest.approx(np.linalg.norm(gain[N:]),
                                                  rel=1e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    report(4, "DC gain", f"8 modes within {worst:.2e} rel, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 5. energy dissipation
# ---------------------------------------------------------------------------

def test_criterion_5_energy_dissipation():
    system = assemble(PARAMS, 3, PATCH)
    quiet = build_disturbance([])
    no_noise = NoiseSpec(bound=0.0)
    cfg = SimConfig(t_final=6.0, seed=12)

    # open loop: no gains at all
    E = modal_energy(system, history(system, None, quiet, no_noise, cfg).z)
    worst_open = float(np.max(np.diff(E)))
    assert worst_open <= 1e-10

    # closed loop homogeneous: observer engaged, control path zero-gained
    # (with K != 0 the plant's modal energy is not monotone: position
    # feedback exchanges energy through the modified stiffness)
    L = place_observer_poles(system.A, system.C,
                             radial_pole_targets(system.A, 34.0))
    gains = GainSet.from_matrices(system, np.zeros(6), L)
    res_closed = simulate(system, gains, quiet, no_noise, cfg)
    assert np.all(res_closed.V == 0.0)
    E = modal_energy(system, history(system, gains, quiet, no_noise, cfg).z)
    worst_closed = float(np.max(np.diff(E)))
    assert worst_closed <= 1e-10
    report(5, "energy dissipation",
           f"max step increase open {worst_open:.2e}, "
           f"closed {worst_closed:.2e}")


# ---------------------------------------------------------------------------
# 6. disturbance attenuation on the reference preset
# ---------------------------------------------------------------------------

def test_criterion_6_attenuation(fig1):
    start = time.perf_counter()
    _, gains, result = fig1
    metrics = performance_metrics(result)
    assert gains.lambda_L == pytest.approx(34.0, abs=1e-6)
    assert metrics.force_sup == pytest.approx(F_BOUND, rel=1e-6)
    assert metrics.attenuation_ratio <= 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(6, "attenuation",
           f"steady ||z|| / sup ||F|| = {metrics.attenuation_ratio:.5f} "
           f"<= 0.05 (steady ||z|| = {metrics.steady_z:.4f}, "
           f"sup ||F|| = {metrics.force_sup:.3f})")


# ---------------------------------------------------------------------------
# 7. peaking phenomenon
# ---------------------------------------------------------------------------

def test_criterion_7_peaking(fig1, fig2):
    m34 = performance_metrics(fig1[2])
    m64 = performance_metrics(fig2[2])
    assert m64.peak_e > m34.peak_e
    assert m64.settle_time < m34.settle_time
    report(7, "peaking",
           f"peak ||e||: {m64.peak_e:.2f} (64) > {m34.peak_e:.2f} (34); "
           f"settle: {m64.settle_time:.4f} < {m34.settle_time:.4f}")


# ---------------------------------------------------------------------------
# 8. kappa-qualified norm bounds
# ---------------------------------------------------------------------------

def check_bounds(system, gains, result):
    kappa_L = eigvec_condition(system.A - np.outer(gains.L, system.C))
    kappa_K = eigvec_condition(system.A - np.outer(system.B, gains.K))
    h = history(system, gains, result.disturbance, result.noise,
                result.config)
    eps_sup = float(np.max(np.abs(h.residual @ h.C_res + h.xi)))  # y - C z
    e_curve = error_bound_curve(gains, F_BOUND, eps_sup, result.norm_e[0],
                                result.t)
    assert np.all(result.norm_e <= kappa_L * e_curve)
    e_sup = float(np.max(result.norm_e))
    z_curve = state_bound_curve(gains, F_BOUND, e_sup, result.norm_z[0],
                                result.t)
    assert np.all(result.norm_z <= kappa_K * z_curve)
    return kappa_L, kappa_K


def test_criterion_8_bounds(fig1, fig2):
    kappas = []
    for system, gains, result in (fig1, fig2):
        kappas.append(check_bounds(system, gains, result))
    report(8, "norm bounds",
           "pointwise under kappa-qualified curves; "
           + ", ".join(f"kappa_L={kl:.3g} kappa_K={kk:.3g}"
                       for kl, kk in kappas))


# ---------------------------------------------------------------------------
# 9. residual decay across truncation orders
# ---------------------------------------------------------------------------

def test_criterion_9_residual_decay():
    # spillover tail sum_(k=N+1..N+8) of the resonant sups against N, for
    # forcing 11 (uniform) and 11 / k^2 (smooth: the sups over k^2)
    rep = residual_bounds(PARAMS, 11.0, N=2, K_max=13)
    Ns = np.array([2, 3, 4, 5])
    smooth, uniform = (
        np.polyfit(np.log(Ns), np.log([sups[N - 2 : N + 6].sum()
                                       for N in Ns]), 1)[0]
        for sups in (rep.simulated_sup / rep.modes**2, rep.simulated_sup))
    assert -3.5 <= smooth <= -2.5, smooth
    assert -1.3 <= uniform <= -0.7, uniform
    report(9, "residual decay",
           f"log-log slope smooth {smooth:.3f} in -3 +/- 0.5, "
           f"uniform {uniform:.3f} in -1 +/- 0.3")


# ---------------------------------------------------------------------------
# 10. placement insensitivity
# ---------------------------------------------------------------------------

def test_criterion_10_placement_insensitivity():
    cases = [
        Placement(0.0, 0.1, 0.095),
        Placement(0.0, 0.1, 0.6),
        Placement(0.0, 0.1, 0.98),
        Placement(0.0, 1e-8, 0.6),   # vanishing patch width
    ]
    ratios = []
    for placement in cases:
        _, _, result = fig_run(34.0, placement=placement)
        metrics = performance_metrics(result)
        assert metrics.attenuation_ratio <= 0.05, placement
        ratios.append(metrics.attenuation_ratio)
    report(10, "placement insensitivity",
           "ratios " + ", ".join(f"{r:.5f}" for r in ratios) + " all <= 0.05")


# ---------------------------------------------------------------------------
# 11. determinism
# ---------------------------------------------------------------------------

# one child process: tune, simulate and bounds on each preset named in
# argv, through the CLI, into ./out; the exit codes go to stdout too
RERUN_CHILD = """
import sys
from piezobeam.cli import main
for config in sys.argv[1:]:
    for command in ("tune", "simulate", "bounds"):
        code = main([command, "--config", config, "--out", "out"])
        print(f"{command} {config}: exit {code}")
"""


def test_criterion_11_determinism(tmp_path):
    # the artifact contract: the same code, config, seeds and BLAS thread
    # count give the same bytes.  Two processes with one environment (so
    # one BLAS thread count) each run every preset; t_final 2.5 still
    # reaches the steady window that simulate's metrics need
    import yaml
    configs = []
    for i in range(1, 8):
        path = tmp_path / f"fig{i}.yaml"
        path.write_text(yaml.safe_dump({"preset": f"fig{i}",
                                        "sim": {"t_final": 2.5}}))
        configs.append(str(path))
    src = str(Path(piezobeam.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    runs = []
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        runs.append(subprocess.Popen(
            [sys.executable, "-c", RERUN_CHILD, *configs], cwd=tmp_path / side,
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    (out_a, err_a), (out_b, err_b) = (run.communicate(timeout=300)
                                      for run in runs)
    assert [run.returncode for run in runs] == [0, 0], err_a + err_b
    assert out_a.decode().count(": exit 0\n") == 21, out_a
    assert out_a == out_b and err_a == err_b == b""
    a, b = (sorted((tmp_path / side / "out").iterdir()) for side in "ab")
    assert [p.name for p in a] == [p.name for p in b] and len(a) == 28
    for x, y in zip(a, b):
        assert x.read_bytes() == y.read_bytes(), x.name
    report(11, "determinism", "every preset's tune, simulate and bounds "
           "CSVs and stdout byte-identical across two processes")
