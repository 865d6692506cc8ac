import math

import numpy as np
import pytest

from oracles import history
from piezobeam.analysis import (
    build_bound_report,
    error_bound_curve,
    performance_metrics,
    residual_bounds,
    state_bound_curve,
)
from piezobeam.beam import BeamParams
from piezobeam.errors import ConfigError
from piezobeam.modal import (
    DampingModel,
    Placement,
    assemble,
    damping_coefficients,
    mode_roots,
)
from piezobeam.signals import NoiseSpec, build_disturbance, polyharmonic_disturbance
from piezobeam.simulate import SimConfig, simulate
from piezobeam.synthesis import eigvec_condition, tune_gains

PARAMS = BeamParams.dimensionless(a1=0.01)
PATCH = Placement(x1=0.0, x2=0.1, x0=0.095)


def fig_gains(system, lam_L=34.0):
    return tune_gains(system, 11 * math.sqrt(3), 0.01,
                      [6.0, 10.0, 14.0], lambda_L=lam_L)


# ---------------------------------------------------------------------------
# bound curves
# ---------------------------------------------------------------------------

def test_error_bound_limit_is_steady_term():
    system = assemble(PARAMS, 3, PATCH)
    gains = fig_gains(system)
    F, eps = 11 * math.sqrt(3), 0.01
    steady = (F + gains.L_norm * eps) / gains.lambda_L
    curve = error_bound_curve(gains, F, eps, e0_norm=1.0, times=[0.0, 1e6])
    assert curve[-1] == pytest.approx(steady, rel=1e-12)
    assert curve[0] == pytest.approx(1.0 + steady, rel=1e-12)


def test_error_bound_pure_exponential():
    system = assemble(PARAMS, 2, PATCH)
    gains = fig_gains(system)
    t = np.linspace(0.0, 0.5, 11)
    curve = error_bound_curve(gains, 0.0, 0.0, e0_norm=2.0, times=t)
    np.testing.assert_allclose(curve, 2.0 * np.exp(-gains.lambda_L * t),
                               rtol=1e-12)


def test_error_bound_arithmetic_cross_check():
    system = assemble(PARAMS, 3, PATCH)
    gains = fig_gains(system)
    F, eps = 11 * math.sqrt(3), 0.01
    got = error_bound_curve(gains, F, eps, 0.0, [100.0])[0]
    assert got == pytest.approx((F + gains.L_norm * eps) / 34.0, rel=1e-9)


def test_state_bound_pure_exponential_and_monotonicity():
    system = assemble(PARAMS, 2, PATCH)
    gains = fig_gains(system)
    t = np.linspace(0.0, 1.0, 7)
    curve = state_bound_curve(gains, 0.0, 0.0, z0_norm=3.0, times=t)
    np.testing.assert_allclose(curve, 3.0 * np.exp(-gains.lambda_K * t),
                               rtol=1e-12)
    # steady term strictly decreasing in lambda_K at fixed numerator
    num = 5.0 + gains.BK_norm * 0.7
    steadies = [num / lam for lam in (4.0, 8.0, 16.0)]
    assert steadies[0] > steadies[1] > steadies[2]


def test_bound_report_invariants():
    system = assemble(PARAMS, 3, PATCH)
    gains = fig_gains(system)
    F, eps = 11 * math.sqrt(3), 0.01
    rep = build_bound_report(system, gains, F, eps)
    assert rep.e_steady_bound == pytest.approx(
        (F + rep.L_norm * eps) / rep.lambda_L, rel=1e-12)
    assert rep.z_steady_bound == pytest.approx(
        (F + rep.BK_norm * rep.e_bound_used) / rep.lambda_K, rel=1e-12)
    assert rep.kappa_L == pytest.approx(
        eigvec_condition(system.A - np.outer(gains.L, system.C)), rel=1e-9)
    assert rep.kappa_L >= 1.0 and rep.kappa_K >= 1.0


# ---------------------------------------------------------------------------
# residual bounds
# ---------------------------------------------------------------------------

def test_residual_bounds_zero_forcing():
    rep = residual_bounds(PARAMS, 0.0, N=3, K_max=6)
    assert np.all(rep.per_mode_bound == 0.0)
    assert rep.tail_sum_uniform == 0.0
    assert rep.tail_sum_smooth == 0.0


def test_residual_bounds_reference_values():
    rep = residual_bounds(PARAMS, 11.0, N=3, K_max=6)
    assert rep.tail_sum_uniform == pytest.approx(27.863325501642887, rel=1e-12)
    assert rep.tail_sum_smooth == pytest.approx(0.5804859479508935, rel=1e-12)
    np.testing.assert_allclose(
        rep.per_mode_bound,
        [11.0 / (0.01 * math.pi**2 * k**2) for k in (4, 5, 6)], rtol=1e-12)


def test_residual_bounds_validation():
    with pytest.raises(ValueError):
        residual_bounds(PARAMS, -1.0, N=3, K_max=6)
    with pytest.raises(ValueError):
        residual_bounds(PARAMS, 1.0, N=3, K_max=3)


def test_residual_bounds_simulated_fit_exponent():
    rep = residual_bounds(PARAMS, 2.0, N=3, K_max=8)
    assert rep.simulated_sup is not None
    # resonant response tracks the 1/k^2 bound envelope
    assert rep.decay_exponent == pytest.approx(-2.0, abs=0.1)
    assert np.all(rep.simulated_sup <= rep.per_mode_bound * 1.01)


def test_tail_monotonicity_in_N():
    tails = [residual_bounds(PARAMS, 5.0, N=N, K_max=N + 1).tail_sum_uniform
             for N in range(1, 8)]
    assert all(a > b for a, b in zip(tails, tails[1:]))
    smooth = [residual_bounds(PARAMS, 5.0, N=N, K_max=N + 1).tail_sum_smooth
              for N in (1, 2, 4)]
    # exact exponent-3 scaling in (N+1) by construction
    assert smooth[0] / smooth[1] == pytest.approx((3 / 2) ** 3, rel=1e-12)
    assert smooth[1] / smooth[2] == pytest.approx((5 / 3) ** 3, rel=1e-12)


# ---------------------------------------------------------------------------
# damping decay rates: Re of each mode's slow root
# ---------------------------------------------------------------------------

def test_structural_decay_rates():
    rates = mode_roots(PARAMS, [4], DampingModel.STRUCTURAL)[0].real
    assert rates[0] == pytest.approx(-0.08 * math.pi**2, rel=1e-12)
    r = mode_roots(PARAMS, [3, 6, 12])[0].real
    assert r[1] / r[0] == pytest.approx(4.0, rel=1e-12)
    assert r[2] / r[1] == pytest.approx(4.0, rel=1e-12)


def test_kelvin_voigt_rates_saturate():
    rates = mode_roots(PARAMS, [10, 20], DampingModel.KELVIN_VOIGT)[0].real
    assert abs(rates[1] - rates[0]) / abs(rates[0]) < 0.05
    # slow root approaches -1/a1
    assert rates[1] == pytest.approx(-1.0 / 0.01, rel=0.05)


@pytest.mark.parametrize("a1", [0.01, 0.5, 2.5])
def test_overdamped_decay_rates_are_free_of_cancellation(a1):
    # the slow root in the stable form 2 sigma^4 / (-d - sqrt(d^2 - 4 sigma^4));
    # (-d + sqrt(d^2 - 4 sigma^4)) / 2 loses up to 5.7e-6 relative here
    params = BeamParams.dimensionless(a1=a1)
    checked = 0
    for model in DampingModel:
        modes = np.arange(1, 121)
        d = damping_coefficients(params, modes, model)
        s4 = (modes * math.pi) ** 4
        over = d * d > 4.0 * s4
        if not over.any():      # structural damping below a1 = 2
            continue
        rates = mode_roots(params, modes[over], model)[0].real
        for rate, dk, sk in zip(rates, d[over], s4[over]):
            stable = 2.0 * sk / (-dk - math.sqrt(dk * dk - 4.0 * sk))
            assert abs(rate - stable) <= 1e-14 * abs(stable)
            checked += 1
    assert checked >= 116


# ---------------------------------------------------------------------------
# residual tail sums: windows over one residual_bounds report
# ---------------------------------------------------------------------------

def test_tail_study_slopes():
    # sum_(k=N+1..N+8) of the resonant sups, forced at 11 (uniform) or
    # 11 / k^2 (smooth: the same sups over k^2, the response being linear)
    rep = residual_bounds(PARAMS, 11.0, N=2, K_max=13)
    Ns = np.array([2, 3, 4, 5])
    for sups, slope in ((rep.simulated_sup, -1.118),
                        (rep.simulated_sup / rep.modes**2, -2.576)):
        sums = np.array([sups[N - 2 : N + 6].sum() for N in Ns])
        assert np.polyfit(np.log(Ns), np.log(sums), 1)[0] == \
            pytest.approx(slope, abs=0.1)
        assert np.all(np.diff(sums) < 0.0)


# ---------------------------------------------------------------------------
# performance metrics
# ---------------------------------------------------------------------------

def run_fig(lam_L=34.0, T=12.0):
    system = assemble(PARAMS, 3, PATCH)
    gains = fig_gains(system, lam_L)
    dist = polyharmonic_disturbance(PARAMS)
    noise = NoiseSpec(bound=0.01, seed=1234)
    cfg = SimConfig(t_final=T, dt=2.5e-4, residual_modes=5, seed=7)
    return simulate(system, gains, dist, noise, cfg)


def test_metrics_zero_everything():
    system = assemble(PARAMS, 3, PATCH)
    gains = fig_gains(system)
    cfg = SimConfig(t_final=12.0, dt=2.5e-4, z0=np.zeros(6),
                    z_hat0=np.zeros(6))
    res = simulate(system, gains, build_disturbance([]), NoiseSpec(bound=0.0),
                   cfg)
    m = performance_metrics(res)
    assert m.peak_e == 0.0
    assert m.attenuation_ratio == 0.0
    assert m.settle_time == 0.0


def test_metrics_horizon_guard():
    res = run_fig(T=1.5)
    with pytest.raises(ConfigError):
        performance_metrics(res)


def test_metrics_fig_run():
    res = run_fig()
    m = performance_metrics(res)
    assert m.force_sup == pytest.approx(11 * math.sqrt(3), rel=1e-6)
    assert 0.0 < m.attenuation_ratio < 0.05
    assert m.peak_e > 5.0
    assert 0.0 < m.t_peak < 1.0
    assert 0.0 < m.settle_time < 2.0
    assert m.steady_band > m.steady_e


def resynthesized_force_sup(res):
    """sup_t a2 ||(f_1(t)..f_N(t))||, every force synthesized on res.t."""
    from piezobeam.signals import modal_force
    f = np.stack([res.system.params.a2 * modal_force(res.disturbance, n, res.t)
                  for n in range(1, res.system.N + 1)])
    return float(np.max(np.linalg.norm(f, axis=0)))


@pytest.mark.parametrize("driven", [0, 2, 3, 6])
def test_force_sup_matches_resynthesized_forces(driven):
    # driven = 2: fewer forced modes than N; 6: residual modes forced too,
    # which the retained force norm leaves out
    params = BeamParams.dimensionless(a1=0.01, a2=0.7)
    system = assemble(params, 3, PATCH)
    dist = (polyharmonic_disturbance(params, driven_modes=driven)
            if driven else build_disturbance([]))
    cfg = SimConfig(t_final=0.3, dt=2.5e-4, residual_modes=4, seed=7)
    res = simulate(system, fig_gains(system), dist,
                   NoiseSpec(bound=0.01, seed=3), cfg)
    assert res.force_sup == pytest.approx(resynthesized_force_sup(res),
                                          rel=1e-14, abs=0)
    assert (res.force_sup > 0.0) == (driven > 0)


def test_simulated_error_within_kappa_qualified_bound():
    res = run_fig()
    gains = res.gains
    system = res.system
    kappa_L = eigvec_condition(system.A - np.outer(gains.L, system.C))
    h = history(system, gains, res.disturbance, res.noise, res.config)
    eps_sup = float(np.max(np.abs(h.residual @ h.C_res + h.xi)))  # y - C z
    curve = error_bound_curve(gains, res.disturbance.force_vector_bound(3),
                              eps_sup, res.norm_e[0], res.t)
    assert np.all(res.norm_e <= kappa_L * curve)
