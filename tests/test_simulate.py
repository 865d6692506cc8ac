import importlib
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oracles import static_gain
from piezobeam.beam import BeamParams
from piezobeam.errors import ConfigError, DivergenceError, UnstableMatrixError
from piezobeam.modal import (
    DampingModel,
    Placement,
    assemble,
    resonant_frequencies,
)
from piezobeam.signals import (
    NoiseSpec,
    build_disturbance,
    modal_force,
    noise_samples,
    constant_disturbance,
    polyharmonic_disturbance,
    tail_disturbance,
)
from piezobeam.simulate import (
    CoupledDynamics,
    Coupling,
    SimConfig,
    simulate,
    simulate_residual_mode,
)
from piezobeam.synthesis import (
    GainSet,
    eigvec_condition,
    place_observer_poles,
    place_poles,
    radial_pole_targets,
    tune_gains,
)

PARAMS = BeamParams.dimensionless(a1=0.01)
PATCH = Placement(x1=0.0, x2=0.1, x0=0.095)
NO_FORCE = build_disturbance([])
NO_NOISE = NoiseSpec(bound=0.0)


def fig_gains(system, lam_L=34.0):
    return tune_gains(system, 11 * math.sqrt(3), 0.01,
                      [6.0, 10.0, 14.0], lambda_L=lam_L)


# ---------------------------------------------------------------------------
# basic stepping behavior
# ---------------------------------------------------------------------------

def test_equilibrium_stays_zero():
    system = assemble(PARAMS, 2, PATCH)
    cfg = SimConfig(t_final=1.0, residual_modes=2,
                    z0=np.zeros(4), z_hat0=np.zeros(4))
    res = simulate(system, None, NO_FORCE, NO_NOISE, cfg)
    assert np.all(res.z == 0.0)
    assert np.all(res.z_hat == 0.0)
    assert np.all(res.residual == 0.0)
    assert np.all(res.V == 0.0)
    assert np.all(res.y == 0.0)


def test_zero_horizon_keeps_initial_state():
    system = assemble(PARAMS, 2, PATCH)
    z0 = np.array([0.1, -0.2, 0.3, 0.4])
    cfg = SimConfig(t_final=0.0, z0=z0)
    res = simulate(system, None, NO_FORCE, NO_NOISE, cfg)
    assert res.t.shape == (1,)
    np.testing.assert_array_equal(res.z[0], z0)
    np.testing.assert_array_equal(res.e[0], z0)


def test_default_initial_state_is_seeded_unit_vector():
    system = assemble(PARAMS, 3, PATCH)
    cfg = SimConfig(t_final=0.0, seed=7)
    res = simulate(system, None, NO_FORCE, NO_NOISE, cfg)
    assert np.linalg.norm(res.z[0]) == pytest.approx(1.0, rel=1e-12)
    res2 = simulate(system, None, NO_FORCE, NO_NOISE,
                    SimConfig(t_final=0.0, seed=7))
    np.testing.assert_array_equal(res.z[0], res2.z[0])
    res3 = simulate(system, None, NO_FORCE, NO_NOISE,
                    SimConfig(t_final=0.0, seed=8))
    assert not np.array_equal(res.z[0], res3.z[0])


def test_dc_gain_single_mode():
    # constant unit force, no control: w_1 -> a2 / sigma_1^4 within 0.1%
    system = assemble(PARAMS, 1, PATCH)
    cfg = SimConfig(t_final=170.0, z0=np.zeros(2), z_hat0=np.zeros(2))
    res = simulate(system, None, constant_disturbance([1.0]), NO_NOISE, cfg)
    expect = static_gain(PARAMS, 1)
    assert res.z[-1, 0] == pytest.approx(expect, rel=1e-3)


def channel_values(dyn, dist, times):
    """Channel values c(t): each forced mode's f_n term by term, then noise."""
    times = np.asarray(times, dtype=float)
    c = np.empty((times.size, len(dyn.forced_modes) + 1))
    for j, n in enumerate(dyn.forced_modes):
        c[:, j] = modal_force(dist, n, times)
    c[:, -1] = noise_samples(dyn.noise, times)
    return c


def pointwise_step(dyn, dist, x, t):
    """Reference: one RK4 step from (x, t) in propagator form, with the
    forces evaluated pointwise instead of from the synthesized grid."""
    c = channel_values(dyn, dist, np.array([t, t + dyn.dt / 2, t + dyn.dt]))
    rk4 = dyn.rk4
    return rk4.R1 @ x + rk4.P1G @ c[0] + rk4.P23G @ c[1] + rk4.P4G @ c[2]


def test_step_matches_textbook_rk4():
    # independent oracle: explicit four-stage RK4 on x' = M x + g(t)
    system = assemble(PARAMS, 2, PATCH)
    gains = fig_gains(system)
    dist = polyharmonic_disturbance(PARAMS, driven_modes=3)
    noise = NoiseSpec(bound=0.02, seed=6, hold=0.01)
    cfg = SimConfig(t_final=1.0, dt=3e-4, residual_modes=1, seed=3)
    dyn = CoupledDynamics(system, gains, dist, noise, cfg)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(dyn.dim)

    G = dyn.rk4.P4G * (6.0 / dyn.dt)  # P4 = (dt/6) I, so this recovers G

    def g(t):
        return G @ channel_values(dyn, dist, np.array([t]))[0]

    t0, dt = 0.17, dyn.dt
    k1 = dyn.M @ x + g(t0)
    k2 = dyn.M @ (x + dt / 2 * k1) + g(t0 + dt / 2)
    k3 = dyn.M @ (x + dt / 2 * k2) + g(t0 + dt / 2)
    k4 = dyn.M @ (x + dt * k3) + g(t0 + dt)
    expect = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    np.testing.assert_allclose(pointwise_step(dyn, dist, x, t0), expect,
                               rtol=1e-12, atol=1e-12)


def block_size(n):
    """The scan's block length for an n-step horizon, b ~ sqrt(n / 2)."""
    return max(1, round(math.sqrt(n / 2)))


@pytest.mark.parametrize("n", [0, 1, 3, 9, 50, 2000])
def test_simulate_matches_sequential_steps(n):
    # The blocked scan against pointwise_step, the textbook-checked
    # single step, looped.  n = 1 and 3 are one-step blocks, 9 is 4 blocks
    # of 2 plus a 1-step tail, 50 is 10 whole blocks of 5, 2000 is 62
    # blocks of 32 plus a 16-step tail.  The scan reorders sums, so the
    # match is to rounding, not bitwise.  The hold is incommensurate with
    # dt so that no stage time falls on a hold boundary.
    system = assemble(PARAMS, 2, PATCH)
    gains = fig_gains(system)
    dist = polyharmonic_disturbance(PARAMS, driven_modes=4)
    noise = NoiseSpec(bound=0.01, seed=11, hold=0.0104719755)
    dt = 2.5e-4
    cfg = SimConfig(t_final=n * dt, dt=dt, residual_modes=2, seed=3)
    res = simulate(system, gains, dist, noise, cfg)
    X = np.concatenate([res.z, res.e, res.residual], axis=1)
    assert X.shape == (n + 1, 12)

    dyn = CoupledDynamics(system, gains, dist, noise, cfg)
    expect = np.empty_like(X)
    expect[0] = dyn.initial_state(cfg)
    for i in range(n):
        expect[i + 1] = pointwise_step(dyn, dist, expect[i], i * dt)
    np.testing.assert_array_equal(X[0], expect[0])
    np.testing.assert_allclose(X, expect, rtol=0,
                               atol=1e-11 * np.max(np.abs(expect)))


def test_stored_error_identity():
    system = assemble(PARAMS, 2, PATCH)
    cfg = SimConfig(t_final=0.5, residual_modes=1, seed=5)
    res = simulate(system, fig_gains(system),
                   polyharmonic_disturbance(PARAMS, driven_modes=2),
                   NoiseSpec(bound=0.01, seed=4, hold=0.01), cfg)
    np.testing.assert_array_equal(res.z_hat, res.z - res.e)
    assert np.all(np.isfinite(res.z))
    np.testing.assert_allclose(res.norm_e, np.linalg.norm(res.e, axis=1),
                               rtol=0, atol=0)


# ---------------------------------------------------------------------------
# step-size control
# ---------------------------------------------------------------------------

def test_dt_above_cap_rejected():
    system = assemble(PARAMS, 3, PATCH)
    gains = fig_gains(system)
    cap = CoupledDynamics(system, gains, NO_FORCE, NO_NOISE,
                          SimConfig(t_final=1.0)).cap
    with pytest.raises(ConfigError):
        simulate(system, gains, NO_FORCE, NO_NOISE,
                 SimConfig(t_final=1.0, dt=2.0 * cap))


def block_cap_oracle(system, gains, block):
    """The cap from eig(A - BK), eig(A - LC) and eig(A_res), block by block.

    Under truncated coupling M is block upper-triangular, so this is the
    cap of M's spectrum.  Each block's cap is the step rule applied to it.
    """
    from piezobeam.simulate import DT_IMAG_FACTOR, DT_REAL_FACTOR
    blocks = [system.A - np.outer(system.B, gains.K),
              system.A - np.outer(gains.L, system.C)] if gains else \
        [system.A, system.A]
    if block.R:
        blocks.append(block.A)
    caps = []
    for A in blocks:
        eigs = np.linalg.eigvals(A)
        caps += [DT_REAL_FACTOR / np.max(np.abs(eigs.real)),
                 DT_IMAG_FACTOR / np.max(np.abs(eigs.imag))]
    return min(caps)


@pytest.mark.parametrize("N, R, tuned, model", [
    (3, 4, True, DampingModel.STRUCTURAL),
    (3, 0, True, DampingModel.STRUCTURAL),
    (2, 3, False, DampingModel.STRUCTURAL),
    (3, 2, True, DampingModel.KELVIN_VOIGT),
    (5, 6, True, DampingModel.STRUCTURAL),
])
def test_truncated_cap_is_the_min_over_blocks(N, R, tuned, model):
    from piezobeam.modal import residual_block
    system = assemble(PARAMS, N, PATCH, model)
    gains = fig_gains(system) if tuned else None
    cfg = SimConfig(t_final=0.1, residual_modes=R)
    dyn = CoupledDynamics(system, gains, NO_FORCE, NO_NOISE, cfg)
    want = block_cap_oracle(system, gains,
                            residual_block(PARAMS, PATCH, N, R, model))
    assert dyn.cap == pytest.approx(want, rel=1e-12, abs=0)
    assert dyn.dt == 0.5 * dyn.cap


def test_auto_dt_stays_below_cap():
    from piezobeam.modal import residual_block
    system = assemble(PARAMS, 3, PATCH)
    gains = fig_gains(system)
    cfg = SimConfig(t_final=0.1, residual_modes=4)
    res = simulate(system, gains, NO_FORCE, NO_NOISE, cfg)
    block = residual_block(PARAMS, PATCH, 3, 4)
    assert res.dt <= block_cap_oracle(system, gains, block)


def test_full_coupling_cap_comes_from_the_coupled_spectrum():
    # the spillover couples the residual rows to (z, e): the cap and the
    # verdict are those of M, not of its diagonal blocks
    from piezobeam.modal import residual_block
    system = assemble(PARAMS, 3, PATCH)
    gains = fig_gains(system)
    cfg = SimConfig(t_final=0.1, residual_modes=5, coupling=Coupling.FULL)
    with pytest.raises(UnstableMatrixError, match="max Re eig"):
        CoupledDynamics(system, gains, NO_FORCE, NO_NOISE, cfg)
    dyn = CoupledDynamics(system, gains, NO_FORCE, NO_NOISE,
                          replace(cfg, dt=1e-6))
    assert np.max(dyn.spectrum.real) > 1.0
    assert dyn.cap < 0.5 * block_cap_oracle(
        system, gains, residual_block(PARAMS, PATCH, 3, 5))
    with pytest.raises(ConfigError, match="max Re eig"):
        simulate(system, gains, NO_FORCE, NO_NOISE,
                 SimConfig(t_final=0.1, dt=1.5 * dyn.cap, residual_modes=5,
                           coupling=Coupling.FULL))


def test_one_residual_block_and_one_spectrum_per_run(monkeypatch):
    # the package's ``simulate`` attribute is the function, not the module
    sim = importlib.import_module("piezobeam.simulate")
    calls = {"block": 0, "eigvals": []}
    block_fn, eigvals_fn = sim.residual_block, np.linalg.eigvals

    def counting_block(*args, **kwargs):
        calls["block"] += 1
        return block_fn(*args, **kwargs)

    def counting_eigvals(a):
        calls["eigvals"].append(np.shape(a))
        return eigvals_fn(a)

    system = assemble(PARAMS, 3, PATCH)
    gains = fig_gains(system)
    monkeypatch.setattr(sim, "residual_block", counting_block)
    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    res = simulate(system, gains, polyharmonic_disturbance(PARAMS),
                   NoiseSpec(bound=0.01, seed=2),
                   SimConfig(t_final=0.05, residual_modes=4, seed=1))
    assert calls == {"block": 1, "eigvals": [(20, 20)]}
    assert len(res.t) > 1


@pytest.mark.parametrize("kind, sizes", [("fig1", [11]), ("tail", [1, 1, 1])])
def test_one_force_table_per_distinct_harmonic_set(monkeypatch, kind, sizes):
    # fig1 drives modes 1-3 with the same comb: one synthesized table; the
    # tail load drives each mode at its own frequency: one table each
    sim = importlib.import_module("piezobeam.simulate")
    calls = []
    kernel = sim.cosine_sum_grid

    def counting_kernel(harmonics, *args, **kwargs):
        calls.append(len(harmonics))
        return kernel(harmonics, *args, **kwargs)

    monkeypatch.setattr(sim, "cosine_sum_grid", counting_kernel)
    system = assemble(PARAMS, 3, PATCH)
    dist = (polyharmonic_disturbance(PARAMS) if kind == "fig1"
            else tail_disturbance(PARAMS, 1.0, 3))
    res = simulate(system, fig_gains(system), dist,
                   NoiseSpec(bound=0.01, seed=2),
                   SimConfig(t_final=0.05, dt=2.5e-4, residual_modes=5))
    assert calls == sizes   # harmonics per synthesized table
    assert np.all(np.isfinite(res.z))


def test_rk4_order_from_step_halving():
    system = assemble(PARAMS, 2, PATCH)
    gains = fig_gains(system)
    dist = polyharmonic_disturbance(PARAMS, driven_modes=2)
    ends = {}
    for dt in (4e-4, 2e-4, 1e-4):
        cfg = SimConfig(t_final=0.4, dt=dt, seed=2)
        res = simulate(system, gains, dist, NO_NOISE, cfg)
        ends[dt] = np.concatenate([res.z[-1], res.z_hat[-1]])
    err_coarse = np.linalg.norm(ends[4e-4] - ends[2e-4])
    err_fine = np.linalg.norm(ends[2e-4] - ends[1e-4])
    assert err_coarse / err_fine >= 8.0


# ---------------------------------------------------------------------------
# energy dissipation (homogeneous plant)
# ---------------------------------------------------------------------------

def half_cap(system, gains, **sim):
    """Half the stability cap of M, the dt an unset sim.dt picks.  Given
    explicitly, it also runs an M that an unset dt refuses as unstable."""
    probe = SimConfig(t_final=0.0, dt=1e-12, **sim)
    return 0.5 * CoupledDynamics(system, gains, NO_FORCE, NO_NOISE, probe).cap


def homogeneous_run(gains, a1=0.01, N=3, T=6.0):
    # an undamped M has max Re eig 0, refused with dt unset
    params = BeamParams.dimensionless(a1=a1)
    system = assemble(params, N, PATCH)
    cfg = SimConfig(t_final=T, dt=half_cap(system, gains), seed=12)
    return system, simulate(system, gains, NO_FORCE, NO_NOISE, cfg)


def test_open_loop_energy_non_increasing():
    system, res = homogeneous_run(None)
    E = system.modal_energy(res.z)
    assert np.all(np.diff(E) <= 1e-10)


def test_energy_dissipation_identity():
    # dE/dt = -sum d_n w_n'^2; needs a step fine against the w'^2 swing
    system = assemble(PARAMS, 3, PATCH)
    cfg = SimConfig(t_final=0.05, dt=2e-5, seed=12)
    res = simulate(system, None, NO_FORCE, NO_NOISE, cfg)
    E = system.modal_energy(res.z)
    D = system.dissipation(res.z)
    dE = np.diff(E) / res.dt
    D_mid = 0.5 * (D[1:] + D[:-1])
    np.testing.assert_allclose(dE, -D_mid, rtol=2e-2,
                               atol=1e-4 * np.max(np.abs(D)))


def test_observer_in_loop_keeps_plant_dissipative():
    # control output zero-gained: the observer runs but V = 0
    params = PARAMS
    system = assemble(params, 3, PATCH)
    L = place_observer_poles(system.A, system.C,
                             radial_pole_targets(system.A, 34.0))
    gains = GainSet.from_matrices(system, np.zeros(6), L)
    cfg = SimConfig(t_final=6.0, seed=12)
    res = simulate(system, gains, NO_FORCE, NO_NOISE, cfg)
    E = system.modal_energy(res.z)
    assert np.all(np.diff(E) <= 1e-10)
    assert np.all(res.V == 0.0)


def test_undamped_energy_conserved_to_integrator_error():
    system, res = homogeneous_run(None, a1=0.0, T=2.0)
    E = system.modal_energy(res.z)
    assert np.all(np.diff(E) <= 1e-10)   # RK4 is dissipative on i R
    assert E[-1] >= 0.999 * E[0]


# ---------------------------------------------------------------------------
# observer error decay and divergence
# ---------------------------------------------------------------------------

def test_noise_free_error_decay_bound():
    system = assemble(PARAMS, 3, PATCH)
    gains = fig_gains(system)
    cfg = SimConfig(t_final=1.0, seed=9)
    res = simulate(system, gains, NO_FORCE, NO_NOISE, cfg)
    kappa = eigvec_condition(system.A - np.outer(gains.L, system.C))
    bound = kappa * np.exp(-gains.lambda_L * res.t) * res.norm_e[0]
    assert np.all(res.norm_e <= bound * (1.0 + 1e-9))


def unstable_gains(system):
    L_good = place_observer_poles(system.A, system.C,
                                  radial_pole_targets(system.A, 30.0))
    # negated observer gain destabilizes the error dynamics
    A_bad = system.A + np.outer(L_good, system.C)
    assert np.max(np.linalg.eigvals(A_bad).real) > 1.0
    return GainSet(K=np.zeros(4), L=-L_good, lambda_K=1.0, lambda_L=1.0,
                   K_norm=0.0, L_norm=float(np.linalg.norm(L_good)),
                   BK_norm=0.0)


def test_divergence_raises():
    system = assemble(PARAMS, 2, PATCH)
    bad = unstable_gains(system)
    # growth rate ~ 192: overflow near t = 709 / 192, well inside the horizon
    cfg = SimConfig(t_final=10.0, dt=half_cap(system, bad), seed=1)
    with pytest.raises(DivergenceError) as err:
        simulate(system, bad, NO_FORCE, NO_NOISE, cfg)
    assert err.value.step >= 1
    assert err.value.time < 10.0


def test_divergence_step_matches_sequential_oracle():
    system = assemble(PARAMS, 2, PATCH)
    bad = unstable_gains(system)
    cfg = SimConfig(t_final=10.0, dt=half_cap(system, bad), seed=1)
    dyn = CoupledDynamics(system, bad, NO_FORCE, NO_NOISE, cfg)
    dt = dyn.dt
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            simulate(system, bad, NO_FORCE, NO_NOISE, cfg)

    n_steps = int(round(cfg.t_final / dt))
    x = dyn.initial_state(cfg)
    first_bad = None
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            x = pointwise_step(dyn, NO_FORCE, x, i * dt)
            if not np.all(np.isfinite(x)):
                first_bad = i + 1
                break
    assert first_bad is not None
    assert abs(err.value.step - first_bad) <= block_size(n_steps)
    assert err.value.time == err.value.step * dt


# ---------------------------------------------------------------------------
# coupled operator
# ---------------------------------------------------------------------------

def closed_loop_block(system, gains):
    """The (z, e) block M[:4N, :4N] of the coupled operator."""
    n = 2 * system.N
    cfg = SimConfig(t_final=0.0, residual_modes=2)
    return CoupledDynamics(system, gains, NO_FORCE, NO_NOISE, cfg).M[:2 * n,
                                                                     :2 * n]


def test_closed_loop_matrix_zero_gains():
    system = assemble(PARAMS, 2, PATCH)
    M = closed_loop_block(system, None)
    np.testing.assert_array_equal(M[:4, :4], system.A)
    np.testing.assert_array_equal(M[4:, 4:], system.A)
    np.testing.assert_array_equal(M[:4, 4:], np.zeros((4, 4)))


def test_closed_loop_matrix_structure_and_spectrum():
    system = assemble(PARAMS, 3, PATCH)
    gains = fig_gains(system)
    M = closed_loop_block(system, gains)
    assert M.shape == (12, 12)
    BK = np.outer(system.B, gains.K)
    np.testing.assert_array_equal(M[:6, :6], system.A - BK)
    np.testing.assert_array_equal(M[:6, 6:], BK)
    np.testing.assert_array_equal(M[6:, :6], np.zeros((6, 6)))
    assert np.max(np.linalg.eigvals(M).real) < 0.0


# ---------------------------------------------------------------------------
# residual coupling modes
# ---------------------------------------------------------------------------

def residual_setup(coupling, gains_kind, dt=2.5e-4):
    system = assemble(PARAMS, 3, PATCH)
    gains = fig_gains(system) if gains_kind == "tuned" else None
    dist = polyharmonic_disturbance(PARAMS, driven_modes=6, bound=11.0)
    cfg = SimConfig(t_final=0.5, dt=dt, residual_modes=3, coupling=coupling,
                    seed=7)
    return simulate(system, gains, dist, NO_NOISE, cfg)


def test_truncation_mode_residual_identical_across_gains():
    res_a = residual_setup(Coupling.TRUNCATED, "tuned")
    res_b = residual_setup(Coupling.TRUNCATED, "none")
    assert np.any(res_a.residual != 0.0)
    np.testing.assert_array_equal(res_a.residual, res_b.residual)


def test_full_coupling_feels_the_controller():
    # the tuned full-coupling loop is unstable (max Re eig(M) = 2.71) with
    # cap 1.53e-4: both sides run below it, and 2.5e-4 is refused
    res_trunc = residual_setup(Coupling.TRUNCATED, "tuned", dt=1e-4)
    res_full = residual_setup(Coupling.FULL, "tuned", dt=1e-4)
    assert not np.array_equal(res_trunc.residual, res_full.residual)
    with pytest.raises(ConfigError):
        residual_setup(Coupling.FULL, "tuned", dt=2.5e-4)
    # without control the two coupling modes coincide
    res_trunc0 = residual_setup(Coupling.TRUNCATED, "none", dt=1e-4)
    res_full0 = residual_setup(Coupling.FULL, "none", dt=1e-4)
    np.testing.assert_array_equal(res_trunc0.residual, res_full0.residual)


def test_output_noise_is_the_noise_on_the_time_grid():
    # simulate reads xi(t_i) off the half-step channel grid at 2i
    system = assemble(PARAMS, 2, PATCH)
    noise = NoiseSpec(bound=0.01, seed=4)   # hold resolved to 10 dt
    cfg = SimConfig(t_final=0.5, dt=2.5e-4, seed=5)
    res = simulate(system, fig_gains(system), NO_FORCE, noise, cfg)
    xi = noise_samples(res.noise, res.t)
    assert len(np.unique(xi)) > 100
    np.testing.assert_array_equal(
        res.y, res.z @ system.C + np.zeros(len(res.t)) + xi)


def test_measurement_spillover_enters_output():
    res = residual_setup(Coupling.TRUNCATED, "none")
    from piezobeam.modal import residual_block
    block = residual_block(PARAMS, PATCH, 3, 3)
    r = res.residual @ block.C
    np.testing.assert_allclose(res.y, res.z @ res.system.C + r, rtol=0,
                               atol=1e-14)


# ---------------------------------------------------------------------------
# single-mode residual integrator
# ---------------------------------------------------------------------------

def scalar_residual_mode(params, k, harmonics, t_final=None, dt=None,
                         damping_model=DampingModel.STRUCTURAL,
                         settle_time=None):
    """Reference: simulate_residual_mode as a per-step scalar RK4 loop."""
    from piezobeam.modal import damping_coefficients
    from piezobeam.simulate import DT_IMAG_FACTOR, DT_REAL_FACTOR

    s2 = (k * math.pi) ** 2
    s4 = s2 * s2
    d = float(damping_coefficients(params, np.array([k]), damping_model)[0])
    rate = d / 2.0 if d * d < 4.0 * s4 else \
        (d - math.sqrt(d * d - 4.0 * s4)) / 2.0
    om_max = max(max((abs(om) for _, om, _ in harmonics), default=s2), s2)
    if settle_time is None:
        settle_time = 12.0 / rate
    if t_final is None:
        t_final = settle_time + 40.0 * (2.0 * math.pi / om_max)
    if dt is None:
        dt = min(DT_IMAG_FACTOR / om_max / 2.0, DT_REAL_FACTOR / max(d, rate))
    a2 = params.a2

    def accel(w, wd, t):
        f = sum(a * math.cos(om * t + ph) for a, om, ph in harmonics)
        return -d * wd - s4 * w + a2 * f

    w = wd = 0.0
    sup_state = sup_disp = 0.0
    for i in range(int(round(t_final / dt))):
        t = i * dt
        k1w, k1v = wd, accel(w, wd, t)
        k2w = wd + 0.5 * dt * k1v
        k2v = accel(w + 0.5 * dt * k1w, k2w, t + 0.5 * dt)
        k3w = wd + 0.5 * dt * k2v
        k3v = accel(w + 0.5 * dt * k2w, k3w, t + 0.5 * dt)
        k4w = wd + dt * k3v
        k4v = accel(w + dt * k3w, k4w, t + dt)
        w += dt / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        wd += dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if t >= settle_time:
            sup_state = max(sup_state, math.hypot(w, wd))
            sup_disp = max(sup_disp, abs(w))
    return sup_state, sup_disp


def damped_omega(k, model):
    return float(resonant_frequencies(PARAMS, [k], model)[0])


@pytest.mark.parametrize("k, model, harmonics", [
    (4, DampingModel.STRUCTURAL, [(2.0, 0.8 * (4 * math.pi) ** 2, 0.3)]),
    (6, DampingModel.STRUCTURAL,
     [(1.0, damped_omega(6, DampingModel.STRUCTURAL), 0.0)]),
    (9, DampingModel.STRUCTURAL,
     [(1.0, damped_omega(9, DampingModel.STRUCTURAL), 0.0),
      (0.5, 3.0, 1.1)]),
    (10, DampingModel.KELVIN_VOIGT,
     [(1.0, damped_omega(10, DampingModel.KELVIN_VOIGT), 0.0)]),
])
def test_residual_mode_matches_scalar_loop(k, model, harmonics):
    # multi-chunk horizons: 17k-31k steps against 16k-step chunks
    got = simulate_residual_mode(PARAMS, k, harmonics, damping_model=model)
    want = scalar_residual_mode(PARAMS, k, harmonics, damping_model=model)
    assert want[0] > 0.0 and want[1] > 0.0
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


def test_residual_mode_sup_starts_at_settle_time():
    # the sup covers states after step i with i dt >= settle_time only
    om = damped_omega(5, DampingModel.STRUCTURAL)
    for settle in (0.0, 0.05, 0.1 + 1e-3, 0.3):
        got = simulate_residual_mode(PARAMS, 5, [(1.0, om, 0.0)],
                                     t_final=0.3, dt=1e-4, settle_time=settle)
        want = scalar_residual_mode(PARAMS, 5, [(1.0, om, 0.0)],
                                    t_final=0.3, dt=1e-4, settle_time=settle)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
    assert got == (0.0, 0.0)


def test_residual_mode_memory_does_not_grow_with_horizon():
    om = damped_omega(5, DampingModel.STRUCTURAL)
    tracemalloc.start()
    try:
        sup, _ = simulate_residual_mode(PARAMS, 5, [(1.0, om, 0.0)],
                                        t_final=400.0, dt=1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 4e5 steps: held at once, the states alone would take 6.4 MB and the
    # half-step forcing another 6.4 MB
    assert sup > 0.0
    assert peak < 4e6, peak


def test_residual_mode_steady_amplitude_oracle():
    # off-resonance harmonic: compare against the frequency-response formula
    k = 4
    s2 = (k * math.pi) ** 2
    d = 0.01 * s2
    om = 0.8 * s2
    amp = 2.0
    sup_state, sup_disp = simulate_residual_mode(
        PARAMS, k, [(amp, om, 0.3)])
    A_disp = PARAMS.a2 * amp / math.hypot(s2**2 - om**2, d * om)
    assert sup_disp == pytest.approx(A_disp, rel=2e-2)
    assert sup_state == pytest.approx(A_disp * max(1.0, om), rel=2e-2)


def test_residual_mode_resonant_amplitude():
    k = 5
    s2 = (k * math.pi) ** 2
    d = 0.01 * s2
    om = s2 * math.sqrt(4 - 0.01**2) / 2
    sup_state, _ = simulate_residual_mode(PARAMS, k, [(1.0, om, 0.0)])
    # velocity amplitude at resonance ~ a2 / (a1 sigma_k^2)
    assert sup_state == pytest.approx(1.0 / (0.01 * s2), rel=1e-2)


def test_residual_mode_requires_damping():
    with pytest.raises(ValueError):
        simulate_residual_mode(BeamParams(a1=0.0, a2=1.0), 4, [(1.0, 1.0, 0.0)])
