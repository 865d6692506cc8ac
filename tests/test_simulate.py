import contextlib
import functools
import gc
import importlib
import itertools
import math
import re
import tracemalloc
import unittest.mock
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import dissipation, history, modal_energy, static_gain
from piezobeam.beam import BeamParams
from piezobeam.config import resolve_config
from piezobeam.errors import (
    ConfigError,
    DivergenceError,
    PlacementError,
    UnstableMatrixError,
)
from piezobeam.modal import (
    DampingModel,
    Placement,
    assemble,
    oscillator_matrix,
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
    CHUNK_ROWS,
    DT_BITS,
    RK4,
    TIMESERIES,
    CoupledDynamics,
    Coupling,
    SimConfig,
    _phasors,
    row_norms,
    simulate,
    simulate_residual_mode,
    stability_cap,
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
    args = (system, None, NO_FORCE, NO_NOISE, cfg)
    h = history(*args)
    assert np.all(h.z == 0.0)
    assert np.all(h.z_hat == 0.0)
    assert np.all(h.residual == 0.0)
    res = simulate(*args)
    assert np.all(res.timeseries[:, 1:] == 0.0)     # the norms, V and y


def test_zero_horizon_keeps_initial_state():
    system = assemble(PARAMS, 2, PATCH)
    z0 = np.array([0.1, -0.2, 0.3, 0.4])
    cfg = SimConfig(t_final=0.0, z0=z0)
    res = simulate(system, None, NO_FORCE, NO_NOISE, cfg)
    assert res.t.shape == (1,)
    assert res.norm_z[0] == res.norm_e[0] == row_norms(z0[None])[0]
    h = history(system, None, NO_FORCE, NO_NOISE, cfg)
    np.testing.assert_array_equal(h.z[0], z0)
    np.testing.assert_array_equal(h.e[0], z0)


def test_default_initial_state_is_seeded_unit_vector():
    system = assemble(PARAMS, 3, PATCH)

    def z0(seed):
        return history(system, None, NO_FORCE, NO_NOISE,
                       SimConfig(t_final=0.0, seed=seed)).z[0]

    res = simulate(system, None, NO_FORCE, NO_NOISE,
                   SimConfig(t_final=0.0, seed=7))
    assert res.norm_z[0] == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.norm(z0(7)) == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_array_equal(z0(7), z0(7))
    assert not np.array_equal(z0(7), z0(8))


def test_dc_gain_single_mode():
    # constant unit force, no control: w_1 -> a2 / sigma_1^4 within 0.1%,
    # and ||z|| with it, as w_1' -> 0
    system = assemble(PARAMS, 1, PATCH)
    cfg = SimConfig(t_final=170.0, z0=np.zeros(2), z_hat0=np.zeros(2))
    args = (system, None, constant_disturbance([1.0]), NO_NOISE, cfg)
    expect = static_gain(PARAMS, 1)
    assert history(*args).z[-1, 0] == pytest.approx(expect, rel=1e-3)
    assert simulate(*args).norm_z[-1] == pytest.approx(expect, rel=1e-3)


def channel_values(dyn, times):
    """Channel values c(t): each channel's harmonics term by term, then
    noise."""
    times = np.asarray(times, dtype=float)
    c = np.empty((times.size, len(dyn.channels) + 1))
    for j, hs in enumerate(dyn.channels):
        c[:, j] = sum(a * np.cos(om * times + ph) for a, om, ph in hs)
    c[:, -1] = noise_samples(dyn.noise, times)
    return c


def modal_forcing(dyn, dist, t):
    """G c(t) mode by mode, without G: a2 f_n on w_n' of z and of e for a
    retained mode, a2 f_k on w_k' of a residual mode, -L xi on e."""
    N, R, a2 = dyn.N, dyn.R, PARAMS.a2
    g = np.zeros(dyn.dim)
    for n in range(1, N + 1):
        g[[N + n - 1, 3 * N + n - 1]] = a2 * modal_force(dist, n, t)
    for k in dyn.block.modes:
        g[3 * N + R + k - 1] = a2 * modal_force(dist, int(k), t)
    g[2 * N : 4 * N] -= dyn.L * noise_samples(dyn.noise, np.array([t]))[0]
    return g


def pointwise_step(dyn, x, t):
    """Reference: one RK4 step from (x, t) in propagator form, with the
    forces evaluated pointwise instead of from the synthesized grid."""
    c = channel_values(dyn, np.array([t, t + dyn.dt / 2, t + dyn.dt]))
    rk4 = dyn.rk4
    return rk4.R1 @ x + rk4.P1G @ c[0] + rk4.P23G @ c[1] + rk4.P4G @ c[2]


def test_step_matches_textbook_rk4():
    # independent oracle: explicit four-stage RK4 on x' = M x + g(t), with
    # g from each mode's own force; the comb drives modes 1-3 (two
    # retained, one residual) through one shared channel
    system = assemble(PARAMS, 2, PATCH)
    gains = fig_gains(system)
    dist = polyharmonic_disturbance(PARAMS, driven_modes=3)
    noise = NoiseSpec(bound=0.02, seed=6, hold=0.01)
    cfg = SimConfig(t_final=1.0, dt=3e-4, residual_modes=1, seed=3)
    dyn = CoupledDynamics(system, gains, dist, noise, cfg)
    assert dyn.G.shape[1] == 2
    rng = np.random.default_rng(0)
    x = rng.standard_normal(dyn.dim)

    def g(t):
        return modal_forcing(dyn, dist, t)

    t0, dt = 0.17, dyn.dt
    k1 = dyn.M @ x + g(t0)
    k2 = dyn.M @ (x + dt / 2 * k1) + g(t0 + dt / 2)
    k3 = dyn.M @ (x + dt / 2 * k2) + g(t0 + dt / 2)
    k4 = dyn.M @ (x + dt * k3) + g(t0 + dt)
    expect = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    np.testing.assert_allclose(pointwise_step(dyn, x, t0), expect,
                               rtol=1e-12, atol=1e-12)


# simulate's table against the whole-history oracle's, per column: within
# TABLE_TOL of the column's largest |value|.  A run over several segments
# synthesizes its channels at other angle-addition splits (each angle rounds
# by about eps w t) and takes other RK4.run blocks, so the last digits move
# (at most 6.7e-14 on the presets and the benchmark's runs, in sim_wide's
# y); a run of one segment steps the oracle's states bit for bit.
TABLE_TOL = 1e-12


def assert_table_matches(res, h, tol=TABLE_TOL):
    want = h.timeseries()
    assert res.timeseries.shape == want.shape
    for name, got, col in zip(TIMESERIES, res.timeseries.T, want.T):
        np.testing.assert_allclose(got, col, rtol=0, err_msg=name,
                                   atol=tol * np.max(np.abs(col)))


def block_size(n, d):
    """The scan's block length for n steps of d states: b ~ sqrt(n / 2),
    but at most 2n / 3d."""
    return max(1, min(round(math.sqrt(n / 2)), 2 * n // max(3 * d, 1)))


@pytest.mark.parametrize("n", [0, 1, 3, 9, 50, 2000])
def test_simulate_matches_sequential_steps(n):
    # The blocked scan against pointwise_step, the textbook-checked
    # single step, looped.  With d = 12 states, n = 1, 3 and 9 are one-step
    # blocks (b <= 2n / 3d), 50 is 25 blocks of 2, 2000 is 62 blocks of 32
    # plus a 16-step tail.  The scan reorders sums, so the match is to
    # rounding, not bitwise.  The hold is incommensurate with dt so that
    # no stage time falls on a hold boundary.
    system = assemble(PARAMS, 2, PATCH)
    gains = fig_gains(system)
    dist = polyharmonic_disturbance(PARAMS, driven_modes=4)
    noise = NoiseSpec(bound=0.01, seed=11, hold=0.0104719755)
    dt = 2.5e-4
    cfg = SimConfig(t_final=n * dt, dt=dt, residual_modes=2, seed=3)
    h = history(system, gains, dist, noise, cfg)
    X = np.concatenate([h.z, h.e, h.residual], axis=1)
    assert X.shape == (n + 1, 12)

    dyn = CoupledDynamics(system, gains, dist, noise, cfg)
    expect = np.empty_like(X)
    expect[0] = dyn.initial_state(cfg)
    for i in range(n):
        expect[i + 1] = pointwise_step(dyn, expect[i], i * dt)
    np.testing.assert_array_equal(X[0], expect[0])
    np.testing.assert_allclose(X, expect, rtol=0,
                               atol=1e-11 * np.max(np.abs(expect)))
    # and simulate's table is the table of those states
    looped = replace(h, z=expect[:, :4], e=expect[:, 4:8],
                     residual=expect[:, 8:])
    assert_table_matches(simulate(system, gains, dist, noise, cfg), looped,
                         tol=1e-11)


def test_stored_error_identity():
    # V = -K z_hat from the stepped error e = z - z_hat: e K - z K rounds
    # within a few eps of the sizes of its two terms
    system = assemble(PARAMS, 2, PATCH)
    gains = fig_gains(system)
    cfg = SimConfig(t_final=0.5, residual_modes=1, seed=5)
    args = (system, gains, polyharmonic_disturbance(PARAMS, driven_modes=2),
            NoiseSpec(bound=0.01, seed=4, hold=0.01), cfg)
    res, h = simulate(*args), history(*args)
    assert np.all(np.isfinite(h.z))
    eps = np.finfo(float).eps
    np.testing.assert_allclose(
        res.V, -h.z_hat @ gains.K, rtol=0,
        atol=4 * eps * np.max((np.abs(h.z) + np.abs(h.e)) @ np.abs(gains.K)))
    np.testing.assert_allclose(res.norm_e, np.linalg.norm(h.e, axis=1),
                               rtol=4 * eps, atol=0)


# ---------------------------------------------------------------------------
# reached-state propagation
# ---------------------------------------------------------------------------

# N 20, R 60, the patch and sensor of the benchmark's wide run
WIDE = {"N": 20, "placement": {"x2": 0.1037, "x0": 0.0951},
        "sim": {"dt": None, "t_final": 0.002, "residual_modes": 60}}


def full_state_run(dyn, cfg, n):
    """Reference: the whole X stepped by one RK4 on the full M and G, with
    the channels evaluated pointwise."""
    X = np.empty((n + 1, dyn.dim))
    X[0] = dyn.initial_state(cfg)
    c = channel_values(dyn, np.arange(2 * n + 1) * (dyn.dt / 2))
    return RK4(dyn.M, dyn.G, dyn.dt).run(X, c)


def with_sim(data, **sim):
    return {**data, "sim": {**data.get("sim", {}), **sim}}


def built(data):
    """(config, system, gains) of a config mapping."""
    config = resolve_config(data)
    system = config.build_system()
    return config, system, config.build_gains(system)


FIG1 = {"preset": "fig1", "sim": {"t_final": 0.1}}


@pytest.mark.parametrize("data, reached", [
    (FIG1, 12),                                     # plant and observer error
    (WIDE, 80),
    (with_sim(FIG1, residual0=[0, 0.1] + [0] * 8), 14),   # mode 5 joins
    ({**FIG1, "disturbance": {"driven_modes": 5}}, 16),   # modes 4 and 5
    (with_sim(FIG1, coupling="full", dt=5e-5), 22),
    # mode 3 at rest, in the live z and e groups: stepped, and stays 0
    ({**with_sim(FIG1, z0=[0.1, -0.2, 0.0, 0.3, 0.4, 0.0]),
      "gains": {"strategy": "none"}, "disturbance": {"driven_modes": 2}}, 12),
], ids=["fig1", "wide", "residual0", "driven", "full", "open_loop"])
def test_reached_states_match_the_full_state_run(data, reached):
    config, system, gains = built(data)
    dist, cfg = config.disturbance, config.sim
    res = simulate(system, gains, dist, config.noise, cfg)
    dyn = CoupledDynamics(system, gains, dist, config.noise, cfg)
    assert dyn.live.size == reached

    h = history(system, gains, dist, config.noise, cfg)
    X = np.concatenate([h.z, h.e, h.residual], axis=1)
    expect = full_state_run(dyn, cfg, len(res.t) - 1)
    np.testing.assert_allclose(X, expect, rtol=0,
                               atol=1e-11 * np.max(np.abs(expect)))
    unreached = np.setdiff1d(np.arange(dyn.dim), dyn.live)
    assert np.all(X[:, unreached] == 0.0)
    assert np.all(expect[:, unreached] == 0.0)
    res_expect = expect[:, 4 * dyn.N:]
    np.testing.assert_allclose(res.norm_residual,
                               np.linalg.norm(res_expect, axis=1),
                               rtol=0, atol=1e-11 * np.max(np.abs(expect)))
    np.testing.assert_allclose(
        res.y, expect[:, :2 * dyn.N] @ system.C + res_expect @ dyn.block.C
        + noise_samples(res.noise, res.t),
        rtol=0, atol=1e-11 * np.max(np.abs(expect)))


def propagator_loop(rk4, x0, c, n):
    """Reference: n steps of the one-step propagator from x0, looped."""
    X = np.empty((n + 1, len(x0)))
    X[0] = x0
    for i in range(n):
        X[i + 1] = (rk4.R1 @ X[i] + rk4.P1G @ c[2 * i]
                    + rk4.P23G @ c[2 * i + 1] + rk4.P4G @ c[2 * i + 2])
    return X


# N 20, R 60 with every residual mode driven: all d = 200 states are live.
# The 80 modes share one comb, so its G has 2 columns; the scan tests give
# it 81 random ones, one per mode and the noise.
G81 = {"N": 20, "placement": {"x2": 0.1037, "x0": 0.0951},
       "disturbance": {"driven_modes": 80},
       "sim": {"dt": None, "t_final": 0.05, "residual_modes": 60}}


def scan_propagator(data, g):
    """The RK4 of a config's coupled operator on its live states, forced
    through g random channels."""
    config, system, gains = built(data)
    dyn = CoupledDynamics(system, gains, config.disturbance, config.noise,
                          config.sim)
    G = np.random.default_rng(g).standard_normal((dyn.live.size, g))
    return RK4(dyn.M[np.ix_(dyn.live, dyn.live)], G, dyn.dt)


def empty_propagator():
    """An RK4 with no state and 4 channels."""
    return RK4(np.zeros((0, 0)), np.zeros((0, 4)), 1e-3)


def scalar_propagator():
    """An RK4 of one decaying state with 4 channels: 2n / 3d does not bound
    its blocks on the short horizons below."""
    G = np.random.default_rng(1).standard_normal((1, 4))
    return RK4(np.array([[-3.0]]), G, 0.1)


def assert_scan_matches_loop(rk4, n, seed):
    rng = np.random.default_rng(seed)
    d, g = rk4.P4G.shape
    c = rng.standard_normal((2 * n + 1, g))
    X = np.empty((n + 1, d))
    X[0] = rng.standard_normal(d)
    expect = propagator_loop(rk4, X[0], c, n)
    rk4.run(X, c)
    np.testing.assert_allclose(X, expect, rtol=0,
                               atol=1e-12 * np.max(np.abs(expect), initial=0))


@pytest.mark.parametrize("data, n, shape, b", [
    (FIG1, 2000, (12, 4), 32),       # 62 blocks of 32 and a 16-step tail
    (FIG1, 4608, (12, 4), 48),       # 96 blocks of 48, no tail
    (G81, 2000, (200, 81), 6),       # 2n / 3d, not sqrt(n / 2) = 32
    (None, 2000, (0, 4), 32),        # no state
], ids=["fig1_tail", "fig1_whole", "g81", "empty"])
def test_run_matches_the_one_step_loop(data, n, shape, b):
    rk4 = (empty_propagator() if data is None
           else scan_propagator(data, shape[1]))
    assert rk4.P4G.shape == shape
    assert block_size(n, shape[0]) == b
    assert_scan_matches_loop(rk4, n, seed=n)


@pytest.mark.parametrize("empty", [False, True], ids=["scalar", "empty"])
@pytest.mark.parametrize("n, blocks, tail", [
    (1, 1, 0), (2, 2, 0), (3, 3, 0), (5, 2, 1), (7, 3, 1), (21, 7, 0),
    (22, 7, 1)])
def test_run_on_few_blocks_matches_the_one_step_loop(n, blocks, tail, empty):
    rk4 = empty_propagator() if empty else scalar_propagator()
    b = block_size(n, rk4.P4G.shape[0])
    assert (n // b, n % b) == (blocks, tail)
    assert_scan_matches_loop(rk4, n, seed=n)


@pytest.mark.parametrize("data, g", [(FIG1, 4), (G81, 81)],
                         ids=["fig1", "g81"])
def test_run_allocates_at_most_twice_the_channel_table(data, g):
    # the forcing pass's stage table, 1.5 times c, is freed before the
    # channel sum, whose weights stay within about c because b <= 2n / 3d
    # (at g81, b = sqrt(n / 2) = 32 would make them 4.9 times c)
    rk4 = scan_propagator(data, g)
    d, g = rk4.P4G.shape
    n = 2000
    c = np.random.default_rng(0).standard_normal((2 * n + 1, g))
    X = np.zeros((n + 1, d))
    rk4.run(X, c)                                      # warm-up
    gc.collect()
    tracemalloc.start()
    try:
        rk4.run(X, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * c.nbytes, peak / c.nbytes


@pytest.mark.parametrize("shared_rows_only", [False, True])
@pytest.mark.parametrize("tail", [0, 5])
@pytest.mark.parametrize("b", [1, 6, 13])
@pytest.mark.parametrize("m", [1, 2, 3, 7])
def test_block_ends_are_the_forced_response_from_rest(m, b, tail,
                                                      shared_rows_only):
    # end_k from the channel sum against b looped steps from rest over
    # block k's rows 2kb..2kb + 2b, which the sum must not read past; with
    # shared_rows_only the channels are 0 but on the rows 2kb that blocks
    # k - 1 and k share (so with one block every end is exactly 0)
    rk4 = scan_propagator(FIG1, 4)
    d, g = rk4.P4G.shape
    rng = np.random.default_rng(100 * m + b)
    c = rng.standard_normal((2 * (m * b + tail) + 1, g))
    if shared_rows_only:
        shared = c[2 * b : 2 * m * b : 2 * b].copy()
        c[:] = 0.0
        c[2 * b : 2 * m * b : 2 * b] = shared
    ends = rk4._block_ends(c, b, m)
    expect = np.array([propagator_loop(rk4, np.zeros(d), c[2 * k * b :], b)[-1]
                       for k in range(m)])
    assert ends.shape == (m, d)
    np.testing.assert_allclose(ends, expect, rtol=0,
                               atol=1e-12 * np.max(np.abs(expect), initial=0))


def test_residual0_adds_exactly_its_mode():
    # residual0 is (w_4..w_8, w_4'..w_8'): its second entry is w_5
    config, system, gains = built(with_sim(FIG1, residual0=[0, 0.1] + [0] * 8))
    dyn = CoupledDynamics(system, gains, config.disturbance, config.noise,
                          config.sim)
    np.testing.assert_array_equal(dyn.live, [*range(12), 12 + 1, 12 + 5 + 1])


def assert_spectrum_of(dyn):
    """dyn.spectrum is eig(M): sorted, within 64 eps ||M||_2 of eigvals(M).
    The blocks and the whole M round differently."""
    want = np.sort_complex(np.linalg.eigvals(dyn.M))
    tol = 64 * np.finfo(float).eps * np.linalg.norm(dyn.M, 2)
    got = np.sort_complex(dyn.spectrum)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= tol


def assert_unset_dt(dt, cap):
    """dt is half the cap rounded down to DT_BITS significant bits."""
    assert math.ldexp(math.frexp(dt)[0], DT_BITS).is_integer()
    assert 0.5 * cap * (1.0 - 2.0 ** (1 - DT_BITS)) < dt <= 0.5 * cap


def test_spectrum_cap_and_dt_come_from_the_full_operator():
    config, system, gains = built(WIDE)
    dyn = CoupledDynamics(system, gains, config.disturbance, config.noise,
                          config.sim)
    assert dyn.dim == 200 and dyn.live.size == 80
    assert_spectrum_of(dyn)
    assert dyn.cap == stability_cap(dyn.spectrum)
    assert_unset_dt(dyn.dt, stability_cap(dyn.spectrum))
    with pytest.raises(ConfigError, match=f"stability cap {dyn.cap:.3e} "):
        simulate(system, gains, config.disturbance, config.noise,
                 replace(config.sim, dt=2.0 * dyn.cap))


def test_unset_dt_starts_each_noise_hold_on_its_own_step():
    # sim_wide's horizon: at half the cap unrounded, 277 of its 4,021 hold
    # edges j dt / 2 = 10 m dt gave floor(t / hold) = m - 1, the value of
    # the hold before
    config, system, gains = built(with_sim(WIDE, t_final=0.1))
    dyn = CoupledDynamics(system, gains, config.disturbance, config.noise,
                          config.sim)
    n = round(0.1 / dyn.dt)
    xi = noise_samples(dyn.noise, np.arange(2 * n + 1) * (0.5 * dyn.dt))
    holds = xi[: 2 * n // 20 * 20].reshape(-1, 20)
    assert np.all(holds == holds[:, :1])
    assert np.all(holds[1:, 0] != holds[:-1, 0])


def test_history_limit_counts_every_state():
    # about 1e5 steps: 8e6 values of the 80 reached states, 2e7 of all 200
    config, system, gains = built(with_sim(WIDE, t_final=0.25))
    with pytest.raises(ConfigError, match="; stepping 200 states through "):
        simulate(system, gains, config.disturbance, config.noise, config.sim)


def test_wide_run_keeps_only_the_reached_history():
    # 40,213 steps, three segments: the peak is the six-column table and
    # one segment's CHUNK_ROWS rows of the 80 reached states plus 24 words
    # (its two channels on two half steps, the noise synthesis, the RK4
    # stage table and the post-processing temporaries; 18 are seen); no
    # history of the 80 (or of all 200) states
    config, system, gains = built(with_sim(WIDE, t_final=0.1))
    tracemalloc.start()
    try:
        res = simulate(system, gains, config.disturbance, config.noise,
                       config.sim)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.t) > 2 * CHUNK_ROWS + 1
    assert np.all(res.norm_residual == 0.0)       # the 120 unreached states
    budget = 8 * (6 * len(res.t) + (80 + 24) * CHUNK_ROWS)
    assert peak < budget, (peak - 48 * len(res.t)) / (8 * CHUNK_ROWS)


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
    assert_unset_dt(dyn.dt, dyn.cap)


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


@settings(max_examples=60, derandomize=True, deadline=None)
@example(N=3, R=5, coupling="full", strategy="tune", x2=0.1, x0=0.095)
@given(N=st.integers(1, 8), R=st.integers(0, 6),
       coupling=st.sampled_from(["truncated", "full"]),
       strategy=st.sampled_from(["tune", "none"]),
       x2=st.floats(0.01, 0.5), x0=st.floats(0.01, 0.99))
def test_block_spectrum_is_eig_of_m(N, R, coupling, strategy, x2, x0):
    """The spectrum from M's strongly connected blocks is eigvals(M)'s,
    with its bits when one block is all of M (fig1 under full coupling),
    and with dt unset it refuses exactly the M that eigvals(M) finds
    unstable."""
    data = {"N": N, "placement": {"x2": x2, "x0": x0},
            "gains": {"strategy": strategy},
            "sim": {"residual_modes": R, "coupling": coupling, "dt": None}}
    try:
        config, system, gains = built(data)
    except PlacementError:
        assume(False)
    args = (system, gains, config.disturbance, config.noise)
    dyn = CoupledDynamics(*args, replace(config.sim, dt=1e-9))
    assert_spectrum_of(dyn)
    whole = np.linalg.eigvals(dyn.M)
    if len(dyn.components) == 1:
        np.testing.assert_array_equal(dyn.spectrum, whole)
    max_re = np.max(whole.real)
    assume(abs(max_re) > 64 * np.finfo(float).eps * np.linalg.norm(dyn.M, 2))
    if max_re >= 0.0:
        with pytest.raises(UnstableMatrixError):
            CoupledDynamics(*args, config.sim)
    else:
        assert_unset_dt(CoupledDynamics(*args, config.sim).dt, dyn.cap)


@pytest.mark.parametrize("x0, sizes", [(0.095, [22]), (0.2, [20, 2])],
                         ids=["fig1", "sensor_on_mode_5_node"])
def test_full_coupling_splits_off_a_mode_the_sensor_cannot_see(x0, sizes):
    # fig1's residual modes 4-8 all couple both ways: one block, all of M.
    # At x0 = 0.2, a node of mode 5, e does not see w_5, so its pair
    # (states 13 and 18) is a 2 x 2 block of its own after the rest.
    config, system, gains = built(
        with_sim({**FIG1, "placement": {"x0": x0}}, coupling="full",
                 dt=1e-6))
    dyn = CoupledDynamics(system, gains, config.disturbance, config.noise,
                          config.sim)
    assert [len(c) for c in dyn.components] == sizes
    assert_spectrum_of(dyn)
    if len(sizes) == 2:
        np.testing.assert_array_equal(dyn.components[1], [13, 18])
        assert dyn.block_name(dyn.dim - 1) == "residual mode 5"
        assert dyn.block_name(0) == ("the coupled block of z, e and "
                                     "residual modes 4, 6, 7, 8")


def unstable_state_feedback(system, gains):
    """fig1's gains with K = -10 B^T / ||B||^2: A - BK = A + 10 B B^T /
    ||B||^2 pumps energy in along B, so the A - BK block is unstable."""
    B = np.asarray(system.B)
    return replace(gains, K=-10.0 * B / (B @ B))


@pytest.mark.parametrize("coupling, feedback, name", [
    ("full", None, "the coupled block of z, e and residual modes 4-8"),
    ("truncated", unstable_state_feedback, "the A - BK block"),
], ids=["fig1_full", "unstable_A_BK"])
def test_refusals_name_the_block_that_holds_max_re(coupling, feedback, name):
    config, system, gains = built(with_sim(FIG1, coupling=coupling,
                                           dt=None, residual_modes=5))
    if feedback is not None:
        gains = feedback(system, gains)
    args = (system, gains, config.disturbance, config.noise)
    where = re.escape(f"(max Re is in {name})") + "$"
    with pytest.raises(UnstableMatrixError,
                       match=r"^the coupled operator M is not stable \(max Re "
                             r"eig\(M\) = \S+ >= 0\); set dt to integrate it "
                             r"anyway " + where):
        CoupledDynamics(*args, config.sim)
    with pytest.raises(ConfigError, match=r"reduce dt or leave it unset "
                                          + where):
        CoupledDynamics(*args, replace(config.sim, dt=1.0))


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
    # one call per block size: z and e, then the four residual modes
    assert calls == {"block": 1, "eigvals": [(2, 6, 6), (4, 2, 2)]}
    assert len(res.t) > 1


@pytest.mark.parametrize("kind, sizes", [("fig1", [11]), ("tail", [1, 1, 1])])
def test_one_force_table_per_distinct_harmonic_set(monkeypatch, kind, sizes):
    # fig1 drives modes 1-3 with the same comb: one synthesized table and
    # one channel; the tail load drives each mode at its own frequency: one
    # of each per mode
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
    args = (system, fig_gains(system), dist, NoiseSpec(bound=0.01, seed=2),
            SimConfig(t_final=0.05, dt=2.5e-4, residual_modes=5))
    res = simulate(*args)
    assert calls == sizes   # harmonics per synthesized table
    assert CoupledDynamics(*args).G.shape[1] == len(sizes) + 1
    assert np.all(np.isfinite(res.timeseries))


def test_rk4_order_from_step_halving():
    system = assemble(PARAMS, 2, PATCH)
    gains = fig_gains(system)
    dist = polyharmonic_disturbance(PARAMS, driven_modes=2)
    ends = {}
    for dt in (4e-4, 2e-4, 1e-4):
        cfg = SimConfig(t_final=0.4, dt=dt, seed=2)
        h = history(system, gains, dist, NO_NOISE, cfg)
        ends[dt] = np.concatenate([h.z[-1], h.z_hat[-1]])
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
    return system, history(system, gains, NO_FORCE, NO_NOISE, cfg)


def test_open_loop_energy_non_increasing():
    system, h = homogeneous_run(None)
    E = modal_energy(system, h.z)
    assert np.all(np.diff(E) <= 1e-10)


def test_energy_dissipation_identity():
    # dE/dt = -sum d_n w_n'^2; needs a step fine against the w'^2 swing
    system = assemble(PARAMS, 3, PATCH)
    cfg = SimConfig(t_final=0.05, dt=2e-5, seed=12)
    h = history(system, None, NO_FORCE, NO_NOISE, cfg)
    E = modal_energy(system, h.z)
    D = dissipation(system, h.z)
    dE = np.diff(E) / cfg.dt
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
    E = modal_energy(system, history(system, gains, NO_FORCE, NO_NOISE,
                                     cfg).z)
    assert np.all(np.diff(E) <= 1e-10)
    res = simulate(system, gains, NO_FORCE, NO_NOISE, cfg)
    assert np.all(res.V == 0.0)


def test_undamped_energy_conserved_to_integrator_error():
    system, h = homogeneous_run(None, a1=0.0, T=2.0)
    E = modal_energy(system, h.z)
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


@pytest.mark.parametrize("z_hat0, names", [
    ([1e153, 0.0, 0.0, 0.0], "V"),
    ([1e160, 0.0, 0.0, 0.0], "norm_e, V"),
    ([0.0, 0.0, 0.0, 1e160], "norm_e"),
])
def test_overflowing_series_are_named_by_their_columns(z_hat0, names):
    # finite states whose series overflow at step 0: with a gain of 1e156
    # on w_1, V = -z_hat @ K overflows where ||e|| = ||z_hat|| need not,
    # and the other way round (z0 = 0).  Named in the table's column order;
    # dt is below the cap of this unstable loop.
    system = assemble(PARAMS, 2, PATCH)
    gains = GainSet(K=np.array([1e156, 0.0, 0.0, 0.0]), L=np.zeros(4),
                    lambda_K=1.0, lambda_L=1.0, K_norm=1e156, L_norm=0.0,
                    BK_norm=0.0)
    cfg = SimConfig(t_final=0.0, dt=1e-300, z0=np.zeros(4),
                    z_hat0=np.array(z_hat0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            simulate(system, gains, NO_FORCE, NO_NOISE, cfg)
    assert str(err.value) == f"{names} became non-finite at step 0 (t = 0)"
    assert set(names.split(", ")) <= set(TIMESERIES)


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
            x = pointwise_step(dyn, x, i * dt)
            if not np.all(np.isfinite(x)):
                first_bad = i + 1
                break
    assert first_bad is not None
    assert abs(err.value.step - first_bad) <= block_size(n_steps,
                                                         dyn.live.size)
    assert err.value.time == err.value.step * dt
    # exactly the first non-finite row of the history: the finiteness test
    # runs before any derived series could warn on the huge rows before it
    h = history(system, bad, NO_FORCE, NO_NOISE, cfg)
    assert err.value.step == first_nonfinite_row(h.z, h.e, h.residual)


def test_derived_series_are_the_whole_array_formulas_bit_for_bit(
        monkeypatch):
    # three segments, dt given: on the states the segments stepped (each
    # starting from the last of the one before), the per-segment pass gives
    # each row the bits of the whole-array expression
    sim = importlib.import_module("piezobeam.simulate")
    run, segments = sim.RK4.run, []

    def recording_run(self, X, c):
        out = run(self, X, c)
        segments.append(X.copy())
        return out

    monkeypatch.setattr(sim.RK4, "run", recording_run)
    config, system, gains = built(with_sim(FIG1, t_final=9.0, dt=2.5e-4))
    res = simulate(system, gains, config.disturbance, config.noise,
                   config.sim)
    assert len(res.t) > 2 * CHUNK_ROWS + 1 and config.sim.z_hat0 is None
    assert len(segments) == 3
    for before, after in itertools.pairwise(segments):
        assert after[0].tobytes() == before[-1].tobytes()
    dyn = CoupledDynamics(system, gains, config.disturbance, config.noise,
                          config.sim)
    N, live = dyn.N, dyn.live
    X = np.zeros((len(res.t), dyn.dim))
    X[:, live] = np.concatenate([segments[0]] + [x[1:] for x in segments[1:]])
    z, e = X[:, : 2 * N], X[:, 2 * N : 4 * N]
    reached = live[live >= 4 * N] - 4 * N
    X_res = X[:, 4 * N :][:, reached]
    xi = noise_samples(res.noise, res.t)
    def norm(x):
        return np.sqrt(np.einsum("ij,ij->i", x, x))
    np.testing.assert_array_equal(res.V, e @ gains.K - z @ gains.K)
    np.testing.assert_array_equal(
        res.y, z @ system.C + X_res @ dyn.block.C[reached] + xi)
    np.testing.assert_array_equal(res.norm_e, norm(e))
    np.testing.assert_array_equal(res.norm_z, norm(z))
    np.testing.assert_array_equal(res.norm_residual, norm(X_res))
    assert math.copysign(1.0, res.V[0]) == 1.0      # z_hat(0) = 0: V = +0


@functools.cache
def fig1_design():
    return built({"preset": "fig1"})


def test_table_is_the_history_oracles_table():
    # the fig1 preset: 48,000 steps in three segments, against the table of
    # one whole-horizon RK4 run by the textbook formulas (TABLE_TOL)
    config, system, gains = fig1_design()
    args = (system, gains, config.disturbance, config.noise, config.sim)
    res = simulate(*args)
    assert len(res.t) == 48001
    assert_table_matches(res, history(*args))


@settings(max_examples=30, derandomize=True, deadline=None)
@example(steps=2 * CHUNK_ROWS + 1, harmonics=[[(1.0, 0.2, -1.6)]],
         residual_modes=2, seeds=(1, 2))       # the force peaks at t = 8
@given(steps=st.sampled_from([0, 1, CHUNK_ROWS - 1, CHUNK_ROWS,
                              CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1]),
       harmonics=st.lists(st.lists(st.tuples(
           st.floats(0.1, 3.0), st.floats(0.0, 60.0),
           st.floats(-math.pi, math.pi)), min_size=1, max_size=3),
           max_size=6),
       residual_modes=st.integers(0, 4),
       seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
def test_table_matches_the_oracle_at_segment_edges(steps, harmonics,
                                                   residual_modes, seeds):
    """fig1's design over 0, 1, S - 1, S, S + 1 and 2S + 1 steps (S =
    CHUNK_ROWS), under drawn forces on up to six modes (retained and
    residual), noise and initial state: the table within TABLE_TOL of the
    oracle's, and force_sup the sup of the forces on the time grid."""
    config, system, gains = fig1_design()
    dist = build_disturbance(harmonics)
    cfg = replace(config.sim, t_final=steps * config.sim.dt,
                  residual_modes=residual_modes, seed=seeds[1])
    args = (system, gains, dist, replace(config.noise, seed=seeds[0]), cfg)
    res = simulate(*args)
    assert len(res.t) == steps + 1
    assert_table_matches(res, history(*args))
    forces = np.stack([modal_force(dist, n, res.t)
                       for n in range(1, system.N + 1)])
    assert res.force_sup == pytest.approx(
        system.params.a2 * np.max(np.linalg.norm(forces, axis=0)),
        rel=1e-12, abs=0)


def test_result_keeps_no_full_length_temporaries():
    # what a run leaves allocated: its table of six series (t, V, y and
    # three norms), and no state history: a kept one would add its live
    # states' words a row
    config, system, gains = built(with_sim(FIG1, t_final=4.0,
                                           residual_modes=5))
    args = (system, gains, config.disturbance, config.noise, config.sim)
    simulate(*args)                                  # warm-up
    gc.collect()
    tracemalloc.start()
    try:
        res = simulate(*args)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept <= 8 * len(res.t) * 6 + 64 * 1024, kept / (8 * len(res.t))


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
    """The arguments of a run of 3 residual modes, all driven."""
    system = assemble(PARAMS, 3, PATCH)
    gains = fig_gains(system) if gains_kind == "tuned" else None
    dist = polyharmonic_disturbance(PARAMS, driven_modes=6, bound=11.0)
    cfg = SimConfig(t_final=0.5, dt=dt, residual_modes=3, coupling=coupling,
                    seed=7)
    return system, gains, dist, NO_NOISE, cfg


def test_truncation_mode_residual_identical_across_gains():
    args_a = residual_setup(Coupling.TRUNCATED, "tuned")
    args_b = residual_setup(Coupling.TRUNCATED, "none")
    res_a = history(*args_a).residual
    assert np.any(res_a != 0.0)
    np.testing.assert_array_equal(res_a, history(*args_b).residual)
    np.testing.assert_array_equal(simulate(*args_a).norm_residual,
                                  simulate(*args_b).norm_residual)


def test_full_coupling_feels_the_controller():
    # the tuned full-coupling loop is unstable (max Re eig(M) = 2.71) with
    # cap 1.53e-4: both sides run below it, and 2.5e-4 is refused
    def residual(coupling, gains_kind, dt=1e-4):
        return history(*residual_setup(coupling, gains_kind, dt)).residual

    res_trunc = residual(Coupling.TRUNCATED, "tuned")
    res_full = residual(Coupling.FULL, "tuned")
    assert not np.array_equal(res_trunc, res_full)
    with pytest.raises(ConfigError):
        simulate(*residual_setup(Coupling.FULL, "tuned", dt=2.5e-4))
    # without control the two coupling modes coincide
    np.testing.assert_array_equal(residual(Coupling.TRUNCATED, "none"),
                                  residual(Coupling.FULL, "none"))


def test_output_noise_is_the_noise_on_the_time_grid():
    # simulate reads xi(t_i) off the half-step channel grid at 2i
    system = assemble(PARAMS, 2, PATCH)
    noise = NoiseSpec(bound=0.01, seed=4)   # hold resolved to 10 dt
    cfg = SimConfig(t_final=0.5, dt=2.5e-4, seed=5)
    args = (system, fig_gains(system), NO_FORCE, noise, cfg)
    res, h = simulate(*args), history(*args)
    xi = noise_samples(res.noise, res.t)
    assert len(np.unique(xi)) > 100
    np.testing.assert_array_equal(
        res.y, h.z @ system.C + np.zeros(len(res.t)) + xi)


def test_measurement_spillover_enters_output():
    args = residual_setup(Coupling.TRUNCATED, "none")
    res, h = simulate(*args), history(*args)
    from piezobeam.modal import residual_block
    block = residual_block(PARAMS, PATCH, 3, 3)
    r = h.residual @ block.C
    np.testing.assert_allclose(res.y, h.z @ res.system.C + r, rtol=0,
                               atol=1e-14)


# ---------------------------------------------------------------------------
# single-mode residual integrator
# ---------------------------------------------------------------------------

def residual_rule(params, k, harmonics, damping_model=DampingModel.STRUCTURAL):
    """(rate, dt, om_max) of ``simulate_residual_mode``'s one rule for mode
    k: the slow root's decay rate, dt = min(pi / (20 om_max), 0.1 /
    max(d, rate)) and the fastest of sigma_k^2 and the harmonics."""
    from piezobeam.modal import damping_coefficients, mode_roots
    from piezobeam.simulate import DT_IMAG_FACTOR, DT_REAL_FACTOR

    s2 = (k * math.pi) ** 2
    d = float(damping_coefficients(params, np.array([k]), damping_model)[0])
    rate = -float(mode_roots(params, [k], damping_model)[0][0].real)
    om_max = max(max((abs(om) for _, om, _ in harmonics), default=s2), s2)
    dt = min(DT_IMAG_FACTOR / om_max / 2.0, DT_REAL_FACTOR / max(d, rate))
    return rate, dt, om_max


def residual_horizon(settle_decays, kept_periods):
    """``simulate_residual_mode`` settling for ``settle_decays`` decay times
    and keeping ``kept_periods`` periods of the fastest frequency."""
    return unittest.mock.patch.multiple(
        importlib.import_module("piezobeam.simulate"),
        SETTLE_DECAYS=settle_decays, KEPT_PERIODS=kept_periods)


def steps_horizon(rate, dt, om_max, steps, settle):
    """The residual horizon of ``steps`` steps at dt whose first ``settle``
    fraction settles."""
    return residual_horizon(settle * steps * dt * rate,
                            (1.0 - settle) * steps * dt * om_max
                            / (2.0 * math.pi))


def scalar_residual_mode(params, k, harmonics,
                         damping_model=DampingModel.STRUCTURAL):
    """Reference: simulate_residual_mode as a per-step scalar RK4 loop, on
    the horizon its constants set."""
    from piezobeam.modal import damping_coefficients
    sim_module = importlib.import_module("piezobeam.simulate")

    s2 = (k * math.pi) ** 2
    s4 = s2 * s2
    d = float(damping_coefficients(params, np.array([k]), damping_model)[0])
    rate, dt, om_max = residual_rule(params, k, harmonics, damping_model)
    settle_time = sim_module.SETTLE_DECAYS / rate
    t_final = settle_time + sim_module.KEPT_PERIODS * (2.0 * math.pi / om_max)
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


def damped_omega(k, model, params=PARAMS):
    return float(resonant_frequencies(params, [k], model)[0])


STRUCTURAL = DampingModel.STRUCTURAL
CRITICAL = BeamParams.dimensionless(a1=2.0)
OVERDAMPED = BeamParams.dimensionless(a1=3.0)


# the ids of the first four predate the params and horizon columns
@pytest.mark.parametrize("k, model, harmonics, params, horizon", [
    pytest.param(4, STRUCTURAL, [(2.0, 0.8 * (4 * math.pi) ** 2, 0.3)],
                 PARAMS, {}, id="4-DampingModel.STRUCTURAL-harmonics0"),
    pytest.param(6, STRUCTURAL, [(1.0, damped_omega(6, STRUCTURAL), 0.0)],
                 PARAMS, {}, id="6-DampingModel.STRUCTURAL-harmonics1"),
    pytest.param(9, STRUCTURAL, [(1.0, damped_omega(9, STRUCTURAL), 0.0),
                                 (0.5, 3.0, 1.1)],
                 PARAMS, {}, id="9-DampingModel.STRUCTURAL-harmonics2"),
    pytest.param(10, DampingModel.KELVIN_VOIGT,
                 [(1.0, damped_omega(10, DampingModel.KELVIN_VOIGT), 0.0)],
                 PARAMS, {}, id="10-DampingModel.KELVIN_VOIGT-harmonics3"),
    # a1 = 2: R1 is a Jordan block, with no eigenbasis
    pytest.param(4, STRUCTURAL,
                 [(1.0, damped_omega(4, STRUCTURAL, CRITICAL), 0.0)],
                 CRITICAL, {}, id="critically-damped"),
    pytest.param(3, STRUCTURAL,
                 [(1.0, damped_omega(3, STRUCTURAL, OVERDAMPED), 0.0),
                  (0.5, 3.0, 1.1)],
                 OVERDAMPED, {}, id="overdamped"),
    # 36k kept states: the transient carries over two slice boundaries
    pytest.param(5, STRUCTURAL, [(1.0, damped_omega(5, STRUCTURAL), 0.0)],
                 PARAMS, {"settle_decays": 0.6, "kept_periods": 900},
                 id="window-over-CHUNK_ROWS"),
])
def test_residual_mode_matches_scalar_loop(k, model, harmonics, params,
                                           horizon):
    if horizon:
        _, dt, om_max = residual_rule(params, k, harmonics, model)
        kept = horizon["kept_periods"] * (2.0 * math.pi / om_max) / dt
        assert kept > 2 * CHUNK_ROWS
    with residual_horizon(**horizon) if horizon else contextlib.nullcontext():
        got = simulate_residual_mode(params, k, harmonics, model)
        want = scalar_residual_mode(params, k, harmonics, model)
    assert want[0] > 0.0 and want[1] > 0.0
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(k=st.integers(1, 12),
       ratio=st.one_of(st.just(2.0), st.floats(0.005, 5.0)),
       model=st.sampled_from(DampingModel),
       harmonics=st.lists(st.tuples(st.floats(0.1, 3.0), st.floats(0.0, 2.0),
                                    st.floats(-math.pi / 3, math.pi / 3)),
                          min_size=1, max_size=3),
       steps=st.integers(1, 1500), settle=st.floats(0.0, 1.0))
def test_residual_mode_matches_scalar_loop_on_short_runs(k, ratio, model,
                                                         harmonics, steps,
                                                         settle):
    """The closed form against the stepped loop on short runs of about
    ``steps`` steps, the sup taken from the ``settle`` fraction on.

    The draw is on the damping ratio d / sigma^2, for either model: both
    solutions carry a relative error of about (d / sigma^2)^2 eps, the
    condition of z I - R1 at z = 1 when the slow root nears 0.  Positive
    amplitudes with phases within pi/3 of 0 keep the harmonics from
    cancelling to a response of rounding size.
    """
    s2 = (k * math.pi) ** 2
    a1 = ratio / s2 if model is DampingModel.KELVIN_VOIGT else ratio
    params = BeamParams.dimensionless(a1=a1)
    hs = [(a, r * s2, ph) for a, r, ph in harmonics]
    with steps_horizon(*residual_rule(params, k, hs, model), steps, settle):
        got = simulate_residual_mode(params, k, hs, model)
        want = scalar_residual_mode(params, k, hs, model)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


def test_residual_mode_sup_starts_at_settle_time():
    # the sup covers states after step i with i dt >= the settle time only,
    # here of a 0.3 horizon: none when it settles for all of it
    om = damped_omega(5, DampingModel.STRUCTURAL)
    rate, dt, om_max = residual_rule(PARAMS, 5, [(1.0, om, 0.0)])
    for settle in (0.0, 0.05, 0.1 + 1e-3, 0.3):
        with residual_horizon(settle * rate,
                              (0.3 - settle) * om_max / (2.0 * math.pi)):
            got = simulate_residual_mode(PARAMS, 5, [(1.0, om, 0.0)])
            want = scalar_residual_mode(PARAMS, 5, [(1.0, om, 0.0)])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
    assert got == (0.0, 0.0)


def test_residual_mode_memory_does_not_grow_with_horizon():
    om = damped_omega(5, DampingModel.STRUCTURAL)
    tracemalloc.start()
    try:
        with residual_horizon(12, 10_000):
            sup, _ = simulate_residual_mode(PARAMS, 5, [(1.0, om, 0.0)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 4e5 kept states: held at once, they alone would take 6.4 MB and the
    # half-step forcing another 6.4 MB
    assert sup > 0.0
    assert peak < 4e6, peak


def sup_bits(sups):
    return np.asarray(sups, dtype=float).tobytes()


@settings(max_examples=50, derandomize=True, deadline=None)
@given(model=st.sampled_from(DampingModel),
       ratio=st.sampled_from([0.01, 0.3, 2.0]),
       B=st.integers(1, 12),
       modes=st.lists(st.integers(1, 12), min_size=12, max_size=12),
       harmonics=st.lists(st.tuples(st.floats(0.1, 3.0), st.floats(0.5, 1.5),
                                    st.floats(-math.pi, math.pi)),
                          min_size=1, max_size=36),
       H=st.integers(1, 3),
       horizon=st.one_of(st.none(), st.tuples(
           st.floats(0.0, 12.0),
           st.sampled_from([1, 3, 1000, CHUNK_ROWS, CHUNK_ROWS + 1,
                            2 * CHUNK_ROWS + 5, 3 * CHUNK_ROWS]))))
def test_residual_mode_batch_matches_single_calls(model, ratio, B, modes,
                                                  harmonics, H, horizon):
    """A batch of modes gives each mode's single-call sups bit for bit.

    Each mode has its own dt, settle time and window, so a pass holds
    slices of several lengths, padded to the longest.  The default horizon
    keeps 40 periods; a drawn one settles for up to 12 decay times and
    keeps the periods of up to three slices of states (40 steps a period,
    more where the damping, not the frequency, sets dt).  ``ratio`` is the
    damping ratio d / sigma^2 at mode 4 (at every mode under structural
    damping).
    """
    modes = np.array(modes[:B])
    kv = model is DampingModel.KELVIN_VOIGT
    params = BeamParams.dimensionless(
        a1=ratio / (4 * math.pi) ** 2 if kv else ratio)
    om = resonant_frequencies(params, modes, model)
    hs = np.resize(np.array(harmonics), (len(modes), H, 3))   # cycled
    hs[..., 1] *= om[:, None]
    with (contextlib.nullcontext() if horizon is None
          else residual_horizon(horizon[0], horizon[1] / 40)):
        got = simulate_residual_mode(params, modes, hs, model)
        want = [simulate_residual_mode(params, int(k),
                                       [tuple(h) for h in hk], model)
                for k, hk in zip(modes, hs)]
    assert got[0].shape == got[1].shape == (len(modes),)
    assert sup_bits(np.transpose(got)) == sup_bits(want)


def matrix_power_state(params, k, harmonic, dt, j):
    """x_j of the closed form for one mode and harmonic, R1^j by
    np.linalg.matrix_power, and sum |X|: the size of the terms it
    subtracts, which sets its rounding."""
    rk4 = RK4(oscillator_matrix(params, [k]), np.array([[0.0], [params.a2]]),
              dt)
    a, om, ph = (np.array([h]) for h in harmonic)
    q = np.exp(0.5j * dt * om)[:, None]
    w = (a * np.exp(1j * ph))[:, None] * (q ** np.arange(3) @ rk4.PG.T)
    X = np.linalg.solve((q * q)[:, :, None] * np.eye(2) - rk4.R1,
                        w[:, :, None])[:, :, 0]
    v = X.real.sum(axis=0)
    return ((np.exp(1j * np.outer([j * dt], om)) @ X).real[0]
            - np.linalg.matrix_power(rk4.R1, j) @ v), float(np.abs(X).sum())


@pytest.mark.parametrize("j", range(1, 7))
def test_residual_mode_first_state_has_matrix_power_bits(j):
    # a window of the one state j (settled from step j - 1.5, to step j):
    # R1^j v by square-and-multiply agrees with np.linalg.matrix_power's
    # products to the rounding of the terms (j = 3 multiplies in another
    # order and differs in the last bits)
    modes = np.array([3, 6, 12])
    for a1 in np.linspace(0.001, 3.0, 60):
        params = BeamParams.dimensionless(a1=a1)
        for k in modes:
            h = (1.0, 0.9 * (k * math.pi) ** 2, 0.2)
            rate, step, om_max = residual_rule(params, int(k), [h])
            with residual_horizon((j - 1.5) * step * rate,
                                  1.5 * step * om_max / (2.0 * math.pi)):
                sups = simulate_residual_mode(params, int(k), [h])
            x, size = matrix_power_state(params, k, h, step, j)
            np.testing.assert_allclose(
                sups, (math.hypot(*x), abs(x[0])), rtol=0,
                atol=4 * np.finfo(float).eps * size)


def test_residual_mode_batch_refuses_the_first_mode_over_the_limit():
    # under Kelvin-Voigt damping mode 60 would take 1.6e7 steps and mode 70
    # 2.9e7, both over the limit; mode 4 is in range
    kv = {"damping_model": DampingModel.KELVIN_VOIGT}
    modes = np.array([4, 60, 70])
    hs = resonant_frequencies(PARAMS, modes, DampingModel.KELVIN_VOIGT)
    hs = np.stack([np.ones(3), hs, np.zeros(3)], axis=-1)[:, None]
    with pytest.raises(ConfigError) as batch:
        simulate_residual_mode(PARAMS, modes, hs, **kv)
    with pytest.raises(ConfigError) as single:
        simulate_residual_mode(PARAMS, 60, [tuple(hs[1, 0])], **kv)
    assert str(batch.value) == str(single.value)
    assert str(batch.value).startswith("residual mode 60 would take ")


def test_residual_mode_batch_memory_does_not_grow_with_horizon():
    modes = np.arange(5, 9)
    om = resonant_frequencies(PARAMS, modes, DampingModel.STRUCTURAL)
    hs = np.stack([np.ones(4), om, np.zeros(4)], axis=-1)[:, None]
    tracemalloc.start()
    try:
        with residual_horizon(12, 10_000):
            sups, _ = simulate_residual_mode(PARAMS, modes, hs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 4e5 kept states a mode and 1.6e6 in all: held at once, they alone
    # would take 25.6 MB
    assert (sups > 0.0).all()
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


class _Built(Exception):
    """Raised by a stand-in RK4 once it holds the residual propagators."""


@settings(max_examples=200, derandomize=True, deadline=None)
@given(a1=st.floats(-12.0, 3.0).map(lambda e: 10.0 ** e),
       model=st.sampled_from(DampingModel), k=st.integers(1, 260),
       ratio=st.floats(0.0, 2.0))
# the largest radius of a scan over a1 in [1e-12, 1e3], modes 1-260 and
# forcing up to 2 sigma^2: 0.9999986, where the settle horizon meets the
# step limit
@example(a1=6.918309709189363e-11, model=DampingModel.KELVIN_VOIGT, k=231,
         ratio=2.0)
def test_residual_mode_rule_dt_has_stable_propagators(a1, model, k, ratio):
    """At the rule's dt, every mode that the step limit admits has an R1
    of spectral radius below 1: the closed form never meets a diverging
    recurrence, so none is refused."""
    params = BeamParams.dimensionless(a1=a1)
    built = []

    def rk4(*args):
        built.append(RK4(*args))
        raise _Built

    with unittest.mock.patch.object(
            importlib.import_module("piezobeam.simulate"), "RK4", rk4):
        try:
            simulate_residual_mode(params, k, [(1.0, ratio * (k * math.pi)
                                                ** 2, 0.0)], model)
        except ConfigError:         # over the step limit: never stepped
            assume(False)
        except _Built:
            pass
    assert np.abs(np.linalg.eigvals(built[0].R1)).max() < 1.0


@settings(max_examples=60, derandomize=True, deadline=None)
@given(j0=st.lists(st.integers(1, 2**23), min_size=1, max_size=3),
       rows=st.integers(1, CHUNK_ROWS),
       dt=st.lists(st.floats(1e-7, 1e-2), min_size=3, max_size=3),
       om=st.lists(st.floats(-1e4, 1e4), min_size=9, max_size=9),
       H=st.integers(1, 3))
def test_phasors_are_np_exp_by_angle_addition(j0, rows, dt, om, H):
    # each entry within 8 eps (1 + |phase|) of the pointwise np.exp, whose
    # phase rounds by about eps |phase| (as do the coarse and fine ones);
    # every slice's first row with np.exp's bits
    j0 = np.array(j0)
    dt, om = np.array(dt[: len(j0)]), np.array(om).reshape(3, 3)[: len(j0), :H]
    phase = (((j0[:, None] + np.arange(rows)) * dt[:, None])[..., None]
             * om[:, None])
    want = np.exp(1j * phase)
    got = _phasors(j0, dt, om, rows)
    assert got.shape == want.shape == (len(j0), rows, H)
    err = np.abs(got - want)
    assert np.all(err <= 8 * np.finfo(float).eps * (1 + np.abs(phase))), \
        np.max(err / (1 + np.abs(phase)))
    assert got[:, 0].tobytes() == want[:, 0].tobytes()


# ---------------------------------------------------------------------------
# output tail: row norms and the blocked finiteness tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("width", [*range(13), 40, 128, 129, 130, 200, 400])
def test_row_norms_are_numpy_norms_bit_for_bit(width):
    # np.linalg.norm's values to a few eps sqrt(width) (the two sum the
    # squares in different orders), on contiguous blocks and on strided
    # column views of a wider history alike, at every scale from 1e-20 to
    # 1e20; rows of -0 give +0 and rows whose squares overflow give inf
    rng = np.random.default_rng(width)
    history = (rng.standard_normal((1501, width + 5))
               * 10.0 ** rng.integers(-8, 9, (1501, width + 5)))
    history[::7, 1] = -0.0
    history[3] = -0.0
    huge = history[5::11, 2:]                  # squares overflow
    huge[:] = 10.0 ** rng.uniform(150, 160, huge.shape)
    views = [history[:, 2 : 2 + width], history[::3, 3 : 3 + width],
             np.ascontiguousarray(history[:7, 1 : 1 + width]),
             history[:1, :width]]
    with np.errstate(over="ignore"):       # squares above 1e308 are inf
        for x, scale in itertools.product(views, (1e-20, 1.0, 1e20)):
            x = x * scale if scale != 1.0 else x
            got = row_norms(x)
            np.testing.assert_allclose(
                got, np.linalg.norm(x, axis=1), rtol=2 * np.finfo(float).eps
                * math.sqrt(max(width, 1)), atol=0)
            assert not np.signbit(got).any()


def first_nonfinite_row(*series):
    """First row where any of the 1-D or 2-D histories is non-finite."""
    bad = np.zeros(len(series[0]), bool)
    for s in series:
        bad |= ~np.isfinite(s).reshape(len(s), -1).all(axis=1)
    return int(np.argmax(bad)) if bad.any() else None


@pytest.mark.parametrize("edge", ["first", "last"])
def test_nonfinite_rows_at_block_edges_keep_their_step(monkeypatch, edge):
    # a diverging run: first its non-finite state, then, with the horizon
    # ending before it, the first step whose norm overflows from finite
    # states; each is reported at its own step when it sits first or last
    # in a segment.  And over the whole horizon with the overflow at an
    # edge of an early segment, the non-finite state of a later segment
    # wins.
    system = assemble(PARAMS, 2, PATCH)
    bad = unstable_gains(system)
    dt = half_cap(system, bad)
    cfg = SimConfig(t_final=10.0, dt=dt, seed=1)
    h = history(system, bad, NO_FORCE, NO_NOISE, cfg)
    state_step = first_nonfinite_row(h.z, h.e, h.residual)
    with np.errstate(over="ignore", invalid="ignore"):
        table = h.timeseries()
    norm_step = first_nonfinite_row(table[:, 1:])
    assert 2 < norm_step < state_step
    short = replace(cfg, t_final=(state_step - 1) * dt)
    sim_module = importlib.import_module("piezobeam.simulate")
    # segment j of C steps steps from row jC to rows jC + 1 .. (j + 1) C:
    # step s is the first of segment 1 at C = s - 1, the last of segment 0
    # at C = s
    # the negated observer gain makes e, and with K = 0 nothing else, grow
    for run, step, what, at in ((short, norm_step, "norm_e", norm_step),
                                (cfg, state_step, "state", norm_step),
                                (cfg, state_step, "state", state_step)):
        monkeypatch.setattr(sim_module, "CHUNK_ROWS",
                            at - 1 if edge == "first" else at)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                simulate(system, bad, NO_FORCE, NO_NOISE, run)
        assert err.value.step == step
        assert err.value.time == step * dt
        assert str(err.value).startswith(f"{what} became non-finite at step")
