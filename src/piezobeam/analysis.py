"""Closed-form norm bounds and simulation-derived performance metrics.

The observer error and plant state obey, along solutions,

    ||e(t)|| <= kappa_L [ e^(-lambda_L t) ||e(0)|| + (||F|| + ||L|| ||eps||) / lambda_L ]
    ||z(t)|| <= kappa_K [ e^(-lambda_K t) ||z(0)|| + (||F|| + ||B K|| sup||e||) / lambda_K ]

where kappa_* is the eigenvector condition number of A - LC / A - BK.  The
kappa factor is required: the placed matrices are far from normal, so the
bare exponential bound is falsifiable, while the kappa-qualified one
always holds.  Bound evaluation keeps the two ingredients separate: the
curves below carry no kappa, callers multiply by the reported kappa.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .modal import DampingModel, mode_roots, resonant_frequencies
from .simulate import simulate_residual_mode
from .synthesis import decay_rate, eigvec_condition


def error_bound_curve(gains, F_bound, eps_bound, e0_norm, times):
    """Error-norm bound e^(-lambda_L t) ||e0|| + (F + ||L|| eps) / lambda_L."""
    times = np.asarray(times, dtype=float)
    steady = (F_bound + gains.L_norm * eps_bound) / gains.lambda_L
    return np.exp(-gains.lambda_L * times) * e0_norm + steady


def state_bound_curve(gains, F_bound, e_bound, z0_norm, times):
    """State-norm bound e^(-lambda_K t) ||z0|| + (F + ||BK|| e_bound) / lambda_K."""
    times = np.asarray(times, dtype=float)
    steady = (F_bound + gains.BK_norm * e_bound) / gains.lambda_K
    return np.exp(-gains.lambda_K * times) * z0_norm + steady


@dataclass
class BoundReport:
    """Scalar summary of the two norm bounds for one gain set."""

    lambda_L: float
    lambda_K: float
    L_norm: float
    BK_norm: float
    F_bound: float
    eps_bound: float
    e_bound_used: float
    e_steady_bound: float
    z_steady_bound: float
    kappa_L: float
    kappa_K: float


def build_bound_report(system, gains, F_bound, eps_bound):
    """Evaluate the steady-state bound terms and conditioning factors.

    The error-norm level inserted into the state bound (``e_bound_used``)
    is the a-priori kappa_L-qualified steady error bound.
    """
    kappa_L = eigvec_condition(system.A - np.outer(gains.L, system.C))
    kappa_K = eigvec_condition(system.A - np.outer(system.B, gains.K))
    e_steady = (F_bound + gains.L_norm * eps_bound) / gains.lambda_L
    e_bound_used = kappa_L * e_steady
    z_steady = (F_bound + gains.BK_norm * e_bound_used) / gains.lambda_K
    return BoundReport(
        lambda_L=gains.lambda_L, lambda_K=gains.lambda_K,
        L_norm=gains.L_norm, BK_norm=gains.BK_norm,
        F_bound=F_bound, eps_bound=eps_bound, e_bound_used=e_bound_used,
        e_steady_bound=e_steady, z_steady_bound=z_steady,
        kappa_L=kappa_L, kappa_K=kappa_K,
    )


# ---------------------------------------------------------------------------
# Residual (spillover) bounds
# ---------------------------------------------------------------------------

@dataclass
class ResidualReport:
    """Per-mode residual amplitude bounds and their tail sums.

    The per-mode bound is a2 ||f_k|| / (a1 pi^2 k^2).  Summing a uniform
    envelope ||f_k|| <= f0 over k > N gives a2 f0 / (a1 pi^2 (N+1)); the
    smooth envelope f0 / k^2 gives a2 f0 / (3 a1 pi^2 (N+1)^3).  Simulated
    per-mode amplitudes (sup of the (w, w') norm under resonant forcing,
    where the bound is tight) and their fitted k-exponent are attached when
    the simulation pass ran.
    """

    N: int
    modes: np.ndarray
    per_mode_bound: np.ndarray
    tail_sum_uniform: float
    tail_sum_smooth: float
    simulated_sup: np.ndarray = None
    decay_exponent: float = None


def residual_bounds(params, f0, N, K_max, damping_model=DampingModel.STRUCTURAL,
                    simulate_fit=True):
    """Residual bounds for modes N+1..K_max plus a simulated decay-fit.

    Requires a1 > 0 (else ConfigError), f0 >= 0 and K_max > N.  The decay
    exponent comes from fitting log sup-amplitude against log k over RK4
    runs of each residual mode driven at its own resonant frequency with
    amplitude f0; the structural damping model makes that exponent
    approach -2.  A single residual mode gives no exponent.
    """
    if not params.a1 > 0.0:
        raise ConfigError(f"beam.a1 must be > 0 for residual bounds "
                          f"(they scale as 1 / a1), got {params.a1}")
    if f0 < 0.0:
        raise ValueError(f"f0 must be >= 0, got {f0}")
    if K_max <= N:
        raise ValueError(f"K_max must exceed N, got K_max={K_max}, N={N}")
    modes = np.arange(N + 1, K_max + 1)
    a1, a2 = params.a1, params.a2
    per_mode = a2 * f0 / (a1 * np.pi**2 * modes.astype(float) ** 2)
    tail_uniform = a2 * f0 / (a1 * math.pi**2 * (N + 1))
    tail_smooth = a2 * f0 / (3.0 * a1 * math.pi**2 * (N + 1) ** 3)

    sims = None
    exponent = None
    if simulate_fit and f0 > 0.0:
        omegas = resonant_frequencies(params, modes, damping_model)
        sims = np.array([
            simulate_residual_mode(params, int(k), [(f0, float(om), 0.0)],
                                   damping_model=damping_model)[0]
            for k, om in zip(modes, omegas)
        ])
        if modes.size >= 2:
            exponent = float(np.polyfit(np.log(modes), np.log(sims), 1)[0])

    return ResidualReport(
        N=N, modes=modes, per_mode_bound=per_mode,
        tail_sum_uniform=tail_uniform, tail_sum_smooth=tail_smooth,
        simulated_sup=sims, decay_exponent=exponent,
    )


def damping_decay_rates(params, damping_model, k_range):
    """Slowest decay rate Re(lambda_k) of each mode under the given damping.

    Structural damping: Re = -a1 sigma_k^2 / 2 while underdamped, so the
    rates grow without bound in k.  Kelvin-Voigt damping: the slow root's
    real part tends to the k-independent constant -1/a1, which is what lets
    spillover persist at high mode numbers.
    """
    ks = list(k_range)
    if not ks:
        raise ValueError("k_range must be nonempty")
    return mode_roots(params, ks, damping_model)[0].real


@dataclass
class TailStudy:
    """Tail sums of simulated residual amplitudes across truncation orders."""

    regime: str
    n_values: np.ndarray
    tail_sums: np.ndarray
    slope: float


def residual_tail_study(params, f0, n_values, R, regime,
                        damping_model=DampingModel.STRUCTURAL):
    """Simulated spillover tail sum_(k=N+1..N+R) sup||(w_k, w_k')|| vs N.

    Every residual mode is driven by a single cosine at its own resonant
    frequency with amplitude f0 (uniform regime) or f0 / k^2 (smooth), the
    worst-case content for which the per-mode bound is attained.  Responses
    scale linearly in the amplitude, so each mode is integrated once at
    unit amplitude and rescaled.  ``slope`` is the log-log fit of the tail
    sum against N.
    """
    if regime not in ("uniform", "smooth"):
        raise ValueError(f"unknown tail regime {regime!r}")
    n_values = np.asarray(sorted(n_values), dtype=int)
    needed = sorted({
        int(k) for N in n_values for k in range(N + 1, N + R + 1)
    })
    unit = {}
    for k, om in zip(needed, resonant_frequencies(params, needed,
                                                  damping_model)):
        unit[k] = simulate_residual_mode(params, k, [(1.0, float(om), 0.0)],
                                         damping_model=damping_model)[0]
    sums = []
    for N in n_values:
        total = 0.0
        for k in range(N + 1, N + R + 1):
            amp = f0 if regime == "uniform" else f0 / k**2
            total += amp * unit[k]
        sums.append(total)
    sums = np.array(sums)
    slope = float(np.polyfit(np.log(n_values.astype(float)), np.log(sums), 1)[0])
    return TailStudy(regime=regime, n_values=n_values, tail_sums=sums,
                     slope=slope)


# ---------------------------------------------------------------------------
# Simulation metrics
# ---------------------------------------------------------------------------

@dataclass
class PerformanceMetrics:
    peak_e: float
    t_peak: float
    settle_time: float
    steady_band: float
    steady_e: float
    steady_z: float
    force_sup: float
    attenuation_ratio: float


def performance_metrics(result):
    """Transient/steady metrics of one run.

    The steady window is the final 20% of the horizon; the run must be long
    enough that the window starts after ten controller decay times
    (10 / lambda_K), else ConfigError.  The steady band is mean + 3 std of
    ||e|| over the window; settling time is the first time ||e|| enters and
    stays within twice that band.  The attenuation ratio divides the steady
    mean of ||z|| by ``result.force_sup``, the sup of the modal force
    vector norm sampled on the grid.
    """
    t_final = result.t[-1]
    gains = result.gains
    lam = gains.lambda_K if gains is not None else decay_rate(result.system.A)
    if 0.8 * t_final < 10.0 / lam:
        raise ConfigError(
            f"horizon {t_final:.3g} too short: steady window begins before "
            f"10 / lambda_K = {10.0 / lam:.3g}"
        )

    tail = slice(int(math.ceil(0.8 * (len(result.t) - 1))), None)
    ne, nz = result.norm_e, result.norm_z
    steady_e = float(np.mean(ne[tail]))
    steady_z = float(np.mean(nz[tail]))
    band = steady_e + 3.0 * float(np.std(ne[tail]))

    i_peak = int(np.argmax(ne))
    peak = float(ne[i_peak])

    level = 2.0 * band
    above = np.nonzero(ne > level)[0]
    settle = 0.0 if above.size == 0 else float(result.t[min(above[-1] + 1,
                                                            len(result.t) - 1)])

    force_sup = result.force_sup
    ratio = steady_z / force_sup if force_sup > 0.0 else 0.0

    return PerformanceMetrics(
        peak_e=peak, t_peak=float(result.t[i_peak]), settle_time=settle,
        steady_band=band, steady_e=steady_e, steady_z=steady_z,
        force_sup=force_sup, attenuation_ratio=ratio,
    )
