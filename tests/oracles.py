"""Closed-form references that several test modules compare the package to.

Each is the textbook formula, written apart from the code it checks: the
mode shapes and their slope (for ``modal.actuator_gain``), the damped beam
operator's eigenvalue pair per mode (for ``modal.mode_roots``, the
assembled spectrum and acceptance criterion 1), the static modal gain
(for the steady response to a constant force), and the modal energy and
its dissipation rate (for the energy checks on simulated plant states),
the held noise hashed sample by sample (for ``signals.noise_samples``,
which hashes each hold interval once), the backward residual of a
placed gain (for ``synthesis.place_poles`` and ``place_observer_poles``),
and a run's whole state history (for ``simulate``, which keeps none).
"""

import math
from dataclasses import dataclass

import numpy as np

from piezobeam.beam import SQRT2, cos_pi, sin_pi
from piezobeam.modal import DampingModel
from piezobeam.signals import cosine_sum_grid, noise_samples
from piezobeam.simulate import CoupledDynamics, _step_count


def mode_shape(n, x):
    """n-th L2-normalized eigenfunction sqrt(2) sin(n pi x) on [0, 1]."""
    return SQRT2 * sin_pi(n * x)


def mode_shape_derivative(n, x):
    """Spatial derivative sqrt(2) n pi cos(n pi x) of the n-th mode."""
    return SQRT2 * n * math.pi * cos_pi(n * x)


def continuous_eigenvalues(params, n):
    """Eigenvalue pair of the damped beam operator for mode n.

    Both returned values are the roots of

        lambda^2 + a1 sigma_n^2 lambda + sigma_n^4 = 0,

    i.e. sigma_n^2 * (-a1 +/- sqrt(a1^2 - 4)) / 2: a complex-conjugate pair
    for a1 < 2, two negative reals for a1 > 2, and a double root -sigma_n^2
    at a1 = 2.  Returned as (root with + sqrt, root with - sqrt).
    """
    s2 = (n * math.pi) ** 2
    a1 = params.a1
    if a1 < 2.0:
        re = -a1 * s2 / 2.0
        im = s2 * math.sqrt(4.0 - a1 * a1) / 2.0
        return complex(re, im), complex(re, -im)
    if a1 > 2.0:
        root = math.sqrt(a1 * a1 - 4.0)
        return (complex(s2 * (-a1 + root) / 2.0),
                complex(s2 * (-a1 - root) / 2.0))
    return complex(-s2), complex(-s2)


def static_gain(params, n):
    """Steady modal amplitude per unit constant modal force: a2 / sigma_n^4."""
    return params.a2 / (n * math.pi) ** 4


def modal_energy(system, z):
    """Energy (1/2) sum(w_n'^2 + sigma_n^4 w_n^2) of the state(s) z, 2N in
    the last axis, of a truncated ``ModalSystem``."""
    z = np.asarray(z, dtype=float)
    s2 = (system.modes * math.pi) ** 2
    w, wd = z[..., : system.N], z[..., system.N :]
    return 0.5 * np.sum(wd**2 + s2**2 * w**2, axis=-1)


def dissipation(system, z):
    """Dissipation rate sum(d_n w_n'^2) >= 0 of the state(s) z, with
    d_n = a1 sigma_n^2 (structural) or a1 sigma_n^4 (Kelvin-Voigt)."""
    z = np.asarray(z, dtype=float)
    s2 = (system.modes * math.pi) ** 2
    if system.damping_model is DampingModel.KELVIN_VOIGT:
        s2 = s2**2
    return np.sum(system.params.a1 * s2 * z[..., system.N :] ** 2, axis=-1)


def _splitmix64(x):
    """SplitMix64 finalizer on uint64 arrays; products wrap mod 2^64."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def held_noise_per_sample(spec, times):
    """UNIFORM_HOLD noise at ``times``: one hash of (seed, floor(t / hold))
    per sample, the interval index taken as two's-complement uint64."""
    idx = np.floor(np.ravel(times) / spec.hold).astype(np.int64)
    seed = np.uint64((spec.seed << 1) % 2**64)
    h = _splitmix64(seed ^ _splitmix64(idx.view(np.uint64)))
    u = (h >> np.uint64(11)).astype(float) * (1.0 / (1 << 53))
    return ((2.0 * u - 1.0) * spec.bound).reshape(np.shape(times))


def placement_residual(A, left, right, targets):
    """Largest normalized backward residual of a single-input placement.

    For each target mu, x = (mu I - A)^-1 right and the residual is
    |1 + left x| / (1 + sum_i |left_i x_i|): det(mu I - A + right left) =
    det(mu I - A) (1 + left x) vanishes at every target of an exact gain.
    ``left, right`` are (K, B) for A - B K and (C, L) for A - L C.  A =
    [[0, I], [-diag sigma^4, -diag d]] is inverted mode by mode,
    (mu I - A_n)^-1 [r1; r2] = [(mu + d) r1 + r2; mu r2 - sigma^4 r1] /
    (mu^2 + d mu + sigma^4), so no eigendecomposition is made.
    """
    N = len(A) // 2
    s4, d = -np.diag(A[N:, :N]), -np.diag(A[N:, N:])
    mu = np.asarray(targets, dtype=complex).reshape(-1, 1)
    r1, r2 = right[:N], right[N:]
    p = mu * mu + d * mu + s4
    t = left * np.concatenate([((mu + d) * r1 + r2) / p,
                               (mu * r2 - s4 * r1) / p], axis=1)
    return float(np.max(np.abs(1.0 + t.sum(axis=1))
                        / (1.0 + np.abs(t).sum(axis=1))))


@dataclass
class History:
    """The states z, e and z_res of a run on its time grid t, every one of
    its 4N + 2R states (unreached ones 0), with the noise xi(t_i) and the
    weights K, C and C_res of V and y."""

    t: np.ndarray
    z: np.ndarray
    e: np.ndarray
    residual: np.ndarray
    xi: np.ndarray
    K: np.ndarray
    C: np.ndarray
    C_res: np.ndarray

    @property
    def z_hat(self):
        return self.z - self.e

    def timeseries(self):
        """The run's (n + 1) x 6 table in ``simulate.TIMESERIES`` order by
        the textbook formulas: V = -K z_hat, y = C z + C_res z_res + xi."""
        norm = np.linalg.norm
        return np.column_stack([
            self.t, norm(self.e, axis=1), norm(self.z, axis=1),
            -self.z_hat @ self.K,
            self.z @ self.C + self.residual @ self.C_res + self.xi,
            norm(self.residual, axis=1)])


def history(system, gains, disturbance, noise, config):
    """The whole state history of ``simulate``'s run, as the simulator
    computed it before it kept none: ``CoupledDynamics``, the channels on
    the whole half-step grid, and one ``RK4.run`` over the horizon on the
    live states.  Overflow is left in the history as non-finite rows."""
    dyn = CoupledDynamics(system, gains, disturbance, noise, config)
    n, h, N = _step_count(config.t_final, dyn.dt, dyn.dim), dyn.dt / 2, dyn.N
    c = np.empty((2 * n + 1, len(dyn.channels) + 1))
    for j, hs in enumerate(dyn.channels):
        c[:, j] = cosine_sum_grid(hs, h, 2 * n + 1)
    c[:, -1] = noise_samples(dyn.noise, np.arange(2 * n + 1) * h)
    X = np.empty((n + 1, dyn.live.size))
    X[0] = dyn.x0[dyn.live]
    with np.errstate(over="ignore", invalid="ignore"):
        dyn.rk4.run(X, c)
    full = np.zeros((n + 1, dyn.dim))
    full[:, dyn.live] = X
    return History(t=np.arange(n + 1) * dyn.dt, z=full[:, : 2 * N],
                   e=full[:, 2 * N : 4 * N], residual=full[:, 4 * N :],
                   xi=c[::2, -1].copy(), K=dyn.K, C=system.C,
                   C_res=dyn.block.C)
