"""Closed-form references that several test modules compare the package to.

Each is the textbook formula, written apart from the code it checks: the
mode shapes and their slope (for ``modal.actuator_gain``), the damped beam
operator's eigenvalue pair per mode (for ``modal.mode_roots``, the
assembled spectrum and acceptance criterion 1), the static modal gain
(for the steady response to a constant force), and the modal energy and
its dissipation rate (for the energy checks on simulated plant states),
the held noise hashed sample by sample (for ``signals.noise_samples``,
which hashes each hold interval once), and the backward residual of a
placed gain (for ``synthesis.place_poles`` and ``place_observer_poles``).
"""

import math

import numpy as np

from piezobeam.beam import SQRT2, cos_pi, sin_pi
from piezobeam.modal import DampingModel


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
