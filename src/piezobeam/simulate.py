"""Fixed-step integration of the coupled plant / observer / residual system.

The plant z, observer z_hat and residual modes z_res obey

    z'     = A z + B V + F(t),            V = -K z_hat
    z_hat' = (A - B K) z_hat + L (y - C z_hat)
    y      = C z + r(t) + xi(t),          r = C_res z_res
    z_res' = A_res z_res + F_res(t)  (+ B_res V under full coupling)

The integrated state is X = [z, e, z_res] with the observer error
e = z - z_hat; z_hat = z - e is derived from it.  In these coordinates

        [ A - BK       BK          0      ]
    M = [ 0            A - LC     -L C_res ]
        [ (-B_res K)  (B_res K)    A_res   ]

with the bracketed blocks present under full coupling only.  Truncated,
M is block upper-triangular and its spectrum is the separation spectrum
eig(A - BK) + eig(A - LC) joined with eig(A_res); full, the control
spillover can move it into the right half-plane.

The system is linear, X' = M X + G c(t), with time dependence confined to
the channel values c(t) (modal forces and noise).  One classical RK4 step
of such a system collapses to

    X+ = R X + P1 G c(t) + (P2 + P3) G c(t + dt/2) + P4 G c(t + dt)

with matrices R, P* that are polynomials in dt*M, precomputed once.  This
is algebraically classical RK4.  Over a horizon it is a linear recurrence
with a constant matrix, so ``RK4.run`` evaluates it as a blocked scan: the
forcing of every step in a few GEMMs, then blocks of b steps advanced side
by side, with the block starts carried by R^b.  The coupled simulation and
the single-mode residual runs share that engine.

Both take their forcing on the uniform half-step grid from one kernel,
``signals.cosine_sum_grid`` (angle addition: O(sqrt(count)) cos/sin calls
per harmonic).  ``simulate`` synthesizes one table per distinct harmonic
set, so modes driven by the same comb share it; the residual-mode runs take
each chunk's forcing from it at the chunk's grid offset.

An unstable M (max Re eig(M) >= 0) is refused before stepping when dt is
unset; with dt given it is integrated, and a non-finite state ends the
run with a DivergenceError.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ConfigError, DivergenceError, UnstableMatrixError
from .modal import DampingModel, mode_roots, oscillator_matrix, residual_block
from .signals import cosine_sum_grid, noise_samples
# not called here: perfbench/tracer.py wraps this module attribute by name,
# and tests/test_tracer_boundaries.py pins it
from .signals import modal_force  # noqa: F401

DT_REAL_FACTOR = 0.1      # dt <= 0.1 / max |Re lambda|
DT_IMAG_FACTOR = 2 * math.pi / 20.0  # >= 20 steps per fastest period

# Rows per chunk when assembling forcing, checking finiteness and streaming
# residual-mode runs: bounds the temporaries whatever the horizon.
CHUNK_ROWS = 1 << 14

# Most states (n + 1) x dim of one run: 128 MiB of floats, above 192k steps
# at dim 22 and 40k steps at dim 200.
MAX_HISTORY_VALUES = 1 << 24


class Coupling(Enum):
    # residual modes unforced by the control path (truncation-exact design)
    TRUNCATED = "truncated"
    # retain the physically present b_k * V spillover forcing
    FULL = "full"


@dataclass
class SimConfig:
    """Horizon, step, residual-block size, and initial data of one run.

    dt = None picks half the stability cap.  z0 = None draws a seeded unit
    vector; z_hat0 and residual0 default to zero.
    """

    t_final: float
    dt: float = None
    residual_modes: int = 0
    coupling: Coupling = Coupling.TRUNCATED
    z0: np.ndarray = None
    z_hat0: np.ndarray = None
    residual0: np.ndarray = None
    seed: int = 0

    def __post_init__(self):
        if self.t_final < 0.0:
            raise ConfigError(f"t_final must be >= 0, got {self.t_final}")
        if self.dt is not None and not self.dt > 0.0:
            raise ConfigError(f"dt must be > 0, got {self.dt}")
        if self.residual_modes < 0:
            raise ConfigError(
                f"residual_modes must be >= 0, got {self.residual_modes}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SimulationResult:
    """Trajectories on the time grid plus derived histories.

    z, e and residual are the integrated state (z, e, z_res); z_hat is
    derived as z - e of the stored steps.  Norms are Euclidean norms of the
    stacked modal coefficient vectors.  force_sup is the sup over the grid
    of the retained modal force vector norm a2 ||(f_1..f_N)||.  noise is
    the spec as run, with its hold resolved.
    """

    t: np.ndarray
    z: np.ndarray
    z_hat: np.ndarray
    e: np.ndarray
    residual: np.ndarray
    V: np.ndarray
    y: np.ndarray
    norm_e: np.ndarray
    norm_z: np.ndarray
    norm_residual: np.ndarray
    force_sup: float
    dt: float
    system: object
    gains: object
    disturbance: object
    noise: object
    config: SimConfig


def stability_cap(spectrum):
    """Largest admissible RK4 step for an operator with this spectrum."""
    cap = math.inf
    re = float(np.max(np.abs(spectrum.real)))
    im = float(np.max(np.abs(spectrum.imag)))
    if re > 0.0:
        cap = min(cap, DT_REAL_FACTOR / re)
    if im > 0.0:
        cap = min(cap, DT_IMAG_FACTOR / im)
    return cap


def _step_count(t_final, dt, dim):
    """Steps over [0, t_final]: round(t_final / dt), at least 1 unless
    t_final = 0.  Refused before any allocation when the run's (n + 1) x dim
    states would exceed MAX_HISTORY_VALUES."""
    steps = t_final / dt                 # inf when it overflows
    n = 0 if t_final == 0.0 else max(1, round(min(steps, MAX_HISTORY_VALUES)))
    if (n + 1) * dim > MAX_HISTORY_VALUES:
        raise ConfigError(
            f"t_final = {t_final:g} at dt = {dt:.3e} takes {steps:.4g} steps; "
            f"their {dim}-state history exceeds {MAX_HISTORY_VALUES} values")
    return n


class RK4:
    """Classical RK4 of x' = M x + G c(t) at fixed dt, in propagator form.

    One step is x+ = R1 x + P1G c(t) + P23G c(t + dt/2) + P4G c(t + dt):
    R1 = sum (dt M)^k / k!, k = 0..4, and the per-stage forcing polynomials
    applied to G (stages 2 and 3 share c(t + dt/2)).
    """

    def __init__(self, M, G, dt):
        I = np.eye(M.shape[0])
        Mdt = dt * M
        self.R1 = I + Mdt @ (I + Mdt @ (I / 2 + Mdt @ (I / 6 + Mdt / 24)))
        # weights of g(t), g(t+dt/2), g(t+dt) in (dt/6)(k1 + 2 k2 + 2 k3 + k4)
        P1 = (dt / 6) * (I + Mdt @ (I + Mdt @ (I / 2 + Mdt / 4)))
        P23 = (dt / 6) * (4 * I + Mdt @ (2 * I + Mdt / 2))
        self.P1G = P1 @ G
        self.P23G = P23 @ G
        self.P4G = (dt / 6) * G
        # u_i = [c_2i, c_2i+1, c_2i+2] @ PG.T: the three stages in one GEMM
        self.PG = np.hstack([self.P1G, self.P23G, self.P4G])

    def run(self, X, c):
        """Fill X[1:] in place with the states after each step from X[0].

        ``c`` holds the channel values on the half-step grid: step i uses
        rows 2i, 2i+1 and 2i+2.  X must be C-contiguous.  The forcing u_i
        of every step goes into X[1:] first, chunk by chunk.  The steps are
        then taken in blocks of b ~ sqrt(n/2), all blocks side by side:

        - b - 1 GEMMs give each block's forced response from rest at its end;
        - n // b mat-vecs with R1^b carry the block starts;
        - b GEMMs run every block forward from its start, x+ = R1 x + u;

        and the steps past the last whole block run one by one.  That is
        about 2b + n/b interpreted iterations instead of n.  Overflow is
        left in X as non-finite rows for the caller to find.
        """
        n, d = X.shape[0] - 1, X.shape[1]
        if n == 0:
            return X
        for i0 in range(0, n, CHUNK_ROWS):
            i1 = min(i0 + CHUNK_ROWS, n)
            stages = np.hstack([c[2 * i0 + k : 2 * i1 + k : 2]
                                for k in range(3)])
            np.matmul(stages, self.PG.T, out=X[1 + i0 : 1 + i1])

        b = max(1, round(math.sqrt(n / 2)))
        m = n // b
        R1T = self.R1.T
        U = X[1 : 1 + m * b].reshape(m, b, d)   # a view: rows are written
        with np.errstate(over="ignore", invalid="ignore"):
            end = U[:, 0].copy()
            for j in range(1, b):
                end = end @ R1T + U[:, j]
            RbT = np.linalg.matrix_power(self.R1, b).T
            starts = np.empty((m, d))
            s = X[0]
            for k in range(m):
                starts[k] = s
                s = s @ RbT + end[k]
            prev = starts
            for j in range(b):
                U[:, j] += prev @ R1T
                prev = U[:, j]
            for i in range(m * b, n):
                X[i + 1] += X[i] @ R1T
        return X


class CoupledDynamics:
    """The coupled operator M on [z, e, z_res] and all that derives from it.

    ``spectrum`` is eig(M) and ``cap`` its stability cap.  dt is
    ``config.dt``, or half the cap when unset; a dt above the cap is a
    ConfigError, and an unset dt on an M with max Re eig(M) >= 0 is an
    UnstableMatrixError.  A noise spec without a hold gets ten steps.
    """

    def __init__(self, system, gains, disturbance, noise, config):
        N = system.N
        R = config.residual_modes
        self.N = N
        self.R = R
        self.block = residual_block(
            system.params, system.placement, N, R, system.damping_model
        )
        self.dim = 4 * N + 2 * R

        zero = np.zeros(2 * N)
        self.K = zero if gains is None else np.asarray(gains.K, dtype=float)
        self.L = zero if gains is None else np.asarray(gains.L, dtype=float)
        A, B, C = system.A, system.B, system.C
        BK = np.outer(B, self.K)
        z, e, res = slice(0, 2 * N), slice(2 * N, 4 * N), slice(4 * N, None)

        M = np.zeros((self.dim, self.dim))
        M[z, z] = A - BK
        M[z, e] = BK
        M[e, e] = A - np.outer(self.L, C)
        M[e, res] = -np.outer(self.L, self.block.C)
        M[res, res] = self.block.A
        if config.coupling is Coupling.FULL:
            spill = np.outer(self.block.B, self.K)
            M[res, z] = -spill
            M[res, e] = spill
        self.M = M

        self.spectrum = np.linalg.eigvals(M)
        self.cap = stability_cap(self.spectrum)
        max_re = float(np.max(self.spectrum.real))
        if config.dt is None and max_re >= 0.0:
            raise UnstableMatrixError(
                f"the coupled operator M is not stable (max Re eig(M) = "
                f"{max_re:.3g} >= 0); set dt to integrate it anyway")
        dt = config.dt if config.dt is not None else 0.5 * self.cap
        if math.isfinite(self.cap) and dt > self.cap * (1.0 + 1e-9):
            raise ConfigError(
                f"dt = {dt:.3e} exceeds the stability cap {self.cap:.3e} of "
                f"the coupled operator M (max Re eig(M) = {max_re:.3g}); "
                "reduce dt or leave it unset"
            )
        self.dt = float(dt)
        self.noise = (noise if noise.hold is not None
                      else replace(noise, hold=10.0 * self.dt))

        # forcing channels: one per driven mode present, plus the noise path.
        # A retained mode's force drives z and e alike (z_hat sees none).
        a2 = system.params.a2
        driven = disturbance.driven_mode_count
        retained = range(1, min(N, driven) + 1)
        residual = [int(k) for k in self.block.modes if k <= driven]
        self.forced_modes = [*retained, *residual]
        self.retained_forced = len(retained)
        G = np.zeros((self.dim, len(self.forced_modes) + 1))
        for j, n in enumerate(retained):
            G[[N + n - 1, 3 * N + n - 1], j] = a2
        for j, k in enumerate(residual, len(retained)):
            G[3 * N + R + k - 1, j] = a2
        G[e, -1] = -self.L
        self.rk4 = RK4(M, G, self.dt)

    def initial_state(self, config):
        """X(0) = [z0, z0 - z_hat0, residual0]."""
        N, R = self.N, self.R
        x = np.zeros(self.dim)
        if config.z0 is not None:
            z0 = np.asarray(config.z0, dtype=float)
            if z0.shape != (2 * N,):
                raise ConfigError(f"z0 must have shape (2N,) = ({2*N},)")
            x[: 2 * N] = z0
        else:
            rng = np.random.default_rng(config.seed)
            v = rng.standard_normal(2 * N)
            x[: 2 * N] = v / np.linalg.norm(v)
        x[2 * N : 4 * N] = x[: 2 * N]
        if config.z_hat0 is not None:
            zh = np.asarray(config.z_hat0, dtype=float)
            if zh.shape != (2 * N,):
                raise ConfigError(f"z_hat0 must have shape (2N,) = ({2*N},)")
            x[2 * N : 4 * N] -= zh
        if config.residual0 is not None:
            zr = np.asarray(config.residual0, dtype=float)
            if zr.shape != (2 * R,):
                raise ConfigError(f"residual0 must have shape (2R,) = ({2*R},)")
            x[4 * N :] = zr
        return x


def simulate(system, gains, disturbance, noise, config):
    """Integrate the coupled system over [0, t_final] and collect histories."""
    dyn = CoupledDynamics(system, gains, disturbance, noise, config)
    N, dt = dyn.N, dyn.dt

    n_steps = _step_count(config.t_final, dt, dyn.dim)
    t = np.arange(n_steps + 1) * dt

    X = np.empty((n_steps + 1, dyn.dim))
    X[0] = dyn.initial_state(config)

    # channel values on the half-step grid: stage times of step i are
    # 2i, 2i+1, 2i+2, so t[i] == half_times[2i].  Modes with the same
    # harmonics share one synthesized column.
    count = 2 * n_steps + 1
    c = np.empty((count, len(dyn.forced_modes) + 1))
    columns = {}
    for j, n in enumerate(dyn.forced_modes):
        hs = tuple((h.amplitude, h.omega, h.phase)
                   for h in disturbance.mode_harmonics[n - 1])
        if hs not in columns:
            columns[hs] = cosine_sum_grid(hs, dt / 2.0, count)
        c[:, j] = columns[hs]
    c[:, -1] = noise_samples(dyn.noise, np.arange(count) * (dt / 2.0))
    dyn.rk4.run(X, c)
    xi = c[::2, -1].copy()   # the noise channel
    force_sup = system.params.a2 * float(np.max(np.linalg.norm(
        c[::2, : dyn.retained_forced], axis=1)))
    del c, columns           # freed before the post-processing temporaries
    for i0 in range(1, n_steps + 1, CHUNK_ROWS):
        finite = np.isfinite(X[i0 : i0 + CHUNK_ROWS]).all(axis=1)
        if not finite.all():
            step = i0 + int(np.argmin(finite))   # row i is the state at step i
            raise DivergenceError(step, step * dt)

    z = X[:, : 2 * N]
    e = X[:, 2 * N : 4 * N]
    res = X[:, 4 * N :]
    z_hat = z - e
    V = -(z_hat @ dyn.K)
    y = z @ system.C + res @ dyn.block.C + xi

    return SimulationResult(
        t=t, z=z, z_hat=z_hat, e=e, residual=res, V=V, y=y,
        norm_e=np.linalg.norm(e, axis=1),
        norm_z=np.linalg.norm(z, axis=1),
        norm_residual=np.linalg.norm(res, axis=1),
        force_sup=force_sup, dt=dt, system=system, gains=gains,
        disturbance=disturbance, noise=dyn.noise, config=config,
    )


def simulate_residual_mode(params, k, harmonics, t_final=None, dt=None,
                           damping_model=DampingModel.STRUCTURAL,
                           settle_time=None):
    """RK4 of a single uncontrolled mode; returns steady-state amplitude sups.

    Integrates w'' + d_k w' + sigma_k^4 w = a2 * sum_j A_j cos(om_j t + ph_j)
    from rest and records sup |(w, w')| and sup |w| after ``settle_time``
    (default: 12 decay times).  Used by the spillover decay studies, where
    a 2-state run beats assembling a large coupled system.  The horizon is
    streamed through ``RK4.run`` in chunks of CHUNK_ROWS steps, so memory
    does not grow with it; its step count has the same limit as a history.
    """
    M = oscillator_matrix(params, [k], damping_model)
    d = -M[1, 1]
    if d <= 0.0:
        raise ValueError("residual-mode study requires positive damping")
    rate = -float(mode_roots(params, [k], damping_model)[0][0].real)
    s2 = (k * math.pi) ** 2
    om_max = max((abs(om) for _, om, _ in harmonics), default=s2)
    om_max = max(om_max, s2)
    if settle_time is None:
        settle_time = 12.0 / rate
    if t_final is None:
        t_final = settle_time + 40.0 * (2.0 * math.pi / om_max)
    if dt is None:
        dt = min(DT_IMAG_FACTOR / om_max / 2.0, DT_REAL_FACTOR / max(d, rate))

    rk4 = RK4(M, np.array([[0.0], [params.a2]]), dt)
    n = _step_count(t_final, dt, 2)
    X = np.empty((CHUNK_ROWS + 1, 2))
    x = np.zeros(2)
    sup_state = 0.0
    sup_disp = 0.0
    for i0 in range(0, n, CHUNK_ROWS):
        i1 = min(i0 + CHUNK_ROWS, n)
        f = cosine_sum_grid(harmonics, dt / 2.0, 2 * (i1 - i0) + 1,
                            offset=2 * i0)[:, None]
        X[0] = x
        Xc = rk4.run(X[: i1 - i0 + 1], f)
        x = Xc[-1].copy()
        # row 1 + j is the state after step i0 + j, kept from i dt >= settle
        settled = Xc[1:][np.arange(i0, i1) * dt >= settle_time]
        if settled.size:
            sup_state = max(sup_state, float(np.max(np.hypot(*settled.T))))
            sup_disp = max(sup_disp, float(np.max(np.abs(settled[:, 0]))))
    return sup_state, sup_disp
