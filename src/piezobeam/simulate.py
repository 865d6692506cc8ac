"""Fixed-step integration of the coupled plant / observer / residual system.

The combined state is X = [z, z_hat, z_res] with

    z'     = A z + B V + F(t),            V = -K z_hat
    z_hat' = (A - B K) z_hat + L (y - C z_hat)
    y      = C z + r(t) + xi(t),          r = C_res z_res
    z_res' = A_res z_res + F_res(t)  (+ B_res V under full coupling)

which is linear, X' = M X + G c(t), with time dependence confined to the
channel values c(t) (modal forces and noise).  One classical RK4 step of
such a system collapses to

    X+ = R X + P1 G c(t) + (P2 + P3) G c(t + dt/2) + P4 G c(t + dt)

with matrices R, P* that are polynomials in dt*M, precomputed once.  This
is algebraically classical RK4.  Over a horizon it is a linear recurrence
with a constant matrix, so ``RK4.run`` evaluates it as a blocked scan: the
forcing of every step in a few GEMMs, then blocks of b steps advanced side
by side, with the block starts carried by R^b.  The coupled simulation and
the single-mode residual runs share that engine.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ConfigError, DivergenceError
from .modal import residual_block
from .signals import modal_force, noise_samples

DT_REAL_FACTOR = 0.1      # dt <= 0.1 / max |Re lambda|
DT_IMAG_FACTOR = 2 * math.pi / 20.0  # >= 20 steps per fastest period

# Rows per chunk when assembling forcing, checking finiteness and streaming
# residual-mode runs: bounds the temporaries whatever the horizon.
CHUNK_ROWS = 1 << 14


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


@dataclass
class SimulationResult:
    """Trajectories on the time grid plus derived histories.

    e is stored as z - z_hat of the stored steps; norms are Euclidean norms
    of the stacked modal coefficient vectors.
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
    dt: float
    system: object
    gains: object
    disturbance: object
    noise: object
    config: SimConfig


def closed_loop_matrix(system, gains):
    """Block matrix [[A - BK, BK], [0, A - LC]] acting on (z, e)."""
    A = system.A
    n = A.shape[0]
    BK = np.outer(system.B, gains.K) if gains is not None else np.zeros_like(A)
    LC = np.outer(gains.L, system.C) if gains is not None else np.zeros_like(A)
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = A - BK
    M[:n, n:] = BK
    M[n:, n:] = A - LC
    return M


def stability_cap(system, gains, block=None):
    """Largest admissible RK4 step for the closed-loop + residual spectrum."""
    eigs = [np.linalg.eigvals(closed_loop_matrix(system, gains))]
    if block is not None and block.R > 0:
        eigs.append(np.linalg.eigvals(block.A))
    eigs = np.concatenate(eigs)
    cap = math.inf
    re = float(np.max(np.abs(eigs.real)))
    im = float(np.max(np.abs(eigs.imag)))
    if re > 0.0:
        cap = min(cap, DT_REAL_FACTOR / re)
    if im > 0.0:
        cap = min(cap, DT_IMAG_FACTOR / im)
    return cap


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

    def step(self, x, c):
        """One step from x; c holds the channel values at t, t + dt/2, t + dt."""
        return (self.R1 @ x + self.P1G @ c[0] + self.P23G @ c[1]
                + self.P4G @ c[2])

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
    """Precompiled RK4 stepping of the coupled linear system at fixed dt."""

    def __init__(self, system, gains, disturbance, noise, dt, config):
        N = system.N
        R = config.residual_modes
        self.system = system
        self.gains = gains
        self.disturbance = disturbance
        self.noise = noise
        self.dt = float(dt)
        self.N = N
        self.R = R
        self.block = residual_block(
            system.params, system.placement, N, R, system.damping_model
        )
        self.dim = 4 * N + 2 * R

        K = gains.K if gains is not None else np.zeros(2 * N)
        L = gains.L if gains is not None else np.zeros(2 * N)
        self.K = np.asarray(K, dtype=float)
        self.L = np.asarray(L, dtype=float)
        A, B, C = system.A, system.B, system.C
        BK = np.outer(B, self.K)
        LC = np.outer(self.L, C)

        M = np.zeros((self.dim, self.dim))
        M[: 2 * N, : 2 * N] = A
        M[: 2 * N, 2 * N : 4 * N] = -BK
        M[2 * N : 4 * N, : 2 * N] = LC
        M[2 * N : 4 * N, 2 * N : 4 * N] = A - BK - LC
        if R > 0:
            M[2 * N : 4 * N, 4 * N :] = np.outer(self.L, self.block.C)
            M[4 * N :, 4 * N :] = self.block.A
            if config.coupling is Coupling.FULL:
                M[4 * N :, 2 * N : 4 * N] = -np.outer(self.block.B, self.K)
        self.M = M

        # forcing channels: one per driven mode present, plus the noise path
        a2 = system.params.a2
        channels = []
        self.forced_modes = []
        for n in range(1, N + 1):
            if n <= disturbance.driven_mode_count:
                col = np.zeros(self.dim)
                col[N + n - 1] = a2
                channels.append(col)
                self.forced_modes.append(n)
        for j, k in enumerate(self.block.modes):
            if k <= disturbance.driven_mode_count:
                col = np.zeros(self.dim)
                col[4 * N + R + j] = a2
                channels.append(col)
                self.forced_modes.append(int(k))
        noise_col = np.zeros(self.dim)
        noise_col[2 * N : 4 * N] = self.L
        channels.append(noise_col)
        self.rk4 = RK4(M, np.column_stack(channels), self.dt)

    def channel_values(self, times):
        """Channel value matrix c(t) for an array of times."""
        times = np.asarray(times, dtype=float)
        c = np.empty((times.size, len(self.forced_modes) + 1))
        for j, n in enumerate(self.forced_modes):
            c[:, j] = modal_force(self.disturbance, n, times)
        c[:, -1] = noise_samples(self.noise, times)
        return c

    def step(self, x, t):
        """One classical RK4 step from (x, t) to t + dt."""
        c = self.channel_values(np.array([t, t + self.dt / 2, t + self.dt]))
        return self.rk4.step(x, c)

    def initial_state(self, config):
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
        if config.z_hat0 is not None:
            zh = np.asarray(config.z_hat0, dtype=float)
            if zh.shape != (2 * N,):
                raise ConfigError(f"z_hat0 must have shape (2N,) = ({2*N},)")
            x[2 * N : 4 * N] = zh
        if config.residual0 is not None:
            zr = np.asarray(config.residual0, dtype=float)
            if zr.shape != (2 * R,):
                raise ConfigError(f"residual0 must have shape (2R,) = ({2*R},)")
            x[4 * N :] = zr
        return x


def _resolve(system, gains, disturbance, noise, config):
    block = residual_block(
        system.params, system.placement, system.N,
        config.residual_modes, system.damping_model,
    )
    cap = stability_cap(system, gains, block)
    dt = config.dt if config.dt is not None else 0.5 * cap
    if math.isfinite(cap) and dt > cap * (1.0 + 1e-9):
        raise ConfigError(
            f"dt = {dt:.3e} exceeds the stability cap {cap:.3e} for this "
            "closed loop; reduce dt or leave it unset"
        )
    if noise.hold is None:
        noise = replace(noise, hold=10.0 * dt)
    return dt, noise


def simulate(system, gains, disturbance, noise, config):
    """Integrate the coupled system over [0, t_final] and collect histories."""
    dt, noise = _resolve(system, gains, disturbance, noise, config)
    dyn = CoupledDynamics(system, gains, disturbance, noise, dt, config)
    N, R = dyn.N, dyn.R

    if config.t_final == 0.0:
        n_steps = 0
    else:
        n_steps = max(1, int(round(config.t_final / dt)))
    t = np.arange(n_steps + 1) * dt

    X = np.empty((n_steps + 1, dyn.dim))
    X[0] = dyn.initial_state(config)

    # channel values on the half-step grid: stage times of step i are
    # 2i, 2i+1, 2i+2
    half_times = np.arange(2 * n_steps + 1) * (dt / 2.0)
    c = dyn.channel_values(half_times)
    dyn.rk4.run(X, c)
    xi = c[::2, -1].copy()   # the noise channel; t[i] == half_times[2i]
    del c, half_times        # freed before the post-processing temporaries
    for i0 in range(1, n_steps + 1, CHUNK_ROWS):
        finite = np.isfinite(X[i0 : i0 + CHUNK_ROWS]).all(axis=1)
        if not finite.all():
            step = i0 + int(np.argmin(finite))   # row i is the state at step i
            raise DivergenceError(step, step * dt)

    z = X[:, : 2 * N]
    z_hat = X[:, 2 * N : 4 * N]
    res = X[:, 4 * N :]
    e = z - z_hat
    V = -(z_hat @ dyn.K)
    r = res @ dyn.block.C if R > 0 else np.zeros(n_steps + 1)
    y = z @ system.C + r + xi

    return SimulationResult(
        t=t, z=z, z_hat=z_hat, e=e, residual=res, V=V, y=y,
        norm_e=np.linalg.norm(e, axis=1),
        norm_z=np.linalg.norm(z, axis=1),
        norm_residual=(np.linalg.norm(res, axis=1) if R > 0
                       else np.zeros(n_steps + 1)),
        dt=dt, system=system, gains=gains,
        disturbance=disturbance, noise=noise, config=config,
    )


def simulate_residual_mode(params, k, harmonics, t_final=None, dt=None,
                           damping_model=None, settle_time=None):
    """RK4 of a single uncontrolled mode; returns steady-state amplitude sups.

    Integrates w'' + d_k w' + sigma_k^4 w = a2 * sum_j A_j cos(om_j t + ph_j)
    from rest and records sup |(w, w')| and sup |w| after ``settle_time``
    (default: 12 decay times).  Used by the spillover decay studies, where
    a 2-state run beats assembling a large coupled system.  The horizon is
    streamed through ``RK4.run`` in chunks of CHUNK_ROWS steps, so memory
    does not grow with it.
    """
    from .modal import DampingModel, damping_coefficients

    model = damping_model if damping_model is not None else DampingModel.STRUCTURAL
    s2 = (k * math.pi) ** 2
    s4 = s2 * s2
    d = float(damping_coefficients(params, np.array([k]), model)[0])
    if d <= 0.0:
        raise ValueError("residual-mode study requires positive damping")
    rate = d / 2.0 if d * d < 4.0 * s4 else \
        (d - math.sqrt(d * d - 4.0 * s4)) / 2.0
    om_max = max((abs(om) for _, om, _ in harmonics), default=s2)
    om_max = max(om_max, s2)
    if settle_time is None:
        settle_time = 12.0 / rate
    if t_final is None:
        t_final = settle_time + 40.0 * (2.0 * math.pi / om_max)
    if dt is None:
        dt = min(DT_IMAG_FACTOR / om_max / 2.0, DT_REAL_FACTOR / max(d, rate))

    hs = [(float(a), float(om), float(ph)) for a, om, ph in harmonics]
    rk4 = RK4(np.array([[0.0, 1.0], [-s4, -d]]), np.array([[0.0], [params.a2]]),
              dt)
    n = int(round(t_final / dt))
    X = np.empty((CHUNK_ROWS + 1, 2))
    x = np.zeros(2)
    sup_state = 0.0
    sup_disp = 0.0
    for i0 in range(0, n, CHUNK_ROWS):
        i1 = min(i0 + CHUNK_ROWS, n)
        half_times = np.arange(2 * i0, 2 * i1 + 1) * (dt / 2.0)
        f = np.zeros((half_times.size, 1))
        for a, om, ph in hs:
            f[:, 0] += a * np.cos(om * half_times + ph)
        X[0] = x
        Xc = rk4.run(X[: i1 - i0 + 1], f)
        x = Xc[-1].copy()
        # row 1 + j is the state after step i0 + j, kept from i dt >= settle
        settled = Xc[1:][np.arange(i0, i1) * dt >= settle_time]
        if settled.size:
            sup_state = max(sup_state, float(np.max(np.hypot(*settled.T))))
            sup_disp = max(sup_disp, float(np.max(np.abs(settled[:, 0]))))
    return sup_state, sup_disp
