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
spillover can move it into the right half-plane.  ``CoupledDynamics``
builds M once per run, and its spectrum, step, stepped states and
propagators all come from it.

The system is linear, X' = M X + G c(t), with time dependence confined to
the channel values c(t) (modal forces and noise).  One classical RK4 step
of such a system collapses to

    X+ = R X + P1 G c(t) + (P2 + P3) G c(t + dt/2) + P4 G c(t + dt)

with matrices R, P* that are polynomials in dt*M, precomputed once
(``RK4``).  This is algebraically classical RK4, and over a horizon it is
a linear recurrence with a constant matrix, so no step needs to be taken
one at a time: ``RK4.run`` scans it in blocks, and
``simulate_residual_mode`` solves it in closed form under harmonic
forcing.  ``simulate`` keeps no state history, only its timeseries table.

Only the states of the groups (z, e, each residual mode) that X(0) and
the forcing reach through M are stepped.  They are closed under M, so RK4
on their sub-block is exact, and the rest (an undriven residual mode at
rest, under truncated coupling) stay 0.0 and drop out of V, y and the norms.
The spectrum, cap, dt and step limit use all of M.

An unstable M (max Re eig(M) >= 0) is refused before stepping when dt is
unset; with dt given it is integrated, and a non-finite state ends the
run with a DivergenceError.

Artifact contract: the same code, config, seeds and BLAS thread count give
the same bytes; across versions the outputs agree within the benchmark's
1e-7 relative reference, and CHANGES.md lists the rows a change moves.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum
from itertools import groupby

import numpy as np

from .errors import ConfigError, DivergenceError, UnstableMatrixError
from .modal import DampingModel, mode_roots, oscillator_matrix, residual_block
from .signals import cosine_sum_grid, noise_samples
# not called here: perfbench/tracer.py wraps this module attribute by name,
# and tests/test_tracer_boundaries.py pins it
from .signals import modal_force  # noqa: F401

DT_REAL_FACTOR = 0.1      # dt <= 0.1 / max |Re lambda|
DT_IMAG_FACTOR = 2 * math.pi / 20.0  # >= 20 steps per fastest period
# An unset dt is half the cap rounded down to DT_BITS significant bits.
# Half-step indices j stay below MAX_STEPPED_VALUES = 2^24, so every grid
# time j dt / 2 and the default noise hold 10 dt are exact: a hold edge
# starts its own interval, and dt keeps none of the eigensolver's last bits.
DT_BITS = 29

# Steps per segment of a coupled run (its states, channel rows and derived
# rows) and rows per chunk of the residual-mode states: bounds the
# temporaries whatever the horizon.
CHUNK_ROWS = 1 << 14

# Fine length F of the residual-mode phasor tables (``_phasors``): fixed,
# not taken from a pass's length, so a mode's values do not depend on the
# pass it lands in.
PHASOR_FINE = math.isqrt(CHUNK_ROWS)

# Most state values (n + 1) x dim that one run steps through: a limit on
# run length (no history is kept), above 192k steps at dim 22 and 40k steps
# at dim 200.
MAX_STEPPED_VALUES = 1 << 24

# A residual mode's sups are taken after SETTLE_DECAYS decay times from
# rest, over KEPT_PERIODS periods of its fastest frequency.
SETTLE_DECAYS = 12
KEPT_PERIODS = 40

# The series of a run's timeseries table, in its (and the CSV's) column order.
TIMESERIES = ("t", "norm_e", "norm_z", "V", "y", "norm_residual")


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
    """The series of a run on its time grid; no state history is kept.

    ``timeseries`` is the C-contiguous (n+1) x 6 table of the TIMESERIES
    series, and t, V, y and the three norms are views of its columns.
    Norms are Euclidean norms of the stacked modal coefficient vectors of
    e, z and z_res.  force_sup is the sup over the grid of the retained
    modal force vector norm a2 ||(f_1..f_N)||.  noise is the spec as run,
    with its hold resolved.
    """

    timeseries: np.ndarray
    t: np.ndarray
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
    state values would exceed MAX_STEPPED_VALUES."""
    steps = t_final / dt                 # inf when it overflows
    n = 0 if t_final == 0.0 else max(1, round(min(steps, MAX_STEPPED_VALUES)))
    if (n + 1) * dim > MAX_STEPPED_VALUES:
        raise ConfigError(
            f"t_final = {t_final:g} at dt = {dt:.3e} takes {steps:.4g} steps; "
            f"stepping {dim} states through them exceeds the limit of "
            f"{MAX_STEPPED_VALUES} state values")
    return n


class RK4:
    """Classical RK4 of x' = M x + G c(t) at fixed dt, in propagator form.

    One step is x+ = R1 x + P1G c(t) + P23G c(t + dt/2) + P4G c(t + dt):
    R1 = sum (dt M)^k / k!, k = 0..4, and the per-stage forcing polynomials
    applied to G (stages 2 and 3 share c(t + dt/2)).  A stack of M (B, d, d)
    with dt shaped (B, 1, 1) gives stacked propagators, one per system.
    """

    def __init__(self, M, G, dt):
        I = np.eye(M.shape[-1])
        Mdt = dt * M
        self.R1 = I + Mdt @ (I + Mdt @ (I / 2 + Mdt @ (I / 6 + Mdt / 24)))
        # weights of g(t), g(t+dt/2), g(t+dt) in (dt/6)(k1 + 2 k2 + 2 k3 + k4)
        P1 = (dt / 6) * (I + Mdt @ (I + Mdt @ (I / 2 + Mdt / 4)))
        P23 = (dt / 6) * (4 * I + Mdt @ (2 * I + Mdt / 2))
        self.P1G = P1 @ G
        self.P23G = P23 @ G
        self.P4G = (dt / 6) * G
        # u_i = [c_2i, c_2i+1, c_2i+2] @ PG.T: the three stages in one GEMM
        self.PG = np.concatenate([self.P1G, self.P23G, self.P4G], axis=-1)

    def run(self, X, c):
        """Fill X[1:] in place with the states after each step from X[0].

        ``c`` holds the channel values on the half-step grid: step i uses
        rows 2i, 2i+1 and 2i+2.  X must be C-contiguous, and so should c
        be: the channel sum reads it through a reshape, else a copy.
        The forcing u_i of every step goes into X[1:] first, one GEMM over
        a stage table of 1.5 times c, so a caller bounds the temporaries by
        the steps it hands over (``simulate``: a segment).  The steps are
        then taken in blocks of b ~ sqrt(n/2), but b <= 2n / 3d, all
        blocks side by side:

        - one sum over the channel rows, ``_block_ends``, gives each
          block's forced response from rest at its end: n 2g d flops, and
          b 3g d^2 to build its (3b + 1) g d weights, which b <= 2n / 3d
          holds within the sum's flops and about the size of c;
        - n // b mat-vecs with R1^b carry the block starts;
        - b GEMMs run every block forward from its start, x+ = R1 x + u;

        and the steps past the last whole block run one by one.  That is
        about log2(b) + n/b + b interpreted iterations instead of n.
        Overflow is left in X as non-finite rows for the caller to find.
        """
        n, d = X.shape[0] - 1, X.shape[1]
        if n == 0:
            return X
        stages = np.hstack([c[k : 2 * n + k : 2] for k in range(3)])
        np.matmul(stages, self.PG.T, out=X[1:])
        del stages          # freed before the channel sum's weights

        b = max(1, min(round(math.sqrt(n / 2)), 2 * n // max(3 * d, 1)))
        m = n // b
        R1T = self.R1.T
        U = X[1 : 1 + m * b].reshape(m, b, d)   # a view: rows are written
        with np.errstate(over="ignore", invalid="ignore"):
            end = self._block_ends(c, b, m)
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

    def _block_ends(self, c, b, m):
        """State at the end of each of m blocks of b steps, from rest.

        With S = R1^T, end_k = sum_h c[2kb + h] W[h], h = 0..2b, where
        W[2j+1] = P23G^T S^(b-1-j), W[2j] = P1G^T S^(b-1-j) + P4G^T S^(b-j)
        (row 2j is stage 1 of step j and stage 4 of step j - 1), W[0] has
        no second term and W[2b] = P4G^T.  Rows 0..2b-1 of all blocks are
        one GEMM, (m x 2bg) @ (2bg x d); row 2kb + 2b, which block k
        shares with block k + 1, is one more.  The powers come from
        log2(b) doublings of the stage block, all in one buffer of
        (3b + 1) g d values; c should be C-contiguous, or the GEMM's
        reshape copies it.
        """
        d, g = self.R1.shape[0], c.shape[1]
        buf = np.empty((3 * b + 1, g, d))
        W, P4 = buf[: 2 * b + 1], buf[2 * b + 1 :]
        # entry j of the two stacks: [P1G^T; P23G^T] S^(b-1-j) in
        # W[2j : 2j + 2], P4G^T S^(b-1-j) in P4[j]; power 0 goes in last
        stacks = (W[: 2 * b].reshape(b, 2 * g, d), P4)
        W[2 * b - 2], W[2 * b - 1] = self.P1G.T, self.P23G.T
        P4[-1] = self.P4G.T
        S, k = self.R1.T, 1       # S = (R1^T)^k; powers 0..k-1 are in place
        while k < b:
            r = min(k, b - k)     # powers k..k+r-1 from powers 0..r-1
            for T in stacks:
                rows = r * T.shape[1]
                np.matmul(T[b - r :].reshape(rows, d), S,
                          out=T[b - k - r : b - k].reshape(rows, d))
            k += r
            if k < b:
                S = S @ S
        W[2 * b] = P4[-1]
        W[2 : 2 * b : 2] += P4[:-1]
        end = (c[: 2 * m * b].reshape(m, 2 * b * g)
               @ W[: 2 * b].reshape(2 * b * g, d))
        end += c[2 * b : 2 * m * b + 1 : 2 * b] @ W[2 * b]
        return end


class CoupledDynamics:
    """The coupled operator M on [z, e, z_res] and all that derives from it.

    ``components`` holds the sorted states of each strongly connected
    component of M's sparsity graph over the groups z, e and each residual
    mode's (w, w') pair (group 0, 1 and 2 + k), largest first, and
    ``component_groups`` their groups.  M permuted to their order is block
    upper-triangular, so ``spectrum``, eig(M), is the eigenvalues of their
    diagonal blocks, in that order, from one stacked ``eigvals`` call per
    block size: truncated, the z and e blocks and R 2 x 2 blocks; full, all
    of M (eigvals(M)'s bits) unless a mode decouples.  ``cap`` is its
    stability cap.  dt is ``config.dt``, or half the cap rounded down to
    DT_BITS bits when unset; a dt above the cap is a ConfigError, and an
    unset dt on an M with max Re eig(M) >= 0 is an UnstableMatrixError.
    Both name the block that holds max Re.  A noise spec without a hold
    gets ten steps.

    G has a column per entry of ``channels``, the distinct harmonic sets
    of the driven modes present, and a last one for the noise;
    ``retained_channels`` is the column of each driven retained mode.
    ``live`` lists, in order, the states of every group that M's group
    graph leads to from a group holding a nonzero of X(0) = ``x0`` or of
    G; ``rk4`` propagates M and G restricted to them.  Every other state
    stays exactly 0 (so does a live one that nothing drives).
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

        group = np.concatenate([np.repeat([0, 1], 2 * N),
                                2 + np.tile(np.arange(R), 2)])
        rows, cols = np.nonzero(M)
        # reach[a, b] = 1 when group b drives group a through M, or a = b
        reach, wider = None, np.eye(2 + R)
        wider[group[rows], group[cols]] = 1.0
        while not np.array_equal(wider, reach):
            reach = wider
            wider = np.minimum(reach @ reach, 1.0)
        # a component is named by its lowest group, its root; found without
        # np.unique, whose first call pages in about 1 MB of sort code
        first = np.argmax(reach * reach.T, axis=1)
        parts = sorted(((np.flatnonzero(first[group] == r),
                         np.flatnonzero(first == r))
                        for r in np.flatnonzero(first == np.arange(2 + R))),
                       key=lambda part: len(part[0]), reverse=True)
        self.components = [states for states, _ in parts]
        self.component_groups = [groups for _, groups in parts]
        stacks = [np.array(list(same))
                  for _, same in groupby(self.components, len)]
        self.spectrum = np.concatenate([
            np.linalg.eigvals(M[ix[:, :, None], ix[:, None, :]]).ravel()
            for ix in stacks])
        self.cap = stability_cap(self.spectrum)
        top = int(np.argmax(self.spectrum.real))
        max_re = float(self.spectrum.real[top])
        if config.dt is None and max_re >= 0.0:
            raise UnstableMatrixError(
                f"the coupled operator M is not stable (max Re eig(M) = "
                f"{max_re:.3g} >= 0); set dt to integrate it anyway "
                f"(max Re is in {self.block_name(top)})")
        dt = config.dt
        if dt is None:
            m, p = math.frexp(0.5 * self.cap)
            dt = math.ldexp(math.floor(math.ldexp(m, DT_BITS)), p - DT_BITS)
        if math.isfinite(self.cap) and dt > self.cap * (1.0 + 1e-9):
            raise ConfigError(
                f"dt = {dt:.3e} exceeds the stability cap {self.cap:.3e} of "
                f"the coupled operator M (max Re eig(M) = {max_re:.3g}); "
                f"reduce dt or leave it unset (max Re is in "
                f"{self.block_name(top)})"
            )
        self.dt = float(dt)
        self.noise = (noise if noise.hold is not None
                      else replace(noise, hold=10.0 * self.dt))

        # forcing channels: one per distinct harmonic set of the driven modes
        # present, plus the noise path.  Modes with equal harmonics share a
        # column (their rows do not overlap, so G stays exact).  A retained
        # mode's force drives z and e alike (z_hat sees none).
        a2 = system.params.a2
        driven = disturbance.driven_mode_count
        retained = range(1, min(N, driven) + 1)
        residual = [int(k) for k in self.block.modes if k <= driven]
        column, channel = {}, {}     # mode -> column, harmonic set -> column
        for n in [*retained, *residual]:
            hs = tuple((h.amplitude, h.omega, h.phase)
                       for h in disturbance.mode_harmonics[n - 1])
            column[n] = channel.setdefault(hs, len(channel))
        self.channels = list(channel)
        self.retained_channels = [column[n] for n in retained]
        G = np.zeros((self.dim, len(channel) + 1))
        for n in retained:
            G[[N + n - 1, 3 * N + n - 1], column[n]] = a2
        for k in residual:
            G[3 * N + R + k - 1, column[k]] = a2
        G[e, -1] = -self.L
        self.G = G

        self.x0 = self.initial_state(config)
        seeds = np.zeros(2 + R)
        seeds[group[(self.x0 != 0.0) | G.any(axis=1)]] = 1.0
        self.live = np.flatnonzero((reach @ seeds)[group] > 0.0)
        self.rk4 = RK4(M[np.ix_(self.live, self.live)], G[self.live], self.dt)

    def block_name(self, i):
        """The diagonal block of M whose spectrum holds ``spectrum[i]``:
        "the A - BK block", "the A - LC block", "residual mode k", or "the
        coupled block of" its groups, e.g. "z, e and residual modes 4-8"."""
        ends = np.cumsum([len(c) for c in self.components])
        groups = self.component_groups[int(np.searchsorted(ends, i, "right"))]
        parts = [("z", "e")[g] for g in groups[groups < 2]]
        modes = self.block.modes[groups[groups >= 2] - 2]
        if modes.size:
            span = (f"{modes[0]}-{modes[-1]}" if modes.size > 2 and
                    modes[-1] - modes[0] == modes.size - 1 else
                    ", ".join(map(str, modes)))
            parts.append(f"residual mode{'s' * (modes.size > 1)} {span}")
        if len(parts) == 1:
            return {"z": "the A - BK block",
                    "e": "the A - LC block"}.get(parts[0], parts[0])
        return f"the coupled block of {', '.join(parts[:-1])} and {parts[-1]}"

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


def row_norms(x):
    """Euclidean norm of each row of a 2-D float array, with no
    temporary the size of x."""
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def _first_nonfinite(rows):
    """Index of the first row of ``rows`` holding nan or inf, or None; the
    rows are located only when the whole block fails one test."""
    if np.isfinite(rows).all():
        return None
    return int(np.argmin(np.isfinite(rows).all(axis=1)))


def simulate(system, gains, disturbance, noise, config):
    """Integrate the coupled system over [0, t_final] into its timeseries
    table, one segment of at most CHUNK_ROWS steps at a time.

    All segments go through one segment buffer.  Each synthesizes its own
    half-step channel rows, runs ``RK4.run`` from the previous segment's
    last state (so segments share their edge row), tests its states for
    finiteness, and writes t, V, y and the norms of e, z and z_res straight
    into one (n + 1) x 6 table in the CSV's column order (``TIMESERIES``),
    each by the whole-segment expressions.  The table is the only array
    whose length grows with the horizon.

    Raises DivergenceError at the first step with a non-finite state; with
    every state finite, at the first step where V, y or a norm overflowed
    (a norm squares states above 1e154), naming those series: a non-finite
    state wins, even one in a later segment.  Both finiteness tests take a
    whole segment at once and locate the row only in one that fails.
    """
    dyn = CoupledDynamics(system, gains, disturbance, noise, config)
    N, dt, live, h = dyn.N, dyn.dt, dyn.live, dyn.dt / 2.0
    n_steps = _step_count(config.t_final, dt, dyn.dim)

    # the live columns of z, e and z_res; unreached states are 0 and drop
    # out of V, y and the norms
    z, e, res = (slice(*np.searchsorted(live, ends)) for ends in
                 ((0, 2 * N), (2 * N, 4 * N), (4 * N, dyn.dim)))
    K_z, K_e = dyn.K[live[z]], dyn.K[live[e] - 2 * N]
    C_z, C_res = system.C[live[z]], dyn.block.C[live[res] - 4 * N]

    # one segment's states from its first, and its half-step channel rows
    # (stage times of step i are 2i, 2i+1, 2i+2, so t[i] is row 2i)
    S = min(CHUNK_ROWS, n_steps)
    X = np.empty((S + 1, live.size))
    X[0] = dyn.x0[live]
    c = np.empty((2 * S + 1, len(dyn.channels) + 1))
    table = np.empty((n_steps + 1, len(TIMESERIES)))
    force_sup, overflow = 0.0, None
    for i0 in range(0, max(n_steps, 1), CHUNK_ROWS):
        m = min(CHUNK_ROWS, n_steps - i0)   # steps i0..i0 + m - 1
        if i0:
            X[0] = X[-1]          # the last state of the whole segment before
        Xs, cs = X[: m + 1], c[: 2 * m + 1]
        for j, hs in enumerate(dyn.channels):
            cs[:, j] = cosine_sum_grid(hs, h, 2 * m + 1, 2 * i0)
        cs[:, -1] = noise_samples(dyn.noise,
                                  (2 * i0 + np.arange(2 * m + 1)) * h)
        dyn.rk4.run(Xs, cs)
        k = _first_nonfinite(Xs[1:])
        if k is not None:
            step = i0 + 1 + k                  # row i is the state at step i
            raise DivergenceError(step, step * dt)
        # rows i0..i0 + m; row i0 repeats the last of the segment before
        rows = table[i0 : i0 + m + 1]
        t, norm_e, norm_z, V, y, norm_res = rows.T
        t[:] = np.arange(i0, i0 + m + 1) * dt
        # A finite state can still overflow V, y or a norm (a norm squares
        # it), which ends the run like a non-finite state, but only once no
        # later state is non-finite.
        with np.errstate(over="ignore", invalid="ignore"):
            V[:] = Xs[:, e] @ K_e - Xs[:, z] @ K_z
            y[:] = Xs[:, z] @ C_z + Xs[:, res] @ C_res + cs[::2, -1]
            norm_e[:] = row_norms(Xs[:, e])
            norm_z[:] = row_norms(Xs[:, z])
            norm_res[:] = row_norms(Xs[:, res])
        if overflow is None:
            k = _first_nonfinite(rows[:, 1:])
            overflow = None if k is None else i0 + k
        # the retained modes' forces, gathered from their channels
        force_sup = max(force_sup, float(np.max(
            row_norms(cs[::2, dyn.retained_channels]))))
    if overflow is not None:
        finite = np.isfinite(table[overflow, 1:])
        raise DivergenceError(overflow, overflow * dt, ", ".join(
            name for name, ok in zip(TIMESERIES[1:], finite) if not ok))

    t, norm_e, norm_z, V, y, norm_res = table.T
    return SimulationResult(
        timeseries=table, t=t, V=V, y=y,
        norm_e=norm_e, norm_z=norm_z, norm_residual=norm_res,
        force_sup=system.params.a2 * force_sup, dt=dt, system=system,
        gains=gains, disturbance=disturbance, noise=dyn.noise, config=config,
    )


def _phasors(j0, dt, om, rows):
    """e^(i (j0 + r) dt om) for r < ``rows``, shaped (P, rows, H), of P
    slices with first states j0 (P,), steps dt (P,) and frequencies om
    (P, H).  By angle addition with F = PHASOR_FINE, row r = qF + s is
    e^(i (j0 + qF) dt om) e^(i s dt om): ceil(rows / F) + min(rows, F)
    complex exps a slice and harmonic instead of rows.  Row 0 has np.exp's
    bits, its fine factor being exactly 1."""
    om = om[:, None]
    coarse = np.exp(1j * (((j0[:, None] + PHASOR_FINE
                            * np.arange(-(-rows // PHASOR_FINE)))
                           * dt[:, None])[..., None] * om))
    fine = np.exp(1j * ((np.arange(min(rows, PHASOR_FINE)) * dt[:, None])
                        [..., None] * om))
    return (coarse[:, :, None] * fine[:, None]).reshape(
        len(j0), -1, om.shape[-1])[:, :rows]


def simulate_residual_mode(params, k, harmonics,
                           damping_model=DampingModel.STRUCTURAL):
    """RK4 of uncontrolled modes, one or a batch: steady-state amplitude sups.

    Integrates w'' + d_k w' + sigma_k^4 w = a2 * sum_j A_j cos(om_j t + ph_j)
    from rest and records sup |(w, w')| and sup |w| over the states after
    the steps i with i dt >= SETTLE_DECAYS / rate, the decay rate being
    -Re of the slow root, up to KEPT_PERIODS periods of the fastest
    frequency om_max (sigma_k^2 or a harmonic's) past that.  Its one step
    is dt = min(pi / (20 om_max), 0.1 / max(d_k, rate)), and its step count
    has the limit of a coupled run.  The steps are not taken: a harmonic
    a cos(om t + ph) forces the RK4 recurrence x+ = R1 x + u_i with
    u_i = Re(w z^i), z = q^2, q = e^(i om dt/2) and
    w = a e^(i ph) (P1G + q P23G + q^2 P4G), whose solution from rest is

        x_i = sum Re(X z^i) - R1^i v,   X = (z I - R1)^-1 w,  v = sum Re(X).

    At that dt every R1 the step limit admits has spectral radius below 1.
    An array of B modes with ``harmonics`` shaped (B, H, 3) gives two (B,)
    arrays, each mode with its own horizon; the first over the limit is
    refused.  Each mode's kept states go in CHUNK_ROWS-row slices; a pass
    takes consecutive slices while count x longest <= CHUNK_ROWS, with the
    phasors z^i of ``_phasors``.  R1^i v comes by doubling from a slice's
    first row: with no eigenbasis, a critically damped mode (R1 defective)
    needs no special case.
    """
    modes = np.atleast_1d(k)
    hs = np.asarray(harmonics, dtype=float).reshape(len(modes), -1, 3)
    ix = np.arange(len(modes))[:, None] + [0, len(modes)]   # (w, w') rows
    M = oscillator_matrix(params, modes, damping_model)[ix[:, :, None],
                                                        ix[:, None, :]]
    if not np.all(M[:, 1, 1] < 0.0):
        raise ValueError("residual-mode study requires positive damping")
    rates = -np.array(mode_roots(params, modes, damping_model))[0].real
    dts, slices = np.empty(len(modes)), []
    for b, mode in enumerate(modes.tolist()):
        d, rate = -M[b, 1, 1], float(rates[b])
        s2 = (mode * math.pi) ** 2
        om_max = max(s2, *np.abs(hs[b, :, 1]))
        settle = SETTLE_DECAYS / rate
        t_end = settle + KEPT_PERIODS * (2.0 * math.pi / om_max)
        dts[b] = step = min(DT_IMAG_FACTOR / om_max / 2.0,
                            DT_REAL_FACTOR / max(d, rate))
        try:
            n = _step_count(t_end, step, 2)
        except ConfigError:
            raise ConfigError(
                f"residual mode {mode} would take {t_end / step:.4g} RK4 "
                f"steps of dt = {step:.3e} to t = {t_end:.6g}, past its "
                f"settle horizon {settle:.6g} ({settle * rate:.3g} decay "
                f"times of 1 / {rate:.4g}), and stepping its 2 states that "
                f"far exceeds the limit of {MAX_STEPPED_VALUES} state "
                f"values; beam.a1 = {params.a1:g} and damping: "
                f"{damping_model.value} set the decay rate and dt") from None
        # the first kept step i: i dt >= settle as a float product, which the
        # rounded quotient overshoots by at most one; state j follows step j-1
        i = max(0, math.ceil(min(settle / step, n)) - 1)
        while i < n and i * step < settle:
            i += 1
        slices += [(b, j0, min(CHUNK_ROWS, n + 1 - j0))
                   for j0 in range(i + 1, n + 1, CHUNK_ROWS)]
    rk4 = RK4(M, np.array([[0.0], [params.a2]]), dts[:, None, None])
    a, om, ph = np.moveaxis(hs, -1, 0)
    q = np.exp(0.5j * dts[:, None] * om)[..., None]
    w = (a * np.exp(1j * ph))[..., None] * (
        q ** np.arange(3) @ rk4.PG.swapaxes(-1, -2))
    X = np.linalg.solve((q * q)[..., None] * np.eye(2) - rk4.R1[:, None],
                        w[..., None])[..., 0]
    v = X.real.sum(axis=1)
    sb, j0, rows = np.array(slices, dtype=int).reshape(-1, 3).T
    # R1^j0 of each slice by square-and-multiply
    P, Z, e = np.eye(2) + np.zeros((len(sb), 2, 2)), rk4.R1[sb], j0
    while e.any():
        P = np.where((e % 2 == 1)[:, None, None], P @ Z, P)
        Z, e = Z @ Z, e // 2
    Rv = (P @ v[sb, :, None])[..., 0]             # R1^j0 v
    sups, p0 = np.zeros((2, len(modes))), 0
    while p0 < len(slices):
        p1, L = p0 + 1, rows[p0]        # the pass: slices p0..p1-1, L long
        while (p1 < len(slices)
               and (p1 + 1 - p0) * max(L, rows[p1]) <= CHUNK_ROWS):
            p1, L = p1 + 1, max(L, rows[p1])
        b = sb[p0:p1]
        x = (_phasors(j0[p0:p1], dts[b], om[b], L) @ X[b]).real.copy()
        tr = np.empty_like(x)                     # tr[:, r] = R1^(j0 + r) v
        tr[:, 0] = Rv[p0:p1]
        Rm, m = rk4.R1[b], 1
        while m < L:
            tr[:, m : 2 * m] = tr[:, : min(m, L - m)] @ Rm.swapaxes(-1, -2)
            Rm, m = Rm @ Rm, 2 * m
        x -= tr
        if rows[p0:p1].min() < L:
            x[np.arange(L) >= rows[p0:p1, None]] = 0.0    # the padding rows
        np.fmax.at(sups[0], b, np.hypot(x[..., 0], x[..., 1]).max(axis=1))
        np.fmax.at(sups[1], b, np.abs(x[..., 0]).max(axis=1))
        del x, tr             # freed before the next pass allocates its own
        p0 = p1
    return tuple(sups[:, 0].tolist() if np.ndim(k) == 0 else sups)
