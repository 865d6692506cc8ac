"""Placement verdicts, pole placement, and steady-state-bound gain tuning.

Observability/controllability of the truncated beam have closed-form tests:
a mode n is invisible to the sensor iff sin(n pi x0) = 0 or the sensor's
zero -s1/s2 is a root of the mode, and unreachable by the patch iff
cos(n pi x2) = cos(n pi x1).  ``check_placement`` runs those
alongside a numeric oracle and reports cheap per-mode diagnostics.  The
oracle takes each mode's 2x2 Kalman determinants from the assembled A, B, C
(``_block_factors``), so it stays independent of the closed-form verdict
and charges each rank loss to its mode.

Gains come from single-input pole placement on the N decoupled oscillators:
from their closed-form roots each mode's share of the gain is one 2x2
solve, with no eigendecomposition.  Gains are selected on a decay-rate grid
by minimizing the steady-state terms of the error/state norm bounds
(disturbance plus noise over decay rate), keeping noise gain in check.
"""

from dataclasses import dataclass, field

import numpy as np

from .beam import cos_pi, sin_pi
from .errors import (
    InternalConsistencyError,
    NoFeasibleGainError,
    SingularControllabilityError,
    UnstableMatrixError,
)
from .modal import (_stiffness, damping_coefficients, oscillator_frequencies,
                    oscillator_roots)

# Entries of B/C whose closed-form factor is below this (relative to the
# sqrt(2) n pi scale) count as exact zeros of the placement test.
ZERO_TOL = 1e-9
# Band of factor magnitudes where closed-form and block tests may genuinely
# disagree due to rounding; disagreements inside it downgrade to a warning,
# outside it they raise InternalConsistencyError.
ILL_COND_BAND = (1e-13, 1e-5)
# A tuned gain's closed-loop spectrum must meet its targets to this,
# relative to the largest target magnitude.
PLACE_TOL = 1e-6
# A mode's placement determinant is 0 under this x sqrt(own x largest scale).
DEAD_TOL = 1e-13
# A mode's roots this close (relative) take the product rule, not a secant.
ROOT_GAP = 0.1


@dataclass
class PlacementVerdict:
    observable: bool
    controllable: bool
    offending_modes: list
    closed_form_reason: str
    warnings: list = field(default_factory=list)

    @property
    def ok(self):
        return self.observable and self.controllable


def _block_factors(system):
    """Per-mode (observability, controllability) factors of A, B, C.

    A must couple only each pair (w_n, w_n'); then det[C_n; C_n A_n] and
    det[B_n, A_n B_n] decide mode n (Kalman).  With the block's own d_n =
    -A_n[1, 1] and sigma_n^4 = -A_n[1, 0], the first is psi_n^2 (s1^2 -
    s1 s2 d_n + s2^2 sigma_n^4): observability is the smaller of |psi_n| /
    sqrt(2), read as |sin(n pi x0)|, and the sensor-zero factor this leaves.
    The second reads as |cos(n pi x2) - cos(n pi x1)|.  C is homogeneous in
    (s1, s2), so both are divided by the larger weight.
    """
    N, A, pl = system.N, system.A, system.placement
    if np.any(A[~np.tile(np.eye(N, dtype=bool), (2, 2))]):
        raise InternalConsistencyError("A couples states of different modes")
    a, b, c, d = (np.diag(A[r:r + N, k:k + N]) for r in (0, N) for k in (0, N))
    scale = max(abs(pl.s1), abs(pl.s2))
    s1, s2 = pl.s1 / scale, pl.s2 / scale
    p, q = system.C[:N] / scale, system.C[N:] / scale
    u, v = system.B[:N], system.B[N:]
    det_obs = p * (p * b + q * d) - q * (p * a + q * c)
    det_ctr = u * (c * u + d * v) - v * (a * u + b * v)
    psi2 = (p * p + q * q) / (s1 * s1 + s2 * s2)
    norm = psi2 * (s1 * s1 - abs(s1 * s2) * d - s2 * s2 * c)
    zero = np.abs(det_obs) / np.where(psi2 > 0.0, norm, 1.0)
    obs = np.minimum(np.sqrt(psi2 / 2), zero)
    ctr = np.sqrt(np.abs(det_ctr) / (2 * np.sqrt(-c)))
    return obs, ctr


def check_placement(system):
    """Closed-form observability/controllability verdict with a block oracle.

    The closed-form test flags mode n when one of these is <= ZERO_TOL:
    |sin(n pi x0)| (sensor on a node), |s1^2 - s1 s2 d_n + s2^2 sigma_n^4|
    / (s1^2 + |s1 s2| d_n + s2^2 sigma_n^4) (the sensor's zero -s1/s2 on a
    root of the mode), |cos(n pi x2) - cos(n pi x1)| (patch edges at equal
    slope influence).  The per-mode Kalman factors of the assembled arrays
    (``_block_factors``) must agree outside the ill-conditioned band, else
    InternalConsistencyError is raised.
    """
    pl = system.placement
    modes = system.modes
    reasons, warnings = [], []

    sin_fac = np.abs(sin_pi(modes * pl.x0))
    scale = max(abs(pl.s1), abs(pl.s2))
    s1, s2 = pl.s1 / scale, pl.s2 / scale
    d = damping_coefficients(system.params, modes, system.damping_model)
    s4 = _stiffness(modes)
    zero_fac = (np.abs(s1 * s1 - s1 * s2 * d + s2 * s2 * s4)
                / (s1 * s1 + abs(s1 * s2) * d + s2 * s2 * s4))
    obs_fac = np.minimum(sin_fac, zero_fac)
    obs_bad = {int(n) for n in modes[obs_fac <= ZERO_TOL]}
    for n in sorted(obs_bad):
        reasons.append(f"mode {n}: sensor at node, sin({n} pi x0) = 0"
                       if sin_fac[n - 1] <= ZERO_TOL else
                       f"mode {n}: sensor zero -s1/s2 is a root of the mode")

    cos_fac = np.abs(cos_pi(modes * pl.x2) - cos_pi(modes * pl.x1))
    ctr_bad = {int(n) for n in modes[cos_fac <= ZERO_TOL]}
    for n in sorted(ctr_bad):
        reasons.append(
            f"mode {n}: patch gain cos({n} pi x2) - cos({n} pi x1) = 0")

    lo, hi = ILL_COND_BAND
    for label, fac, oracle in zip(("observability", "controllability"),
                                  (obs_fac, cos_fac), _block_factors(system)):
        split = (fac <= ZERO_TOL) != (oracle <= ZERO_TOL)
        for n, mag in zip(modes[split], fac[split]):
            if not lo < mag < hi:
                raise InternalConsistencyError(
                    f"closed-form and block {label} tests disagree on "
                    f"mode {n} (factor {mag:.3e})")
            warnings.append(f"{label} of mode {n} is ill-conditioned "
                            f"(factor {mag:.3e}); closed-form verdict used")

    return PlacementVerdict(
        observable=not obs_bad,
        controllable=not ctr_bad,
        offending_modes=sorted(obs_bad | ctr_bad),
        closed_form_reason="; ".join(reasons) if reasons else "all entries nonzero",
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# Pole placement
# ---------------------------------------------------------------------------

def _check_conjugate_symmetric(targets, n):
    """Targets as a complex (n,) or (G, n) array; every row must be closed
    under conjugation.

    Per row, the poles above the real axis and those below it are each
    sorted by (Re, |Im|) rounded to 1e-9 and must pair up as conjugates to
    1e-9 of max(1, max |target|).  All rows are sorted in one lexsort, with
    the side (above, below, on the axis) as the leading key.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=complex))
    if targets.ndim > 2 or targets.shape[-1] != n:
        raise ValueError(f"expected {n} target poles, got {targets.shape}")
    rows = targets.reshape(-1, n)
    side = np.where(rows.imag > 1e-9, 0, np.where(rows.imag < -1e-9, 1, 2))
    ordered = np.take_along_axis(rows, np.lexsort(
        (np.round(np.abs(rows.imag), 9), np.round(rows.real, 9), side)),
        axis=1)
    plus, minus = (np.sum(side == k, axis=1, keepdims=True) for k in (0, 1))
    k = np.arange(n)
    # the k-th pole above the axis against the k-th one below it
    below = np.take_along_axis(ordered, np.minimum(k + plus, n - 1), axis=1)
    scale = np.maximum(1.0, np.max(np.abs(rows), axis=1, keepdims=True))
    unpaired = (k < plus) & (np.abs(ordered - below.conj()) > 1e-9 * scale)
    if np.any(plus != minus) or np.any(unpaired):
        raise ValueError("target poles must be closed under conjugation")
    return targets


def _oscillators(A):
    """(sigma^4, d) of A = [[0, I], [-diag sigma^4, -diag d]]; any other A,
    its transpose too, is refused: the placement holds for this form only."""
    A = np.asarray(A, dtype=float)
    N = len(A) // 2
    if N and A.shape == (2 * N, 2 * N):
        s4, d = -A.diagonal(-N), -A.diagonal()[N:]
        if np.array_equal(A, np.diag(np.ones(N), N) - np.diag(s4, -N)
                          - np.diag(np.concatenate([0.0 * d, d]))):
            return s4, d
    raise ValueError("expected a modal plant [[0, I], [-diag sigma^4, -diag d]]")


def _solve_modes(m11, m12, m21, m22, lines, word):
    """[u, v] with [[m11, m12], [m21, m22]] [u_n; v_n] = [alpha_n; beta_n] per
    mode, lines = [alpha, beta]; a determinant at rounding level is refused."""
    det = m11 * m22 - m12 * m21
    alpha, beta = lines[..., :len(det)], lines[..., len(det):]
    scale = np.abs(m11 * m22) + np.abs(m12 * m21)
    dead = np.abs(det) <= DEAD_TOL * np.sqrt(scale * scale.max())
    if dead.any():
        raise SingularControllabilityError(
            f"{word} mode(s) " + ", ".join(map(str, np.flatnonzero(dead) + 1)))
    gain = np.concatenate([(alpha * m22 - m12 * beta) / det,
                           (m11 * beta - m21 * alpha) / det], axis=-1)
    if not np.isfinite(gain).all():
        raise SingularControllabilityError(
            f"pole placement overflowed to a non-finite gain at N = {len(det)}")
    return gain


@np.errstate(all="ignore")          # a non-finite gain is refused
def place_poles(A, B, targets):
    """Single-input gain K with eig(A - B K) = targets, for one or G sets.

    A is N oscillators p_n(s) = s^2 + d_n s + sigma_n^4 (``_oscillators``):
    det(sI - A + B K) = p(s) (1 + sum_n N_n(s) / p_n(s)), N_n the line
    through g_n = q / prod_{m != n} p_m at mode n's roots x, y.  g_n is the
    product of r_j = (s - mu_j) / (s - lambda_j), mu and lambda paired in
    sorted (Im, Re) order, the mode's own two denominators 1.  Its slope is
    the secant, or within ROOT_GAP the product rule sum_j r_<j(x) r_j[x, y]
    r_>j(y), g_n'(x) at x = y.  Mode n's entries of K then solve k ((s +
    d_n) b1 + b2) + kappa (s b2 - sigma_n^4 b1) = N_n(s), or name the mode.
    """
    s4, d = _oscillators(A)
    N = len(s4)
    targets = _check_conjugate_symmetric(targets, 2 * N)
    rows = targets.reshape(-1, 2 * N)
    x, y = oscillator_roots(s4, d)
    lam = np.concatenate([x, y])
    mu = np.empty_like(rows)
    mu[:, np.lexsort((lam.real, lam.imag))] = np.take_along_axis(
        rows, np.lexsort((rows.real, rows.imag)), axis=1)
    own = np.tile(np.eye(N, dtype=bool), (2, 2))    # root i's mode: i, i +- N
    den = np.where(own, 1.0, lam[:, None] - lam)    # root i against lambda_j
    r = (lam[:, None] - mu[:, None]) / den
    head = np.cumprod(r[:, :N], axis=2)                     # at x
    tail = np.cumprod(r[:, N:, ::-1], axis=2)[..., ::-1]    # at y
    beta = (head[..., -1] - tail[..., 0]) / (x - y)
    near = np.abs(x - y) <= ROOT_GAP * np.abs(y)
    if near.any():
        dd = np.where(own[:N], 1.0, (mu[:, None] - lam) / (den[:N] * den[N:]))
        dd[..., 1:] *= head[..., :-1]
        dd[..., :-1] *= tail[..., 1:]
        beta = np.where(near, dd.sum(axis=2), beta)
    lines = np.concatenate([head[..., -1] - beta * x, beta], axis=-1).real
    b1, b2 = np.asarray(B, dtype=float).reshape(2, -1)
    return _solve_modes(d * b1 + b2, -s4 * b1, b1, b2, lines,
                        "uncontrollable").reshape(targets.shape)


@np.errstate(all="ignore")          # a non-finite gain is refused
def place_observer_poles(A, C, targets):
    """Observer gain L with eig(A - L C) = targets, for one or G sets: the
    lines N_n are ``place_poles``' K for the unit velocity input, and mode
    n's l1 (p (s + d_n) - q sigma_n^4) + l2 (p + q s) = N_n(s), C_n = (p, q).
    """
    s4, d = _oscillators(A)
    p, q = np.asarray(C, dtype=float).reshape(2, -1)
    lines = place_poles(A, np.repeat([0.0, 1.0], len(d)), targets)
    return _solve_modes(p * d - q * s4, p, p, q, lines, "unobservable")


def hurwitz_spectrum(M, name):
    """Eigenvalues of M; refuses a non-finite or non-Hurwitz M by ``name``."""
    if not np.isfinite(M).all():
        raise UnstableMatrixError(f"{name} has non-finite entries")
    eigs = np.linalg.eigvals(M)
    worst = float(np.max(eigs.real))
    if worst >= 0.0:
        raise UnstableMatrixError(
            f"{name} has eigenvalue with Re = {worst:.6g} >= 0")
    return eigs


def decay_rate(M, name):
    """min |Re lambda| over the spectrum; requires a finite Hurwitz matrix,
    refused by ``name``."""
    return float(np.min(np.abs(hurwitz_spectrum(M, name).real)))


def eigvec_condition(M):
    """Condition number of the unit-column eigenvector matrix of M."""
    _, V = np.linalg.eig(M)
    V = V / np.linalg.norm(V, axis=0)
    return float(np.linalg.cond(V))


def radial_pole_targets(A, lam):
    """Default closed-loop target pattern for a modal plant.

    Keeps each mode's drive frequency om_n (``oscillator_frequencies`` of
    A's sigma_n^4 and d_n; sigma_n^2 when overdamped, so no target is a
    double pole) and spreads the real parts over [-lam, -2*lam*(1 -
    1/(2N))]: mode n (ordered by frequency) goes to -lam * (1 + (n-1)/N)
    +/- i om_n.  min |Re| = lam by design.  A scalar rate gives (2N,)
    targets, a 1-D array of G rates (G, 2N).
    """
    s4, d = _oscillators(A)
    N = len(s4)
    ims = np.sort(oscillator_frequencies(s4, d))
    lam = np.asarray(lam, dtype=float)
    re = -lam[..., None] * (1.0 + np.arange(N) / N)
    return np.stack([re + 1j * ims, re - 1j * ims], axis=-1).reshape(
        *lam.shape, 2 * N)


# ---------------------------------------------------------------------------
# Gain records and bound-minimizing tuning
# ---------------------------------------------------------------------------

@dataclass
class GainSet:
    """Controller row K, observer column L, and their spectral summaries."""

    K: np.ndarray
    L: np.ndarray
    lambda_K: float
    lambda_L: float
    K_norm: float
    L_norm: float
    BK_norm: float

    @classmethod
    def from_matrices(cls, system, K, L, placed=None):
        """Gains and summaries; both closed loops must be Hurwitz.

        ``placed`` holds the (rate, target poles) that K and L were placed
        at, in that order.  Each sorted closed-loop spectrum must then
        match its sorted targets to PLACE_TOL relative to max |target|,
        else NoFeasibleGainError names the matrix, the rate and the miss.
        """
        K = np.asarray(K, dtype=float).reshape(-1)
        L = np.asarray(L, dtype=float).reshape(-1)
        loops = (("A - BK", system.A - np.outer(system.B, K)),
                 ("A - LC", system.A - np.outer(L, system.C)))
        rates = []
        for (name, M), (lam, want) in zip(loops, placed or [(None, None)] * 2):
            if lam is not None:
                name = f"{name} at lambda = {lam:g}"
            eigs = hurwitz_spectrum(M, name)
            if want is not None:
                miss = float(np.max(np.abs(np.sort_complex(eigs)
                                           - np.sort_complex(want)))
                             / np.max(np.abs(want)))
                if not miss <= PLACE_TOL:
                    raise NoFeasibleGainError(
                        f"{name} misses its target poles by {miss:.3g} "
                        f"relative to max |target| (tolerance {PLACE_TOL:g})")
            rates.append(float(np.min(np.abs(eigs.real))))
        return cls(
            K=K, L=L, lambda_K=rates[0], lambda_L=rates[1],
            K_norm=float(np.linalg.norm(K)),
            L_norm=float(np.linalg.norm(L)),
            # ||B K|| of the rank-one product is exactly ||B|| ||K||
            BK_norm=float(np.linalg.norm(system.B) * np.linalg.norm(K)),
        )


def tune_gains(system, F_bound, eps_bound, lambda_grid, lambda_L=None):
    """Pick (L, K) on a decay-rate grid by minimizing steady-state bounds.

    The observer targets for the whole grid come from
    ``radial_pole_targets(A, grid)`` and are placed in one call; the
    selected lambda_L minimizes (F_bound + ||L|| eps_bound) / lambda over
    the grid (first argmin wins).  Passing ``lambda_L`` pins the observer
    rate instead of tuning it.  The controller then minimizes
    (F_bound + ||B K|| * e_st) / lambda over grid values strictly below
    lambda_L, with e_st the observer's steady bound, again in one call.

    Raises NoFeasibleGainError for an empty grid, a decay rate <= 0, when
    no grid value lies below lambda_L, or when a chosen gain's spectrum
    misses its targets (``GainSet.from_matrices``).  A mode that a
    placement refuses is explained by ``check_placement``'s reason.
    """
    grid = [float(g) for g in lambda_grid]
    if not grid and lambda_L is None:
        raise NoFeasibleGainError("lambda grid is empty")
    for g in grid:
        if g <= 0.0:
            raise NoFeasibleGainError(f"grid decay rates must be > 0, got {g}")
    if lambda_L is not None and not lambda_L > 0.0:
        raise NoFeasibleGainError(f"lambda_L must be > 0, got {lambda_L}")

    def first_min(lams, place, vec, cost):
        """(lam, gain, targets) at the first minimum of
        (F_bound + cost(|gain|)) / lam, all of ``lams`` placed at once."""
        targets = radial_pole_targets(system.A, lams)
        try:
            gains = place(system.A, vec, targets)
        except SingularControllabilityError as exc:
            verdict = check_placement(system)
            if not verdict.offending_modes:
                raise
            raise SingularControllabilityError(
                f"{exc}; {verdict.closed_form_reason}") from None
        best = None
        for i, lam in enumerate(lams):
            bound = (F_bound + cost(np.linalg.norm(gains[i]))) / lam
            if best is None or bound < best[0] - 1e-15 * abs(best[0]):
                best = (bound, i)
        i = best[1]
        return lams[i], gains[i], targets[i]

    lam_L_used, L, L_targets = first_min(
        grid if lambda_L is None else [float(lambda_L)],
        place_observer_poles, system.C, lambda norm: norm * eps_bound)
    e_steady = (F_bound + np.linalg.norm(L) * eps_bound) / lam_L_used

    k_grid = [g for g in grid if g < lam_L_used]
    if not k_grid:
        raise NoFeasibleGainError(
            f"no grid value below lambda_L = {lam_L_used} for the controller")
    B_norm = float(np.linalg.norm(system.B))
    lam_K, K, K_targets = first_min(k_grid, place_poles, system.B,
                                    lambda norm: B_norm * norm * e_steady)
    return GainSet.from_matrices(system, K, L, placed=(
        (lam_K, K_targets), (lam_L_used, L_targets)))
