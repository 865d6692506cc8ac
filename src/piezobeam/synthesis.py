"""Placement verdicts, pole placement, and steady-state-bound gain tuning.

Observability/controllability of the truncated beam have closed-form tests:
a mode n is invisible to the sensor iff sin(n pi x0) = 0 or the sensor's
zero -s1/s2 is a root of the mode, and unreachable by the patch iff
cos(n pi x2) = cos(n pi x1).  ``check_placement`` runs those
alongside a numeric oracle and reports cheap per-mode diagnostics.  The
oracle takes each mode's 2x2 Kalman determinants from the assembled A, B, C
(``_block_factors``), so it stays independent of the closed-form verdict
and charges each rank loss to its mode.

Gains come from single-input pole placement.  The closed-loop spectrum can
be assigned freely once the pair is controllable/observable; gains are then
selected on a decay-rate grid by minimizing the steady-state terms of the
error/state norm bounds (disturbance-plus-noise over decay rate), the
practical compromise that keeps high-gain noise amplification in check.
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
from .modal import damping_coefficients

# Entries of B/C whose closed-form factor is below this (relative to the
# sqrt(2) n pi scale) count as exact zeros of the placement test.
ZERO_TOL = 1e-9
# Band of factor magnitudes where closed-form and block tests may genuinely
# disagree due to rounding; disagreements inside it downgrade to a warning,
# outside it they raise InternalConsistencyError.
ILL_COND_BAND = (1e-13, 1e-5)


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
    reasons = []
    warnings = []

    sin_fac = np.abs(sin_pi(modes * pl.x0))
    scale = max(abs(pl.s1), abs(pl.s2))
    s1, s2 = pl.s1 / scale, pl.s2 / scale
    d = damping_coefficients(system.params, modes, system.damping_model)
    s4 = ((modes * np.pi) ** 2) ** 2
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
            f"mode {n}: patch gain cos({n} pi x2) - cos({n} pi x1) = 0"
        )

    lo, hi = ILL_COND_BAND
    for label, fac, oracle in zip(("observability", "controllability"),
                                  (obs_fac, cos_fac), _block_factors(system)):
        split = (fac <= ZERO_TOL) != (oracle <= ZERO_TOL)
        for n, mag in zip(modes[split], fac[split]):
            if not lo < mag < hi:
                raise InternalConsistencyError(
                    f"closed-form and block {label} tests disagree on "
                    f"mode {n} (factor {mag:.3e})"
                )
            warnings.append(
                f"{label} of mode {n} is ill-conditioned "
                f"(factor {mag:.3e}); closed-form verdict used"
            )

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
    targets = np.atleast_1d(np.asarray(targets, dtype=complex))
    if targets.shape != (n,):
        raise ValueError(f"expected {n} target poles, got {targets.shape}")
    halves = []
    for side in (targets[targets.imag > 1e-9], targets[targets.imag < -1e-9]):
        keys = np.round(side.real, 9), np.round(np.abs(side.imag), 9)
        halves.append(side[np.lexsort(keys[::-1])])
    plus, minus = halves
    scale = max(1.0, float(np.max(np.abs(targets))))
    if len(plus) != len(minus) or np.any(
            np.abs(plus - minus.conj()) > 1e-9 * scale):
        raise ValueError("target poles must be closed under conjugation")
    return targets


def _ackermann(A, B, targets):
    """Textbook Ackermann gain; fallback for defective open-loop spectra."""
    n = A.shape[0]
    ctrb = np.empty((n, n))
    col = B.astype(float)
    for j in range(n):
        ctrb[:, j] = col
        col = A @ col
    poly = np.real(np.poly(targets))
    pA = np.zeros_like(A)
    for c in poly:
        pA = pA @ A + c * np.eye(n)
    try:
        last_row = np.linalg.solve(ctrb.T, np.eye(n)[:, -1])
    except np.linalg.LinAlgError as exc:
        raise SingularControllabilityError(
            "controllability matrix is singular"
        ) from exc
    return last_row @ pA


@np.errstate(over="ignore", invalid="ignore")    # a non-finite K is refused
def place_poles(A, B, targets):
    """Single-input gain K with eig(A - B K) = targets.

    Solved in the eigenbasis of A: for distinct open-loop eigenvalues
    lambda_i and transformed input b_i, the modal gain is

        f_i = (lambda_i - mu_i) / b_i
              * prod_{j != i} (lambda_i - mu_j) / (lambda_i - lambda_j)

    and K = Re(f V^-1).  Pairing mu with lambda in sorted (Im, Re) order keeps
    each ratio near one, so f stays finite (placed to 1e-9 up to N = 60).
    A vanishing b_i is exactly the PBH uncontrollability of mode i.  Falls
    back to Ackermann's formula if the open-loop spectrum is (near-)defective.
    A gain that still overflows raises SingularControllabilityError naming N.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float).reshape(-1)
    n = A.shape[0]
    targets = _check_conjugate_symmetric(targets, n)

    lam, V = np.linalg.eig(A)
    den = lam[:, None] - lam[None, :] + 0j
    gaps = np.abs(den) + np.eye(n)
    scale = max(1.0, float(np.max(np.abs(lam))))
    if np.min(gaps) < 1e-9 * scale:
        K = _ackermann(A, B, targets)
    else:
        bt = np.linalg.solve(V, B.astype(complex))
        dead = np.abs(bt) < 1e-13 * max(np.max(np.abs(bt)), 1e-300)
        if np.any(dead):
            raise SingularControllabilityError(
                f"uncontrollable eigenvalue(s) {list(lam[dead])}"
            )
        mu = np.empty(n, dtype=complex)
        mu[np.lexsort((lam.real, lam.imag))] = targets[
            np.lexsort((targets.real, targets.imag))]
        np.fill_diagonal(den, bt)
        f = np.prod((lam[:, None] - mu[None, :]) / den, axis=1)
        K = np.real(f @ np.linalg.inv(V))
    if not np.isfinite(K).all():
        raise SingularControllabilityError(
            f"pole placement overflowed to a non-finite gain at N = {n // 2}"
        )
    return K


def place_observer_poles(A, C, targets):
    """Observer gain L with eig(A - L C) = targets, by duality."""
    return place_poles(np.asarray(A, dtype=float).T, np.asarray(C, dtype=float),
                       targets)


def decay_rate(M):
    """min |Re lambda| over the spectrum; requires a finite Hurwitz matrix."""
    if not np.isfinite(M).all():
        raise UnstableMatrixError("matrix has non-finite entries")
    eigs = np.linalg.eigvals(M)
    worst = float(np.max(eigs.real))
    if worst >= 0.0:
        raise UnstableMatrixError(
            f"matrix has eigenvalue with Re = {worst:.6g} >= 0"
        )
    return float(np.min(np.abs(eigs.real)))


def eigvec_condition(M):
    """Condition number of the unit-column eigenvector matrix of M."""
    _, V = np.linalg.eig(M)
    V = V / np.linalg.norm(V, axis=0)
    return float(np.linalg.cond(V))


def radial_pole_targets(A, lam):
    """Default closed-loop target pattern for a modal plant.

    Keeps each mode's damped frequency and spreads the real parts over
    [-lam, -2*lam*(1 - 1/(2N))]: mode n (ordered by frequency) goes to
    -lam * (1 + (n-1)/N) +/- i Im(lambda_n).  min |Re| = lam by design.
    """
    eigs = np.linalg.eigvals(np.asarray(A, dtype=float))
    n = len(eigs)
    if n % 2:
        raise ValueError("expected an even-dimensional two-block modal plant")
    N = n // 2
    # |Im| appears twice per mode; sort the flat array and take every other
    ims = np.sort(np.abs(eigs.imag))[::2]
    re = -lam * (1.0 + np.arange(N) / N)
    return np.column_stack([re + 1j * ims, re - 1j * ims]).ravel()


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
    def from_matrices(cls, system, K, L):
        K = np.asarray(K, dtype=float).reshape(-1)
        L = np.asarray(L, dtype=float).reshape(-1)
        lam_K = decay_rate(system.A - np.outer(system.B, K))
        lam_L = decay_rate(system.A - np.outer(L, system.C))
        return cls(
            K=K, L=L, lambda_K=lam_K, lambda_L=lam_L,
            K_norm=float(np.linalg.norm(K)),
            L_norm=float(np.linalg.norm(L)),
            # ||B K|| of the rank-one product is exactly ||B|| ||K||
            BK_norm=float(np.linalg.norm(system.B) * np.linalg.norm(K)),
        )


def tune_gains(system, F_bound, eps_bound, lambda_grid, lambda_L=None):
    """Pick (L, K) on a decay-rate grid by minimizing steady-state bounds.

    For each candidate lambda the observer targets come from
    ``radial_pole_targets(A, lambda)``; the selected lambda_L minimizes
    (F_bound + ||L|| eps_bound) / lambda over the grid (first argmin wins).
    Passing ``lambda_L`` pins the observer rate instead of tuning it.  The
    controller then minimizes (F_bound + ||B K|| * e_st) / lambda over grid
    values strictly below lambda_L, with e_st the observer's steady bound.

    Raises NoFeasibleGainError for an empty grid, a decay rate <= 0 or
    when no grid value lies below lambda_L.
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
        """(lam, gain) at the first minimum of (F_bound + cost(|gain|)) / lam."""
        best = None
        for lam in lams:
            gain = place(system.A, vec, radial_pole_targets(system.A, lam))
            bound = (F_bound + cost(np.linalg.norm(gain))) / lam
            if best is None or bound < best[0] - 1e-15 * abs(best[0]):
                best = (bound, lam, gain)
        return best[1:]

    lam_L_used, L = first_min(grid if lambda_L is None else [float(lambda_L)],
                              place_observer_poles, system.C,
                              lambda norm: norm * eps_bound)
    e_steady = (F_bound + np.linalg.norm(L) * eps_bound) / lam_L_used

    k_grid = [g for g in grid if g < lam_L_used]
    if not k_grid:
        raise NoFeasibleGainError(
            f"no grid value below lambda_L = {lam_L_used} for the controller"
        )
    B_norm = float(np.linalg.norm(system.B))
    _, K = first_min(k_grid, place_poles, system.B,
                     lambda norm: B_norm * norm * e_steady)
    return GainSet.from_matrices(system, K, L)
