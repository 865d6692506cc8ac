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
from .modal import _stiffness, damping_coefficients, oscillator_frequencies

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
    """Single-input gain K with eig(A - B K) = targets, for one or G sets.

    Solved in the eigenbasis of A: for distinct open-loop eigenvalues
    lambda_i and transformed input b_i, the modal gain is

        f_i = (lambda_i - mu_i) / b_i
              * prod_{j != i} (lambda_i - mu_j) / (lambda_i - lambda_j)

    and K = Re(f V^-1).  Pairing mu with lambda in sorted (Im, Re) order keeps
    each ratio near one, so f stays finite (placed to 1e-9 up to N = 60).
    A vanishing b_i is exactly the PBH uncontrollability of mode i.  Falls
    back to Ackermann's formula if the open-loop spectrum is (near-)defective.
    A gain that still overflows raises SingularControllabilityError naming N.

    ``targets`` of shape (n,) gives K of shape (n,); a (G, n) batch gives
    (G, n) gains from one eigendecomposition, one solve and one inverse.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float).reshape(-1)
    n = A.shape[0]
    targets = _check_conjugate_symmetric(targets, n)
    rows = targets.reshape(-1, n)

    lam, V = np.linalg.eig(A)
    den = lam[:, None] - lam[None, :] + 0j
    gaps = np.abs(den) + np.eye(n)
    scale = max(1.0, float(np.max(np.abs(lam))))
    if np.min(gaps) < 1e-9 * scale:
        K = np.array([_ackermann(A, B, t) for t in rows])
    else:
        bt = np.linalg.solve(V, B.astype(complex))
        dead = np.abs(bt) < 1e-13 * max(np.max(np.abs(bt)), 1e-300)
        if np.any(dead):
            raise SingularControllabilityError(
                "uncontrollable eigenvalue(s) "
                + ", ".join(f"{v:.6g}" for v in lam[dead]))
        mu = np.empty_like(rows)
        mu[:, np.lexsort((lam.real, lam.imag))] = np.take_along_axis(
            rows, np.lexsort((rows.real, rows.imag)), axis=1)
        np.fill_diagonal(den, bt)
        f = np.prod((lam[:, None] - mu[:, None, :]) / den, axis=2)
        K = np.real(f @ np.linalg.inv(V))
    if not np.isfinite(K).all():
        raise SingularControllabilityError(
            f"pole placement overflowed to a non-finite gain at N = {n // 2}"
        )
    return K if targets.ndim == 2 else K[0]


def place_observer_poles(A, C, targets):
    """Observer gain L with eig(A - L C) = targets, by duality; a (G, n)
    batch of target sets gives (G, n) gains."""
    return place_poles(np.asarray(A, dtype=float).T, np.asarray(C, dtype=float),
                       targets)


def hurwitz_spectrum(M, name="matrix"):
    """Eigenvalues of M; refuses a non-finite or non-Hurwitz M by ``name``."""
    if not np.isfinite(M).all():
        raise UnstableMatrixError(f"{name} has non-finite entries")
    eigs = np.linalg.eigvals(M)
    worst = float(np.max(eigs.real))
    if worst >= 0.0:
        raise UnstableMatrixError(
            f"{name} has eigenvalue with Re = {worst:.6g} >= 0"
        )
    return eigs


def decay_rate(M):
    """min |Re lambda| over the spectrum; requires a finite Hurwitz matrix."""
    return float(np.min(np.abs(hurwitz_spectrum(M).real)))


def eigvec_condition(M):
    """Condition number of the unit-column eigenvector matrix of M."""
    _, V = np.linalg.eig(M)
    V = V / np.linalg.norm(V, axis=0)
    return float(np.linalg.cond(V))


def radial_pole_targets(A, lam):
    """Default closed-loop target pattern for a modal plant.

    Keeps each mode's drive frequency om_n (``oscillator_frequencies`` of
    sigma_n^4 = -A[N+n, n] and d_n = -A[N+n, N+n]; sigma_n^2 when
    overdamped, so no target is a double pole) and spreads the real parts
    over [-lam, -2*lam*(1 - 1/(2N))]: mode n (ordered by frequency) goes to
    -lam * (1 + (n-1)/N) +/- i om_n.  min |Re| = lam by design.  A scalar
    rate gives (2N,) targets, a 1-D array of G rates (G, 2N).
    """
    A = np.asarray(A, dtype=float)
    N, odd = divmod(len(A), 2)
    if odd:
        raise ValueError("expected an even-dimensional two-block modal plant")
    k = np.arange(N)
    ims = np.sort(oscillator_frequencies(-A[N + k, k], -A[N + k, N + k]))
    lam = np.asarray(lam, dtype=float)
    re = -lam[..., None] * (1.0 + k / N)
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
                        f"relative to max |target| (tolerance {PLACE_TOL:g})"
                    )
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
    misses its targets (``GainSet.from_matrices``); an uncontrollable mode
    is named by ``check_placement``.
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
            f"no grid value below lambda_L = {lam_L_used} for the controller"
        )
    B_norm = float(np.linalg.norm(system.B))
    lam_K, K, K_targets = first_min(k_grid, place_poles, system.B,
                                    lambda norm: B_norm * norm * e_steady)
    return GainSet.from_matrices(system, K, L, placed=(
        (lam_K, K_targets), (lam_L_used, L_targets)))
