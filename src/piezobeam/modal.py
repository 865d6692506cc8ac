"""Truncated modal state-space system and the residual-mode block.

Projecting the beam equation onto the first N eigenfunctions gives N
decoupled oscillators

    w_n'' + d_n w_n' + sigma_n^4 w_n = b_n V(t) + a2 f_n(t)

with d_n = a1 sigma_n^2 (structural damping) or a1 sigma_n^4 (Kelvin-Voigt)
and b_n = psi_n'(x2) - psi_n'(x1) from the patch edges.  The oscillator is
solved here only: its roots and the drive frequency of a resonant forcing
from (sigma^4, d) (``oscillator_roots``, ``oscillator_frequencies``; per
mode ``mode_roots``, ``resonant_frequencies``) and its [[0, I], [-sigma^4,
-d]] block (``oscillator_matrix``).  One function adds the patch and sensor
rows to it for modes 1..N (``assemble``) and for the uncontrolled residual
modes N+1..N+R of the spillover studies (``residual_block``).
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .beam import SQRT2, cos_pi, sin_pi


class DampingModel(Enum):
    STRUCTURAL = "structural"
    KELVIN_VOIGT = "kelvin_voigt"


def damping_coefficients(params, modes, model=DampingModel.STRUCTURAL):
    """Per-mode damping d_n for the requested model (modes is an int array)."""
    s2 = (np.asarray(modes, dtype=float) * math.pi) ** 2
    if model is DampingModel.STRUCTURAL:
        return params.a1 * s2
    if model is DampingModel.KELVIN_VOIGT:
        return params.a1 * s2**2
    raise ValueError(f"unknown damping model {model!r}")


def _stiffness(modes):
    """sigma_n^4 = (n pi)^4 per mode."""
    return ((np.asarray(modes, dtype=float) * math.pi) ** 2) ** 2


def oscillator_roots(s4, d):
    """(slow, fast) roots of lambda^2 + d lambda + s4 = 0, elementwise.

    Complex arrays; slow has Im > 0 while underdamped and is nearer zero
    when overdamped.  The overdamped slow root is s4 / fast (Vieta):
    (-d + sqrt(d^2 - 4 s4)) / 2 cancels when d^2 >> s4.
    """
    disc = np.sqrt((d * d - 4.0 * s4).astype(complex))
    fast = (-d - disc) / 2.0
    slow = np.where(disc.real > 0.0, s4 / fast, (-d + disc) / 2.0)
    return slow, fast


def oscillator_frequencies(s4, d):
    """Per-oscillator drive frequency: |Im| of the slow root, or sqrt(s4) =
    sigma^2 when the roots are real (overdamped)."""
    im = np.abs(oscillator_roots(s4, d)[0].imag)
    return np.where(im > 0.0, im, np.sqrt(s4))


def mode_roots(params, modes, model=DampingModel.STRUCTURAL):
    """``oscillator_roots`` of modes with sigma_n^4 and d_n of ``model``."""
    return oscillator_roots(_stiffness(modes),
                            damping_coefficients(params, modes, model))


def resonant_frequencies(params, modes, model=DampingModel.STRUCTURAL):
    """``oscillator_frequencies`` of modes: the drive frequency of each."""
    return oscillator_frequencies(_stiffness(modes),
                                  damping_coefficients(params, modes, model))


def oscillator_matrix(params, modes, model=DampingModel.STRUCTURAL):
    """Block [[0, I], [-diag sigma^4, -diag d]] of the modes' oscillators."""
    n = len(modes)
    A = np.zeros((2 * n, 2 * n))
    A[:n, n:] = np.eye(n)
    A[n:, :n] = -np.diag(_stiffness(modes))
    A[n:, n:] = -np.diag(damping_coefficients(params, modes, model))
    return A


@dataclass(frozen=True)
class Placement:
    """Patch interval [x1, x2] and point-sensor location x0 with weights.

    The measured output is y = s1 * w(x0, t) + s2 * w_t(x0, t); the default
    (s1, s2) = (0, 1) is a pure velocity sensor.
    """

    x1: float
    x2: float
    x0: float
    s1: float = 0.0
    s2: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.x1 < self.x2 <= 1.0):
            raise ValueError(
                f"patch must satisfy 0 <= x1 < x2 <= 1, got ({self.x1}, {self.x2})"
            )
        if not (0.0 < self.x0 < 1.0):
            raise ValueError(f"sensor must satisfy 0 < x0 < 1, got {self.x0}")
        # below the smallest normal float, s * psi_n underflows in C
        if max(abs(self.s1), abs(self.s2)) < np.finfo(float).tiny:
            raise ValueError("sensor weights (s1, s2) must not both be zero "
                             f"or subnormal, got ({self.s1}, {self.s2})")


def actuator_gain(n, placement):
    """Modal actuation gain psi_n'(x2) - psi_n'(x1) of the patch pair."""
    return SQRT2 * n * math.pi * (
        cos_pi(n * placement.x2) - cos_pi(n * placement.x1)
    )


@dataclass
class ModalSystem:
    """Truncated 2N-state model: z' = A z + B V + forcing, y = C z + eps.

    A = [[0, I], [-diag(sigma_n^4), -diag(d_n)]], B carries the patch gains
    in its velocity rows, C the sensor mode shapes.  Instances are immutable
    by convention; do not modify the arrays in place.
    """

    N: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    params: "BeamParams"
    placement: Placement
    damping_model: DampingModel

    @property
    def modes(self):
        return np.arange(1, self.N + 1)


def _coupled_block(params, placement, modes, model):
    """A, B, C of ``modes``: oscillators, patch gains, sensor mode shapes."""
    A = oscillator_matrix(params, modes, model)
    B = np.zeros(2 * len(modes))
    B[len(modes):] = actuator_gain(modes, placement)
    psi = SQRT2 * sin_pi(modes * placement.x0)
    C = np.concatenate([placement.s1 * psi, placement.s2 * psi])
    return A, B, C


def assemble(params, N, placement, damping_model=DampingModel.STRUCTURAL):
    """Build the truncated modal system for modes 1..N."""
    if int(N) != N or N < 1:
        raise ValueError(f"mode count N must be a positive integer, got {N}")
    N = int(N)
    A, B, C = _coupled_block(params, placement, np.arange(1, N + 1),
                             damping_model)
    return ModalSystem(
        N=N, A=A, B=B, C=C,
        params=params, placement=placement, damping_model=damping_model,
    )


@dataclass
class ResidualBlock:
    """Uncontrolled modes N+1..N+R retained for spillover studies.

    Each residual mode obeys w_k'' + d_k w_k' + sigma_k^4 w_k = a2 f_k
    (plus b_k V when control spillover is switched on).  ``C`` maps the
    stacked residual state to its contribution to the sensor reading.
    """

    R: int
    modes: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


def residual_block(params, placement, N, R, damping_model=DampingModel.STRUCTURAL):
    """Build the residual block for modes N+1..N+R (R = 0 gives empty arrays)."""
    if R < 0 or int(R) != R:
        raise ValueError(f"residual mode count R must be an integer >= 0, got {R}")
    modes = np.arange(N + 1, N + int(R) + 1)
    A, B, C = _coupled_block(params, placement, modes, damping_model)
    return ResidualBlock(R=len(modes), modes=modes, A=A, B=B, C=C)
