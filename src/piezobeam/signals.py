"""Disturbance and measurement-noise signals.

The distributed load is represented by its modal coefficients f_n(t), each a
finite cosine sum with a declared amplitude bound.  The resonant forcings
(polyharmonic comb, tail load) are tuned by ``modal.resonant_frequencies``
under the beam's damping model.  ``modal_force`` evaluates f_n at arbitrary
times, term by term; ``cosine_sum_grid`` evaluates a cosine sum on a whole
uniform grid t_i = i h by angle addition, with O(sqrt(count)) cos/sin calls
per harmonic instead of one per sample.  Measurement noise is any bounded
deterministic-under-seed waveform; the default is a seeded uniform-random
value held constant over short intervals (``noise_samples``).
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .modal import DampingModel, resonant_frequencies

# Largest declared per-mode force bound: F_bound sums the squares of the
# per-mode bounds, which must stay far from overflow.
MAX_FORCE_BOUND = 1e100


@dataclass(frozen=True)
class Harmonic:
    amplitude: float
    omega: float
    phase: float = 0.0


@dataclass(frozen=True)
class DisturbanceSpec:
    """Per-mode harmonic content of the modal forcing.

    mode_harmonics[n-1] lists the cosine components of f_n(t); modes beyond
    ``driven_mode_count`` are unforced.  ``f_max`` is the declared per-mode
    amplitude bound: construction rescales every amplitude by a common
    factor so the largest per-mode amplitude sum equals ``f_max``.
    """

    mode_harmonics: tuple
    f_max: float

    def __post_init__(self):
        if not self.f_max <= MAX_FORCE_BOUND:
            raise ValueError(f"force bound {self.f_max} exceeds {MAX_FORCE_BOUND:g}")
        sums = [sum(abs(h.amplitude) for h in hs) for hs in self.mode_harmonics]
        worst = max(sums, default=0.0)
        if worst > self.f_max * (1.0 + 1e-12) and worst > 0.0:
            raise ValueError(
                f"mode amplitude sum {worst} exceeds declared bound {self.f_max}"
            )

    @property
    def driven_mode_count(self):
        return len(self.mode_harmonics)

    def mode_bound(self, n):
        """Amplitude-sum bound on sup_t |f_n(t)|."""
        if n > self.driven_mode_count:
            return 0.0
        return sum(abs(h.amplitude) for h in self.mode_harmonics[n - 1])

    def force_vector_bound(self, N, a2=1.0):
        """Bound on sup_t of the Euclidean norm of a2*(f_1..f_N)."""
        return a2 * math.sqrt(
            sum(self.mode_bound(n) ** 2 for n in range(1, N + 1))
        )


def _normalized(mode_harmonics, bound):
    """Rescale all amplitudes so the largest per-mode sum equals ``bound``."""
    sums = [sum(abs(a) for a, _, _ in hs) for hs in mode_harmonics]
    worst = max(sums, default=0.0)
    scale = bound / worst if worst > 0.0 else 0.0
    return tuple(
        tuple(Harmonic(a * scale, om, ph) for a, om, ph in hs)
        for hs in mode_harmonics
    )


def build_disturbance(mode_harmonics, bound=None):
    """DisturbanceSpec from raw (amplitude, omega, phase) triples per mode.

    With ``bound`` given, amplitudes are rescaled so the largest per-mode
    amplitude sum equals it; otherwise the bound is taken from the data.
    """
    raw = tuple(
        tuple((float(a), float(om), float(ph)) for a, om, ph in hs)
        for hs in mode_harmonics
    )
    if not all(math.isfinite(x) for hs in raw for h in hs for x in h):
        raise ValueError("harmonic terms must be finite numbers")
    if bound is None:
        bound = max(
            (sum(abs(a) for a, _, _ in hs) for hs in raw), default=0.0
        )
        return DisturbanceSpec(
            tuple(tuple(Harmonic(*h) for h in hs) for hs in raw), bound
        )
    return DisturbanceSpec(_normalized(raw, bound), float(bound))


def polyharmonic_disturbance(params, driven_modes=3, count=11, bound=11.0,
                             resonance=True,
                             damping_model=DampingModel.STRUCTURAL):
    """Equal polyharmonic forcing on the first ``driven_modes`` modes.

    Each driven mode receives ``count`` equal-amplitude zero-phase cosines
    at frequencies j * omega_1 / 3 (j = 1..count) where omega_1 is mode 1's
    resonant frequency under ``damping_model``, so j = 3 lands exactly on
    resonance.  Amplitudes are normalized to sum to ``bound`` per mode.
    With ``resonance=False`` the frequency comb is stretched by 5% so no
    component coincides with omega_1.
    """
    om1 = float(resonant_frequencies(params, [1], damping_model)[0])
    stretch = 1.0 if resonance else 1.05
    freqs = [j * om1 * stretch / 3.0 for j in range(1, count + 1)]
    per_mode = tuple((1.0, om, 0.0) for om in freqs)
    return build_disturbance([per_mode] * driven_modes, bound=bound)


def constant_disturbance(values):
    """Constant modal forces f_n(t) = values[n-1] (omega = 0 components)."""
    return build_disturbance([((v, 0.0, 0.0),) for v in values])


def tail_disturbance(params, f0, n_modes, regime="uniform",
                     damping_model=DampingModel.STRUCTURAL):
    """Single resonant cosine per mode with a k-dependent amplitude envelope.

    regime "uniform": amplitude f0 for every mode; "smooth": f0 / k^2, the
    envelope of a spatially smooth load.  Each mode is driven at its own
    resonant frequency, the regime in which the per-mode response bound is
    tight, so simulated residual amplitudes track their predicted decay.
    """
    if regime not in ("uniform", "smooth"):
        raise ValueError(f"unknown tail regime {regime!r}")
    modes = range(1, n_modes + 1)
    omegas = resonant_frequencies(params, modes, damping_model)
    return build_disturbance([
        ((f0 if regime == "uniform" else f0 / k**2, om, 0.0),)
        for k, om in zip(modes, omegas)])


def modal_force(spec, n, t):
    """f_n(t); zero for modes beyond the driven count.  Vectorized in t."""
    t = np.asarray(t, dtype=float)
    if n > spec.driven_mode_count:
        out = np.zeros_like(t)
        return out if out.ndim else 0.0
    total = np.zeros_like(t)
    for h in spec.mode_harmonics[n - 1]:
        total = total + h.amplitude * np.cos(h.omega * t + h.phase)
    return total if total.ndim else float(total)


def cosine_sum_grid(harmonics, h, count, offset=0):
    """sum_j a_j cos(w_j t_i + p_j) on the grid t_i = (offset + i) h, i < count.

    ``harmonics`` holds (a_j, w_j, p_j) triples.  With i = q B + r and
    B ~ sqrt(count), angle addition splits every term into a coarse angle
    at (offset + q B) h and a fine one at r h:

        sum_j a_j cos(w_j t_i + p_j)
            = sum_j [a_j cos(c_qj), -a_j sin(c_qj)] . [cos(w_j r h), sin(w_j r h)]

    with c_qj = w_j (offset + q B) h + p_j, so the whole grid is one
    (Q x 2H) @ (2H x B) product over O(sqrt(count) H) cos/sin calls.  The
    angles are rounded as in a pointwise evaluation, about eps w t each.
    """
    a, om, ph = np.array(harmonics, dtype=float).reshape(-1, 3).T
    if count == 0 or a.size == 0:
        return np.zeros(count)
    B = math.isqrt(count)
    Q = -(-count // B)
    coarse = np.outer((offset + B * np.arange(Q)) * h, om) + ph
    fine = np.outer(om, np.arange(B) * h)
    table = np.hstack([a * np.cos(coarse), -a * np.sin(coarse)]) @ \
        np.vstack([np.cos(fine), np.sin(fine)])
    return table.ravel()[:count]


# ---------------------------------------------------------------------------
# Measurement noise
# ---------------------------------------------------------------------------

class NoiseWaveform(Enum):
    UNIFORM_HOLD = "uniform_hold"
    SINUSOIDAL = "sinusoidal"


@dataclass(frozen=True)
class NoiseSpec:
    """Bounded measurement noise xi(t) with |xi| <= bound.

    UNIFORM_HOLD draws an independent uniform value on [-bound, bound] per
    ``hold``-length interval, deterministically from (seed, interval index);
    SINUSOIDAL is bound * sin(frequency * t + phase).  hold = None defers
    the interval length to the simulator, which uses ten time steps.
    """

    bound: float
    seed: int = 0
    waveform: NoiseWaveform = NoiseWaveform.UNIFORM_HOLD
    hold: float = None
    frequency: float = 25.0
    phase: float = 0.0

    def __post_init__(self):
        if self.bound < 0.0:
            raise ValueError(f"noise bound must be >= 0, got {self.bound}")
        if self.hold is not None and self.hold <= 0.0:
            raise ValueError(f"noise hold interval must be > 0, got {self.hold}")


_MASK = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x):
    """SplitMix64 finalizer on uint64 arrays; products wrap mod 2^64."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def noise_samples(spec, times):
    """xi at an array of times; UNIFORM_HOLD hashes (seed, interval index)."""
    times = np.asarray(times, dtype=float)
    if spec.bound == 0.0:
        return np.zeros_like(times)
    if spec.waveform is NoiseWaveform.SINUSOIDAL:
        return spec.bound * np.sin(spec.frequency * times + spec.phase)
    if spec.hold is None:
        raise ValueError("NoiseSpec.hold is unresolved; set it or simulate()")
    # interval indices as two's-complement uint64, i.e. index & _MASK
    idx = np.floor(times.ravel() / spec.hold).astype(np.int64).view(np.uint64)
    seed = np.uint64(((spec.seed & _MASK) << 1) & _MASK)
    h = _splitmix64(seed ^ _splitmix64(idx))
    u = (h >> np.uint64(11)).astype(float) * (1.0 / (1 << 53))  # [0, 1)
    return ((2.0 * u - 1.0) * spec.bound).reshape(times.shape)
