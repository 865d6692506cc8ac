"""Hinged beam model: dimensionless parameters and the sine eigenbasis.

The transverse dynamics of a slender hinged-hinged beam with symmetric
piezoelectric patches reduce, after nondimensionalization, to

    w_tt + w_xxxx - a1 * w_txx = -V(t) * (chi_[x1,x2](x))'' + a2 * F(x, t)

on x in [0, 1] with w = w'' = 0 at both ends.  Everything downstream works
with the dimensionless coefficients (a1, a2) and the sine eigenbasis
psi_n(x) = sqrt(2) sin(n pi x) of the hinged bi-harmonic operator.  This
module supplies the coefficients and an exactly reduced sin/cos of pi y;
``modal`` builds the modes and their oscillators from them.
"""

import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Trig helpers with exact argument reduction.
#
# sin(pi * y) evaluated as np.sin(np.pi * y) returns ~1e-16 garbage at
# integer y, which breaks the "mode node gives an exactly zero matrix entry"
# guarantee.  Reducing y modulo 1 first makes the zeros exact whenever the
# product n * x is exactly representable (e.g. dyadic sensor positions).
# ---------------------------------------------------------------------------

def sin_pi(y):
    """sin(pi * y) with exact zeros at integer y."""
    y = np.asarray(y, dtype=float)
    k = np.round(y)
    r = y - k
    sign = 1.0 - 2.0 * (np.asarray(k, dtype=np.int64) & 1)
    out = sign * np.sin(np.pi * r)
    return out if out.ndim else float(out)


def cos_pi(y):
    """cos(pi * y), exact at integer and half-integer y via the sine shift."""
    y = np.asarray(y, dtype=float)
    return sin_pi(y + 0.5)


# ---------------------------------------------------------------------------
# Parameter records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhysicalBeam:
    """Physical constants of the beam-patch assembly (SI units).

    length        : beam length L [m]
    half_height   : half the beam height h [m]
    width         : beam width b [m]
    density       : mass density rho [kg/m^3]
    elastic_modulus : Young's modulus E [Pa]
    inertia_moment  : area moment of inertia I [m^4]
    damping       : structural damping coefficient c_D (>= 0)
    piezo_constant: piezoelectric coupling gamma
    patch_height  : patch thickness h1 [m]
    """

    length: float
    half_height: float
    width: float
    density: float
    elastic_modulus: float
    inertia_moment: float
    damping: float
    piezo_constant: float
    patch_height: float

    def __post_init__(self):
        positive = {
            "length": self.length,
            "half_height": self.half_height,
            "width": self.width,
            "density": self.density,
            "elastic_modulus": self.elastic_modulus,
            "inertia_moment": self.inertia_moment,
            "piezo_constant": self.piezo_constant,
            "patch_height": self.patch_height,
        }
        for name, value in positive.items():
            if not value > 0.0:
                raise ValueError(f"PhysicalBeam.{name} must be > 0, got {value}")
        if self.damping < 0.0:
            raise ValueError(f"PhysicalBeam.damping must be >= 0, got {self.damping}")


@dataclass(frozen=True)
class BeamParams:
    """Dimensionless coefficients of the reduced beam equation.

    a1     : damping coefficient (>= 0); a1 < 2 means every mode is underdamped
    a2     : force scale multiplying the distributed load
    alpha1 : time scale of the nondimensionalization
    alpha4 : displacement scale of the nondimensionalization
    """

    a1: float
    a2: float
    alpha1: float = 1.0
    alpha4: float = 1.0

    def __post_init__(self):
        if self.a1 < 0.0:
            raise ValueError(f"BeamParams.a1 must be >= 0, got {self.a1}")
        for name in ("a2", "alpha1", "alpha4"):
            if not getattr(self, name) > 0.0:
                raise ValueError(
                    f"BeamParams.{name} must be > 0, got {getattr(self, name)}"
                )

    @classmethod
    def dimensionless(cls, a1=0.01, a2=1.0):
        """Directly dimensionless parameters (time/length scales set to 1)."""
        return cls(a1=a1, a2=a2, alpha1=1.0, alpha4=1.0)


def nondimensionalize(phys):
    """Map physical beam constants to the dimensionless coefficients.

    With E, I, rho, h, b, L, c_D, gamma from ``phys``:

        a1      = c_D / sqrt(E I rho h b)
        alpha1  = sqrt(rho L^4 h b / (E I))
        alpha4  = gamma L^4 h b / (2 E I)
        a2      = alpha1^2 / (alpha4 rho)
    """
    E = phys.elastic_modulus
    I = phys.inertia_moment
    rho = phys.density
    h = phys.half_height
    b = phys.width
    L = phys.length

    a1 = phys.damping / math.sqrt(E * I * rho * h * b)
    alpha1 = math.sqrt(rho * L**4 * h * b / (E * I))
    alpha4 = phys.piezo_constant * L**4 * h * b / (2.0 * E * I)
    a2 = alpha1**2 / (alpha4 * rho)
    return BeamParams(a1=a1, a2=a2, alpha1=alpha1, alpha4=alpha4)
