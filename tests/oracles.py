"""Closed-form references that several test modules compare the package to.

Each is the textbook formula, written apart from the code it checks: the
mode shapes and their slope (for ``modal.actuator_gain``), the damped beam
operator's eigenvalue pair per mode (for ``modal.mode_roots``, the
assembled spectrum and acceptance criterion 1), and the static modal gain
(for the steady response to a constant force).
"""

import math

from piezobeam.beam import SQRT2, cos_pi, sin_pi


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
