import math

import numpy as np
import pytest
from scipy.integrate import simpson

from oracles import mode_shape, mode_shape_derivative
from piezobeam.beam import (
    BeamParams,
    PhysicalBeam,
    cos_pi,
    nondimensionalize,
    sin_pi,
)
from piezobeam.modal import (
    Placement,
    mode_roots,
    residual_block,
    resonant_frequencies,
)

SQRT2 = math.sqrt(2.0)


def make_phys(**overrides):
    fields = dict(
        length=1.0, half_height=1.0, width=1.0, density=1.0,
        elastic_modulus=1.0, inertia_moment=1.0, damping=0.01,
        piezo_constant=2.0, patch_height=0.1,
    )
    fields.update(overrides)
    return PhysicalBeam(**fields)


# ---------------------------------------------------------------------------
# sin_pi / cos_pi
# ---------------------------------------------------------------------------

def test_sin_pi_exact_zeros_and_values():
    assert sin_pi(0.0) == 0.0
    assert sin_pi(1.0) == 0.0
    assert sin_pi(2.0) == 0.0
    assert sin_pi(-3.0) == 0.0
    assert sin_pi(0.5) == 1.0
    assert sin_pi(1.5) == -1.0
    for y in np.linspace(-3, 3, 101):
        assert sin_pi(y) == pytest.approx(math.sin(math.pi * y), abs=1e-15)
        assert cos_pi(y) == pytest.approx(math.cos(math.pi * y), abs=1e-15)


def test_cos_pi_exact_at_integers():
    assert cos_pi(0.0) == 1.0
    assert cos_pi(1.0) == -1.0
    assert cos_pi(2.0) == 1.0


# ---------------------------------------------------------------------------
# nondimensionalize
# ---------------------------------------------------------------------------

def test_zero_damping_gives_zero_a1():
    assert nondimensionalize(make_phys(damping=0.0)).a1 == 0.0


def test_a1_direct_substitution():
    # E = I = rho = h = b = 1, c_D = 0.01 -> a1 = 0.01 / sqrt(1) = 0.01
    assert nondimensionalize(make_phys()).a1 == pytest.approx(0.01, rel=1e-15)


def test_unit_scales():
    # L = 1, E = I = h = b = rho = 1, gamma = 2
    p = nondimensionalize(make_phys())
    assert p.alpha1 == pytest.approx(1.0, rel=1e-15)
    assert p.alpha4 == pytest.approx(1.0, rel=1e-15)
    assert p.a2 == pytest.approx(1.0, rel=1e-15)


def test_nondimensionalize_formulas_general():
    phys = make_phys(length=2.0, density=3.0, elastic_modulus=5.0,
                     inertia_moment=0.7, half_height=0.4, width=0.9,
                     damping=0.02, piezo_constant=1.3)
    p = nondimensionalize(phys)
    E, I, rho, h, b, L = 5.0, 0.7, 3.0, 0.4, 0.9, 2.0
    assert p.a1 == pytest.approx(0.02 / math.sqrt(E * I * rho * h * b), rel=1e-14)
    assert p.alpha1**2 == pytest.approx(rho * L**4 * h * b / (E * I), rel=1e-14)
    assert p.alpha4 == pytest.approx(1.3 * L**4 * h * b / (2 * E * I), rel=1e-14)
    assert p.a2 == pytest.approx(p.alpha1**2 / (p.alpha4 * rho), rel=1e-14)


@pytest.mark.parametrize("bad", [
    dict(length=0.0), dict(density=-1.0), dict(elastic_modulus=0.0),
    dict(damping=-0.1), dict(width=-2.0),
])
def test_invalid_physical_parameters(bad):
    with pytest.raises(ValueError):
        make_phys(**bad)


def test_beam_params_validation():
    with pytest.raises(ValueError):
        BeamParams(a1=-0.1, a2=1.0)
    with pytest.raises(ValueError):
        BeamParams(a1=0.0, a2=0.0)


# ---------------------------------------------------------------------------
# mode shapes (the references in tests/oracles.py)
# ---------------------------------------------------------------------------

def test_mode_shape_values():
    assert mode_shape(1, 0.5) == pytest.approx(SQRT2, rel=1e-15)
    assert mode_shape(2, 0.5) == 0.0
    assert mode_shape(1, 0.6) == pytest.approx(1.3449970239279148, rel=1e-14)


def test_mode_shape_derivative_values():
    assert mode_shape_derivative(1, 0.0) == pytest.approx(SQRT2 * math.pi,
                                                          rel=1e-15)
    assert mode_shape_derivative(1, 0.5) == 0.0
    assert mode_shape_derivative(2, 0.25) == 0.0


def test_mode_shape_derivative_matches_finite_difference():
    h = 1e-6
    for n in (1, 2, 5):
        for x in (0.13, 0.4, 0.77):
            fd = (mode_shape(n, x + h) - mode_shape(n, x - h)) / (2 * h)
            assert mode_shape_derivative(n, x) == pytest.approx(fd, rel=1e-8)


def test_orthonormality_by_simpson_quadrature():
    # composite quadrature with >= 10 n^2 points, tolerance 1e-10
    for m in range(1, 11):
        for n in range(m, 11):
            npts = 10 * n * n + 1
            if npts % 2 == 0:
                npts += 1
            x = np.linspace(0.0, 1.0, npts)
            integrand = mode_shape(m, x) * mode_shape(n, x)
            val = simpson(integrand, x=x)
            expect = 1.0 if m == n else 0.0
            assert abs(val - expect) < 1e-10, (m, n, val)


# ---------------------------------------------------------------------------
# eigenvalues of the damped beam operator: modal.mode_roots under
# structural damping, (slow, fast) = (+ sqrt, - sqrt) root
# ---------------------------------------------------------------------------

def beam_roots(params, n):
    slow, fast = mode_roots(params, [n])
    return complex(slow[0]), complex(fast[0])


def test_undamped_eigenvalues():
    lam_p, lam_m = beam_roots(BeamParams(a1=0.0, a2=1.0), 1)
    assert lam_p == pytest.approx(1j * math.pi**2, abs=1e-12)
    assert lam_m == pytest.approx(-1j * math.pi**2, abs=1e-12)


def test_lightly_damped_eigenvalues():
    # roots of lambda^2 + 0.01 pi^2 lambda + pi^4 = 0, via np.roots oracle
    expect = np.roots([1.0, 0.01 * math.pi**2, math.pi**4])
    lam_p, lam_m = beam_roots(BeamParams(a1=0.01, a2=1.0), 1)
    got = sorted([lam_p, lam_m], key=lambda z: z.imag)
    want = sorted(expect, key=lambda z: z.imag)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12)
    assert lam_p.real == pytest.approx(-0.04934802, abs=1e-7)
    assert abs(lam_p.imag) == pytest.approx(9.86948103, abs=1e-7)


def test_overdamped_eigenvalues():
    lam_p, lam_m = beam_roots(BeamParams(a1=3.0, a2=1.0), 1)
    assert lam_p.imag == 0.0 and lam_m.imag == 0.0
    assert lam_p.real < 0.0 and lam_m.real < 0.0
    s4 = math.pi**4
    assert (lam_p * lam_m).real == pytest.approx(s4, rel=1e-12)
    assert lam_p.real == pytest.approx(math.pi**2 * (-3 + math.sqrt(5)) / 2,
                                       rel=1e-12)


def test_critical_damping_double_root():
    lam_p, lam_m = beam_roots(BeamParams(a1=2.0, a2=1.0), 2)
    assert lam_p == lam_m == pytest.approx(-(2 * math.pi) ** 2, rel=1e-14)


@pytest.mark.parametrize("a1", [0.0, 0.01, 0.5, 1.9, 2.0, 2.1, 3.0])
@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_root_property(a1, n):
    params = BeamParams(a1=a1, a2=1.0)
    s2 = (n * math.pi) ** 2
    for lam in beam_roots(params, n):
        residual = lam**2 + a1 * s2 * lam + s2**2
        assert abs(residual) <= 1e-9 * s2**2


@pytest.mark.parametrize("a1", [0.01, 0.5, 1.99, 2.5, 3.0])
def test_stability_for_positive_damping(a1):
    params = BeamParams(a1=a1, a2=1.0)
    for n in range(1, 8):
        for lam in beam_roots(params, n):
            assert lam.real < 0.0


def test_underdamped_real_part_exact():
    for a1 in (0.01, 0.5, 1.5):
        params = BeamParams(a1=a1, a2=1.0)
        for n in (1, 3, 6):
            lam_p, lam_m = beam_roots(params, n)
            expect = -a1 * (n * math.pi) ** 2 / 2.0
            assert lam_p.real == expect
            assert lam_m.real == expect


def test_damped_frequency():
    params = BeamParams(a1=0.01, a2=1.0)
    assert resonant_frequencies(params, [1])[0] == pytest.approx(
        math.pi**2 * math.sqrt(4 - 0.01**2) / 2, rel=1e-14)


# ---------------------------------------------------------------------------
# reconstruction: a displacement sensor at x reads sum_n w_n psi_n(x)
# ---------------------------------------------------------------------------

def reconstruct_displacement(coeffs, x):
    """The sensor row of modes 1..N at x (s1 = 1, s2 = 0) applied to w_n."""
    N = max((n for n, _ in coeffs), default=0)
    block = residual_block(BeamParams(a1=0.01, a2=1.0),
                           Placement(0.0, 0.1, x, s1=1.0, s2=0.0), 0, N)
    z = np.zeros(2 * N)
    for n, w_n in coeffs:
        z[n - 1] = w_n
    return block.C @ z


def test_reconstruct_empty_sum():
    assert reconstruct_displacement([], 0.3) == 0.0


def test_reconstruct_single_mode():
    assert reconstruct_displacement([(1, 1.0)], 0.5) == pytest.approx(
        SQRT2, rel=1e-15)


def test_reconstruct_two_modes():
    got = reconstruct_displacement([(1, 1.0), (2, 1.0)], 0.25)
    assert got == pytest.approx(2.414213562373095, rel=1e-14)
