import math

import numpy as np
import pytest

from oracles import (
    continuous_eigenvalues,
    dissipation,
    modal_energy,
    mode_shape_derivative,
    static_gain,
)
from piezobeam.beam import BeamParams
from piezobeam.modal import (
    DampingModel,
    Placement,
    actuator_gain,
    assemble,
    mode_roots,
    oscillator_matrix,
    residual_block,
)

PARAMS = BeamParams.dimensionless(a1=0.01)
PATCH = Placement(x1=0.0, x2=0.1, x0=0.095)


# ---------------------------------------------------------------------------
# Placement invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(x1=0.2, x2=0.1, x0=0.5),            # reversed patch
    dict(x1=0.0, x2=0.1, x0=0.0),            # sensor on boundary
    dict(x1=0.0, x2=0.1, x0=1.0),
    dict(x1=-0.1, x2=0.5, x0=0.5),
    dict(x1=0.0, x2=0.1, x0=0.5, s1=0.0, s2=0.0),
    dict(x1=0.0, x2=0.1, x0=0.5, s1=5e-324, s2=-1e-310),   # subnormal
])
def test_placement_validation(kwargs):
    with pytest.raises(ValueError):
        Placement(**kwargs)


# ---------------------------------------------------------------------------
# actuator gain
# ---------------------------------------------------------------------------

def test_actuator_gain_full_span_mode2_is_zero():
    # cos(2 pi) - cos(0) = 0, and exactly so
    assert actuator_gain(2, Placement(0.0, 1.0, 0.5)) == 0.0


def test_actuator_gain_small_patch_value():
    got = actuator_gain(1, PATCH)
    assert got == pytest.approx(-0.21745016868629438, rel=1e-14)


def test_actuator_gain_degenerate_patch():
    assert abs(actuator_gain(1, Placement(0.0, 1e-8, 0.5))) < 1e-14


def test_actuator_gain_matches_mode_shape_derivative():
    for n in (1, 2, 4):
        expect = (mode_shape_derivative(n, PATCH.x2)
                  - mode_shape_derivative(n, PATCH.x1))
        assert actuator_gain(n, PATCH) == pytest.approx(expect, rel=1e-14)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_assemble_single_mode_matrix():
    system = assemble(PARAMS, 1, PATCH)
    expect = np.array([
        [0.0, 1.0],
        [-math.pi**4, -0.01 * math.pi**2],
    ])
    np.testing.assert_allclose(system.A, expect, rtol=1e-15)


def test_assemble_block_structure():
    N = 4
    system = assemble(PARAMS, N, PATCH)
    np.testing.assert_array_equal(system.A[:N, :N], np.zeros((N, N)))
    np.testing.assert_array_equal(system.A[:N, N:], np.eye(N))
    s2 = (np.arange(1, N + 1) * math.pi) ** 2
    np.testing.assert_allclose(np.diag(system.A[N:, :N]), -s2**2, rtol=1e-15)
    np.testing.assert_allclose(np.diag(system.A[N:, N:]), -0.01 * s2,
                               rtol=1e-15)
    assert np.all(system.B[:N] == 0.0)
    # one array expression, bit for bit the scalar gains
    np.testing.assert_array_equal(
        system.B[N:], [actuator_gain(n, PATCH) for n in range(1, N + 1)])


def test_assemble_sensor_row_midpoint():
    system = assemble(PARAMS, 2, Placement(0.0, 0.1, 0.5, s1=0.0, s2=1.0))
    # psi_2(0.5) = 0 exactly
    np.testing.assert_array_equal(
        system.C, [0.0, 0.0, math.sqrt(2.0), 0.0])


def test_assemble_sensor_row_x0_06():
    system = assemble(PARAMS, 3, Placement(0.0, 0.1, 0.6, s1=0.0, s2=1.0))
    expect = [1.3449970239279148, -0.8312538755549068, -0.8312538755549073]
    np.testing.assert_array_equal(system.C[:3], np.zeros(3))
    np.testing.assert_allclose(system.C[3:], expect, rtol=1e-13)


def test_assemble_position_weight():
    system = assemble(PARAMS, 2, Placement(0.0, 0.1, 0.3, s1=2.0, s2=0.5))
    psi = [math.sqrt(2) * math.sin(n * math.pi * 0.3) for n in (1, 2)]
    np.testing.assert_allclose(system.C, [2.0 * psi[0], 2.0 * psi[1],
                                          0.5 * psi[0], 0.5 * psi[1]],
                               rtol=1e-13)


def test_assemble_invalid_mode_count():
    with pytest.raises(ValueError):
        assemble(PARAMS, 0, PATCH)


def test_kelvin_voigt_damping_diagonal():
    system = assemble(PARAMS, 2, PATCH, DampingModel.KELVIN_VOIGT)
    s2 = (np.arange(1, 3) * math.pi) ** 2
    np.testing.assert_allclose(np.diag(system.A[2:, 2:]), -0.01 * s2**2,
                               rtol=1e-15)


# ---------------------------------------------------------------------------
# spectrum consistency with the continuous closed form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a1", [0.01, 0.5, 3.0])
@pytest.mark.parametrize("N", [1, 3, 5])
def test_spectrum_matches_closed_form(a1, N):
    params = BeamParams(a1=a1, a2=1.0)
    system = assemble(params, N, PATCH)
    got = np.sort_complex(np.linalg.eigvals(system.A))
    want = []
    for n in range(1, N + 1):
        want.extend(continuous_eigenvalues(params, n))
    want = np.sort_complex(np.array(want))
    np.testing.assert_allclose(got, want, rtol=1e-8)


def test_zero_gain_rows_exact_at_dyadic_nodes():
    # x0 = k/n with n * x0 exactly representable -> exact zero entries
    for x0, n in ((0.5, 2), (0.25, 4), (0.75, 4), (0.5, 4)):
        system = assemble(PARAMS, n, Placement(0.0, 0.1, x0))
        assert system.C[n - 1] == 0.0
        assert system.C[2 * n - 1] == 0.0


# ---------------------------------------------------------------------------
# per-mode oscillator roots
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a1", [0.0, 0.01, 2.0, 3.0])
def test_mode_roots_match_continuous_eigenvalues(a1):
    # structural damping: the roots are the beam operator's, in the same
    # (+ sqrt, - sqrt) order; a1 = 2 is the critical double root
    params = BeamParams.dimensionless(a1=a1)
    modes = np.arange(1, 121)
    slow, fast = mode_roots(params, modes)
    for n, s, f in zip(modes, slow, fast):
        plus, minus = continuous_eigenvalues(params, int(n))
        assert abs(s - plus) <= 1e-14 * abs(plus)
        assert abs(f - minus) <= 1e-14 * abs(minus)


@pytest.mark.parametrize("model", list(DampingModel))
@pytest.mark.parametrize("a1", [0.0, 0.01, 0.5, 2.5])
def test_mode_roots_are_the_oscillator_spectrum(model, a1):
    # eigvals is backward stable: each eigenvalue is within a few eps times
    # ||A|| (critical damping is defective, sqrt(eps)-sensitive: left out)
    params = BeamParams.dimensionless(a1=a1)
    modes = np.arange(1, 31)
    A = oscillator_matrix(params, modes, model)
    want = np.sort_complex(np.linalg.eigvals(A))
    got = np.sort_complex(np.concatenate(mode_roots(params, modes, model)))
    tol = 8.0 * np.finfo(float).eps * np.linalg.norm(A, 2)
    assert np.max(np.abs(got - want)) <= tol


def test_oscillator_matrix_is_the_assembled_plant():
    for model in DampingModel:
        system = assemble(PARAMS, 4, PATCH, model)
        assert np.array_equal(oscillator_matrix(PARAMS, system.modes, model),
                              system.A)


# ---------------------------------------------------------------------------
# residual block
# ---------------------------------------------------------------------------

def test_residual_block_empty():
    block = residual_block(PARAMS, PATCH, N=3, R=0)
    assert block.R == 0
    assert block.modes.size == 0
    assert block.A.shape == (0, 0)


def test_residual_block_mode_four():
    # A = [[0, 1], [-sigma_4^4, -d_4]], B = [0, b_4]
    block = residual_block(PARAMS, PATCH, N=3, R=1)
    assert block.modes.tolist() == [4]
    assert block.A[0].tolist() == [0.0, 1.0]
    assert -block.A[1, 0] == pytest.approx(256 * math.pi**4, rel=1e-14)
    assert -block.A[1, 1] == pytest.approx(0.16 * math.pi**2, rel=1e-14)
    assert block.B[0] == 0.0
    assert block.B[1] == pytest.approx(actuator_gain(4, PATCH), rel=1e-14)


def test_residual_block_kelvin_voigt():
    block = residual_block(PARAMS, PATCH, N=3, R=1, damping_model=DampingModel.KELVIN_VOIGT)
    assert -block.A[1, 1] == pytest.approx(0.01 * 256 * math.pi**4, rel=1e-14)


def test_residual_block_rejects_negative_R():
    with pytest.raises(ValueError):
        residual_block(PARAMS, PATCH, N=3, R=-1)


# ---------------------------------------------------------------------------
# static gain
# ---------------------------------------------------------------------------

def test_static_gain_values():
    assert static_gain(PARAMS, 1) == pytest.approx(0.010265982254684338,
                                                   rel=1e-14)
    assert static_gain(PARAMS, 2) == pytest.approx(1.0 / (16 * math.pi**4),
                                                   rel=1e-14)
    zero_force = BeamParams(a1=0.01, a2=1e-300)
    assert static_gain(zero_force, 3) == pytest.approx(0.0, abs=1e-290)
    # the oscillator's equilibrium under a constant force a2
    for n in (1, 2):
        A = oscillator_matrix(PARAMS, [n])
        w = -np.linalg.solve(A, [0.0, PARAMS.a2])[0]
        assert w == pytest.approx(static_gain(PARAMS, n), rel=1e-14)


def test_modal_energy_and_dissipation_helpers():
    system = assemble(PARAMS, 2, PATCH)
    z = np.array([1.0, 0.0, 2.0, 3.0])
    s2 = (np.arange(1, 3) * math.pi) ** 2
    expect_E = 0.5 * (2.0**2 + 3.0**2 + s2[0] ** 2 * 1.0)
    assert modal_energy(system, z) == pytest.approx(expect_E, rel=1e-14)
    expect_D = 0.01 * (s2[0] * 4.0 + s2[1] * 9.0)
    assert dissipation(system, z) == pytest.approx(expect_D, rel=1e-14)
