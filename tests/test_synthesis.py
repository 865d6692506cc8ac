import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from piezobeam.beam import SQRT2, BeamParams, cos_pi
from piezobeam.errors import (
    InternalConsistencyError,
    NoFeasibleGainError,
    SingularControllabilityError,
    UnstableMatrixError,
)
from piezobeam import synthesis
from piezobeam.config import KEYS, resolve_config
from piezobeam.modal import (
    DampingModel,
    Placement,
    assemble,
    resonant_frequencies,
)
from piezobeam.signals import NoiseSpec, build_disturbance
from piezobeam.simulate import CoupledDynamics, SimConfig
from piezobeam.synthesis import (
    GainSet,
    _check_conjugate_symmetric,
    check_placement,
    decay_rate,
    eigvec_condition,
    hurwitz_spectrum,
    place_observer_poles,
    place_poles,
    radial_pole_targets,
    tune_gains,
)

from oracles import placement_residual

PARAMS = BeamParams.dimensionless(a1=0.01)
PATCH = Placement(x1=0.0, x2=0.1, x0=0.095)


def sorted_eigs(M):
    return np.sort_complex(np.linalg.eigvals(M))


def rel_spectrum_error(got, want):
    got, want = np.sort_complex(got), np.sort_complex(want)
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))


# ---------------------------------------------------------------------------
# placement verdicts
# ---------------------------------------------------------------------------

def test_midpoint_sensor_unobservable():
    system = assemble(PARAMS, 3, Placement(0.0, 0.1, 0.5))
    verdict = check_placement(system)
    assert not verdict.observable
    assert verdict.controllable
    assert verdict.offending_modes == [2]
    assert "mode 2" in verdict.closed_form_reason


def test_irrational_sensor_observable():
    system = assemble(PARAMS, 5, Placement(0.0, 0.1, 1.0 / math.pi))
    verdict = check_placement(system)
    assert verdict.observable
    assert verdict.offending_modes == []


def test_full_span_patch_uncontrollable():
    system = assemble(PARAMS, 2, Placement(0.0, 1.0, 0.3))
    verdict = check_placement(system)
    assert verdict.observable
    assert not verdict.controllable
    assert verdict.offending_modes == [2]
    # independent oracle: rank of the controllability matrix
    n = 4
    ctrb = np.column_stack([
        np.linalg.matrix_power(system.A, j) @ system.B for j in range(n)
    ])
    assert np.linalg.matrix_rank(ctrb) < n


def test_controllability_matrix_full_rank_for_good_patch():
    system = assemble(PARAMS, 2, PATCH)
    n = 4
    ctrb = np.column_stack([
        np.linalg.matrix_power(system.A, j) @ system.B for j in range(n)
    ])
    assert np.linalg.matrix_rank(ctrb) == n
    assert check_placement(system).ok


def test_tiny_patch_flagged_but_consistent():
    system = assemble(PARAMS, 3, Placement(0.0, 1e-8, 0.6))
    verdict = check_placement(system)
    assert not verdict.controllable   # gains below the zero tolerance
    assert verdict.observable


def test_verdict_agreement_on_grid():
    # closed-form and block oracle agree away from rational sensor points
    for x0 in (np.arange(40) + 0.5) / 40.0:
        system = assemble(PARAMS, 3, Placement(0.0, 0.1, float(x0)))
        check_placement(system)   # raises InternalConsistencyError on split


def _tampered(system):
    """One-fault copies of ``system`` that the block oracle must catch."""
    N = system.N
    no_sensor = system.C.copy()
    no_sensor[[1, N + 1]] = 0.0                 # mode 2 sensor entries
    no_gain = system.B.copy()
    no_gain[N + 1] = 0.0                        # mode 2 patch gain
    coupled = system.A.copy()
    coupled[N, N + 1] = 1e-3                    # damping couples modes 1, 2
    pl = system.placement
    psi = SQRT2 * cos_pi(system.modes * pl.x0)  # cos in place of sin
    cosine = np.concatenate([pl.s1 * psi, pl.s2 * psi])
    return {
        "sensor entries zeroed": dataclasses.replace(system, C=no_sensor),
        "patch gain zeroed": dataclasses.replace(system, B=no_gain),
        "off-block entry in A": dataclasses.replace(system, A=coupled),
        "cos for sin in C": dataclasses.replace(system, C=cosine),
    }


@pytest.mark.parametrize("fault", ["sensor entries zeroed",
                                   "patch gain zeroed",
                                   "off-block entry in A",
                                   "cos for sin in C"])
def test_block_oracle_catches_a_tampered_system(fault):
    # x0 = 1/4: cos(2 pi x0) = 0 while sin(2 pi x0) = 1, so mode 2 shows
    # the cosine fault; the untouched system passes
    system = assemble(PARAMS, 3, Placement(0.0, 0.1, 0.25, s1=0.5, s2=1.0))
    assert check_placement(system).ok
    with pytest.raises(InternalConsistencyError):
        check_placement(_tampered(system)[fault])


@st.composite
def near_node_placements(draw):
    """Admissible systems with the sensor 1e-12..1e-4 off a node."""
    N = draw(st.integers(1, 60))
    n = draw(st.integers(2, N + 1))
    k = draw(st.integers(1, n - 1))
    offset = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(
        st.floats(-12.0, -4.0))
    x1 = draw(st.floats(0.0, 0.9))
    x2 = draw(st.floats(x1 + 1e-6, 1.0))
    weight = st.floats(-1e6, 1e6).filter(lambda s: s != 0.0)
    try:
        placement = Placement(x1, x2, k / n + offset, draw(weight),
                              draw(weight))
    except ValueError:          # both weights subnormal: not admissible
        assume(False)
    params = BeamParams.dimensionless(a1=draw(st.floats(0.0, 1e3)))
    return assemble(params, N, placement,
                    draw(st.sampled_from(list(DampingModel))))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(near_node_placements())
def test_block_oracle_never_splits_on_admissible_placements(system):
    check_placement(system)     # raises InternalConsistencyError on a split


# ---------------------------------------------------------------------------
# pole placement
# ---------------------------------------------------------------------------

def test_identity_placement_keeps_zero_gain():
    system = assemble(PARAMS, 2, PATCH)
    targets = np.linalg.eigvals(system.A)
    K = place_poles(system.A, system.B, targets)
    assert np.linalg.norm(K) <= 1e-8 * np.linalg.norm(system.A)


def test_single_mode_placement_example():
    # targets -2 +/- 2i: match char poly s^2 + 4 s + 8 coefficient-wise
    system = assemble(PARAMS, 1, PATCH)
    b = system.B[1]
    expect = np.array([(8.0 - math.pi**4) / b,
                       (4.0 - 0.01 * math.pi**2) / b])
    K = place_poles(system.A, system.B, [-2 + 2j, -2 - 2j])
    np.testing.assert_allclose(K, expect, rtol=1e-9)
    assert K == pytest.approx([411.17, -17.94], rel=1e-3)
    got = sorted_eigs(system.A - np.outer(system.B, K))
    np.testing.assert_allclose(got, [-2 - 2j, -2 + 2j], rtol=1e-10)


def test_two_mode_placement_recomputation():
    system = assemble(PARAMS, 2, PATCH)
    targets = np.array([-1 + 1j, -1 - 1j, -2 + 2j, -2 - 2j])
    K = place_poles(system.A, system.B, targets)
    assert rel_spectrum_error(
        np.linalg.eigvals(system.A - np.outer(system.B, K)), targets) < 1e-8


def test_placement_rejects_asymmetric_targets():
    system = assemble(PARAMS, 1, PATCH)
    with pytest.raises(ValueError):
        place_poles(system.A, system.B, [-1 + 1j, -2 - 2j])
    with pytest.raises(ValueError):
        place_poles(system.A, system.B, [-1 + 1j])


def test_placement_rejects_uncontrollable_pair():
    system = assemble(PARAMS, 2, Placement(0.0, 1.0, 0.3))  # mode 2 dead
    with pytest.raises(SingularControllabilityError,
                       match=r"^uncontrollable mode\(s\) 2$"):
        place_poles(system.A, system.B,
                    [-1 + 1j, -1 - 1j, -2 + 2j, -2 - 2j])


def test_overflowing_gain_is_refused_naming_N():
    # paired ratios keep N = 60 finite; targets near 1e200 still overflow
    system = assemble(PARAMS, 3, PATCH)
    targets = radial_pole_targets(system.A, 1.0) * 1e200
    with pytest.raises(SingularControllabilityError,
                       match="non-finite gain at N = 3"):
        place_poles(system.A, system.B, targets)


def _conjugate_symmetric_reference(targets, n):
    """The interpreted check (rounded keys, Python sorts) that
    ``_check_conjugate_symmetric`` vectorizes."""
    targets = np.atleast_1d(np.asarray(targets, dtype=complex))
    if targets.shape != (n,):
        raise ValueError(f"expected {n} target poles, got {targets.shape}")
    key = lambda z: (round(z.real, 9), round(abs(z.imag), 9))
    plus = sorted((z for z in targets if z.imag > 1e-9), key=key)
    minus = sorted((z for z in targets if z.imag < -1e-9), key=key)
    scale = max(1.0, float(np.max(np.abs(targets))))
    if len(plus) != len(minus) or any(
        abs(p - q.conjugate()) > 1e-9 * scale for p, q in zip(plus, minus)
    ):
        raise ValueError("target poles must be closed under conjugation")
    return targets


def _accepts(check, targets):
    try:
        check(targets, np.shape(targets)[-1])
    except ValueError:
        return False
    return True


parts = st.floats(-1e4, 1e4)
nudges = st.sampled_from([0.0, 0.0, 1e-12, -1e-12, 1e-9, 5e-10, 1e-6, 1.0])


@st.composite
def target_sets(draw):
    """Conjugate-closed sets, with repeats, reals and small nudges."""
    upper = draw(st.lists(st.tuples(parts, parts), min_size=0, max_size=8))
    upper += [upper[0]] * draw(st.integers(0, 2)) if upper else []
    reals = draw(st.lists(parts, max_size=3))
    pts = [complex(re, im) for re, im in upper]
    targets = pts + [p.conjugate() for p in pts] + [complex(r) for r in reals]
    if not targets:
        targets = [complex(-1.0)]
    targets = [complex(z.real + draw(nudges), z.imag + draw(nudges))
               for z in targets]
    return draw(st.permutations(targets))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(target_sets())
def test_conjugate_check_matches_the_interpreted_reference(targets):
    accepted = _accepts(_conjugate_symmetric_reference, targets)
    assert _accepts(_check_conjugate_symmetric, targets) == accepted
    # as one row of a batch whose other rows are real, hence closed
    real = np.full(len(targets), -1.0 + 0j)
    batch = np.stack([real, targets, real])
    assert _accepts(_check_conjugate_symmetric, batch) == accepted


def test_double_root_places():
    # double integrator: the modal plant sigma^4 = d = 0, one double root 0
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([0.0, 1.0])
    K = place_poles(A, B, [-1 + 1j, -1 - 1j])
    got = sorted_eigs(A - np.outer(B, K))
    np.testing.assert_allclose(got, [-1 - 1j, -1 + 1j], rtol=1e-10)
    # a critically damped beam (a1 = 2): every mode has a double root
    system = assemble(BeamParams.dimensionless(a1=2.0), 5, PATCH)
    targets = radial_pole_targets(system.A, 6.0)
    K = place_poles(system.A, system.B, targets)
    L = place_observer_poles(system.A, system.C, targets)
    assert placement_residual(system.A, K, system.B, targets) < 1e-14
    assert placement_residual(system.A, system.C, L, targets) < 1e-14


def test_placement_refuses_a_non_modal_plant():
    system = assemble(PARAMS, 2, PATCH)
    coupled = system.A.copy()
    coupled[2, 1] = 1.0                 # w_1'' feels w_2
    targets = radial_pole_targets(system.A, 6.0)
    for A in (system.A.T, coupled, system.A[:3, :3], system.A[0]):
        with pytest.raises(ValueError, match="expected a modal plant"):
            place_poles(A, system.B, targets)
        with pytest.raises(ValueError, match="expected a modal plant"):
            place_observer_poles(A, system.C, targets)


GRID = np.array([6.0, 10.0, 14.0, 18.0, 24.0, 30.0])


def _batch_cases():
    """(placement, A, input or output vector, (G, n) targets) of one plant
    each."""
    system = assemble(PARAMS, 4, PATCH)
    targets = radial_pole_targets(system.A, GRID)
    double = np.array([[0.0, 1.0], [0.0, 0.0]])
    return [
        pytest.param(place_poles, system.A, system.B, targets,
                     id="controller"),
        pytest.param(place_observer_poles, system.A, system.C, targets,
                     id="observer"),
        pytest.param(place_poles, double, np.array([0.0, 1.0]),
                     np.array([[-1 + 1j, -1 - 1j], [-2.0, -3.0],
                               [-4 + 0.5j, -4 - 0.5j]]), id="double-root"),
    ]


@pytest.mark.parametrize("place, A, vec, targets", _batch_cases())
def test_batch_placement_equals_row_by_row(place, A, vec, targets):
    batch = place(A, vec, targets)
    assert batch.shape == targets.shape
    for gain, row in zip(batch, targets):
        one = place(A, vec, row)
        np.testing.assert_allclose(gain, one, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(one)))
        loop = (A - np.outer(gain, vec) if place is place_observer_poles
                else A - np.outer(vec, gain))
        assert rel_spectrum_error(np.linalg.eigvals(loop), row) < 1e-8


def test_batch_with_one_bad_row_is_refused():
    system = assemble(PARAMS, 2, PATCH)
    targets = radial_pole_targets(system.A, GRID)
    targets[3, 0] += 1j                 # row 3 is no longer conjugate-closed
    with pytest.raises(ValueError, match="closed under conjugation"):
        place_poles(system.A, system.B, targets)


def test_radial_targets_of_a_rate_array_stack_the_scalar_calls():
    system = assemble(PARAMS, 5, PATCH)
    np.testing.assert_array_equal(
        radial_pole_targets(system.A, GRID),
        np.stack([radial_pole_targets(system.A, lam) for lam in GRID]))
    assert radial_pole_targets(system.A, 6.0).shape == (10,)


def test_observer_duality():
    # S = [[d, 1], [1, 0]] per mode gives S A = A^T S, so eig(A - L C) =
    # eig(A - B K) for B = S^-1 C^T and K = L^T S: the observer is the
    # controller of that input, with L = S^-1 K^T
    system = assemble(PARAMS, 2, PATCH)
    N, d = system.N, -np.diag(system.A[2:, 2:])
    S_inv = np.block([[np.zeros((N, N)), np.eye(N)],
                      [np.eye(N), -np.diag(d)]])
    B = S_inv @ system.C
    targets = radial_pole_targets(system.A, 10.0)
    L = place_observer_poles(system.A, system.C, targets)
    np.testing.assert_allclose(L, S_inv @ place_poles(system.A, B, targets),
                               rtol=1e-12, atol=1e-12 * np.max(np.abs(L)))
    assert rel_spectrum_error(
        np.linalg.eigvals(system.A - np.outer(L, system.C)), targets) < 1e-8
    # a batch of target sets passes through as well
    batch = radial_pole_targets(system.A, GRID)
    np.testing.assert_allclose(
        place_observer_poles(system.A, system.C, batch),
        place_poles(system.A, B, batch) @ S_inv, rtol=1e-12,
        atol=1e-12 * np.max(np.abs(L)))


def test_observer_rate_34():
    system = assemble(PARAMS, 3, PATCH)
    L = place_observer_poles(system.A, system.C,
                             radial_pole_targets(system.A, 34.0))
    assert decay_rate(system.A - np.outer(L, system.C),
                      "A - LC") == pytest.approx(34.0, abs=1e-6)


def test_observer_rejects_unobservable_pair():
    system = assemble(PARAMS, 2, Placement(0.0, 0.1, 0.5))  # node of mode 2
    with pytest.raises(SingularControllabilityError,
                       match=r"^unobservable mode\(s\) 2$"):
        place_observer_poles(system.A, system.C,
                             radial_pole_targets(system.A, 5.0))


@st.composite
def placed_beams(draw):
    """Structural beams of 1..20 modes, a1 in [0, 1000] or exactly 2
    (critically damped), whose placement passes ``check_placement``."""
    a1 = draw(st.one_of(st.just(2.0), st.floats(0.0, 1e3)))
    x1 = draw(st.floats(0.0, 0.6))
    placement = Placement(x1=x1, x2=x1 + draw(st.floats(0.01, 0.4)),
                          x0=draw(st.floats(0.01, 0.99)),
                          s1=draw(st.sampled_from([0.0, 1.0, -2.0])))
    system = assemble(BeamParams.dimensionless(a1=a1),
                      draw(st.integers(1, 20)), placement)
    assume(check_placement(system).ok)
    return system


@settings(max_examples=150, derandomize=True, deadline=None)
@given(placed_beams())
def test_placed_gains_have_a_tiny_backward_residual(system):
    # every rate of the default grid, both sides
    targets = radial_pole_targets(system.A, KEYS["gains.lambda_grid"][1])
    K = place_poles(system.A, system.B, targets)
    L = place_observer_poles(system.A, system.C, targets)
    for k, l, row in zip(K, L, targets):
        assert placement_residual(system.A, k, system.B, row) <= 1e-12
        assert placement_residual(system.A, system.C, l, row) <= 1e-12


def test_radial_target_pattern():
    system = assemble(PARAMS, 3, PATCH)
    targets = radial_pole_targets(system.A, 12.0)
    assert len(targets) == 6
    assert min(abs(t.real) for t in targets) == pytest.approx(12.0, rel=1e-12)
    reals = sorted({round(t.real, 9) for t in targets}, reverse=True)
    np.testing.assert_allclose(reals, [-12.0, -16.0, -20.0], rtol=1e-9)
    ims = sorted(abs(t.imag) for t in targets)
    open_ims = sorted(np.abs(np.linalg.eigvals(system.A).imag))
    np.testing.assert_allclose(ims, open_ims, rtol=1e-9)


def test_radial_targets_keep_overdamped_modes_apart():
    # eigvals(A) has Im = 0 on an overdamped mode, so both of its targets
    # fell on one real double pole; they now sit at +/- i sigma^2, which
    # are the resonant frequencies (bit for bit) under either damping model
    params = BeamParams.dimensionless(a1=10.0)
    for model in DampingModel:
        system = assemble(params, 4, PATCH, model)
        targets = radial_pole_targets(system.A, 8.0)
        np.testing.assert_array_equal(
            targets[::2].imag,
            resonant_frequencies(params, system.modes, model))
        np.testing.assert_array_equal(targets[::2].imag,
                                      (system.modes * math.pi) ** 2)
        assert len(set(targets.tolist())) == 8


# ---------------------------------------------------------------------------
# decay rate
# ---------------------------------------------------------------------------

def test_decay_rate_diagonal():
    assert decay_rate(np.diag([-1.0, -3.0]), "D") == pytest.approx(
        1.0, rel=1e-12)


def test_decay_rate_rotation():
    M = np.array([[-2.0, 5.0], [-5.0, -2.0]])
    assert decay_rate(M, "M") == pytest.approx(2.0, rel=1e-12)


def test_unstable_spectrum_is_refused_by_name():
    with pytest.raises(UnstableMatrixError,
                       match=r"^A - LC has eigenvalue with Re = 0\.5 >= 0$"):
        hurwitz_spectrum(np.diag([-1.0, 0.5]), "A - LC")
    with pytest.raises(UnstableMatrixError, match="^A - BK has non-finite"):
        hurwitz_spectrum(np.diag([-1.0, np.nan]), "A - BK")


def test_decay_rate_rejects_unstable():
    with pytest.raises(UnstableMatrixError, match="^D has eigenvalue"):
        decay_rate(np.diag([-1.0, 0.5]), "D")
    with pytest.raises(UnstableMatrixError, match="^Z has eigenvalue"):
        decay_rate(np.zeros((2, 2)), "Z")


# ---------------------------------------------------------------------------
# separation principle
# ---------------------------------------------------------------------------

def test_separation_principle_spectrum():
    system = assemble(PARAMS, 3, PATCH)
    gains = tune_gains(system, 11 * math.sqrt(3), 0.01,
                       [6.0, 10.0, 14.0], lambda_L=34.0)
    dyn = CoupledDynamics(system, gains, build_disturbance([]),
                          NoiseSpec(bound=0.0), SimConfig(t_final=0.0))
    M = dyn.M[:12, :12]
    want = np.concatenate([
        np.linalg.eigvals(system.A - np.outer(system.B, gains.K)),
        np.linalg.eigvals(system.A - np.outer(gains.L, system.C)),
    ])
    assert rel_spectrum_error(np.linalg.eigvals(M), want) < 1e-7


# ---------------------------------------------------------------------------
# gain tuning
# ---------------------------------------------------------------------------

def test_tune_zero_noise_picks_largest_rate():
    system = assemble(PARAMS, 2, PATCH)
    gains = tune_gains(system, 10.0, 0.0, [5.0, 9.0, 13.0, 21.0])
    assert gains.lambda_L == pytest.approx(21.0, abs=1e-6)


def test_tune_bound_argmin_on_grid():
    system = assemble(PARAMS, 3, PATCH)
    F, eps = 11 * math.sqrt(3), 0.01
    grid = [10.0, 34.0, 64.0]
    gains = tune_gains(system, F, eps, grid)
    # recompute the bound for every grid point from scratch
    bounds = {}
    for lam in grid:
        L = place_observer_poles(system.A, system.C,
                                 radial_pole_targets(system.A, lam))
        bounds[lam] = (F + np.linalg.norm(L) * eps) / lam
    best = min(grid, key=lambda g: bounds[g])
    assert gains.lambda_L == pytest.approx(best, abs=1e-6)
    # returned gain reproduces its own bound
    got_bound = (F + gains.L_norm * eps) / gains.lambda_L
    assert got_bound == pytest.approx(bounds[best], rel=1e-9)


def test_tuned_controller_slower_than_observer():
    system = assemble(PARAMS, 3, PATCH)
    gains = tune_gains(system, 11 * math.sqrt(3), 0.01,
                       [6.0, 10.0, 14.0, 18.0, 24.0, 30.0], lambda_L=34.0)
    assert gains.lambda_K < gains.lambda_L
    assert gains.lambda_L == pytest.approx(34.0, abs=1e-6)
    assert gains.BK_norm == pytest.approx(
        np.linalg.norm(np.outer(system.B, gains.K)), rel=1e-12)


def test_tune_errors():
    system = assemble(PARAMS, 2, PATCH)
    with pytest.raises(NoFeasibleGainError):
        tune_gains(system, 1.0, 0.0, [])
    with pytest.raises(NoFeasibleGainError):
        tune_gains(system, 1.0, 0.0, [40.0, 50.0], lambda_L=34.0)
    with pytest.raises(NoFeasibleGainError):
        tune_gains(system, 1.0, 0.0, [-3.0, 5.0])


def test_gainset_from_matrices():
    system = assemble(PARAMS, 2, PATCH)
    K = place_poles(system.A, system.B, radial_pole_targets(system.A, 8.0))
    L = place_observer_poles(system.A, system.C,
                             radial_pole_targets(system.A, 20.0))
    gains = GainSet.from_matrices(system, K, L)
    assert gains.lambda_K == pytest.approx(8.0, abs=1e-7)
    assert gains.lambda_L == pytest.approx(20.0, abs=1e-7)
    assert gains.K_norm == pytest.approx(np.linalg.norm(K), rel=1e-14)
    assert gains.L_norm == pytest.approx(np.linalg.norm(L), rel=1e-14)


def test_gainset_refuses_a_spectrum_that_misses_its_targets():
    system = assemble(PARAMS, 2, PATCH)
    want_K = radial_pole_targets(system.A, 8.0)
    want_L = radial_pole_targets(system.A, 20.0)
    K = place_poles(system.A, system.B, want_K)
    L = place_observer_poles(system.A, system.C, want_L)
    gains = GainSet.from_matrices(system, K, L,
                                  placed=((8.0, want_K), (20.0, want_L)))
    assert gains.lambda_K == pytest.approx(8.0, abs=1e-7)
    moved = want_L * (1 + 1e-5)
    with pytest.raises(NoFeasibleGainError,
                       match=r"^A - LC at lambda = 20 misses its target "
                             r"poles by 1e-05 relative"):
        GainSet.from_matrices(system, K, L,
                              placed=((8.0, want_K), (20.0, moved)))


@pytest.mark.parametrize("lambda_L, batches", [
    (34.0, [1, 6]),         # the default: lambda_L pinned, 6-value grid
    (None, [6, 5]),         # lambda_L tuned to 30, the grid's largest
], ids=["pinned", "tuned"])
def test_tune_places_each_side_in_one_call(monkeypatch, lambda_L, batches):
    # the benchmark counts calls through this global (synthesis.place_calls)
    cfg = resolve_config({"preset": "fig1", "gains": {"lambda_L": lambda_L}})
    system = cfg.build_system()
    calls = []

    def counted(A, B, targets):
        calls.append(np.shape(targets))
        return place(A, B, targets)

    place = synthesis.place_poles
    monkeypatch.setattr(synthesis, "place_poles", counted)
    gains = cfg.build_gains(system)
    assert calls == [(g, 2 * system.N) for g in batches]
    assert gains.lambda_L == pytest.approx(lambda_L or 30.0, rel=1e-9)


def test_eigvec_condition_normal_matrix():
    assert eigvec_condition(np.diag([-1.0, -2.0])) == pytest.approx(1.0,
                                                                    rel=1e-10)


# ---------------------------------------------------------------------------
# randomized round trip (small version; the acceptance suite runs 100)
# ---------------------------------------------------------------------------

def test_random_round_trip():
    rng = np.random.default_rng(2024)
    for N in (1, 2, 3, 5):
        placement = Placement(x1=float(rng.uniform(0.0, 0.3)),
                              x2=float(rng.uniform(0.4, 0.9)),
                              x0=float(rng.uniform(0.31, 0.39)))
        system = assemble(PARAMS, N, placement)
        for _ in range(5):
            re = -rng.uniform(1.0, 40.0, N)
            im = rng.uniform(0.5, 80.0, N)
            targets = np.concatenate([re + 1j * im, re - 1j * im])
            K = place_poles(system.A, system.B, targets)
            err = rel_spectrum_error(
                np.linalg.eigvals(system.A - np.outer(system.B, K)), targets)
            assert err < 1e-6, (N, err)
