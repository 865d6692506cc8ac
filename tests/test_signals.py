import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piezobeam.beam import BeamParams
from piezobeam.modal import (
    DampingModel,
    Placement,
    mode_roots,
    residual_block,
    resonant_frequencies,
)
from piezobeam.signals import (
    NoiseSpec,
    NoiseWaveform,
    build_disturbance,
    constant_disturbance,
    cosine_sum_grid,
    modal_force,
    noise_samples,
    polyharmonic_disturbance,
    tail_disturbance,
)

PARAMS = BeamParams.dimensionless(a1=0.01)


# ---------------------------------------------------------------------------
# modal forcing
# ---------------------------------------------------------------------------

def test_undriven_mode_is_zero():
    spec = polyharmonic_disturbance(PARAMS, driven_modes=3)
    for t in (0.0, 0.37, 12.0):
        assert modal_force(spec, 4, t) == 0.0
        assert modal_force(spec, 17, t) == 0.0


def test_single_constant_harmonic():
    spec = build_disturbance([((1.0, 0.0, 0.0),)])
    for t in (0.0, 1.0, 5.5):
        assert modal_force(spec, 1, t) == pytest.approx(1.0, rel=1e-15)


def test_default_polyharmonic_amplitudes_and_bound():
    spec = polyharmonic_disturbance(PARAMS, driven_modes=3, count=11,
                                    bound=11.0, resonance=True)
    assert spec.driven_mode_count == 3
    assert spec.f_max == 11.0
    for n in (1, 2, 3):
        hs = spec.mode_harmonics[n - 1]
        assert len(hs) == 11
        for h in hs:
            assert h.amplitude == pytest.approx(1.0, rel=1e-12)
    # sampled sup never exceeds the declared bound
    t = np.linspace(0.0, 50.0, 20001)
    f = modal_force(spec, 1, t)
    assert np.max(np.abs(f)) <= 11.0 * (1 + 1e-12)
    # equal forcing on each driven mode
    np.testing.assert_array_equal(f, modal_force(spec, 3, t))


def test_resonance_component_present():
    spec = polyharmonic_disturbance(PARAMS, resonance=True)
    om1 = resonant_frequencies(PARAMS, [1])[0]
    freqs = [h.omega for h in spec.mode_harmonics[0]]
    assert any(om == pytest.approx(om1, rel=1e-15) for om in freqs)
    spec_off = polyharmonic_disturbance(PARAMS, resonance=False)
    freqs_off = [h.omega for h in spec_off.mode_harmonics[0]]
    assert not any(abs(om - om1) < 1e-12 for om in freqs_off)


@pytest.mark.parametrize("a1", [0.01, 0.1])
def test_comb_is_tuned_to_the_damping_model(a1):
    # j = 3 of the comb is mode 1's |Im| slow root under the beam's own model
    params = BeamParams.dimensionless(a1=a1)
    model = DampingModel.KELVIN_VOIGT
    slow = mode_roots(params, [1], model)[0][0]
    spec = polyharmonic_disturbance(params, damping_model=model)
    assert spec.mode_harmonics[0][2].omega == pytest.approx(abs(slow.imag),
                                                            rel=1e-15)


def test_overdamped_comb_is_tuned_to_sigma_squared():
    # real roots: the comb and the tail load fall back to sigma_n^2
    params = BeamParams.dimensionless(a1=3.0)
    spec = polyharmonic_disturbance(params)
    assert spec.mode_harmonics[0][2].omega == pytest.approx(math.pi**2,
                                                            rel=1e-15)
    tail = tail_disturbance(params, 1.0, 3)
    for k in (1, 2, 3):
        assert tail.mode_harmonics[k - 1][0].omega == (k * math.pi) ** 2


def test_normalization_rescales_to_bound():
    spec = build_disturbance([
        ((2.0, 1.0, 0.0), (2.0, 3.0, 0.0)),   # sum 4
        ((1.0, 2.0, 0.0),),                   # sum 1
    ], bound=11.0)
    assert spec.mode_bound(1) == pytest.approx(11.0, rel=1e-12)
    assert spec.mode_bound(2) == pytest.approx(11.0 / 4.0, rel=1e-12)


def test_force_vector_bound():
    spec = polyharmonic_disturbance(PARAMS, driven_modes=3, bound=11.0)
    assert spec.force_vector_bound(3) == pytest.approx(11.0 * math.sqrt(3.0),
                                                       rel=1e-12)
    assert spec.force_vector_bound(3, a2=2.0) == pytest.approx(
        22.0 * math.sqrt(3.0), rel=1e-12)


def test_tail_disturbance_envelopes():
    uni = tail_disturbance(PARAMS, 5.0, 4, "uniform")
    smooth = tail_disturbance(PARAMS, 5.0, 4, "smooth")
    for k in range(1, 5):
        assert uni.mode_bound(k) == pytest.approx(5.0, rel=1e-12)
        assert smooth.mode_bound(k) == pytest.approx(5.0 / k**2, rel=1e-12)
        # driven at the mode's own damped frequency
        assert uni.mode_harmonics[k - 1][0].omega == pytest.approx(
            math.pi**2 * k**2 * math.sqrt(4 - 0.01**2) / 2, rel=1e-14)
    with pytest.raises(ValueError):
        tail_disturbance(PARAMS, 5.0, 4, "other")


def test_declared_bound_never_exceeded_property():
    rng = np.random.default_rng(42)
    t = np.linspace(0.0, 30.0, 5000)
    for _ in range(10):
        n_modes = int(rng.integers(1, 4))
        hs = [
            tuple((float(a), float(om), float(ph))
                  for a, om, ph in zip(rng.uniform(0.1, 3.0, 5),
                                       rng.uniform(0.0, 40.0, 5),
                                       rng.uniform(-3.0, 3.0, 5)))
            for _ in range(n_modes)
        ]
        spec = build_disturbance(hs)
        for n in range(1, n_modes + 1):
            sup = np.max(np.abs(modal_force(spec, n, t)))
            assert sup <= spec.mode_bound(n) * (1 + 1e-12)
            assert sup <= spec.f_max * (1 + 1e-12)


# grid counts around the kernel's split i = q B + r, B = isqrt(count):
# 1, 2, 3, whole squares k^2 and the counts just below and above them
GRID_COUNTS = st.one_of(
    st.sampled_from([1, 2, 3]),
    st.builds(lambda k, d: k * k + d, st.integers(2, 60),
              st.sampled_from([-1, 0, 1])),
)
HARMONICS = st.lists(
    st.tuples(st.floats(-10.0, 10.0),
              st.one_of(st.just(0.0), st.floats(-500.0, 500.0)),
              st.floats(-math.pi, math.pi)),
    min_size=1, max_size=11,
)


@settings(max_examples=200, deadline=None)
@given(harmonics=HARMONICS, count=GRID_COUNTS,
       offset=st.one_of(st.just(0), st.integers(1, 10**6)),
       h=st.floats(1e-5, 1e-2))
def test_cosine_sum_grid_matches_modal_force(harmonics, count, offset, h):
    """The grid kernel against term-by-term ``modal_force`` on t_i = (o+i) h.

    Both evaluate the same real function, so they differ by their rounding
    errors, each a small multiple of the unit roundoff u = eps/2 per unit
    of sum |a|:

    - the angle w t + p: t = (o+i) h, the product and the sum round to
      about 3 |w| t + |p| in both; the kernel's fine angle w r h adds
      |w| r h < |w| t;
    - cos and sin: about 1 each;
    - the sums: the pointwise loop adds H <= 11 terms, the kernel's dot
      product 2H, bounded by about 2H sqrt(2) over sum |a|.

    With |p| <= pi that is under 7 |w| t_end + 60 in units of u, so
    |delta| <= 64 eps (1 + max |w| t_end) sum |a| holds with margin.
    """
    spec = build_disturbance([harmonics])
    got = cosine_sum_grid(harmonics, h, count, offset=offset)
    want = modal_force(spec, 1, (offset + np.arange(count)) * h)
    assert got.shape == (count,)
    t_end = (offset + count - 1) * h
    om_max = max(abs(om) for _, om, _ in harmonics)
    bound = 64 * np.finfo(float).eps * (1.0 + om_max * t_end) * \
        sum(abs(a) for a, _, _ in harmonics)
    assert np.max(np.abs(got - want)) <= bound


def test_cosine_sum_grid_empty_cases():
    assert cosine_sum_grid([], 0.1, 5).tolist() == [0.0] * 5
    assert cosine_sum_grid([(1.0, 2.0, 0.0)], 0.1, 0).shape == (0,)


def test_cosine_sum_grid_constant_forces():
    # omega = 0, as in constant_disturbance: a cos(p) on every grid point
    spec = constant_disturbance([2.5])
    hs = [(h.amplitude, h.omega, h.phase) for h in spec.mode_harmonics[0]]
    np.testing.assert_array_equal(cosine_sum_grid(hs, 1e-3, 17, offset=40),
                                  np.full(17, 2.5))


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def noise_sample(spec, t):
    """xi at one time, through the array path."""
    return float(noise_samples(spec, np.array([t], dtype=float))[0])


def test_zero_bound_noise():
    spec = NoiseSpec(bound=0.0, seed=5, hold=0.01)
    assert noise_sample(spec, 0.0) == 0.0
    assert noise_sample(spec, 3.7) == 0.0


def test_noise_determinism():
    spec = NoiseSpec(bound=0.01, seed=99, hold=0.02)
    for t in (0.0, 0.013, 1.7, 42.0):
        assert noise_sample(spec, t) == noise_sample(spec, t)
    other = NoiseSpec(bound=0.01, seed=100, hold=0.02)
    vals_a = [noise_sample(spec, 0.02 * i) for i in range(50)]
    vals_b = [noise_sample(other, 0.02 * i) for i in range(50)]
    assert vals_a != vals_b


def test_noise_bound_on_many_samples():
    spec = NoiseSpec(bound=0.01, seed=7, hold=0.005)
    t = np.linspace(0.0, 50.0, 10_000)
    vals = noise_samples(spec, t)
    assert np.max(np.abs(vals)) <= 0.01
    # hold interval: identical inside, varies across
    assert noise_sample(spec, 0.0011) == noise_sample(spec, 0.0049)
    assert len(np.unique(vals)) > 1000


_MASK = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _hold_value(seed, index, bound):
    """Reference: the held noise value, in Python integers."""
    h = _splitmix64(((seed & _MASK) << 1) ^ _splitmix64(index & _MASK))
    u = (h >> 11) * (1.0 / (1 << 53))
    return (2.0 * u - 1.0) * bound


def test_noise_samples_match_scalar_path():
    hold = 0.01
    indices = [-(2**62) - 7, -12345, -1, 0, 1, 2, 99, 2**40 + 3,
               2**62 - 1, 2**62, 2**62 + 2048]
    # mid-interval times; near 2**62 the half is lost to rounding, so the
    # expected index is floor(t / hold) in Python integers, as the scalar
    # path took it
    t = (np.array(indices, dtype=float) + 0.5) * hold
    expect_idx = [math.floor(ti / hold) for ti in t]
    assert min(expect_idx) <= -(2**62) and max(expect_idx) >= 2**62
    for seed in (0, 3, 2**32 + 1, 2**63, 2**63 + 12345, 2**64 - 1):
        spec = NoiseSpec(bound=0.02, seed=seed, hold=hold)
        vec = noise_samples(spec, t)
        scal = [_hold_value(seed, i, 0.02) for i in expect_idx]
        assert vec.tolist() == scal, seed
        assert [noise_sample(spec, ti) for ti in t] == scal, seed
    spec = NoiseSpec(bound=0.02, seed=3, hold=hold)
    grid = np.linspace(-1.0, 1.0, 2002).reshape(1001, 2)
    vec = noise_samples(spec, grid)
    assert vec.shape == grid.shape
    assert vec.ravel().tolist() == [
        _hold_value(3, math.floor(ti / hold), 0.02) for ti in grid.ravel()]


def test_sinusoidal_noise():
    spec = NoiseSpec(bound=0.5, waveform=NoiseWaveform.SINUSOIDAL,
                     frequency=2.0, phase=0.5)
    t = np.linspace(0.0, 10.0, 1001)
    vals = noise_samples(spec, t)
    np.testing.assert_allclose(vals, 0.5 * np.sin(2.0 * t + 0.5), rtol=1e-14)
    assert np.max(np.abs(vals)) <= 0.5


def test_unresolved_hold_raises():
    spec = NoiseSpec(bound=0.01)
    with pytest.raises(ValueError):
        noise_sample(spec, 1.0)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(bound=-0.1)
    with pytest.raises(ValueError):
        NoiseSpec(bound=0.1, hold=0.0)


# ---------------------------------------------------------------------------
# measurement spillover: the residual block's sensor row
# ---------------------------------------------------------------------------

def test_residual_output_empty_block():
    block = residual_block(PARAMS, Placement(0.0, 0.1, 0.6), N=3, R=0)
    assert block.C @ np.zeros(0) == 0.0


def test_residual_output_node_position():
    # mode 4 velocity at x0 = 0.5: psi_4(0.5) = sqrt(2) sin(2 pi) = 0
    block = residual_block(PARAMS, Placement(0.0, 0.1, 0.5), N=3, R=1)
    assert block.C @ np.array([0.0, 1.0]) == 0.0


def test_residual_output_mode_four_at_06():
    # psi_4(0.6) = sqrt(2) sin(2.4 pi) = sqrt(2) sin(0.4 pi)
    block = residual_block(PARAMS, Placement(0.0, 0.1, 0.6), N=3, R=1)
    got = block.C @ np.array([0.0, 1.0])
    assert got == pytest.approx(1.3449970239279148, rel=1e-13)


def test_residual_output_mixed_weights():
    block = residual_block(PARAMS, Placement(0.0, 0.1, 0.3, s1=2.0, s2=0.5),
                           N=1, R=2)
    state = np.array([0.4, -0.2, 1.0, 3.0])  # w_2, w_3, w_2', w_3'
    psi2 = math.sqrt(2) * math.sin(2 * math.pi * 0.3)
    psi3 = math.sqrt(2) * math.sin(3 * math.pi * 0.3)
    expect = 2.0 * (0.4 * psi2 - 0.2 * psi3) + 0.5 * (1.0 * psi2 + 3.0 * psi3)
    assert block.C @ state == pytest.approx(expect, rel=1e-12)


def test_constant_disturbance():
    spec = constant_disturbance([1.0, 0.0, 2.5])
    assert modal_force(spec, 1, 9.3) == pytest.approx(1.0)
    assert modal_force(spec, 2, 9.3) == 0.0
    assert modal_force(spec, 3, 9.3) == pytest.approx(2.5)
