import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from sun_gates.amplitude_model import (
    AmplitudeCoefficients,
    PartialWaveSector,
    amplitude_operator,
    cross_coefficients,
    disk_samples,
    invariance_residual,
    scalar_amplitudes,
    unitary_parameterization,
)
from sun_gates.invariant_channels import (
    Channel,
    ChannelSpec,
    build_projectors,
    crossing_map,
)
from sun_gates.sun_algebra import DEFAULT_TOLERANCE, build_generators

coefficients = st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False)


def setup_channel(n, kind="s"):
    spec = ChannelSpec(Channel(kind), n)
    return spec, build_projectors(spec)


def test_amplitude_operator_basic_cases():
    spec, _ = setup_channel(2)
    one = amplitude_operator(AmplitudeCoefficients(spec, 1.0, 0.0))
    np.testing.assert_allclose(one, np.eye(4), atol=1e-15)
    swap = amplitude_operator(AmplitudeCoefficients(spec, 0.0, 1.0))
    np.testing.assert_allclose(swap, spec.z_gate, atol=1e-15)


def test_amplitude_operator_linear_combination_t_channel():
    spec, _ = setup_channel(3, "t")
    m = amplitude_operator(AmplitudeCoefficients(spec, 1j, 2.0))
    np.testing.assert_allclose(m, 1j * np.eye(9) + 2.0 * spec.z_gate, atol=1e-14)


def test_scalar_amplitudes_reference_points():
    spec, projs = setup_channel(3)
    mp, mm = scalar_amplitudes(spec.s_identity, projs)
    assert abs(mp - 1.0) < 1e-12 and abs(mm - 1.0) < 1e-12
    mp, mm = scalar_amplitudes(spec.z_gate, projs)
    assert abs(mp - 1.0) < 1e-12 and abs(mm + 1.0) < 1e-12
    p_plus, _ = projs
    mp, mm = scalar_amplitudes(3.0 * p_plus, projs)
    assert abs(mp - 3.0) < 1e-12 and abs(mm) < 1e-12


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("kind", ["s", "t"])
def test_scalar_amplitudes_recover_coefficients(n, kind):
    spec, projs = setup_channel(n, kind)
    rng = np.random.default_rng(100 * n + (kind == "t"))
    for _ in range(20):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        m = amplitude_operator(AmplitudeCoefficients(spec, a, b))
        mp, mm = scalar_amplitudes(m, projs)
        assert abs(mp - (a + b)) <= 1e-12
        assert abs(mm - (a - b)) <= 1e-12


def test_invariance_residual_cases():
    spec, projs = setup_channel(2)
    p_plus, p_minus = projs
    exact = 2.0 * p_plus - 5.0 * p_minus
    assert invariance_residual(exact, projs) <= 1e-14
    gens = build_generators(2)
    tilted = np.kron(gens[0], np.eye(2))
    assert invariance_residual(tilted, projs) > 0.1
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    m = amplitude_operator(AmplitudeCoefficients(spec, a, b))
    assert invariance_residual(m, projs) <= 1e-12


@pytest.mark.parametrize("measure", [scalar_amplitudes, invariance_residual])
def test_operator_and_projector_shapes_must_match(measure):
    with pytest.raises(ValueError, match=re.escape("operator must have shape (9, 9), got (4, 4)")):
        measure(np.eye(4), build_projectors(ChannelSpec(Channel.S, 3)))


def test_cross_coefficients_reference_points():
    spec = ChannelSpec(Channel.S, 2)
    crossed = cross_coefficients(AmplitudeCoefficients(spec, 1.0, 0.0))
    assert crossed.channel == ChannelSpec(Channel.T, 2)
    assert crossed.a == 1.0 and crossed.b == 1.0
    crossed = cross_coefficients(AmplitudeCoefficients(spec, 0.0, 1.0))
    assert crossed.a == 1.0 and crossed.b == 0.0


@pytest.mark.parametrize("kind, n, a, b", [
    (Channel.S, 32, 1e308 + 0j, 0j),   # a' = b' = inf + nan j
    (Channel.S, 32, 1e308, 0),         # a' = b' = inf
    (Channel.T, 4, 1e308, -1e308),     # b' = a - b = inf
], ids=["s-complex", "s-real", "t"])
def test_cross_coefficients_overflow_raises(kind, n, a, b):
    # Python complex arithmetic overflows to inf or nan without raising; the crossing must not hand that back
    with pytest.raises(FloatingPointError, match="overflow encountered in cross_coefficients"):
        cross_coefficients(AmplitudeCoefficients(ChannelSpec(kind, n), a, b))


def test_non_finite_coefficients_are_named_where_the_amplitude_is_built():
    # a nan is bad input, not an overflow of the crossing, and no parameterization hands one back
    spec = ChannelSpec(Channel.S, 3)
    with pytest.raises(ValueError, match="coefficient a must be finite, got nan"):
        cross_coefficients(AmplitudeCoefficients(spec, float("nan"), 0.0))
    with pytest.raises(ValueError, match="theta must be finite, got nan"):
        unitary_parameterization(float("nan"), 0.0, spec)


@pytest.mark.parametrize("channel", ["s", Channel.S, 2, None], ids=str)
def test_amplitude_rejects_a_channel_that_is_no_channel_spec(channel):
    # named where the amplitude is built, not as an AttributeError deep in the crossing or the encoder
    with pytest.raises(TypeError, match=f"channel must be a ChannelSpec, got {re.escape(repr(channel))}"):
        AmplitudeCoefficients(channel, 1.0, 0.0)


@pytest.mark.parametrize("n", [2, 3, 5])
@given(a=coefficients, b=coefficients)
def test_cross_coefficients_round_trip(n, a, b):
    coeffs = AmplitudeCoefficients(ChannelSpec(Channel.S, n), a, b)
    back = cross_coefficients(cross_coefficients(coeffs))
    assert back.channel == coeffs.channel
    assert abs(back.a - a) <= 1e-13 * (1 + abs(a))
    assert abs(back.b - b) <= 1e-13 * (1 + abs(b))


@pytest.mark.parametrize("n", range(2, 7))
def test_crossing_operator_consistency(n):
    rng = np.random.default_rng(7 * n)
    for _ in range(10):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        coeffs = AmplitudeCoefficients(ChannelSpec(Channel.S, n), a, b)
        m_s = amplitude_operator(coeffs)
        m_t = amplitude_operator(cross_coefficients(coeffs))
        assert np.abs(crossing_map(m_s) - m_t).max() <= 1e-12


def test_unitary_parameterization_reference_points():
    spec, _ = setup_channel(2)
    c = unitary_parameterization(0.0, 0.0, spec)
    assert c.a == 1.0 and c.b == 0.0
    c = unitary_parameterization(np.pi / 2, 0.0, spec)
    assert abs(c.a) <= 1e-15
    assert abs(c.b - 1j) <= 1e-15


def test_unitary_parameterization_matches_matrix_exponential():
    spec, _ = setup_channel(3, "t")
    theta, phi = np.pi / 3, np.pi / 7
    c = unitary_parameterization(theta, phi, spec)
    m = amplitude_operator(c)
    expected = np.exp(1j * phi) * expm(1j * theta * spec.z_gate)
    assert np.abs(m - expected).max() <= 1e-10


def test_unitary_parameterization_eigenvalues():
    spec, _ = setup_channel(2, "t")
    theta, phi = 0.9, -0.4
    m = amplitude_operator(unitary_parameterization(theta, phi, spec))
    evals = np.sort_complex(np.linalg.eigvals(m))
    expected = np.sort_complex(np.array(
        [np.exp(1j * (phi + theta))] + [np.exp(1j * (phi - theta))] * 3
    ))
    assert np.abs(evals - expected).max() <= 1e-10


@given(
    theta=st.floats(min_value=-7.0, max_value=7.0),
    phi=st.floats(min_value=-7.0, max_value=7.0),
)
def test_unitary_parameterization_invariants(theta, phi):
    spec, _ = setup_channel(2)
    c = unitary_parameterization(theta, phi, spec)
    assert abs(abs(c.a) ** 2 + abs(c.b) ** 2 - 1.0) <= 1e-14
    assert abs((np.conj(c.a) * c.b).real) <= 1e-14
    m = amplitude_operator(c)
    assert np.abs(m.conj().T @ m - np.eye(4)).max() <= 1e-10


def test_partial_wave_no_scattering():
    sector = PartialWaveSector(j=0, a_j=0.0, b_j=0.0, kappa_j=1.0)
    assert sector.norm_sq == 0.0
    assert sector.eigen_plus == 1.0 and sector.eigen_minus == 1.0


def test_partial_wave_elastic_saturation():
    sector = PartialWaveSector(j=0, a_j=1.0, b_j=0.0, kappa_j=0.3)
    assert sector.norm_sq == 1.0
    assert sector.eigen_plus == sector.eigen_minus == 1.0 + 0.3j


def test_partial_wave_bound_violation():
    sector = PartialWaveSector(j=1, a_j=1.0, b_j=1.0, kappa_j=1.0)
    assert abs(sector.norm_sq - 2.0) <= 1e-14
    assert abs(sector.eigen_plus - (1.0 + 2.0j)) <= 1e-14
    assert abs(sector.eigen_minus - 1.0) <= 1e-14


@given(
    re_a=st.floats(min_value=-2, max_value=2),
    im_a=st.floats(min_value=-2, max_value=2),
    re_b=st.floats(min_value=-2, max_value=2),
    im_b=st.floats(min_value=-2, max_value=2),
    kappa=st.floats(min_value=1e-3, max_value=10),
)
def test_partial_wave_measurements_match_arithmetic(re_a, im_a, re_b, im_b, kappa):
    a, b = complex(re_a, im_a), complex(re_b, im_b)
    sector = PartialWaveSector(j=2, a_j=a, b_j=b, kappa_j=kappa)
    assert type(sector.norm_sq) is float
    assert abs(sector.norm_sq - (abs(a) ** 2 + abs(b) ** 2)) <= 1e-14
    assert abs(sector.eigen_plus - (1 + 1j * kappa * (a + b))) <= 1e-14
    assert abs(sector.eigen_minus - (1 + 1j * kappa * (a - b))) <= 1e-14


@pytest.mark.parametrize("name, a, b, kappa", [
    ("norm_sq", 1e154, 1e154, 1.0),      # each square is 1e308, their sum inf
    ("eigen_plus", 1.0, 1.0, 1e308),     # kappa (a + b) = 2e308
    ("eigen_minus", 1.0, -1.0, 1e308),   # kappa (a - b) = 2e308
])
def test_partial_wave_measurement_overflow_raises(name, a, b, kappa):
    # Python float and complex arithmetic overflow to inf without raising; a measurement must not hand that back
    sector = PartialWaveSector(j=0, a_j=a, b_j=b, kappa_j=kappa)
    with pytest.raises(FloatingPointError, match=f"overflow encountered in {name}$"):
        getattr(sector, name)


def test_unitary_sectors_always_saturate():
    # a sector built from the boundary parameterization has norm one, so the
    # elastic-saturation flag, |norm_sq - 1| <= tolerance, must fire for every (theta, phi)
    spec, _ = setup_channel(3, "t")
    for theta in np.linspace(0.0, 2 * np.pi, 9):
        for phi in np.linspace(-np.pi, np.pi, 5):
            c = unitary_parameterization(theta, phi, spec)
            sector = PartialWaveSector(j=0, a_j=c.a, b_j=c.b, kappa_j=1.0)
            assert abs(sector.norm_sq - 1.0) <= DEFAULT_TOLERANCE


def test_partial_wave_sector_validation():
    with pytest.raises(ValueError):
        PartialWaveSector(j=-1, a_j=0.0, b_j=0.0, kappa_j=1.0)
    with pytest.raises(ValueError):
        PartialWaveSector(j=0, a_j=0.0, b_j=0.0, kappa_j=0.0)


@pytest.mark.parametrize("j", [1.5, 2.0, "1"])
def test_partial_wave_sector_rejects_a_non_integer_j(j):
    # an angular momentum label is an integer, as disk_samples' resolution is
    with pytest.raises(TypeError, match=f"j must be an integer, got {re.escape(repr(j))}"):
        PartialWaveSector(j=j, a_j=0.1, b_j=0.1, kappa_j=1.0)


def test_disk_samples_geometry():
    thetas, a, b = disk_samples(4)
    norm_sq = np.abs(a) ** 2 + np.abs(b) ** 2
    assert abs(thetas[0]) == 0.0 and a[0] == 1.0 and b[0] == 0.0
    assert abs(thetas[3] - np.pi / 2) <= 1e-15
    assert abs(a[3]) <= 1e-15 and abs(b[3] - 1j) <= 1e-15
    assert np.all(np.abs(norm_sq[:4] - 1.0) <= 1e-12)
    assert norm_sq[4:].size
    assert np.all(norm_sq[4:] < 1.0)


def test_disk_samples_resolution_validation():
    with pytest.raises(ValueError):
        disk_samples(1)
    with pytest.raises(ValueError, match="1024"):
        disk_samples(1025)
    with pytest.raises(TypeError, match="resolution"):
        disk_samples(2.5)
