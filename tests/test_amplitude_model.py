import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from sun_gates.amplitude_model import (
    AmplitudeCoefficients,
    PartialWaveSector,
    amplitude_operator,
    check_partial_wave,
    cross_coefficients,
    disk_samples,
    invariance_residual,
    scalar_amplitudes,
    unitary_parameterization,
)
from sun_gates.invariant_channels import (
    build_gates,
    build_projectors,
    crossing_map,
    s_channel,
    t_channel,
)
from sun_gates.sun_algebra import build_generators

coefficients = st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False)


def setup_channel(n, kind="s"):
    spec = s_channel(n) if kind == "s" else t_channel(n)
    return spec, build_projectors(spec), build_gates(spec)


def test_amplitude_operator_basic_cases():
    spec, _, gates = setup_channel(2)
    one = amplitude_operator(AmplitudeCoefficients(spec, 1.0, 0.0), gates)
    np.testing.assert_allclose(one, np.eye(4), atol=1e-15)
    swap = amplitude_operator(AmplitudeCoefficients(spec, 0.0, 1.0), gates)
    np.testing.assert_allclose(swap, gates.z_gate, atol=1e-15)


def test_amplitude_operator_linear_combination_t_channel():
    spec, _, gates = setup_channel(3, "t")
    m = amplitude_operator(AmplitudeCoefficients(spec, 1j, 2.0), gates)
    np.testing.assert_allclose(m, 1j * np.eye(9) + 2.0 * gates.z_gate, atol=1e-14)


def test_amplitude_operator_channel_mismatch():
    spec, _, _ = setup_channel(2)
    _, _, t_gates = setup_channel(2, "t")
    with pytest.raises(ValueError):
        amplitude_operator(AmplitudeCoefficients(spec, 1.0, 0.0), t_gates)


def test_scalar_amplitudes_reference_points():
    spec, projs, gates = setup_channel(3)
    mp, mm = scalar_amplitudes(gates.s_identity, projs)
    assert abs(mp - 1.0) < 1e-12 and abs(mm - 1.0) < 1e-12
    mp, mm = scalar_amplitudes(gates.z_gate, projs)
    assert abs(mp - 1.0) < 1e-12 and abs(mm + 1.0) < 1e-12
    mp, mm = scalar_amplitudes(3.0 * projs.p_plus, projs)
    assert abs(mp - 3.0) < 1e-12 and abs(mm) < 1e-12


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("kind", ["s", "t"])
def test_scalar_amplitudes_recover_coefficients(n, kind):
    spec, projs, gates = setup_channel(n, kind)
    rng = np.random.default_rng(100 * n + (kind == "t"))
    for _ in range(20):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        m = amplitude_operator(AmplitudeCoefficients(spec, a, b), gates)
        mp, mm = scalar_amplitudes(m, projs)
        assert abs(mp - (a + b)) <= 1e-12
        assert abs(mm - (a - b)) <= 1e-12


def test_invariance_residual_cases():
    spec, projs, gates = setup_channel(2)
    exact = 2.0 * projs.p_plus - 5.0 * projs.p_minus
    assert invariance_residual(exact, projs) <= 1e-14
    gens = build_generators(2)
    tilted = np.kron(gens[0], np.eye(2))
    assert invariance_residual(tilted, projs) > 0.1
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    m = amplitude_operator(AmplitudeCoefficients(spec, a, b), gates)
    assert invariance_residual(m, projs) <= 1e-12


def test_cross_coefficients_reference_points():
    spec = s_channel(2)
    crossed = cross_coefficients(AmplitudeCoefficients(spec, 1.0, 0.0))
    assert crossed.channel == t_channel(2)
    assert crossed.a == 1.0 and crossed.b == 1.0
    crossed = cross_coefficients(AmplitudeCoefficients(spec, 0.0, 1.0))
    assert crossed.a == 1.0 and crossed.b == 0.0


@pytest.mark.parametrize("n", [2, 3, 5])
@given(a=coefficients, b=coefficients)
def test_cross_coefficients_round_trip(n, a, b):
    coeffs = AmplitudeCoefficients(s_channel(n), a, b)
    back = cross_coefficients(cross_coefficients(coeffs))
    assert back.channel == coeffs.channel
    assert abs(back.a - a) <= 1e-13 * (1 + abs(a))
    assert abs(back.b - b) <= 1e-13 * (1 + abs(b))


@pytest.mark.parametrize("n", range(2, 7))
def test_crossing_operator_consistency(n):
    s_gates = build_gates(s_channel(n))
    t_gates = build_gates(t_channel(n))
    rng = np.random.default_rng(7 * n)
    for _ in range(10):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        coeffs = AmplitudeCoefficients(s_channel(n), a, b)
        m_s = amplitude_operator(coeffs, s_gates)
        m_t = amplitude_operator(cross_coefficients(coeffs), t_gates)
        assert np.abs(crossing_map(m_s) - m_t).max() <= 1e-12


def test_unitary_parameterization_reference_points():
    spec, _, gates = setup_channel(2)
    c = unitary_parameterization(0.0, 0.0, gates)
    assert c.a == 1.0 and c.b == 0.0
    c = unitary_parameterization(np.pi / 2, 0.0, gates)
    assert abs(c.a) <= 1e-15
    assert abs(c.b - 1j) <= 1e-15


def test_unitary_parameterization_matches_matrix_exponential():
    _, _, gates = setup_channel(3, "t")
    theta, phi = np.pi / 3, np.pi / 7
    c = unitary_parameterization(theta, phi, gates)
    m = amplitude_operator(c, gates)
    expected = np.exp(1j * phi) * expm(1j * theta * gates.z_gate)
    assert np.abs(m - expected).max() <= 1e-10


def test_unitary_parameterization_eigenvalues():
    _, _, gates = setup_channel(2, "t")
    theta, phi = 0.9, -0.4
    m = amplitude_operator(unitary_parameterization(theta, phi, gates), gates)
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
    _, _, gates = setup_channel(2)
    c = unitary_parameterization(theta, phi, gates)
    assert abs(abs(c.a) ** 2 + abs(c.b) ** 2 - 1.0) <= 1e-14
    assert abs((np.conj(c.a) * c.b).real) <= 1e-14
    m = amplitude_operator(c, gates)
    assert np.abs(m.conj().T @ m - np.eye(4)).max() <= 1e-10


def test_partial_wave_no_scattering():
    report = check_partial_wave(PartialWaveSector(j=0, a_j=0.0, b_j=0.0, kappa_j=1.0))
    assert report.norm_sq == 0.0
    assert report.eigen_plus == 1.0 and report.eigen_minus == 1.0
    assert report.in_unit_disk == (True, True)
    assert report.bound_satisfied
    assert not report.elastic_saturation


def test_partial_wave_elastic_saturation():
    report = check_partial_wave(PartialWaveSector(j=0, a_j=1.0, b_j=0.0, kappa_j=0.3))
    assert report.elastic_saturation
    assert report.bound_satisfied


def test_partial_wave_bound_violation():
    report = check_partial_wave(PartialWaveSector(j=1, a_j=1.0, b_j=1.0, kappa_j=1.0))
    assert abs(report.norm_sq - 2.0) <= 1e-14
    assert not report.bound_satisfied
    assert abs(report.eigen_plus - (1.0 + 2.0j)) <= 1e-14
    assert abs(report.eigen_minus - 1.0) <= 1e-14


@given(
    re_a=st.floats(min_value=-2, max_value=2),
    im_a=st.floats(min_value=-2, max_value=2),
    re_b=st.floats(min_value=-2, max_value=2),
    im_b=st.floats(min_value=-2, max_value=2),
    kappa=st.floats(min_value=1e-3, max_value=10),
)
def test_partial_wave_flags_match_arithmetic(re_a, im_a, re_b, im_b, kappa):
    a, b = complex(re_a, im_a), complex(re_b, im_b)
    report = check_partial_wave(PartialWaveSector(j=2, a_j=a, b_j=b, kappa_j=kappa), tolerance=1e-10)
    norm_sq = abs(a) ** 2 + abs(b) ** 2
    assert abs(report.norm_sq - norm_sq) <= 1e-14
    assert report.bound_satisfied == (norm_sq <= 1.0 + 1e-10)
    assert abs(report.eigen_plus - (1 + 1j * kappa * (a + b))) <= 1e-14
    assert abs(report.eigen_minus - (1 + 1j * kappa * (a - b))) <= 1e-14


def test_unitary_sectors_always_saturate():
    # a sector built from the boundary parameterization has norm one, so the
    # elastic-saturation flag must fire for every (theta, phi)
    _, _, gates = setup_channel(3, "t")
    for theta in np.linspace(0.0, 2 * np.pi, 9):
        for phi in np.linspace(-np.pi, np.pi, 5):
            c = unitary_parameterization(theta, phi, gates)
            sector = PartialWaveSector(j=0, a_j=c.a, b_j=c.b, kappa_j=1.0)
            assert check_partial_wave(sector).elastic_saturation


def test_partial_wave_sector_validation():
    with pytest.raises(ValueError):
        PartialWaveSector(j=-1, a_j=0.0, b_j=0.0, kappa_j=1.0)
    with pytest.raises(ValueError):
        PartialWaveSector(j=0, a_j=0.0, b_j=0.0, kappa_j=0.0)


def test_disk_samples_geometry():
    rows = disk_samples(4)
    boundary, interior = rows[:4], rows[4:]
    assert abs(boundary[0].theta) == 0.0 and boundary[0].a == 1.0 and boundary[0].b == 0.0
    last = boundary[-1]
    assert abs(last.theta - np.pi / 2) <= 1e-15
    assert abs(last.a) <= 1e-15 and abs(last.b - 1j) <= 1e-15
    for row in boundary:
        assert abs(row.norm_sq - 1.0) <= 1e-12
    assert interior
    for row in interior:
        assert row.norm_sq < 1.0


def test_disk_samples_resolution_validation():
    with pytest.raises(ValueError):
        disk_samples(1)
    with pytest.raises(ValueError, match="1024"):
        disk_samples(1025)
