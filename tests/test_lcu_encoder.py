import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sun_gates.amplitude_model import AmplitudeCoefficients, amplitude_operator
from sun_gates.invariant_channels import build_gates, build_projectors, s_channel, t_channel
from sun_gates.lcu_encoder import (
    apply_with_postselection,
    build_w,
    build_w_from_circuit,
    circuit_from_json,
    circuit_to_json,
    export_circuit,
    plan_encoding,
    ry,
    verify_block,
)
from sun_gates.sun_algebra import DEFAULT_TOLERANCE

nonzero_pairs = st.tuples(
    st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
).filter(lambda ab: abs(ab[0]) + abs(ab[1]) > 1e-6)


def channel_setup(n, kind="s"):
    spec = s_channel(n) if kind == "s" else t_channel(n)
    return spec, build_gates(spec)


def dense_w(plan, gates):
    """Reference W assembled from Kronecker products, independent of the circuit replay."""
    eye = np.eye(plan.channel.n ** 2, dtype=complex)
    p0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    p1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    select = (np.kron(p0, np.exp(1j * plan.phi_a) * gates.s_identity)
              + np.kron(p1, np.exp(1j * plan.phi_b) * gates.z_gate))
    return np.kron(ry(-2.0 * plan.gamma), eye) @ select @ np.kron(ry(2.0 * plan.gamma), eye)


def test_plan_pure_identity():
    spec, _ = channel_setup(2)
    plan = plan_encoding(AmplitudeCoefficients(spec, 1.0, 0.0))
    assert plan.alpha == 1.0
    assert plan.gamma == 0.0
    assert plan.phi_a == 0.0 and plan.phi_b == 0.0


def test_plan_equal_weights_is_hadamard_angle():
    spec, _ = channel_setup(2)
    plan = plan_encoding(AmplitudeCoefficients(spec, 0.5, 0.5))
    assert abs(plan.gamma - np.pi / 4) <= 1e-15


def test_plan_mixed_phases():
    spec, _ = channel_setup(2)
    plan = plan_encoding(AmplitudeCoefficients(spec, 0.6, 0.8j))
    assert abs(plan.alpha - 1.4) <= 1e-15
    assert abs(np.cos(plan.gamma) ** 2 - 3.0 / 7.0) <= 1e-15
    assert plan.phi_a == 0.0
    assert abs(plan.phi_b - np.pi / 2) <= 1e-15


def test_plan_rejects_zero_amplitude():
    spec, _ = channel_setup(2)
    with pytest.raises(ValueError):
        plan_encoding(AmplitudeCoefficients(spec, 0.0, 0.0))


@given(ab=nonzero_pairs)
def test_plan_angle_splits_weights(ab):
    a, b = ab
    spec, _ = channel_setup(2)
    plan = plan_encoding(AmplitudeCoefficients(spec, a, b))
    assert abs(plan.alpha - (abs(a) + abs(b))) <= 1e-12
    assert abs(np.cos(plan.gamma) ** 2 - abs(a) / plan.alpha) <= 1e-12
    assert abs(np.sin(plan.gamma) ** 2 - abs(b) / plan.alpha) <= 1e-12


def test_ry_convention():
    m = ry(np.pi / 2)
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(m, [[s, -s], [s, s]], atol=1e-15)


def test_block_of_identity_plan_is_identity_gate():
    spec, gates = channel_setup(3)
    plan = plan_encoding(AmplitudeCoefficients(spec, 1.0, 0.0))
    w = build_w(plan, gates)
    np.testing.assert_allclose(w[:9, :9], np.eye(9), atol=1e-14)


def test_block_of_equal_weights_is_symmetric_projector():
    spec, gates = channel_setup(2)
    projs = build_projectors(spec)
    plan = plan_encoding(AmplitudeCoefficients(spec, 0.5, 0.5))
    w = build_w(plan, gates)
    assert np.abs(w[:4, :4] - projs.p_plus).max() <= 1e-12


def test_equal_weight_block_with_phases():
    # |a| = |b| gives gamma = pi/4 and the block (e^{i phi_a} I + e^{i phi_b} Z)/2
    spec, gates = channel_setup(3, "t")
    plan = plan_encoding(AmplitudeCoefficients(spec, 0.5j, -0.5))
    assert abs(plan.gamma - np.pi / 4) <= 1e-15
    w = build_w(plan, gates)
    expected = (1j * gates.s_identity - gates.z_gate) / 2.0
    assert np.abs(w[:9, :9] - expected).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["s", "t"])
def test_w_is_unitary(n, kind):
    spec, gates = channel_setup(n, kind)
    rng = np.random.default_rng(5 * n)
    for _ in range(5):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        plan = plan_encoding(AmplitudeCoefficients(spec, a, b))
        w = build_w(plan, gates)
        assert np.abs(w.conj().T @ w - np.eye(2 * n * n)).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["s", "t"])
def test_block_identity_random_amplitudes(n, kind):
    spec, gates = channel_setup(n, kind)
    rng = np.random.default_rng(19 + n)
    for _ in range(20):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        coeffs = AmplitudeCoefficients(spec, a, b)
        plan = plan_encoding(coeffs)
        w = build_w(plan, gates)
        m = amplitude_operator(coeffs, gates)
        report = verify_block(w, m, plan.alpha, tolerance=1e-12)
        assert report.passed, report.max_deviation


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["s", "t"])
def test_replayed_w_matches_dense_formula(n, kind):
    spec, gates = channel_setup(n, kind)
    rng = np.random.default_rng(31 * n)
    for _ in range(5):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        plan = plan_encoding(AmplitudeCoefficients(spec, a, b))
        assert np.abs(build_w(plan, gates) - dense_w(plan, gates)).max() <= 1e-12


def test_verify_block_trivial_and_corrupted():
    spec, gates = channel_setup(2)
    eye_block = verify_block(np.eye(8, dtype=complex), np.eye(4, dtype=complex), 1.0, 1e-12)
    assert eye_block.passed
    coeffs = AmplitudeCoefficients(spec, 0.3 + 0.1j, 0.7)
    plan = plan_encoding(coeffs)
    bad_plan = type(plan)(channel=plan.channel, alpha=plan.alpha, gamma=plan.gamma + 0.1,
                          phi_a=plan.phi_a, phi_b=plan.phi_b)
    w = build_w(bad_plan, gates)
    m = amplitude_operator(coeffs, gates)
    report = verify_block(w, m, plan.alpha, tolerance=1e-12)
    assert not report.passed
    assert report.max_deviation > 1e-3


def test_verify_block_at_subnormal_alpha():
    # complex division by alpha = 1e-323 multiplies by 1 / alpha, which overflows
    spec, gates = channel_setup(2)
    coeffs = AmplitudeCoefficients(spec, 5e-324, 5e-324j)
    plan = plan_encoding(coeffs)
    assert plan.alpha == 1e-323
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        report = verify_block(build_w(plan, gates), amplitude_operator(coeffs, gates), plan.alpha, 1e-12)
    assert report.passed


def test_postselection_identity_leaves_state():
    spec, gates = channel_setup(2)
    plan = plan_encoding(AmplitudeCoefficients(spec, 1.0, 0.0))
    psi = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    result = apply_with_postselection(plan, gates, psi)
    assert abs(result.success_probability - 1.0) <= 1e-12
    assert np.abs(result.state - psi).max() <= 1e-12


def test_postselection_swaps_basis_state():
    spec, gates = channel_setup(2)
    plan = plan_encoding(AmplitudeCoefficients(spec, 0.0, 1.0))
    psi01 = np.array([0, 1, 0, 0], dtype=complex)
    result = apply_with_postselection(plan, gates, psi01)
    assert abs(result.success_probability - 1.0) <= 1e-12
    expected = np.array([0, 0, 1, 0], dtype=complex)
    assert np.abs(result.state - expected).max() <= 1e-12


def test_postselection_annihilates_antisymmetric_state():
    spec, gates = channel_setup(2)
    plan = plan_encoding(AmplitudeCoefficients(spec, 0.5, 0.5))
    anti = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    result = apply_with_postselection(plan, gates, anti)
    assert result.annihilated
    assert result.success_probability <= 1e-24
    assert np.abs(result.state).max() == 0.0


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["s", "t"])
def test_postselection_probability_matches_direct_application(n, kind):
    spec, gates = channel_setup(n, kind)
    rng = np.random.default_rng(23 * n)
    for _ in range(10):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        coeffs = AmplitudeCoefficients(spec, a, b)
        plan = plan_encoding(coeffs)
        psi = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
        psi /= np.linalg.norm(psi)
        result = apply_with_postselection(plan, gates, psi)
        # independent oracle: plain matrix application, no ancilla machinery
        m_psi = amplitude_operator(coeffs, gates) @ psi
        expected = float(np.linalg.norm(m_psi) ** 2 / plan.alpha ** 2)
        assert abs(result.success_probability - expected) <= 1e-12
        assert np.abs(result.state - m_psi / np.linalg.norm(m_psi)).max() <= 1e-12


def test_postselection_never_builds_w():
    n = 8
    spec, gates = channel_setup(n, "t")
    plan = plan_encoding(AmplitudeCoefficients(spec, 0.4 + 0.3j, -0.9))
    psi = np.full(n * n, 1.0 / n, dtype=complex)
    w_bytes = (2 * n * n) ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        apply_with_postselection(plan, gates, psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < w_bytes / 8, (peak, w_bytes)


def test_postselection_rejects_unnormalized_state():
    spec, gates = channel_setup(2)
    plan = plan_encoding(AmplitudeCoefficients(spec, 1.0, 0.0))
    with pytest.raises(ValueError):
        apply_with_postselection(plan, gates, np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_postselection_rejects_non_finite_state(bad):
    spec, gates = channel_setup(2)
    plan = plan_encoding(AmplitudeCoefficients(spec, 1.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        apply_with_postselection(plan, gates, np.array([bad, 0.0, 0.0, 0.0], dtype=complex))


def test_exported_circuit_structure():
    spec, _ = channel_setup(2)
    desc = export_circuit(plan_encoding(AmplitudeCoefficients(spec, 1.0, 0.0)))
    assert [g["name"] for g in desc.gates] == ["ry", "cz_gate", "cs_identity", "ry"]
    assert desc.gates[0]["theta"] == 0.0 and desc.gates[3]["theta"] == 0.0
    assert desc.gates[1]["control_value"] == 1
    assert desc.gates[2]["control_value"] == 0
    assert desc.gates[2]["phase"] == 0.0


def test_exported_equal_weights_rotation_angle():
    spec, _ = channel_setup(2)
    desc = export_circuit(plan_encoding(AmplitudeCoefficients(spec, 0.5, 0.5)))
    assert abs(desc.gates[0]["theta"] - np.pi / 2) <= 1e-15


def test_circuit_json_schema_fields():
    spec, _ = channel_setup(3, "t")
    payload = circuit_to_json(export_circuit(plan_encoding(AmplitudeCoefficients(spec, 0.2j, 0.4))))
    assert list(payload.keys()) == ["version", "n", "channel", "alpha", "gates"]
    assert payload["version"] == 1
    assert payload["n"] == 3
    assert payload["channel"] == "t"
    assert len(payload["gates"]) == 4
    assert payload["gates"][0] == {"name": "ry", "target": "ancilla", "theta": payload["gates"][0]["theta"]}
    # serializes through the standard json module unchanged
    assert json.loads(json.dumps(payload)) == payload


def test_circuit_round_trip_rebuilds_w():
    spec, gates = channel_setup(3, "t")
    coeffs = AmplitudeCoefficients(spec, 0.3 - 0.2j, -0.8 + 0.1j)
    plan = plan_encoding(coeffs)
    w = build_w(plan, gates)
    payload = json.loads(json.dumps(circuit_to_json(export_circuit(plan))))
    rebuilt = build_w_from_circuit(circuit_from_json(payload), gates)
    assert np.abs(rebuilt - w).max() <= 1e-12


def test_circuit_from_json_validation():
    spec, gates = channel_setup(2)
    payload = circuit_to_json(export_circuit(plan_encoding(AmplitudeCoefficients(spec, 1.0, 1.0))))
    bad_version = dict(payload, version=2)
    with pytest.raises(ValueError):
        circuit_from_json(bad_version)
    bad_gates = dict(payload, gates=payload["gates"][:3])
    with pytest.raises(ValueError):
        circuit_from_json(bad_gates)
    bad_control = dict(payload, gates=[dict(g) for g in payload["gates"]])
    bad_control["gates"][1]["control_value"] = 2
    with pytest.raises(ValueError, match="control_value"):
        build_w_from_circuit(circuit_from_json(bad_control), gates)


def test_build_w_channel_mismatch():
    spec, _ = channel_setup(2)
    _, t_gates = channel_setup(2, "t")
    plan = plan_encoding(AmplitudeCoefficients(spec, 1.0, 0.0))
    with pytest.raises(ValueError):
        build_w(plan, t_gates)


@pytest.mark.parametrize("kind", ["s", "t"])
def test_block_encoding_demo_script_runs(kind):
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "block_encoding_demo.py"), "--n", "2", "--channel", kind],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "exported circuit:" in proc.stdout


def test_identity_sweep_script_runs():
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "identity_sweep.py"), "--max-n", "3"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"all checks pass at {DEFAULT_TOLERANCE:.0e}: True" in proc.stdout
