import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sun_gates.amplitude_model import AmplitudeCoefficients, amplitude_operator
from sun_gates.invariant_channels import Channel, ChannelSpec, build_projectors
from sun_gates.lcu_encoder import (
    apply_with_postselection,
    build_w,
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
    return ChannelSpec(Channel(kind), n)


def dense_w(spec, theta, phi_a, phi_b, control_a=0, control_b=1):
    """Reference W assembled from Kronecker products, independent of the circuit replay.

    R_y(-theta) [|a><a| (x) e^{i phi_a} I + |b><b| (x) e^{i phi_b} Z] R_y(theta),
    where a and b are the control values of the identity and Z gates.
    """
    eye = np.eye(spec.n ** 2, dtype=complex)
    project = lambda value: np.diag([1.0 - value, float(value)]).astype(complex)  # noqa: E731
    select = (np.kron(project(control_a), np.exp(1j * phi_a) * spec.s_identity)
              + np.kron(project(control_b), np.exp(1j * phi_b) * spec.z_gate))
    return np.kron(ry(-theta), eye) @ select @ np.kron(ry(theta), eye)


def test_plan_pure_identity():
    spec = channel_setup(2)
    plan = plan_encoding(AmplitudeCoefficients(spec, 1.0, 0.0))
    assert plan.alpha == 1.0
    assert plan.gamma == 0.0
    assert plan.phi_a == 0.0 and plan.phi_b == 0.0


def test_plan_equal_weights_is_hadamard_angle():
    spec = channel_setup(2)
    plan = plan_encoding(AmplitudeCoefficients(spec, 0.5, 0.5))
    assert abs(plan.gamma - np.pi / 4) <= 1e-15


def test_plan_mixed_phases():
    spec = channel_setup(2)
    plan = plan_encoding(AmplitudeCoefficients(spec, 0.6, 0.8j))
    assert abs(plan.alpha - 1.4) <= 1e-15
    assert abs(np.cos(plan.gamma) ** 2 - 3.0 / 7.0) <= 1e-15
    assert plan.phi_a == 0.0
    assert abs(plan.phi_b - np.pi / 2) <= 1e-15


def test_plan_rejects_zero_amplitude():
    spec = channel_setup(2)
    with pytest.raises(ValueError):
        plan_encoding(AmplitudeCoefficients(spec, 0.0, 0.0))


@pytest.mark.parametrize("a, b, named", [
    (float("nan"), 1.0, "coefficient a"),
    (1.0, complex(0.0, float("inf")), "coefficient b"),
    (complex(float("-inf"), 0.0), 0.0, "coefficient a"),
], ids=["nan-a", "inf-b", "minus-inf-a"])
def test_plan_rejects_non_finite_coefficient(a, b, named):
    # a nan or inf is bad input, not an overflow of alpha
    with pytest.raises(ValueError, match=f"{named} must be finite"):
        plan_encoding(AmplitudeCoefficients(channel_setup(2), a, b))


def test_plan_overflow_of_finite_coefficients():
    with pytest.raises(OverflowError, match="overflows"):
        plan_encoding(AmplitudeCoefficients(channel_setup(2), 1e308, 1e308))


@given(ab=nonzero_pairs)
def test_plan_angle_splits_weights(ab):
    a, b = ab
    spec = channel_setup(2)
    plan = plan_encoding(AmplitudeCoefficients(spec, a, b))
    assert abs(plan.alpha - (abs(a) + abs(b))) <= 1e-12
    assert abs(np.cos(plan.gamma) ** 2 - abs(a) / plan.alpha) <= 1e-12
    assert abs(np.sin(plan.gamma) ** 2 - abs(b) / plan.alpha) <= 1e-12


def test_ry_convention():
    m = ry(np.pi / 2)
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(m, [[s, -s], [s, s]], atol=1e-15)


def test_block_of_identity_plan_is_identity_gate():
    spec = channel_setup(3)
    plan = plan_encoding(AmplitudeCoefficients(spec, 1.0, 0.0))
    w = build_w(plan)
    np.testing.assert_allclose(w[:9, :9], np.eye(9), atol=1e-14)


def test_block_of_equal_weights_is_symmetric_projector():
    spec = channel_setup(2)
    p_plus, _ = build_projectors(spec)
    plan = plan_encoding(AmplitudeCoefficients(spec, 0.5, 0.5))
    w = build_w(plan)
    assert np.abs(w[:4, :4] - p_plus).max() <= 1e-12


def test_equal_weight_block_with_phases():
    # |a| = |b| gives gamma = pi/4 and the block (e^{i phi_a} I + e^{i phi_b} Z)/2
    spec = channel_setup(3, "t")
    plan = plan_encoding(AmplitudeCoefficients(spec, 0.5j, -0.5))
    assert abs(plan.gamma - np.pi / 4) <= 1e-15
    w = build_w(plan)
    expected = (1j * spec.s_identity - spec.z_gate) / 2.0
    assert np.abs(w[:9, :9] - expected).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["s", "t"])
def test_w_is_unitary(n, kind):
    spec = channel_setup(n, kind)
    rng = np.random.default_rng(5 * n)
    for _ in range(5):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        plan = plan_encoding(AmplitudeCoefficients(spec, a, b))
        w = build_w(plan)
        assert np.abs(w.conj().T @ w - np.eye(2 * n * n)).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["s", "t"])
def test_block_identity_random_amplitudes(n, kind):
    spec = channel_setup(n, kind)
    rng = np.random.default_rng(19 + n)
    for _ in range(20):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        coeffs = AmplitudeCoefficients(spec, a, b)
        plan = plan_encoding(coeffs)
        w = build_w(plan)
        m = amplitude_operator(coeffs)
        assert np.abs(w[:n * n, :n * n] - m / plan.alpha).max() <= 1e-12
        report = verify_block(plan, coeffs, tolerance=1e-12)
        assert report.passed, report


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["s", "t"])
def test_replayed_w_matches_dense_formula(n, kind):
    spec = channel_setup(n, kind)
    rng = np.random.default_rng(31 * n)
    for _ in range(5):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        plan = plan_encoding(AmplitudeCoefficients(spec, a, b))
        reference = dense_w(spec, 2.0 * plan.gamma, plan.phi_a, plan.phi_b)
        assert np.abs(build_w(plan) - reference).max() <= 1e-12


def off_angle(plan):
    """The plan with its mixing angle moved by 0.1: W stays unitary, its block is wrong."""
    return type(plan)(channel=plan.channel, alpha=plan.alpha, gamma=plan.gamma + 0.1,
                      phi_a=plan.phi_a, phi_b=plan.phi_b)


def test_verify_block_trivial_and_corrupted():
    spec = channel_setup(2)
    identity = AmplitudeCoefficients(spec, 1.0, 0.0)
    eye_block = verify_block(plan_encoding(identity), identity, 1e-12)
    assert eye_block.passed
    assert eye_block.block_identity_deviation == 0.0 and eye_block.w_unitarity_deviation == 0.0
    coeffs = AmplitudeCoefficients(spec, 0.3 + 0.1j, 0.7)
    report = verify_block(off_angle(plan_encoding(coeffs)), coeffs, tolerance=1e-12)
    assert not report.passed
    assert report.block_identity_deviation > 1e-3
    assert report.w_unitarity_deviation <= 1e-12


def test_verify_block_channel_mismatch():
    spec = channel_setup(2)
    plan = plan_encoding(AmplitudeCoefficients(spec, 1.0, 0.0))
    with pytest.raises(ValueError):
        verify_block(plan, AmplitudeCoefficients(ChannelSpec(Channel.T, 2), 1.0, 0.0), 1e-12)


@settings(max_examples=40, deadline=None)
@given(ab=nonzero_pairs, n=st.integers(2, 4), kind=st.sampled_from(["s", "t"]))
def test_z2_replay_matches_dense_w(ab, n, kind):
    # the 2x2 replay against the Kronecker-product W: same matrix, same verdicts on the good and the off-angle plan
    spec = channel_setup(n, kind)
    coeffs = AmplitudeCoefficients(spec, *ab)
    plan = plan_encoding(coeffs)
    assert np.abs(build_w(plan) - dense_w(spec, 2.0 * plan.gamma, plan.phi_a, plan.phi_b)).max() <= 1e-12
    m = amplitude_operator(coeffs)
    d, eye = n * n, np.eye(2 * n * n)
    candidates = [(plan, True)]
    # at 2 gamma + 0.1 = pi the shifted angle has the same cos^2 and sin^2, so the block does not move
    if abs(2.0 * plan.gamma + 0.1 - np.pi) > 1e-6:
        candidates.append((off_angle(plan), False))
    for candidate, good in candidates:
        w = dense_w(spec, 2.0 * candidate.gamma, candidate.phi_a, candidate.phi_b)
        dense_block = np.abs(w[:d, :d] - m / plan.alpha).max() <= 1e-12
        dense_unitary = np.abs(w.conj().T @ w - eye).max() <= 1e-12
        report = verify_block(candidate, coeffs, 1e-12)
        assert (report.block_identity_deviation <= 1e-12) == dense_block == good
        assert (report.w_unitarity_deviation <= 1e-12) == dense_unitary
        assert report.w_unitarity_deviation <= 1e-12
        assert report.passed == good


def test_verify_block_at_subnormal_alpha():
    # complex division by alpha = 1e-323 multiplies by 1 / alpha, which overflows
    spec = channel_setup(2)
    coeffs = AmplitudeCoefficients(spec, 5e-324, 5e-324j)
    plan = plan_encoding(coeffs)
    assert plan.alpha == 1e-323
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        report = verify_block(plan, coeffs, 1e-12)
    assert report.passed


def test_postselection_identity_leaves_state():
    spec = channel_setup(2)
    plan = plan_encoding(AmplitudeCoefficients(spec, 1.0, 0.0))
    psi = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    result = apply_with_postselection(plan, psi)
    assert abs(result.success_probability - 1.0) <= 1e-12
    assert np.abs(result.state - psi).max() <= 1e-12


def test_postselection_swaps_basis_state():
    spec = channel_setup(2)
    plan = plan_encoding(AmplitudeCoefficients(spec, 0.0, 1.0))
    psi01 = np.array([0, 1, 0, 0], dtype=complex)
    result = apply_with_postselection(plan, psi01)
    assert abs(result.success_probability - 1.0) <= 1e-12
    expected = np.array([0, 0, 1, 0], dtype=complex)
    assert np.abs(result.state - expected).max() <= 1e-12


def test_postselection_annihilates_antisymmetric_state():
    spec = channel_setup(2)
    plan = plan_encoding(AmplitudeCoefficients(spec, 0.5, 0.5))
    anti = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    result = apply_with_postselection(plan, anti)
    assert result.annihilated
    assert result.success_probability <= 1e-24
    assert np.abs(result.state).max() == 0.0


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["s", "t"])
def test_postselection_probability_matches_direct_application(n, kind):
    spec = channel_setup(n, kind)
    rng = np.random.default_rng(23 * n)
    for _ in range(10):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        coeffs = AmplitudeCoefficients(spec, a, b)
        plan = plan_encoding(coeffs)
        psi = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
        psi /= np.linalg.norm(psi)
        result = apply_with_postselection(plan, psi)
        # independent oracle: plain matrix application, no ancilla machinery
        m_psi = amplitude_operator(coeffs) @ psi
        expected = float(np.linalg.norm(m_psi) ** 2 / plan.alpha ** 2)
        assert abs(result.success_probability - expected) <= 1e-12
        assert np.abs(result.state - m_psi / np.linalg.norm(m_psi)).max() <= 1e-12


def test_postselection_never_builds_w():
    n = 8
    spec = channel_setup(n, "t")
    plan = plan_encoding(AmplitudeCoefficients(spec, 0.4 + 0.3j, -0.9))
    psi = np.full(n * n, 1.0 / n, dtype=complex)
    w_bytes = (2 * n * n) ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        apply_with_postselection(plan, psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < w_bytes / 8, (peak, w_bytes)


def test_postselection_rejects_unnormalized_state():
    spec = channel_setup(2)
    plan = plan_encoding(AmplitudeCoefficients(spec, 1.0, 0.0))
    with pytest.raises(ValueError):
        apply_with_postselection(plan, np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_postselection_rejects_non_finite_state(bad):
    spec = channel_setup(2)
    plan = plan_encoding(AmplitudeCoefficients(spec, 1.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        apply_with_postselection(plan, np.array([bad, 0.0, 0.0, 0.0], dtype=complex))


def test_exported_circuit_structure():
    spec = channel_setup(2)
    gates = export_circuit(plan_encoding(AmplitudeCoefficients(spec, 1.0, 0.0)))["gates"]
    assert [g["name"] for g in gates] == ["ry", "cz_gate", "cs_identity", "ry"]
    assert gates[0]["theta"] == 0.0 and gates[3]["theta"] == 0.0
    assert gates[1]["control_value"] == 1
    assert gates[2]["control_value"] == 0
    assert gates[2]["phase"] == 0.0


def test_exported_equal_weights_rotation_angle():
    spec = channel_setup(2)
    gates = export_circuit(plan_encoding(AmplitudeCoefficients(spec, 0.5, 0.5)))["gates"]
    assert abs(gates[0]["theta"] - np.pi / 2) <= 1e-15


def test_circuit_json_schema_fields():
    spec = channel_setup(3, "t")
    payload = export_circuit(plan_encoding(AmplitudeCoefficients(spec, 0.2j, 0.4)))
    assert list(payload.keys()) == ["version", "n", "channel", "alpha", "gates"]
    assert payload["version"] == 1
    assert payload["n"] == 3
    assert payload["channel"] == "t"
    assert len(payload["gates"]) == 4
    assert payload["gates"][0] == {"name": "ry", "target": "ancilla", "theta": payload["gates"][0]["theta"]}
    # serializes through the standard json module unchanged
    assert json.loads(json.dumps(payload)) == payload


def test_circuit_of_a_numpy_integer_dimension_is_json_ready():
    # ChannelSpec keeps N as a Python int, so the circuit dict goes through json.dumps as it is
    spec = channel_setup(np.int64(2))
    payload = export_circuit(plan_encoding(AmplitudeCoefficients(spec, 1, 0)))
    assert type(payload["n"]) is int
    assert json.loads(json.dumps(payload)) == payload


def test_circuit_round_trip_rebuilds_w():
    # the emitted JSON alone (thetas, phases, control values) determines W; no plan field is read
    spec = channel_setup(3, "t")
    plan = plan_encoding(AmplitudeCoefficients(spec, 0.3 - 0.2j, -0.8 + 0.1j))
    payload = json.loads(json.dumps(export_circuit(plan)))
    opening, cz, cs, closing = payload["gates"]
    assert closing["theta"] == -opening["theta"]
    rebuilt = dense_w(spec, opening["theta"], cs["phase"], cz["phase"], cs["control_value"], cz["control_value"])
    assert np.abs(rebuilt - build_w(plan)).max() <= 1e-12


def run_script(name, *args):
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(root / "scripts" / name), *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )


@pytest.mark.parametrize("kind", ["s", "t"])
def test_block_encoding_demo_script_runs(kind):
    proc = run_script("block_encoding_demo.py", "--n", "2", "--channel", kind)
    assert proc.returncode == 0, proc.stderr
    assert "exported circuit:" in proc.stdout


@pytest.mark.parametrize("args", [["--n", "1"], ["--n", "0"], ["--n", "33"], ["--seed", "-1"]], ids="=".join)
def test_block_encoding_demo_script_rejects_bad_arguments(args):
    proc = run_script("block_encoding_demo.py", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"argument {args[0]}" in proc.stderr and repr(args[1]) in proc.stderr and "Traceback" not in proc.stderr


def test_identity_sweep_script_runs():
    proc = run_script("identity_sweep.py", "--max-n", "3")
    assert proc.returncode == 0, proc.stderr
    assert f"all checks pass at {DEFAULT_TOLERANCE:.0e}: True" in proc.stdout


@pytest.mark.parametrize("args", [["--max-n", "1"], ["--max-n", "17"], ["--seed", "-1"],
                                  ["--tolerance", "nan"], ["--tolerance", "-1"]], ids="=".join)
def test_identity_sweep_script_rejects_bad_arguments(args):
    # every bound is checked while parsing, so --max-n 17 runs no identity suite
    proc = run_script("identity_sweep.py", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"argument {args[0]}" in proc.stderr and repr(args[1]) in proc.stderr and "Traceback" not in proc.stderr
    # the script reads no environment variable, so its message names none
    assert "SUN_GATES_TOLERANCE" not in proc.stderr
