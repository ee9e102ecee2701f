"""Independent oracles for the CLI payloads, computed with numpy and no sun_gates code.

Each ``check_*`` function takes the text a command printed and the inputs the
benchmark gave it, raises ``OracleError`` on the first defect, and returns the
deviations it measured, keyed by precision family.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

EXACT = 1e-12

GENERATOR_CHECKS = (
    "generator_hermiticity", "generator_tracelessness", "generator_orthonormality", "completeness_identity",
)
CHANNEL_CHECKS = (
    "projector_idempotence", "projector_orthogonality", "projector_completeness", "projector_traces",
    "projector_generator_form", "gate_unitarity", "gate_involution", "gate_hermiticity",
)
CROSSING_CHECKS = (
    "crossing_row_identity", "crossing_row_swap", "crossing_coefficient_round_trip",
    "crossing_operator_consistency",
)
# The 28 checks ``verify`` runs with both channels.
VERIFY_CHECKS = frozenset(
    GENERATOR_CHECKS
    + tuple(f"{name}[{tag}]" for tag in "st" for name in CHANNEL_CHECKS)
    + ("swap_action", "u_spectrum", "u_exponential_form")
    + CROSSING_CHECKS
    + ("decompose_round_trip",)
)


class OracleError(ValueError):
    """A payload disagrees with what the oracle computed."""


def _reject_constant(token: str):
    raise OracleError(f"non-strict JSON token {token}")


def strict_json(text: str):
    """Parse JSON, rejecting the NaN and Infinity tokens Python's encoder emits."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise OracleError(f"payload is not JSON: {exc}") from exc


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def _number(value, name: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), f"{name} is not a number: {value!r}")
    return float(value)


def _deviation(value, name: str) -> float:
    """A reported deviation, which must lie in [0, EXACT]."""
    value = _number(value, name)
    _expect(0.0 <= value <= EXACT, f"{name} = {value!r} exceeds {EXACT}")
    return value


def _close(got, want: float, name: str) -> float:
    """|got - want|, which must be within EXACT relative to max(1, |want|)."""
    dev = abs(_number(got, name) - want)
    _expect(dev <= EXACT * max(1.0, abs(want)), f"{name} = {got!r}, expected {want!r}")
    return dev


def _complex(pair, name: str) -> complex:
    _expect(isinstance(pair, list) and len(pair) == 2, f"{name} is not a [re, im] pair: {pair!r}")
    return complex(pair[0], pair[1])


def verify_family(check_name: str) -> str:
    """Precision family a ``verify`` check belongs to."""
    if check_name in GENERATOR_CHECKS:
        return "generator"
    if check_name.startswith("projector_"):
        return "projector"
    if check_name.startswith("gate_") or check_name == "swap_action":
        return "gate"
    if check_name.startswith("u_"):
        return "charge_parity"
    if check_name.startswith("crossing_"):
        return "crossing"
    return "decompose"


def check_verify(text: str, n: int, seed: int) -> dict[str, float]:
    """``verify --n n --tolerance 1e-12 --seed seed`` with both channels."""
    payload = strict_json(text)
    _expect(payload.get("n") == n and payload.get("seed") == seed, "payload echoes the wrong n or seed")
    _expect(payload.get("channel") == "both", f"channel {payload.get('channel')!r}, expected both")
    _expect(payload.get("all_passed") is True, "all_passed is not true")
    checks = payload.get("checks")
    _expect(isinstance(checks, list), "checks missing")
    names = [c.get("name") for c in checks]
    _expect(len(names) == len(VERIFY_CHECKS) and set(names) == VERIFY_CHECKS,
            f"check names differ from the expected 28: {sorted(set(names) ^ VERIFY_CHECKS)}")
    families: dict[str, float] = {}
    for check in checks:
        _expect(check.get("passed") is True, f"{check['name']} did not pass")
        dev = _deviation(check.get("max_deviation"), check["name"])
        family = verify_family(check["name"])
        families[family] = max(families.get(family, 0.0), dev)
    spectrum = next(c for c in checks if c["name"] == "u_spectrum")
    want = f"multiplicities +1 x1, -1 x{n * n - 1}"
    _expect(spectrum.get("detail") == want, f"u_spectrum detail {spectrum.get('detail')!r}, expected {want!r}")
    return families


def swap_or_parity(psi: np.ndarray, n: int, channel: str) -> np.ndarray:
    """Z psi in O(N^2): the swap in the s channel, 2<s|psi>|s> - psi in the t channel."""
    if channel == "s":
        return psi.reshape(n, n).T.reshape(n * n)
    singlet = np.eye(n).reshape(n * n) / math.sqrt(n)
    return 2.0 * np.vdot(singlet, psi) * singlet - psi


def check_encode(text: str, n: int, channel: str, a: complex, b: complex, psi: list[float]) -> dict[str, float]:
    """``encode`` with coefficients (a, b) and input state psi."""
    payload = strict_json(text)
    alpha = abs(a) + abs(b)
    gamma = math.acos(math.sqrt(abs(a) / alpha))
    _close(payload.get("alpha"), alpha, "alpha")
    _close(payload.get("gamma"), gamma, "gamma")
    _close(payload.get("phi_a"), math.atan2(a.imag, a.real), "phi_a")
    _close(payload.get("phi_b"), math.atan2(b.imag, b.real), "phi_b")
    circuit = payload.get("circuit")
    _expect(isinstance(circuit, dict), "circuit missing")
    _expect(circuit.get("n") == n and circuit.get("channel") == channel, "circuit is for the wrong n or channel")
    _close(circuit.get("alpha"), alpha, "circuit alpha")
    gates = circuit.get("gates")
    _expect(isinstance(gates, list) and len(gates) == 4, "circuit does not have 4 gates")
    names = [g.get("name") for g in gates]
    _expect(names == ["ry", "cz_gate", "cs_identity", "ry"], f"unexpected gate sequence {names}")
    _close(gates[0].get("theta"), 2.0 * gamma, "opening rotation")
    _close(gates[3].get("theta"), -2.0 * gamma, "closing rotation")
    found = {
        "block_identity": _deviation(payload.get("block_identity_deviation"), "block_identity_deviation"),
        "w_unitarity": _deviation(payload.get("w_unitarity_deviation"), "w_unitarity_deviation"),
    }
    state = np.asarray(psi, dtype=float)
    m_psi = a * state + b * swap_or_parity(state, n, channel)
    probability = float(np.vdot(m_psi, m_psi).real) / alpha ** 2
    found["postselection"] = _close(payload.get("postselection_probability"), probability,
                                    "postselection_probability")
    _expect(payload.get("postselection_annihilated") is False, "postselection_annihilated is not false")
    _expect(payload.get("all_passed") is True, "all_passed is not true")
    return found


def check_generators(text: str, n: int) -> dict[str, float]:
    """``generators --n n``: the matrices themselves satisfy the su(N) identities."""
    payload = strict_json(text)
    _expect(payload.get("n") == n and payload.get("generator_count") == n * n - 1, "wrong generator count")
    _expect(payload.get("all_passed") is True, "all_passed is not true")
    for key in ("hermiticity", "tracelessness", "orthonormality", "completeness"):
        _deviation(payload.get(f"{key}_max_deviation"), f"{key}_max_deviation")
    raw = np.asarray(payload.get("generators"), dtype=float)
    _expect(raw.shape == (n * n - 1, n, n, 2), f"generators have shape {raw.shape}")
    t = raw[..., 0] + 1j * raw[..., 1]
    eye = np.eye(n)
    deviations = [
        np.abs(t - t.conj().transpose(0, 2, 1)).max(),
        np.abs(np.einsum("aii->a", t)).max(),
        np.abs(np.einsum("aij,bji->ab", t, t) - np.eye(n * n - 1) / 2.0).max(),
        np.abs(np.einsum("aij,akl->ijkl", t, t)
               - 0.5 * (np.einsum("il,jk->ijkl", eye, eye) - np.einsum("ij,kl->ijkl", eye, eye) / n)).max(),
    ]
    worst = float(max(deviations))
    _expect(worst <= EXACT, f"generator identities fail by {worst}")
    return {"generator": worst}


def check_cross(text: str, n: int, a: complex, b: complex) -> dict[str, float]:
    """``cross`` from the s channel: (a, b) maps to (N a / 2 + b, N a / 2)."""
    payload = strict_json(text)
    _expect(payload.get("source_channel") == "s" and payload.get("target_channel") == "t", "wrong channels")
    want_a, want_b = n * a / 2.0 + b, n * a / 2.0
    got_a = _complex(payload.get("a_crossed"), "a_crossed")
    got_b = _complex(payload.get("b_crossed"), "b_crossed")
    dev = max(abs(got_a - want_a), abs(got_b - want_b))
    _expect(dev <= EXACT * max(1.0, abs(want_a), abs(want_b)), f"crossed coefficients off by {dev}")
    found = {"crossing": dev}
    for key in ("operator_consistency_deviation", "round_trip_deviation"):
        found["crossing"] = max(found["crossing"], _deviation(payload.get(key), key))
    _expect(payload.get("all_passed") is True, "all_passed is not true")
    return found


DISK_HEADER = ["theta", "phi", "re_a", "im_a", "re_b", "im_b", "norm_sq"]


def check_disk(text: str, resolution: int) -> dict[str, float]:
    """``disk --resolution r``: r^2 CSV rows inside the unit coefficient disk."""
    rows = list(csv.reader(io.StringIO(text)))
    _expect(rows and rows[0] == DISK_HEADER, "disk CSV header is wrong")
    _expect(len(rows) - 1 == resolution ** 2, f"{len(rows) - 1} disk rows, expected {resolution ** 2}")
    for row in rows[1:]:
        _expect(len(row) == 7, f"disk row has {len(row)} fields")
        values = [float(v) for v in row]
        _expect(all(math.isfinite(v) for v in values), f"non-finite disk row {row}")
        norm_sq = values[2] ** 2 + values[3] ** 2 + values[4] ** 2 + values[5] ** 2
        _close(values[6], norm_sq, "norm_sq")
        _expect(values[6] <= 1.0 + EXACT, f"disk sample outside the unit disk: {values[6]}")
    return {}


def check_partial_wave(text: str, sectors: list[tuple[int, complex, complex, float]]) -> dict[str, float]:
    """``partial-wave``: every sector's norm and eigenvalues, all inside the bound."""
    payload = strict_json(text)
    tolerance = payload.get("tolerance")
    _expect(isinstance(tolerance, float) and tolerance > 0, f"bad tolerance {tolerance!r}")
    reported = payload.get("sectors")
    _expect(isinstance(reported, list) and len(reported) == len(sectors), "wrong sector count")
    for (j, a, b, kappa), got in zip(sectors, reported):
        _expect(got.get("j") == j, f"sector j {got.get('j')!r}, expected {j}")
        _close(got.get("norm_sq"), abs(a) ** 2 + abs(b) ** 2, f"norm_sq of sector {j}")
        _expect(got.get("bound_satisfied") is True, f"sector {j} reported outside the bound")
        _expect(got.get("elastic_saturation") is False, f"sector {j} reported saturated")
        for key, eigen, flag in (("eigen_plus", 1 + 1j * kappa * (a + b), 0),
                                 ("eigen_minus", 1 + 1j * kappa * (a - b), 1)):
            got_eigen = _complex(got.get(key), key)
            _expect(abs(got_eigen - eigen) <= EXACT * max(1.0, abs(eigen)), f"{key} of sector {j} is off")
            if abs(abs(eigen) - (1.0 + tolerance)) > 1e-9:
                _expect(got["in_unit_disk"][flag] is (abs(eigen) <= 1.0 + tolerance),
                        f"in_unit_disk[{flag}] of sector {j} is wrong")
    _expect(payload.get("all_bounds_satisfied") is True, "all_bounds_satisfied is not true")
    return {}
