"""One-ancilla block encoding of invariant amplitudes.

An amplitude M = a * identity + b * Z is a linear combination of two unitaries,
so M / alpha with alpha = |a| + |b| embeds as the top-left block of the
(2 N^2) x (2 N^2) unitary

    W = (R_y(-2 gamma) (x) I) [ |0><0| (x) U_I + |1><1| (x) U_Z ] (R_y(2 gamma) (x) I),

where U_I = e^{i phi_a} * identity, U_Z = e^{i phi_b} * Z absorb the
coefficient phases, cos(gamma) = sqrt(|a| / alpha), and the ancilla qubit is
the most significant tensor factor (state index = ancilla * N^2 + system).

R_y convention: R_y(t) = [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]].  Other
sign conventions change only unobservable phases; the block identity
(<0| (x) I) W (|0> (x) I) = M / alpha is what this module guarantees.

The circuit is always four gates and one ancilla, independent of N.  It is the
single definition of W: ``build_w`` and postselection both replay
``export_circuit``'s gates, postselection on |0> (x) |psi> alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .amplitude_model import AmplitudeCoefficients
from .invariant_channels import ChannelSpec, GateSet
from .sun_algebra import DEFAULT_TOLERANCE


@dataclass(frozen=True)
class BlockEncodingPlan:
    """Normalization, mixing angle, and phases of the ancilla circuit."""

    channel: ChannelSpec
    alpha: float
    gamma: float
    phi_a: float
    phi_b: float


@dataclass(frozen=True)
class BlockEncodingReport:
    """Deviation of the extracted block from the target amplitude."""

    max_deviation: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class PostselectionResult:
    """State and success probability after projecting the ancilla onto |0>.

    ``annihilated`` flags amplitudes that send the input to zero, in which
    case ``state`` is the zero vector.
    """

    state: np.ndarray
    success_probability: float
    annihilated: bool


@dataclass(frozen=True)
class CircuitDescription:
    """Serializable four-gate description of the encoding circuit.

    ``gates`` lists dicts in application order: ancilla rotation R_y(2 gamma),
    the Z gate controlled on ancilla value 1, the identity gate controlled on
    ancilla value 0, and the closing rotation R_y(-2 gamma).
    """

    n: int
    channel: str
    alpha: float
    gates: list[dict[str, Any]]


def ry(theta: float) -> np.ndarray:
    """Real 2x2 rotation R_y(theta) about the ancilla y axis."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def plan_encoding(coeffs: AmplitudeCoefficients) -> BlockEncodingPlan:
    """Derive (alpha, gamma, phi_a, phi_b) from the amplitude coefficients.

    alpha = |a| + |b| and gamma = arccos(sqrt(|a| / alpha)); a vanishing
    coefficient gets phase 0 by convention (its gate is never activated).

    Raises
    ------
    ValueError
        If both coefficients vanish, which leaves the encoding undefined.
    """
    abs_a, abs_b = abs(coeffs.a), abs(coeffs.b)
    alpha = abs_a + abs_b
    if alpha == 0.0:
        raise ValueError("cannot encode the zero amplitude (a = b = 0)")
    gamma = float(np.arccos(min(1.0, np.sqrt(abs_a / alpha))))
    phi_a = float(np.angle(coeffs.a)) if abs_a > 0.0 else 0.0
    phi_b = float(np.angle(coeffs.b)) if abs_b > 0.0 else 0.0
    return BlockEncodingPlan(channel=coeffs.channel, alpha=alpha, gamma=gamma, phi_a=phi_a, phi_b=phi_b)


def build_w(plan: BlockEncodingPlan, gates: GateSet) -> np.ndarray:
    """Assemble the full ancilla-system unitary W by replaying the plan's circuit on the identity."""
    return _run_circuit(export_circuit(plan), gates, np.eye(2 * gates.channel.n ** 2, dtype=complex))


def verify_block(w: np.ndarray, m: np.ndarray, alpha: float, tolerance: float) -> BlockEncodingReport:
    """Compare the top-left block of W against M / alpha."""
    d = m.shape[0]
    if w.shape[0] != 2 * d or w.shape[1] != 2 * d:
        raise ValueError(f"expected W of shape ({2*d}, {2*d}), got {w.shape}")
    # divide re and im apart: complex division multiplies by 1 / alpha, which overflows for a subnormal alpha
    deviation = float(np.abs(w[:d, :d] - (m.real / alpha + 1j * (m.imag / alpha))).max())
    return BlockEncodingReport(max_deviation=deviation, tolerance=tolerance, passed=deviation <= tolerance)


def apply_with_postselection(
    plan: BlockEncodingPlan, gates: GateSet, psi: np.ndarray
) -> PostselectionResult:
    """Run the encoding circuit on |0> (x) |psi> and postselect ancilla |0>.

    The success probability is || M psi ||^2 / alpha^2 and the surviving state
    is M psi normalized, realizing the amplitude on the system register.
    """
    psi = np.asarray(psi, dtype=complex)
    d = plan.channel.n ** 2
    if psi.shape != (d,):
        raise ValueError(f"expected a state vector of length {d}, got shape {psi.shape}")
    norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= DEFAULT_TOLERANCE:
        raise ValueError(f"input state must be normalized and finite, got norm {norm}")
    branch = _run_circuit(export_circuit(plan), gates, np.concatenate([psi, np.zeros_like(psi)]))[:d]
    probability = float(np.linalg.norm(branch) ** 2)
    annihilated = probability <= 1e-24
    state = np.zeros(d, dtype=complex) if annihilated else branch / np.linalg.norm(branch)
    return PostselectionResult(state=state, success_probability=probability, annihilated=annihilated)


def export_circuit(plan: BlockEncodingPlan) -> CircuitDescription:
    """Emit the four-gate circuit description of the plan."""
    return CircuitDescription(
        n=plan.channel.n,
        channel=plan.channel.kind.value,
        alpha=plan.alpha,
        gates=[
            {"name": "ry", "target": "ancilla", "theta": 2.0 * plan.gamma},
            {"name": "cz_gate", "control_value": 1, "phase": plan.phi_b},
            {"name": "cs_identity", "control_value": 0, "phase": plan.phi_a},
            {"name": "ry", "target": "ancilla", "theta": -2.0 * plan.gamma},
        ],
    )


def circuit_to_json(desc: CircuitDescription) -> dict[str, Any]:
    """Plain-dict form of the circuit, ready for ``json.dump``."""
    return {
        "version": 1,
        "n": desc.n,
        "channel": desc.channel,
        "alpha": desc.alpha,
        "gates": [dict(g) for g in desc.gates],
    }


def _run_circuit(desc: CircuitDescription, gates: GateSet, x: np.ndarray) -> np.ndarray:
    """Apply the circuit's gates in list order to the columns of ``x``.

    ``x`` has 2 N^2 rows and is viewed as (ancilla, system, column).  An ``ry``
    gate mixes the two ancilla halves; a controlled gate replaces the half
    selected by ``control_value`` with e^{i phase} * target @ half.
    """
    if desc.channel != gates.channel.kind.value or desc.n != gates.channel.n:
        raise ValueError(
            f"circuit is for channel {desc.channel!r} at N={desc.n}, "
            f"gates are for {gates.channel}"
        )
    targets = {"cz_gate": gates.z_gate, "cs_identity": gates.s_identity}
    state = np.array(x, dtype=complex).reshape(2, desc.n ** 2, -1)
    for gate in desc.gates:
        if gate["name"] == "ry":
            state = np.tensordot(ry(gate["theta"]), state, axes=1)
        else:
            half = gate["control_value"]
            state[half] = np.exp(1j * gate["phase"]) * (targets[gate["name"]] @ state[half])
    return state.reshape(np.shape(x))
