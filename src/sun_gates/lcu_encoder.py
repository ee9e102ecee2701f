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

The circuit is always four gates and one ancilla, independent of N; it is
the single definition of W.  Since Z^2 = I, it replays in the Z2 algebra to a
2x2 pair (A, B) with W = A (x) I + B (x) Z, once per plan on first read, and
only ``build_w`` forms W.
A plan keeps the ``AmplitudeCoefficients`` it was planned from, so every
function takes the plan alone and reads the amplitude, its channel and so Z
from it.  Postselection needs Z only as an action on the system register,
``ChannelSpec.apply_z``, so it holds no N^2 x N^2 array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from .invariant_channels import AmplitudeCoefficients
from .sun_algebra import DEFAULT_TOLERANCE, finite_array


@dataclass(frozen=True)
class BlockEncodingPlan:
    """The amplitude encoded, and the normalization, mixing angle, and phases of its ancilla circuit."""

    amplitude: AmplitudeCoefficients
    alpha: float
    gamma: float
    phi_a: float
    phi_b: float

    def __post_init__(self):
        if not isinstance(self.amplitude, AmplitudeCoefficients):
            raise TypeError(f"amplitude must be an AmplitudeCoefficients, got {self.amplitude!r}")

    @cached_property
    def _pair(self) -> tuple[np.ndarray, np.ndarray]:
        """The exported circuit replayed in list order to the 2x2 pair (A, B) with W = A (x) I + B (x) Z.

        A gate (G_A, G_B) acts on (A, B) as (G_A A + G_B B, G_A B + G_B A), since
        Z^2 = I.  An ``ry`` gate is (R_y(theta), 0); a controlled gate leaves the
        other ancilla value alone and multiplies its own, |c><c| with
        c = ``control_value``, by e^{i phase} times its target, I or Z.
        """
        a, b = np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
        for gate in export_circuit(self)["gates"]:
            if gate["name"] == "ry":
                c, s = np.cos(gate["theta"] / 2.0), np.sin(gate["theta"] / 2.0)
                g_a, g_b = np.array([[c, -s], [s, c]], dtype=complex), np.zeros((2, 2))
            else:
                chosen = np.diag(np.eye(2)[gate["control_value"]])
                other, phased = np.eye(2) - chosen, np.exp(1j * gate["phase"]) * chosen
                g_a, g_b = (other + phased, np.zeros((2, 2))) if gate["name"] == "cs_identity" else (other, phased)
            a, b = g_a @ a + g_b @ b, g_a @ b + g_b @ a
        return a, b


@dataclass(frozen=True)
class BlockEncodingReport:
    """Deviations of the encoding circuit: its block from M / alpha, and W from unitarity."""

    block_identity_deviation: float
    w_unitarity_deviation: float


@dataclass(frozen=True)
class PostselectionResult:
    """State and success probability after projecting the ancilla onto |0>.

    ``annihilated`` flags amplitudes that send the input to zero, in which
    case ``state`` is the zero vector.
    """

    state: np.ndarray
    success_probability: float
    annihilated: bool


def plan_encoding(coeffs: AmplitudeCoefficients) -> BlockEncodingPlan:
    """Derive (alpha, gamma, phi_a, phi_b) from the amplitude coefficients.

    alpha = |a| + |b| and gamma = arccos(sqrt(|a| / alpha)); a vanishing
    coefficient gets phase 0 by convention (its gate is never activated).

    Raises
    ------
    ValueError
        If both coefficients vanish, which leaves the encoding undefined.
    OverflowError
        If alpha of two finite coefficients exceeds the float range.
    """
    abs_a, abs_b = abs(coeffs.a), abs(coeffs.b)
    alpha = abs_a + abs_b
    if alpha == 0.0:
        raise ValueError("cannot encode the zero amplitude (a = b = 0)")
    if not np.isfinite(alpha):
        raise OverflowError("alpha = |a| + |b| overflows")
    gamma = float(np.arccos(min(1.0, np.sqrt(abs_a / alpha))))
    phi_a = float(np.angle(coeffs.a)) if abs_a > 0.0 else 0.0
    phi_b = float(np.angle(coeffs.b)) if abs_b > 0.0 else 0.0
    return BlockEncodingPlan(amplitude=coeffs, alpha=alpha, gamma=gamma, phi_a=phi_a, phi_b=phi_b)


def build_w(plan: BlockEncodingPlan) -> np.ndarray:
    """Assemble the dense ancilla-system unitary W = A (x) I + B (x) Z from the replayed circuit."""
    a, b = plan._pair
    return np.kron(a, plan.amplitude.channel.s_identity) + np.kron(b, plan.amplitude.channel.z_gate)


def verify_block(plan: BlockEncodingPlan) -> BlockEncodingReport:
    """Deviations of the plan's circuit from its amplitude a * identity + b * Z, on 2x2 arrays alone.

    With W = A (x) I + B (x) Z, the top-left block is A_00 I + B_00 Z, so the
    block identity deviation is max(|A_00 - a / alpha|, |B_00 - b / alpha|).
    Z = P+ - P- is a Hermitian involution, so W = W+ (x) P+ + W- (x) P- with
    W+- = A +- B, and the unitarity deviation is max over +- of |W+-^dagger W+- - I|.
    """
    a, b = plan._pair
    # divide re and im apart: complex division multiplies by 1 / alpha, which overflows for a subnormal alpha
    block = max(abs(top - complex(c.real / plan.alpha, c.imag / plan.alpha))
                for top, c in ((a[0, 0], plan.amplitude.a), (b[0, 0], plan.amplitude.b)))
    unitarity = max(float(np.abs(w.conj().T @ w - np.eye(2)).max()) for w in (a + b, a - b))
    return BlockEncodingReport(block_identity_deviation=float(block), w_unitarity_deviation=unitarity)


def apply_with_postselection(plan: BlockEncodingPlan, psi: np.ndarray) -> PostselectionResult:
    """Run the encoding circuit on |0> (x) |psi> and postselect ancilla |0>.

    The surviving branch is A_00 psi + B_00 Z psi = M psi / alpha, so the
    success probability is || M psi ||^2 / alpha^2 and the state is M psi
    normalized, realizing the amplitude on the system register.
    """
    d = plan.amplitude.channel.n ** 2
    psi = finite_array("psi", psi, (d,))
    with np.errstate(over="ignore"):  # a finite state's norm can still overflow to inf, which the check rejects
        norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= DEFAULT_TOLERANCE:
        raise ValueError(f"input state must be normalized and finite, got norm {norm}")
    a, b = plan._pair
    branch = a[0, 0] * psi + b[0, 0] * plan.amplitude.channel.apply_z(psi)
    probability = float(np.linalg.norm(branch) ** 2)
    annihilated = probability <= 1e-24
    state = np.zeros(d, dtype=complex) if annihilated else branch / np.linalg.norm(branch)
    return PostselectionResult(state=state, success_probability=probability, annihilated=annihilated)


def export_circuit(plan: BlockEncodingPlan) -> dict[str, Any]:
    """The plan's four-gate circuit as a plain dict, ready for ``json.dump``.

    ``gates`` lists the gates in application order: ancilla rotation
    R_y(2 gamma), the Z gate controlled on ancilla value 1, the identity gate
    controlled on ancilla value 0, and the closing rotation R_y(-2 gamma).
    """
    return {
        "version": 1,
        "n": plan.amplitude.channel.n,
        "channel": plan.amplitude.channel.kind.value,
        "alpha": plan.alpha,
        "gates": [
            {"name": "ry", "target": "ancilla", "theta": 2.0 * plan.gamma},
            {"name": "cz_gate", "control_value": 1, "phase": plan.phi_b},
            {"name": "cs_identity", "control_value": 0, "phase": plan.phi_a},
            {"name": "ry", "target": "ancilla", "theta": -2.0 * plan.gamma},
        ],
    }
