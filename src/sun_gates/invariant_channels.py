"""Channel projectors, the three invariant gates, and the crossing reshuffle.

Two scattering channels are supported on the same computational basis of
H_N (x) H_N:

* s-channel (both qudits in the fundamental): the space splits into the
  symmetric and antisymmetric subspaces, projectors P_plus / P_minus with
  traces N(N+1)/2 and N(N-1)/2.  The difference P_plus - P_minus is the swap
  gate |ij> -> |ji>.
* t-channel (fundamental (x) anti-fundamental): the space splits into the
  singlet spanned by sum_i |ii> / sqrt(N) and its (N^2-1)-dimensional adjoint
  complement, traces 1 and N^2 - 1.  The difference P_plus - P_minus is the
  charge-parity gate, +1 on the singlet and -1 on the adjoint states.

Because the second factor of the t-channel carries the conjugate
representation, its generator bilinear enters the computational basis with a
transposed second factor: the singlet/adjoint projectors are affine in
X = sum_a T^a (x) (T^a)^T, not in sum_a T^a (x) T^a.

The crossing reshuffle relating the two channel gate bases is the index
regrouping crossed[(a,b),(c,d)] = op[(a,d),(b,c)]: the first outgoing leg is a
spectator while the remaining legs are re-paired.  It was selected empirically
(see ``select_crossing_axes``) as the unique spectator-fixing permutation
satisfying both gate relations crossed(identity) = (N/2)(identity + charge
parity) and crossed(swap) = identity.  ``select_crossing_axes`` and the CLI
``verify`` suite evaluate both relations through ``crossing_row_deviations``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import permutations
from math import isqrt

import numpy as np

from .sun_algebra import GeneratorSet

#: Axes permutation (for a (N,N,N,N)-reshaped operator) implementing the
#: s -> t crossing reshuffle; select_crossing_axes re-derives it at N = 2, 3, 4.
CROSSING_AXES = (0, 2, 3, 1)
CROSSING_AXES_INVERSE = tuple(np.argsort(CROSSING_AXES).tolist())

#: Minimum eigenvalue separation used when counting spectral multiplicities.
EIGENVALUE_GAP = 1e-6


class Channel(enum.Enum):
    """Which two-particle internal space an operator lives on."""

    S = "s"  # fundamental (x) fundamental
    T = "t"  # fundamental (x) anti-fundamental


@dataclass(frozen=True)
class ChannelSpec:
    """A channel tag plus the qudit dimension it applies to."""

    kind: Channel
    n: int

    def __post_init__(self):
        if not isinstance(self.kind, Channel):
            raise TypeError(f"kind must be a Channel, got {self.kind!r}")
        if self.n < 2:
            raise ValueError(f"qudit dimension must be at least 2, got {self.n}")


def s_channel(n: int) -> ChannelSpec:
    return ChannelSpec(Channel.S, n)


def t_channel(n: int) -> ChannelSpec:
    return ChannelSpec(Channel.T, n)


@dataclass(frozen=True, eq=False)
class ProjectorSet:
    """The two irreducible-subspace projectors of a channel."""

    channel: ChannelSpec
    p_plus: np.ndarray   # symmetric (s) or singlet (t) projector
    p_minus: np.ndarray  # antisymmetric (s) or adjoint (t) projector

    def __post_init__(self):
        self.p_plus.setflags(write=False)
        self.p_minus.setflags(write=False)


@dataclass(frozen=True, eq=False)
class GateSet:
    """The invariant gate pair {identity, Z} of a channel.

    ``z_gate`` is the swap gate in the s-channel and the charge-parity gate in
    the t-channel; in both cases it is Hermitian, unitary, and squares to the
    identity, so {s_identity, z_gate} closes into a two-element group.
    """

    channel: ChannelSpec
    s_identity: np.ndarray
    z_gate: np.ndarray

    def __post_init__(self):
        self.s_identity.setflags(write=False)
        self.z_gate.setflags(write=False)


def _regroup(op: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Permute the (k, l, i, j) indices of an N^2 x N^2 operator by ``axes``."""
    n = isqrt(op.shape[0])
    return np.transpose(op.reshape(n, n, n, n), axes).reshape(n * n, n * n)


def swap_matrix(n: int) -> np.ndarray:
    """Permutation matrix sending |ij> to |ji>."""
    return _regroup(np.eye(n * n, dtype=complex), (1, 0, 2, 3))


def build_projectors(channel: ChannelSpec) -> ProjectorSet:
    """Build the channel projector pair from the delta index formulas.

    s-channel: P_plus[(i,j),(r,s)] = (d_ir d_js + d_jr d_is) / 2 and
    P_minus with the relative minus sign.  t-channel:
    P_plus[(k,i),(p,r)] = d_ki d_pr / N and
    P_minus[(k,i),(p,r)] = d_kp d_ir - d_ki d_pr / N.
    """
    n = channel.n
    eye = np.eye(n * n, dtype=complex)
    if channel.kind is Channel.S:
        swap = swap_matrix(n)
        p_plus = (eye + swap) / 2.0
        p_minus = (eye - swap) / 2.0
    else:
        vec_eye = np.eye(n, dtype=complex).reshape(n * n)
        p_plus = np.outer(vec_eye, vec_eye) / n
        p_minus = eye - p_plus
    return ProjectorSet(channel=channel, p_plus=p_plus, p_minus=p_minus)


def generator_form_projectors(channel: ChannelSpec, gens: GeneratorSet) -> tuple[np.ndarray, np.ndarray]:
    """Channel projectors rebuilt from the generator bilinear.

    s-channel, with X = sum_a T^a (x) T^a:
        P_plus = (N+1)/(2N) I + X,  P_minus = (N-1)/(2N) I - X.
    t-channel, with X = sum_a T^a (x) (T^a)^T (conjugate-representation
    pairing in the computational basis):
        P_plus = I / N^2 + (2/N) X,  P_minus = (1 - 1/N^2) I - (2/N) X.

    Returns the pair (p_plus, p_minus); agrees entrywise with
    ``build_projectors`` at machine precision.
    """
    if channel.n != gens.n:
        raise ValueError(f"channel is for N={channel.n}, generators for N={gens.n}")
    n = channel.n
    eye = np.eye(n * n, dtype=complex)
    if channel.kind is Channel.S:
        x = sum(np.kron(t, t) for t in gens)
        p_plus = (n + 1) / (2.0 * n) * eye + x
        p_minus = (n - 1) / (2.0 * n) * eye - x
    else:
        x = charge_parity_bilinear(gens)
        p_plus = eye / (n * n) + (2.0 / n) * x
        p_minus = (1.0 - 1.0 / (n * n)) * eye - (2.0 / n) * x
    return p_plus, p_minus


def charge_parity_bilinear(gens: GeneratorSet) -> np.ndarray:
    """The invariant X = sum_a T^a (x) (T^a)^T distinguishing singlet from adjoint.

    X has exactly two eigenvalues: (N^2-1)/(2N) on the singlet and -1/(2N) on
    the adjoint subspace.
    """
    return sum(np.kron(t, t.T) for t in gens)


def build_gates(channel: ChannelSpec) -> GateSet:
    """Build the invariant gate pair as sum and difference of the projectors."""
    projs = build_projectors(channel)
    return GateSet(
        channel=channel,
        s_identity=projs.p_plus + projs.p_minus,
        z_gate=projs.p_plus - projs.p_minus,
    )


def singlet_state(n: int) -> np.ndarray:
    """Normalized maximally entangled singlet sum_i |ii> / sqrt(N)."""
    if n < 2:
        raise ValueError(f"qudit dimension must be at least 2, got {n}")
    return np.eye(n, dtype=complex).reshape(n * n) / np.sqrt(n)


def adjoint_states(gens: GeneratorSet) -> np.ndarray:
    """Orthonormal basis of the adjoint subspace, one state per generator.

    Row ``a`` is the normalized vector with components sqrt(2) (T^a)_ij on
    |ij>; all rows are orthogonal to the singlet and are -1 eigenstates of the
    charge-parity gate.  The global phase of each state is fixed by making its
    first nonzero component real positive.
    """
    n = gens.n
    states = np.sqrt(2.0) * gens.generators.reshape(len(gens), n * n)
    for a in range(states.shape[0]):
        nonzero = np.flatnonzero(np.abs(states[a]) > 1e-12)
        lead = states[a, nonzero[0]]
        states[a] *= np.conj(lead) / np.abs(lead)
    return states


def u_exponential_form(gens: GeneratorSet) -> np.ndarray:
    """Charge-parity gate as the exponential of the two-eigenvalue invariant.

    Computes X = sum_a T^a (x) (T^a)^T, identifies its singlet eigenvalue l_1
    and adjoint eigenvalue l_adj, and returns exp(i pi (X - l_1)/(l_adj - l_1)),
    which applies a relative pi phase between the two eigenspaces.  The result
    equals the charge-parity gate up to a global phase.

    Raises
    ------
    ValueError
        If X has more than two eigenvalue clusters at the EIGENVALUE_GAP
        separation, which signals a wrong channel pairing.
    """
    n = gens.n
    x = charge_parity_bilinear(gens)
    evals, evecs = np.linalg.eigh(x)
    splits = np.flatnonzero(np.diff(evals) > EIGENVALUE_GAP)
    clusters = np.split(evals, splits + 1)
    if len(clusters) != 2:
        raise ValueError(
            f"expected exactly 2 eigenvalue clusters of the charge-parity "
            f"bilinear, found {len(clusters)}"
        )
    psi = singlet_state(n)
    lam_singlet = float(np.real(psi.conj() @ x @ psi))
    means = [float(c.mean()) for c in clusters]
    lam_adjoint = max(means, key=lambda m: abs(m - lam_singlet))
    phases = np.exp(1j * np.pi * (evals - lam_singlet) / (lam_adjoint - lam_singlet))
    return (evecs * phases) @ evecs.conj().T


def crossing_map(op: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Reshuffle a two-qudit operator between the two channel index pairings.

    Forward direction regroups crossed[(a,b),(c,d)] = op[(a,d),(b,c)], taking
    s-channel operators into the t-channel basis; ``inverse=True`` applies the
    inverse regrouping, recovering the original operator.
    """
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"expected a square operator, got shape {op.shape}")
    if isqrt(op.shape[0]) ** 2 != op.shape[0]:
        raise ValueError(f"operator size {op.shape[0]} is not a perfect square")
    return _regroup(op, CROSSING_AXES_INVERSE if inverse else CROSSING_AXES)


def crossing_row_deviations(s_gates: GateSet, t_gates: GateSet,
                            axes: tuple[int, ...] = CROSSING_AXES) -> tuple[float, float]:
    """Max deviations |crossed(I) - (N/2)(I + Z_t)| and |crossed(SWAP) - I| under the regrouping ``axes``."""
    n = s_gates.channel.n
    eye = np.eye(n * n, dtype=complex)
    return (float(np.abs(_regroup(s_gates.s_identity, axes) - (n / 2.0) * (eye + t_gates.z_gate)).max()),
            float(np.abs(_regroup(s_gates.z_gate, axes) - eye).max()))


def select_crossing_axes(n: int, tolerance: float = 1e-12) -> list[tuple[int, ...]]:
    """Empirical selection oracle for the crossing reshuffle.

    Enumerates the six index regroupings that keep the first outgoing leg as a
    spectator and returns those satisfying both gate relations
    crossed(identity) = (N/2)(identity + charge parity) and
    crossed(swap) = identity at dimension ``n``.  Exactly one candidate
    survives; ``CROSSING_AXES`` hard-codes it.
    """
    s_gates, t_gates = build_gates(s_channel(n)), build_gates(t_channel(n))
    candidates = [(0,) + tail for tail in permutations((1, 2, 3))]
    return [axes for axes in candidates if max(crossing_row_deviations(s_gates, t_gates, axes)) <= tolerance]
