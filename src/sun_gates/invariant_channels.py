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

A ``ChannelSpec(Channel.S, n)`` or ``ChannelSpec(Channel.T, n)`` is its
channel's gate pair {identity, Z} and holds neither as an array until one is
read.  ``ChannelSpec.apply_z`` applies Z to a state in O(N^2): a transpose of its N x N reshape in the s-channel, the singlet
reflection 2<s|psi>|s> - psi in the t-channel.  The dense
``ChannelSpec.z_gate`` comes from the closed forms, ``swap_matrix`` and
(2/N)|vec I><vec I| - I, never from ``build_projectors``, so the CLI
``verify`` suite checks each channel's projectors and Z as two independent
constructions.

Because the second factor of the t-channel carries the conjugate
representation, its generator bilinear enters the computational basis with a
transposed second factor: the singlet/adjoint projectors are affine in
X = sum_a T^a (x) (T^a)^T, not in sum_a T^a (x) T^a.  Both bilinears are index
regroupings of one Fierz tensor, sum_a vec(T^a) vec(T^a)^T; the t-channel one
is the partial transpose, i.e. the crossing, of the s-channel one.

The crossing reshuffle relating the two channel gate bases is the index
regrouping crossed[(a,b),(c,d)] = op[(a,d),(b,c)]: the first outgoing leg is a
spectator while the remaining legs are re-paired.  It was selected empirically
(see ``select_crossing_axes``) as the unique spectator-fixing permutation
satisfying both gate relations crossed(identity) = (N/2)(identity + charge
parity) and crossed(swap) = identity.  Every crossing identity is one call of
``crossing_operator_deviation``, which compares crossed(a I + b S) of an
s-channel ``AmplitudeCoefficients`` with a' I + b' Z_t of a t-channel one on
the O(N^2) entries the two hold; no other module reads ``CROSSING_AXES`` or
the entries of Z_t.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from math import isqrt

import numpy as np

from .sun_algebra import GeneratorSet, qudit_dimension

#: Axes permutation (for a (N,N,N,N)-reshaped operator) implementing the
#: s -> t crossing reshuffle; select_crossing_axes re-derives it at N = 2, 3, 4.
CROSSING_AXES = (0, 2, 3, 1)

# Minimum eigenvalue separation used when counting spectral multiplicities.
_EIGENVALUE_GAP = 1e-6


class Channel(enum.Enum):
    """Which two-particle internal space an operator lives on."""

    S = "s"  # fundamental (x) fundamental
    T = "t"  # fundamental (x) anti-fundamental


@dataclass(frozen=True)
class ChannelSpec:
    """A channel tag plus the qudit dimension it applies to, and so the channel's gate pair {identity, Z}.

    Z is the swap gate in the s-channel and the charge-parity gate in the
    t-channel; in both cases it is Hermitian, unitary, and squares to the
    identity, so {s_identity, z_gate} closes into a two-element group.
    ``apply_z`` acts with Z on one state without a matrix; ``z_gate`` builds
    the dense N^2 x N^2 Z on its first read and keeps it, read-only.  The
    spec compares, hashes and prints by ``kind`` and ``n`` alone.
    """

    kind: Channel
    n: int

    def __post_init__(self):
        if not isinstance(self.kind, Channel):
            raise TypeError(f"kind must be a Channel, got {self.kind!r}")
        object.__setattr__(self, "n", qudit_dimension(self.n))

    @cached_property
    def z_gate(self) -> np.ndarray:
        """Dense Z: ``swap_matrix(n)``, or (2/N)|vec I><vec I| with its diagonal shifted by -1 in place."""
        n = self.n
        if self.kind is Channel.S:
            z = swap_matrix(n)
        else:
            vec_eye = np.eye(n, dtype=complex).reshape(n * n)
            z = np.multiply.outer(vec_eye, (2.0 / n) * vec_eye)
            z.flat[::n * n + 1] -= 1.0
        z.setflags(write=False)
        return z

    @property
    def s_identity(self) -> np.ndarray:
        """The N^2 x N^2 identity gate, a fresh array on every access."""
        return np.eye(self.n ** 2, dtype=complex)

    def apply_z(self, psi: np.ndarray) -> np.ndarray:
        """Z psi as a new vector in O(N^2), equal to ``z_gate @ psi`` without forming ``z_gate``.

        s-channel: psi[(i,j)] -> psi[(j,i)], the transpose of psi's N x N
        reshape.  t-channel: 2<s|psi>|s> - psi, i.e. -psi with
        (2/N) sum_i psi[i(N+1)] added at the N indices i(N+1) of |vec I>.

        Raises
        ------
        ValueError
            If ``psi`` is not of shape (N^2,).
        """
        n = self.n
        psi = np.asarray(psi, dtype=complex)
        if psi.shape != (n * n,):
            raise ValueError(f"expected a state vector of shape ({n * n},), got shape {psi.shape}")
        if self.kind is Channel.S:
            return psi.reshape(n, n).T.ravel()
        out = -psi
        out[::n + 1] += (2.0 / n) * psi[::n + 1].sum()
        return out


@dataclass(frozen=True)
class AmplitudeCoefficients:
    """Complex pair (a, b) defining the amplitude a * identity + b * Z; ``ValueError`` names a nan or inf one."""

    channel: ChannelSpec
    a: complex
    b: complex

    def __post_init__(self):
        for name, value in (("a", self.a), ("b", self.b)):
            if not cmath.isfinite(value):
                raise ValueError(f"coefficient {name} must be finite, got {value}")


def _regroup(op: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Permute the (k, l, i, j) indices of an N^2 x N^2 operator by ``axes``."""
    n = isqrt(op.shape[0])
    return np.transpose(op.reshape(n, n, n, n), axes).reshape(n * n, n * n)


def swap_matrix(n: int) -> np.ndarray:
    """Permutation matrix sending |ij> to |ji>."""
    return _regroup(np.eye(n * n, dtype=complex), (1, 0, 2, 3))


def build_projectors(channel: ChannelSpec) -> tuple[np.ndarray, np.ndarray]:
    """The channel's projector pair (p_plus, p_minus), read-only, from the delta index formulas.

    s-channel (symmetric, antisymmetric): P_plus[(i,j),(r,s)] =
    (d_ir d_js + d_jr d_is) / 2 and P_minus with the relative minus sign.
    t-channel (singlet, adjoint): P_plus[(k,i),(p,r)] = d_ki d_pr / N and
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
    for p in (p_plus, p_minus):
        p.setflags(write=False)
    return p_plus, p_minus


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
        x = _regroup(gens.fierz, (0, 2, 1, 3))
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
    return _regroup(gens.fierz, (0, 3, 1, 2))


def singlet_state(n: int) -> np.ndarray:
    """Normalized maximally entangled singlet sum_i |ii> / sqrt(N)."""
    n = qudit_dimension(n)
    return np.eye(n, dtype=complex).reshape(n * n) / np.sqrt(n)


def u_exponential_form(gens: GeneratorSet) -> np.ndarray:
    """Charge-parity gate as the exponential of the two-eigenvalue invariant.

    Computes X = sum_a T^a (x) (T^a)^T, identifies its singlet eigenvalue l_1
    and adjoint eigenvalue l_adj, and returns exp(i pi (X - l_1)/(l_adj - l_1)),
    which applies a relative pi phase between the two eigenspaces.  The result
    equals the charge-parity gate up to a global phase.

    Raises
    ------
    ValueError
        If X's eigenvalues fall in more than two clusters (gaps over 1e-6),
        which signals a wrong channel pairing.
    """
    n = gens.n
    x = charge_parity_bilinear(gens)
    evals, evecs = np.linalg.eigh(x)
    splits = np.flatnonzero(np.diff(evals) > _EIGENVALUE_GAP)
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


def crossing_map(op: np.ndarray) -> np.ndarray:
    """Reshuffle a two-qudit s-channel operator into the t-channel index pairing.

    Regroups crossed[(a,b),(c,d)] = op[(a,d),(b,c)].  Amplitudes cross in
    either direction through ``amplitude_model.cross_coefficients``.
    """
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"expected a square operator, got shape {op.shape}")
    if isqrt(op.shape[0]) ** 2 != op.shape[0]:
        raise ValueError(f"operator size {op.shape[0]} is not a perfect square")
    return _regroup(op, CROSSING_AXES)


def crossing_row_deviations(s: ChannelSpec, t: ChannelSpec,
                            axes: tuple[int, ...] = CROSSING_AXES) -> tuple[float, float]:
    """Max deviations |crossed(I) - (N/2)(I + Z_t)| and |crossed(SWAP) - I| under ``axes``, by ``crossing_operator_deviation``."""
    half = s.n / 2.0
    return (crossing_operator_deviation(AmplitudeCoefficients(s, 1.0, 0.0), AmplitudeCoefficients(t, half, half), axes),
            crossing_operator_deviation(AmplitudeCoefficients(s, 0.0, 1.0), AmplitudeCoefficients(t, 1.0, 0.0), axes))


def crossing_operator_deviation(s: AmplitudeCoefficients, t: AmplitudeCoefficients,
                                axes: tuple[int, ...] = CROSSING_AXES) -> float:
    """max |crossed(M_s) - M_t| over all N^4 entries, read from the O(N^2) entries the two hold.

    ``s`` is M_s = a I + b S and ``t`` is M_t = a' I + b' Z_t of one N; ``ValueError`` names any other
    pair of channels, or ``axes`` unless it permutes the four legs.  M_s is nonzero at (k,l,k,l) and
    (l,k,k,l), which ``axes`` moves as ``crossing_map`` moves them by ``CROSSING_AXES``; M_t at (k,l,k,l)
    and (k,k,l,l).  Each gate's entries are summed per flat key r N^2 + c on the union of the supports
    and evaluated there as a * I + b * Z, the dense arithmetic; every other entry is 0 - 0.
    """
    if (s.channel.kind, t.channel.kind, t.channel.n) != (Channel.S, Channel.T, s.channel.n):
        raise ValueError(f"expected the s and t channel of one N, got {s.channel} and {t.channel}")
    if sorted(axes) != [0, 1, 2, 3]:
        raise ValueError(f"axes must permute the four legs (0, 1, 2, 3), got {axes!r}")
    n = s.channel.n
    k, l = np.divmod(np.arange(n * n), n)
    diag, swap, block = (k, l, k, l), (l, k, k, l), (k, k, l, l)
    crossed_diag, crossed_swap = ([x[axis] for axis in axes] for x in (diag, swap))
    # (gate, support, entry): crossed I, crossed S, then I and Z_t of the t channel
    gate, support, entry = zip((0, crossed_diag, 1.0), (1, crossed_swap, 1.0),
                               (2, diag, 1.0), (3, diag, -1.0), (3, block, 2.0 / n))
    keys = np.ravel_multi_index(tuple(np.concatenate(support, axis=1)), (n,) * 4)
    union, where = np.unique(keys, return_inverse=True)
    weights = np.zeros((4, union.size))
    np.add.at(weights, (np.repeat(gate, n * n), where), np.repeat(entry, n * n))
    eye_s, swap_s, eye_t, z_t = weights
    m_s = s.a * eye_s + s.b * swap_s
    m_t = t.a * eye_t + t.b * z_t
    return float(np.abs(m_s - m_t).max())


def select_crossing_axes(n: int) -> list[tuple[int, ...]]:
    """Empirical selection oracle for the crossing reshuffle.

    Enumerates the six index regroupings that keep the first outgoing leg as a
    spectator and returns those satisfying both gate relations
    crossed(identity) = (N/2)(identity + charge parity) and
    crossed(swap) = identity at dimension ``n`` to 1e-12.  Exactly one candidate
    survives; ``CROSSING_AXES`` hard-codes it.
    """
    s, t = ChannelSpec(Channel.S, n), ChannelSpec(Channel.T, n)
    candidates = [(0,) + tail for tail in permutations((1, 2, 3))]
    return [axes for axes in candidates if max(crossing_row_deviations(s, t, axes)) <= 1e-12]
