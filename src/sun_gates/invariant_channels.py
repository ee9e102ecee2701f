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
read.  ``ChannelSpec.apply_z`` is the one definition of Z: it applies Z to a
state in O(N^2), a transpose of its N x N reshape in the s-channel, the
singlet reflection 2<s|psi>|s> - psi in the t-channel.  The dense
``ChannelSpec.z_gate`` is the matrix of that action, column by column, so the
CLI ``verify`` suite checks the Z that ``encode`` applies, against projectors
that ``build_projectors`` builds apart from it.

Because the second factor of the t-channel carries the conjugate
representation, its generator bilinear enters the computational basis with a
transposed second factor: the singlet/adjoint projectors are affine in
X = sum_a T^a (x) (T^a)^T, not in sum_a T^a (x) T^a.  Both bilinears are index
regroupings of one Fierz tensor, sum_a vec(T^a) vec(T^a)^T; the t-channel one
is the partial transpose, i.e. the crossing, of the s-channel one.

The crossing reshuffle relating the two channel gate bases is the index
regrouping crossed[(a,b),(c,d)] = op[(a,d),(b,c)]: the first outgoing leg is a
spectator while the remaining legs are re-paired.  ``select_crossing_axes``
selects it empirically, on dense regroupings, as the unique spectator-fixing
permutation satisfying both gate relations crossed(identity) = (N/2)(identity
+ charge parity) and crossed(swap) = identity.  Every crossing identity is one
call of ``crossing_operator_deviation``, which reads ``CROSSING_AXES`` and
compares crossed(a I + b S) of an s-channel ``AmplitudeCoefficients`` with
a' I + b' Z_t of a t-channel one on the O(N^2) entries the two hold; the
oracle shares no code with it, and no other module reads ``CROSSING_AXES`` or
the entries of Z_t.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from math import isqrt

import numpy as np

from .sun_algebra import GeneratorSet, finite_array, qudit_dimension

#: Axes permutation (for a (N,N,N,N)-reshaped operator) implementing the
#: s -> t crossing reshuffle; select_crossing_axes re-derives it at N = 2, 3, 4.
CROSSING_AXES = (0, 2, 3, 1)


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
    ``apply_z`` defines Z, acting on one state without a matrix; ``z_gate``
    builds the dense N^2 x N^2 matrix of ``apply_z`` on its first read and
    keeps it, read-only.  The spec compares, hashes and prints by ``kind``
    and ``n`` alone.
    """

    kind: Channel
    n: int

    def __post_init__(self):
        if not isinstance(self.kind, Channel):
            raise TypeError(f"kind must be a Channel, got {self.kind!r}")
        object.__setattr__(self, "n", qudit_dimension(self.n))

    @cached_property
    def z_gate(self) -> np.ndarray:
        """Dense Z, the matrix of ``apply_z``: column c is ``apply_z`` of the c-th basis state."""
        z = np.stack([self.apply_z(e) for e in np.eye(self.n ** 2, dtype=complex)], axis=1)
        z.setflags(write=False)
        return z

    @property
    def s_identity(self) -> np.ndarray:
        """The N^2 x N^2 identity gate, a fresh array on every access."""
        return np.eye(self.n ** 2, dtype=complex)

    def apply_z(self, psi: np.ndarray) -> np.ndarray:
        """Z psi as a new vector in O(N^2), without forming ``z_gate``; the one definition of each channel's Z.

        s-channel: psi[(i,j)] -> psi[(j,i)], the transpose of psi's N x N
        reshape.  t-channel: 2<s|psi>|s> - psi, i.e. -psi with
        (2/N) sum_i psi[i(N+1)] added at the N indices i(N+1) of |vec I>.

        Raises
        ------
        ValueError
            Unless ``psi`` is a finite state of shape (N^2,) (see ``finite_array``).
        """
        n = self.n
        psi = finite_array("psi", psi, (n * n,)).astype(complex, copy=False)
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
        if not isinstance(self.channel, ChannelSpec):
            raise TypeError(f"channel must be a ChannelSpec, got {self.channel!r}")
        for name, value in (("a", self.a), ("b", self.b)):
            finite_array(f"coefficient {name}", value, ())


def _regroup(op: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Permute the (k, l, i, j) indices of an N^2 x N^2 operator by ``axes``."""
    n = isqrt(op.shape[0])
    return np.transpose(op.reshape(n, n, n, n), axes).reshape(n * n, n * n)


def swap_matrix(n: int) -> np.ndarray:
    """Permutation matrix sending |ij> to |ji>; ``n`` follows ``qudit_dimension``."""
    n = qudit_dimension(n)
    return _regroup(np.eye(n * n, dtype=complex), (1, 0, 2, 3))


def build_projectors(channel: ChannelSpec) -> tuple[np.ndarray, np.ndarray]:
    """The channel's projector pair (p_plus, p_minus), read-only, each from its own delta index formula.

    s-channel (symmetric, antisymmetric): P_plus[(i,j),(r,s)] =
    (d_ir d_js + d_jr d_is) / 2 and P_minus with the relative minus sign.
    t-channel (singlet, adjoint): P_plus[(k,i),(p,r)] = d_ki d_pr / N and
    P_minus[(k,i),(p,r)] = d_kp d_ir - d_ki d_pr / N.  The two share only
    the delta pairings, so P_plus + P_minus = I compares two formulas.
    """
    n = channel.n
    eye = np.eye(n, dtype=complex)

    def delta_pair(first: str, second: str) -> np.ndarray:
        # [(a,b),(c,d)] -> d_first d_second, each index pair named by two of the legs a, b, c, d
        return np.einsum(f"{first},{second}->abcd", eye, eye).reshape(n * n, n * n)

    if channel.kind is Channel.S:
        direct, exchange = delta_pair("ac", "bd"), delta_pair("bc", "ad")
        p_plus = (direct + exchange) / 2.0
        p_minus = (direct - exchange) / 2.0
    else:
        direct, singlet = delta_pair("ac", "bd"), delta_pair("ab", "cd")
        p_plus = singlet / n
        p_minus = direct - singlet / n
    for p in (p_plus, p_minus):
        p.setflags(write=False)
    return p_plus, p_minus


def generator_form_projectors(channel: ChannelSpec, gens: GeneratorSet) -> tuple[np.ndarray, np.ndarray]:
    """Channel projectors rebuilt from the generator bilinear X, each affine in it: c_plus I + k X, c_minus I - k X.

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
    if channel.kind is Channel.S:
        x = _regroup(gens.fierz, (0, 2, 1, 3))
        c_plus, c_minus, k = (n + 1) / (2.0 * n), (n - 1) / (2.0 * n), 1.0
    else:
        x = charge_parity_bilinear(gens)
        c_plus, c_minus, k = 1.0 / (n * n), 1.0 - 1.0 / (n * n), 2.0 / n
    eye = np.eye(n * n, dtype=complex)
    return c_plus * eye + k * x, c_minus * eye - k * x


def charge_parity_bilinear(gens: GeneratorSet) -> np.ndarray:
    """The invariant X = sum_a T^a (x) (T^a)^T distinguishing singlet from adjoint.

    X has exactly two eigenvalues: (N^2-1)/(2N) on the singlet and -1/(2N) on
    the adjoint subspace.
    """
    return _regroup(gens.fierz, (0, 3, 1, 2))


def u_exponential_form(gens: GeneratorSet) -> np.ndarray:
    """Charge-parity gate as the exponential of the two-eigenvalue invariant.

    Computes X = sum_a T^a (x) (T^a)^T and returns
    exp(i pi (X - l_1)/(l_adj - l_1)) over X's eigendecomposition, with the
    closed-form singlet and adjoint eigenvalues l_1 = (N^2-1)/(2N) and
    l_adj = -1/(2N).  This applies a relative pi phase between the two
    eigenspaces, so the result equals the charge-parity gate up to a global
    phase.  Generators that break the algebra give X other eigenvalues and so
    a wrong matrix, which the ``verify`` suite measures; nothing here raises.
    """
    n = gens.n
    lam_singlet, lam_adjoint = (n * n - 1) / (2.0 * n), -1.0 / (2.0 * n)
    evals, evecs = np.linalg.eigh(charge_parity_bilinear(gens))
    phases = np.exp(1j * np.pi * (evals - lam_singlet) / (lam_adjoint - lam_singlet))
    return (evecs * phases) @ evecs.conj().T


def crossing_map(op: np.ndarray) -> np.ndarray:
    """Reshuffle a two-qudit s-channel operator into the t-channel index pairing.

    Regroups crossed[(a,b),(c,d)] = op[(a,d),(b,c)].  Amplitudes cross in
    either direction through ``amplitude_model.cross_coefficients``.  ``op`` is
    a finite N^2 x N^2 array (see ``finite_array``) with N >= 2.
    """
    op = finite_array("operator", op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"expected a square operator, got shape {op.shape}")
    if isqrt(op.shape[0]) ** 2 != op.shape[0]:
        raise ValueError(f"operator size {op.shape[0]} is not a perfect square")
    qudit_dimension(isqrt(op.shape[0]))
    return _regroup(op, CROSSING_AXES)


def crossing_row_deviations(s: ChannelSpec, t: ChannelSpec) -> tuple[float, float]:
    """Max deviations |crossed(I) - (N/2)(I + Z_t)| and |crossed(SWAP) - I|, by ``crossing_operator_deviation``."""
    half = s.n / 2.0
    return (crossing_operator_deviation(AmplitudeCoefficients(s, 1.0, 0.0), AmplitudeCoefficients(t, half, half)),
            crossing_operator_deviation(AmplitudeCoefficients(s, 0.0, 1.0), AmplitudeCoefficients(t, 1.0, 0.0)))


def crossing_operator_deviation(s: AmplitudeCoefficients, t: AmplitudeCoefficients) -> float:
    """max |crossed(M_s) - M_t| over all N^4 entries, read from the O(N^2) entries the two hold.

    ``s`` is M_s = a I + b S and ``t`` is M_t = a' I + b' Z_t of one N; ``ValueError`` names any other
    pair of channels.  M_s is nonzero at (k,l,k,l) and (l,k,k,l), which ``CROSSING_AXES`` moves as
    ``crossing_map`` moves them; M_t at (k,l,k,l) and (k,k,l,l).  At each of those points (a,b,c,d) both
    sides are read from their delta pairings: I = d_ac d_bd, S = d_ad d_bc and Z_t = (2/N) d_ab d_cd - d_ac d_bd,
    with M_s taken at the legs ``np.argsort(CROSSING_AXES)`` of the point, where ``crossing_map`` read it; every other
    entry is 0 - 0.  ``ValueError`` is raised unless it reads all 4N^2 of those points: a max over fewer misses the rest.
    """
    if (s.channel.kind, t.channel.kind, t.channel.n) != (Channel.S, Channel.T, s.channel.n):
        raise ValueError(f"expected the s and t channel of one N, got {s.channel} and {t.channel}")
    n = s.channel.n
    k, l = np.divmod(np.arange(n * n), n)
    diag, swap, block = (k, l, k, l), (l, k, k, l), (k, k, l, l)
    points = np.concatenate([[x[axis] for axis in CROSSING_AXES] for x in (diag, swap)] + [diag, block], axis=1)
    if points.shape[1] != 4 * s.channel.n ** 2:
        raise ValueError(f"reads {points.shape[1]} of the {4 * s.channel.n ** 2} support points")
    a, b, c, d = points
    i, j, p, q = (points[leg] for leg in np.argsort(CROSSING_AXES))
    direct = (a == c) & (b == d)
    m_s = s.a * ((i == p) & (j == q)) + s.b * ((i == q) & (j == p))
    m_t = t.a * direct + t.b * ((2.0 / n) * ((a == b) & (c == d)) - direct)
    return float(np.abs(m_s - m_t).max())


def select_crossing_axes(n: int) -> list[tuple[int, ...]]:
    """Empirical selection oracle for the crossing reshuffle, on the dense regrouping ``crossing_map`` applies.

    Enumerates the six index regroupings that keep the first outgoing leg as a
    spectator and returns those satisfying both gate relations
    crossed(identity) = (N/2)(identity + charge parity) and
    crossed(swap) = identity over all N^4 entries at dimension ``n`` to 1e-12.
    Exactly one candidate survives; ``CROSSING_AXES`` hard-codes it.
    """
    n = qudit_dimension(n)
    eye, swap = np.eye(n * n, dtype=complex), swap_matrix(n)
    crossed_eye = (n / 2.0) * (eye + ChannelSpec(Channel.T, n).z_gate)
    candidates = [(0,) + tail for tail in permutations((1, 2, 3))]
    return [axes for axes in candidates
            if max(np.abs(_regroup(eye, axes) - crossed_eye).max(), np.abs(_regroup(swap, axes) - eye).max()) <= 1e-12]
