"""Invariant amplitudes a * identity + b * Z and their measurements.

Every invariant two-qudit amplitude in a channel is a complex combination of
the channel's two gates, so coefficients (a, b) and their ``ChannelSpec`` are
the whole amplitude.  This module projects operators onto the channel
scalars, transforms coefficients between channels under crossing, realizes the
unitary boundary of the coefficient disk, and measures each partial-wave
sector: |a_J|^2 + |b_J|^2 and the eigenvalues 1 + i kappa_J (a_J +- b_J).  It
returns measurements only; the CLI compares them with a tolerance.  The
channel scalars read the pair (p_plus, p_minus) of ``build_projectors``; a
crossed coefficient or sector measurement that overflows to inf or nan raises
``FloatingPointError``.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass

import numpy as np

from .invariant_channels import AmplitudeCoefficients, Channel, ChannelSpec
from .sun_algebra import finite_array


def _finite(name: str, value):
    """``value`` when finite; Python float and complex arithmetic overflow to inf or nan without raising."""
    if not cmath.isfinite(value):
        raise FloatingPointError(f"overflow encountered in {name}")
    return value


def amplitude_operator(coeffs: AmplitudeCoefficients) -> np.ndarray:
    """Assemble the amplitude matrix a * identity + b * Z of the coefficients' channel."""
    return coeffs.a * coeffs.channel.s_identity + coeffs.b * coeffs.channel.z_gate


def scalar_amplitudes(m: np.ndarray, projs: tuple[np.ndarray, np.ndarray]) -> tuple[complex, complex]:
    """Channel scalars M_R = Tr(M P_R) / Tr(P_R) for both projectors of the pair (p_plus, p_minus).

    For M = a * identity + b * Z this returns (a + b, a - b).
    """
    p_plus, p_minus = projs
    m = finite_array("operator", m, p_plus.shape)
    m_plus = complex(np.einsum("ij,ji", m, p_plus)) / np.trace(p_plus).real
    m_minus = complex(np.einsum("ij,ji", m, p_minus)) / np.trace(p_minus).real
    return m_plus, m_minus


def invariance_residual(m: np.ndarray, projs: tuple[np.ndarray, np.ndarray]) -> float:
    """Max-norm distance of M from its diagonal projector decomposition.

    Zero exactly when M is invariant in this channel, i.e. lies in the span of
    the two projectors.
    """
    p_plus, p_minus = projs
    m_plus, m_minus = scalar_amplitudes(m, projs)
    return float(np.abs(m - (m_plus * p_plus + m_minus * p_minus)).max())


def cross_coefficients(coeffs: AmplitudeCoefficients) -> AmplitudeCoefficients:
    """Map amplitude coefficients to the crossed channel.

    The gate relations crossed(identity) = (N/2)(identity + Z') and
    crossed(swap) = identity induce the coefficient transport
    (a, b) -> (N a / 2 + b, N a / 2) from the s-channel to the t-channel, and
    its inverse (a, b) -> (2 b / N, a - b) in the other direction, so that
    crossing_map(amplitude_operator(s coefficients)) equals the t-channel
    amplitude of the mapped coefficients.

    Raises
    ------
    FloatingPointError
        If a crossed coefficient overflows to inf or nan, which Python
        complex arithmetic does without raising.
    """
    n = coeffs.channel.n
    if coeffs.channel.kind is Channel.S:
        kind, a, b = Channel.T, n * coeffs.a / 2.0 + coeffs.b, n * coeffs.a / 2.0
    else:
        kind, a, b = Channel.S, 2.0 * coeffs.b / n, coeffs.a - coeffs.b
    a, b = _finite("cross_coefficients", a), _finite("cross_coefficients", b)
    return AmplitudeCoefficients(channel=ChannelSpec(kind, n), a=a, b=b)


def unitary_parameterization(theta: float, phi: float, channel: ChannelSpec) -> AmplitudeCoefficients:
    """Coefficients a = e^{i phi} cos(theta), b = i e^{i phi} sin(theta).

    These satisfy |a|^2 + |b|^2 = 1 and Re(a* b) = 0, and the resulting
    amplitude equals e^{i phi} exp(i theta Z): a unitary matrix with
    eigenvalues e^{i (phi +- theta)}.  ``finite_array`` names a non-finite angle.
    """
    theta, phi = finite_array("theta", theta, ()), finite_array("phi", phi, ())
    phase = np.exp(1j * phi)
    return AmplitudeCoefficients(
        channel=channel,
        a=complex(phase * np.cos(theta)),
        b=complex(1j * phase * np.sin(theta)),
    )


@dataclass(frozen=True)
class PartialWaveSector:
    """Coefficients (a_J, b_J) of a fixed angular momentum sector, with their measurements.

    ``kappa_j`` is the positive phase-space / normalization factor entering
    the sector eigenvalues 1 + i kappa_J (a_J +- b_J); it is an input, not a
    computed quantity.  ``norm_sq``, ``eigen_plus`` and ``eigen_minus`` raise
    ``FloatingPointError`` naming themselves when they overflow to inf or nan.
    """

    j: int
    a_j: complex
    b_j: complex
    kappa_j: float

    def __post_init__(self):
        if not isinstance(self.j, numbers.Integral):
            raise TypeError(f"angular momentum label j must be an integer, got {self.j!r}")
        if self.j < 0:
            raise ValueError(f"angular momentum label must be non-negative, got {self.j}")
        for name in ("a_j", "b_j", "kappa_j"):
            finite_array(name, getattr(self, name), ())
        if not self.kappa_j > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa_j}")

    @property
    def norm_sq(self) -> float:
        """|a_J|^2 + |b_J|^2, at most 1 for a unitary sector."""
        return _finite("norm_sq", abs(complex(self.a_j)) ** 2 + abs(complex(self.b_j)) ** 2)

    @property
    def eigen_plus(self) -> complex:
        """S-matrix eigenvalue 1 + i kappa_J (a_J + b_J) on P_plus."""
        return _finite("eigen_plus", 1.0 + 1j * float(self.kappa_j) * (complex(self.a_j) + complex(self.b_j)))

    @property
    def eigen_minus(self) -> complex:
        """S-matrix eigenvalue 1 + i kappa_J (a_J - b_J) on P_minus."""
        return _finite("eigen_minus", 1.0 + 1j * float(self.kappa_j) * (complex(self.a_j) - complex(self.b_j)))


#: Largest ``disk_samples`` resolution: the table has resolution^2 rows, which ``disk`` writes one radius at a time.
#: Peak RSS of the whole ``disk`` process (Python 3.11, numpy 2.4, 2 shared Xeon vCPUs), csv and json alike:
#: 37 MB at 512 and 62 MB at 1024, 33.6 MB of it the three columns; 1024 takes 4.4-6.6 s in either format.
MAX_DISK_RESOLUTION = 1024


def disk_samples(resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample the coefficient disk: unitary boundary arc plus interior grid, as columns (theta, a, b).

    Each radius r sweeps theta over ``resolution`` points of [0, pi/2] at
    phi = 0, with a = r cos(theta) and b = i r sin(theta); row k of each
    column is one (r, theta), theta varying fastest.  The first
    ``resolution`` rows are the boundary r = 1 (|a|^2 + |b|^2 = 1, including
    the pure-identity point theta = 0 and the pure-Z point theta = pi/2); the
    rest take r = k / resolution, k = 1 .. resolution - 1, all with
    |a|^2 + |b|^2 < 1.  theta and a are float64, b complex128.  ``resolution``
    is an integer from 2 to ``MAX_DISK_RESOLUTION``: ``TypeError`` names any
    other type, ``ValueError`` a value out of that range.
    """
    if not isinstance(resolution, numbers.Integral):
        raise TypeError(f"resolution must be an integer, got {resolution!r}")
    if not 2 <= resolution <= MAX_DISK_RESOLUTION:
        raise ValueError(f"resolution must be between 2 and {MAX_DISK_RESOLUTION}, got {resolution}")
    thetas = np.linspace(0.0, np.pi / 2.0, resolution)
    radii = np.array([1.0] + [k / resolution for k in range(1, resolution)])[:, None]
    return np.tile(thetas, resolution), (radii * np.cos(thetas)).ravel(), (1j * radii * np.sin(thetas)).ravel()
