"""Invariant amplitudes a * identity + b * Z and their constraints.

Every invariant two-qudit amplitude in a channel is a complex combination of
the channel's two gates.  This module projects operators onto the channel
scalars, transforms coefficients between channels under crossing, realizes the
unitary boundary of the coefficient disk, and checks the per-partial-wave
unitarity bound |a_J|^2 + |b_J|^2 <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .invariant_channels import (
    Channel,
    ChannelSpec,
    GateSet,
    ProjectorSet,
    s_channel,
    t_channel,
)
from .sun_algebra import DEFAULT_TOLERANCE


@dataclass(frozen=True)
class AmplitudeCoefficients:
    """Complex pair (a, b) defining the amplitude a * identity + b * Z."""

    channel: ChannelSpec
    a: complex
    b: complex


def amplitude_operator(coeffs: AmplitudeCoefficients, gates: GateSet) -> np.ndarray:
    """Assemble the amplitude matrix a * identity + b * Z."""
    if coeffs.channel != gates.channel:
        raise ValueError(
            f"coefficient channel {coeffs.channel} does not match gate channel {gates.channel}"
        )
    return coeffs.a * gates.s_identity + coeffs.b * gates.z_gate


def scalar_amplitudes(m: np.ndarray, projs: ProjectorSet) -> tuple[complex, complex]:
    """Channel scalars M_R = Tr(M P_R) / Tr(P_R) for both projectors.

    For M = a * identity + b * Z this returns (a + b, a - b).
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != projs.p_plus.shape:
        raise ValueError(f"operator shape {m.shape} does not match projector shape {projs.p_plus.shape}")
    m_plus = complex(np.einsum("ij,ji", m, projs.p_plus)) / np.trace(projs.p_plus).real
    m_minus = complex(np.einsum("ij,ji", m, projs.p_minus)) / np.trace(projs.p_minus).real
    return m_plus, m_minus


def invariance_residual(m: np.ndarray, projs: ProjectorSet) -> float:
    """Max-norm distance of M from its diagonal projector decomposition.

    Zero exactly when M is invariant in this channel, i.e. lies in the span of
    the two projectors.
    """
    m_plus, m_minus = scalar_amplitudes(m, projs)
    return float(np.abs(m - (m_plus * projs.p_plus + m_minus * projs.p_minus)).max())


def cross_coefficients(coeffs: AmplitudeCoefficients) -> AmplitudeCoefficients:
    """Map amplitude coefficients to the crossed channel.

    The gate relations crossed(identity) = (N/2)(identity + Z') and
    crossed(swap) = identity induce the coefficient transport
    (a, b) -> (N a / 2 + b, N a / 2) from the s-channel to the t-channel, and
    its inverse (a, b) -> (2 b / N, a - b) in the other direction, so that
    crossing_map(amplitude_operator(s coefficients)) equals the t-channel
    amplitude of the mapped coefficients.
    """
    n = coeffs.channel.n
    if coeffs.channel.kind is Channel.S:
        return AmplitudeCoefficients(
            channel=t_channel(n),
            a=n * coeffs.a / 2.0 + coeffs.b,
            b=n * coeffs.a / 2.0,
        )
    return AmplitudeCoefficients(
        channel=s_channel(n),
        a=2.0 * coeffs.b / n,
        b=coeffs.a - coeffs.b,
    )


def unitary_parameterization(theta: float, phi: float, gates: GateSet) -> AmplitudeCoefficients:
    """Coefficients a = e^{i phi} cos(theta), b = i e^{i phi} sin(theta).

    These satisfy |a|^2 + |b|^2 = 1 and Re(a* b) = 0, and the resulting
    amplitude equals e^{i phi} exp(i theta Z): a unitary matrix with
    eigenvalues e^{i (phi +- theta)}.
    """
    phase = np.exp(1j * phi)
    return AmplitudeCoefficients(
        channel=gates.channel,
        a=complex(phase * np.cos(theta)),
        b=complex(1j * phase * np.sin(theta)),
    )


@dataclass(frozen=True)
class PartialWaveSector:
    """Coefficients (a_J, b_J) of a fixed angular momentum sector.

    ``kappa_j`` is the positive phase-space / normalization factor entering
    the sector eigenvalues 1 + i kappa_J (a_J +- b_J); it is an input, not a
    computed quantity.
    """

    j: int
    a_j: complex
    b_j: complex
    kappa_j: float

    def __post_init__(self):
        if self.j < 0:
            raise ValueError(f"angular momentum label must be non-negative, got {self.j}")
        values = (self.a_j, self.b_j, self.kappa_j)
        if not all(np.isfinite(v) for v in values):
            raise ValueError(f"a_j, b_j and kappa_j must be finite, got {values}")
        if not self.kappa_j > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa_j}")


@dataclass(frozen=True)
class UnitarityReport:
    """Outcome of the per-sector unitarity checks.

    ``in_unit_disk`` holds one flag per eigenvalue (plus, minus); the bound
    flag refers to |a_J|^2 + |b_J|^2 <= 1 and saturation to equality, both at
    the stated tolerance.
    """

    norm_sq: float
    bound_satisfied: bool
    eigen_plus: complex
    eigen_minus: complex
    in_unit_disk: tuple[bool, bool]
    elastic_saturation: bool


def check_partial_wave(sector: PartialWaveSector, tolerance: float = DEFAULT_TOLERANCE) -> UnitarityReport:
    """Evaluate the sector eigenvalues and the coefficient-disk bound."""
    a, b, kappa = complex(sector.a_j), complex(sector.b_j), float(sector.kappa_j)
    norm_sq = abs(a) ** 2 + abs(b) ** 2
    eigen_plus = 1.0 + 1j * kappa * (a + b)
    eigen_minus = 1.0 + 1j * kappa * (a - b)
    return UnitarityReport(
        norm_sq=norm_sq,
        bound_satisfied=norm_sq <= 1.0 + tolerance,
        eigen_plus=eigen_plus,
        eigen_minus=eigen_minus,
        in_unit_disk=(
            abs(eigen_plus) <= 1.0 + tolerance,
            abs(eigen_minus) <= 1.0 + tolerance,
        ),
        elastic_saturation=abs(norm_sq - 1.0) <= tolerance,
    )


@dataclass(frozen=True)
class DiskSample:
    """One (theta, phi, a, b) row of the coefficient-disk table."""

    theta: float
    phi: float
    a: complex
    b: complex

    @property
    def norm_sq(self) -> float:
        return abs(self.a) ** 2 + abs(self.b) ** 2


def disk_samples(resolution: int) -> list[DiskSample]:
    """Sample the coefficient disk: unitary boundary arc plus interior grid.

    The first ``resolution`` rows sweep the boundary theta in [0, pi/2] at
    phi = 0 (so |a|^2 + |b|^2 = 1, including the pure-identity point theta = 0
    and the pure-Z point theta = pi/2); the remaining rows scale the same arc
    by radii r = k / resolution, k = 1 .. resolution - 1, all with
    |a|^2 + |b|^2 < 1.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    thetas = np.linspace(0.0, np.pi / 2.0, resolution)
    rows = [
        DiskSample(theta=float(t), phi=0.0, a=complex(np.cos(t)), b=complex(1j * np.sin(t)))
        for t in thetas
    ]
    for k in range(1, resolution):
        r = k / resolution
        rows.extend(
            DiskSample(theta=float(t), phi=0.0, a=complex(r * np.cos(t)), b=complex(1j * r * np.sin(t)))
            for t in thetas
        )
    return rows
