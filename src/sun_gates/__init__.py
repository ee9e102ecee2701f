"""Operator algebra of SU(N)-invariant two-qudit scattering.

Builds the su(N) generator basis, the channel projectors and invariant gates,
the crossing reshuffle between channels, the coefficient-disk and
partial-wave measurements, and the one-ancilla block encoding of amplitudes —
with every defining identity machine-checkable at desk scale.
"""

from .amplitude_model import (
    DiskSample,
    PartialWaveSector,
    amplitude_operator,
    cross_coefficients,
    disk_samples,
    invariance_residual,
    scalar_amplitudes,
    unitary_parameterization,
)
from .invariant_channels import (
    CROSSING_AXES,
    AmplitudeCoefficients,
    Channel,
    ChannelSpec,
    build_projectors,
    charge_parity_bilinear,
    crossing_map,
    crossing_operator_deviation,
    crossing_row_deviations,
    generator_form_projectors,
    select_crossing_axes,
    singlet_state,
    swap_matrix,
    u_exponential_form,
)
from .lcu_encoder import (
    BlockEncodingPlan,
    BlockEncodingReport,
    PostselectionResult,
    apply_with_postselection,
    build_w,
    export_circuit,
    plan_encoding,
    ry,
    verify_block,
)
from .qudit_ops import OperatorBasisDecomposition, decompose, reconstruct
from .sun_algebra import (
    DEFAULT_TOLERANCE,
    GeneratorSet,
    build_generators,
    hermiticity_deviation,
    orthonormality_deviation,
    tracelessness_deviation,
    verify_completeness,
)

__version__ = "0.1.0"
