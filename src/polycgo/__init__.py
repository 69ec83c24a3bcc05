"""Numerical machinery for planar inverse problems with polyharmonic operators:
Cauchy transforms, oscillatory (complex-geometric-optics) solutions, and
stationary-phase recovery of lower-order coefficient differences."""

from .cauchy import (
    CauchyKernel,
    DecayProbe,
    d_inv,
    dbar_inv,
    fit_loglog_slope,
    kernel_for,
    oscillatory_decay_probe,
)
from .cgo import (
    AmplitudeSpec,
    CGOSolution,
    OscillatoryTransport,
    build_cgo,
    residual_norm,
    smooth_random_field,
    solve_density,
    transport_norm_probe,
)
from .errors import (
    CarrierOverflowError,
    ConfigError,
    CouplingError,
    DegenerateProbeError,
    MaxTermsExceededError,
    NonContractionError,
    PairingOverflowError,
    PrecisionError,
)
from .expressions import (
    ExpressionError,
    constant_from_expression,
    field_from_expression,
    parse_expression,
)
from .grid import (
    ComplexGrid,
    ScalarField,
    integrate,
    mixed_wirtinger,
    norm_hm,
    norm_lp,
    wirtinger_d,
    wirtinger_dbar,
)
from .operators import (
    DIVERGENCE,
    STANDARD,
    PerturbedOperator,
    adjoint,
    to_divergence_form,
    to_standard_form,
)
from .phase import PhaseSpec
from .recovery import (
    AMPLITUDE_ONLY,
    FULL_CGO,
    STATIONARY_PHASE_CONSTANT,
    RecoveryProblem,
    RecoveryReport,
    identity_lhs,
    recover_all,
    sample_bilinear,
)

__version__ = "0.1.0"
