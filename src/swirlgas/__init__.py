"""Swirling self-similar gas flows in 2D.

Exact vortical solutions of the isentropic compressible Euler equations,
the scale-factor (Emden-type) dynamics behind them, regime classification
(global / time-periodic / steady / finite-time blowup), a residual
verification lab, and a small finite-volume benchmark driven by the exact
fields.
"""

from .errors import (
    BoxOutsideSupport,
    CertificationMismatch,
    CollapsedAtOrBefore,
    CollapsedState,
    DegenerateOrbit,
    GridTouchesSupportBoundary,
    InvalidParams,
    LadderTooShort,
    NoBracket,
    NonFiniteState,
    NonPositiveTime,
    SwirlgasError,
    TrajectoryTooShort,
    UndefinedCritical,
    ZeroRotation,
)
from .fields import (
    ScaleState,
    SolutionParams,
    ZhangZhengEmbedding,
    eval_flow_arrays,
    profile_f,
    support_radius,
    support_s_bound,
    validate_params,
    zhang_zheng_arrays,
    zhang_zheng_embedding,
)
from .emden import (
    EnergySplit,
    IntegrationConfig,
    TerminalEvent,
    Trajectory,
    closed_form_gamma2,
    emden_rhs,
    energy_drift,
    energy_of,
    gamma2_scale_squared_coeffs,
    integrate,
    potential,
)
from .regimes import (
    CertificationReport,
    CriticalData,
    PeriodResult,
    Regime,
    a_max_critical,
    certify,
    classify,
    period_quadrature,
    turning_points,
)
from .residuals import (
    ThreeAxisParams,
    GenericRotationField,
    Grid3Spec,
    GridSpec,
    ResidualReport,
    Scales3Trajectory,
    euler_residual_2d,
    euler_residual_3d,
    integrate_scales_3d,
    mass_residual_generic_g,
    residual_convergence,
    zz_direct_residual,
)
from .fv import (
    ConservativeField,
    ErrorReport,
    FvConfig,
    init_from_exact,
    run_and_compare,
    step,
)

__version__ = "0.1.0"
