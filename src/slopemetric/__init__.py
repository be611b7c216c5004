"""Slope metrics on graph surfaces.

Builds the travel-time (slope) metric F = alpha^2 / (v*alpha - w*beta) on
graph surfaces and surfaces of revolution, decides where it is strongly
convex by mutually checking routes, and traces time-minimizing geodesics
and propagating fronts.
"""

from .errors import (
    ApexSingularity,
    ConfigError,
    DegenerateDenominator,
    DerivativeBlowupWarning,
    DirectionOverflow,
    DoubleRootWarning,
    InsufficientDirections,
    NoRoot,
    NonDifferentiable,
    NotInvertible,
    OutOfDomain,
    OutOfRange,
    SlopeMetricError,
    StepTooLarge,
    ZeroVector,
)
from .surfaces import (
    DEFAULT_SCAN_SMAX,
    GraphSurface,
    ProfileCurve,
    SurfaceOfRevolution,
    SurfaceSpec,
    TrigProfile,
    cone,
    ellipsoid,
    eval_profile,
    flat_surface,
    gaussian_bump,
    one_sheet_hyperboloid,
    paraboloid,
    profile_derivative,
    profile_from_callable,
    profile_from_table,
    profile_second_derivative,
    surface_from_json,
    two_sheet_hyperboloid,
)
from .metric import (
    NORMALIZED,
    FundamentalTensor,
    NavigationParams,
    RiemannMetric2,
    alpha,
    beta,
    fundamental_tensor,
    hessian_field,
    induced_metric,
    limacon_h,
    okubo_solve,
    slope_metric_F,
)
from .convexity import (
    ConvexityDomain,
    EquivalenceReport,
    SamplePlan,
    Verdict,
    cartesian_condition,
    condition_asymptote,
    convexity_domain,
    convexity_threshold,
    criterion_verdict,
    is_strongly_convex_at,
    pd_oracle,
    trig_condition,
    verify_equivalence,
)
from .geodesics import (
    Front,
    GeodesicPath,
    Indicatrix,
    LimaconFit,
    WavefrontResult,
    conservation_drift,
    geodesic_shoot,
    indicatrix,
    wavefront,
)

__version__ = "0.1.0"
