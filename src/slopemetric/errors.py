"""Exception and warning types shared across the package."""

__all__ = [
    "SlopeMetricError",
    "OutOfDomain",
    "OutOfRange",
    "NotInvertible",
    "NonDifferentiable",
    "ApexSingularity",
    "ZeroVector",
    "DirectionOverflow",
    "DegenerateDenominator",
    "NoRoot",
    "StepTooLarge",
    "ConfigError",
    "InsufficientDirections",
    "DoubleRootWarning",
    "DerivativeBlowupWarning",
]


class SlopeMetricError(Exception):
    """Base class for all errors raised by this package."""


class OutOfDomain(SlopeMetricError, ValueError):
    """A radius or coordinate lies outside the curve/surface domain."""


class OutOfRange(SlopeMetricError, ValueError):
    """A height lies outside the range of the profile on the requested branch."""


class NotInvertible(SlopeMetricError, ValueError):
    """The profile is not strictly monotone on the requested branch."""


class NonDifferentiable(SlopeMetricError, ValueError):
    """No derivative is available at the requested point."""


class ApexSingularity(SlopeMetricError, ValueError):
    """The surface gradient is undefined on the rotation axis (e.g. a cone apex)."""


class ZeroVector(SlopeMetricError, ValueError):
    """A direction argument is the zero vector."""


class DirectionOverflow(SlopeMetricError, OverflowError):
    """A direction, or the value computed from it, is not a finite double."""


class DegenerateDenominator(SlopeMetricError, ArithmeticError):
    """v*alpha - w*beta <= 0: the drift term overwhelms the base speed."""


class NoRoot(SlopeMetricError, ArithmeticError):
    """The implicit indicatrix equation has no positive root."""


class StepTooLarge(SlopeMetricError, RuntimeError):
    """Integration step produced conservation drift beyond 10x the tolerance."""


class ConfigError(SlopeMetricError, ValueError):
    """Malformed surface description or run configuration."""


class InsufficientDirections(ConfigError):
    """Too few sample directions for a meaningful positive-definiteness sweep."""


class DoubleRootWarning(UserWarning):
    """phi'^2 turns within ``CRITERION_BAND`` of the threshold at the radius named; a double root may hide."""


class DerivativeBlowupWarning(RuntimeWarning):
    """m'(u) diverges where the Cartesian profile has zero slope; the condition holds by limit."""
