"""Exception types shared across the package."""


class ConfgeoError(Exception):
    """Base class for all package errors."""


class ChartSingularityError(ConfgeoError):
    """A point lies on (or too close to) the singular locus of a chart."""


class StepSizeError(ConfgeoError):
    """A finite-difference step is non-positive or underflows the point scale."""


class DegenerateMetricError(ConfgeoError):
    """The metric is numerically non-invertible at the requested point,
    or undefined there because a coordinate is not finite."""


class ImmersionError(ConfgeoError):
    """A curve velocity has zero length where an immersed curve is required."""


class BasePointMismatchError(ConfgeoError):
    """Tensors anchored at different base points were combined."""
