"""confgeo: numerical conformal geodesics.

A small numpy library for computing curvature of user-supplied
Riemannian metrics, integrating the conformal geodesic equation with an
adaptive embedded Runge-Kutta scheme, and reproducing an explicit
3-dimensional metric whose flat z = 0 plane carries a conformal geodesic
that spirals into the origin with infinite proper length.

numpy is its one dependency.
"""

from .bivectors import Bivector, bivector_covariant_derivative, wedge
from .curvature import (
    CurvatureBundle,
    christoffel,
    curvature,
    kulkarni_nomizu,
    metric_derivatives,
)
from .dynamics import (
    ArcLengthResult,
    GeodesicState,
    SpiralReport,
    Trajectory,
    UnparamState,
    arc_length,
    circle_state,
    detect_spiral,
    from_unparametrized,
    integrate,
    propertime_rhs,
    unparam_residual,
    wedge_form_residual,
)
from .errors import (
    BasePointMismatchError,
    ChartSingularityError,
    ConfgeoError,
    DegenerateMetricError,
    ImmersionError,
    StepSizeError,
)
from .metrics import (
    Chart,
    MetricField,
    cartesian_chart,
    cylindrical_chart,
    euclidean_metric,
    flat_cylindrical_metric,
    flat_polar_metric,
    polar_chart,
    polynomial_metric,
    round_sphere_metric,
    sphere_chart,
)
from .spiral import (
    accel_wedge_coeff,
    cutoff_chi,
    example_metric,
    h_profile,
    k_exact,
    m_covariant,
    spiral_acceleration,
    spiral_acceleration_dot,
    spiral_point,
    spiral_state,
    spiral_velocity,
    t_star,
)
from .verify import (
    CheckReport,
    RandomMetricSpec,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma5,
    check_proposition,
    random_gauge_state,
    random_metric,
    run_checks,
    spiral_tracking_run,
)

__version__ = "0.1.0"
