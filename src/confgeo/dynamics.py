"""Conformal geodesic dynamics.

The proper-time conformal geodesic equation is the third-order system

    nabla_u a = u (-|a|^2 - u . L^u) + L^u,   a = nabla_u u,  |u| = 1,

with L the Schouten tensor.  This module provides its right-hand side as
a first-order system in (x, u, a), the equivalent bivector-valued
residuals (proper-time wedge form and the reparametrization-invariant
unparametrized form), conversion from arbitrary parametrizations to the
proper-time gauge, an adaptive Dormand-Prince 8(5,3) integrator (DOP853
of Hairer, Norsett & Wanner, Solving Ordinary Differential Equations I,
2nd ed., Sec. II.10) with optional per-step gauge renormalization,
arc-length quadrature, and a containment-based spiral detector.

Only the proper-time system is integrated; the unparametrized equation
has a parametrization gauge freedom and is used here as a residual
verifier on given curves.
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

import numpy as np

from .bivectors import Bivector, _connection_along, _max_abs, _transport, _wedge
from .curvature import CurvatureBundle, curvature
from .errors import ConfgeoError, ImmersionError
from .metrics import MetricField, _first_point

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


# The states, like CurvatureBundle, are frozen dataclasses whose __init__
# fills the instance dict in one update: the generated one would make an
# object.__setattr__ call per field (~1.5 us more each).  ``integrate``
# builds the state of every RHS through ``_unpack``, without __init__.


@dataclass(frozen=True, init=False)
class GeodesicState:
    """Proper-time state (position, unit velocity, orthogonal acceleration)."""

    x: np.ndarray
    u: np.ndarray
    a: np.ndarray
    s: float = 0.0

    def __init__(self, x, u, a, s=0.0):
        self.__dict__.update(
            x=np.asarray(x, float), u=np.asarray(u, float), a=np.asarray(a, float), s=s
        )

    def gauge_residuals(self, g: np.ndarray) -> tuple[float, float]:
        """(| |u|^2 - 1 |, |g(u, a)|) for the metric matrix g at the state's point."""
        u, a = self.u, self.a
        return abs(_g_product(u, g, u) - 1.0), abs(_g_product(u, g, a))

    def require_gauge(self, field: MetricField) -> np.ndarray:
        """Raise unless both gauge residuals are within 1e-6 (so neither
        is NaN); return g at x."""
        g = field(self.x)
        e_norm, e_orth = self.gauge_residuals(g)
        if not (e_norm <= 1e-6 and e_orth <= 1e-6):
            raise ConfgeoError(
                f"state violates proper-time gauge: | |u|^2-1 |={e_norm:.3e}, "
                f"|g(u,a)|={e_orth:.3e}"
            )
        return g


@dataclass(frozen=True, init=False)
class UnparamState:
    """Arbitrary-parameter state with velocity v and acceleration b = nabla_v v."""

    x: np.ndarray
    v: np.ndarray
    b: np.ndarray
    t: float = 0.0

    def __init__(self, x, v, b, t=0.0):
        self.__dict__.update(
            x=np.asarray(x, float), v=np.asarray(v, float), b=np.asarray(b, float), t=t
        )


def _unpack(y: np.ndarray, n: int, s: float) -> GeodesicState:
    """The state (x, u, a) = y at s, as views into the float array y.

    Built without ``GeodesicState.__init__``, whose ``np.asarray`` calls
    would only return the views again.
    """
    state = object.__new__(GeodesicState)
    fields = state.__dict__
    fields["x"], fields["u"], fields["a"] = y[:n], y[n : 2 * n], y[2 * n :]
    fields["s"] = s
    return state


@dataclass
class Trajectory:
    """Accepted integration samples plus per-sample diagnostics.

    Row i of the (N, 3n) array ``y`` is sample i's state (x, u, a) at s[i].
    ``stats`` holds the run's counters as ``integrate`` logs them:
    status and message (the stop reason), accepted and rejected steps,
    domain shrinks, RHS and curvature evaluations, and the smallest and
    largest accepted |h| (None before the first accepted step);
    ``status``, ``message`` and ``rhs_evaluations`` read it.
    """

    field: MetricField
    s: np.ndarray
    y: np.ndarray
    gauge_error: np.ndarray
    projection: np.ndarray
    stats: dict = dataclass_field(default_factory=dict)

    def __len__(self):
        return len(self.y)

    @property
    def status(self) -> str:
        return self.stats.get("status", "ok")

    @property
    def message(self) -> str:
        return self.stats.get("message", "")

    @property
    def rhs_evaluations(self) -> int:
        return self.stats.get("rhs_evaluations", 0)

    @property
    def arc_length(self) -> np.ndarray:
        """Length from the first sample: elapsed proper time, |u|_g being 1."""
        return np.abs(self.s - self.s[0])

    def positions(self) -> np.ndarray:
        return self.y[:, : self.field.dimension]

    def cartesian_positions(self) -> np.ndarray:
        return self.field.chart.embed(self.positions())

    def state(self, i: int) -> GeodesicState:
        """Sample i as a GeodesicState (views into ``y``)."""
        return _unpack(self.y[i], self.field.dimension, float(self.s[i]))

    @property
    def states(self) -> list[GeodesicState]:
        return [self.state(i) for i in range(len(self))]

    @property
    def final_state(self) -> GeodesicState:
        return self.state(-1)

    @property
    def max_projection(self) -> float:
        return float(np.max(self.projection)) if len(self.projection) else 0.0

    @property
    def max_gauge_error(self) -> float:
        return float(np.max(self.gauge_error)) if len(self.gauge_error) else 0.0


# ---------------------------------------------------------------------------
# right-hand sides and residuals
# ---------------------------------------------------------------------------


def _bundle_at(field, x, bundle, curvature_step=None):
    """The caller's curvature bundle at x, checked to sit exactly there,
    or a new one computed at x when the caller has none; ConfgeoError
    unless it has the Schouten tensor, which dimension 2 does not define."""
    if bundle is None:
        bundle = curvature(field, x, step=curvature_step)
    # integrate passes each stage the bundle computed from that very array
    elif bundle.point is not x and not np.array_equal(bundle.point, x):
        raise ValueError(
            f"curvature bundle is at {bundle.point}, not at the state's point {x}"
        )
    if bundle.schouten is None:
        raise ConfgeoError("Schouten tensor undefined in dimension 2")
    return bundle


def _pow(x, p):
    """x ** p elementwise, rounded as a scalar power rounds.

    A scalar power calls the C library's pow, while numpy's array power
    computes x * x for p = 2 and a vectorised pow otherwise; the two
    differ in the last bit for some arguments (about 1 in 20 for p = 3
    with numpy 2.4 on AVX-512 x86-64).  Taking each power as a scalar
    keeps every instance of a stack bit-identical to a single evaluation.
    """
    x = np.asarray(x, dtype=float)
    return np.array([v**p for v in x.ravel().tolist()]).reshape(x.shape)


# The helpers below, the RHS and the residuals take vectors (..., n) and
# matrices (..., n, n) stacked over matching or broadcasting leading axes:
# one state, or a state stacked over leading axes with a ``bundle``
# stacked over the same or broadcasting axes.  np.matvec, np.vecmat and
# np.vecdot rounded as the 1-D and 2-D ``np.dot`` products do on numpy 2.4
# with OpenBLAS 0.3.31, so every instance of a stack gets the bits of a
# one-state call; numpy does not promise it, and the stacking tests check it.


def _quadratic(p, M, q):
    """p . M . q, as the 1-D ``p @ M @ q``."""
    return np.vecdot(np.vecmat(p, M), q)


def _raise_index(ginv, L, v):
    """L^v = g^-1 L v."""
    return np.matvec(ginv @ L, v)


def _covariant_wedge(gamma, v, b, db):
    """(S, nabla_v S) for S = v ^ b, where b = nabla_v v and db is the
    parameter derivative of the components of b."""
    gamma_v = _connection_along(gamma, v)
    v_dot = b - np.matvec(gamma_v, v)
    db = np.asarray(db, float)
    vc, vr, bc, br = v[..., :, None], v[..., None, :], b[..., :, None], b[..., None, :]
    dS = (v_dot[..., :, None] * br + vc * db[..., None, :]) - (
        bc * v_dot[..., None, :] + db[..., :, None] * vr
    )
    S = _wedge(v, b)
    return S, _transport(gamma_v, S, dS)


def _speed(g, v, x):
    """|v| for velocities v (..., n) at points x, one state or a stack;
    ImmersionError names the first point where |v|^2 is not a positive
    number (zero, negative or NaN)."""
    speed2 = _quadratic(v, g, v)
    stopped = ~(speed2 > 0.0)
    if np.count_nonzero(stopped):
        at = _first_point(stopped, x)
        raise ImmersionError(
            f"unparametrized state not immersed at {at}: |v|^2 > 0 fails"
        )
    return np.sqrt(speed2)


def propertime_rhs(
    field: MetricField,
    state: GeodesicState,
    curvature_step: Optional[float] = None,
    *,
    bundle: Optional[CurvatureBundle] = None,
):
    """Coordinate derivatives (dx, du, da) of the proper-time system:
    dx = u, du = a - Gamma(u, u) and da = (-|a|^2 - L(u, u)) u
    - Gamma(u, a) + L^u, nabla_u a as the plain parameter derivative of
    the components of a.

    ``bundle`` is the curvature bundle at ``state.x`` when the caller
    already has it; it must be at exactly that point (ValueError
    otherwise), and ``field`` and ``curvature_step`` are then unused.
    Without it the bundle is computed here.

    l_u = L u is taken once, for L^u = g^-1 l_u and L(u, u) = u . l_u.
    p - q rounds as -q + p does, so subtracting Gamma(u, a) saves its
    negation; the scalar keeps its two terms, as -(|a|^2 + L(u, u)) is
    -0 where -|a|^2 - L(u, u) is +0 (a sum that cancels exactly).

    One state (u of shape (n,)) with a one-point bundle takes its
    products through ``np.dot``, whose BLAS call costs least per call; a
    stacked state or bundle takes ``np.matvec``, ``np.vecmat`` and
    ``np.vecdot``, which gave each instance the bits of ``np.dot`` on
    numpy 2.4 with OpenBLAS 0.3.31 (the stacking tests check it).
    Gamma(u, .) is the matrix Gamma.reshape(n*n, n) times u on both
    routes: ``np.dot`` of the 3-D Gamma and u gave other bits (in the
    last place, for most inputs).
    """
    x, u, a = state.x, state.u, state.a
    bundle = _bundle_at(field, x, bundle, curvature_step)
    gamma = bundle.christoffel
    one = u.ndim == 1 and gamma.ndim == 3
    matvec, vecmat, vecdot = (np.dot,) * 3 if one else (np.matvec, np.vecmat, np.vecdot)
    l_u = matvec(bundle.schouten, u)
    a_sq = vecdot(vecmat(a, bundle.metric), a)
    u_lu = vecdot(u, l_u)

    n = gamma.shape[-1]
    gamma_u = matvec(gamma.reshape(gamma.shape[:-3] + (n * n, n)), u)
    gamma_u = gamma_u.reshape(gamma_u.shape[:-1] + (n, n))  # Gamma^m_ab u^b
    du = a - matvec(gamma_u, u)
    da = (
        (-a_sq - u_lu)[..., None] * u
        - matvec(gamma_u, a)
        + matvec(bundle.inverse_metric, l_u)
    )
    return u.copy(), du, da


def wedge_form_residual(
    field: MetricField,
    state: GeodesicState,
    da: np.ndarray,
    *,
    bundle: Optional[CurvatureBundle] = None,
) -> Bivector:
    """Residual nabla_u(u ^ a) - u ^ L^u of the wedge form
    nabla_u(u ^ a) = u ^ L^u.

    ``da`` is the candidate parameter derivative of the components of a.
    The residual vanishes exactly when da agrees with the proper-time
    right-hand side up to a multiple of u (the wedge is blind to
    tangential differences, which the gauge conditions determine).
    ``bundle`` is the curvature bundle at ``state.x`` when the caller
    already has it, as in ``propertime_rhs``.
    """
    x, u = state.x, state.u
    bundle = _bundle_at(field, x, bundle)
    _, cov = _covariant_wedge(bundle.christoffel, u, state.a, da)
    L_u = _raise_index(bundle.inverse_metric, bundle.schouten, u)
    return Bivector(cov - _wedge(u, L_u), x)


def unparam_residual(
    field: MetricField,
    state: UnparamState,
    db: np.ndarray,
    *,
    bundle: Optional[CurvatureBundle] = None,
) -> Bivector:
    """Residual nabla_v (v ^ b / |v|^3) - (v ^ L^v) / |v|.

    Zero (to rounding) for any parametrization of a conformal geodesic.
    ``db`` is the parameter derivative of the components of b; the
    normalized bivector is differentiated by the quotient rule using
    d|v|/dt = g(v, b) / |v|.  ``bundle`` is the curvature bundle at
    ``state.x`` when the caller already has it, as in ``propertime_rhs``.
    ImmersionError names the first point where |v|^2 > 0 fails.
    """
    x, v, b = state.x, state.v, state.b
    bundle = _bundle_at(field, x, bundle)
    g, L = bundle.metric, bundle.schouten
    speed = _speed(g, v, x)[..., None, None]

    S, cov_S = _covariant_wedge(bundle.christoffel, v, b, db)
    dspeed = _quadratic(v, g, b)[..., None, None] / speed
    cov_W = cov_S / _pow(speed, 3) - 3.0 * S * dspeed / _pow(speed, 4)
    rhs = _wedge(v, _raise_index(bundle.inverse_metric, L, v)) / speed
    return Bivector(cov_W - rhs, x)


def unparam_residual_scale(
    field: MetricField,
    state: UnparamState,
    db: np.ndarray,
    *,
    bundle: Optional[CurvatureBundle] = None,
) -> float | np.ndarray:
    """Magnitude of the terms that cancel inside unparam_residual: a
    float, or an array over the leading axes of a stacked state.

    Residuals are best judged relative to this: for the spiral curve
    the individual terms blow up like e^(1/t) while their sum vanishes.
    ``bundle`` is the curvature bundle at ``state.x`` when the caller
    already has it, as in ``propertime_rhs``; g and g^-1 come from it.
    ImmersionError where |v|^2 > 0 fails, as in ``unparam_residual``.
    """
    x, v, b = state.x, state.v, state.b
    bundle = _bundle_at(field, x, bundle)
    g, L = bundle.metric, bundle.schouten
    speed = _speed(g, v, x)
    S = _max_abs(_wedge(v, b))
    derivative = _max_abs(_wedge(v, np.asarray(db, float))) / _pow(speed, 3)
    quotient = 3.0 * S * np.abs(_quadratic(v, g, b)) / _pow(speed, 4)
    forcing = _max_abs(_wedge(v, _raise_index(bundle.inverse_metric, L, v))) / speed
    largest = np.maximum(np.maximum(derivative, quotient), forcing)
    return np.maximum(largest, 1e-300)


def from_unparametrized(field: MetricField, state: UnparamState) -> GeodesicState:
    """Convert to the proper-time gauge.

    u = v / |v| and a is the |v|^-2 scaled part of b orthogonal to v;
    the output satisfies |u| = 1 and g(u, a) = 0 exactly by construction.
    """
    x, v, b = state.x, state.v, state.b
    g = field(x)
    speed2 = float(v @ g @ v)
    if not speed2 > 0.0:
        raise ImmersionError(f"cannot reparametrize a state with |v|^2 = {speed2}")
    u = v / np.sqrt(speed2)
    a = (b - (float(v @ g @ b) / speed2) * v) / speed2
    return GeodesicState(x=x, u=u, a=a, s=0.0)


def circle_state(radius: float) -> GeodesicState:
    """Proper-time initial data of a circle in flat 3-space (z = 0 plane)."""
    if not (np.isfinite(radius) and radius > 0.0):
        raise ValueError(f"circle radius must be positive and finite, got {radius}")
    x = np.array([radius, 0.0, 0.0])
    a = np.array([-1.0 / radius, 0.0, 0.0])
    return GeodesicState(x=x, u=np.array([0.0, 1.0, 0.0]), a=a, s=0.0)


# ---------------------------------------------------------------------------
# Dormand-Prince 8(5,3) integration
# ---------------------------------------------------------------------------

# The DOP853 tableau of Hairer, Norsett & Wanner, Solving Ordinary
# Differential Equations I (2nd ed., Springer 1993), Sec. II.10, with the
# digits of their dop853.f: 12 stages, nodes _C, stage rows _A (row i has
# i entries), 8th-order weights _B, and the 5th- and 3rd-order error
# weights _E5 and _E3 of the combined error estimate.
_C = np.array(
    [
        0.0,
        0.526001519587677318785587544488e-01,
        0.789002279381515978178381316732e-01,
        0.118350341907227396726757197510,
        0.281649658092772603273242802490,
        0.333333333333333333333333333333,
        0.25,
        0.307692307692307692307692307692,
        0.651282051282051282051282051282,
        0.6,
        0.857142857142857142857142857142,
        1.0,
    ]
)
_A = [
    np.array([]),
    np.array([5.26001519587677318785587544488e-2]),
    np.array([1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]),
    np.array(
        [2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2]
    ),
    np.array(
        [
            2.41365134159266685502369798665e-1,
            0.0,
            -8.84549479328286085344864962717e-1,
            9.24834003261792003115737966543e-1,
        ]
    ),
    np.array(
        [
            3.7037037037037037037037037037e-2,
            0.0,
            0.0,
            1.70828608729473871279604482173e-1,
            1.25467687566822425016691814123e-1,
        ]
    ),
    np.array(
        [
            3.7109375e-2,
            0.0,
            0.0,
            1.70252211019544039314978060272e-1,
            6.02165389804559606850219397283e-2,
            -1.7578125e-2,
        ]
    ),
    np.array(
        [
            3.70920001185047927108779319836e-2,
            0.0,
            0.0,
            1.70383925712239993810214054705e-1,
            1.07262030446373284651809199168e-1,
            -1.53194377486244017527936158236e-2,
            8.27378916381402288758473766002e-3,
        ]
    ),
    np.array(
        [
            6.24110958716075717114429577812e-1,
            0.0,
            0.0,
            -3.36089262944694129406857109825,
            -8.68219346841726006818189891453e-1,
            2.75920996994467083049415600797e1,
            2.01540675504778934086186788979e1,
            -4.34898841810699588477366255144e1,
        ]
    ),
    np.array(
        [
            4.77662536438264365890433908527e-1,
            0.0,
            0.0,
            -2.48811461997166764192642586468,
            -5.90290826836842996371446475743e-1,
            2.12300514481811942347288949897e1,
            1.52792336328824235832596922938e1,
            -3.32882109689848629194453265587e1,
            -2.03312017085086261358222928593e-2,
        ]
    ),
    np.array(
        [
            -9.3714243008598732571704021658e-1,
            0.0,
            0.0,
            5.18637242884406370830023853209,
            1.09143734899672957818500254654,
            -8.14978701074692612513997267357,
            -1.85200656599969598641566180701e1,
            2.27394870993505042818970056734e1,
            2.49360555267965238987089396762,
            -3.0467644718982195003823669022,
        ]
    ),
    np.array(
        [
            2.27331014751653820792359768449,
            0.0,
            0.0,
            -1.05344954667372501984066689879e1,
            -2.00087205822486249909675718444,
            -1.79589318631187989172765950534e1,
            2.79488845294199600508499808837e1,
            -2.85899827713502369474065508674,
            -8.87285693353062954433549289258,
            1.23605671757943030647266201528e1,
            6.43392746015763530355970484046e-1,
        ]
    ),
]
_B = np.array(
    [
        5.42937341165687622380535766363e-2,
        0.0,
        0.0,
        0.0,
        0.0,
        4.45031289275240888144113950566,
        1.89151789931450038304281599044,
        -5.8012039600105847814672114227,
        3.1116436695781989440891606237e-1,
        -1.52160949662516078556178806805e-1,
        2.01365400804030348374776537501e-1,
        4.47106157277725905176885569043e-2,
    ]
)
_E5 = np.array(
    [
        0.1312004499419488073250102996e-1,
        0.0,
        0.0,
        0.0,
        0.0,
        -0.1225156446376204440720569753e1,
        -0.4957589496572501915214079952,
        0.1664377182454986536961530415e1,
        -0.3503288487499736816886487290,
        0.3341791187130174790297318841,
        0.8192320648511571246570742613e-1,
        -0.2235530786388629525884427845e-1,
    ]
)
# _B minus the weights of the embedded 3rd-order solution
_E3 = _B - np.array(
    [
        0.244094488188976377952755905512,
        0.0,
        0.0,
        0.0,
        0.0,
        0.0,
        0.0,
        0.0,
        0.733846688281611857341361741547,
        0.0,
        0.0,
        0.220588235294117647058823529412e-1,
    ]
)


_UNDERFLOW = 16.0 * np.finfo(float).eps


def _g_product(p, g, q) -> float:
    """p . g . q for one point's vectors, as a Python float."""
    return float(np.dot(np.dot(p, g), q))


def _underflows(h: float, s: float) -> bool:
    """Whether a step h at s is too short to move s in floating point."""
    return abs(h) < _UNDERFLOW * max(abs(s), 1.0)


class _DOP853:
    """Dormand-Prince 8(5,3) steps of y' = f(y) for a flat float array y.

    ``rhs(y, out, returned=None)`` writes f(y) into ``out``, a row of the
    stage buffer K, and returns what the caller wants back from that
    evaluation; passed that back as ``returned`` at the point it came
    from, it may reuse it.  The scalars are Python floats: their +, -,
    *, / and ** round as numpy's float64 scalars do.

    Row i < 12 of K is stage i's derivative and row 12 the RHS at y_new;
    stages[i] @ weights combines the rows before i.  Row 0 holds f at the
    start of the next attempt, so a rejected attempt keeps it.  The RHS at
    an accepted y_new is the next step's first stage (FSAL, first same as
    last), unless the caller moved y_new after the attempt (``accept``).
    So an attempt costs 12 RHS evaluations, and an accepted step that
    moved y_new one more.

    The stage sums and the error estimate act on one state, so they take
    ``np.dot`` (as ``_g_product`` does for ``integrate``), which costs
    less per call than ``@`` and gave the same bits on numpy 2.4 with
    OpenBLAS 0.3.31 (the spiral's pinned trajectory checks it).
    """

    def __init__(self, rhs, size: int, tol: float):
        self.rhs, self.tol = rhs, tol
        self.K = np.empty((13, size))
        self.rows = list(self.K)
        self.stages = [self.K[:i].T for i in range(13)]

    def start(self, y) -> float:
        """Evaluate the first stage at y and return Hairer's guess for the
        first |h|."""
        self.rhs(y, self.rows[0])
        scale = self.tol + self.tol * np.abs(y)
        d0 = np.sqrt(np.mean((y / scale) ** 2))
        d1 = np.sqrt(np.mean((self.K[0] / scale) ** 2))
        return float(0.01 * d0 / d1) if d1 > 1e-10 else 1e-6

    def attempt(self, y, h: float):
        """One step of h from y: (y_new, what the RHS returned at y_new,
        Hairer's error norm), the 8th-order solution y_new in a new array.

        The norm is the 5th-order estimate e5 scaled by
        |e5| / hypot(|e5|, 0.1 |e3|), e3 the 3rd-order one, so that it
        shrinks like h^8; each component is measured against
        ``tol * (1 + max(|y|, |y_new|))``.  A NaN or overflowing estimate
        gives inf.  math.sqrt rounds as np.sqrt does, and its argument is
        finite or +inf here.
        """
        stages, rows, rhs = self.stages, self.rows, self.rhs
        for i in range(1, 12):
            rhs(y + h * np.dot(stages[i], _A[i]), rows[i])
        y_new = y + h * np.dot(stages[12], _B)
        returned = rhs(y_new, rows[12])

        sc = self.tol + self.tol * np.maximum(np.abs(y), np.abs(y_new))
        e5 = np.dot(stages[12], _E5) / sc
        e3 = np.dot(stages[12], _E3) / sc
        e5_sq, e3_sq = float(np.dot(e5, e5)), float(np.dot(e3, e3))
        err = 0.0
        if not math.isfinite(e5_sq + e3_sq):
            err = math.inf
        elif e5_sq > 0.0:
            err = abs(h) * e5_sq / math.sqrt((e5_sq + 0.01 * e3_sq) * y.size)
        return y_new, returned, err

    def accept(self, y_new, returned, moved: bool) -> None:
        """Start the next attempt from the accepted y_new: its first stage
        is row 12, or, when the caller ``moved`` y_new, the RHS evaluated
        again there with what it returned at y_new."""
        if moved:
            self.rhs(y_new, self.rows[0], returned)
        else:
            self.K[0] = self.K[12]  # row 12 is overwritten by the next attempt


def _renormalize(y, n: int, g) -> float:
    """Project the state y = (x, u, a) in place, u to unit norm and a to
    the complement of u under the metric matrix g; return the metric size
    |du| + |da| of that projection."""
    u, a = y[n : 2 * n], y[2 * n :]
    # np.sqrt: u.g.u may be negative, where math.sqrt would raise
    u_new = u / np.sqrt(_g_product(u, g, u))
    a_new = a - _g_product(u_new, g, a) * u_new
    du, da = u_new - u, a_new - a
    y[n : 2 * n], y[2 * n :] = u_new, a_new
    return math.sqrt(max(_g_product(du, g, du), 0.0)) + math.sqrt(
        max(_g_product(da, g, da), 0.0)
    )


def integrate(
    field: MetricField,
    initial: GeodesicState,
    s_span: tuple[float, float],
    *,
    tol: float = 1e-8,
    max_steps: int = 100_000,
    renormalize: bool = True,
    curvature_step: Optional[float] = None,
    stop: Optional[Callable[[GeodesicState], bool]] = None,
) -> Trajectory:
    """Integrate the proper-time conformal geodesic equation.

    Adaptive Dormand-Prince 8(5,3) (DOP853; Hairer, Norsett & Wanner,
    Solving Ordinary Differential Equations I, 2nd ed., Sec. II.10) on
    the first-order system in (x, u, a); the 8th-order solution is
    propagated, and the step size follows Hairer's combined 5th/3rd-order
    error estimate, each component's error measured against
    ``tol * (1 + |y|)``; a NaN or infinite estimate rejects the step.
    Runs in either s-direction, from a finite s0 to any s1 but NaN (an
    infinite s1 leaves the end to ``stop`` or ``max_steps``), and from an
    initial state whose x, u and a each have ``field.dimension``
    components and whose x is finite (ValueError otherwise).  With
    ``renormalize`` on, each accepted step projects u back to unit norm
    and a to the orthogonal complement of u, and the metric size of that
    projection is recorded per sample so silent drift cannot hide an
    equation violation.  ``curvature_step`` is the finite-difference
    step of ``curvature`` (positive and finite, else ValueError);
    ``stop`` ends the run at the first accepted state it holds for, with
    status "stopped".

    One curvature bundle serves each distinct point: the one at an
    attempt's new point also supplies g for the renormalisation and the
    gauge residual of the accepted state, and serves the RHS again after
    a renormalisation (which moves u and a, not x) unless that step was
    the last.  So an accepted step costs 12 curvature evaluations.  The
    initial state's g is evaluated once, for its gauge check and its
    diagnostics.

    On step underflow, leaving the metric domain, or exceeding
    ``max_steps``, the partial trajectory is returned with a diagnostic
    status instead of raising.  Each call logs one INFO summary on the
    ``confgeo.dynamics`` logger: status, accepted and rejected steps,
    domain shrinks, RHS evaluations, the range of accepted |h| and the
    curvature evaluations; and one DEBUG record per rejected step (s, h,
    error norm) and per domain shrink (s, h, exception).
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    if curvature_step is not None and not 0.0 < curvature_step < math.inf:
        raise ValueError(
            f"curvature_step must be positive and finite, got {curvature_step}"
        )
    s0, s1 = float(s_span[0]), float(s_span[1])
    if not np.isfinite(s0) or np.isnan(s1):
        raise ValueError(f"s_span must run from a finite s to a number, got {s_span}")
    n = field.dimension
    misshapen = [k for k in ("x", "u", "a") if getattr(initial, k).shape != (n,)]
    if misshapen:
        raise ValueError(
            f"initial {', '.join(misshapen)} must have shape ({n},) on {field.name}"
        )
    if not np.isfinite(initial.x).all():
        raise ValueError(f"initial x must be finite, got {initial.x}")
    g = initial.require_gauge(field)

    direction = 1.0 if s1 >= s0 else -1.0
    span = abs(s1 - s0)
    stats = dict(status="ok", message="", accepted=0, rejected=0, domain_shrinks=0)
    stats.update(rhs_evaluations=0, curvature_evaluations=0, h_min=None, h_max=None)

    def rhs(y, k, bundle=None):
        """Write dy/ds at y into ``k``; return the bundle at y, reused when given."""
        stats["rhs_evaluations"] += 1
        state = _unpack(y, n, 0.0)
        if bundle is None:
            stats["curvature_evaluations"] += 1
            bundle = curvature(field, state.x, step=curvature_step)
        k[:n], k[n : 2 * n], k[2 * n :] = propertime_rhs(field, state, bundle=bundle)
        return bundle

    y = np.concatenate([initial.x, initial.u, initial.a])
    s_vals, rows, gauge, proj = [s0], [y], [max(initial.gauge_residuals(g))], [0.0]

    def finish(status, message=""):
        stats.update(status=status, message=message)
        # an accepted |h| is never 0, so ``or`` replaces only None
        log.info(
            "integrate %(name)s: %(status)s%(note)s; %(accepted)d accepted, "
            "%(rejected)d rejected, %(domain_shrinks)d domain shrinks, "
            "%(rhs_evaluations)d RHS evaluations, accepted |h| in "
            "[%(lo).3g, %(hi).3g], %(curvature_evaluations)d curvature evaluations",
            dict(
                stats,
                name=field.name,
                note=f" ({message})" if message else "",
                lo=stats["h_min"] or math.nan,
                hi=stats["h_max"] or math.nan,
            ),
        )
        return Trajectory(field, *map(np.array, (s_vals, rows, gauge, proj)), stats)

    if stop is not None and stop(_unpack(y, n, s0)):
        return finish("stopped", "stop condition met at the initial state")
    if span == 0.0:
        return finish("ok")

    stepper = _DOP853(rhs, y.size, tol)
    try:
        h = direction * min(stepper.start(y), span)
    except ConfgeoError as exc:
        return finish("left_domain", str(exc))

    s = s0
    while True:
        if stats["accepted"] >= max_steps:
            return finish("max_steps", f"exceeded {max_steps} steps")
        if _underflows(h, s):
            return finish("step_underflow", f"step {h:.3e} underflowed at s={s:.6g}")
        if direction * (s + h - s1) > 0.0:
            h = s1 - s

        try:
            y_new, bundle, err = stepper.attempt(y, h)
        except ConfgeoError as exc:
            # shrink toward the domain boundary; give up when h underflows
            stats["domain_shrinks"] += 1
            log.debug("domain shrink at s=%.17g, h=%.6g: %s", s, h, exc)
            h *= 0.5
            if _underflows(h, s):
                return finish("left_domain", str(exc))
            continue

        if err <= 1.0:
            s, y = s + h, y_new
            proj_size = _renormalize(y, n, bundle.metric) if renormalize else 0.0
            state = _unpack(y, n, s)
            s_vals.append(s)
            rows.append(y)
            gauge.append(max(state.gauge_residuals(bundle.metric)))
            proj.append(proj_size)
            stats["accepted"] += 1
            stats["h_min"] = min(abs(h), stats["h_min"] or math.inf)
            stats["h_max"] = max(abs(h), stats["h_max"] or 0.0)

            if stop is not None and stop(state):
                return finish("stopped", "stop condition met")
            if direction * (s1 - s) <= 0.0:
                return finish("ok")  # the end of s_span: no further step needs k1
            stepper.accept(y, bundle, proj_size > 0.0)
        else:
            stats["rejected"] += 1
            log.debug("rejected step at s=%.17g, h=%.6g: err=%.3g", s, h, err)

        # err ** (-1/8), the error norm shrinking like h^8
        h *= min(10.0, max(0.2, 0.9 * err**-0.125 if err > 0.0 else 10.0))


# ---------------------------------------------------------------------------
# arc length and spiral detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArcLengthResult:
    value: float
    estimated_error: float
    converged: bool  # False: the panel cap was reached first


@functools.cache
def _gauss_legendre():
    """32-node Gauss-Legendre rule on [-1, 1], made on the first use."""
    return np.polynomial.legendre.leggauss(32)


def arc_length(
    field: MetricField,
    curve: Callable[[np.ndarray], np.ndarray],
    t_span: tuple[float, float],
    *,
    velocity: Callable[[np.ndarray], np.ndarray],
    tol: float = 1e-9,
) -> ArcLengthResult:
    """Length of a curve over t_span, the integral of |velocity(t)|_g.

    ``curve`` and ``velocity`` map parameters (N,) to (N, n).  32-node
    Gauss-Legendre on 1, 2, 4, ... panels, one ``field`` call per round,
    until two rounds agree within ``tol * max(1, |value|)`` (the finer is
    returned, their difference is ``estimated_error``) or, not
    ``converged``, at 1024 panels.  A reversed span negates the length.
    ImmersionError where |velocity|^2_g is not positive or NaN.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (np.isfinite([t0, t1, tol]).all() and tol > 0.0):
        raise ValueError(f"need a finite t_span and tol > 0, got {t_span}, tol={tol}")
    nodes, weights = _gauss_legendre()
    panels, previous = 1, np.nan  # the first round has no estimate to agree with
    while True:
        edges = np.linspace(*sorted((t0, t1)), panels + 1)
        half = 0.5 * np.diff(edges)[:, None]
        t = (edges[:-1, None] + half + half * nodes).ravel()
        v = np.asarray(velocity(t), float)
        sp2 = _quadratic(v, field(curve(t)), v)
        if not np.all(sp2 > 0.0):
            raise ImmersionError(f"curve not immersed at t={t[np.argmin(sp2 > 0.0)]}")
        value = math.copysign(float((half * weights).ravel() @ np.sqrt(sp2)), t1 - t0)
        error = abs(value - previous)
        converged = error <= tol * max(1.0, abs(value))
        if converged or panels == 1024:
            return ArcLengthResult(value, error, converged)
        panels, previous = 2 * panels, value


@dataclass(frozen=True)
class SpiralRadiusReport:
    radius: float
    contained: bool
    s0: Optional[float]  # first parameter after which the trajectory stays inside


@dataclass(frozen=True)
class SpiralReport:
    candidate_point: np.ndarray
    entries: tuple[SpiralRadiusReport, ...]
    arc_growing: bool
    spiral_consistent: bool

    @property
    def verdict(self) -> str:
        return "spiral-consistent" if self.spiral_consistent else "not contained"


def detect_spiral(traj: Trajectory, candidate_point, radii) -> SpiralReport:
    """Containment analysis of a trajectory around a candidate point.

    For each radius rho, finds the first sample index after which every
    later sample stays within distance rho of the candidate (distances
    in flat background coordinates).  The verdict is spiral-consistent
    when containment holds for every tested radius and arc length is
    still growing at the end of the trajectory.  A finite trajectory can
    only ever be consistent with spiraling, never prove it.  ``radii``
    must be a non-empty list of positive, finite radii (else ValueError),
    so the verdict is never a vacuous pass.
    """
    radii = [float(rho) for rho in radii]
    if not radii:
        raise ValueError("spiral detection needs at least one radius")
    for rho in radii:
        if not (np.isfinite(rho) and rho > 0.0):
            raise ValueError(
                f"containment radius must be positive and finite, got {rho}"
            )
    candidate = np.asarray(candidate_point, float)
    pos = traj.cartesian_positions()
    d = np.linalg.norm(pos - candidate, axis=1)
    # suffix maximum: suff[i] = max(d[i:])
    suff = np.maximum.accumulate(d[::-1])[::-1]

    entries = []
    for rho in radii:
        inside = np.flatnonzero(suff <= rho)
        if inside.size:
            entries.append(SpiralRadiusReport(rho, True, float(traj.s[inside[0]])))
        else:
            entries.append(SpiralRadiusReport(rho, False, None))

    arc = traj.arc_length
    arc_growing = len(arc) >= 2 and arc[-1] > arc[-2]
    consistent = arc_growing and all(e.contained for e in entries)
    return SpiralReport(candidate, tuple(entries), arc_growing, consistent)
