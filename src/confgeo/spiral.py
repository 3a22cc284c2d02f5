"""Closed-form machinery of the spiraling conformal geodesic example.

The curve (r, phi) = (t, e^(1/t)) on t in (0, 1] winds infinitely often
around the origin of the flat plane while its radius shrinks linearly.
Along it, the normalized acceleration bivector (v ^ b)/|v|^3 and the
bivector v ^ M^v built from the symmetric tensor M = 2 r dr dphi are
both multiples of the covariantly constant area bivector, so requiring

    nabla_v (v ^ b / |v|^3) = k(t) (v ^ M^ v) / |v|

determines a unique scalar k(t).  Both multiples have closed forms,
written below in terms of q(t) = t e^(-1/t) so they stay finite in
double precision for all t.  k vanishes to all orders as t -> 0+ and
has a pole at t* ~ 1.7632 where v ^ M^v changes sign.

The 3D metric built from the radial profile h(r) = -k(r)/2 (times a
smooth cutoff that is identically 1 on the curve's range) restricts to
the flat metric on the plane z = 0, leaves that plane totally geodesic,
and produces exactly the Ricci tensor -2 h(r) M there, which turns the
curve into an unparametrized conformal geodesic of the 3D space.
"""
from __future__ import annotations

import warnings

import numpy as np
from scipy.optimize import brentq

from .dynamics import UnparamState
from .metrics import MetricField, cartesian_chart, cylindrical_chart

# The cutoff is 1 on r <= CHI_INNER (which contains the curve, r <= 1)
# and 0 on r >= CHI_OUTER (safely below the pole of k at t*).
CHI_INNER = 1.1
CHI_OUTER = 1.5


def _as_float_array(t):
    arr = np.asarray(t, dtype=float)
    return arr, arr.ndim == 0


def f(t):
    """Angular rate |dphi/dt| = e^(1/t) / t^2 of the spiral, for t > 0.

    Evaluated as exp(1/t - 2 log t); overflows to inf only once the true
    value exceeds double range (near t ~ 0.0014).
    """
    t, scalar = _as_float_array(t)
    if np.any(t <= 0.0):
        raise ValueError("f(t) requires t > 0")
    out = np.exp(1.0 / t - 2.0 * np.log(t))
    return float(out) if scalar else out


def f_dot(t):
    """First derivative of f: -(2 t + 1) e^(1/t) / t^4."""
    t, scalar = _as_float_array(t)
    if np.any(t <= 0.0):
        raise ValueError("f_dot(t) requires t > 0")
    out = -(2.0 * t + 1.0) * np.exp(1.0 / t - 4.0 * np.log(t))
    return float(out) if scalar else out


def f_ddot(t):
    """Second derivative of f: (6 t^2 + 6 t + 1) e^(1/t) / t^6."""
    t, scalar = _as_float_array(t)
    if np.any(t <= 0.0):
        raise ValueError("f_ddot(t) requires t > 0")
    out = (6.0 * t * t + 6.0 * t + 1.0) * np.exp(1.0 / t - 6.0 * np.log(t))
    return float(out) if scalar else out


def inverse_speed_scale(t):
    """q(t) = t e^(-1/t) = 1 / (t f(t)), the small parameter of the curve.

    q underflows to exactly 0 below t ~ 0.0013, where every quantity
    scaled by it is far below double precision anyway.
    """
    t, scalar = _as_float_array(t)
    if np.any(t <= 0.0):
        raise ValueError("requires t > 0")
    out = t * np.exp(-1.0 / t)
    return float(out) if scalar else out


_T_STAR = None


def t_star() -> float:
    """First positive root of t f(t) = 1, equivalently e^(1/t) = t.

    This is where v ^ M^v changes sign and k acquires a pole.
    """
    global _T_STAR
    if _T_STAR is None:
        _T_STAR = brentq(
            lambda t: t * np.exp(-1.0 / t) - 1.0, 1.0, 2.0, xtol=1e-15, rtol=1e-15
        )
    return _T_STAR


def accel_wedge_coeff(t):
    """Coefficient A(t) of (v ^ b)/|v|^3 over the unit area bivector.

    A = (-t f' - 2 f - t^2 f^3) / (1 + t^2 f^2)^(3/2), evaluated in the
    overflow-free form (q^2 - t) / (t^2 (1 + q^2)^(3/2)).
    """
    t, scalar = _as_float_array(t)
    q2 = inverse_speed_scale(t) ** 2
    out = (q2 - t) / (t * t * (1.0 + q2) ** 1.5)
    return float(out) if scalar else out


def m_wedge_coeff(t):
    """Coefficient B(t) of (v ^ M^v)/|v| over the unit area bivector.

    B = (1 - t^2 f^2) / sqrt(1 + t^2 f^2) = -(1 - q^2) / (q sqrt(1 + q^2)).
    Negative on (0, t*), with a simple zero at t*.
    """
    t, scalar = _as_float_array(t)
    q = inverse_speed_scale(t)
    with np.errstate(divide="ignore"):
        out = -(1.0 - q * q) / (q * np.sqrt(1.0 + q * q))
    return float(out) if scalar else out


def accel_wedge_coeff_prime(t):
    """Closed-form t-derivative of accel_wedge_coeff.

    A'(t) = (t^2 + (2 + 3t + 4t^2) q^2 - (1 + 3t) q^4)
            / (t^4 (1 + q^2)^(5/2)).
    """
    t, scalar = _as_float_array(t)
    q2 = inverse_speed_scale(t) ** 2
    num = t * t + (2.0 + 3.0 * t + 4.0 * t * t) * q2 - (1.0 + 3.0 * t) * q2 * q2
    out = num / (t**4 * (1.0 + q2) ** 2.5)
    return float(out) if scalar else out


def k_exact(t):
    """The forcing scalar k(t) = A'(t) / B(t) on (0, t*).

    Algebraically simplified so that the e^(1/t) factors cancel:

        k = -q (t^2 + (2 + 3t + 4t^2) q^2 - (1 + 3t) q^4)
            / (t^4 (1 + q^2)^2 (1 - q^2)),     q = t e^(-1/t).

    k < 0 on the whole domain, k(t)/t^n -> 0 as t -> 0+ for every n,
    and k ~ -e^(-1/t)/t near 0.
    """
    arr, scalar = _as_float_array(t)
    tv = np.atleast_1d(arr)
    if np.any(tv <= 0.0) or np.any(tv >= t_star()):
        raise ValueError(f"k_exact defined on (0, t*) with t* = {t_star():.6f}")
    if np.any(tv > 0.95 * t_star()):
        warnings.warn(
            "k_exact evaluated within 5% of its pole at t*", RuntimeWarning
        )
    q = tv * np.exp(-1.0 / tv)
    out = np.zeros_like(tv)
    m = q > 0.0  # q == 0 means |k| is far below double precision
    tm, qm = tv[m], q[m]
    q2 = qm * qm
    num = tm * tm + (2.0 + 3.0 * tm + 4.0 * tm * tm) * q2 - (1.0 + 3.0 * tm) * q2 * q2
    out[m] = -qm * num / (tm**4 * (1.0 + q2) ** 2 * (1.0 - q2))
    return float(out[0]) if scalar else out.reshape(arr.shape)


# ---------------------------------------------------------------------------
# cutoff and radial profile
# ---------------------------------------------------------------------------


def _bump(x):
    """e^(-1/x) on x > 0, 0 elsewhere; the building block of smooth cutoffs."""
    x = np.asarray(x, dtype=float)
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, np.exp(-1.0 / safe), 0.0)


def cutoff_chi(r):
    """Smooth cutoff: 1 for r <= 1.1, 0 for r >= 1.5, monotone between."""
    r, scalar = _as_float_array(r)
    s = (CHI_OUTER - r) / (CHI_OUTER - CHI_INNER)
    up = _bump(s)
    denom = up + _bump(1.0 - s)
    out = up / np.where(denom == 0.0, 1.0, denom)
    return float(out) if scalar else out


def h_profile(r):
    """Radial profile of the example metric: h = -k/2 times the cutoff.

    Identically -k(r)/2 on (0, 1.1], zero for r <= 0 and r >= 1.5,
    positive in between, flat to all orders at r = 0.
    """
    arr, scalar = _as_float_array(r)
    rv = np.atleast_1d(arr)
    out = np.zeros_like(rv)
    m = (rv > 0.0) & (rv < CHI_OUTER)
    if np.any(m):
        out[m] = -0.5 * k_exact(rv[m]) * cutoff_chi(rv[m])
    return float(out[0]) if scalar else out.reshape(arr.shape)


def h_over_r2(r):
    """h(r) / r^2, extended by 0 through r <= 0 (it is flat there)."""
    arr, scalar = _as_float_array(r)
    rv = np.atleast_1d(arr)
    out = np.zeros_like(rv)
    m = (rv > 0.0) & (rv < CHI_OUTER)
    if np.any(m):
        out[m] = h_profile(rv[m]) / rv[m] ** 2
    return float(out[0]) if scalar else out.reshape(arr.shape)


# ---------------------------------------------------------------------------
# the tensor M = 2 r dr dphi
# ---------------------------------------------------------------------------


def m_covariant(r: float, dimension: int = 2) -> np.ndarray:
    """Coordinate components of M in polar/cylindrical coordinates.

    M_{r phi} = M_{phi r} = r, all other entries 0.  Trace-free with
    respect to the flat metric; in the orthonormal polar frame its hat
    map simply swaps the two frame components.
    """
    M = np.zeros((dimension, dimension))
    M[0, 1] = M[1, 0] = float(r)
    return M


# ---------------------------------------------------------------------------
# the spiral curve
# ---------------------------------------------------------------------------


def spiral_point(t, dimension: int = 3) -> np.ndarray:
    """Position (r, phi[, z]) = (t, e^(1/t)[, 0]) of the curve."""
    t = float(t)
    p = [t, np.exp(1.0 / t)]
    if dimension == 3:
        p.append(0.0)
    return np.array(p)


def spiral_velocity(t, dimension: int = 3) -> np.ndarray:
    """Coordinate velocity (dr/dt, dphi/dt[, dz/dt]) = (1, -f[, 0])."""
    v = [1.0, -f(t)]
    if dimension == 3:
        v.append(0.0)
    return np.array(v)


def spiral_acceleration(t, dimension: int = 3) -> np.ndarray:
    """Covariant acceleration b = nabla_v v in coordinate components.

    b^r = -t f^2 (the centripetal term), b^phi = -f' - 2 f / t (the
    angular part including the connection term 2 v^r v^phi / r).
    """
    t = float(t)
    b = [-t * f(t) ** 2, -f_dot(t) - 2.0 * f(t) / t]
    if dimension == 3:
        b.append(0.0)
    return np.array(b)


def spiral_acceleration_dot(t, dimension: int = 3) -> np.ndarray:
    """Plain parameter derivative of the coordinate components of b."""
    t = float(t)
    db = [
        -f(t) ** 2 - 2.0 * t * f(t) * f_dot(t),
        -f_ddot(t) - 2.0 * f_dot(t) / t + 2.0 * f(t) / t**2,
    ]
    if dimension == 3:
        db.append(0.0)
    return np.array(db)


def spiral_state(t, dimension: int = 3) -> UnparamState:
    """Arbitrary-parameter state of the curve at parameter t in (0, 1].

    In the 3D example metric the plane z = 0 is totally geodesic with
    flat induced metric, so the flat-plane covariant acceleration is
    also the 3D one.
    """
    t = float(t)
    if not 0.0 < t <= 1.0:
        raise ValueError("spiral parameter must lie in (0, 1]")
    return UnparamState(
        x=spiral_point(t, dimension),
        v=spiral_velocity(t, dimension),
        b=spiral_acceleration(t, dimension),
        t=t,
    )


# ---------------------------------------------------------------------------
# the example 3D metric, in two charts
# ---------------------------------------------------------------------------


def _cylindrical_evaluate(points):
    points = np.asarray(points, dtype=float)
    r = points[..., 0]
    z = points[..., 2]
    w = h_profile(r) * z * z
    g = np.zeros(points.shape[:-1] + (3, 3))
    g[..., 0, 0] = 1.0 + w * w
    g[..., 1, 1] = r * r * (1.0 + w * w)
    g[..., 0, 1] = g[..., 1, 0] = 2.0 * w * r
    g[..., 2, 2] = 1.0
    return g


def _cartesian_evaluate(points):
    points = np.asarray(points, dtype=float)
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    r = np.hypot(x, y)
    hr2 = h_over_r2(r)  # smooth through the axis
    h = hr2 * r * r
    w = h * z * z
    c = 4.0 * z * z * hr2
    g = np.zeros(points.shape[:-1] + (3, 3))
    g[..., 0, 0] = 1.0 + w * w - c * x * y
    g[..., 1, 1] = 1.0 + w * w + c * x * y
    g[..., 0, 1] = g[..., 1, 0] = 0.5 * c * (x * x - y * y)
    g[..., 2, 2] = 1.0
    return g


def example_metric(chart: str = "cylindrical") -> MetricField:
    """The 3D metric whose z = 0 plane carries the spiral.

    In cylindrical coordinates (r, phi, z):

        ds^2 = (1 + h^2 z^4)(dr^2 + r^2 dphi^2) + 4 h z^2 r dr dphi + dz^2

    with h = h_profile.  The cylindrical chart rejects r < 1e-6; near
    the axis use the cartesian chart, where every component is a smooth
    function of (x, y, z) because h/r^2 and h^2 extend smoothly by zero.
    """
    if chart == "cylindrical":
        return MetricField(
            cylindrical_chart(), _cylindrical_evaluate, name="example_cylindrical"
        )
    if chart == "cartesian":
        return MetricField(
            cartesian_chart(3), _cartesian_evaluate, name="example_cartesian"
        )
    raise ValueError("chart must be 'cylindrical' or 'cartesian'")
