"""The spiraling conformal geodesic example, derived from one curve.

The curve (r, phi) = (t, e^(1/t)) on t in (0, 1] winds infinitely often
around the origin of the flat plane while its radius shrinks linearly;
phi' < 0, the paper's winding.  Along it, the normalized acceleration
bivector (v ^ b)/|v|^3 and the bivector v ^ M^v built from the
symmetric tensor M = 2 r dr dphi are multiples A(t) and B(t) of the
covariantly constant area bivector, so requiring

    nabla_v (v ^ b / |v|^3) = k(t) (v ^ M^ v) / |v|

determines a unique scalar k = A'/B.  The construction reads the curve
only through q = 1/(t |phi'|) = t e^(-1/t) and u_n = d^n ln q / dt^n:
``_curve`` alone forms e^(1/t), and A, B, k, k', k'', t* and the
curve's kinematics follow by arithmetic and square roots, with one
formula for floats and arrays.  k vanishes to all orders as t -> 0+ and
has a pole at t* ~ 1.7632, where q = 1 and v ^ M^v changes sign.

The 3D metric built from the radial profile h(r) = -k(r)/2 (times a
smooth cutoff that is identically 1 on the curve's range) restricts to
the flat metric on the plane z = 0, leaves that plane totally geodesic,
and produces exactly the Ricci tensor -2 h(r) M there, which turns the
curve into an unparametrized conformal geodesic of the 3D space.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from .dynamics import UnparamState
from .metrics import MetricField, _each_point, cartesian_chart, cylindrical_chart

# The cutoff is 1 on r <= CHI_INNER (which contains the curve, r <= 1)
# and 0 on r >= CHI_OUTER (safely below the pole of k at t*).
CHI_INNER = 1.1
CHI_OUTER = 1.5


def _as_float_array(t):
    arr = np.asarray(t, dtype=float)
    return arr, arr.ndim == 0


# ---------------------------------------------------------------------------
# the curve and its forcing scalar
# ---------------------------------------------------------------------------


def _exp(x):
    """e^x of a float, or of each entry of an array, as math.exp rounds it;
    inf past the double range, as np.exp gives.  With it, the functions
    below round an array entry as a float call: +, -, *, / and the square
    root are correctly rounded in Python and numpy alike."""
    if isinstance(x, float):
        try:
            return math.exp(x)
        except OverflowError:
            return math.inf
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(_exp, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _curve(t):
    """(q, (u1, u2, u3, u4), phi) of the paper's curve at t > 0.

    phi = e^(1/t), q = t e^(-1/t) = t/phi = 1/(t |phi'|), and
    u_n = d^n ln q / dt^n for ln q = ln t - 1/t, that is
    u_n = (-1)^(n+1) (n-1)! (1 + n/t) / t^n.  The only place that forms
    e^(1/t): below t ~ 1.41e-3, phi is inf and q is 0.
    """
    s = 1.0 / t
    s2 = s * s
    u = (
        s * (1.0 + s),
        -s2 * (1.0 + 2.0 * s),
        2.0 * s2 * s * (1.0 + 3.0 * s),
        -6.0 * s2 * s2 * (1.0 + 4.0 * s),
    )
    phi = _exp(s)
    return t / phi, u, phi


def _wedge_coeffs(t, q, u1):
    """(A, rho, Q, P, D) for a curve (t, phi(t)) with phi' = -1/(t q) < 0.

    With Q = q^2 and P = 1 + Q: A = -N/D for N = Q (1 - t u1) + 1 and
    D = t P^(3/2), and B = -(1 - Q)/(q sqrt P) = 1/rho, where
    rho = -q sqrt(P)/(1 - Q) never divides by q.
    """
    Q = q * q
    P = 1.0 + Q
    root = math.sqrt(P) if isinstance(P, float) else np.sqrt(P)
    D = t * P * root
    return -(Q * (1.0 - t * u1) + 1.0) / D, -q * root / (1.0 - Q), Q, P, D


def _forcing(t, q, u, jet=False):
    """k = A' rho from a curve's q and u = (u1, .., u4); with ``jet``,
    (k, k', k'').

    Differentiating A D = -N gives A' = -(N' + A D')/D and so on to
    A''', with the D^(n)/D taken from ln D = ln t + (3/2) ln P.  Then
    k' = A'' rho - k B'/B and k'' = A''' rho - 2 k' B'/B - k B''/B, with
    B'/B and B''/B from ln|B| = ln(1 - Q) - ln q - (ln P)/2.  Every
    logarithmic derivative is a multiple of Q/P or Q/(1 - Q) plus terms
    in 1/t and u, so all stay finite as q -> 0, where k is (-)0.
    """
    u1, u2, u3, u4 = u
    A, rho, Q, P, D = _wedge_coeffs(t, q, u1)
    # N = Q a + 1 with a = 1 - t u1; e_n = Q^(n)/Q from (ln Q)^(n) = 2 u_n
    s = 1.0 / t
    e1 = 2.0 * u1
    a = 1.0 - t * u1
    a1 = -u1 - t * u2
    QD = Q / D
    w = Q / P
    p1 = w * e1  # (ln P)'
    d1 = s + 1.5 * p1  # D'/D
    A1 = -(QD * (e1 * a + a1) + A * d1)
    k = A1 * rho
    if not jet:
        return k
    e2 = 2.0 * u2 + e1 * e1
    e3 = 2.0 * u3 + 3.0 * e1 * e2 - 2.0 * e1 * e1 * e1
    a2 = -2.0 * u2 - t * u3
    a3 = -3.0 * u3 - t * u4
    p2 = w * e2
    lp2 = p2 - p1 * p1  # (ln P)''
    l2 = 1.5 * lp2 - s * s  # (ln D)''
    l3 = 1.5 * (w * e3 - 3.0 * p1 * p2 + 2.0 * p1 * p1 * p1) + 2.0 * s * s * s
    d2 = l2 + d1 * d1  # D''/D
    d3 = l3 + d1 * (3.0 * l2 + d1 * d1)  # D'''/D
    A2 = -(QD * (e2 * a + 2.0 * e1 * a1 + a2) + 2.0 * A1 * d1 + A * d2)
    A3 = -(
        QD * (e3 * a + 3.0 * (e2 * a1 + e1 * a2) + a3)
        + 3.0 * (A2 * d1 + A1 * d2)
        + A * d3
    )
    c = Q / (1.0 - Q)
    m1 = c * e1  # -(ln(1 - Q))'
    b1 = -m1 - u1 - 0.5 * p1  # B'/B
    b2 = b1 * b1 - c * e2 - m1 * m1 - u2 - 0.5 * lp2  # B''/B
    k1 = A2 * rho - k * b1
    return k, k1, A3 * rho - 2.0 * k1 * b1 - k * b2


def accel_wedge_coeff(t):
    """Coefficient A(t) of (v ^ b)/|v|^3 over the unit area bivector."""
    arr, scalar = _as_float_array(t)
    q, u, _ = _curve(arr)
    out = _wedge_coeffs(arr, q, u[0])[0]
    return float(out) if scalar else out


def m_wedge_coeff(t):
    """Coefficient B(t) of (v ^ M^v)/|v| over the unit area bivector.

    Negative on (0, t*), with a simple zero at t*; -inf where q is 0.
    """
    arr, scalar = _as_float_array(t)
    q, u, _ = _curve(arr)
    with np.errstate(divide="ignore"):
        out = 1.0 / _wedge_coeffs(arr, q, u[0])[1]
    return float(out) if scalar else out


def t_star() -> float:
    """First positive root of q(t) = 1, equivalently e^(1/t) = t.

    This is where v ^ M^v changes sign and k has its pole; t* = 1/W(1)
    = 1/Omega, with Omega = W(1) the omega constant.  Newton's method on
    q(t) = 1 with q' = q u1 from t = 2 reaches a fixed point after four
    steps, within one ulp of t* = 1.76322283435189671...
    """
    t = 2.0
    for _ in range(6):
        q, u, _ = _curve(t)
        t -= (q - 1.0) / (q * u[0])
    return t


def k_exact(t):
    """The forcing scalar k(t) = A'(t) / B(t) on (0, t*).

    k < 0 on the whole domain, k(t)/t^n -> 0 as t -> 0+ for every n,
    and k ~ -e^(-1/t)/t near 0.
    """
    arr, scalar = _as_float_array(t)
    ts = t_star()
    if not np.all((arr > 0.0) & (arr < ts)):  # NaN lies outside too
        raise ValueError(f"k_exact defined on (0, t*) with t* = {ts:.6f}")
    if np.any(arr > 0.95 * ts):
        warnings.warn(
            "k_exact evaluated within 5% of its pole at t*", RuntimeWarning
        )
    q, u, _ = _curve(arr)
    out = _forcing(arr, q, u)
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# cutoff and radial profile
# ---------------------------------------------------------------------------


def _chi_jet(r: float) -> tuple[float, float, float]:
    """(chi, chi', chi'') at one r < CHI_OUTER.

    chi = b(s) / (b(s) + b(1 - s)) with b(x) = e^(-1/x), b' = b/x^2,
    b'' = b (1 - 2x)/x^4 and ds/dr = -1/(CHI_OUTER - CHI_INNER).
    """
    s = (CHI_OUTER - r) / (CHI_OUTER - CHI_INNER)
    m = 1.0 - s
    if m <= 0.0:
        return 1.0, 0.0, 0.0
    b1, b2 = math.exp(-1.0 / s), math.exp(-1.0 / m)
    b1_s, b1_ss = b1 / (s * s), b1 * (1.0 - 2.0 * s) / s**4
    b2_s, b2_ss = -b2 / (m * m), b2 * (1.0 - 2.0 * m) / m**4  # of b(1 - s)
    total = b1 + b2
    num = b1_s * b2 - b1 * b2_s
    chi_s = num / total**2
    chi_ss = (
        (b1_ss * b2 - b1 * b2_ss) / total**2
        - 2.0 * num * (b1_s + b2_s) / total**3
    )
    ds_dr = -1.0 / (CHI_OUTER - CHI_INNER)
    return b1 / total, chi_s * ds_dr, chi_ss * ds_dr * ds_dr


def _each_radius(f, r):
    """f(r) of a float radius, for r a number or each entry of an array."""
    arr, scalar = _as_float_array(r)
    if scalar:
        return f(float(arr))
    return np.array([f(x) for x in arr.ravel().tolist()], dtype=float).reshape(arr.shape)


def cutoff_chi(r):
    """Smooth cutoff: 1 for r <= 1.1, 0 for r >= 1.5, monotone between."""
    return _each_radius(lambda x: 0.0 if x >= CHI_OUTER else _chi_jet(x)[0], r)


# Below _R_FLAT, q = r/e^(1/r) is exactly 0 (e^1000 is past the largest
# double), so h and all its derivatives are exactly 0 there.
_R_FLAT = 1e-3


def _h_jet(r: float) -> tuple[float, float, float]:
    """(h, h', h'') at one radius, exactly 0 off (_R_FLAT, CHI_OUTER) and
    NaN at NaN."""
    if not _R_FLAT < r < CHI_OUTER:
        return (0.0, 0.0, 0.0) if r == r else (math.nan,) * 3
    q, u, _ = _curve(r)
    k, k1, k2 = _forcing(r, q, u, jet=True)
    chi, chi1, chi2 = _chi_jet(r)
    return (
        -0.5 * k * chi,
        -0.5 * (k1 * chi + k * chi1),
        -0.5 * (k2 * chi + 2.0 * k1 * chi1 + k * chi2),
    )


def h_profile(r):
    """Radial profile of the example metric: h = -k/2 times the cutoff.

    Identically -k(r)/2 on (0, 1.1], zero for r <= 0 and r >= 1.5,
    positive in between, flat to all orders at r = 0; NaN at NaN.
    """
    return _each_radius(lambda x: _h_jet(x)[0], r)


def _h_over_r2(r: float) -> float:
    h = _h_jet(r)[0]
    return h / (r * r) if h != 0.0 else h  # r^2 may be 0 or inf only where h is 0


def h_over_r2(r):
    """h(r) / r^2, extended by 0 through r <= 0 (it is flat there); NaN
    at NaN."""
    return _each_radius(_h_over_r2, r)


# ---------------------------------------------------------------------------
# the tensor M = 2 r dr dphi
# ---------------------------------------------------------------------------


def m_covariant(r, dimension: int = 2) -> np.ndarray:
    """Coordinate components of M in polar/cylindrical coordinates.

    M_{r phi} = M_{phi r} = r, all other entries 0.  Trace-free with
    respect to the flat metric; in the orthonormal polar frame its hat
    map simply swaps the two frame components.  For an array of radii
    the result is one matrix per radius, shape r.shape + (dim, dim).
    """
    r = np.asarray(r, dtype=float)
    M = np.zeros(r.shape + (dimension, dimension))
    M[..., 0, 1] = M[..., 1, 0] = r
    return M


# ---------------------------------------------------------------------------
# the spiral curve
# ---------------------------------------------------------------------------
# Each function takes a parameter t or an array of them and returns one
# vector per t, shape t.shape + (dimension,), with phi' = -1/(t q).


def _components(t, dimension, r_part, phi_part):
    """One vector (r_part, phi_part[, 0]) per entry of t."""
    out = np.zeros(t.shape + (dimension,))
    out[..., 0] = r_part
    out[..., 1] = phi_part
    return out


def spiral_point(t, dimension: int = 3) -> np.ndarray:
    """Position (r, phi[, z]) = (t, e^(1/t)[, 0]) of the curve."""
    t = np.asarray(t, dtype=float)
    return _components(t, dimension, t, _curve(t)[2])


def spiral_velocity(t, dimension: int = 3) -> np.ndarray:
    """Coordinate velocity (dr/dt, dphi/dt[, dz/dt]) = (1, -1/(t q)[, 0])."""
    t = np.asarray(t, dtype=float)
    return _components(t, dimension, 1.0, -1.0 / (t * _curve(t)[0]))


def spiral_acceleration(t, dimension: int = 3) -> np.ndarray:
    """Covariant acceleration b = nabla_v v in coordinate components.

    b^r = -t phi'^2 (the centripetal term) and b^phi = phi'' + 2 phi'/t
    (the connection term 2 v^r v^phi / r included); with
    phi'' = -phi' (1/t + u1), b^phi = phi' (1/t - u1).
    """
    t = np.asarray(t, dtype=float)
    q, u, _ = _curve(t)
    dphi = -1.0 / (t * q)
    return _components(t, dimension, -t * dphi * dphi, dphi * (1.0 / t - u[0]))


def spiral_acceleration_dot(t, dimension: int = 3) -> np.ndarray:
    """Plain parameter derivative of the coordinate components of b:
    (phi'^2 (1 + 2 t u1), -phi' (2/t^2 - u1^2 + u2))."""
    t = np.asarray(t, dtype=float)
    q, u, _ = _curve(t)
    dphi = -1.0 / (t * q)
    return _components(
        t,
        dimension,
        dphi * dphi * (1.0 + 2.0 * t * u[0]),
        -dphi * (2.0 / (t * t) - u[0] * u[0] + u[1]),
    )


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


# The jet table [value or partial, flat (i, j)] of _jet_from_rows, as
# indices into its rows g_00, g_11 and g_01 laid end to end, then 1 and 0.
_JET_TABLE = np.full((13, 9), 31)
_JET_TABLE[:, [0, 4, 1, 3]] = np.add.outer(
    [0, 1, 2, 3, 4, 5, 6, 5, 7, 8, 6, 8, 9], [0, 10, 20, 20]  # d_a d_b = d_b d_a
)
_JET_TABLE[0, 8] = 30  # g_22 = 1
_JET_TABLE.flags.writeable = False


def _jet_from_rows(g00, g11, g01):
    """(g, dg, d2g) from the jet rows (lists) of the only varying components.

    Both charts vary only in g_00, g_11 and g_01 = g_10, and g_22 = 1.
    A row holds the component's value, its partials d_0, d_1, d_2, then
    d_0 d_0, d_0 d_1, d_0 d_2, d_1 d_1, d_1 d_2 and d_2 d_2.
    """
    out = np.fromiter(g00 + g11 + g01 + [1.0, 0.0], float, 32)[_JET_TABLE]
    return out[0].reshape(3, 3), out[1:4].reshape(3, 3, 3), out[4:].reshape(3, 3, 3, 3)


def _cylindrical_jet(point):
    """Closed-form jet of the cylindrical components at one point (dim,)
    or over points (..., dim); only r and z enter.  Off the profile's
    support g is the flat diag(1, r^2, 1) at every finite z, also where
    z^2 overflows."""
    if point.ndim != 1:
        return _each_point(_cylindrical_jet, point)
    r, _, z = point.tolist()
    h, h1, h2 = _h_jet(r)
    z2 = 0.0 if h == 0.0 and h1 == 0.0 and h2 == 0.0 else z * z  # same bits if finite
    # w = h z^2 and W = w^2, with their partials along r and z
    w, w_r, w_z = h * z2, h1 * z2, 2.0 * h * z
    w_rr, w_rz, w_zz = h2 * z2, 2.0 * h1 * z, 2.0 * h
    W = w * w
    W_r, W_z = 2.0 * w * w_r, 2.0 * w * w_z
    W_rr = 2.0 * (w_r * w_r + w * w_rr)
    W_rz = 2.0 * (w_r * w_z + w * w_rz)
    W_zz = 2.0 * (w_z * w_z + w * w_zz)
    r2 = r * r
    return _jet_from_rows(
        [1.0 + W, W_r, 0.0, W_z, W_rr, 0.0, W_rz, 0.0, 0.0, W_zz],
        [  # g_phiphi = r^2 (1 + W)
            r2 * (1.0 + W), 2.0 * r * (1.0 + W) + r2 * W_r, 0.0, r2 * W_z,
            2.0 * (1.0 + W) + 4.0 * r * W_r + r2 * W_rr, 0.0,
            2.0 * r * W_z + r2 * W_rz, 0.0, 0.0, r2 * W_zz,
        ],
        [  # g_rphi = 2 r w
            2.0 * w * r, 2.0 * (w + r * w_r), 0.0, 2.0 * r * w_z,
            2.0 * (2.0 * w_r + r * w_rr), 0.0, 2.0 * (w_z + r * w_rz), 0.0, 0.0,
            2.0 * r * w_zz,
        ],
    )


def _radial_times_z2(f, f1, f2, r, x, y, z):
    """Partials of f(r) z^2 in (x, y, z), r = hypot(x, y) > 0.

    Returns (value, d_x, d_y, d_z, d_xx, d_xy, d_xz, d_yy, d_yz, d_zz),
    from d_a f = (f'/r) x_a and d_a d_b f = ((f'' - f'/r)/r^2) x_a x_b
    + (f'/r) delta_ab for a, b in {x, y}.
    """
    z2 = z * z
    fp = f1 / r
    fq = (f2 - fp) / (r * r)
    fxz, fyz = 2.0 * fp * x * z, 2.0 * fp * y * z
    return (
        f * z2, fp * x * z2, fp * y * z2, 2.0 * f * z,
        (fq * x * x + fp) * z2, fq * x * y * z2, fxz,
        (fq * y * y + fp) * z2, fyz, 2.0 * f,
    )


def _cartesian_jet(point):
    """Closed-form jet of the cartesian components at one point (dim,) or
    over points (..., dim).

    With F = h/r^2: g_xx = 1 + w^2 - c xy, g_yy = 1 + w^2 + c xy and
    g_xy = c (x^2 - y^2)/2 for w = h z^2 and c = 4 z^2 F.  Where h, h'
    and h'' all vanish (the flat core r <= _R_FLAT, the axis included,
    and r >= CHI_OUTER), g is exactly the identity and every partial
    exactly 0.  Where x or y is not finite the jet is NaN, although
    hypot(inf, nan) is inf.
    """
    if point.ndim != 1:
        return _each_point(_cartesian_jet, point)
    x, y, z = point.tolist()
    r = math.hypot(x, y) if math.isfinite(x) and math.isfinite(y) else math.nan
    h, h1, h2 = _h_jet(r)
    if h == 0.0 and h1 == 0.0 and h2 == 0.0:
        return np.eye(3), np.zeros((3, 3, 3)), np.zeros((3, 3, 3, 3))
    r2 = r * r
    F = h / r2
    F1 = h1 / r2 - 2.0 * h / (r2 * r)
    F2 = h2 / r2 - 4.0 * h1 / (r2 * r) + 6.0 * h / (r2 * r2)
    w, w0, w1, w2, w00, w01, w02, w11, w12, w22 = _radial_times_z2(
        h, h1, h2, r, x, y, z
    )
    c, c0, c1, c2, c00, c01, c02, c11, c12, c22 = _radial_times_z2(
        4.0 * F, 4.0 * F1, 4.0 * F2, r, x, y, z
    )
    # W = w^2
    W = w * w
    W0, W1, W2 = 2.0 * w * w0, 2.0 * w * w1, 2.0 * w * w2
    W00, W11 = 2.0 * (w0 * w0 + w * w00), 2.0 * (w1 * w1 + w * w11)
    W22, W01 = 2.0 * (w2 * w2 + w * w22), 2.0 * (w0 * w1 + w * w01)
    W02, W12 = 2.0 * (w0 * w2 + w * w02), 2.0 * (w1 * w2 + w * w12)
    # P = c p with p = xy
    p = x * y
    P = c * p
    P0, P1, P2 = c0 * p + c * y, c1 * p + c * x, c2 * p
    P00, P11, P22 = c00 * p + 2.0 * c0 * y, c11 * p + 2.0 * c1 * x, c22 * p
    P01, P02, P12 = c01 * p + c0 * x + c1 * y + c, c02 * p + c2 * y, c12 * p + c2 * x
    # M = c m with m = (x^2 - y^2)/2
    m = 0.5 * (x * x - y * y)
    M = c * m
    M0, M1, M2 = c0 * m + c * x, c1 * m - c * y, c2 * m
    M00, M11, M22 = c00 * m + 2.0 * c0 * x + c, c11 * m - 2.0 * c1 * y - c, c22 * m
    M01, M02, M12 = c01 * m - c0 * y + c1 * x, c02 * m + c2 * x, c12 * m - c2 * y
    return _jet_from_rows(
        [1.0 + W - P, W0 - P0, W1 - P1, W2 - P2, W00 - P00,
         W01 - P01, W02 - P02, W11 - P11, W12 - P12, W22 - P22],
        [1.0 + W + P, W0 + P0, W1 + P1, W2 + P2, W00 + P00,
         W01 + P01, W02 + P02, W11 + P11, W12 + P12, W22 + P22],
        [M, M0, M1, M2, M00, M01, M02, M11, M12, M22],
    )


def example_metric(chart: str = "cylindrical") -> MetricField:
    """The 3D metric whose z = 0 plane carries the spiral.

    In cylindrical coordinates (r, phi, z):

        ds^2 = (1 + h^2 z^4)(dr^2 + r^2 dphi^2) + 4 h z^2 r dr dphi + dz^2

    with h = h_profile.  The cylindrical chart rejects r < 1e-6; near
    the axis use the cartesian chart, where every component is a smooth
    function of (x, y, z) because h/r^2 and h^2 extend smoothly by zero.
    Both charts carry a closed-form jet: g and its first and second
    partials, all built from the same h, h' and h'' at the point's
    radius, so curvature() never differentiates the metric numerically.
    The jet takes one point or a stack of points, and ``evaluate`` is
    its g.
    """
    if chart not in ("cylindrical", "cartesian"):
        raise ValueError("chart must be 'cylindrical' or 'cartesian'")
    jet = _cylindrical_jet if chart == "cylindrical" else _cartesian_jet

    def evaluate(points):
        return jet(np.asarray(points, dtype=float))[0]

    return MetricField(
        cylindrical_chart() if chart == "cylindrical" else cartesian_chart(3),
        evaluate,
        analytic_jet=jet,
        name=f"example_{chart}",
    )
