"""Charts and metric fields.

A :class:`Chart` names the coordinates and knows where they break down
(for example the axis r = 0 of cylindrical coordinates).  A
:class:`MetricField` is a chart-tagged map from points to symmetric
positive-definite matrices, optionally carrying closed-form first and
second partial derivatives.  Everything downstream (Christoffel symbols,
curvature, geodesic integration) consumes these two types.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy._core._ufunc_config import _extobj_contextvar
from numpy._core.umath import _make_extobj
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import ChartSingularityError, DegenerateMetricError

# Points closer to a coordinate singularity than this are rejected.
AXIS_TOL = 1e-6


@dataclass(frozen=True)
class Chart:
    """A named coordinate chart.

    ``singular_mask`` maps an array of points with shape (..., dim) to a
    boolean array of their leading shape (...) flagging points on (or too
    near) the singular locus: 0-d, or a bool, for one point (dim,).
    ``to_cartesian`` embeds chart coordinates into flat background
    coordinates; it is used for chart-independent distances.
    """

    name: str
    dimension: int
    coordinate_names: tuple[str, ...]
    singular_mask: Optional[Callable[[np.ndarray], np.ndarray]] = None
    to_cartesian: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("chart dimension must be at least 2")
        if len(self.coordinate_names) != self.dimension:
            raise ValueError("need exactly one name per coordinate")

    def require_regular(self, points):
        """Raise ChartSingularityError naming the first of the points
        (..., dim) that lies on the singular locus."""
        if self.singular_mask is None:
            return
        # one point, as curvature() passes it: its mask's truth value clears it
        if getattr(points, "ndim", None) == 1 and not self.singular_mask(points):
            return
        points = np.asarray(points, dtype=float)
        singular = self.singular_mask(points)
        # a stack's mask is counted; one point's 0-d mask has a truth value
        if np.count_nonzero(singular) if points.ndim > 1 else singular:
            raise ChartSingularityError(
                f"point {_first_point(singular, points)} lies on the singular "
                f"locus of chart '{self.name}'"
            )

    def embed(self, points) -> np.ndarray:
        """Map chart coordinates to flat background coordinates."""
        points = np.asarray(points, dtype=float)
        if self.to_cartesian is None:
            return points
        return np.asarray(self.to_cartesian(points))


def cartesian_chart(dimension: int = 3) -> Chart:
    """Coordinates x, y[, z[, w]], or x1, .., xn from n = 5 on."""
    xyzw = ("x", "y", "z", "w")[:dimension]
    names = xyzw if dimension <= 4 else tuple(f"x{i}" for i in range(1, dimension + 1))
    return Chart("cartesian", dimension, names)


def polar_chart() -> Chart:
    def embed(p):
        r, phi = p[..., 0], p[..., 1]
        return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)

    return Chart(
        "polar",
        2,
        ("r", "phi"),
        singular_mask=lambda p: p[..., 0] < AXIS_TOL,
        to_cartesian=embed,
    )


def cylindrical_chart() -> Chart:
    def embed(p):
        r, phi, z = p[..., 0], p[..., 1], p[..., 2]
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)

    return Chart(
        "cylindrical",
        3,
        ("r", "phi", "z"),
        singular_mask=lambda p: p[..., 0] < AXIS_TOL,
        to_cartesian=embed,
    )


def sphere_chart() -> Chart:
    return Chart(
        "sphere",
        2,
        ("theta", "phi"),
        singular_mask=lambda p: np.minimum(p[..., 0], np.pi - p[..., 0]) < AXIS_TOL,
    )


@dataclass(frozen=True)
class MetricField:
    """A smooth metric on (part of) a chart.

    ``evaluate`` must accept points of shape (..., dim) and return
    matrices of shape (..., dim, dim); all built-in metrics are
    vectorized so that finite-difference stencils evaluate in one call.

    ``analytic_jet``, when given, maps a float array of points (..., dim)
    to fresh float arrays ``(g, dg, d2g)``, which curvature takes as they
    are, with the points' leading axes in front of ``g[i, j] = g_ij``,
    ``dg[a, i, j] = d_a g_ij`` and ``d2g[a, b, i, j] = d_a d_b g_ij``,
    each point with the bits of a one-point call; its g must agree with
    ``evaluate`` (to rounding).
    Curvature then takes the whole jet from this one call; a field
    without one takes its partials by finite differences of ``evaluate``
    (``dataclasses.replace(field, analytic_jet=None)`` forces that route).
    """

    chart: Chart
    evaluate: Callable[[np.ndarray], np.ndarray]
    analytic_jet: Optional[Callable[[np.ndarray], tuple]] = None
    name: str = ""

    @property
    def dimension(self) -> int:
        return self.chart.dimension

    def __call__(self, points) -> np.ndarray:
        return np.asarray(self.evaluate(np.asarray(points, dtype=float)))

    def inverse(self, point) -> np.ndarray:
        return _checked_inverse(self(point), point)


# Largest max_i g_ii (g^-1)_ii accepted by _checked_inverse.
MAX_CONDITION = 1e9


def _first_point(mask, points) -> np.ndarray:
    """The point of the first flagged instance of a stack: ``mask`` has the
    stack's leading shape (() for a single instance) and ``points`` is
    (..., n), broadcast against it."""
    mask = np.asarray(mask)
    index = np.unravel_index(np.argmax(mask), mask.shape)
    points = np.asarray(points)
    return np.broadcast_to(points, mask.shape + points.shape[-1:])[index]


def _each_point(jet, points):
    """(g, dg, d2g) over points (..., n) from one call of the one-point
    ``jet`` per point, with the stack's leading axes in front."""
    n = points.shape[-1]
    jets = [jet(p) for p in points.reshape(-1, n)]
    return tuple(
        np.array([j[k] for j in jets], dtype=float).reshape(points.shape[:-1] + (n,) * (k + 2))
        for k in range(3)
    )


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


# np.linalg.inv's error state, built once: a singular matrix calls
# _raise_singular, and nothing else warns or raises.
_INVERSE_ERRSTATE = _make_extobj(
    call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore"
)


def _inverse(g: np.ndarray) -> np.ndarray:
    """np.linalg.inv of g (n, n) or a stack (..., n, n), in float64,
    without its Python wrapper, which doubles the time of a 3x3 inverse:
    the same LAPACK gufunc under the same errstate, so a singular matrix
    raises LinAlgError and nothing warns, whatever the caller's errstate.
    The errstate is numpy's own context variable set to an error state
    built at import, and reset after the call; ``np.errstate`` would
    build it anew on every call, as a decorator too."""
    token = _extobj_contextvar.set(_INVERSE_ERRSTATE)
    try:
        return _umath_linalg.inv(g, signature="d->d")
    finally:
        _extobj_contextvar.reset(token)


def _checked_inverse(g: np.ndarray, point) -> np.ndarray:
    """Inverse of the metric matrix g at a point, rejecting degenerate g.

    g is rejected when it is singular or not finite, or when
    cond = max_i g_ii (g^-1)_ii exceeds MAX_CONDITION.  cond is the
    largest diagonal entry of the inverse of D^-1/2 g D^-1/2 (D = diag g),
    the metric with every coordinate rescaled to unit length, so it is 1
    for any diagonal g, near a chart's axis too, and does not change when
    a coordinate is rescaled.  For positive-definite g it bounds the
    2-norm condition number k of D^-1/2 g D^-1/2 as k / n^2 <= cond <= k.

    g may be a stack (..., n, n) of metrics at the points (..., n); the
    error then names the point of the first degenerate instance.
    """
    try:
        ginv = _inverse(g)
    except LinAlgError as exc:
        for index in np.ndindex(g.shape[:-2]):  # the first singular instance
            try:
                _inverse(g[index])
            except LinAlgError:
                at = np.broadcast_to(point, g.shape[:-1])[index]
                raise DegenerateMetricError(f"metric singular at {at}") from exc
        raise
    if g.ndim == 2:
        # One metric: the products g_ij (g^-1)_ij gate both tests below.
        # Their sum is finite only when every entry of g and g^-1 is, and
        # the diagonal ones are the condition measure.  As Python floats
        # they round as numpy's do, and an infinite entry raises no
        # floating-point warning.
        products = list(map(operator.mul, g.ravel().tolist(), ginv.ravel().tolist()))
        if (
            math.isfinite(sum(products))
            and max(products[:: g.shape[0] + 1]) <= MAX_CONDITION
        ):
            return ginv
    # Each test runs on the whole stack; the failing instance is looked
    # up only after one fails.
    finite_entries = np.count_nonzero(np.isfinite(g)) + np.count_nonzero(
        np.isfinite(ginv)
    )
    if finite_entries < 2 * g.size:
        finite = np.isfinite(g).all(axis=(-2, -1)) & np.isfinite(ginv).all(
            axis=(-2, -1)
        )
        raise DegenerateMetricError(
            f"metric not finite at {_first_point(~finite, point)}"
        )
    cond = (g * ginv).diagonal(0, -2, -1)  # g_ii (g^-1)_ii
    if float(cond.max(initial=0.0)) > MAX_CONDITION:  # an empty stack has no max
        cond = cond.max(axis=-1)
        ill = cond > MAX_CONDITION
        raise DegenerateMetricError(
            f"metric ill-conditioned at {_first_point(ill, point)} "
            f"(condition number {np.asarray(cond)[ill][0]:.3g})"
        )
    return ginv


# ---------------------------------------------------------------------------
# standard metrics
# ---------------------------------------------------------------------------


def euclidean_metric(dimension: int = 3) -> MetricField:
    """Flat metric in Cartesian coordinates."""
    eye = np.eye(dimension)

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        return np.broadcast_to(eye, points.shape[:-1] + eye.shape).copy()

    def jet(points):  # fresh zeros per call: the caller may write into them
        dg_shape = points.shape[:-1] + (dimension,) * 3
        return evaluate(points), np.zeros(dg_shape), np.zeros(dg_shape + (dimension,))

    return MetricField(
        cartesian_chart(dimension),
        evaluate,
        analytic_jet=jet,
        name=f"euclidean{dimension}d",
    )


def _flat_polar(chart: Chart, name: str) -> MetricField:
    """Flat metric dr^2 + r^2 dphi^2 (+ dz^2) in a chart (r, phi[, z])."""
    n = chart.dimension
    eye_z = np.eye(n - 2)

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        r = points[..., 0]
        g = np.zeros(points.shape[:-1] + (n, n))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = r * r
        g[..., 2:, 2:] = eye_z
        return g

    def jet(points):
        dg = np.zeros(points.shape[:-1] + (n,) * 3)
        d2g = np.zeros(dg.shape + (n,))
        dg[..., 0, 1, 1] = 2.0 * points[..., 0]
        d2g[..., 0, 0, 1, 1] = 2.0
        return evaluate(points), dg, d2g

    return MetricField(chart, evaluate, analytic_jet=jet, name=name)


def flat_polar_metric() -> MetricField:
    """Flat 2D metric dr^2 + r^2 dphi^2."""
    return _flat_polar(polar_chart(), "flat_polar")


def flat_cylindrical_metric() -> MetricField:
    """Flat 3D metric dr^2 + r^2 dphi^2 + dz^2."""
    return _flat_polar(cylindrical_chart(), "flat_cylindrical")


def round_sphere_metric(radius: float = 1.0) -> MetricField:
    """Round 2-sphere of the given radius, g = R^2 (dtheta^2 + sin^2 theta dphi^2).

    No analytic jet: this metric is the standard target for
    finite-difference convergence tests.  The radius must be positive
    and finite, else ValueError.
    """
    if not (np.isfinite(radius) and radius > 0.0):
        raise ValueError(f"sphere radius must be positive and finite, got {radius}")

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        th = points[..., 0]
        g = np.zeros(points.shape[:-1] + (2, 2))
        g[..., 0, 0] = radius**2
        g[..., 1, 1] = (radius * np.sin(th)) ** 2
        return g

    return MetricField(sphere_chart(), evaluate, name=f"sphere(R={radius})")


@functools.lru_cache(maxsize=64)
def _power_rule_tables(shape, data):
    """The power-rule jet of the exponent table ``data`` (int64 bytes of
    the given (m, dim) shape), coefficient-free, one group of tables per
    order: the polynomial itself, its d_a partials (table a) and its
    d_a d_b partials (table dim a + b), by d_a (x^e) = e_a x^(e - 1_a).

    Returns n_powers and, per order, read-only arrays (index, gather,
    first, second) of its K tables (1, dim or dim^2), padded to the
    length m_k of its longest: monomial j of table k is the product over
    a of entries index[k, j, a] of the flattened (dim, n_powers) table of
    x_a^p, p < n_powers, and its coefficient is row gather[k m_k + j] of
    the polynomial's m coefficient rows, with a zero row m appended for
    the padding, times ``first`` and then ``second`` (the factors of the
    first and the second derivative, in the order the rule applies them;
    1 where there is none, and for the padding).
    """
    dim = shape[1]
    exps = np.frombuffer(data, dtype=np.int64).reshape(shape)
    n_powers = int(exps.max(initial=0)) + 1

    def derive(table, axis, order):
        e, rows, factors = table
        mask = e[:, axis] > 0
        e, factors = e[mask].copy(), factors[mask].copy()
        factors[:, order] = e[:, axis]
        e[:, axis] -= 1
        return e, rows[mask], factors

    def padded(tables):
        m_k = max(len(rows) for _, rows, _ in tables)
        index = np.zeros((len(tables), m_k, dim), dtype=np.int64)
        gather = np.full((len(tables), m_k), len(exps))
        factors = np.ones((len(tables), m_k, 2))
        for k, (e, rows, f) in enumerate(tables):
            index[k, : len(e)] = e
            gather[k, : len(rows)] = rows
            factors[k, : len(rows)] = f
        index += np.arange(dim) * n_powers
        gather, factors = gather.ravel(), factors.reshape(-1, 2)
        for arr in (index, gather, factors):
            arr.flags.writeable = False
        return index, gather, factors[:, :1], factors[:, 1:]

    base = (exps, np.arange(len(exps)), np.ones((len(exps), 2)))
    first = [derive(base, a, 0) for a in range(dim)]
    second = [derive(first[a], b, 1) for a in range(dim) for b in range(dim)]
    return n_powers, tuple(padded(tables) for tables in ([base], first, second))


# The polynomial metrics' kernels take the coefficients (..., m, dim, dim)
# of one metric, or of a stack of metrics over leading axes with one
# point per metric; polynomial_metric's closures are their one-metric
# case (its evaluate is the jet kernel on the first table alone, so g has
# one formula), and each metric of a stack gets the bits of its own
# closures.


def _jet_tables(exponents, coefficients):
    """n_powers and, per order, (index, table) of the power-rule jet of
    the metrics with these int64 exponents (see ``_power_rule_tables``):
    each table (..., K, m_k, dim^2) holds the coefficients of its
    monomials, one gather per order, with +0.0 for the padding."""
    n_powers, groups = _power_rule_tables(exponents.shape, exponents.tobytes())
    lead, (m, n) = coefficients.shape[:-3], coefficients.shape[-3:-1]
    flat = np.zeros(lead + (m + 1, n * n))  # row m: the padding's zero row
    flat[..., :m, :] = coefficients.reshape(lead + (m, n * n))
    out = []
    for index, gather, first, second in groups:
        table = (flat[..., gather, :] * first) * second
        out.append((index, table.reshape(lead + index.shape[:2] + (n * n,))))
    return n_powers, out


def _polynomial_jet(points, n_powers, tables):
    """One array per order of ``_jet_tables``' output given, at points
    (..., dim): g, then dg and d2g, so the first table alone gives g.
    Per order, one contraction of the monomials x_a^p against its table;
    the identity is added to g."""
    n = points.shape[-1]
    powers = (points[..., :, None] ** np.arange(n_powers)).reshape(
        points.shape[:-1] + (n * n_powers,)
    )
    out = []
    for order, (index, table) in enumerate(tables):
        terms = np.einsum(
            "...km,...kmx->...kx",
            np.prod(np.take(powers, index, axis=-1), axis=-1),
            table,
        )
        out.append(terms.reshape(terms.shape[:-2] + (n,) * (order + 2)))
    out[0] = np.eye(n) + out[0]
    return tuple(out)


def polynomial_metric(
    exponents: np.ndarray,
    coefficients: np.ndarray,
    *,
    name: str = "polynomial",
) -> MetricField:
    """Flat metric plus a polynomial symmetric perturbation.

    ``exponents`` has shape (m, dim) with non-negative integer entries,
    where dim >= 2 is the metric's dimension, and ``coefficients`` has
    shape (m, dim, dim) and is symmetric in its last two indices
    (ValueError otherwise).  The entry g_ij(x) is
    delta_ij + sum_k c[k, i, j] x^e[k].  Exact first and second partials
    follow from the power rule, which makes these metrics a cross-check
    for the finite-difference pipeline.

    The jet (g, dg, d2g) is one contraction per order and point: every
    monomial of g and of its partials is a product of the entries x_a^k
    of one power table, left to right as ``np.prod`` takes them, against
    a coefficient table stacked over the order's partials and built here.
    ``evaluate`` is the jet's first order alone, so both give g by one
    formula.  Both are the one-metric case of the module's kernels
    (``_jet_tables``, ``_polynomial_jet``), which also evaluate a stack
    of metrics, one point each, with the bits each metric's own
    closures give.  Both refuse points whose last axis is not dim with
    curvature()'s ValueError, which names the shape.
    """
    exponents = np.asarray(exponents)
    coefficients = np.asarray(coefficients, dtype=float)
    if (
        exponents.ndim != 2
        or exponents.dtype.kind not in "iu"
        or (exponents < 0).any()
    ):
        raise ValueError("exponents must be an (m, dim) array of non-negative integers")
    exponents = exponents.astype(np.int64)
    m, dimension = exponents.shape
    if coefficients.shape != (m, dimension, dimension):
        raise ValueError(
            f"coefficients must have shape {(m, dimension, dimension)}, "
            f"not {coefficients.shape}"
        )
    if not (
        np.isfinite(coefficients).all()
        and np.array_equal(coefficients, coefficients.transpose(0, 2, 1))
    ):
        raise ValueError(
            "coefficients must be finite and symmetric in their last two indices"
        )

    n_powers, tables = _jet_tables(exponents, coefficients)

    def checked(points):
        points = np.asarray(points, dtype=float)
        if points.shape[-1:] != (dimension,):
            raise ValueError(
                f"points must have shape (..., {dimension}) on {name}, "
                f"not {points.shape}"
            )
        return points

    def evaluate(points):
        return _polynomial_jet(checked(points), n_powers, tables[:1])[0]

    def jet(points):
        return _polynomial_jet(checked(points), n_powers, tables)

    return MetricField(
        cartesian_chart(dimension),
        evaluate,
        analytic_jet=jet,
        name=name,
    )
