"""Pointwise differential geometry: metric derivatives, Christoffel
symbols, Riemann/Ricci/scalar curvature and the Schouten tensor.

The metric and its derivatives come from the metric's closed-form jet
when it has one, otherwise from central finite differences: 4th-order
stencils for first derivatives and symmetric 4th-order stencils
(5-point diagonal, composed 4x4 cross) for second derivatives.  All
tensors are dense and every kernel takes any dimension n >= 2; the
package uses 2 and 3, and the tests also check 4.

Beyond Gamma the kernel builds one tensor, Y = d Gamma + Gamma Gamma
(``CurvatureBundle``), of which Ricci and Riemann are both linear maps.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from .errors import DegenerateMetricError, StepSizeError
from .metrics import MetricField, _checked_inverse, _each_point, _first_point

# Default finite-difference step, scaled per coordinate by max(1, |x_a|).
DEFAULT_FD_STEP = 1e-4

_OFF1 = (-2, -1, 1, 2)
_W1 = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
_W2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def _fd_steps(point: np.ndarray, step: Optional[float]) -> np.ndarray:
    """Per-axis steps at one point; ``_metric_jets`` has refused a step
    that is not positive and finite."""
    base = DEFAULT_FD_STEP if step is None else float(step)
    scale = np.maximum(1.0, np.abs(point))
    h = base * scale
    if np.any(h <= 64.0 * np.finfo(float).eps * scale):
        raise StepSizeError(f"step {base} underflows at point {point}")
    return h


def _pairs(n: int):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


@functools.lru_cache(maxsize=None)
def _stencil_offsets(n: int) -> np.ndarray:
    """Stencil offsets in units of the per-axis step: the centre, then 4
    points along each axis, then the 4x4 grid of each axis pair a < b."""
    eye = np.eye(n)
    rows = [np.zeros(n)]
    rows += [o * eye[a] for a in range(n) for o in _OFF1]
    rows += [
        oa * eye[a] + ob * eye[b]
        for a, b in _pairs(n)
        for oa in _OFF1
        for ob in _OFF1
    ]
    return np.array(rows)


def _fd_metric_derivatives(field: MetricField, point: np.ndarray, step):
    """One batched metric evaluation over the full stencil at one point.

    Returns (g, dg, d2g) with dg[a, i, j] = d_a g_ij and
    d2g[a, b, i, j] = d_a d_b g_ij.
    """
    n = point.size
    h = _fd_steps(point, step)
    values = field(point + _stencil_offsets(n) * h)
    g0 = values[0]
    axis_values = values[1 : 1 + 4 * n].reshape(n, 4, n, n)
    pair_values = values[1 + 4 * n :].reshape(-1, 4, 4, n, n)
    dg = np.empty((n, n, n))
    d2g = np.empty((n, n, n, n))
    for a, vals in enumerate(axis_values):
        dg[a] = np.tensordot(_W1, vals, axes=(0, 0)) / h[a]
        stack = np.stack([vals[0], vals[1], g0, vals[2], vals[3]])
        d2g[a, a] = np.tensordot(_W2, stack, axes=(0, 0)) / h[a] ** 2
    for (a, b), vals in zip(_pairs(n), pair_values):
        mixed = np.einsum("p,q,pqij->ij", _W1, _W1, vals) / (h[a] * h[b])
        d2g[a, b] = mixed
        d2g[b, a] = mixed
    return g0, dg, d2g


def _metric_jets(field: MetricField, point: np.ndarray, step=None):
    """(g, dg, d2g) at one float point (n,) or float points (..., n), n =
    field.dimension, refusing another last axis (ValueError), a coordinate
    that is not finite (DegenerateMetricError), the chart's singular locus
    (ChartSingularityError), each naming the first such point, and then a
    ``step`` that is not positive and finite (StepSizeError), on both
    routes.  The stencil runs point by point: a stack has the bits of
    one-point calls."""
    n = field.chart.dimension
    if point.shape[-1:] != (n,):
        raise ValueError(
            f"points must have shape (..., {n}) on {field.name}, not {point.shape}"
        )
    if not all(map(math.isfinite, point.ravel().tolist())):
        bad = ~np.isfinite(point).all(axis=-1)
        raise DegenerateMetricError(f"point {_first_point(bad, point)} is not finite")
    field.chart.require_regular(point)
    if step is not None and not 0.0 < float(step) < math.inf:
        raise StepSizeError(
            f"finite-difference step must be positive and finite, got {float(step)}"
        )
    if field.analytic_jet is not None:
        return field.analytic_jet(point)
    fd = functools.partial(_fd_metric_derivatives, field, step=step)
    return _each_point(fd, point)


def metric_derivatives(field: MetricField, point, order: int, step=None):
    """First (dg[..., a, i, j]) or second (d2g[..., a, b, i, j]) partials
    of g at one point (n,) or at points (..., n), as ``curvature`` takes
    them."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    _, dg, d2g = _metric_jets(field, np.asarray(point, dtype=float), step)
    return dg if order == 1 else d2g


@functools.lru_cache(maxsize=None)
def _contraction_maps(n: int):
    """Constant maps of the curvature kernel in dimension n.  Each is the
    kernel's formula applied to a basis, so its entries are exact (0,
    +-1/2 or +-1); they are read-only.

    - ``sym`` (n^3, n^3): dg.ravel() @ sym is T/2 with
      T[s, a, b] = d_a g_sb + d_b g_sa - d_s g_ab; the same map takes
      each slice d2g[c] = d_c dg to d_c T/2.
    - ``sym_w`` (n^3, 2 n^3): dg.ravel() @ sym_w is T/2 followed by
      W[c, i, s] = T/2[s, c, i] = d_c g_is - T/2[i, c, s].
    - ``ric_lin`` (n^4, n^2): Y.ravel() @ ric_lin is
      Y[m, m, a, b] - Y[b, m, a, m], the Ricci tensor for the Y of
      ``CurvatureBundle``.
    """
    e3 = np.eye(n**3).reshape(n**3, n, n, n)
    T = e3.transpose(0, 2, 1, 3) + e3.transpose(0, 2, 3, 1) - e3
    sym = 0.5 * T.reshape(n**3, n**3)
    w = 0.5 * T.transpose(0, 2, 3, 1).reshape(n**3, n**3)
    e4 = np.eye(n**4).reshape(n**4, n, n, n, n)
    ric_lin = np.einsum("kmmab->kab", e4) - np.einsum("kbmam->kab", e4)
    maps = (sym, np.hstack([sym, w]), ric_lin.reshape(n**4, n * n))
    for m in maps:
        m.flags.writeable = False
    return maps


def christoffel(field: MetricField, point, step=None) -> np.ndarray:
    """Levi-Civita connection coefficients Gamma[..., m, a, b] = Gamma^m_ab
    at one point (n,) or at points (..., n), as ``curvature`` takes them."""
    return curvature(field, point, step).christoffel


@dataclass(frozen=True, init=False)
class CurvatureBundle:
    """All pointwise curvature data derived from one metric jet.

    Index conventions: riemann[m, n, a, b] = R^m_nab with
    R^m_nab = d_a Gamma^m_nb - d_b Gamma^m_na + Gamma^m_sa Gamma^s_nb
    - Gamma^m_sb Gamma^s_na, ricci[n, b] = R^m_nmb, and for dimension
    n >= 3 the Schouten tensor
    schouten = (ricci - scalar/(2(n-1)) g) / (n-2).
    With these signs the unit round sphere has ricci = g and scalar 2.
    For dimension 2 ``schouten`` is None.

    The bundle keeps one private tensor, ``_y``, with
    Y[c, m, a, b] = d_c Gamma^m_ab + Gamma^m_cs Gamma^s_ab, so that
    R^m_nab = Y[a, m, n, b] - Y[b, m, n, a] and
    ricci[a, b] = Y[m, m, a, b] - Y[b, m, a, m].  ``curvature`` contracts
    Ricci straight from Y, so it builds no Riemann tensor; ``riemann`` and
    ``riemann_lowered`` (R_mnab = g_ms R^s_nab) are built from Y on first
    access.  The partials of Gamma are d_c Gamma^m_ab = Y[c, m, a, b]
    - Gamma^m_cs Gamma^s_ab.

    The bundle of points stacked over leading axes (``curvature`` at
    points (..., n)) carries those axes in front of every field:
    ``point`` (..., n), ``scalar`` (...), ``ricci`` (..., n, n) and so on.
    """

    point: np.ndarray
    metric: np.ndarray
    inverse_metric: np.ndarray
    christoffel: np.ndarray
    ricci: np.ndarray
    scalar: float  # an array (...) for a stack of points
    schouten: Optional[np.ndarray]
    _y: np.ndarray = dataclass_field(repr=False)  # [c, m, a, b], see above

    def __init__(
        self,
        point,
        metric,
        inverse_metric,
        christoffel,
        ricci,
        scalar,
        schouten,
        _y,
    ):
        # One update of the instance dict: the __init__ a frozen dataclass
        # generates makes an object.__setattr__ call per field and takes
        # about twice as long.
        self.__dict__.update(
            point=point,
            metric=metric,
            inverse_metric=inverse_metric,
            christoffel=christoffel,
            ricci=ricci,
            scalar=scalar,
            schouten=schouten,
            _y=_y,
        )

    @functools.cached_property
    def riemann(self) -> np.ndarray:
        X = np.moveaxis(self._y, -4, -2)  # X[m, n, a, b] = Y[a, m, n, b]
        return X - X.swapaxes(-1, -2)

    @functools.cached_property
    def riemann_lowered(self) -> np.ndarray:
        lead, n = self.metric.shape[:-2], self.metric.shape[-1]
        return (self.metric @ self.riemann.reshape(lead + (n, n**3))).reshape(
            lead + (n, n, n, n)
        )


def _curvature_kernel(point, g, dg, d2g) -> CurvatureBundle:
    """The curvature bundle of metric jets stacked over any leading axes.

    ``point`` is (..., n) and g, dg, d2g are (..., n, n), (..., n, n, n)
    and (..., n, n, n, n) with the layout of ``_metric_jets``.  Every
    product acts on one instance's matrices and vectors.  One instance
    (g of shape (n, n)) takes them through ``np.dot``, whose BLAS call
    costs least per call, in a block of fixed shapes; a stack takes the
    same products in the same order through ``np.matmul``, ``np.vecmat``
    and ``np.vecdot``.  numpy does not promise that these round an
    instance as ``np.dot`` rounds it alone; they did, for these 1-D and
    2-D forms, on numpy 2.4 with OpenBLAS 0.3.31, and the stacking tests
    check that each instance of a stack gets the bits a single-point call
    gives it.  A degenerate metric raises as ``_checked_inverse`` does,
    naming the first degenerate instance's point.

    The products: with dg.ravel() @ sym_w = (T/2, W) (``_contraction_maps``),
    Gamma^m_ab = g^ms T[s, a, b] / 2, as (n, n*n).  As d_c g^-1 =
    -g^-1 d_c g g^-1, d_c Gamma = g^-1 (d_c T/2 - d_c g Gamma), and
    Gamma^m_cs Gamma^s_ab = g^-1 T/2[., c, .] Gamma, so Y[c] is
    g^-1 (d_c T/2 - W[c] Gamma), the n products W[c] Gamma as one
    product and Y as one matmul over c (``np.dot`` would contract other
    axes of the n matrices).  Ricci is Y.ravel() @ ric_lin and the
    scalar g^ab ricci_ab.
    """
    ginv = _checked_inverse(g, point)
    n = g.shape[-1]
    nn, n3 = n * n, n**3
    sym, sym_w, ric_lin = _contraction_maps(n)
    if g.ndim == 2:
        half_t_w = np.dot(dg.ravel(), sym_w)
        gamma = np.dot(ginv, half_t_w[:n3].reshape(n, nn))
        z = np.dot(d2g.reshape(n, n3), sym) - np.dot(
            half_t_w[n3:].reshape(nn, n), gamma
        ).reshape(n, n3)
        y = np.matmul(ginv, z.reshape(n, n, nn))
        ricci_flat = np.dot(y.ravel(), ric_lin)
        ricci = ricci_flat.reshape(n, n)
        scalar = np.dot(ginv.ravel(), ricci_flat)
        gamma_shape, y_shape = (n, n, n), (n, n, n, n)
    else:
        lead = g.shape[:-2]
        half_t_w = np.vecmat(dg.reshape(lead + (n3,)), sym_w)
        gamma = np.matmul(ginv, half_t_w[..., :n3].reshape(lead + (n, nn)))
        by_n3 = lead + (n, n3)
        z = np.matmul(d2g.reshape(by_n3), sym) - np.matmul(
            half_t_w[..., n3:].reshape(lead + (nn, n)), gamma
        ).reshape(by_n3)
        y = np.matmul(ginv[..., None, :, :], z.reshape(lead + (n, n, nn)))
        ricci_flat = np.vecmat(y.reshape(lead + (nn * nn,)), ric_lin)
        ricci = ricci_flat.reshape(lead + (n, n))
        scalar = np.vecdot(ginv.reshape(lead + (nn,)), ricci_flat)
        gamma_shape, y_shape = lead + (n, n, n), lead + (n, n, n, n)

    if n >= 3:
        # one point's shift stays a scalar: broadcasting it as a (1, 1)
        # array costs ~0.7 us, 2% of a one-point curvature() call
        shift = scalar / (2.0 * (n - 1))
        schouten = ricci - (shift if g.ndim == 2 else shift[..., None, None]) * g
        if n > 3:  # dividing by n - 2 = 1 is exact
            schouten = schouten / (n - 2)
    else:
        schouten = None

    return CurvatureBundle(  # by position, in field order
        point,
        g,
        ginv,
        gamma.reshape(gamma_shape),
        ricci,
        scalar,
        schouten,
        y.reshape(y_shape),
    )


def curvature(field: MetricField, point, step=None) -> CurvatureBundle:
    """Curvature bundle at a point, from analytic or finite-difference jets.

    Finite-difference curvature within ~1e-3 of a chart's axis is
    dominated by rounding in terms of size 1/r^2, and nothing warns: the
    charts accept points down to AXIS_TOL = 1e-6.  On
    ``round_sphere_metric()`` (exact scalar curvature 2) the scalar reads
    1736.7, 71.4, 2.69 and 2.007 at theta = 2e-6, 1e-5, 1e-4 and 1e-3.
    Closed-form jets do not have this problem.

    ``point`` is one point (n,) or a stack of points (..., n), n =
    field.dimension (ValueError for another last axis); a stack gives the
    bundle over its leading axes, each instance with the bits of a
    one-point call.  A coordinate that is not finite raises
    DegenerateMetricError and a point on the chart's singular locus
    ChartSingularityError, each naming the first such point.
    """
    point = np.asarray(point, dtype=float)
    return _curvature_kernel(point, *_metric_jets(field, point, step))


def kulkarni_nomizu(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kulkarni-Nomizu product of two symmetric 2-tensors.

    (A o B)_mnab = A_ma B_nb + A_nb B_ma - A_mb B_na - A_na B_mb.
    The result carries all algebraic symmetries of a Riemann tensor.
    A and B may be stacks (..., n, n) of one shape; the terms are outer
    products, so each instance gets the bits of a 2-D call.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape or A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("inputs must be square matrices of equal dimension")
    return (
        np.einsum("...ma,...nb->...mnab", A, B)
        + np.einsum("...nb,...ma->...mnab", A, B)
        - np.einsum("...mb,...na->...mnab", A, B)
        - np.einsum("...na,...mb->...mnab", A, B)
    )
