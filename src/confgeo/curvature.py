"""Pointwise differential geometry: metric derivatives, Christoffel
symbols, Riemann/Ricci/scalar curvature and the Schouten tensor.

The metric and its derivatives come from the metric's closed-form jet
when it has one, otherwise from central finite differences: 4th-order
stencils for first derivatives and symmetric 4th-order stencils
(5-point diagonal, composed 4x4 cross) for second derivatives.  All
tensors are dense; the dimensions here are 2 or 3.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import StepSizeError
from .metrics import MetricField, _checked_inverse

# Default finite-difference step, scaled per coordinate by max(1, |x_a|).
DEFAULT_FD_STEP = 1e-4

_OFF1 = (-2, -1, 1, 2)
_W1 = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
_W2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def _fd_steps(point: np.ndarray, step: Optional[float]) -> np.ndarray:
    base = DEFAULT_FD_STEP if step is None else float(step)
    if base <= 0.0:
        raise StepSizeError("finite-difference step must be positive")
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


def _fd_metric_derivatives(field: MetricField, point: np.ndarray, h: np.ndarray):
    """One batched metric evaluation over the full stencil.

    Returns (g, dg, d2g) with dg[a, i, j] = d_a g_ij and
    d2g[a, b, i, j] = d_a d_b g_ij.
    """
    n = point.size
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


def _metric_jets(field: MetricField, point, step=None):
    point = np.asarray(point, dtype=float)
    field.check_point(point)
    if field.analytic_jet is not None:
        g, dg, d2g = field.analytic_jet(point)
        return np.asarray(g, float), np.asarray(dg, float), np.asarray(d2g, float)
    h = _fd_steps(point, step)
    return _fd_metric_derivatives(field, point, h)


def metric_derivatives(field: MetricField, point, order: int, step=None):
    """First (dg[a, i, j]) or second (d2g[a, b, i, j]) partials of g at a point."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    _, dg, d2g = _metric_jets(field, point, step)
    return dg if order == 1 else d2g


def _connection(ginv: np.ndarray, dg: np.ndarray):
    """(T, Gamma) with T[s, a, b] = d_a g_sb + d_b g_sa - d_s g_ab and
    Gamma^m_ab = 1/2 g^ms T[s, a, b]."""
    n = ginv.shape[0]
    T = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    return T, 0.5 * (ginv @ T.reshape(n, n * n)).reshape(n, n, n)


def christoffel(field: MetricField, point, step=None) -> np.ndarray:
    """Levi-Civita connection coefficients Gamma[m, a, b] = Gamma^m_ab."""
    point = np.asarray(point, dtype=float)
    g, dg, _ = _metric_jets(field, point, step)
    return _connection(_checked_inverse(g, point), dg)[1]


@dataclass(frozen=True)
class CurvatureBundle:
    """All pointwise curvature data derived from one metric jet.

    Index conventions: riemann[m, n, a, b] = R^m_nab with
    R^m_nab = d_a Gamma^m_nb - d_b Gamma^m_na + Gamma^m_sa Gamma^s_nb
    - Gamma^m_sb Gamma^s_na, ricci[n, b] = R^m_nmb, and for dimension
    n >= 3 the Schouten tensor
    schouten = (ricci - scalar/(2(n-1)) g) / (n-2).
    With these signs the unit round sphere has ricci = g and scalar 2.
    For dimension 2 ``schouten`` is None.  ``riemann_lowered``
    (R_mnab = g_ms R^s_nab) is computed on first access.
    """

    point: np.ndarray
    metric: np.ndarray
    inverse_metric: np.ndarray
    christoffel: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    schouten: Optional[np.ndarray]

    @functools.cached_property
    def riemann_lowered(self) -> np.ndarray:
        n = len(self.metric)
        return (self.metric @ self.riemann.reshape(n, n**3)).reshape(n, n, n, n)


def curvature(field: MetricField, point, step=None) -> CurvatureBundle:
    """Curvature bundle at a point, from analytic or finite-difference jets.

    Finite-difference curvature within ~1e-3 of a chart's axis is
    dominated by rounding in terms of size 1/r^2, and nothing warns: the
    charts accept points down to AXIS_TOL = 1e-6.  On
    ``round_sphere_metric()`` (exact scalar curvature 2) the scalar reads
    1736.7, 71.4, 2.69 and 2.007 at theta = 2e-6, 1e-5, 1e-4 and 1e-3.
    Closed-form jets do not have this problem.
    """
    point = np.asarray(point, dtype=float)
    g, dg, d2g = _metric_jets(field, point, step)
    ginv = _checked_inverse(g, point)
    T, gamma = _connection(ginv, dg)

    n = point.size
    # d_c g^ms, then d_c T[s, a, b] and d_c Gamma^m_ab by the product rule
    dginv = -(ginv @ dg @ ginv)
    dT = d2g.transpose(0, 2, 1, 3) + d2g.transpose(0, 2, 3, 1) - d2g
    dgamma = 0.5 * (
        (dginv @ T.reshape(n, n * n)) + (ginv @ dT.reshape(n, n, n * n))
    ).reshape(n, n, n, n)

    # X[m, n, a, b] = d_a Gamma^m_nb + Gamma^m_sa Gamma^s_nb; the Riemann
    # tensor is X minus its a <-> b swap.
    gamma_gamma = (
        gamma.transpose(0, 2, 1).reshape(n * n, n) @ gamma.reshape(n, n * n)
    ).reshape(n, n, n, n)
    X = dgamma.transpose(1, 2, 0, 3) + gamma_gamma.transpose(0, 2, 1, 3)
    riemann = X - X.transpose(0, 1, 3, 2)
    ricci = np.trace(riemann, axis1=0, axis2=2)
    scalar = float(np.vdot(ginv, ricci))

    if n >= 3:
        schouten = (ricci - scalar / (2.0 * (n - 1)) * g) / (n - 2)
    else:
        schouten = None

    return CurvatureBundle(
        point=point,
        metric=g,
        inverse_metric=ginv,
        christoffel=gamma,
        riemann=riemann,
        ricci=ricci,
        scalar=scalar,
        schouten=schouten,
    )


def kulkarni_nomizu(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kulkarni-Nomizu product of two symmetric 2-tensors.

    (A o B)_mnab = A_ma B_nb + A_nb B_ma - A_mb B_na - A_na B_mb.
    The result carries all algebraic symmetries of a Riemann tensor.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("inputs must be square matrices of equal dimension")
    return (
        np.einsum("ma,nb->mnab", A, B)
        + np.einsum("nb,ma->mnab", A, B)
        - np.einsum("mb,na->mnab", A, B)
        - np.einsum("na,mb->mnab", A, B)
    )
