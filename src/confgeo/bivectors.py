"""Antisymmetric rank-2 contravariant tensors and their transport.

The conformal geodesic equation is checked through bivector-valued
residuals, so the only algebra needed is the wedge of two vectors, a
metric norm, and the covariant derivative along a curve.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import christoffel
from .errors import BasePointMismatchError
from .metrics import MetricField, _first_point


@dataclass(frozen=True)
class Bivector:
    """Contravariant antisymmetric tensor B^mn anchored at a point.

    ``components`` (..., n, n) and ``base_point`` (..., n) may carry
    leading axes: a stack of bivectors, one per index, whose ``norm`` and
    ``max_abs`` are arrays over those axes.
    """

    components: np.ndarray
    base_point: np.ndarray

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=float)
        base = np.asarray(self.base_point, dtype=float)
        object.__setattr__(self, "components", comp)
        object.__setattr__(self, "base_point", base)
        bad = _max_abs(comp + comp.swapaxes(-1, -2)) > 1e-6 * (1.0 + _max_abs(comp))
        if bad.any():
            raise ValueError(
                "bivector components must be antisymmetric "
                f"(at {_first_point(bad, base)})"
            )

    def norm(self, g: np.ndarray) -> float | np.ndarray:
        """Metric norm |B| = sqrt(1/2 B^mn B^ab g_ma g_nb) for the metric
        matrix g at the base point (a stack of them for a stack).

        The 1/2 makes |u ^ w| = |u| |w| sin(angle) for unit bivectors.
        A float, or an array over a stack's leading axes.
        """
        low = g @ self.components @ g.swapaxes(-1, -2)
        return np.sqrt(
            np.maximum(0.5 * np.sum(self.components * low, axis=(-2, -1)), 0.0)
        )

    def max_abs(self) -> float | np.ndarray:
        """max |B^mn|: a float, or an array over a stack's leading axes."""
        return _max_abs(self.components)


def _wedge(u, w) -> np.ndarray:
    """Components u^m w^n - w^m u^n of u ^ w, for stacks of vectors."""
    return u[..., :, None] * w[..., None, :] - w[..., :, None] * u[..., None, :]


def _max_abs(X):
    """max |X_mn| of each matrix of a stack."""
    return np.abs(X).max(axis=(-2, -1))


def wedge(u, w, base_point) -> Bivector:
    """(u ^ w)^mn = u^m w^n - u^n w^m."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    return Bivector(_wedge(u, w), base_point)


def bivector_covariant_derivative(
    field: MetricField, point, velocity, B: Bivector, dB_dt
) -> Bivector:
    """Covariant derivative of a bivector along a curve.

    ``dB_dt`` is the plain parameter derivative of the components; the
    result adds the connection terms
    (nabla_v B)^mn = dB^mn/dt + Gamma^m_rs v^r B^sn + Gamma^n_rs v^r B^ms.
    """
    point = np.asarray(point, dtype=float)
    if not np.allclose(point, B.base_point, rtol=0.0, atol=1e-12):
        raise BasePointMismatchError(
            f"bivector anchored at {B.base_point}, derivative requested at {point}"
        )
    gamma = christoffel(field, point)
    v = np.asarray(velocity, dtype=float)
    return Bivector(_transport(_connection_along(gamma, v), B.components, dB_dt), point)


def _connection_along(gamma, v) -> np.ndarray:
    """[..., m, s] = Gamma^m_rs v^r, for stacks of velocities v (..., n)."""
    return np.vecmat(v[..., None, :], gamma)


def _transport(gamma_v, S, dS_dt) -> np.ndarray:
    """Components of nabla_v S from those of S and dS/dt, given
    ``_connection_along(gamma, v)``; the connection terms are those of
    bivector_covariant_derivative."""
    return np.asarray(dS_dt, dtype=float) + gamma_v @ S + S @ gamma_v.swapaxes(-1, -2)
