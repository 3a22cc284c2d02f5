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
from .metrics import MetricField


@dataclass(frozen=True)
class Bivector:
    """Contravariant antisymmetric tensor B^mn anchored at a point."""

    components: np.ndarray
    base_point: np.ndarray

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=float)
        object.__setattr__(self, "components", comp)
        object.__setattr__(
            self, "base_point", np.asarray(self.base_point, dtype=float)
        )
        if np.max(np.abs(comp + comp.T)) > 1e-6 * (1.0 + np.max(np.abs(comp))):
            raise ValueError("bivector components must be antisymmetric")

    def norm(self, g: np.ndarray) -> float:
        """Metric norm |B| = sqrt(1/2 B^mn B^ab g_ma g_nb) for the metric
        matrix g at the base point.

        The 1/2 makes |u ^ w| = |u| |w| sin(angle) for unit bivectors.
        """
        low = g @ self.components @ g.T
        return float(np.sqrt(max(0.5 * np.sum(self.components * low), 0.0)))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.components)))


def wedge(u, w, base_point) -> Bivector:
    """(u ^ w)^mn = u^m w^n - u^n w^m."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    return Bivector(u[:, None] * w - w[:, None] * u, base_point)


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
    return Bivector(_transport(gamma, v, B.components, dB_dt), point)


def _transport(gamma, v, S, dS_dt) -> np.ndarray:
    """Components of nabla_v S from those of S and dS/dt; the connection
    terms are those of bivector_covariant_derivative."""
    gamma_v = v @ gamma  # [m, s] = Gamma^m_rs v^r
    return np.asarray(dS_dt, dtype=float) + gamma_v @ S + S @ gamma_v.T
