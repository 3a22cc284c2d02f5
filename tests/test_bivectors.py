"""Wedge algebra and bivector transport."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confgeo import (
    BasePointMismatchError,
    bivector_covariant_derivative,
    euclidean_metric,
    flat_polar_metric,
    wedge,
)

finite_floats = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)
vectors3 = st.lists(finite_floats, min_size=3, max_size=3).map(np.array)


def test_wedge_basis_vectors():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    B = wedge(e1, e2, np.zeros(3))
    expected = np.zeros((3, 3))
    expected[0, 1] = 1.0
    expected[1, 0] = -1.0
    np.testing.assert_allclose(B.components, expected)


@given(u=vectors3)
@settings(max_examples=50, deadline=None)
def test_wedge_of_vector_with_itself_vanishes(u):
    assert np.max(np.abs(wedge(u, u, np.zeros(3)).components)) == 0.0


@given(u=vectors3, w=vectors3)
@settings(max_examples=50, deadline=None)
def test_wedge_antisymmetric(u, w):
    B = wedge(u, w, np.zeros(3)).components
    np.testing.assert_allclose(B, -B.T, atol=0.0)
    np.testing.assert_allclose(
        B, -wedge(w, u, np.zeros(3)).components, atol=0.0
    )


def test_bivector_norm_flat():
    field = euclidean_metric(3)
    u = np.array([1.0, 0.0, 0.0])
    w = np.array([0.0, 2.0, 0.0])
    B = wedge(u, w, np.zeros(3))
    assert B.norm(field(np.zeros(3))) == pytest.approx(2.0)
    # |u ^ w|^2 = |u|^2 |w|^2 - <u, w>^2
    rng = np.random.default_rng(0)
    for _ in range(5):
        a, b = rng.standard_normal((2, 3))
        expected = np.sqrt((a @ a) * (b @ b) - (a @ b) ** 2)
        assert wedge(a, b, np.zeros(3)).norm(field(np.zeros(3))) == pytest.approx(
            expected
        )


def test_area_bivector_is_parallel_in_flat_polar():
    # mu = e_r ^ e_phi (orthonormal frame) has coordinate components
    # mu^{r phi} = 1/r; its covariant derivative vanishes along any
    # curve, for any velocity.
    field = flat_polar_metric()
    rng = np.random.default_rng(1)
    for _ in range(10):
        r = rng.uniform(0.2, 2.0)
        x = np.array([r, rng.uniform(0.0, 6.0)])
        v = rng.standard_normal(2)
        comp = np.array([[0.0, 1.0 / r], [-1.0 / r, 0.0]])
        # moving along the curve changes the components: d/dt (1/r) = -rdot/r^2
        dcomp = np.array([[0.0, -v[0] / r**2], [v[0] / r**2, 0.0]])
        B = wedge(np.array([1.0, 0.0]), np.array([0.0, 1.0 / r]), x)
        np.testing.assert_allclose(B.components, comp, atol=1e-15)
        cov = bivector_covariant_derivative(field, x, v, B, dcomp)
        np.testing.assert_allclose(cov.components, 0.0, atol=1e-12)


def test_base_point_mismatch_rejected():
    field = flat_polar_metric()
    B = wedge(np.ones(2), np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(BasePointMismatchError):
        bivector_covariant_derivative(
            field, np.array([2.0, 0.0]), np.ones(2), B, np.zeros((2, 2))
        )
