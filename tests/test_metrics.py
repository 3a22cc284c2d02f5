"""Charts, metric fields, and the random polynomial perturbations."""
import dataclasses

import numpy as np
import pytest

from confgeo import (
    Chart,
    ChartSingularityError,
    DegenerateMetricError,
    MetricField,
    cartesian_chart,
    curvature,
    cylindrical_chart,
    euclidean_metric,
    flat_cylindrical_metric,
    flat_polar_metric,
    polar_chart,
    round_sphere_metric,
)
from confgeo.curvature import metric_derivatives
from confgeo.verify import RandomMetricSpec


def strip_partials(field):
    """Force the finite-difference route of a metric with analytic partials."""
    return dataclasses.replace(field, analytic_jet=None)


def test_chart_validation():
    with pytest.raises(ValueError):
        Chart("bad", 1, ("x",))
    with pytest.raises(ValueError):
        Chart("bad", 2, ("x",))


def test_polar_chart_singular_locus():
    chart = polar_chart()
    assert chart.is_singular(np.array([1e-9, 0.3]))
    assert not chart.is_singular(np.array([0.5, 0.3]))
    with pytest.raises(ChartSingularityError):
        chart.require_regular(np.array([0.0, 0.0]))


def test_cylindrical_embedding():
    chart = cylindrical_chart()
    p = np.array([2.0, np.pi / 2, 0.7])
    xyz = chart.embed(p)
    np.testing.assert_allclose(xyz, [0.0, 2.0, 0.7], atol=1e-15)


def test_derivative_ops_reject_singular_points():
    field = flat_polar_metric(analytic=False)
    with pytest.raises(ChartSingularityError):
        metric_derivatives(field, np.array([1e-8, 0.0]), order=1)


@pytest.mark.parametrize(
    "field",
    [
        euclidean_metric(3),
        flat_polar_metric(),
        flat_cylindrical_metric(),
        round_sphere_metric(),
    ],
    ids=lambda f: f.name,
)
def test_builtin_metrics_symmetric_positive_definite(field):
    rng = np.random.default_rng(7)
    n = field.dimension
    lo = 0.2 if field.chart.singular_mask is not None else -2.0
    pts = rng.uniform(lo, 2.0, size=(50, n))
    if field.chart.name == "sphere":
        pts[:, 0] = rng.uniform(0.3, np.pi - 0.3, size=50)
    g = field(pts)
    np.testing.assert_allclose(g, np.swapaxes(g, -1, -2), atol=1e-15)
    assert np.linalg.eigvalsh(g).min() > 0.0


def test_random_polynomial_metric_positive_definite_on_unit_box():
    rng = np.random.default_rng(123)
    grid = np.stack(
        np.meshgrid(*([np.linspace(-1, 1, 7)] * 3), indexing="ij"), axis=-1
    ).reshape(-1, 3)
    for seed in rng.integers(2**32, size=5):
        field = RandomMetricSpec(seed=int(seed)).build()
        eigs = np.linalg.eigvalsh(field(grid))
        assert eigs.min() > 0.0
        g = field(grid)
        np.testing.assert_allclose(g, np.swapaxes(g, -1, -2), atol=1e-15)


def test_polynomial_partials_match_finite_differences():
    # Independent route check: the power-rule partials of the random
    # metrics must agree with the generic stencils applied to the same
    # evaluation function.
    field = RandomMetricSpec(seed=99).build()
    bare = strip_partials(field)
    x = np.array([0.31, -0.22, 0.11])
    for order, tol in ((1, 1e-10), (2, 1e-7)):
        exact = metric_derivatives(field, x, order=order)
        fd = metric_derivatives(bare, x, order=order)
        np.testing.assert_allclose(fd, exact, atol=tol)


def test_metric_inverse_helpers():
    field = flat_polar_metric()
    x = np.array([2.0, 0.4])
    ginv = field.inverse(x)
    np.testing.assert_allclose(ginv, np.diag([1.0, 0.25]), atol=1e-15)
    assert field.norm(x, np.array([0.0, 1.0])) == pytest.approx(2.0)
    assert field.inner(x, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


# ---------------------------------------------------------------------------
# the checked inverse, behind MetricField.inverse and curvature()
# ---------------------------------------------------------------------------


def _constant_metric(G):
    n = len(G)
    return MetricField(
        cartesian_chart(n),
        lambda p: np.broadcast_to(G, np.shape(p)[:-1] + G.shape).copy(),
        analytic_jet=lambda p: (G, np.zeros((n,) * 3), np.zeros((n,) * 4)),
        name=f"constant{n}d",
    )


def _well_conditioned(n):
    rng = np.random.default_rng(n)
    A = rng.uniform(-0.3, 0.3, size=(n, n))
    return np.eye(n) + 0.5 * (A + A.T)


def _degenerate(kind, n):
    G = _well_conditioned(n)
    if kind == "singular":
        G[-1], G[:, -1] = G[0], G[:, 0]  # the last row and column repeat the first
    elif kind == "condition_1e12":
        q, _ = np.linalg.qr(np.random.default_rng(n).normal(size=(n, n)))
        G = (q * np.logspace(0, -12, n)) @ q.T
    else:
        G[0, -1] = G[-1, 0] = {"nan": np.nan, "inf": np.inf}[kind]
    return G


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["singular", "condition_1e12", "nan", "inf"])
def test_degenerate_metric_is_rejected(kind, n):
    field = _constant_metric(_degenerate(kind, n))
    x = np.full(n, 0.1)
    with pytest.raises(DegenerateMetricError):
        field.inverse(x)
    with pytest.raises(DegenerateMetricError):
        curvature(field, x)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, (1e-5, 1e5)])
def test_well_conditioned_metric_is_inverted_at_any_scale(scale, n):
    # g_ij times s_i s_j: every coordinate alike (g times 1e-6, 1, 1e6), or
    # by 1e-5 and 1e5 in turn, which makes |g| |g^-1| about 1e20 while the
    # metric is as well conditioned as before.
    s = np.resize(scale, n)
    G = _well_conditioned(n) * np.outer(s, s)
    field = _constant_metric(G)
    x = np.full(n, 0.1)
    expected = np.linalg.inv(_well_conditioned(n)) / np.outer(s, s)
    for ginv in (field.inverse(x), curvature(field, x).inverse_metric):
        np.testing.assert_allclose(ginv, expected, rtol=1e-13)


@pytest.mark.parametrize(
    "field, x",
    [
        (flat_cylindrical_metric(), [2e-6, 0.3, 0.1]),
        (flat_polar_metric(), [2e-6, 0.3]),
        (round_sphere_metric(), [2e-6, 0.3]),
        (round_sphere_metric(), [np.pi - 2e-6, 0.3]),
    ],
)
def test_metric_next_to_the_chart_axis_is_inverted(field, x):
    # g = diag(1, r^2, ...) with r just above AXIS_TOL: |g| |g^-1| = 1/r^2
    # exceeds MAX_CONDITION, but a diagonal g is inverted exactly.
    x = np.array(x)
    g = field(x)
    assert np.linalg.norm(g, np.inf) * np.linalg.norm(np.linalg.inv(g), np.inf) > 1e10
    for ginv in (field.inverse(x), curvature(field, x).inverse_metric):
        np.testing.assert_array_equal(ginv, np.diag(1.0 / g.diagonal()))
