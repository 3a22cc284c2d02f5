"""Charts, metric fields, and the random polynomial perturbations."""
import contextlib
import dataclasses
import re
import warnings

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
    polynomial_metric,
    round_sphere_metric,
)
from confgeo.curvature import _stencil_offsets, metric_derivatives
from confgeo.metrics import _checked_inverse
from confgeo.verify import RandomMetricSpec, _monomial_exponents, random_metric


def _same(a, b):
    """Equal shapes and bytes: -0.0 does not match 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def strip_partials(field):
    """Force the finite-difference route of a metric with analytic partials."""
    return dataclasses.replace(field, analytic_jet=None)


def test_chart_validation():
    with pytest.raises(ValueError):
        Chart("bad", 1, ("x",))
    with pytest.raises(ValueError):
        Chart("bad", 2, ("x",))


def test_cartesian_chart_names_every_dimension():
    assert cartesian_chart(2).coordinate_names == ("x", "y")
    assert cartesian_chart(4).coordinate_names == ("x", "y", "z", "w")
    assert cartesian_chart(6).coordinate_names == tuple(f"x{i}" for i in range(1, 7))
    bundle = curvature(euclidean_metric(5), np.zeros(5))
    assert bundle.ricci.shape == (5, 5) and np.all(bundle.ricci == 0.0)


def test_polar_chart_singular_locus():
    chart = polar_chart()
    assert chart.singular_mask(np.array([1e-9, 0.3]))
    assert not chart.singular_mask(np.array([0.5, 0.3]))
    mask = chart.singular_mask(np.array([[1e-9, 0.3], [0.5, 0.3]]))
    assert mask.shape == (2,) and mask.tolist() == [True, False]
    chart.require_regular(np.array([[0.5, 0.3], [2.0, 1.0]]))
    with pytest.raises(ChartSingularityError, match=r"point \[0\. 0\.\] lies on"):
        chart.require_regular(np.array([0.0, 0.0]))
    # a list, and a mask that gives one point a 0-d array, are refused alike
    with pytest.raises(ChartSingularityError, match=r"point \[0\. 0\.\] lies on"):
        chart.require_regular([0.0, 0.0])
    zero_d = dataclasses.replace(
        chart, singular_mask=lambda p: np.asarray(p[..., 0] < 1e-6)
    )
    zero_d.require_regular(np.array([0.5, 0.3]))
    with pytest.raises(ChartSingularityError, match=r"point \[0\. 0\.\] lies on"):
        zero_d.require_regular(np.array([0.0, 0.0]))
    # a stack names its first singular point
    with pytest.raises(ChartSingularityError, match=r"point \[5\.e-07 2\.e\+00\]"):
        chart.require_regular(np.array([[0.5, 1.0], [5e-7, 2.0], [0.0, 3.0]]))


def test_cylindrical_embedding():
    chart = cylindrical_chart()
    p = np.array([2.0, np.pi / 2, 0.7])
    xyz = chart.embed(p)
    np.testing.assert_allclose(xyz, [0.0, 2.0, 0.7], atol=1e-15)


def test_polar_embedding():
    chart = polar_chart()
    np.testing.assert_allclose(chart.embed([2.0, np.pi / 2]), [0.0, 2.0], atol=1e-15)
    stack = chart.embed(np.array([[1.0, 0.0], [2.0, np.pi], [3.0, -np.pi / 2]]))
    np.testing.assert_allclose(stack, [[1.0, 0.0], [-2.0, 0.0], [0.0, -3.0]], atol=1e-15)


def test_derivative_ops_reject_singular_points():
    field = strip_partials(flat_polar_metric())
    with pytest.raises(ChartSingularityError, match=r"point \[1\.e-08 0\.e\+00\]"):
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


@pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf])
def test_round_sphere_rejects_a_radius_that_is_not_positive(radius):
    with pytest.raises(ValueError, match="radius must be positive"):
        round_sphere_metric(radius)


@pytest.mark.parametrize(
    "make", [euclidean_metric, flat_cylindrical_metric], ids=lambda f: f.__name__
)
def test_flat_jets_are_fresh_arrays_on_every_call(make):
    # a caller writing into one call's partials must not change the next
    field, point = make(), np.full(3, 1.5)
    metric_derivatives(field, np.full(3, 0.5), 1)[0, 0, 0] = 5.0
    metric_derivatives(field, np.full(3, 0.5), 2)[0, 0, 0, 0] = 5.0
    assert metric_derivatives(field, point, 1)[0, 0, 0] == 0.0
    assert metric_derivatives(field, point, 2)[0, 0, 0, 0] == 0.0
    np.testing.assert_array_equal(
        curvature(field, point).christoffel, curvature(make(), point).christoffel
    )


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


def _per_table_polynomial(exponents, coefficients, dimension):
    """The power-rule jet as one monomial pass and one einsum per
    derivative table, kept as the oracle of polynomial_metric's one
    contraction per order, which gives its evaluate too.  Returns
    (evaluate, jet)."""
    exponents = np.asarray(exponents, dtype=int)
    coefficients = np.asarray(coefficients, dtype=float)
    eye = np.eye(dimension)

    def monomials(points, exps):
        # points (..., dim), exps (m, dim) -> (..., m)
        return np.prod(points[..., None, :] ** exps, axis=-1)

    def evaluate(points):
        points = np.asarray(points, dtype=float)
        mono = monomials(points, exponents)
        return eye + np.einsum("...m,mij->...ij", mono, coefficients)

    # Precompute derivative tables: d/dx_a (x^e) = e_a x^(e - 1_a).
    def derive(exps, coefs, axis):
        mask = exps[:, axis] > 0
        new_exps = exps[mask].copy()
        new_coefs = coefs[mask] * new_exps[:, axis, None, None]
        new_exps[:, axis] -= 1
        return new_exps, new_coefs

    first = [derive(exponents, coefficients, a) for a in range(dimension)]
    second = [
        [derive(first[a][0], first[a][1], b) for b in range(dimension)]
        for a in range(dimension)
    ]

    def partials(point):
        point = np.asarray(point, dtype=float)
        dg = np.zeros((dimension, dimension, dimension))
        d2g = np.zeros((dimension, dimension, dimension, dimension))
        for a in range(dimension):
            exps, coefs = first[a]
            if len(exps):
                dg[a] = np.einsum("m,mij->ij", monomials(point, exps), coefs)
            for b in range(dimension):
                exps2, coefs2 = second[a][b]
                if len(exps2):
                    d2g[a, b] = np.einsum(
                        "m,mij->ij", monomials(point, exps2), coefs2
                    )
        return dg, d2g

    return evaluate, lambda point: (evaluate(point), *partials(point))


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("dimension", [2, 3])
def test_polynomial_jet_matches_the_per_table_power_rule(dimension, degree):
    # Each order's stacked, zero-padded contraction adds the same products
    # in the same order as one einsum per table, so the two agree bit for bit
    # (degree 1 has empty second-derivative tables; from degree 6 on, as
    # in x^3 y^3, both power-rule factors can be odd, so the order of the
    # two multiplications shows).
    rng = np.random.default_rng(10 * dimension + degree)
    exps = _monomial_exponents(dimension, degree)
    offsets = _stencil_offsets(dimension)
    # a stack with leading axes of +0.0 and -0.0 coordinates, drawn apart
    # so that the metrics and points keep their draws
    signs = np.random.default_rng(dimension).standard_normal((2, 5, dimension))
    signed_zeros = np.copysign(0.0, signs)
    for _ in range(10):
        coefs = rng.uniform(-0.3, 0.3, size=(len(exps), dimension, dimension))
        coefs = 0.5 * (coefs + coefs.transpose(0, 2, 1))
        field = polynomial_metric(exps, coefs)
        evaluate, jet = _per_table_polynomial(exps, coefs, dimension)
        for x in rng.uniform(-1.5, 1.5, size=(20, dimension)):
            for got, expected in zip(field.analytic_jet(x), jet(x)):
                assert _same(got, expected)
            assert _same(field(x), evaluate(x))
        for points in (x + offsets * 1e-4, signed_zeros, np.zeros((0, dimension))):
            assert _same(field(points), evaluate(points))


@pytest.mark.parametrize(
    "exponents",
    [
        np.array([[True, False, False], [False, True, False]]),  # booleans
        np.array([1, 0, 0]),  # not a table
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),  # not integers
        np.array([[1, 0, 0], [0, -1, 0]]),  # negative
    ],
)
def test_polynomial_metric_rejects_bad_exponents(exponents):
    with pytest.raises(ValueError, match="exponents"):
        polynomial_metric(exponents, np.zeros((2, 3, 3)))


def test_polynomial_metric_rejects_misshapen_coefficients():
    exps = np.array([[1, 0, 0], [0, 1, 0]])
    for shape in [(3, 3, 3), (2, 3), (2, 2, 2), (2, 3, 2)]:
        with pytest.raises(ValueError, match="shape"):
            polynomial_metric(exps, np.zeros(shape))
    # (m, 2) exponents make a 2D metric, which takes (m, 2, 2) coefficients
    planar = np.array([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match=r"shape \(2, 2, 2\), not \(2, 3, 3\)"):
        polynomial_metric(planar, np.zeros((2, 3, 3)))
    assert polynomial_metric(planar, np.zeros((2, 2, 2))).dimension == 2
    # a point of another dimension is refused by name, as curvature() does
    field = random_metric(np.random.default_rng(1))
    for point in (np.zeros(2), np.zeros(4)):
        match = re.escape(f"points must have shape (..., 3) on {field.name}, not {point.shape}")
        for evaluate in (field.evaluate, field.analytic_jet, field):
            with pytest.raises(ValueError, match=match):
                evaluate(point)


def test_polynomial_metric_rejects_asymmetric_coefficients():
    exps = np.array([[1, 0, 0], [0, 1, 0]])
    coefs = np.zeros((2, 3, 3))
    coefs[1, 0, 2] = 1e-3
    with pytest.raises(ValueError, match="symmetric"):
        polynomial_metric(exps, coefs)
    coefs[1, 2, 0] = 1e-3
    polynomial_metric(exps, coefs)  # symmetric again: accepted


def test_metric_inverse_helpers():
    field = flat_polar_metric()
    x = np.array([2.0, 0.4])
    ginv = field.inverse(x)
    np.testing.assert_allclose(ginv, np.diag([1.0, 0.25]), atol=1e-15)


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


def _spd_stack(n, count):
    A = np.random.default_rng(n).normal(size=(count, n, n))
    return A @ A.swapaxes(-1, -2) + n * np.eye(n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_checked_inverse_has_the_bytes_of_np_linalg_inv(n):
    # _checked_inverse calls the LAPACK gufunc behind np.linalg.inv without
    # its wrapper; a numpy release that moves or changes the gufunc fails
    # here.  A caller's np.errstate and warning filters change nothing.
    stack = _spd_stack(n, 16)
    points = np.zeros((16, n))
    expected = np.linalg.inv(stack)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = _checked_inverse(stack, points)
        singles = [_checked_inverse(g, x) for g, x in zip(stack, points)]
    assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()
    for ginv, g in zip(singles, stack):
        assert ginv.tobytes() == np.linalg.inv(g).tobytes()


# The condition numbers reported for _degenerate's ill-conditioned metrics.
REPORTED_CONDITION = {
    ("singular", 2): "7.72e+15",
    ("singular", 3): "6.77e+15",
    ("condition_1e12", 2): "1.43e+11",
    ("condition_1e12", 3): "7.07e+10",
    ("condition_1e12", 4): "1.21e+11",
}


def _refusal(kind, n, at):
    if kind == "zero" or (kind, n) == ("singular", 4):  # LAPACK finds a zero pivot
        return f"metric singular at {at}"
    if kind in ("nan", "inf"):
        return f"metric not finite at {at}"
    return f"metric ill-conditioned at {at} (condition number {REPORTED_CONDITION[kind, n]})"


def _caller_handler(kind, flag):
    raise AssertionError("the caller's error handler was called")


@pytest.mark.parametrize("errstate", ["default", "raise", "ignore", "warn"])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["zero", "singular", "condition_1e12", "nan", "inf"])
def test_checked_inverse_refuses_a_degenerate_metric_by_name(kind, n, errstate):
    # One metric, then a stack whose third instance is the degenerate one;
    # each message names the degenerate point.  No floating-point warning
    # escapes, a caller's np.errstate changes no outcome, and the caller's
    # error state is back in place after each refusal and each inverse.
    G = np.zeros((n, n)) if kind == "zero" else _degenerate(kind, n)
    x = np.arange(n) * 0.25 + 0.1
    stack = np.stack([_well_conditioned(n), _well_conditioned(n), G, G])
    points = np.arange(4.0 * n).reshape(4, n) * 0.5
    for g, at, named, regular in (
        (G, x, x, (_well_conditioned(n), x)),
        (stack, points, points[2], (stack[:2], points[:2])),
    ):
        caller = (
            contextlib.nullcontext()
            if errstate == "default"
            else np.errstate(all=errstate, call=_caller_handler)
        )
        with warnings.catch_warnings(), caller:
            warnings.simplefilter("error")
            before = np.geterr(), np.geterrcall()
            with pytest.raises(DegenerateMetricError) as refused:
                _checked_inverse(g, at)
            assert (np.geterr(), np.geterrcall()) == before
            _checked_inverse(*regular)
            assert (np.geterr(), np.geterrcall()) == before
        assert str(refused.value) == _refusal(kind, n, named)


def test_a_singular_mask_may_return_a_python_bool():
    # one point's mask is read by its truth value, so a bool serves
    flat = euclidean_metric(2)
    chart = Chart("half-plane", 2, ("x", "y"), singular_mask=lambda p: bool(p[0] <= 0.0))
    field = MetricField(chart, flat.evaluate, analytic_jet=flat.analytic_jet)
    assert curvature(field, [0.5, 0.1]).scalar == 0.0
    with pytest.raises(ChartSingularityError, match=r"^point \[-0.5  0.1\] lies on"):
        curvature(field, [-0.5, 0.1])
