"""Derivatives, Christoffel symbols, curvature tensors, and their algebra."""
import dataclasses
import hashlib
import re

import numpy as np
import pytest

from confgeo import (
    ChartSingularityError,
    DegenerateMetricError,
    StepSizeError,
    christoffel,
    curvature,
    euclidean_metric,
    example_metric,
    flat_cylindrical_metric,
    flat_polar_metric,
    kulkarni_nomizu,
    metric_derivatives,
    round_sphere_metric,
)
from confgeo.curvature import _metric_jets
from confgeo.verify import RandomMetricSpec

# Noise floor of the default 4th-order stencils with second derivatives.
FD_TOL = 1e-6


def strip_partials(field):
    return dataclasses.replace(field, analytic_jet=None)


# ---------------------------------------------------------------------------
# metric_derivatives
# ---------------------------------------------------------------------------


def test_flat_cartesian_derivatives_vanish():
    field = strip_partials(euclidean_metric(3))
    x = np.array([0.3, -1.2, 0.8])
    assert np.max(np.abs(metric_derivatives(field, x, order=1))) < 1e-12
    assert np.max(np.abs(metric_derivatives(field, x, order=2))) < 1e-8


def test_polar_radial_derivative():
    field = strip_partials(flat_polar_metric())
    dg = metric_derivatives(field, np.array([2.0, 0.1]), order=1)
    assert dg[0, 1, 1] == pytest.approx(4.0, abs=1e-10)


def test_example_metric_z_derivative_vanishes_on_plane():
    # Oracle: every z-dependence of the metric enters through z^2 and
    # z^4, whose first derivatives vanish at z = 0.
    from confgeo import example_metric

    field = example_metric("cylindrical")
    dg = metric_derivatives(field, np.array([0.5, 0.0, 0.0]), order=1)
    assert np.max(np.abs(dg[2])) < 1e-12


def test_second_derivatives_symmetric_in_derivative_indices():
    field = strip_partials(RandomMetricSpec(seed=5).build())
    d2g = metric_derivatives(field, np.array([0.2, 0.1, -0.3]), order=2)
    np.testing.assert_allclose(d2g, np.swapaxes(d2g, 0, 1), atol=1e-12)


def test_step_underflow_rejected():
    field = strip_partials(euclidean_metric(3))
    with pytest.raises(StepSizeError):
        metric_derivatives(field, np.zeros(3), order=1, step=1e-16)
    for step in (-1e-3, 0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(StepSizeError, match="must be positive and finite"):
            metric_derivatives(field, np.zeros(3), order=1, step=step)
    with pytest.raises(StepSizeError, match="must be positive and finite, got nan"):
        curvature(round_sphere_metric(), [1.0, 0.3], step=np.nan)


@pytest.mark.parametrize("point", [[0.5, 0.1], [[0.5, 0.1], [0.6, 0.2]]])
@pytest.mark.parametrize(
    "evaluate",
    [
        curvature,
        christoffel,
        lambda field, point: metric_derivatives(field, point, order=1),
    ],
    ids=["curvature", "christoffel", "metric_derivatives"],
)
def test_a_point_of_the_wrong_shape_is_refused(evaluate, point):
    # Points of the field's dimension only: a short point, or a stack of
    # them, must not reach the jet.
    from confgeo import example_metric

    with pytest.raises(ValueError, match=r"shape \(\.\.\., 3\) on example_cylindrical"):
        evaluate(example_metric(), point)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "field, inside",
    [
        (euclidean_metric(3), [0.3, -0.2, 0.1]),
        (euclidean_metric(2), [0.3, -0.2]),
        (flat_polar_metric(), [0.5, 0.3]),
        (flat_cylindrical_metric(), [0.5, 0.3, 0.1]),
        (round_sphere_metric(), [1.0, 0.3]),
        (RandomMetricSpec(seed=3).build(), [0.1, -0.2, 0.3]),
        (example_metric("cylindrical"), [0.5, 0.3, 0.1]),
        (example_metric("cartesian"), [0.3, -0.2, 0.1]),
        (strip_partials(example_metric("cylindrical")), [0.5, 0.3, 0.1]),
    ],
    ids=[
        "euclidean3d",
        "euclidean2d",
        "flat_polar",
        "flat_cylindrical",
        "sphere",
        "random",
        "example_cylindrical",
        "example_cartesian",
        "example_cylindrical_fd",
    ],
)
def test_a_point_that_is_not_finite_is_refused(field, inside, bad):
    # Some metrics evaluate at a NaN or infinite coordinate without
    # complaint (the flat metric, the cartesian example's flat core); every
    # metric refuses such a point alike, naming it.
    for axis in range(field.dimension):
        x = np.array(inside)
        x[axis] = bad
        match = "^" + re.escape(f"point {x} is not finite") + "$"
        with pytest.raises(DegenerateMetricError, match=match):
            curvature(field, x)
        with pytest.raises(DegenerateMetricError, match=match):
            metric_derivatives(field, x, order=1)


def test_finite_coordinates_near_the_largest_double_are_accepted():
    # the refusal tests each coordinate, not their sum, which overflows
    x = np.array([1.7e308, 1.7e308, -1.7e308])
    for field in (euclidean_metric(3), example_metric("cartesian")):
        assert curvature(field, x).scalar == 0.0


# ---------------------------------------------------------------------------
# christoffel
# ---------------------------------------------------------------------------


def test_christoffel_flat_cartesian_zero():
    gam = christoffel(euclidean_metric(3), np.array([1.0, 2.0, 3.0]))
    assert np.max(np.abs(gam)) == 0.0


@pytest.mark.parametrize("analytic", [True, False])
def test_christoffel_flat_polar(analytic):
    field = flat_polar_metric() if analytic else strip_partials(flat_polar_metric())
    r = 1.7
    gam = christoffel(field, np.array([r, 0.3]))
    expected = np.zeros((2, 2, 2))
    expected[0, 1, 1] = -r
    expected[1, 0, 1] = expected[1, 1, 0] = 1.0 / r
    np.testing.assert_allclose(gam, expected, atol=1e-9)


def test_christoffel_example_metric_in_plane_equals_flat_polar():
    # The z = 0 plane is totally geodesic with flat induced metric, so
    # the in-plane connection coefficients match the flat polar ones.
    from confgeo import example_metric

    field = example_metric("cylindrical")
    r = 0.6
    gam = christoffel(field, np.array([r, 1.1, 0.0]))
    assert gam[0, 1, 1] == pytest.approx(-r, abs=1e-9)
    assert gam[1, 0, 1] == pytest.approx(1.0 / r, abs=1e-9)
    assert gam[0, 0, 0] == pytest.approx(0.0, abs=1e-9)
    # vanishing extrinsic curvature: no z-mixing for in-plane indices
    assert np.max(np.abs(gam[2, :2, :2])) < 1e-10


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def test_flat_metrics_have_zero_curvature():
    for field in (euclidean_metric(3), flat_polar_metric()):
        x = np.array([1.3, 0.7, -0.2])[: field.dimension]
        b = curvature(field, x)
        assert np.max(np.abs(b.riemann)) < 1e-11
        assert np.max(np.abs(b.ricci)) < 1e-11
        assert abs(b.scalar) < 1e-11


def test_flat_polar_curvature_by_finite_differences():
    field = strip_partials(flat_polar_metric())
    for r in (0.1, 0.5, 1.0, 2.0):
        b = curvature(field, np.array([r, 0.2]))
        assert np.max(np.abs(b.ricci)) < FD_TOL


def test_round_sphere_curvature():
    field = round_sphere_metric()
    x = np.array([np.pi / 3, 0.4])
    b = curvature(field, x)
    g = field(x)
    np.testing.assert_allclose(b.ricci, g, atol=1e-7)
    assert b.scalar == pytest.approx(2.0, abs=1e-7)


def test_finite_difference_convergence_on_sphere():
    # Halving the step must cut the curvature error by at least 8
    # (4th-order interior stencils) until the rounding floor.
    field = round_sphere_metric()
    x = np.array([np.pi / 3, 0.4])
    g = field(x)
    errors = []
    for step in (0.04, 0.02, 0.01):
        b = curvature(field, x, step=step)
        errors.append(np.max(np.abs(b.ricci - g)))
    assert errors[0] / errors[1] > 8.0
    assert errors[1] / errors[2] > 8.0


def test_riemann_against_christoffel_derivative_oracle():
    # Independent route: Riemann assembled from finite differences of
    # the christoffel map itself, not from the metric's second
    # derivatives.
    field = RandomMetricSpec(seed=11).build()
    x = np.array([0.2, -0.1, 0.35])
    n = 3
    step = 1e-3
    dgamma = np.zeros((n, n, n, n))
    offsets = np.array([-2.0, -1.0, 1.0, 2.0])
    weights = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
    for c in range(n):
        h = step * max(1.0, abs(x[c]))
        vals = []
        for o in offsets:
            p = x.copy()
            p[c] += o * h
            vals.append(christoffel(field, p))
        dgamma[c] = np.tensordot(weights, np.array(vals), axes=(0, 0)) / h
    gam = christoffel(field, x)
    riem_oracle = (
        np.einsum("amnb->mnab", dgamma)
        - np.einsum("bmna->mnab", dgamma)
        + np.einsum("msa,snb->mnab", gam, gam)
        - np.einsum("msb,sna->mnab", gam, gam)
    )
    b = curvature(field, x)
    np.testing.assert_allclose(b.riemann, riem_oracle, atol=1e-7)


def _battery():
    # every metric exercised by the package, with off-singular sample points
    from confgeo import example_metric

    rng = np.random.default_rng(0)
    yield strip_partials(euclidean_metric(3)), rng.uniform(-1.5, 1.5, size=(3, 3))
    yield strip_partials(flat_polar_metric()), np.array([[0.4, 0.2], [1.7, 2.0]])
    yield round_sphere_metric(), np.array([[np.pi / 3, 0.1], [2.0, 1.5]])
    for seed in (1, 2, 3):
        yield RandomMetricSpec(seed=seed).build(), np.random.default_rng(
            seed
        ).uniform(-0.6, 0.6, size=(3, 3))
    for chart, points in (
        ("cylindrical", [[0.4, 0.3, 0.0], [0.9, 1.0, 0.4], [1.2, 2.0, -0.6]]),
        ("cartesian", [[0.5, 0.1, 0.2], [-0.8, 0.6, -0.9], [1.1, -0.4, 1.3]]),
    ):
        field = example_metric(chart)
        yield field, np.array(points)
        # the same chart through the finite-difference stencil
        stencil = dataclasses.replace(
            field, analytic_jet=None, name=f"{field.name}_fd"
        )
        yield stencil, np.array(points)


@pytest.mark.parametrize(
    "field,points", list(_battery()), ids=lambda v: getattr(v, "name", "")
)
def test_curvature_algebraic_invariants_battery(field, points):
    for x in points:
        b = curvature(field, x)
        n = len(x)
        gam = b.christoffel
        np.testing.assert_allclose(gam, np.swapaxes(gam, 1, 2), atol=0.0)
        R = b.riemann_lowered
        tol = 10 * FD_TOL
        np.testing.assert_allclose(R, -np.einsum("nmab->mnab", R), atol=tol)
        np.testing.assert_allclose(R, -np.einsum("mnba->mnab", R), atol=tol)
        np.testing.assert_allclose(R, np.einsum("abmn->mnab", R), atol=tol)
        bianchi = R + np.einsum("mabn->mnab", R) + np.einsum("mbna->mnab", R)
        np.testing.assert_allclose(bianchi, 0.0, atol=tol)
        np.testing.assert_allclose(b.ricci, b.ricci.T, atol=tol)
        assert b.scalar == pytest.approx(
            float(np.einsum("ab,ab->", b.inverse_metric, b.ricci)), abs=1e-10
        )
        if n >= 3:
            # schouten consistency with ricci and scalar is pure algebra
            expected = (b.ricci - b.scalar / (2 * (n - 1)) * b.metric) / (n - 2)
            np.testing.assert_allclose(b.schouten, expected, atol=1e-12)


def _einsum_curvature(g, dg, d2g):
    """The einsum formulation of curvature()'s algebra, kept as an index
    convention oracle.  Returns ({name: tensor}, {name: scale}), where a
    scale bounds the terms that cancel inside each tensor."""
    ginv = np.linalg.inv(g)
    T = np.einsum("asb->sab", dg) + np.einsum("bsa->sab", dg) - dg
    gamma = 0.5 * np.einsum("ms,sab->mab", ginv, T)
    dginv = -np.einsum("mr,crt,ts->cms", ginv, dg, ginv)
    dT = (
        np.einsum("casb->csab", d2g)
        + np.einsum("cbsa->csab", d2g)
        - np.einsum("csab->csab", d2g)
    )
    dgamma = 0.5 * (
        np.einsum("cms,sab->cmab", dginv, T) + np.einsum("ms,csab->cmab", ginv, dT)
    )
    riemann = (
        np.einsum("amnb->mnab", dgamma)
        - np.einsum("bmna->mnab", dgamma)
        + np.einsum("msa,snb->mnab", gamma, gamma)
        - np.einsum("msb,sna->mnab", gamma, gamma)
    )
    riemann_lowered = np.einsum("ms,snab->mnab", g, riemann)
    ricci = np.einsum("mnmb->nb", riemann)
    scalar = float(np.einsum("ab,ab->", ginv, ricci))
    n = len(g)
    tensors = {
        "christoffel": gamma,
        "riemann": riemann,
        "riemann_lowered": riemann_lowered,
        "ricci": ricci,
        "scalar": scalar,
    }
    big = lambda t: float(np.max(np.abs(t)))  # noqa: E731
    riemann_scale = 2.0 * (big(dgamma) + n * big(gamma) ** 2)
    scales = {
        "christoffel": n * big(ginv) * big(T),
        "riemann": riemann_scale,
        "riemann_lowered": n * big(g) * riemann_scale,
        "ricci": n * riemann_scale,
        "scalar": n * n * big(ginv) * n * riemann_scale,
    }
    if n >= 3:
        tensors["schouten"] = (ricci - scalar / (2.0 * (n - 1)) * g) / (n - 2)
        scales["schouten"] = scales["ricci"] + scales["scalar"] * big(g)
    return tensors, scales


def _oracle_cases():
    from confgeo import example_metric

    rng = np.random.default_rng(8)
    for seed in (1, 2, 3):
        for dim in (2, 3):
            field = RandomMetricSpec(seed=seed, dimension=dim).build()
            yield field, rng.uniform(-0.6, 0.6, size=(4, dim))
    yield RandomMetricSpec(seed=4, dimension=4).build(), rng.uniform(-0.6, 0.6, (4, 4))
    yield round_sphere_metric(), np.array([[np.pi / 3, 0.4], [1.0, -2.0], [2.5, 0.7]])
    cyl = np.column_stack(
        [rng.uniform(0.2, 1.6, 8), rng.uniform(-3.0, 3.0, 8), rng.uniform(-0.8, 0.8, 8)]
    )
    yield example_metric("cylindrical"), cyl
    yield example_metric("cartesian"), rng.uniform(-1.2, 1.2, size=(8, 3))


@pytest.mark.parametrize(
    "field,points",
    list(_oracle_cases()),
    ids=lambda v: getattr(v, "name", ""),
)
def test_curvature_matches_einsum_formulation(field, points):
    # A wrong transpose in curvature()'s kernel moves some entry by the
    # size of the terms it combines; rounding moves none by more than
    # ~1e-16 of them.
    for x in points:
        b = curvature(field, x)
        g, dg, d2g = _metric_jets(field, x)
        expected, scales = _einsum_curvature(g, dg, d2g)
        if len(x) < 3:
            assert b.schouten is None
        for name, ref in expected.items():
            got = getattr(b, name)
            err = float(np.max(np.abs(np.asarray(got) - ref)))
            assert err <= 1e-13 * scales[name], (name, x, err, scales[name])


def test_analytic_and_fd_curvature_agree():
    field = RandomMetricSpec(seed=21).build()
    x = np.array([0.15, 0.4, -0.2])
    exact = curvature(field, x)
    fd = curvature(strip_partials(field), x)
    np.testing.assert_allclose(fd.riemann, exact.riemann, atol=FD_TOL)
    np.testing.assert_allclose(fd.schouten, exact.schouten, atol=FD_TOL)


def test_schouten_none_in_dimension_two():
    b = curvature(round_sphere_metric(), np.array([1.0, 0.0]))
    assert b.schouten is None


def test_analytic_partials_used_when_available():
    field = flat_polar_metric()
    g, dg, d2g = _metric_jets(field, np.array([2.0, 0.0]))
    assert dg[0, 1, 1] == 4.0  # exact, not a stencil value
    assert d2g[0, 0, 1, 1] == 2.0


# ---------------------------------------------------------------------------
# kulkarni-nomizu and the hat map
# ---------------------------------------------------------------------------


def test_kulkarni_nomizu_identity_example():
    eye = np.eye(3)
    kn = kulkarni_nomizu(eye, eye)
    assert kn[0, 1, 0, 1] == 2.0
    assert np.max(np.abs(kulkarni_nomizu(np.zeros((3, 3)), eye))) == 0.0


def test_kulkarni_nomizu_has_riemann_symmetries():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 3))
    A = A + A.T
    B = rng.standard_normal((3, 3))
    B = B + B.T
    kn = kulkarni_nomizu(A, B)
    np.testing.assert_allclose(kn, -np.einsum("nmab->mnab", kn), atol=1e-14)
    np.testing.assert_allclose(kn, -np.einsum("mnba->mnab", kn), atol=1e-14)
    np.testing.assert_allclose(kn, np.einsum("abmn->mnab", kn), atol=1e-14)
    bianchi = kn + np.einsum("mabn->mnab", kn) + np.einsum("mbna->mnab", kn)
    np.testing.assert_allclose(bianchi, 0.0, atol=1e-14)


def test_kulkarni_nomizu_dimension_mismatch():
    with pytest.raises(ValueError):
        kulkarni_nomizu(np.eye(3), np.eye(2))


def test_hat_map_matches_frame_swap_for_m_tensor():
    # Oracle: direct matrix computation g^-1 M v in polar coordinates,
    # compared against the orthonormal-frame swap (alpha, beta) ->
    # (beta, alpha).
    from confgeo import m_covariant

    field = flat_polar_metric()
    r = 0.5
    x = np.array([r, 1.2])
    M = m_covariant(r, 2)
    rng = np.random.default_rng(3)
    for _ in range(5):
        alpha, beta = rng.standard_normal(2)
        v_coord = np.array([alpha, beta / r])  # frame (alpha, beta)
        mv = field.inverse(x) @ M @ v_coord
        frame = np.array([mv[0], r * mv[1]])
        np.testing.assert_allclose(frame, [beta, alpha], atol=1e-14)


# ---------------------------------------------------------------------------
# the bundles, bit for bit
# ---------------------------------------------------------------------------


def _pinned_bundle_cases():
    """(field, points) over every jet route: both example charts (the
    cartesian one also on its flat core and past the cutoff), the
    cylindrical example by finite differences, the flat, polar and
    sphere metrics and a random polynomial metric."""
    rng = np.random.default_rng(2024)
    cylindrical = example_metric("cylindrical")
    cyl = np.column_stack(
        [
            rng.uniform(0.05, 1.6, 24),
            rng.uniform(-np.pi, np.pi, 24),
            rng.uniform(-0.6, 0.6, 24),
        ]
    )
    cyl[:4, 2] = 0.0  # on the spiral's plane
    cart = cylindrical.chart.embed(cyl)
    core = np.column_stack(
        [rng.uniform(-5e-4, 5e-4, (4, 2)), rng.uniform(-0.5, 0.5, 4)]
    )
    cube = rng.uniform(-0.6, 0.6, (8, 3))
    polar = np.column_stack([rng.uniform(0.1, 2.0, 6), rng.uniform(-3.0, 3.0, 6)])
    sphere = np.column_stack([rng.uniform(0.2, 2.9, 6), rng.uniform(-3.0, 3.0, 6)])
    return [
        (cylindrical, cyl),
        (example_metric("cartesian"), np.concatenate([cart, core])),
        (strip_partials(cylindrical), cyl[:6]),
        (euclidean_metric(3), cube[:3]),
        (euclidean_metric(2), cube[:3, :2]),
        (flat_polar_metric(), polar),
        (flat_cylindrical_metric(), cyl[:6]),
        (round_sphere_metric(), sphere),
        (RandomMetricSpec(seed=11).build(), cube),
        (strip_partials(RandomMetricSpec(seed=11).build()), cube[:3]),
    ]


# sha256 over every field of the bundles of _pinned_bundle_cases, the
# Riemann tensor built on demand included: a change to any bit of the
# single-point curvature path shows here.
PINNED_BUNDLES = "a3b45f53079747af1bfd839e4150fcb6a7f6ad49cac12a6c40f01d5707bfe7ad"


def test_curvature_bundles_are_pinned_bit_for_bit():
    digest = hashlib.sha256()
    for field, points in _pinned_bundle_cases():
        for x in points:
            b = curvature(field, x)
            for value in (
                b.point,
                b.metric,
                b.inverse_metric,
                b.christoffel,
                b.ricci,
                b.scalar,
                b.schouten,
                b.riemann,
            ):
                if value is None:
                    digest.update(b"none")
                    continue
                value = np.asarray(value)
                assert value.dtype == np.float64
                digest.update(repr(value.shape).encode())
                digest.update(np.ascontiguousarray(value).tobytes())
    assert digest.hexdigest() == PINNED_BUNDLES


_ROUTES = [
    "example_cylindrical",
    "example_cartesian",
    "example_cylindrical_fd",
    "euclidean3d",
    "euclidean2d",
    "flat_polar",
    "flat_cylindrical",
    "sphere_fd",
    "polynomial",
    "polynomial_fd",
]
_BUNDLE_FIELDS = (
    "point",
    "metric",
    "inverse_metric",
    "christoffel",
    "ricci",
    "scalar",
    "schouten",
    "riemann",
    "riemann_lowered",
)


def _bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("route", range(len(_ROUTES)), ids=_ROUTES)
def test_a_stack_of_points_gets_the_bits_of_one_point_calls(route):
    # curvature, christoffel and metric_derivatives over all the points of
    # a route, and over two halves of them as (2, k/2, n), instance by
    # instance against one-point calls
    field, points = _pinned_bundle_cases()[route]
    k, n = points.shape
    for stack in (points, points[: k // 2 * 2].reshape(2, k // 2, n)):
        bundle = curvature(field, stack)
        gamma = christoffel(field, stack)
        dg, d2g = (metric_derivatives(field, stack, order) for order in (1, 2))
        assert bundle.ricci.shape == stack.shape + (n,)
        for index in np.ndindex(stack.shape[:-1]):
            x = stack[index]
            alone = curvature(field, x)
            for name in _BUNDLE_FIELDS:
                got, want = getattr(bundle, name), getattr(alone, name)
                if want is None:
                    assert got is None
                else:
                    assert _bitwise(np.asarray(got)[index], want), (name, x)
            assert _bitwise(gamma[index], christoffel(field, x)), x
            assert _bitwise(dg[index], metric_derivatives(field, x, 1)), x
            assert _bitwise(d2g[index], metric_derivatives(field, x, 2)), x
    assert curvature(field, points[:0]).ricci.shape == (0, n, n)


@pytest.mark.parametrize(
    "evaluate",
    [
        curvature,
        christoffel,
        lambda field, point: metric_derivatives(field, point, order=2),
    ],
    ids=["curvature", "christoffel", "metric_derivatives"],
)
@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
def test_a_stack_with_a_bad_point_is_refused_naming_it(evaluate, analytic):
    # the error names the first bad point of the stack, in C order (a
    # stack of short points is in test_a_point_of_the_wrong_shape_is_refused)
    field = example_metric("cylindrical")
    field = field if analytic else strip_partials(field)
    good = np.array(
        [[[0.5, 0.1, 0.0], [0.6, 0.2, 0.1]], [[0.7, 0.3, -0.1], [0.8, -0.4, 0.2]]]
    )
    for axis, value, error, says in [
        (2, np.nan, DegenerateMetricError, "is not finite"),
        (0, 0.0, ChartSingularityError, "lies on the singular locus"),
    ]:
        points = good.copy()
        points[1, :, axis] = value
        match = "^" + re.escape(f"point {points[1, 0]} {says}")
        with pytest.raises(error, match=match):
            evaluate(field, points)
