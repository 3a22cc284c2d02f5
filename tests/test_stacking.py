"""Stacked evaluation: the broadcasting kernels over N instances give, bit
for bit, what N single-instance calls give, and one bad instance in a
stack raises the single call's error, naming that instance's point."""
import dataclasses

import numpy as np
import pytest

from confgeo import (
    Bivector,
    DegenerateMetricError,
    GeodesicState,
    ImmersionError,
    UnparamState,
    bivector_covariant_derivative,
    curvature,
    example_metric,
    kulkarni_nomizu,
    propertime_rhs,
    spiral_acceleration,
    spiral_acceleration_dot,
    spiral_point,
    spiral_velocity,
    unparam_residual,
    wedge,
    wedge_form_residual,
)
from confgeo.curvature import _curvature_kernel, _metric_jets
from confgeo.dynamics import unparam_residual_scale
from confgeo import metrics, verify
from confgeo.verify import (
    RandomMetricSpec,
    _orthogonal_direction,
    forcing_residual_relative,
    random_metric,
)

N = 12


def _stand_in_schouten(x):
    """A symmetric stand-in for L in dimension 2, for one point or a stack."""
    x = np.asarray(x, float)
    L = np.empty(x.shape[:-1] + (2, 2))
    L[..., 0, 0] = 1.0 + x[..., 0] ** 2
    L[..., 1, 1] = 0.5 - x[..., 1]
    L[..., 0, 1] = L[..., 1, 0] = 0.3 * x[..., 0] * x[..., 1]
    return L


def _instances(n, seed=0):
    """N random polynomial metrics of dimension n, each with a point and
    three vectors (u, a and d, the latter as da or db)."""
    rng = np.random.default_rng(seed)
    seeds = rng.integers(2**31, size=N)
    fields = [RandomMetricSpec(seed=int(s), dimension=n).build() for s in seeds]
    x = rng.uniform(-0.5, 0.5, size=(N, n))
    u, a, d = rng.standard_normal((3, N, n))
    return fields, x, u, a, d


def _stack(fields, x):
    jets = [_metric_jets(f, p) for f, p in zip(fields, x)]
    return _curvature_kernel(x, *(np.array(j) for j in zip(*jets)))


def _same(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_curvature_kernel_stack_equals_single_calls(n):
    fields, x, *_ = _instances(n)
    stacked = _stack(fields, x)
    for i, (f, p) in enumerate(zip(fields, x)):
        single = curvature(f, p)
        for name in (
            "metric", "inverse_metric", "christoffel", "ricci", "scalar", "riemann"
        ):
            assert _same(getattr(stacked, name)[i], getattr(single, name)), (n, i, name)
        if n == 2:
            assert stacked.schouten is None and single.schouten is None
        else:
            assert _same(stacked.schouten[i], single.schouten), (n, i)
    assert stacked.scalar.shape == (N,) and stacked.riemann.shape == (N,) + (n,) * 4


def _rhs_and_residuals(field, state, d, bundle):
    """The RHS, both residuals and the residual scale at ``state``."""
    ustate = UnparamState(state.x, state.u, state.a)
    return (
        *propertime_rhs(field, state, bundle=bundle),
        wedge_form_residual(field, state, d, bundle=bundle),
        unparam_residual(field, ustate, d, bundle=bundle),
        unparam_residual_scale(field, ustate, d, bundle=bundle),
    )


def _assert_instance_is_a_single_call(stacked, index, alone, metric):
    dx, du, da, wedge, unparam, scale = stacked
    dx_i, du_i, da_i, wedge_i, unparam_i, scale_i = alone
    for got, want in ((dx, dx_i), (du, du_i), (da, da_i), (scale, scale_i)):
        assert _same(got[index], want), index
    for got, want in ((wedge, wedge_i), (unparam, unparam_i)):
        assert _same(got.components[index], want.components), index
        assert _same(got.max_abs()[index], want.max_abs()), index
    assert _same(unparam.norm(metric)[index], unparam_i.norm(metric[index])), index


@pytest.mark.parametrize("n", [2, 3])
def test_rhs_and_residuals_stack_equal_single_calls(n):
    fields, x, u, a, d = _instances(n, seed=n)
    bundle = _stack(fields, x)
    if n == 2:
        # dimension 2 has no Schouten tensor: a stand-in L goes in
        # through the bundle
        bundle = dataclasses.replace(bundle, schouten=_stand_in_schouten(x))
    stacked = _rhs_and_residuals(None, GeodesicState(x, u, a), d, bundle)
    assert stacked[3].components.shape == (N, n, n)
    for i, f in enumerate(fields):
        single = curvature(f, x[i])
        if n == 2:
            single = dataclasses.replace(single, schouten=bundle.schouten[i])
        alone = _rhs_and_residuals(f, GeodesicState(x[i], u[i], a[i]), d[i], single)
        _assert_instance_is_a_single_call(stacked, i, alone, bundle.metric)


def test_rhs_and_residuals_broadcast_one_bundle_over_its_states():
    # lemma2's shape: R states over (N, R) at the N points of a bundle
    # over (N, 1)
    fields, x, *_ = _instances(3, seed=8)
    R = 5
    u, a, d = np.random.default_rng(9).standard_normal((3, N, R, 3))
    jets = [_metric_jets(f, p) for f, p in zip(fields, x)]
    x = x[:, None]
    bundle = _curvature_kernel(x, *(np.array(j)[:, None] for j in zip(*jets)))
    assert bundle.point.shape == (N, 1, 3)
    stacked = _rhs_and_residuals(None, GeodesicState(x, u, a), d, bundle)
    assert stacked[3].components.shape == (N, R, 3, 3)
    metric = np.broadcast_to(bundle.metric, (N, R, 3, 3))
    for i, f in enumerate(fields):
        single = curvature(f, x[i, 0])
        for r in range(R):
            state = GeodesicState(x[i, 0], u[i, r], a[i, r])
            alone = _rhs_and_residuals(f, state, d[i, r], single)
            _assert_instance_is_a_single_call(stacked, (i, r), alone, metric)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kulkarni_nomizu_stack_equals_single_calls(n):
    rng = np.random.default_rng(n)
    A, B = rng.standard_normal((2, N, n, n))
    A, B = A + A.swapaxes(-1, -2), B + B.swapaxes(-1, -2)
    stacked = kulkarni_nomizu(A, B)
    assert stacked.shape == (N,) + (n,) * 4
    for i in range(N):
        assert _same(stacked[i], kulkarni_nomizu(A[i], B[i])), (n, i)
    two_axes = kulkarni_nomizu(A.reshape(3, 4, n, n), B.reshape(3, 4, n, n))
    assert _same(two_axes, stacked.reshape((3, 4) + (n,) * 4))
    # the shapes must still match exactly: no broadcasting of one matrix
    with pytest.raises(ValueError, match="equal dimension"):
        kulkarni_nomizu(A, B[0])


def test_spiral_curve_and_forcing_residual_take_arrays_of_t():
    ts = np.linspace(0.3, 1.0, 9)
    for fn in (
        spiral_point,
        spiral_velocity,
        spiral_acceleration,
        spiral_acceleration_dot,
    ):
        for dim in (2, 3):
            stacked = fn(ts, dim)
            assert stacked.shape == (len(ts), dim)
            for i, t in enumerate(ts):
                assert _same(stacked[i], fn(float(t), dim)), (fn.__name__, dim, t)
    residuals = forcing_residual_relative(ts)
    for r, t in zip(residuals, ts):
        assert _same(r, forcing_residual_relative(float(t))), t


@pytest.mark.parametrize("n", [2, 3, 4])
def test_polynomial_kernels_stack_equal_each_metric(n):
    # the values and jet kernels over N metrics, one point each, against
    # each metric's own closures
    rng = np.random.default_rng(10 + n)
    seeds = [int(s) for s in rng.integers(2**63, size=N)]
    x = rng.uniform(-0.6, 0.6, size=(N, n))
    exps = verify._monomial_exponents(n, 3)
    coefs = verify._random_coefficients(seeds, n)
    g = metrics._polynomial_values(metrics._monomials(x, exps), coefs)
    jet = metrics._polynomial_jet(x, *metrics._jet_tables(exps, coefs))
    for i, seed in enumerate(seeds):
        field = RandomMetricSpec(seed=seed, dimension=n).build()
        assert _same(g[i], field(x[i])), (n, i)
        for got, alone in zip(jet, _metric_jets(field, x[i])):
            assert _same(got[i], alone), (n, i)


def _bitwise(a, b):
    """Equal shapes and bytes: NaN matches NaN only with the same bits,
    and -0.0 does not match 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _example_points(chart):
    """48 points of the example metric over every branch of its jet: the
    flat core (the axis too, in the cartesian chart), the support, the
    cutoff's ends 1.1 and 1.5 and its ramp, radii past 1.5, NaN, and a
    finite z whose square overflows."""
    rng = np.random.default_rng(55)
    special = [0.0, 5e-4, 1e-3, 0.05, 0.3, 0.8, 1.1, 1.3, 1.5, 2.0, np.nan]
    r = np.concatenate([special, rng.uniform(0.0, 1.7, 35)])
    phi, z = rng.uniform(-np.pi, np.pi, r.size), rng.uniform(-1.0, 1.0, r.size)
    cyl = np.column_stack([r, phi, z])
    cyl[3, 2] = 0.0  # on the spiral's plane
    if chart == "cylindrical":
        return np.concatenate([cyl, [[3.0, 0.1, 1e200], [0.5, 0.2, np.nan]]])
    cart = example_metric("cylindrical").chart.embed(cyl)
    return np.concatenate([cart, [[3.0, 4.0, 1e200], [np.inf, np.nan, 0.1]]])


@pytest.mark.parametrize("chart", ["cylindrical", "cartesian"])
def test_example_metric_evaluates_the_g_of_its_one_point_jets(chart):
    # evaluate over a stack is the closed-form jet's g, so both read the
    # same bits everywhere, also where z^2 overflows: off the profile's
    # support both charts give the flat g there, (3, 0.1, 1e200) in the
    # cylindrical chart and (3, 4, 1e200) in the cartesian one
    field = example_metric(chart)
    points = _example_points(chart)
    with np.errstate(over="ignore", invalid="ignore"):
        g = field(points)
    for p, g_p in zip(points, g):
        assert _bitwise(g_p, field.analytic_jet(p)[0]), p
        assert _bitwise(field(p), g_p), p
    flat = np.diag([1.0, 9.0, 1.0]) if chart == "cylindrical" else np.eye(3)
    assert _bitwise(g[-2], flat)
    assert np.all(curvature(field, points[-2]).ricci == 0.0)
    # a point of integers, at r = 1 on the profile's support, reads as
    # the same point of floats
    point = np.array([1, 0, 1])
    for got, want in zip(field.analytic_jet(point), field.analytic_jet(point.astype(float))):
        assert _bitwise(got, want)
    assert _bitwise(field(point), field.analytic_jet(point.astype(float))[0])


@pytest.mark.parametrize("chart", ["cylindrical", "cartesian"])
def test_example_metric_jets_stack_equal_each_point(chart):
    # the closed-form jet over points (6, 8, 3) against 48 one-point calls
    field = example_metric(chart)
    points = _example_points(chart).reshape(6, 8, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        g, dg, d2g = field.analytic_jet(points)
    assert g.shape == (6, 8, 3, 3) and d2g.shape == (6, 8) + (3,) * 4
    for index in np.ndindex(6, 8):
        for got, alone in zip((g, dg, d2g), field.analytic_jet(points[index])):
            assert _bitwise(got[index], alone), (chart, points[index])


@pytest.mark.parametrize("chart", ["cylindrical", "cartesian"])
def test_inverse_and_bivector_transport_take_a_stack_of_points(chart):
    # MetricField.inverse and bivector_covariant_derivative over points
    # (2, 4, 3), which reach christoffel with the whole stack
    field = example_metric(chart)
    rng = np.random.default_rng(8)
    cyl = np.column_stack(
        [rng.uniform(0.1, 1.4, 8), rng.uniform(-3.0, 3.0, 8), rng.uniform(-0.5, 0.5, 8)]
    )
    points = (cyl if chart == "cylindrical" else field.chart.embed(cyl)).reshape(2, 4, 3)
    v, u, w = rng.standard_normal((3, 2, 4, 3))
    dB = rng.standard_normal((2, 4, 3, 3))
    dB = dB - dB.swapaxes(-1, -2)
    inverse = field.inverse(points)
    nabla = bivector_covariant_derivative(field, points, v, wedge(u, w, points), dB)
    for i in np.ndindex(2, 4):
        assert _bitwise(inverse[i], field.inverse(points[i])), points[i]
        alone = bivector_covariant_derivative(
            field, points[i], v[i], wedge(u[i], w[i], points[i]), dB[i]
        )
        assert _bitwise(nabla.components[i], alone.components), points[i]
        assert _bitwise(nabla.base_point[i], alone.base_point)


def _gauge_state(field, rng):
    """``random_gauge_state``'s draws, one generator call each in their
    order (x, the directions of u and a, the g-length of a), and its
    normalisation."""
    x = rng.uniform(-0.6, 0.6, size=field.dimension)
    u = rng.standard_normal(field.dimension)
    a = rng.standard_normal(field.dimension)
    scale = rng.uniform(0.3, 1.5)
    return (x, *verify._gauge_normalised(field(x), u, a, scale))


def _lemma1_one_at_a_time(rng, trials):
    """lemma1's instances as one random_metric -> gauge state -> jet ->
    control direction chain each, every draw a call of its own."""
    out = []
    for _ in range(trials):
        field = random_metric(rng)
        x, u, a = _gauge_state(field, rng)
        jet = _metric_jets(field, x)
        out.append((x, u, a, *jet, _orthogonal_direction(jet[0], u, rng)))
    return [np.array(arrays) for arrays in zip(*out)]


def _lemma2_one_at_a_time(rng, trials, reparams):
    instances, speeds, controls = [], [], []
    for _ in range(trials):
        field = random_metric(rng)
        x, u, a = _gauge_state(field, rng)
        jet = _metric_jets(field, x)
        instances.append((x, u, a, *jet))
        for _ in range(reparams):
            lam0 = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
            lam1 = float(rng.uniform(-1.0, 1.0))
            lam2 = float(rng.uniform(-1.0, 1.0))
            speeds.append((lam0, lam1, lam2))
            controls.append(_orthogonal_direction(jet[0], lam0 * u, rng))
    return [np.array(arrays) for arrays in zip(*instances)] + [
        np.array(speeds).reshape(trials, reparams, 3),
        np.array(controls).reshape(trials, reparams, -1),
    ]


@pytest.mark.parametrize("seed", [*range(48), 1597683656, 2**63 - 1])
def test_stacked_draws_equal_the_one_at_a_time_chain(seed):
    # lemma1's and lemma2's instances, drawn in blocks and built as one
    # stack, against the per-instance chain with one call per draw
    x, u, a, (g, dg, d2g), w = verify._lemma1_instances(
        np.random.default_rng(seed), 100
    )
    stacked = (x, u, a, g, dg, d2g, verify._orthogonalised(g, u, w))
    alone = _lemma1_one_at_a_time(np.random.default_rng(seed), 100)
    for k, (got, expected) in enumerate(zip(stacked, alone)):
        assert _same(got, expected), ("lemma1", k)

    x, u, a, (g, dg, d2g), speeds, w = verify._lemma2_instances(
        np.random.default_rng(seed), 50, 5
    )
    controls = verify._orthogonalised(g[:, None], speeds[..., :1] * u[:, None], w)
    stacked = (x, u, a, g, dg, d2g, speeds, controls)
    alone = _lemma2_one_at_a_time(np.random.default_rng(seed), 50, 5)
    for k, (got, expected) in enumerate(zip(stacked, alone)):
        assert _same(got, expected), ("lemma2", k)


def test_random_gauge_state_draws_as_one_call_per_draw_does():
    for seed in range(20):
        field = RandomMetricSpec(seed=seed).build()
        st = verify.random_gauge_state(field, np.random.default_rng(seed))
        x, u, a = _gauge_state(field, np.random.default_rng(seed))
        assert _same(st.x, x) and _same(st.u, u) and _same(st.a, a), seed


class _CountingGenerator:
    """A numpy Generator that counts the method calls made on it."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def test_the_instances_take_each_run_of_like_draws_in_one_call():
    # per lemma1 trial: metric seed, x, the directions of u and a, |a|_g
    # and w; per lemma2 trial the same state, then each
    # reparametrization's three speeds and its w
    rng = _CountingGenerator(5)
    counted = verify._lemma1_instances(rng, 100)
    assert rng.calls == 500
    plain = verify._lemma1_instances(np.random.default_rng(5), 100)
    assert _same(counted[0], plain[0]) and _same(counted[-1], plain[-1])

    rng = _CountingGenerator(6)
    counted = verify._lemma2_instances(rng, 50, 5)
    assert rng.calls == 50 * (4 + 5 * 2)
    plain = verify._lemma2_instances(np.random.default_rng(6), 50, 5)
    assert _same(counted[-2], plain[-2]) and _same(counted[-1], plain[-1])


def test_a_singular_instance_fails_the_stack_as_it_fails_alone():
    fields, x, *_ = _instances(3)
    jets = [list(_metric_jets(f, p)) for f, p in zip(fields, x)]
    jets[5][0] = np.zeros((3, 3))
    g, dg, d2g = (np.array(j) for j in zip(*jets))
    with pytest.raises(DegenerateMetricError, match="singular") as alone:
        _curvature_kernel(x[5], g[5], dg[5], d2g[5])
    with pytest.raises(DegenerateMetricError, match="singular") as stacked:
        _curvature_kernel(x, g, dg, d2g)
    assert str(stacked.value) == str(alone.value)
    assert str(x[5]) in str(stacked.value)


# cond = g_ii (g^-1)_ii ~ 5e10, above MAX_CONDITION
NEARLY_SINGULAR = np.array(
    [[1.0, 1.0 - 1e-11, 0.0], [1.0 - 1e-11, 1.0, 0.0], [0.0, 0.0, 1.0]]
)


@pytest.mark.parametrize(
    "bad, match",
    [
        (np.diag([1.0, np.inf, 1.0]), "not finite"),
        (NEARLY_SINGULAR, "ill-conditioned"),
    ],
)
def test_a_degenerate_instance_fails_the_stack_as_it_fails_alone(bad, match):
    fields, x, *_ = _instances(3)
    jets = [list(_metric_jets(f, p)) for f, p in zip(fields, x)]
    jets[7][0] = bad
    g, dg, d2g = (np.array(j) for j in zip(*jets))
    with pytest.raises(DegenerateMetricError, match=match) as alone:
        _curvature_kernel(x[7], g[7], dg[7], d2g[7])
    with pytest.raises(DegenerateMetricError, match=match) as stacked:
        _curvature_kernel(x, g, dg, d2g)
    assert str(stacked.value) == str(alone.value)
    assert str(x[7]) in str(stacked.value)


def test_a_zero_velocity_fails_the_stack_as_it_fails_alone():
    fields, x, u, a, d = _instances(3)
    bundle = _stack(fields, x)
    u[4] = 0.0
    with pytest.raises(ImmersionError) as alone:
        unparam_residual(fields[4], UnparamState(x[4], u[4], a[4]), d[4])
    with pytest.raises(ImmersionError) as stacked:
        unparam_residual(None, UnparamState(x, u, a), d, bundle=bundle)
    assert str(stacked.value) == str(alone.value)
    assert str(x[4]) in str(stacked.value)


def test_a_skew_failing_instance_fails_the_stack_as_it_fails_alone():
    rng = np.random.default_rng(3)
    comps = rng.standard_normal((N, 3, 3))
    comps = comps - comps.swapaxes(-1, -2)
    points = rng.standard_normal((N, 3))
    stack = Bivector(comps, points)
    g = np.eye(3) + 0.1 * np.diag(rng.uniform(size=3))
    for i in range(N):
        assert _same(stack.norm(g)[i], Bivector(comps[i], points[i]).norm(g))
    comps[2, 0, 1] += 1.0
    with pytest.raises(ValueError, match="antisymmetric") as alone:
        Bivector(comps[2], points[2])
    with pytest.raises(ValueError, match="antisymmetric") as stacked:
        Bivector(comps, points)
    assert str(stacked.value) == str(alone.value)
    assert str(points[2]) in str(stacked.value)
