"""Closed-form metric jets of the example metric, against sympy and the stencil.

The example metric carries an exact jet (g and its first and second
partials) in both charts.  The oracle here differentiates the metric
components symbolically with sympy: k, built as A'/B from the curve's
angle phi = e^(1/r) itself, and the cutoff are differentiated in r,
and each component is differentiated with h replaced by its
second-order Taylor polynomial about the point's radius (the value and
the first and second partials at a point only see h, h' and h'' there),
then evaluated to 30 digits.
"""
import dataclasses
import functools

import numpy as np
import pytest

from confgeo import (
    check_lemma5,
    example_metric,
    from_unparametrized,
    metric_derivatives,
    propertime_rhs,
    spiral_state,
    spiral_tracking_run,
)
from confgeo.spiral import (
    _R_FLAT,
    CHI_INNER,
    CHI_OUTER,
    _curve,
    _forcing,
    cutoff_chi,
    h_over_r2,
    h_profile,
    k_exact,
)

DIGITS = 30

CYLINDRICAL_POINTS = [
    (0.05, 0.3, 0.4),
    (0.2, -1.0, 0.5),
    (0.5, 2.0, -0.3),
    (0.8, 0.7, 0.9),
    (1.05, -2.5, 1.1),
    (1.2, 0.5, 0.6),
    (1.35, 3.0, -0.2),
    (1.49, 0.1, -0.9),
    (1.5, 0.2, 0.5),
    (2.0, -0.4, 1.5),
    (0.6, 0.1, 0.0),
]
CARTESIAN_POINTS = [
    (0.04, -0.03, 0.4),
    (0.3, -0.2, -0.7),
    (-0.5, 0.6, 0.3),
    (-0.8, -0.6, 1.2),
    (1.0, 0.5, 0.6),
    (-1.2, 0.7, -0.9),
    (0.0, 1.45, 0.8),
    (1.6, 0.2, 0.5),
    (0.4, 0.3, 0.0),
    (1e-2, 1e-2, 0.7),
    (2e-3, -1.5e-3, 0.3),
    (3e-4, -2e-4, 0.9),
    (0.0, 0.0, 0.5),
    (0.0, 0.0, 0.0),
]


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def _forcing_from_angle(sp, r, phi):
    """k = A'/B for the curve (r, phi(r)) of the flat plane, by sympy.

    In the orthonormal polar frame v = (1, r phi'), b = nabla_v v =
    (-r phi'^2, r phi'' + 2 phi') and M^v = (r phi', 1), so over the
    area bivector (v ^ b)/|v|^3 = A and (v ^ M^v)/|v| = B with
    A = (r phi'' + 2 phi' + r^2 phi'^3)/(1 + r^2 phi'^2)^(3/2) and
    B = (1 - r^2 phi'^2)/(1 + r^2 phi'^2)^(1/2).
    """
    d1, d2 = sp.diff(phi, r), sp.diff(phi, r, 2)
    speed2 = 1 + r**2 * d1**2
    A = (r * d2 + 2 * d1 + r**2 * d1**3) / speed2 ** sp.Rational(3, 2)
    B = (1 - r**2 * d1**2) / sp.sqrt(speed2)
    return sp.diff(A, r) / B


@functools.lru_cache(maxsize=None)
def _profile_factors(sp):
    """k, k', k'', chi, chi', chi'' by sympy, as one mpmath function of r."""
    r = sp.Symbol("r", positive=True)
    k = _forcing_from_angle(sp, r, sp.exp(1 / r))
    outer, inner = sp.Float(CHI_OUTER, DIGITS), sp.Float(CHI_INNER, DIGITS)
    s = (outer - r) / (outer - inner)
    up, down = sp.exp(-1 / s), sp.exp(-1 / (1 - s))
    chi = up / (up + down)
    exprs = [k, sp.diff(k, r), sp.diff(k, r, 2)]
    exprs += [chi, sp.diff(chi, r), sp.diff(chi, r, 2)]
    return sp.lambdify(r, exprs, "mpmath")


def _profile_jet(sp, radius):
    """(h, h', h'') at ``radius`` for h = -k chi / 2, chi = 1 below CHI_INNER."""
    import mpmath

    if not 0.0 < radius < CHI_OUTER:
        return (mpmath.mpf(0),) * 3
    k, k1, k2, chi, chi1, chi2 = _profile_factors(sp)(mpmath.mpf(radius))
    if radius <= CHI_INNER:
        chi, chi1, chi2 = 1, 0, 0
    return (
        -k * chi / 2,
        -(k1 * chi + k * chi1) / 2,
        -(k2 * chi + 2 * k1 * chi1 + k * chi2) / 2,
    )


@functools.lru_cache(maxsize=None)
def _component_jets(sp, chart):
    """Values and partials of g_00, g_11 and g_01 as one mpmath function of
    (point, r0, h0, h1, h2), with h replaced by its Taylor polynomial
    h0 + h1 (r - r0) + h2 (r - r0)^2 / 2 about r0."""
    r0, h0, h1, h2 = sp.symbols("r0 h0 h1 h2", real=True)
    if chart == "cylindrical":
        coords = sp.symbols("r phi z", positive=True)
        r, _, z = coords
        h = h0 + h1 * (r - r0) + h2 * (r - r0) ** 2 / 2
        w = h * z**2
        components = [1 + w**2, r**2 * (1 + w**2), 2 * w * r]
    else:
        coords = sp.symbols("x y z", real=True)
        x, y, z = coords
        r = sp.sqrt(x**2 + y**2)
        h = h0 + h1 * (r - r0) + h2 * (r - r0) ** 2 / 2
        w = h * z**2
        c = 4 * z**2 * h / r**2
        components = [
            1 + w**2 - c * x * y,
            1 + w**2 + c * x * y,
            c * (x**2 - y**2) / 2,
        ]
    exprs = []
    for g in components:
        first = [sp.diff(g, a) for a in coords]
        exprs += [g, *first] + [sp.diff(da, b) for da in first for b in coords]
    return sp.lambdify([*coords, r0, h0, h1, h2], exprs, "mpmath")


def _oracle(sp, chart, point):
    """(g, dg, d2g) of the example metric at ``point`` to DIGITS digits."""
    import mpmath

    radius = point[0] if chart == "cylindrical" else float(np.hypot(*point[:2]))
    g = np.eye(3)
    dg = np.zeros((3, 3, 3))
    d2g = np.zeros((3, 3, 3, 3))
    if radius == 0.0:
        # h vanishes to all orders at r = 0, so g is flat to second order there
        return g, dg, d2g
    with mpmath.workdps(DIGITS):
        jet = _profile_jet(sp, radius)
        values = _component_jets(sp, chart)(
            *(mpmath.mpf(v) for v in point), mpmath.mpf(radius), *jet
        )
    rows = np.array([float(v) for v in values]).reshape(3, 13)
    for row, pairs in zip(rows, [[(0, 0)], [(1, 1)], [(0, 1), (1, 0)]]):
        for i, j in pairs:
            g[i, j] = row[0]
            dg[:, i, j] = row[1:4]
            d2g[:, :, i, j] = row[4:].reshape(3, 3)
    return g, dg, d2g


def _assert_matches(actual, expected, rel=1e-12):
    scale = max(np.max(np.abs(e)) for e in expected)
    for a, e in zip(actual, expected):
        if scale == 0.0:
            assert np.all(a == 0.0)
        else:
            np.testing.assert_allclose(a, e, rtol=0.0, atol=rel * scale)


def _assert_jet_matches(sp, chart, point):
    """The jet at ``point`` against the oracle, and its g against the
    metric's ``evaluate`` at the point and in a stack, bit for bit."""
    field = example_metric(chart)
    g, dg, d2g = field.analytic_jet(np.array(point))
    g_exact, dg_exact, d2g_exact = _oracle(sp, chart, point)
    _assert_matches((dg, d2g), (dg_exact, d2g_exact))
    _assert_matches((g,), (g_exact,), rel=4 * np.finfo(float).eps)
    assert field(np.array(point)).tobytes() == g.tobytes()
    assert field(np.array([point, point]))[1].tobytes() == g.tobytes()


@pytest.mark.parametrize("point", CYLINDRICAL_POINTS, ids=str)
def test_cylindrical_partials_match_sympy(sp, point):
    _assert_jet_matches(sp, "cylindrical", point)


@pytest.mark.parametrize("point", CARTESIAN_POINTS, ids=str)
def test_cartesian_partials_match_sympy(sp, point):
    _assert_jet_matches(sp, "cartesian", point)


@pytest.mark.parametrize(
    "chart,points",
    [
        (
            "cylindrical",
            [(0.2, -1.0, 0.5), (0.8, 0.7, 0.9), (1.2, 0.5, 0.6), (1.45, 0.1, -0.9)],
        ),
        (
            "cartesian",
            [(0.3, -0.2, -0.7), (-0.8, -0.6, 1.2), (0.0, 1.45, 0.8), (0.05, 0.02, 0.5)],
        ),
    ],
)
def test_closed_form_partials_agree_with_the_stencil(chart, points):
    field = example_metric(chart)
    stencil = dataclasses.replace(field, analytic_jet=None)
    for point in np.array(points):
        for order in (1, 2):
            exact = metric_derivatives(field, point, order)
            fd = metric_derivatives(stencil, point, order)
            scale = max(1.0, np.max(np.abs(exact)))
            np.testing.assert_allclose(fd, exact, rtol=0.0, atol=1e-6 * scale)


def test_closed_form_cartesian_jet_continuous_across_axis():
    # Twin of the stencil test in test_spiral.py on the closed-form jet:
    # derivatives up to third order converge to the axis values, which
    # are exactly 0, and r = 0 itself is evaluated without dividing.
    from confgeo.curvature import _metric_jets

    cart = example_metric("cartesian")
    z = 1.2

    def jet_at(radius):
        p = np.array([radius * 0.6, radius * 0.8, z])
        _, dg, d2g = _metric_jets(cart, p)
        shift = p.copy()
        shift[0] += 1e-3
        _, _, d2g_shift = _metric_jets(cart, shift)
        d3 = (d2g_shift - d2g) / 1e-3
        return np.concatenate([dg.ravel(), d2g.ravel(), d3.ravel()])

    _, dg, d2g = _metric_jets(cart, np.array([0.0, 0.0, z]))
    assert np.all(dg == 0.0) and np.all(d2g == 0.0)
    axis = jet_at(0.0)
    deviations = [np.max(np.abs(jet_at(r) - axis)) for r in (0.08, 0.05, 0.02, 0.01)]
    assert all(np.isfinite(d) for d in deviations)
    assert all(later < earlier for earlier, later in zip(deviations, deviations[1:]))
    assert deviations[2] < 1e-8


@functools.lru_cache(maxsize=None)
def _forcing_jet_of_angle(sp, curve):
    """(k, k', k'') by sympy as one mpmath function of r, for the angle
    phi = e^(1/r) of the paper's curve or phi = r^-4."""
    r = sp.Symbol("r", positive=True)
    k = _forcing_from_angle(sp, r, sp.exp(1 / r) if curve == "e^(1/t)" else r**-4)
    return sp.lambdify(r, [k, sp.diff(k, r), sp.diff(k, r, 2)], "mpmath")


def _power4_inputs(t):
    """q and u of phi = t^-4: q = 1/(t |phi'|) = t^4/4 and
    u_n = d^n ln q / dt^n = 4 (-1)^(n+1) (n-1)!/t^n."""
    return t**4 / 4, (4 / t, -4 / t**2, 8 / t**3, -24 / t**4)


@pytest.mark.parametrize(
    "curve,t",
    [("e^(1/t)", t) for t in (0.05, 0.2, 0.5, 0.9, 1.4)]
    + [("t^-4", t) for t in (0.1, 0.3, 0.6, 0.9, 1.2, 1.35)],
    ids=str,
)
def test_forcing_jet_matches_sympy_for_both_curves(sp, curve, t):
    # The derivation reads a curve only through q and u: the paper's
    # curve supplies them from _curve, phi = t^-4 (with its pole at
    # t = sqrt 2) from _power4_inputs.
    import mpmath

    q, u = _curve(t)[:2] if curve == "e^(1/t)" else _power4_inputs(t)
    with mpmath.workdps(DIGITS):
        exact = [float(v) for v in _forcing_jet_of_angle(sp, curve)(mpmath.mpf(t))]
    for got, want in zip(_forcing(t, q, u, jet=True), exact):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_profile_is_minus_half_k_times_cutoff_on_its_support():
    r = np.concatenate(
        [np.linspace(_R_FLAT, CHI_OUTER, 20001)[1:-1], [np.nextafter(CHI_INNER, 2.0)]]
    )
    h = h_profile(r)
    assert np.array_equal(h, -0.5 * k_exact(r) * cutoff_chi(r))
    assert np.array_equal(h_over_r2(r), h / r**2)
    outside = np.array(
        [-1.0, -0.0, 0.0, 5e-324, 1e-300, 1e-170, 1e-10, _R_FLAT, CHI_OUTER, 2.0]
    )
    assert np.all(h_profile(outside) == 0.0)
    # r^2 underflows below 1e-162; h/r^2 is still the flat extension 0
    assert np.all(h_over_r2(outside) == 0.0)


# ---------------------------------------------------------------------------
# invariants that hold exactly with closed-form jets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("chart", ["cylindrical", "cartesian"])
def test_plane_is_exactly_invariant_for_the_rhs(chart):
    from confgeo import GeodesicState

    field = example_metric(chart)
    rng = np.random.default_rng(3)
    for _ in range(40):
        if chart == "cylindrical":
            x = np.array([rng.uniform(0.01, 1.6), rng.uniform(-5.0, 5.0), 0.0])
        else:
            x = np.array([*rng.uniform(-1.6, 1.6, 2), 0.0])
        u = np.array([*rng.normal(size=2), 0.0])
        a = np.array([*rng.normal(size=2), 0.0])
        dx, du, da = propertime_rhs(field, GeodesicState(x, u, a))
        assert dx[2] == 0.0 and du[2] == 0.0 and da[2] == 0.0


def test_spiral_state_rhs_stays_in_the_plane():
    field = example_metric("cylindrical")
    for t in (0.3, 0.55, 0.8, 1.0):
        state = from_unparametrized(field, spiral_state(t))
        assert all(d[2] == 0.0 for d in propertime_rhs(field, state))


def test_spiral_run_never_leaves_the_plane():
    traj, track_err, max_z = spiral_tracking_run(t0=0.8, t_end=0.3)
    assert traj.status == "stopped"
    assert max_z == 0.0
    assert track_err < 1e-7


def test_lemma5_curvature_to_rounding():
    rep = check_lemma5()
    assert rep.passed
    assert rep.tolerances["curvature"] == 1e-6
    assert rep.metrics["max_ricci_deviation"] <= 1e-12
    assert rep.metrics["max_riemann_deviation"] <= 1e-12
    assert rep.metrics["max_dz_metric_at_plane"] == 0.0
