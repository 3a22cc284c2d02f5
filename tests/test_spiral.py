"""The spiral curve, forcing function, radial profile, and example metric."""
import numpy as np
import pytest

from confgeo import (
    accel_wedge_coeff,
    curvature,
    cutoff_chi,
    example_metric,
    flat_polar_metric,
    h_profile,
    k_exact,
    m_covariant,
    spiral_acceleration,
    spiral_acceleration_dot,
    spiral_point,
    spiral_state,
    spiral_velocity,
    t_star,
)
from confgeo.errors import ChartSingularityError, DegenerateMetricError
from confgeo.spiral import (
    _R_FLAT,
    CHI_INNER,
    CHI_OUTER,
    _h_jet,
    h_over_r2,
    m_wedge_coeff,
)

E = np.e


# ---------------------------------------------------------------------------
# forcing function
# ---------------------------------------------------------------------------


def test_t_star_against_bisection_oracle():
    lo, hi = 1.0, 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if np.exp(1.0 / mid) > mid:
            lo = mid
        else:
            hi = mid
    assert t_star() == pytest.approx(0.5 * (lo + hi), abs=1e-12)
    assert t_star() == pytest.approx(1.7632, abs=1e-4)


def test_t_star_is_one_over_omega_to_one_ulp():
    # 1/W(1) = 1/Omega to 30 digits (Corless et al. 1996)
    exact = 1.76322283435189671022520177695
    assert abs(t_star() - exact) <= np.spacing(exact)
    assert np.exp(1.0 / t_star()) == pytest.approx(t_star(), rel=4e-16)


def test_coefficients_match_unscaled_formulas():
    # The shipped forms in q against the direct expressions in
    # f = |phi'| = e^(1/t)/t^2 and f' = -(2t + 1) e^(1/t)/t^4, which are
    # safe at moderate t.
    for t in (0.35, 0.7, 1.0, 1.4):
        fv = np.exp(1.0 / t) / t**2
        fdv = -(2.0 * t + 1.0) * np.exp(1.0 / t) / t**4
        N = -t * fdv - 2 * fv - t * t * fv**3
        D = 1.0 + (t * fv) ** 2
        assert accel_wedge_coeff(t) == pytest.approx(N / D**1.5, rel=1e-13)
        assert m_wedge_coeff(t) == pytest.approx(
            (1.0 - (t * fv) ** 2) / np.sqrt(D), rel=1e-13
        )


def test_accel_coeff_prime_against_finite_difference_oracle():
    # A' = k B is the shipped path for the derivative of A; a 5-point
    # stencil on A with step 1e-6 is the oracle.
    for t in (0.5, 1.0, 1.5):
        h = 1e-6
        fd = (
            accel_wedge_coeff(t - 2 * h)
            - 8 * accel_wedge_coeff(t - h)
            + 8 * accel_wedge_coeff(t + h)
            - accel_wedge_coeff(t + 2 * h)
        ) / (12 * h)
        assert k_exact(t) * m_wedge_coeff(t) == pytest.approx(fd, rel=1e-8), t


def test_k_is_ratio_of_coefficients():
    # k = A'/B on arrays of t: k B must match the 5-point stencil on A,
    # taken entry by entry with step 1e-6
    ts = np.linspace(0.3, 1.45, 12)
    h = 1e-6
    fd = (
        accel_wedge_coeff(ts - 2 * h)
        - 8 * accel_wedge_coeff(ts - h)
        + 8 * accel_wedge_coeff(ts + h)
        - accel_wedge_coeff(ts + 2 * h)
    ) / (12 * h)
    np.testing.assert_allclose(k_exact(ts) * m_wedge_coeff(ts), fd, rtol=1e-8)


def test_k_domain_and_pole_warning():
    with pytest.raises(ValueError):
        k_exact(0.0)
    with pytest.raises(ValueError):
        k_exact(t_star())
    with pytest.raises(ValueError):
        k_exact(2.0)
    with pytest.warns(RuntimeWarning):
        k_exact(0.99 * t_star())


@pytest.mark.parametrize("t", [np.nan, [0.5, np.nan]])
def test_k_rejects_nan(t):
    with pytest.raises(ValueError, match="defined on"):
        k_exact(t)


def test_k_flatness_near_zero():
    # leading-term oracle: k ~ -e^(-1/t)/t, about -4.1e-8 at t = 0.05
    assert abs(k_exact(0.05)) <= 1e-6
    assert k_exact(0.05) == pytest.approx(-np.exp(-20.0) / 0.05, rel=1e-3)
    assert abs(k_exact(0.05)) / 0.05**8 <= abs(k_exact(0.1)) / 0.1**8
    # k is negative on the whole curve range
    assert np.all(k_exact(np.linspace(0.05, 1.0, 30)) < 0.0)


def test_m_wedge_coefficient_negative_on_curve():
    # v ^ M^v = (1 - t^2 f^2) mu with t f > 1 on (0, 1]
    ts = np.linspace(0.05, 1.0, 20)
    assert np.all(m_wedge_coeff(ts) < 0.0)


# ---------------------------------------------------------------------------
# cutoff and profile
# ---------------------------------------------------------------------------


def test_cutoff_plateaus_and_monotonicity():
    assert cutoff_chi(0.3) == 1.0
    assert cutoff_chi(CHI_INNER) == 1.0
    assert cutoff_chi(CHI_OUTER) == 0.0
    assert cutoff_chi(2.0) == 0.0
    mids = cutoff_chi(np.linspace(CHI_INNER, CHI_OUTER, 50))
    assert np.all(np.diff(mids) <= 0.0)
    assert 0.0 < cutoff_chi(1.3) < 1.0


def test_h_equals_minus_half_k_on_curve_range():
    for r in (0.1, 0.5, 1.0, 1.1):
        assert h_profile(r) == pytest.approx(-0.5 * k_exact(r), rel=0.0, abs=1e-18)
    assert h_profile(2.0) == 0.0
    assert h_profile(-1.0) == 0.0
    assert h_profile(0.0) == 0.0
    assert h_profile(0.05) == pytest.approx(-0.5 * k_exact(0.05), abs=1e-12)
    assert h_profile(0.05) == pytest.approx(0.5 * np.exp(-20.0) / 0.05, rel=1e-3)


def test_profile_is_nan_at_nan():
    assert np.isnan(h_profile(np.nan)) and np.isnan(h_over_r2(np.nan))
    h = h_profile(np.array([0.5, np.nan, 2.0]))
    assert h[0] == h_profile(0.5) and np.isnan(h[1]) and h[2] == 0.0
    assert h_profile(np.inf) == 0.0 and h_profile(-np.inf) == 0.0
    point = np.array([np.nan, 0.0, 0.1])
    for chart in ("cylindrical", "cartesian"):
        field = example_metric(chart)
        assert np.isnan(field.evaluate(point)[0, 0]), chart
        # the closed-form jet reads NaN as NaN, not as off the support
        g, dg, d2g = field.analytic_jet(point)
        assert np.isnan(g[0, 0]) and np.isnan(dg).any() and np.isnan(d2g).any()
        with pytest.raises(DegenerateMetricError):
            curvature(field, point)


@pytest.mark.parametrize(
    "point", [[np.inf, np.nan, 0.1], [np.nan, np.inf, 0.1], [np.inf, 0.0, 0.1]], ids=str
)
def test_cartesian_jet_is_nan_where_x_or_y_is_not_finite(point):
    # hypot(inf, nan) is inf, which lies off the profile's support; the
    # jet must still read the point as NaN, as evaluate does
    field = example_metric("cartesian")
    point = np.array(point)
    with np.errstate(invalid="ignore"):
        assert np.isnan(field.evaluate(point)[0, 0])
    g, dg, d2g = field.analytic_jet(point)
    assert np.isnan(g[0, 0]) and np.isnan(dg).any() and np.isnan(d2g).any()
    with pytest.raises(DegenerateMetricError):
        curvature(field, point)


def test_profile_keeps_the_masked_forms_bits_at_finite_radii():
    # h = -k chi / 2 on (1e-3, 1.5) and +0 elsewhere, signed zeros included
    r = np.concatenate(
        [[0.0, -0.0, 5e-324, 1e-3, 1.5, -1e300, 1e300], np.linspace(-1.0, 2.0, 3001)]
    )
    support = (r > 1e-3) & (r < CHI_OUTER)
    t = np.where(support, r, 1.0)
    h = -0.5 * k_exact(t) * cutoff_chi(t)
    expected = np.where(support, h, 0.0)
    assert h_profile(r).tobytes() == expected.tobytes()
    assert h_over_r2(r).tobytes() == (expected / (t * t)).tobytes()


def test_profile_and_its_jet_round_alike():
    # h_profile and the one-radius jet share one formula and one exp, so
    # they agree bit for bit wherever the cutoff is exactly 1
    r = np.linspace(_R_FLAT, CHI_INNER, 30001)[1:]
    jet = np.array([_h_jet(x)[0] for x in r.tolist()])
    assert jet.tobytes() == h_profile(r).tobytes()
    assert k_exact(r).tobytes() == np.array([k_exact(x) for x in r.tolist()]).tobytes()


def test_h_extends_flat_through_zero():
    # finite-difference derivatives of h at r = 0 up to order 4 vanish,
    # and halving the step crushes them (faster than any fixed order)
    offsets = np.arange(-4, 5)
    stencils = {
        1: [0, 0, 0, -0.5, 0, 0.5, 0, 0, 0],
        2: [0, 0, 0, 1, -2, 1, 0, 0, 0],
        3: [0, 0, -0.5, 1, 0, -1, 0.5, 0, 0],
        4: [0, 0, 1, -4, 6, -4, 1, 0, 0],
    }

    def derivs(step):
        vals = h_profile(offsets * step)
        return {o: abs(np.dot(w, vals)) / step**o for o, w in stencils.items()}

    fine = derivs(0.01)
    coarse = derivs(0.02)
    for order, value in fine.items():
        assert value < 1e-10, f"order {order} derivative not flat"
        assert value < coarse[order] / 100.0  # much faster than any power
    # h, h/r^2, h^2 all continuous by zero through r = 0
    tiny = np.array([1e-3, 1e-2, 0.05])
    assert np.all(np.abs(h_profile(tiny)) < 1e-7)
    assert np.all(np.abs(h_over_r2(tiny)) < 1e-4)
    assert np.all(h_profile(tiny) ** 2 < 1e-14)


# ---------------------------------------------------------------------------
# the tensor M
# ---------------------------------------------------------------------------


def test_m_tensor_trace_free_and_bounded():
    field = flat_polar_metric()
    for r in (0.1, 0.6, 1.0):
        M = m_covariant(r, 2)
        ginv = field.inverse(np.array([r, 0.0]))
        assert abs(np.einsum("ab,ab->", ginv, M)) < 1e-15
        assert np.max(np.abs(M)) == r  # bounded coordinate components


# ---------------------------------------------------------------------------
# the spiral curve
# ---------------------------------------------------------------------------


def test_spiral_kinematics_values():
    # phi' = -e^(1/t)/t^2; at t = 1 the acceleration's derivative is
    # (phi'^2 (1 + 2 t u1), -phi' (2/t^2 - u1^2 + u2)) = (5 e^2, -5 e)
    np.testing.assert_allclose(
        spiral_velocity(0.1, 2), [1.0, -100 * np.exp(10.0)], rtol=1e-13
    )
    np.testing.assert_allclose(
        spiral_acceleration_dot(1.0, 2), [5 * E**2, -5 * E], rtol=1e-14
    )


def test_spiral_velocity_finite_at_small_t():
    # phi' = -1/(t q) with q = t e^(-1/t) stays finite at t = 0.01, where
    # the rate e^(1/t)/t^2 is ~2.7e47, and its log is 1/t - 2 ln t
    rate = -spiral_velocity(0.01, 2)[1]
    assert np.isfinite(rate)
    assert np.log(rate) == pytest.approx(100.0 - 2.0 * np.log(0.01), rel=1e-12)


def test_spiral_kinematics_derivative_consistency():
    # 4th-order stencils on the position and on b are the oracles for
    # the velocity and for the plain derivative of b
    for t in (0.4, 0.8, 1.3):
        h = 1e-5

        def stencil(fn):
            return (
                fn(t - 2 * h, 2) - 8 * fn(t - h, 2) + 8 * fn(t + h, 2) - fn(t + 2 * h, 2)
            ) / (12 * h)

        np.testing.assert_allclose(spiral_velocity(t, 2), stencil(spiral_point), rtol=1e-9)
        np.testing.assert_allclose(
            spiral_acceleration_dot(t, 2), stencil(spiral_acceleration), rtol=1e-8
        )


def test_spiral_point_and_velocity_values():
    np.testing.assert_allclose(spiral_point(1.0), [1.0, E, 0.0], rtol=1e-15)
    np.testing.assert_allclose(spiral_velocity(1.0), [1.0, -E, 0.0], rtol=1e-15)
    # radius equals parameter, angle decreases as t grows
    ts = np.linspace(0.2, 1.0, 9)
    phis = [spiral_point(t)[1] for t in ts]
    assert np.all(np.diff(phis) < 0.0)


def test_spiral_acceleration_is_covariant_acceleration():
    # Oracle: b = dv/dt + Gamma(v, v) with dv/dt from a 4th-order
    # stencil on the velocity and the flat polar connection.
    from confgeo import christoffel

    field = flat_polar_metric()
    for t in (0.4, 0.7, 1.0):
        h = 1e-6
        vdot = (
            spiral_velocity(t - 2 * h, 2)
            - 8 * spiral_velocity(t - h, 2)
            + 8 * spiral_velocity(t + h, 2)
            - spiral_velocity(t + 2 * h, 2)
        ) / (12 * h)
        gam = christoffel(field, spiral_point(t, 2))
        v = spiral_velocity(t, 2)
        oracle = vdot + np.einsum("mab,a,b->m", gam, v, v)
        np.testing.assert_allclose(spiral_acceleration(t, 2), oracle, rtol=1e-8)


def test_spiral_frame_components():
    # In the orthonormal polar frame (b^r, r b^phi) = (-t f^2, -(t f' + 2 f)).
    # At t = r = 1 (f = e, f' = -3e) the frame components equal the
    # coordinate ones and are (-e^2, e).
    np.testing.assert_allclose(spiral_acceleration(1.0, 2), [-E**2, E], rtol=1e-13)


def test_f_requires_positive_argument():
    # The curve lives on t > 0: its state and its forcing scalar refuse
    # t = 0 and t < 0, as scalars and as array entries.
    for t in (0.0, -1.0):
        with pytest.raises(ValueError):
            spiral_state(t)
        with pytest.raises(ValueError):
            k_exact(t)
        with pytest.raises(ValueError):
            k_exact([0.5, t])


def test_spiral_state_domain():
    for t in (0.0, -1.0, 1.2, np.nan):
        with pytest.raises(ValueError):
            spiral_state(t)
    st = spiral_state(0.5)
    assert st.x.shape == (3,)
    assert st.v[2] == 0.0 and st.b[2] == 0.0


# ---------------------------------------------------------------------------
# the example metric
# ---------------------------------------------------------------------------


def test_example_metric_flat_on_plane():
    cyl = example_metric("cylindrical")
    for r in (0.3, 0.8, 1.4, 3.0):
        g = cyl(np.array([r, 0.7, 0.0]))
        np.testing.assert_allclose(g, np.diag([1.0, r * r, 1.0]), atol=1e-16)
    cart = example_metric("cartesian")
    pts = np.array([[0.0, 0.0, 0.0], [0.4, -0.3, 0.0], [2.0, 1.0, 0.0]])
    np.testing.assert_allclose(
        cart(pts), np.broadcast_to(np.eye(3), (3, 3, 3)), atol=1e-16
    )


def test_example_metric_cross_term_value():
    g = example_metric("cylindrical")(np.array([0.5, 0.0, 0.1]))
    expected = 2.0 * h_profile(0.5) * 0.1**2 * 0.5
    assert g[0, 1] == pytest.approx(expected, rel=1e-14)
    assert g[0, 0] == pytest.approx(1.0 + (h_profile(0.5) * 0.01) ** 2, rel=1e-14)


def test_example_metric_rejects_axis_in_cylindrical_chart():
    cyl = example_metric("cylindrical")
    with pytest.raises(ChartSingularityError, match=r"point \[0\. 0\. 0\.\]"):
        curvature(cyl, np.array([0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        example_metric("bogus")


def test_chart_consistency_under_jacobian_transform():
    # Oracle: push the cylindrical components through the coordinate
    # Jacobian and compare with the direct cartesian evaluation.
    cyl = example_metric("cylindrical")
    cart = example_metric("cartesian")
    rng = np.random.default_rng(10)
    pts = rng.uniform(-2.0, 2.0, size=(200, 3))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 1e-3]
    for x, y, z in pts:
        r = np.hypot(x, y)
        phi = np.arctan2(y, x)
        g_cyl = cyl(np.array([r, phi, z]))
        J = np.array(
            [
                [x / r, y / r, 0.0],
                [-y / r**2, x / r**2, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        transformed = J.T @ g_cyl @ J
        np.testing.assert_allclose(
            transformed, cart(np.array([x, y, z])), atol=1e-12
        )


def test_example_metric_eigenvalue_structure():
    # Sum-of-squares frame decomposition predicts the eigenvalues
    # {(1 - h z^2)^2, (1 + h z^2)^2, 1} in the cartesian chart; the
    # metric is positive definite exactly where |h z^2| != 1.
    cart = example_metric("cartesian")
    rng = np.random.default_rng(11)
    pts = rng.uniform(-2.0, 2.0, size=(300, 3))
    a = h_profile(np.hypot(pts[:, 0], pts[:, 1])) * pts[:, 2] ** 2
    expected = np.sort(
        np.stack([(1.0 - a) ** 2, (1.0 + a) ** 2, np.ones_like(a)], axis=1), axis=1
    )
    eigs = np.linalg.eigvalsh(cart(pts))
    np.testing.assert_allclose(eigs, expected, atol=1e-12)
    assert eigs.min() > 0.0


def test_example_metric_smooth_across_axis():
    # Components approach the flat values as r -> 0 in the cartesian
    # chart because h/r^2 and h^2 extend smoothly by zero; the deviation
    # collapses faster than any power of the radius.
    cart = example_metric("cartesian")
    z = 1.5
    devs = []
    for radius in (2e-1, 1e-1, 5e-2, 1e-2, 0.0):
        worst = 0.0
        for direction in (np.array([1.0, 0.0]), np.array([0.6, 0.8])):
            p = np.array([radius * direction[0], radius * direction[1], z])
            g = cart(p)
            assert np.all(np.isfinite(g))
            np.testing.assert_allclose(g, g.T, atol=0.0)
            worst = max(worst, np.max(np.abs(g - np.eye(3))))
        devs.append(worst)
    assert devs[-1] == 0.0  # exactly flat on the axis itself
    assert devs[-2] < 1e-30  # and from far inside the flat zone
    assert all(devs[i + 1] < devs[i] for i in range(3))


def test_example_metric_derivatives_continuous_across_axis():
    # Grid refinement: stencil derivatives of the cartesian components
    # up to third order stay bounded and converge to the axis values as
    # the evaluation point approaches x = y = 0.  The closed-form partials
    # are stripped so that the step of 1e-3 is the one in use.
    import dataclasses

    from confgeo.curvature import _metric_jets

    cart = dataclasses.replace(example_metric("cartesian"), analytic_jet=None)
    z = 1.2

    def jet_at(radius):
        p = np.array([radius * 0.6, radius * 0.8, z])
        _, dg, d2g = _metric_jets(cart, p, step=1e-3)
        # third order probed by differencing second derivatives
        shift = p.copy()
        shift[0] += 1e-3
        _, _, d2g_shift = _metric_jets(cart, shift, step=1e-3)
        d3 = (d2g_shift - d2g) / 1e-3
        return np.concatenate([dg.ravel(), d2g.ravel(), d3.ravel()])

    axis = jet_at(0.0)
    assert np.all(np.isfinite(axis))
    deviations = [np.max(np.abs(jet_at(r) - axis)) for r in (0.08, 0.05, 0.02)]
    assert all(np.isfinite(d) for d in deviations)
    assert deviations[2] < deviations[1] < deviations[0]
    assert deviations[2] < 1e-8


def test_spiral_state_solves_unparametrized_equation_in_3d_metric():
    # The whole point of the construction: with L from the curvature of
    # the example metric, the curve satisfies the unparametrized wedge
    # equation to rounding accuracy.
    from confgeo import spiral_acceleration_dot, unparam_residual
    from confgeo.dynamics import unparam_residual_scale

    field = example_metric("cylindrical")
    for t in (0.3, 0.65, 1.0):
        st = spiral_state(t)
        db = spiral_acceleration_dot(t)
        res = unparam_residual(field, st, db)
        scale = unparam_residual_scale(field, st, db)
        assert res.max_abs() / scale < 1e-8
