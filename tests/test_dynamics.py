"""Right-hand sides, residuals, the integrator, arc length, spiral detection."""
import dataclasses
import logging
import re

import numpy as np
import pytest

from confgeo import (
    ConfgeoError,
    GeodesicState,
    ImmersionError,
    Trajectory,
    UnparamState,
    arc_length,
    circle_state,
    curvature,
    detect_spiral,
    euclidean_metric,
    example_metric,
    flat_cylindrical_metric,
    flat_polar_metric,
    from_unparametrized,
    integrate,
    propertime_rhs,
    spiral_point,
    spiral_state,
    spiral_velocity,
    unparam_residual,
    wedge_form_residual,
)
from confgeo import MetricField, dynamics
from confgeo.dynamics import unparam_residual_scale
from confgeo.verify import RandomMetricSpec, random_gauge_state, spiral_tracking_run

FLAT3 = euclidean_metric(3)


# ---------------------------------------------------------------------------
# proper-time right-hand side
# ---------------------------------------------------------------------------


def test_rhs_flat_straight_line():
    st = GeodesicState(x=np.zeros(3), u=np.array([1.0, 0.0, 0.0]), a=np.zeros(3))
    dx, du, da = propertime_rhs(FLAT3, st)
    np.testing.assert_allclose(dx, st.u)
    np.testing.assert_allclose(du, 0.0, atol=1e-15)
    np.testing.assert_allclose(da, 0.0, atol=1e-15)


def test_rhs_flat_circle_rotates_acceleration():
    # centripetal data: da = -|a|^2 u, which keeps a pointing at the center
    radius = 2.0
    st = circle_state(radius)
    dx, du, da = propertime_rhs(FLAT3, st)
    np.testing.assert_allclose(du, st.a, atol=1e-15)
    np.testing.assert_allclose(da, -(1.0 / radius**2) * st.u, atol=1e-13)


def test_rhs_spiral_state_stays_planar():
    # z-symmetry of the example metric forces the z = 0 plane to be
    # invariant: every z-component of the right-hand side vanishes.
    field = example_metric("cylindrical")
    st = from_unparametrized(field, spiral_state(0.8))
    dx, du, da = propertime_rhs(field, st, curvature_step=1e-2)
    assert abs(dx[2]) == 0.0
    assert abs(du[2]) < 1e-12
    assert abs(da[2]) < 1e-12


@pytest.mark.parametrize(
    "call",
    [
        lambda fld, x, u, a: propertime_rhs(fld, GeodesicState(x, u, a)),
        lambda fld, x, u, a: wedge_form_residual(
            fld, GeodesicState(x, u, a), np.zeros(2)
        ),
        lambda fld, x, u, a: unparam_residual(
            fld, UnparamState(x, u, a), np.zeros(2)
        ),
    ],
    ids=["propertime_rhs", "wedge_form_residual", "unparam_residual"],
)
def test_rhs_needs_schouten_in_dimension_two(call):
    field = flat_polar_metric()
    x, u, a = np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])
    with pytest.raises(ConfgeoError, match="Schouten tensor undefined in dimension 2"):
        call(field, x, u, a)


def _rhs_cases():
    rng = np.random.default_rng(6)
    yield FLAT3, random_gauge_state(FLAT3, rng)
    for chart in ("cylindrical", "cartesian"):
        field = example_metric(chart)
        yield field, from_unparametrized(field, spiral_state(0.7))
    for seed in (1, 2):
        field = RandomMetricSpec(seed=seed).build()
        yield field, random_gauge_state(field, rng)


@pytest.mark.parametrize(
    "field,state", list(_rhs_cases()), ids=lambda v: getattr(v, "name", "")
)
def test_rhs_with_given_bundle_is_bit_identical(field, state):
    bundle = curvature(field, state.x)
    plain = propertime_rhs(field, state)
    given = propertime_rhs(field, state, bundle=bundle)
    for p, q in zip(plain, given):
        assert np.array_equal(p, q)
    # the residuals take the caller's bundle the same way
    da = plain[2] + 0.1 * state.u
    ust = UnparamState(state.x, 1.7 * state.u, state.a)
    for residual, st, d in (
        (wedge_form_residual, state, da),
        (unparam_residual, ust, da),
    ):
        p, q = residual(field, st, d), residual(field, st, d, bundle=bundle)
        assert np.array_equal(p.components, q.components)
    assert unparam_residual_scale(field, ust, da) == unparam_residual_scale(
        field, ust, da, bundle=bundle
    )


def _bundle_takers():
    """Each function that takes a caller's bundle, called at a state."""
    zeros = np.zeros(3)
    yield lambda st, **kw: propertime_rhs(FLAT3, st, **kw)
    yield lambda st, **kw: wedge_form_residual(FLAT3, st, zeros, **kw)
    for residual in (unparam_residual, unparam_residual_scale):
        yield lambda st, residual=residual, **kw: residual(
            FLAT3, UnparamState(st.x, st.u, st.a), zeros, **kw
        )


def test_rhs_rejects_a_bundle_at_another_point():
    st = circle_state(1.0)
    elsewhere = curvature(FLAT3, st.x + np.array([0.0, 0.0, 1e-12]))
    for call in _bundle_takers():
        with pytest.raises(ValueError, match="not at the state's point"):
            call(st, bundle=elsewhere)


def _counting(monkeypatch):
    """The list that grows by one at each MetricField.__call__."""
    calls = []
    original = MetricField.__call__

    def counted(self, points):
        calls.append(1)
        return original(self, points)

    monkeypatch.setattr(MetricField, "__call__", counted)
    return calls


def test_metric_evaluation_counts(monkeypatch):
    # curvature() on an analytic metric takes g beside the partials from
    # its jet and makes no MetricField.__call__; the FD stencil is one
    # batched call.  The flat metrics' jets still evaluate g, through the
    # evaluate function they close over, which that count does not see.
    calls = _counting(monkeypatch)
    evaluations = []

    def counted(field):
        def evaluate(points):
            evaluations.append(1)
            return field.evaluate(points)

        return dataclasses.replace(field, evaluate=evaluate)

    x3 = np.array([0.5, 0.3, 0.2])
    cases = [
        (example_metric("cylindrical"), x3),
        (example_metric("cartesian"), x3),
        (FLAT3, x3),
        (flat_cylindrical_metric(), x3),
        (flat_polar_metric(), np.array([0.5, 0.3])),
    ]
    for field, x in cases:
        curvature(field, x)
        assert not calls, field.name
        curvature(dataclasses.replace(field, analytic_jet=None), x)
        assert len(calls) == 1, field.name
        calls.clear()
    # The example charts' jets build g from h, h', h'' and call no
    # evaluate function at all.
    for field in (example_metric("cylindrical"), example_metric("cartesian")):
        curvature(counted(field), x3)
        assert not evaluations, field.name
        curvature(counted(dataclasses.replace(field, analytic_jet=None)), x3)
        assert len(evaluations) == 1, field.name
        evaluations.clear()
    calls.clear()
    # integrate: one MetricField.__call__, for the initial state's g (its
    # gauge check and diagnostics); every later g comes from a curvature
    # bundle, one per RHS except at the FSAL refreshes.
    curvatures = []
    original = dynamics.curvature

    def counted_curvature(*args, **kwargs):
        curvatures.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, "curvature", counted_curvature)
    traj = integrate(FLAT3, circle_state(1.0), (0.0, 2.0))
    assert traj.status == "ok" and len(calls) == 1
    # every step's renormalisation moved the state, and the one at the
    # end of s_span needs no refresh
    assert np.all(traj.projection[1:] > 0.0)
    assert _refreshes(traj) == len(traj) - 2 > 0
    assert len(curvatures) == traj.rhs_evaluations - _refreshes(traj)


def _refreshes(traj):
    """FSAL refreshes of an integration: accepted steps whose
    renormalisation moved the state, except the last one when the run
    ended by its stop condition or at the end of s_span (integrate
    computes no refresh after either)."""
    moved = traj.projection[1:] > 0.0
    ended = moved.size > 0 and moved[-1] and traj.status in ("stopped", "ok")
    return int(np.count_nonzero(moved)) - int(ended)


def test_one_curvature_per_distinct_point(monkeypatch):
    points, bundles = [], []
    original = dynamics.curvature

    def counting(field, point, *args, **kwargs):
        points.append(np.asarray(point, float).tobytes())
        bundles.append(original(field, point, *args, **kwargs))
        return bundles[-1]

    monkeypatch.setattr(dynamics, "curvature", counting)
    traj, track_err, _ = spiral_tracking_run(t0=0.8, t_end=0.3)
    assert len(set(points)) == len(points)
    assert (len(traj), traj.rhs_evaluations, _refreshes(traj)) == (77, 988, 75)
    assert len(points) == 988 - 75
    # the RHS needs Ricci only: no Riemann tensor is ever built
    built = [b for b in bundles if {"riemann", "riemann_lowered"} & vars(b).keys()]
    assert built == []
    # the trajectory to rounding; abs=0 because approx's default absolute
    # tolerance, 1e-12, is 1e-3 of this value
    assert track_err == pytest.approx(1.0392661619379063e-09, rel=1e-9, abs=0.0)


def test_stats_count_one_rhs_per_stage_plus_the_refreshes():
    # DOP853: one RHS for the first stage, then 11 stages and the RHS at
    # y_new per attempt, accepted or rejected, plus the FSAL refreshes;
    # only the refreshes reuse a bundle.
    field = flat_cylindrical_metric()
    spiral_data = from_unparametrized(field, spiral_state(0.8))
    traj = integrate(field, spiral_data, (0.0, -3.0))
    stats = traj.stats
    assert stats["domain_shrinks"] == 0 and stats["rejected"] >= 1
    attempts = stats["accepted"] + stats["rejected"]
    refreshes = _refreshes(traj)
    assert stats["rhs_evaluations"] == 1 + 12 * attempts + refreshes
    assert stats["curvature_evaluations"] == stats["rhs_evaluations"] - refreshes


def test_integrate_logs_one_summary(caplog):
    caplog.set_level(logging.INFO, logger="confgeo.dynamics")
    toward_axis = GeodesicState(
        np.array([0.5, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]), np.zeros(3)
    )
    runs = [
        (FLAT3, circle_state(1.0), "ok", False),
        (flat_cylindrical_metric(), toward_axis, "left_domain", True),
    ]
    for field, initial, status, shrinks in runs:
        caplog.clear()
        traj = integrate(field, initial, (0.0, 2.0))
        assert traj.status == status
        (record,) = [r for r in caplog.records if r.name == "confgeo.dynamics"]
        assert record.levelno == logging.INFO
        m = re.search(
            r"integrate (\S+): (\w+).*; (\d+) accepted, (\d+) rejected, (\d+) domain "
            r"shrinks, (\d+) RHS evaluations, accepted \|h\| in \[(\S+), (\S+)\]",
            record.getMessage(),
        )
        assert m is not None, record.getMessage()
        assert (m[1], m[2]) == (field.name, status)
        assert int(m[3]) == len(traj) - 1
        assert int(m[6]) == traj.rhs_evaluations
        assert (int(m[5]) > 0) == shrinks
        steps = np.abs(np.diff(traj.s))
        assert float(m[7]) == pytest.approx(steps.min(), rel=1e-2)
        assert float(m[8]) == pytest.approx(steps.max(), rel=1e-2)
        # appended after the |h| range
        curv = re.search(r"\], (\d+) curvature evaluations$", record.getMessage())
        assert curv is not None, record.getMessage()
        assert int(curv[1]) == traj.rhs_evaluations - _refreshes(traj)


def test_trajectory_stats_are_the_logged_summary(caplog):
    caplog.set_level(logging.INFO, logger="confgeo.dynamics")
    toward_axis = GeodesicState(
        np.array([0.5, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]), np.zeros(3)
    )
    spiral_data = from_unparametrized(flat_cylindrical_metric(), spiral_state(0.8))
    runs = [
        (FLAT3, circle_state(1.0), (0.0, 2.0), None),
        (flat_cylindrical_metric(), toward_axis, (0.0, 2.0), None),
        (flat_cylindrical_metric(), spiral_data, (0.0, -3.0), None),
        (FLAT3, circle_state(1.0), (0.0, 2.0), lambda st: st.s > 0.5),
        (FLAT3, circle_state(1.0), (0.0, 0.0), None),
        (FLAT3, circle_state(1.0), (1e17, 1e17 + 1e3), None),
        (FLAT3, circle_state(1.0), (0.0, 2.0), None, ("max_steps", 1)),
    ]
    seen = set()
    for field, initial, span, stop, *options in runs:
        caplog.clear()
        traj = integrate(field, initial, span, stop=stop, **dict(options))
        (record,) = [r for r in caplog.records if r.name == "confgeo.dynamics"]
        m = re.fullmatch(
            r"integrate \S+: (\w+)(?: \((.*)\))?; (\d+) accepted, (\d+) rejected, "
            r"(\d+) domain shrinks, (\d+) RHS evaluations, accepted \|h\| in "
            r"\[(\S+), (\S+)\], (\d+) curvature evaluations",
            record.getMessage(),
        )
        assert m is not None, record.getMessage()
        stats = traj.stats
        assert (stats["status"], stats["message"]) == (traj.status, traj.message)
        assert (m[1], m[2] or "") == (stats["status"], stats["message"])
        counts = ("accepted", "rejected", "domain_shrinks", "rhs_evaluations")
        assert [int(m[i]) for i in (3, 4, 5, 6)] == [stats[k] for k in counts]
        assert int(m[9]) == stats["curvature_evaluations"]
        assert stats["accepted"] == len(traj) - 1
        assert stats["rhs_evaluations"] == traj.rhs_evaluations
        assert stats["curvature_evaluations"] == traj.rhs_evaluations - _refreshes(traj)
        if stats["accepted"]:
            steps = np.abs(np.diff(traj.s))
            assert stats["h_min"] == pytest.approx(steps.min(), rel=1e-12)
            assert stats["h_max"] == pytest.approx(steps.max(), rel=1e-12)
            assert (float(m[7]), float(m[8])) == pytest.approx(
                (stats["h_min"], stats["h_max"]), rel=1e-2
            )
        else:
            assert (stats["h_min"], stats["h_max"]) == (None, None)
            assert (m[7], m[8]) == ("nan", "nan")
        seen.add(stats["status"])
        if stats["rejected"]:
            seen.add("rejected")
        if stats["domain_shrinks"]:
            seen.add("shrinks")
    assert seen == {
        "ok",
        "left_domain",
        "stopped",
        "rejected",
        "shrinks",
        "step_underflow",
        "max_steps",
    }


def test_integrate_logs_each_rejection_and_shrink_at_debug(caplog):
    caplog.set_level(logging.DEBUG, logger="confgeo.dynamics")
    field = flat_cylindrical_metric()
    toward_axis = GeodesicState(
        np.array([0.5, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]), np.zeros(3)
    )
    spiral_data = from_unparametrized(field, spiral_state(0.8))
    seen = {"rejected": 0, "shrinks": 0}
    for initial, s_end in ((toward_axis, 2.0), (spiral_data, -3.0)):
        caplog.clear()
        traj = integrate(field, initial, (0.0, s_end))
        records = [r for r in caplog.records if r.name == "confgeo.dynamics"]
        (summary,) = [r for r in records if r.levelno == logging.INFO]
        m = re.search(r"(\d+) rejected, (\d+) domain shrinks", summary.getMessage())
        debug = [r.getMessage() for r in records if r.levelno == logging.DEBUG]
        assert len(debug) == len(records) - 1
        shrinks = [d for d in debug if d.startswith("domain shrink at ")]
        rejected = [d for d in debug if d.startswith("rejected step at ")]
        assert len(shrinks) + len(rejected) == len(debug)
        assert (len(rejected), len(shrinks)) == (int(m[1]), int(m[2]))
        for msg in shrinks:
            assert re.fullmatch(r"domain shrink at s=\S+, h=\S+: .+", msg), msg
        for msg in rejected:
            assert re.fullmatch(r"rejected step at s=\S+, h=\S+: err=\S+", msg), msg
        if traj.status == "left_domain":
            # the last shrink is the one whose step underflowed
            assert shrinks[-1].endswith(traj.message)
        seen["rejected"] += len(rejected)
        seen["shrinks"] += len(shrinks)
    assert seen["rejected"] > 0 and seen["shrinks"] > 0


# ---------------------------------------------------------------------------
# wedge-form residual
# ---------------------------------------------------------------------------


def test_wedge_residual_vanishes_on_rhs_output():
    rng = np.random.default_rng(2)
    for seed in (1, 2, 3):
        field = RandomMetricSpec(seed=seed).build()
        st = random_gauge_state(field, rng)
        _, _, da = propertime_rhs(field, st)
        assert wedge_form_residual(field, st, da).norm(field(st.x)) < 1e-10


def test_wedge_residual_blind_to_tangential_changes_only():
    # The wedge form determines da up to its component along u: adding
    # c u leaves the residual at zero, while any orthogonal deviation is
    # detected.  (A zero candidate da is tangentially equivalent to the
    # true one in flat space, so pointwise it passes the wedge test even
    # though it breaks the gauge transport; the direct comparison with
    # the right-hand side is what flags it.)
    st = circle_state(1.0)
    _, _, da = propertime_rhs(FLAT3, st)
    assert wedge_form_residual(FLAT3, st, da + 0.37 * st.u).norm(FLAT3(st.x)) < 1e-14
    assert wedge_form_residual(FLAT3, st, np.zeros(3)).norm(FLAT3(st.x)) < 1e-14
    assert np.max(np.abs(np.zeros(3) - da)) == pytest.approx(1.0)  # |a|^2 |u|
    w = np.array([0.0, 0.0, 1.0])
    assert wedge_form_residual(FLAT3, st, da + 1e-3 * w).norm(FLAT3(st.x)) > 1e-4


def test_wedge_residual_matches_bivector_transport_route():
    # Independent assembly of the same residual through the exported
    # transport operation instead of the inlined connection terms.
    from confgeo import bivector_covariant_derivative, christoffel, curvature, wedge

    field = RandomMetricSpec(seed=13).build()
    rng = np.random.default_rng(13)
    st = random_gauge_state(field, rng)
    _, _, da = propertime_rhs(field, st)
    da_probe = da + 0.05 * rng.standard_normal(3)  # need not solve anything

    gamma = christoffel(field, st.x)
    u_dot = st.a - np.einsum("mab,a,b->m", gamma, st.u, st.u)
    B = wedge(st.u, st.a, st.x)
    dB = (np.outer(u_dot, st.a) + np.outer(st.u, da_probe)) - (
        np.outer(st.a, u_dot) + np.outer(da_probe, st.u)
    )
    cov = bivector_covariant_derivative(field, st.x, st.u, B, dB)
    bundle = curvature(field, st.x)
    l_hat_u = bundle.inverse_metric @ bundle.schouten @ st.u
    oracle = cov.components - (np.outer(st.u, l_hat_u) - np.outer(l_hat_u, st.u))

    res = wedge_form_residual(field, st, da_probe)
    np.testing.assert_allclose(res.components, oracle, atol=1e-13)


def test_wedge_residual_grows_linearly_with_orthogonal_perturbation():
    # Oracle: the residual is bilinear, so perturbing da by eps*w adds
    # exactly eps * (u ^ w).
    from confgeo import wedge

    field = RandomMetricSpec(seed=9).build()
    rng = np.random.default_rng(9)
    st = random_gauge_state(field, rng)
    _, _, da = propertime_rhs(field, st)
    g = field(st.x)
    w = rng.standard_normal(3)
    w -= (w @ g @ st.u) * st.u
    slope = wedge(st.u, w, st.x).norm(field(st.x))
    for eps in (1e-4, 1e-3, 1e-2):
        res = wedge_form_residual(field, st, da + eps * w).norm(field(st.x))
        assert res == pytest.approx(eps * slope, rel=1e-6)


# ---------------------------------------------------------------------------
# unparametrized residual and gauge conversion
# ---------------------------------------------------------------------------


def test_unparam_residual_on_propertime_data():
    rng = np.random.default_rng(5)
    for seed in (4, 5):
        field = RandomMetricSpec(seed=seed).build()
        st = random_gauge_state(field, rng)
        _, _, da = propertime_rhs(field, st)
        ust = UnparamState(x=st.x, v=st.u, b=st.a, t=0.0)
        assert unparam_residual(field, ust, da).norm(field(ust.x)) < 1e-10


def test_unparam_residual_invariant_under_constant_rescaling():
    field = RandomMetricSpec(seed=6).build()
    rng = np.random.default_rng(6)
    st = random_gauge_state(field, rng)
    _, _, da = propertime_rhs(field, st)
    for c in (0.25, 3.0):
        ust = UnparamState(x=st.x, v=c * st.u, b=c * c * st.a, t=0.0)
        res = unparam_residual(field, ust, c**3 * da).norm(field(ust.x))
        assert res < 1e-10


def test_unparam_residual_requires_immersion():
    # |v|^2 > 0 fails for v = 0 and for a NaN |v|^2 alike: the residual and
    # its scale raise the same ImmersionError, with no NaN result and no
    # numpy warning
    for v in (np.zeros(3), np.array([np.nan, 1.0, 0.0])):
        ust = UnparamState(x=np.zeros(3), v=v, b=np.ones(3), t=0.0)
        errors = []
        for residual in (unparam_residual, unparam_residual_scale):
            with pytest.raises(ImmersionError, match="not immersed") as raised:
                residual(FLAT3, ust, np.zeros(3))
            errors.append(str(raised.value))
        assert errors[0] == errors[1], v


def test_from_unparametrized_identity_and_tangential_cleanup():
    field = FLAT3
    u = np.array([0.0, 1.0, 0.0])
    a = np.array([0.5, 0.0, 0.0])
    # already proper-time data
    st = from_unparametrized(field, UnparamState(np.zeros(3), u, a))
    np.testing.assert_allclose(st.u, u)
    np.testing.assert_allclose(st.a, a)
    # v = 2u, b = 4a + c v returns (u, a) for any c
    for c in (-2.0, 0.0, 5.0):
        st = from_unparametrized(
            field, UnparamState(np.zeros(3), 2.0 * u, 4.0 * a + c * 2.0 * u)
        )
        np.testing.assert_allclose(st.u, u, atol=1e-15)
        np.testing.assert_allclose(st.a, a, atol=1e-14)


def test_from_unparametrized_spiral_closed_form():
    # Oracle: closed-form evaluation at t = 1 where v = (1, -e, 0) and
    # b = (-e^2, e, 0) in flat polar coordinates at r = 1.
    field = example_metric("cylindrical")
    st = spiral_state(1.0)
    e = np.e
    np.testing.assert_allclose(st.v, [1.0, -e, 0.0], rtol=1e-14)
    np.testing.assert_allclose(st.b, [-e * e, e, 0.0], rtol=1e-13)
    speed = np.sqrt(1.0 + e * e)
    assert speed == pytest.approx(2.8964, abs=1e-4)
    geo = from_unparametrized(field, st)
    np.testing.assert_allclose(geo.u, st.v / speed, rtol=1e-14)
    g = field(st.x)
    vb = float(st.v @ g @ st.b)
    a_oracle = (st.b - vb / speed**2 * st.v) / speed**2
    np.testing.assert_allclose(geo.a, a_oracle, rtol=1e-13)
    assert max(geo.gauge_residuals(g)) <= 1e-12
    np.testing.assert_array_equal(geo.require_gauge(field), g)


def test_from_unparametrized_rejects_zero_velocity():
    with pytest.raises(ImmersionError):
        from_unparametrized(FLAT3, UnparamState(np.zeros(3), np.zeros(3), np.ones(3)))


def test_from_unparametrized_rejects_a_velocity_that_is_not_finite():
    # |v|^2 is NaN, which is not <= 0 either; it must not become a NaN state
    v = np.array([np.nan, 0.0, 0.0])
    with pytest.raises(ImmersionError, match="nan"):
        from_unparametrized(FLAT3, UnparamState(np.zeros(3), v, np.ones(3)))


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"tol": 0.0}, "tol"),
        ({"tol": -1.0}, "tol"),
        ({"tol": float("nan")}, "tol"),
        ({"tol": float("inf")}, "tol"),
        ({"max_steps": 0}, "max_steps"),
        ({"curvature_step": 0.0}, "curvature_step"),
        ({"curvature_step": float("nan")}, "curvature_step"),
        ({"curvature_step": float("inf")}, "curvature_step"),
    ],
    ids=[
        "tol=0",
        "tol=-1",
        "tol=nan",
        "tol=inf",
        "max_steps=0",
        "curvature_step=0",
        "curvature_step=nan",
        "curvature_step=inf",
    ],
)
def test_integrate_rejects_invalid_settings_by_name(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        integrate(FLAT3, circle_state(1.0), (0.0, 1.0), **kwargs)


@pytest.mark.parametrize(
    "s_span",
    [(0.0, np.nan), (np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0)],
    ids=["s1=nan", "s0=nan", "s0=inf", "s0=-inf"],
)
def test_integrate_rejects_a_span_that_is_not_a_number(s_span):
    # a NaN end would return status "ok" with one sample, having
    # integrated nothing; an infinite end stays legal (the spiral run
    # integrates toward -inf)
    with pytest.raises(ValueError, match="^s_span must"):
        integrate(FLAT3, circle_state(1.0), s_span)


def test_dop853_tableau_is_consistent():
    # Each stage's row sums to its node, the 8th-order weights integrate
    # c^k exactly for k <= 7 (and not for k = 8), and both error weight
    # vectors sum to 0; a mistyped digit breaks one of these.
    A, B, C = dynamics._A, dynamics._B, dynamics._C
    eps = np.finfo(float).eps
    assert len(A) == C.size == B.size == dynamics._E3.size == dynamics._E5.size == 12
    for i, row in enumerate(A):
        assert row.size == i
        assert abs(row.sum() - C[i]) <= 4 * eps * np.abs(row).sum()
    for k in range(8):
        assert abs(B @ C**k - 1.0 / (k + 1)) <= 4 * eps * np.abs(B).sum()
    assert abs(B @ C**8 - 1.0 / 9) > 1e-6
    for weights in (dynamics._E3, dynamics._E5):
        assert abs(weights.sum()) <= 4 * eps * np.abs(weights).sum()


def test_the_dop853_stepper_is_of_order_8():
    # Fixed steps of y' = y over [0, 1]: halving h divides the error at
    # s = 1 by 2^8, up to the next order's term.
    def rhs(y, k, returned=None):
        k[:] = y

    errors = []
    for h in (0.5, 0.25):
        stepper = dynamics._DOP853(rhs, 1, 1e-8)
        y = np.ones(1)
        stepper.start(y)
        for _ in range(round(1.0 / h)):
            y, returned, _ = stepper.attempt(y, h)
            stepper.accept(y, returned, False)
        errors.append(abs(y[0] - np.e))
    assert 7.5 <= np.log2(errors[0] / errors[1]) <= 8.5


def test_integrate_straight_line_exact():
    st = GeodesicState(np.zeros(3), np.array([1.0, 0.0, 0.0]), np.zeros(3))
    traj = integrate(FLAT3, st, (0.0, 2.0), tol=1e-9)
    assert traj.status == "ok"
    np.testing.assert_allclose(traj.final_state.x, [2.0, 0.0, 0.0], atol=1e-12)
    assert np.all(np.diff(traj.s) > 0.0)
    assert np.all(np.diff(traj.arc_length) >= 0.0)
    # the arc length is the elapsed proper time
    np.testing.assert_array_equal(traj.arc_length, np.abs(traj.s - traj.s[0]))


@pytest.mark.parametrize("radius", [0.5, 1.0])
def test_integrate_circle_closes(radius):
    st = circle_state(radius)
    traj = integrate(FLAT3, st, (0.0, 2.0 * np.pi * radius), tol=1e-10)
    assert traj.status == "ok"
    assert np.linalg.norm(traj.final_state.x - st.x) < 1e-7
    radial = np.abs(np.linalg.norm(traj.positions()[:, :2], axis=1) - radius)
    assert radial.max() < 1e-7
    assert traj.arc_length[-1] == pytest.approx(2.0 * np.pi * radius, rel=1e-7)


@pytest.mark.parametrize("radius", [0.0, -1.0, np.inf, np.nan])
def test_circle_state_rejects_a_radius_that_is_not_positive(radius):
    with pytest.raises(ValueError, match="radius must be positive"):
        circle_state(radius)


def test_integrate_reversibility():
    tol = 1e-10
    st = circle_state(1.0)
    fwd = integrate(FLAT3, st, (0.0, 1.5), tol=tol)
    back = integrate(FLAT3, fwd.final_state, (fwd.s[-1], 0.0), tol=tol)
    end = back.final_state
    assert np.max(np.abs(end.x - st.x)) < 20 * tol
    assert np.max(np.abs(end.u - st.u)) < 20 * tol
    assert np.max(np.abs(end.a - st.a)) < 20 * tol


def test_integrate_backward_direction():
    st = circle_state(1.0)
    traj = integrate(FLAT3, st, (0.0, -1.0))
    assert traj.status == "ok"
    assert np.all(np.diff(traj.s) < 0.0)
    assert np.all(np.diff(traj.arc_length) > 0.0)  # length grows either way


def test_trajectory_states_are_rows_of_one_sample_array():
    st = circle_state(1.0)
    traj = integrate(FLAT3, st, (0.0, 1.5))
    n = FLAT3.dimension
    assert traj.y.shape == (len(traj), 3 * n)
    assert len(traj) == len(traj.s) == len(traj.states) > 2
    np.testing.assert_array_equal(traj.positions(), traj.y[:, :n])
    np.testing.assert_array_equal(traj.y[0], np.concatenate([st.x, st.u, st.a]))
    for i, state in [(0, traj.state(0)), (len(traj) - 1, traj.final_state)]:
        np.testing.assert_array_equal(
            np.concatenate([state.x, state.u, state.a]), traj.y[i]
        )
        assert state.s == traj.s[i]
    # the gauge error is that of the stored, renormalised row
    for i, state in enumerate(traj.states):
        assert traj.gauge_error[i] == max(state.gauge_residuals(FLAT3(state.x)))


def test_trajectory_outcome_is_read_from_stats():
    # test_trajectory_stats_are_the_logged_summary compares the values
    traj = integrate(FLAT3, circle_state(1.0), (0.0, 1.5))
    with pytest.raises(AttributeError):
        traj.status = "stopped"
    # a trajectory built without stats reads as a clean run
    blank = _fake_trajectory(np.zeros((2, 3)))
    assert (blank.status, blank.message, blank.rhs_evaluations) == ("ok", "", 0)


def test_gauge_preservation_without_renormalization():
    # The gauge quantities are conserved by the equation; any drift is
    # integrator error and must stay below 100x the tolerance.
    tol = 1e-9
    traj = integrate(
        FLAT3, circle_state(1.0), (0.0, 2.0 * np.pi), tol=tol, renormalize=False
    )
    assert traj.max_gauge_error < 100.0 * tol
    assert traj.max_projection == 0.0

    field = RandomMetricSpec(seed=3).build()
    st = random_gauge_state(field, np.random.default_rng(3))
    traj = integrate(field, st, (0.0, 0.5), tol=tol, renormalize=False)
    assert traj.status == "ok"
    assert traj.max_gauge_error < 100.0 * tol


def test_renormalization_logs_small_projections():
    traj = integrate(FLAT3, circle_state(1.0), (0.0, 2.0 * np.pi), tol=1e-10)
    assert traj.max_projection > 0.0
    assert traj.max_projection < 1e-6
    assert traj.max_gauge_error < 1e-9


def test_integrate_max_steps_diagnostic():
    traj = integrate(
        FLAT3, circle_state(1.0), (0.0, 2.0 * np.pi), tol=1e-10, max_steps=5
    )
    assert traj.status == "max_steps"
    assert len(traj) == 6  # initial sample plus five accepted steps


def test_integrate_step_underflow_diagnostic():
    # at s = 1e17 the first step, 5e-3, does not move s
    traj = integrate(FLAT3, circle_state(1.0), (1e17, 1e17 + 1e3))
    assert (traj.status, traj.message) == (
        "step_underflow",
        "step 5.000e-03 underflowed at s=1e+17",
    )
    assert (len(traj), traj.rhs_evaluations) == (1, 1)


def test_integrate_stop_condition():
    st = GeodesicState(np.zeros(3), np.array([1.0, 0.0, 0.0]), np.zeros(3))
    traj = integrate(FLAT3, st, (0.0, 10.0), stop=lambda s: s.x[0] >= 1.0)
    assert traj.status == "stopped"
    # the run ends at the first accepted state that meets the condition
    assert traj.final_state.x[0] >= 1.0
    assert np.all(traj.positions()[:-1, 0] < 1.0)


def test_integrate_marked_point_distance():
    traj = integrate(FLAT3, circle_state(1.0), (0.0, np.pi))
    distance = np.linalg.norm(traj.cartesian_positions(), axis=1)
    np.testing.assert_allclose(distance, 1.0, atol=1e-8)


def test_integrate_rejects_bad_gauge():
    bad = GeodesicState(np.zeros(3), np.array([2.0, 0.0, 0.0]), np.zeros(3))
    with pytest.raises(ConfgeoError):
        integrate(FLAT3, bad, (0.0, 1.0))


def test_integrate_rejects_a_gauge_residual_that_is_not_finite():
    # NaN residuals compare False against any bound; the state must be
    # refused at the gauge check, not integrated until the NaN reaches x
    # and leaves the metric's domain
    bad = GeodesicState(np.array([0.5, 0.0, 0.0]), np.array([np.nan, 0.0, 0.0]), np.zeros(3))
    with pytest.raises(ConfgeoError, match="proper-time gauge"):
        integrate(example_metric("cylindrical"), bad, (0.0, 1.0))


def test_integrate_refuses_a_point_that_is_not_finite():
    # the flat metric evaluates at a NaN point without complaint, so the
    # gauge check passes; the run used to return status "ok" with every
    # sample NaN
    bad = GeodesicState(x=(np.nan, 0.0, 0.0), u=(1.0, 0.0, 0.0), a=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="^initial x must be finite"):
        integrate(FLAT3, bad, (0.0, 1.0))


@pytest.mark.parametrize(
    "state, named",
    [
        (GeodesicState(x=(0.0, 0.0, 0.0), u=(1.0, 0.0, 0.0), a=0.0), "a"),
        (GeodesicState(x=(0.0, 0.0), u=(1.0, 0.0), a=(0.0, 0.0)), "x, u, a"),
    ],
)
def test_integrate_names_the_fields_of_a_misshapen_state(state, named):
    match = rf"^initial {named} must have shape \(3,\)"
    with pytest.raises(ValueError, match=match):
        integrate(FLAT3, state, (0.0, 1.0))


def test_a_step_with_a_nan_error_estimate_is_rejected():
    # The metric's first partials are NaN beyond x = 0.3, so a stage past
    # it makes NaN derivatives.  Where they reach only the error estimate
    # the step is rejected; where they reach a later stage's point,
    # curvature() refuses the NaN point and the step shrinks as at a
    # domain boundary.  The run ends at the boundary with finite samples,
    # not "ok" with NaNs.
    def jet(point):
        g, dg, d2g = FLAT3.analytic_jet(point)
        return g, (dg + np.nan if point[0] > 0.3 else dg), d2g

    field = dataclasses.replace(FLAT3, analytic_jet=jet)
    start = GeodesicState(np.zeros(3), np.array([1.0, 0.0, 0.0]), np.zeros(3))
    traj = integrate(field, start, (0.0, 1.0))
    assert traj.status == "left_domain" and "is not finite" in traj.message
    assert traj.stats["rejected"] > 0 and traj.stats["domain_shrinks"] > 0
    assert np.isfinite(traj.y).all()
    assert 0.3 - 1e-9 < traj.final_state.x[0] <= 0.3


def test_a_start_the_first_rhs_refuses_ends_the_run_there():
    # r = 5e-7 lies inside the cylindrical chart's singular locus (r < 1e-6),
    # so the first RHS, taken for the first-step guess, raises: the run
    # ends at its one sample with the chart's message, having taken no step.
    start = GeodesicState(
        np.array([5e-7, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), np.zeros(3)
    )
    traj = integrate(flat_cylindrical_metric(), start, (0.0, 1.0))
    assert traj.status == "left_domain" and len(traj) == 1
    assert traj.stats["rhs_evaluations"] == 1
    assert traj.stats["curvature_evaluations"] == 1
    assert traj.stats["accepted"] == traj.stats["rejected"] == 0
    assert "chart 'cylindrical'" in traj.message


def test_a_rejected_step_restarts_from_the_derivative_at_the_state():
    # Without renormalisation the first stage of the next attempt was a
    # view of the last stage row, which a rejected attempt overwrites with
    # the derivative at its rejected end point: the run then took 8
    # rejections and kept a gauge drift of 4e-7 here.
    field = example_metric("cylindrical")
    start = from_unparametrized(field, spiral_state(0.8))
    traj = integrate(field, start, (0.0, -10.0), tol=1e-8, renormalize=False)
    attempts = traj.stats["accepted"] + traj.stats["rejected"]
    assert traj.rhs_evaluations == 1 + 12 * attempts
    assert traj.stats["rejected"] <= 2
    assert traj.max_gauge_error < 1e-8


# ---------------------------------------------------------------------------
# arc length
# ---------------------------------------------------------------------------


def test_arc_length_unit_circle():
    res = arc_length(
        euclidean_metric(2),
        lambda t: np.stack([np.cos(t), np.sin(t)], axis=-1),
        (0.0, 2.0 * np.pi),
        tol=1e-10,
        velocity=lambda t: np.stack([-np.sin(t), np.cos(t)], axis=-1),
    )
    assert res.converged
    assert res.value == pytest.approx(2.0 * np.pi, abs=1e-8)


def test_arc_length_spiral_lower_bounds():
    field = flat_polar_metric()
    for t_low in (0.5, 0.2, 0.1):
        res = arc_length(
            field,
            lambda t: spiral_point(t, 2),
            (t_low, 1.0),
            tol=1e-9,
            velocity=lambda t: spiral_velocity(t, 2),
        )
        assert res.converged
        assert res.value >= np.log(1.0 / t_low)


def test_arc_length_matches_richardson_oracle():
    # Oracle: Richardson-extrapolated trapezoid sums on a fixed grid of
    # a million points, fully independent of adaptive quadrature.
    field = flat_polar_metric()
    t = np.linspace(0.5, 1.0, 1_000_001)
    speeds = np.sqrt(1.0 + (t * f_of(t)) ** 2)
    h = t[1] - t[0]
    trap_full = h * (np.sum(speeds) - 0.5 * (speeds[0] + speeds[-1]))
    half = speeds[::2]
    trap_half = 2 * h * (np.sum(half) - 0.5 * (half[0] + half[-1]))
    oracle = (4.0 * trap_full - trap_half) / 3.0
    res = arc_length(
        field,
        lambda tt: spiral_point(tt, 2),
        (0.5, 1.0),
        tol=1e-10,
        velocity=lambda tt: spiral_velocity(tt, 2),
    )
    assert abs(res.value - oracle) / oracle < 1e-6


def f_of(t):
    return np.exp(1.0 / t) / t**2


def test_arc_length_matches_the_spiral_length_in_the_inverse_parameter():
    # In w = 1/t the length from t_low to 1 is the integral over [1, 1/t_low]
    # of sqrt(1 + w^2 e^(2w)) / w^2, a smooth integrand that one 64-node
    # Gauss-Legendre rule resolves without any of arc_length's panels.
    field = flat_polar_metric()
    nodes, weights = np.polynomial.legendre.leggauss(64)

    def spiral_length(t_span):
        return arc_length(
            field,
            lambda t: spiral_point(t, 2),
            t_span,
            velocity=lambda t: spiral_velocity(t, 2),
        )

    for t_low in (0.5, 0.2, 0.1):
        half = 0.5 * (1.0 / t_low - 1.0)
        w = 1.0 + half * (1.0 + nodes)
        oracle = half * (weights @ (np.sqrt(1.0 + w**2 * np.exp(2.0 * w)) / w**2))
        res = spiral_length((t_low, 1.0))
        assert res.converged
        assert abs(res.value - oracle) <= 1e-13 * oracle
        assert spiral_length((1.0, t_low)).value == -res.value
    assert spiral_length((0.3, 0.3)).value == 0.0


def test_arc_length_rejects_degenerate_curve():
    with pytest.raises(ImmersionError):
        arc_length(
            euclidean_metric(2),
            lambda t: np.tile([1.0, 2.0], (len(t), 1)),
            (0.0, 1.0),
            velocity=lambda t: np.zeros((len(t), 2)),
        )


def test_arc_length_rejects_a_speed_that_is_not_a_number():
    def velocity(t):
        v = np.ones((len(t), 2))
        v[t > 0.5] = np.nan
        return v

    with pytest.raises(ImmersionError, match="not immersed at t=0.5"):
        arc_length(
            euclidean_metric(2),
            lambda t: np.zeros((len(t), 2)),
            (0.0, 1.0),
            velocity=velocity,
        )


@pytest.mark.parametrize(
    "t_span, tol",
    [((0.0, np.inf), 1e-9), ((np.nan, 1.0), 1e-9), ((0.0, 1.0), 0.0),
     ((0.0, 1.0), -1e-9), ((0.0, 1.0), np.nan), ((0.0, 1.0), np.inf)],
)
def test_arc_length_rejects_a_span_or_tol_out_of_range(t_span, tol):
    with pytest.raises(ValueError, match="^need a finite t_span and tol > 0"):
        arc_length(
            euclidean_metric(2),
            lambda t: np.stack([t, t], axis=-1),
            t_span,
            velocity=lambda t: np.ones((len(t), 2)),
            tol=tol,
        )


def test_arc_length_reports_no_convergence_at_the_panel_cap():
    # |sin(50 t)| has a kink every pi/50, so doubled panels keep disagreeing
    # by more than a tolerance near the rounding of the sum
    res = arc_length(
        euclidean_metric(2),
        lambda t: np.stack([t, np.zeros_like(t)], axis=-1),
        (0.0, 10.0),
        velocity=lambda t: np.stack([np.sin(50.0 * t), np.zeros_like(t)], axis=-1),
        tol=1e-15,
    )
    assert not res.converged
    assert res.estimated_error > 1e-15 * res.value


# ---------------------------------------------------------------------------
# spiral detection
# ---------------------------------------------------------------------------


def _fake_trajectory(points, field=FLAT3):
    points = np.asarray(points, float)
    n = len(points)
    u = np.tile([1.0, 0.0, 0.0], (n, 1))
    return Trajectory(
        field=field,
        s=np.arange(n, dtype=float),
        y=np.hstack([points, u, np.zeros((n, 3))]),
        gauge_error=np.zeros(n),
        projection=np.zeros(n),
    )


def test_detect_spiral_straight_line_not_contained():
    line = np.stack(
        [np.linspace(-2, 2, 41), np.zeros(41), np.zeros(41)], axis=1
    )
    report = detect_spiral(_fake_trajectory(line), np.zeros(3), (0.5, 0.1))
    assert not report.spiral_consistent
    assert all(not e.contained for e in report.entries)
    assert report.verdict == "not contained"


def test_detect_spiral_circle_containment_threshold():
    theta = np.linspace(0.0, 6 * np.pi, 200)
    circle = np.stack(
        [0.5 * np.cos(theta), 0.5 * np.sin(theta), np.zeros_like(theta)], axis=1
    )
    traj = _fake_trajectory(circle)
    report = detect_spiral(traj, np.zeros(3), (0.7, 0.6))
    assert report.spiral_consistent
    assert all(e.contained and e.s0 == 0.0 for e in report.entries)
    report = detect_spiral(traj, np.zeros(3), (0.4,))
    assert not report.entries[0].contained


@pytest.mark.parametrize(
    "radii", [(), (0.0,), (-0.5,), (np.nan,), (np.inf,), (0.8, np.nan)]
)
def test_detect_spiral_rejects_no_radii_and_bad_radii(radii):
    theta = np.linspace(0.0, 2.0 * np.pi, 9)
    circle = np.stack([np.cos(theta), np.sin(theta), np.zeros(9)], axis=1)
    with pytest.raises(ValueError, match="radius|radii"):
        detect_spiral(_fake_trajectory(circle), np.zeros(3), radii)


def test_detect_spiral_shrinking_spiral():
    theta = np.linspace(0.0, 8 * np.pi, 400)
    radius = 1.0 / (1.0 + theta)
    pts = np.stack(
        [radius * np.cos(theta), radius * np.sin(theta), np.zeros_like(theta)],
        axis=1,
    )
    report = detect_spiral(_fake_trajectory(pts), np.zeros(3), (0.8, 0.4, 0.1))
    assert report.spiral_consistent
    s0 = [e.s0 for e in report.entries]
    assert s0[0] < s0[1] < s0[2]
