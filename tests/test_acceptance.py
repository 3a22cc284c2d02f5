"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary
lines.  Every tolerance is fixed here, not calibrated at runtime.

Two sub-criteria are implemented exactly as stated and fail by
mathematical necessity; they are kept red rather than weakened:

* criterion 4's flatness clause asks |k(t)|/t^n to decrease over the
  sample grid {0.2, 0.15, 0.1, 0.07, 0.05} for every n <= 8, but the
  weighted profile e^(-1/t)/t^(n+1) peaks at t = 1/(n+1), inside the
  grid for n >= 5, so the sequence provably rises before it falls.  The
  companion flatness test certifies the true property (the leading-term
  oracle and the decreasing tail).

* criterion 8's positive-definiteness clause asks for metric
  eigenvalues above 0.5 across [-2, 2]^3, but the exact forcing
  function reaches k(1) ~ -0.708, so h peaks near 0.43 and the
  eigenvalue (1 - h z^2)^2 dips below 0.5 on roughly a sixth of the box
  (the metric even degenerates on the surface |h z^2| = 1).  The
  companion eigenvalue-structure test in test_spiral.py certifies what
  actually holds.
"""
import time

import numpy as np
import pytest

from confgeo import (
    circle_state,
    euclidean_metric,
    example_metric,
    flat_cylindrical_metric,
    from_unparametrized,
    integrate,
    k_exact,
    propertime_rhs,
    spiral_point,
    spiral_state,
    spiral_velocity,
    unparam_residual,
    wedge_form_residual,
)
from confgeo.dynamics import arc_length, detect_spiral
from confgeo.metrics import flat_polar_metric
from confgeo.verify import (
    FLATNESS_GRID,
    check_lemma1,
    check_lemma2,
    check_lemma5,
    flatness_table,
    forcing_residual_relative,
    random_gauge_state,
    random_metric,
    spiral_tracking_errors,
    spiral_tracking_run,
    _orthogonalised,
    _reparametrized,
)


def _emit(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


# ---------------------------------------------------------------------------
# 1. wedge-form equivalence over random instances
# ---------------------------------------------------------------------------


def test_criterion_1_wedge_form_equivalence():
    """100 seeded random (metric, state) trials, residual <= 1e-9, < 10 s."""
    start = time.perf_counter()
    rep = check_lemma1(seed=42, tol=1e-9)
    elapsed = time.perf_counter() - start
    detail = (
        f"max residual {rep.metrics['max_wedge_residual']:.2e} over 100 trials "
        f"({elapsed:.1f} s)"
    )
    _emit("criterion 1 (wedge-form equivalence)", rep.passed and elapsed < 10, detail)
    assert rep.metrics["trials"] == 100
    assert rep.passed, rep.metrics
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. unparametrized equivalence under reparametrization
# ---------------------------------------------------------------------------


def test_criterion_2_unparametrized_equivalence():
    """50 trials x 5 reparametrizations: residual <= 1e-8, identity to 1e-12."""
    start = time.perf_counter()
    rep = check_lemma2(seed=43, tol=1e-8)
    elapsed = time.perf_counter() - start
    detail = (
        f"max residual {rep.metrics['max_unparam_residual']:.2e}, "
        f"identity dev {rep.metrics['max_wedge_identity_deviation']:.2e} "
        f"({elapsed:.1f} s)"
    )
    _emit("criterion 2 (unparametrized equivalence)", rep.passed and elapsed < 10, detail)
    assert rep.metrics["trials"] == 50 and rep.metrics["reparametrizations"] == 5
    assert rep.passed, rep.metrics
    assert rep.metrics["max_wedge_identity_deviation"] <= 1e-12
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 3. flat-space circles close
# ---------------------------------------------------------------------------


def test_criterion_3_flat_space_circles():
    """Circles of radius 0.1, 1, 10 close to 1e-6 over one period, < 5 s."""
    start = time.perf_counter()
    field = euclidean_metric(3)
    worst_closure = 0.0
    worst_radial = 0.0
    for radius in (0.1, 1.0, 10.0):
        st = circle_state(radius)
        traj = integrate(field, st, (0.0, 2.0 * np.pi * radius), tol=1e-10)
        assert traj.status == "ok"
        closure = float(np.linalg.norm(traj.final_state.x - st.x))
        radial = float(
            np.max(np.abs(np.linalg.norm(traj.positions()[:, :2], axis=1) - radius))
        )
        worst_closure = max(worst_closure, closure)
        worst_radial = max(worst_radial, radial)
    elapsed = time.perf_counter() - start
    passed = worst_closure <= 1e-6 and worst_radial <= 1e-6 and elapsed < 5.0
    _emit(
        "criterion 3 (flat-space circles)",
        passed,
        f"closure {worst_closure:.2e}, radial {worst_radial:.2e} ({elapsed:.1f} s)",
    )
    assert worst_closure <= 1e-6
    assert worst_radial <= 1e-6
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 4. the forcing identity and flatness of k
# ---------------------------------------------------------------------------


def test_criterion_4_forcing_identity():
    """Relative forcing residual <= 1e-9 on a 50-point grid in [0.3, 1]."""
    ts = np.linspace(0.3, 1.0, 50)
    residuals = np.array([forcing_residual_relative(float(t)) for t in ts])
    passed = bool(np.all(residuals <= 1e-9))
    _emit(
        "criterion 4 (forcing identity)",
        passed,
        f"max relative residual {residuals.max():.2e} on 50-point grid",
    )
    assert passed


def test_criterion_4_flatness_toward_zero():
    """k vanishes to all orders at 0: oracle match and decreasing tail.

    This is the attainable rendering of the flatness clause: |k| tracks
    its leading term e^(-1/t)/t on the grid, the weighted sequences
    decrease on the tail t <= 0.1 for every n <= 8, and the smallest
    sample sits far below any fixed tolerance.
    """
    grid = np.array(FLATNESS_GRID)
    kv = np.abs(k_exact(grid))
    oracle = np.exp(-1.0 / grid) / grid
    dev = float(np.max(np.abs(kv / oracle - 1.0)))
    table = flatness_table()
    tail_ok = bool(np.all(np.diff(table[:, 2:], axis=1) < 0.0))
    small_ok = abs(k_exact(0.05)) <= 1e-6
    passed = dev <= 1e-2 and tail_ok and small_ok
    _emit(
        "criterion 4 (flatness, oracle + tail)",
        passed,
        f"oracle deviation {dev:.2e}, tail decreasing {tail_ok}",
    )
    assert passed


def test_criterion_4_flatness_literal_full_grid_monotonicity():
    """Literal clause: |k(t)|/t^n decreasing over the whole grid, n <= 8.

    Kept exactly as stated although it cannot hold: e^(-1/t)/t^(n+1) is
    maximal at t = 1/(n+1), which lies inside the grid for n >= 5, so
    the sequence increases from t = 0.2 toward the peak before falling.
    The failure message shows the measured table.
    """
    table = flatness_table()
    violations = []
    for n in range(1, 9):
        vals = table[n - 1]
        if not np.all(np.diff(vals) < 0.0):
            violations.append((n, vals.tolist()))
    _emit(
        "criterion 4 (flatness, literal full-grid monotonicity)",
        not violations,
        f"{len(violations)} of 8 weights non-monotone "
        f"(peak of |k|/t^n sits at t = 1/(n+1), inside the grid for n >= 5)",
    )
    assert not violations, (
        "weighted flatness sequences rise before falling on the stated grid; "
        "|k(t)|/t^n over t in " + str(list(FLATNESS_GRID)) + ": "
        + "; ".join(f"n={n}: {vals}" for n, vals in violations)
    )


# ---------------------------------------------------------------------------
# 5. infinite-length lower bound
# ---------------------------------------------------------------------------


def test_criterion_5_infinite_length_bound():
    """Arc length from t to 1 exceeds log(1/t); quadrature vs oracle 1e-6."""
    field = flat_polar_metric()
    bounds_ok = True
    for t_low in (0.5, 0.2, 0.1):
        res = arc_length(
            field,
            lambda t: spiral_point(t, 2),
            (t_low, 1.0),
            tol=1e-9,
            velocity=lambda t: spiral_velocity(t, 2),
        )
        bounds_ok = bounds_ok and res.converged and res.value >= np.log(1.0 / t_low)

    # Richardson-extrapolated trapezoid at one million points, an
    # independent fixed-grid oracle for the adaptive quadrature
    t = np.linspace(0.5, 1.0, 1_000_001)
    speeds = np.sqrt(1.0 + (np.exp(1.0 / t) / t) ** 2)
    h = t[1] - t[0]
    trap_fine = h * (np.sum(speeds) - 0.5 * (speeds[0] + speeds[-1]))
    coarse = speeds[::2]
    trap_coarse = 2 * h * (np.sum(coarse) - 0.5 * (coarse[0] + coarse[-1]))
    oracle = (4.0 * trap_fine - trap_coarse) / 3.0
    res = arc_length(
        field,
        lambda tt: spiral_point(tt, 2),
        (0.5, 1.0),
        tol=1e-10,
        velocity=lambda tt: spiral_velocity(tt, 2),
    )
    rel = abs(res.value - oracle) / oracle
    passed = bounds_ok and rel <= 1e-6
    _emit(
        "criterion 5 (infinite-length bound)",
        passed,
        f"log bounds hold: {bounds_ok}, oracle agreement {rel:.2e}",
    )
    assert bounds_ok
    assert rel <= 1e-6


# ---------------------------------------------------------------------------
# 6. curvature of the example metric
# ---------------------------------------------------------------------------


def test_criterion_6_example_metric_curvature():
    """Ricci = -2 h M and Riemann = -2 dz^2 o (h M) to 1e-6 at 5 radii, < 30 s."""
    start = time.perf_counter()
    rep = check_lemma5(tol=1e-6)
    elapsed = time.perf_counter() - start
    detail = (
        f"ricci dev {rep.metrics['max_ricci_deviation']:.2e}, "
        f"riemann dev {rep.metrics['max_riemann_deviation']:.2e}, "
        f"dz dev {rep.metrics['max_dz_metric_at_plane']:.2e} ({elapsed:.1f} s)"
    )
    _emit("criterion 6 (example-metric curvature)", rep.passed and elapsed < 30, detail)
    assert rep.passed, rep.metrics
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 7. the integrated spiraling conformal geodesic
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def proposition_runs():
    runs = {}
    start = time.perf_counter()
    for tol in (4e-10, 2e-10, 1e-10):
        runs[tol] = spiral_tracking_run(t0=0.8, t_end=0.3, integrator_tol=tol)
    runs["elapsed"] = time.perf_counter() - start
    return runs


def test_criterion_7_proposition_tracking(proposition_runs):
    """Track the analytic spiral to 1e-4 at tolerance 1e-10; error halves
    with the tolerance; planar to 1e-8; spiral-consistent; < 5 min."""
    traj, err, max_z = proposition_runs[1e-10]
    errs = {tol: proposition_runs[tol][1] for tol in (4e-10, 2e-10, 1e-10)}
    ratio1 = errs[2e-10] / errs[4e-10]
    ratio2 = errs[1e-10] / errs[2e-10]
    report = detect_spiral(traj, np.zeros(3), (0.8, 0.6, 0.4))
    elapsed = proposition_runs["elapsed"]
    passed = (
        traj.status == "stopped"
        and err <= 1e-4
        and max_z <= 1e-8
        and report.spiral_consistent
        and ratio1 <= 0.55
        and ratio2 <= 0.55
        and elapsed < 300.0
    )
    _emit(
        "criterion 7 (proposition tracking)",
        passed,
        f"tracking {err:.2e}, |z| {max_z:.1e}, halving ratios "
        f"{ratio1:.3f}/{ratio2:.3f}, verdict {report.verdict} ({elapsed:.1f} s)",
    )
    assert traj.status == "stopped"
    assert err <= 1e-4
    assert max_z <= 1e-8
    assert report.spiral_consistent
    s0 = [e.s0 for e in report.entries]
    assert s0[0] > s0[1] > s0[2]  # later containment for smaller balls (s runs down)
    # halving the integrator tolerance halves the tracking error
    assert ratio1 <= 0.55 and ratio2 <= 0.55
    assert elapsed < 300.0


def test_criterion_7_wedge_identity_on_curve(proposition_runs):
    """v ^ L^v = v ^ Ric^v along the curve to 1e-10 (dimension-3 identity)."""
    from confgeo import curvature, wedge

    field = example_metric("cylindrical")
    worst = 0.0
    for t in np.linspace(0.3, 1.0, 8):
        st = spiral_state(float(t))
        bundle = curvature(field, st.x, step=1e-2)
        w_l = wedge(st.v, bundle.inverse_metric @ bundle.schouten @ st.v, st.x)
        w_r = wedge(st.v, bundle.inverse_metric @ bundle.ricci @ st.v, st.x)
        worst = max(worst, float(np.max(np.abs(w_l.components - w_r.components))))
    _emit(
        "criterion 7 (schouten/ricci wedge identity)",
        worst <= 1e-10,
        f"max deviation {worst:.2e}",
    )
    assert worst <= 1e-10


def test_criterion_7_arc_dwarfs_chord(proposition_runs):
    traj, _, _ = proposition_runs[1e-10]
    start = traj.field.chart.embed(traj.state(0).x)
    end = traj.field.chart.embed(traj.final_state.x)
    factor = float(traj.arc_length[-1] / np.linalg.norm(end - start))
    _emit("criterion 7 (arc over chord)", factor >= 10.0, f"factor {factor:.1f}")
    assert factor >= 10.0


def test_criterion_7_reverse_run_returns_to_start(proposition_runs):
    """Time reversal: retracing the inward run recovers the start point."""
    traj, _, _ = proposition_runs[1e-10]
    field = traj.field
    back = integrate(
        field,
        traj.final_state,
        (traj.s[-1], 0.0),
        tol=1e-10,
        max_steps=400_000,
        curvature_step=1e-2,
    )
    dev = float(np.max(np.abs(back.final_state.x - traj.state(0).x)))
    _emit(
        "criterion 7 (reverse integration)",
        back.status == "ok" and dev <= 1e-5,
        f"returned within {dev:.2e} of the start",
    )
    assert back.status == "ok"
    assert back.final_state.x[0] > 0.79  # radius climbs back toward t0
    assert dev <= 1e-5


# ---------------------------------------------------------------------------
# 8. chart consistency and positivity
# ---------------------------------------------------------------------------


def test_criterion_8_chart_consistency():
    """Cylindrical and cartesian charts agree to 1e-12 at 1000 seeded points."""
    cyl = example_metric("cylindrical")
    cart = example_metric("cartesian")
    rng = np.random.default_rng(42)
    pts = []
    while len(pts) < 1000:
        cand = rng.uniform(-2.0, 2.0, size=3)
        if np.hypot(cand[0], cand[1]) > 1e-3:
            pts.append(cand)
    worst = 0.0
    for x, y, z in pts:
        r = np.hypot(x, y)
        phi = np.arctan2(y, x)
        jac = np.array(
            [
                [x / r, y / r, 0.0],
                [-y / r**2, x / r**2, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        transformed = jac.T @ cyl(np.array([r, phi, z])) @ jac
        worst = max(
            worst, float(np.max(np.abs(transformed - cart(np.array([x, y, z])))))
        )
    _emit(
        "criterion 8 (chart consistency)",
        worst <= 1e-12,
        f"max disagreement {worst:.2e} at 1000 seeded points",
    )
    assert worst <= 1e-12


def test_criterion_8_positive_definiteness_literal_bound():
    """Literal clause: min metric eigenvalue > 0.5 at 1000 seeded box points.

    Kept exactly as stated although the exact construction violates it:
    h peaks near 0.43 (k(1) ~ -0.708 is forced by the forcing identity),
    so on [-2, 2]^3 the smallest eigenvalue (1 - h z^2)^2 falls below
    0.5 wherever h z^2 is within (0.29, 1.71), about a sixth of the box,
    and vanishes on the degeneracy surface |h z^2| = 1.  The failure
    message reports the measured spectrum; the eigenvalue-structure test
    in test_spiral.py verifies the formula behind it.
    """
    from confgeo import h_profile

    cart = example_metric("cartesian")
    rng = np.random.default_rng(42)
    pts = rng.uniform(-2.0, 2.0, size=(1000, 3))
    eigs = np.linalg.eigvalsh(cart(pts))
    min_eig = float(eigs.min())
    below = int(np.sum(eigs[:, 0] <= 0.5))
    max_h = float(np.max(h_profile(np.linspace(0.0, 1.5, 2001))))
    _emit(
        "criterion 8 (positive definiteness > 0.5, literal)",
        min_eig > 0.5,
        f"min eigenvalue {min_eig:.3e}, {below}/1000 points below 0.5 "
        f"(max h = {max_h:.3f} forces eigenvalue (1 - h z^2)^2 through 0.5)",
    )
    assert min_eig > 0.5, (
        f"min eigenvalue {min_eig:.3e} with {below}/1000 seeded points below 0.5; "
        f"the exact profile reaches h = {max_h:.3f}, so (1 - h z^2)^2 sweeps "
        "through zero inside the box and no seed can avoid it"
    )


# ---------------------------------------------------------------------------
# 9. negative controls
# ---------------------------------------------------------------------------


def test_criterion_9_negative_controls():
    """Every check flags its deliberately broken input."""
    rng = np.random.default_rng(4242)

    # perturbed acceleration derivative: wedge residual must exceed tol
    field = random_metric(rng)
    st = random_gauge_state(field, rng)
    _, du, da = propertime_rhs(field, st)
    w = _orthogonalised(field(st.x), st.u, rng.standard_normal(len(st.u)))
    res_da = wedge_form_residual(field, st, da + 1e-3 * w).norm(field(st.x))

    # broken reparametrization data: unparametrized residual must fire
    ust, db = _reparametrized(st, du, da, 1.7, 0.3, -0.2)
    wv = _orthogonalised(field(st.x), ust.v, rng.standard_normal(len(ust.v)))
    res_rep = unparam_residual(field, ust, db + 1e-3 * wv).norm(field(st.x))

    # profile switched off: the trajectory must visibly leave the spiral
    flat = flat_cylindrical_metric()
    initial = from_unparametrized(flat, spiral_state(0.8))
    traj = integrate(flat, initial, (0.0, -3.0), tol=1e-8, max_steps=50_000)
    errors, _ = spiral_tracking_errors(traj)
    departure = float(np.max(errors))

    passed = res_da > 1e-9 and res_rep > 1e-8 and departure > 1e-2
    _emit(
        "criterion 9 (negative controls)",
        passed,
        f"perturbed-da residual {res_da:.2e}, broken-reparam residual "
        f"{res_rep:.2e}, h=0 departure {departure:.2e}",
    )
    assert res_da > 1e-9
    assert res_rep > 1e-8
    assert departure > 1e-2
