"""The check battery: statuses, determinism, report schema."""
import hashlib
import itertools
import json

import numpy as np
import pytest

from confgeo import (
    MetricField,
    curvature,
    dynamics,
    example_metric,
    verify,
)
from confgeo.verify import (
    RandomMetricSpec,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma5,
    check_proposition,
    run_checks,
    spiral_tracking_run,
)


@pytest.fixture(scope="module")
def lemma_reports():
    return {
        "lemma1": check_lemma1(seed=42),
        "lemma2": check_lemma2(seed=43),
        "lemma3": check_lemma3(),
        "lemma5": check_lemma5(),
    }


def test_lemma_checks_pass(lemma_reports):
    for name, rep in lemma_reports.items():
        assert rep.passed, f"{name}: {rep.metrics}"
        assert rep.name == name


def test_report_json_schema(lemma_reports):
    payload = json.loads(lemma_reports["lemma1"].to_json())
    assert set(payload) == {"name", "status", "metrics", "seed", "tolerances"}
    assert payload["status"] == "pass"
    assert payload["seed"] == 42
    assert isinstance(payload["metrics"], dict)


def test_reports_deterministic_given_seed():
    a = check_lemma1(seed=7)
    b = check_lemma1(seed=7)
    assert a.to_json() == b.to_json()
    c = check_lemma1(seed=8)
    assert c.to_json() != a.to_json()


def test_text_report_contains_wall_time(lemma_reports):
    text = lemma_reports["lemma3"].to_text()
    assert "wall time" in text
    assert "check lemma3: PASS" in text
    # wall time must not leak into the byte-stable JSON
    assert "wall" not in lemma_reports["lemma3"].to_json()


def test_overtight_tolerance_fails_with_measured_residuals():
    rep = check_lemma3(tol=1e-18)
    assert not rep.passed
    assert rep.metrics["max_forcing_residual_rel"] > 1e-18


def test_flatness_metrics_reported(lemma_reports):
    m = lemma_reports["lemma3"].metrics
    # the full-grid weighted sequence is provably non-monotone for the
    # higher weights; the check records the count rather than hiding it
    assert m["flatness_full_grid_monotone_violations"] > 0
    assert m["flatness_tail_decreasing"] is True
    assert m["flatness_oracle_deviation"] < 1e-2


def test_random_metric_spec_deterministic():
    f1 = RandomMetricSpec(seed=77).build()
    f2 = RandomMetricSpec(seed=77).build()
    pts = np.random.default_rng(0).uniform(-1, 1, size=(5, 3))
    np.testing.assert_array_equal(f1(pts), f2(pts))
    # the exponent table is built once per (dimension, degree) and shared
    exps = verify._monomial_exponents(3, 3)
    assert exps is verify._monomial_exponents(3, 3) and not exps.flags.writeable
    assert exps.shape == (20, 3) and exps.sum(axis=1).max() == 3
    # rows in lexicographic order
    assert verify._monomial_exponents(2, 2).tolist() == [
        [0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [2, 0]
    ]


def test_one_curvature_kernel_evaluation_per_check(monkeypatch):
    # lemma1 and lemma2 draw their instances first and evaluate them as
    # one stack through the polynomial kernels, so no MetricField is built
    # or called (the residual norms and the speed take g from the jets,
    # and the coefficients are positive by construction, with no metric
    # evaluated to test them); one curvature kernel evaluation covers all
    # of them.
    # lemma3, lemma5 and the proposition's identity sweep call the public
    # curvature() once with their stack of points.
    kernels, stacks, publics, evals = [], [], [], []
    original_kernel = verify._curvature_kernel
    original_stack = verify.curvature
    original = dynamics.curvature
    original_eval = MetricField.__call__

    def counted_kernel(point, *jets):
        kernels.append(np.shape(point)[:-1])
        return original_kernel(point, *jets)

    def counted_stack(field, point, *args, **kwargs):
        stacks.append(np.shape(point)[:-1])
        return original_stack(field, point, *args, **kwargs)

    def counted(*args, **kwargs):
        publics.append(1)
        return original(*args, **kwargs)

    def counted_eval(self, points):
        evals.append(1)
        return original_eval(self, points)

    monkeypatch.setattr(verify, "_curvature_kernel", counted_kernel)
    monkeypatch.setattr(verify, "curvature", counted_stack)
    monkeypatch.setattr(dynamics, "curvature", counted)
    monkeypatch.setattr(MetricField, "__call__", counted_eval)
    RandomMetricSpec(seed=3).build()
    assert evals == []
    assert check_lemma1(seed=5).passed
    assert (kernels, stacks, publics, len(evals)) == ([(100,)], [], [], 0)
    kernels.clear()
    evals.clear()
    assert check_lemma2(seed=6).passed
    assert (kernels, stacks, publics, len(evals)) == ([(50, 1)], [], [], 0)
    kernels.clear()
    # the sweep, then the negative control at one point
    assert check_lemma3().passed
    assert (kernels, stacks, publics) == ([], [(50,), ()], [])
    stacks.clear()
    assert check_lemma5().passed
    assert (kernels, stacks, publics) == ([], [(5,)], [])
    stacks.clear()
    # the identity sweep; the two integrations call curvature() per stage
    # through dynamics
    assert check_proposition().passed
    assert (kernels, stacks) == ([], [(8,)]) and publics


# Every float metric of lemma1 and lemma2, and lemma3's residuals, at two
# check seeds, as evaluating each instance on its own gives them.  The
# residuals sit at the rounding level, so any change to the order of the
# arithmetic of an instance moves them.
PINNED_METRICS = {
    42: {
        "lemma1": {
            "max_wedge_residual": 3.242175768460188e-16,
            "max_converse_deviation": 3.955114269331088e-17,
            "min_negative_control_residual": 0.0009999999999996767,
        },
        "lemma2": {
            "max_unparam_residual": 5.3240481639384244e-14,
            "max_wedge_identity_deviation": 3.1236975758320853e-15,
            "min_negative_control_residual": 4.130972701521754e-05,
        },
        "lemma3": {
            "max_forcing_residual_rel": 2.2051802560867235e-16,
            "negative_control_residual": 8.193205435927719e-06,
        },
    },
    1597683656: {
        "lemma1": {
            "max_wedge_residual": 2.451298478597866e-16,
            "max_converse_deviation": 9.969457922125984e-17,
            "min_negative_control_residual": 0.0009999999999998203,
        },
        "lemma2": {
            "max_unparam_residual": 3.480944610361623e-14,
            "max_wedge_identity_deviation": 3.7023584697169085e-15,
            "min_negative_control_residual": 4.1221175869186846e-05,
        },
        "lemma3": {
            "max_forcing_residual_rel": 2.2051802560867235e-16,
            "negative_control_residual": 8.193205435927719e-06,
        },
    },
}


@pytest.mark.parametrize("seed", sorted(PINNED_METRICS))
def test_check_metrics_are_pinned_bit_for_bit(seed):
    reports = {r.name: r for r in run_checks("all", seed=seed)}
    for name, pinned in PINNED_METRICS[seed].items():
        got = {key: reports[name].metrics[key] for key in pinned}
        assert got == pinned, name


# sha256 of the report JSONs of run_checks("all", seed), joined in report
# order: a change to any bit of any check shows here.
PINNED_REPORT_DIGESTS = {
    1: "6f5222076b48aa40a5543c1eac59d9b458f72a81116915e0a55198e252252b57",
    7: "dfc461ce4709ba9b2fa7b27364b3204b7eed407bf0e9001e150ff3344a29819a",
    42: "6bd4daef06e41a85a40445f126a471f3d1db10d86ad4fd832f1dbd9d3cfc5eee",
}


@pytest.mark.parametrize("seed", sorted(PINNED_REPORT_DIGESTS))
def test_check_reports_are_pinned_byte_for_byte(seed):
    text = "".join(r.to_json() for r in run_checks("all", seed=seed))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORT_DIGESTS[seed]


def test_the_library_prints_nothing_to_stdout(capsys):
    # A benchmark run's last line of standard output is its JSON result,
    # so the library itself must not print.
    run_checks("all", seed=42)
    spiral_tracking_run(t_end=0.3)
    curvature(example_metric("cylindrical"), np.array([0.5, 0.3, 0.1]))
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("dimension", [2, 3, 4, 5])
def test_random_metrics_are_positive_on_the_whole_box(dimension):
    # The amplitude rule keeps every row's coefficient sum at most 0.9, so
    # Gershgorin's bound holds on [-1, 1]^n by construction; the built
    # metric's eigenvalues are checked at the box corners and at random
    # points of the box.
    seeds = range(200)
    coefs = verify._random_coefficients(seeds, dimension)
    bound = 1.0 - np.abs(coefs).sum(axis=(1, 3)).max(axis=1)
    assert bound.min() >= 0.1
    corners = np.array(list(itertools.product([-1.0, 1.0], repeat=dimension)))
    for seed in seeds:
        field = RandomMetricSpec(seed=seed, dimension=dimension).build()
        inner = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(50, dimension))
        points = np.concatenate([corners, inner])
        assert np.linalg.eigvalsh(field(points)).min() >= 0.1, seed


@pytest.mark.parametrize(
    "dimension, digest",
    [
        (2, "8a064a50c713a3c54393393a80ac8394d597dda4a0056cfdeb84fde961bed512"),
        (3, "a06da3256d8d8d2b1fd55b65c3f4cdf2f3a019f173ce5f73476408ec30b98599"),
    ],
)
def test_random_coefficients_are_pinned(dimension, digest):
    # The checks' metrics (n = 2 and 3) keep their coefficients, bit for bit.
    coefs = verify._random_coefficients(range(1000), dimension)
    assert hashlib.sha256(coefs.tobytes()).hexdigest() == digest


def test_run_checks_rejects_a_negative_seed():
    # numpy's generators take no negative seed; lemma2 runs at seed + 1
    with pytest.raises(ValueError, match="non-negative"):
        run_checks("lemma2", seed=-1)


def test_run_checks_selection():
    with pytest.raises(ValueError):
        run_checks("bogus")
    reports = run_checks("lemma5", seed=1)
    assert len(reports) == 1 and reports[0].name == "lemma5"


@pytest.mark.parametrize("tol", [0.0, -1e-9, np.nan, np.inf])
def test_run_checks_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    # 0.0 is falsy and must not fall back to the default tolerance
    with pytest.raises(ValueError, match="positive and finite"):
        run_checks("lemma5", tol=tol)


def test_proposition_check_passes():
    rep = check_proposition()
    assert rep.passed, rep.metrics
    assert rep.metrics["max_tracking_error"] < 1e-4
    assert rep.metrics["spiral_consistent"] is True
    assert rep.metrics["negative_control_departure"] > 1e-2


def test_tracking_run_reaches_radius_and_stays_planar():
    traj, err, max_z = spiral_tracking_run(
        t0=0.8, t_end=0.6, integrator_tol=1e-9
    )
    assert traj.status == "stopped"
    assert traj.final_state.x[0] <= 0.6
    assert err < 1e-5
    assert max_z < 1e-10
    # radius decreases monotonically along the inward run
    assert np.all(np.diff(traj.positions()[:, 0]) < 0.0)


def test_tracking_run_deep_into_the_spiral_is_not_cut_short():
    # Proper time runs to -143 before r = 0.15, so any fixed bound on s
    # would end this run early; only the stop radius may end it.
    traj, _, _ = spiral_tracking_run(t0=0.8, t_end=0.15, integrator_tol=1e-8)
    assert traj.status == "stopped"
    assert traj.final_state.x[0] <= 0.15


@pytest.mark.parametrize("t_end", [0.0, float("nan"), 0.9])
def test_tracking_run_refuses_a_stop_radius_outside_zero_to_t0(t_end):
    # t_end = 0 would run to max_steps, NaN would stop at the first
    # sample with a tracking error of 0, and t_end > t0 stops there too.
    with pytest.raises(ValueError, match="0 < t_end <= t0"):
        spiral_tracking_run(t0=0.8, t_end=t_end)


# sha256 of the arrays of spiral_tracking_run(t0=0.8, t_end=0.2), the
# benchmark's spiral, with its counters and tracking error: a change to
# any bit of the run shows here.
PINNED_SPIRAL_RUN = {
    "y": "fe39fa2a7ae272e791836acfb51cb61376528bb93f935ed91b643211269058b7",
    "s": "0255a23ed25a9842efcf1861eae1e4a93bf049cd0828de20ac39526d7f7928e8",
    "projection": "5ad46a92fd660f5ce8483abc5b1f06bc1cf3d320efb42ea08cdb0d2b1040e94a",
    "gauge_error": "369dbfe133fd7cf05df030ee4920ce00ad92e772bb91097046ac4326379be2ad",
}


def test_the_spiral_run_to_r_02_is_pinned_bit_for_bit():
    traj, track_err, _ = spiral_tracking_run(t0=0.8, t_end=0.2)
    digests = {
        name: hashlib.sha256(getattr(traj, name).tobytes()).hexdigest()
        for name in PINNED_SPIRAL_RUN
    }
    assert digests == PINNED_SPIRAL_RUN
    assert len(traj) == 268
    assert traj.stats["rhs_evaluations"] == 3471
    assert traj.stats["curvature_evaluations"] == 3205
    assert track_err == 1.656443046784759e-08


def test_tracking_run_rejects_a_metric_in_another_chart():
    # The spiral's data are cylindrical (r, phi, z); a cartesian metric
    # would read them as (x, y, z) and stop after a few samples.
    with pytest.raises(ValueError, match="cylindrical"):
        spiral_tracking_run(t_end=0.2, metric=example_metric("cartesian"))
