"""Tests of the benchmark itself.

    python3 -m pytest benchmarks -q

They are outside the library's test suite (pytest's testpaths), because
some of them run the benchmark for several seconds.
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bench_reference
import bench_trace as bt
import bench_workloads as bw
import confgeo
import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def test_inputs_depend_only_on_seed_and_unit_index():
    a, b, c = bw.CurvatureField(7), bw.CurvatureField(7), bw.CurvatureField(8)
    assert np.array_equal(a.points(3), b.points(3))
    assert not np.array_equal(a.points(3), c.points(3))
    assert not np.array_equal(a.points(3), a.points(4))

    t0 = bw.SpiralInward(7).t0
    assert t0 == bw.SpiralInward(7).t0 != bw.SpiralInward(8).t0
    assert 0.78 <= t0 <= 0.82

    v = bw.VerifyChecks(7)
    assert v.check_seed(2) == bw.VerifyChecks(7).check_seed(2) != v.check_seed(3)
    assert v.check_seed(2) == v.check_seed(2 + v.CHECK_SEEDS) != bw.VerifyChecks(8).check_seed(2)
    assert len({v.check_seed(i) for i in range(v.MIN_UNITS)}) == v.CHECK_SEEDS


def test_curvature_points_cover_the_box_and_include_the_plane():
    w = bw.CurvatureField(1)
    pts = w.points(0)
    on, off = pts[: w.ON_PLANE], pts[w.ON_PLANE :]
    assert len(off) == np.prod(w.STRATA)
    assert np.all(on[:, 2] == 0.0) and np.all(off[:, 2] != 0.0)
    assert np.all(pts >= w.BOX_LOW) and np.all(pts <= w.BOX_HIGH)
    # one point per stratum in every coordinate
    for axis, n in enumerate(w.STRATA):
        frac = (off[:, axis] - w.BOX_LOW[axis]) / (w.BOX_HIGH[axis] - w.BOX_LOW[axis])
        counts = np.bincount(np.floor(frac * n).astype(int), minlength=n)
        assert np.all(counts == len(off) // n)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def _names():
    snap = {(m.__name__, k): v for m in bt._confgeo_modules() for k, v in vars(m).items()}
    for mod, cls, attr, _ in bt.METHODS:
        snap[(mod, cls, attr)] = getattr(sys.modules[mod], cls).__dict__[attr]
    return snap


def _same(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_patched_names_are_restored():
    before = _names()
    tracer = bt.Tracer()
    with tracer:
        during = _names()
        assert not _same(before, during)
        # every name that referred to a traced function now refers to its wrapper
        for mod, attr, _ in bt.FUNCTIONS:
            original = before[(mod, attr)]
            assert not any(v is original for v in during.values())
        assert sys.modules["confgeo.dynamics"].curvature is confgeo.curvature
        assert sys.modules["confgeo.verify"].integrate is confgeo.integrate
    assert _same(before, _names())

    with pytest.raises(RuntimeError):
        with tracer:
            raise RuntimeError("inside the traced block")
    assert _same(before, _names())


def test_self_time_is_duration_minus_children():
    spans = [
        (0, -1, 0, "unit", 0, 100, None, False),
        (1, 0, 0, "curvature", 10, 60, None, False),
        (2, 1, 0, "eval", 20, 30, None, False),
        (3, 0, 0, "eval", 70, 80, None, False),
    ]
    assert bt.self_times(spans) == pytest.approx([40e-9, 40e-9, 10e-9, 10e-9])


def test_rejections_are_believed_only_when_the_counts_check_out():
    def integ(sid, rhs, rejected, remainder=0):
        extra = {"accepted": 2, "rhs_evaluations": rhs, "rejected": rejected, "remainder": remainder}
        return (sid, 0, 0, "integrate", 0, 1, extra, False)

    def rhs(parent, raised=False):
        return (9, parent, 0, "rhs", 0, 1, None, raised)

    assert bt.exact_rejections([integ(1, 2, 0)], [rhs(1), rhs(1)])
    assert not bt.exact_rejections([integ(1, 3, 0)], [rhs(1), rhs(1)])
    assert not bt.exact_rejections([integ(1, 2, -1)], [rhs(1), rhs(1)])
    assert not bt.exact_rejections([integ(1, 2, 0, remainder=1)], [rhs(1), rhs(1)])
    assert not bt.exact_rejections([integ(1, 2, 0)], [rhs(1), rhs(1, raised=True)])


def test_spans_record_raised_calls():
    tracer = bt.Tracer()
    fld = confgeo.example_metric("cylindrical")
    with tracer, tracer.root():
        with pytest.raises(confgeo.ChartSingularityError):
            confgeo.curvature(fld, np.array([0.0, 0.0, 0.0]))
    kinds = [(s[bt.KIND], s[bt.RAISED]) for s in tracer.spans]
    assert kinds == [("unit", False), ("curvature", True)]


def _traced(w, index=0):
    tracer = bt.Tracer()
    with tracer, tracer.root() as rid:
        result = w.unit(index)
    metrics, exact = bt.unit_layer_metrics(
        tracer.spans, bt.self_times(tracer.spans), rid, result.extra
    )
    return result, metrics, exact, tracer, rid


@pytest.mark.parametrize("cls", [bw.CurvatureField, bw.VerifyChecks])
def test_traced_and_untraced_units_agree(cls):
    w = cls(3)
    plain = w.unit(0)
    traced, metrics, exact, _, _ = _traced(w)
    assert plain.failed == 0 and plain.attempted > 0
    assert (plain.digest, plain.attempted, plain.failed, plain.ref_err) == (
        traced.digest,
        traced.attempted,
        traced.failed,
        traced.ref_err,
    )
    assert exact
    assert metrics["curvature.calls"] > 0
    assert metrics["metrics.evals_per_curvature"] == 2.0
    if cls is bw.CurvatureField:
        assert metrics["curvature.calls"] == plain.attempted
        assert metrics["curvature.unique_point_ratio"] == 1.0
        assert metrics["dynamics.rhs_calls"] == 0


def test_spiral_reproduces_the_reference_integration():
    """At t0 = 0.8 the run to r = 0.2 makes 887 samples and 6202 RHS calls.

    These are the library's figures when the benchmark was defined; a
    change to the integrator that moves them updates them here.
    """
    w = bw.SpiralInward(0)
    w.t0 = 0.8
    plain = w.unit(0)
    assert plain.failed == 0, plain.notes
    assert plain.extra["samples"] == 887
    assert plain.extra["rhs_evaluations"] == 6202
    assert plain.ref_err == pytest.approx(2.89e-7, rel=0.01)

    traced, m, exact, tracer, rid = _traced(w)
    assert traced.digest == plain.digest
    assert traced.extra == plain.extra
    assert bt.rhs_evaluations_traced(tracer.spans, rid) == (6202, 6202)
    assert exact
    assert m["dynamics.rhs_calls"] == 6202
    assert m["dynamics.accepted_steps"] == 886
    assert m["dynamics.rejected_steps"] == 0
    assert m["dynamics.rhs_per_step"] == pytest.approx(7.0, abs=0.01)
    assert m["dynamics.diag_evals_per_step"] == pytest.approx(4.0, abs=0.01)
    assert m["metrics.evals_per_curvature"] == 2.0
    assert 0.0 < m["dynamics.stop_overshoot"] < 1e-3


# ---------------------------------------------------------------------------
# the command line and BENCHMARK.json
# ---------------------------------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    assert run.tail(list(range(100))) == 89
    assert run.tail([3.0, 1.0, 2.0]) == 3.0


def test_times_are_the_fastest_repeats_of_each_key():
    # each stretch is fastest in some repeat, though no repeat was fastest throughout
    assert run.unit_time([4.0, 4.0], [[1.0, 3.0], [3.0, 1.0]]) == 2.0
    assert run.unit_time([4.0, 3.0], [[1.0, 3.0], [3.0]]) == 3.0
    assert run.kernel_time([[1.0, 3.0], [3.0, 2.0]]) == 1.5
    assert run.kernel_time([[1.0, 3.0], [0.5]]) == 0.5

    units = [
        bw.UnitResult(key=k, start_s=0.0, wall_s=w, queries=[(0.0, w), (0.0, w / 2)],
                      attempted=1, failed=0, digest="", ref_err=0.0)
        for k, w in ((0, 2.0), (0, 1.0), (1, 5.0), (1, 3.0), (0, 4.0))
    ]
    per_key = {0: 1.0, 1: 3.0}
    assert sorted(run.fastest_latencies(units, per_key)) == [0.5, 1.0, 1.5, 3.0]
    for u in units:
        u.queries = None
    assert run.fastest_latencies(units, per_key) == [1.0, 3.0]


def test_stamps_cut_units_alike_and_leave_out_the_kernel():
    w = bw.VerifyChecks(2)
    original = confgeo.MetricField.__dict__["__call__"]
    cuts = []
    for _ in range(2):
        with bt.Stamps() as stamps:
            r = w.unit(0)
        cuts.append(stamps.cut(r.start_s, r.wall_s))
    assert confgeo.MetricField.__dict__["__call__"] is original
    (a, kernel_a), (b, kernel_b) = cuts
    assert len(a) == len(b) > 100 and len(kernel_a) == len(kernel_b) > 10
    assert sum(b) + stamps.kernel_within(r.start_s, r.wall_s) == pytest.approx(r.wall_s)
    assert sum(b) + sum(kernel_b) < r.wall_s
    assert max(b) < 0.01 * r.wall_s


def test_a_unit_without_metric_evaluations_is_gauged_between_units():
    class NoEvals:
        MIN_UNITS = 2

        def unit(self, index):
            start = time.perf_counter()
            return bw.UnitResult(key=0, start_s=start, wall_s=time.perf_counter() - start,
                                 queries=None, attempted=1, failed=0, digest="", ref_err=0.0)

    results, stretches, kernels = run.run_units(NoEvals(), 1e-9, lambda share: None)
    assert len(results) == 2 and [len(s) for s in stretches] == [1, 1]
    assert [len(k) for k in kernels] == [bench_reference.BLOCK] * 2


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(bt.LAYER_METRICS)
    assert [w["name"] for w in SPEC["workloads"]] == list(bw.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def _run(*args, cwd):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric_as_last_line(trace):
    out = _run(
        "--workload", "curvature_field", "--seed", "5", "--seconds", "1", "--trace", trace,
        cwd=HERE.parent,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in spec
    ]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        record = json.loads((HERE / "runs" / "curvature_field.trace0.json").read_text())
        speed = bench_reference.REFERENCE_S / record["reference_s"]
        for name, measured in record["measured_times"].items():
            assert result["metrics"][name]["value"] == pytest.approx(measured * speed)


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = _run("--workload", "spiral_inward", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout
