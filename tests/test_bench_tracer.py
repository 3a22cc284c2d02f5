"""The benchmark's tracer (``benchmarks/bench_trace.py``, imported as it
is) around the spiral run and around one unit of each workload.

A traced benchmark result derives rejected steps from ``integrate``'s
public counters, counts RHS evaluations as ``propertime_rhs`` spans
directly under ``integrate`` and curvature evaluations as ``curvature``
spans.  A change to how ``integrate`` counts or routes its RHS or
curvature evaluations turns those figures into nulls, or empties the
curvature layer, in the benchmark's result line; this test shows it in
the library's own suite.
"""
import importlib
from pathlib import Path

import numpy as np
import pytest

from confgeo.verify import spiral_tracking_run

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def bench_trace(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return importlib.import_module("bench_trace")


def test_the_traced_spiral_run_gives_exact_layer_figures(bench_trace):
    bt = bench_trace
    with bt.Tracer() as tracer:
        with tracer.root() as root:
            traj, _, _ = spiral_tracking_run(t_end=0.7)
    spans = tracer.spans
    metrics, exact = bt.unit_layer_metrics(spans, bt.self_times(spans), root, {})
    assert exact
    assert [name for name, value in metrics.items() if value is None] == []

    stats = traj.stats
    traced, reported = bt.rhs_evaluations_traced(spans, root)
    assert traced == reported == stats["rhs_evaluations"]
    # every new point is one traced curvature() call
    assert metrics["curvature.calls"] == stats["curvature_evaluations"]

    # 1 first stage, 12 stages per step attempt, and one FSAL refresh per
    # accepted step whose renormalisation moved the state, except after
    # the step that met the stop condition
    moved = traj.projection[1:] > 0.0
    refreshes = int(np.count_nonzero(moved))
    if traj.status == "stopped" and moved[-1]:
        refreshes -= 1
    attempts = stats["accepted"] + stats["rejected"]
    assert stats["accepted"] > 0 and traj.status == "stopped"
    assert stats["rhs_evaluations"] == 1 + 12 * attempts + refreshes


@pytest.mark.parametrize("name", ["SpiralInward", "CurvatureField", "VerifyChecks"])
def test_a_traced_unit_gives_the_untraced_units_result(bench_trace, name):
    # run.py --trace 1's correctness rule on one unit of each workload:
    # the traced unit has the untraced one's digest, attempted and failed
    # counts, and its propertime_rhs spans under integrate match the RHS
    # evaluations integrate reported
    bt = bench_trace
    workload = getattr(importlib.import_module("bench_workloads"), name)(1)
    untraced = workload.unit(0)
    with bt.Tracer() as tracer:
        with tracer.root() as root:
            traced = workload.unit(0)
    assert (traced.digest, traced.attempted, traced.failed) == (
        untraced.digest,
        untraced.attempted,
        untraced.failed,
    )
    assert untraced.attempted > 0 and untraced.failed == 0
    traced_rhs, reported_rhs = bt.rhs_evaluations_traced(tracer.spans, root)
    assert traced_rhs == reported_rhs
    assert (reported_rhs > 0) == (name == "SpiralInward")
