"""The benchmark's correctness gates (``benchmarks/bench_workloads.py``,
imported as it is) in the library's own suite.

A benchmark run is refused when a unit reports a failure or notes, or
when units that repeat the same work give different digests.  These
tests run units of all three workloads, so such a refusal shows here
first.
"""
import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def bench_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return importlib.import_module("bench_workloads")


def test_a_spiral_inward_run_passes_its_checks_and_repeats(bench_workloads):
    # tracking, |z|, gauge projection, arc over chord and containment
    workload = bench_workloads.SpiralInward(1)
    first, again = workload.unit(0), workload.unit(1)
    assert first.failed == 0 and first.notes == []
    assert again.digest == first.digest


def test_a_curvature_field_sweep_passes_its_checks_and_repeats(bench_workloads):
    workload = bench_workloads.CurvatureField(1)
    first, again = workload.unit(0), workload.unit(0)
    assert first.failed == 0 and first.notes == []
    assert first.attempted == 2 * len(workload.points(0))
    assert again.digest == first.digest


def test_a_verify_checks_unit_passes_its_checks_and_repeats(bench_workloads):
    workload = bench_workloads.VerifyChecks(1)
    # unit CHECK_SEEDS takes the check seed of unit 0 again
    first, again = workload.unit(0), workload.unit(workload.CHECK_SEEDS)
    assert first.failed == 0 and first.notes == []
    assert first.attempted == len(workload.CHECKS)
    assert again.key == first.key and again.digest == first.digest
