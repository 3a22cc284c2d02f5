"""Run one workload of the confgeo benchmark and print its metrics.

    python3 benchmarks/run.py --workload spiral_inward --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload runs untraced, but for a clock read at
each metric evaluation (``bench_trace.Stamps``), and the end-to-end
metrics are reported.  With ``--trace 1`` each unit runs twice, untraced
and then with every public entry point wrapped in a span, and the
per-layer metrics are reported; the two passes must agree bit for bit.
Every line but the last is for people; the last line of standard output
is one JSON object with the keys correct, attempted, failed and
metrics.  A copy of the result (and, traced, the spans) is written
under benchmarks/runs/.

Everything runs in one single-threaded process: BLAS and OpenMP pools
are pinned to one thread before numpy loads.  Set-up time is measured
in fresh processes started one at a time, spread over the run.

Times are the fastest of repeated work (see ``unit_time``), scaled to
a reference speed by a fixed kernel timed between units
(``bench_reference``): other tenants of a shared machine slow one
thread by up to 2x, in spells of a fraction of a second to minutes, and
a median over a run moves with them.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# (name, unit); the order is the order of BENCHMARK.json's end_to_end list.
E2E_METRICS = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("query_p50_us", "us"),
    ("query_tail_us", "us"),
    ("peak_rss_mb", "MB"),
    ("ref_err", "1"),
)
SETUP_REPS = 7
WARMUP_S = 1.0
PROBE_TIMEOUT_S = 120


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def measure_setup(workload: str, seed: int) -> tuple:
    """(set-up seconds, the kernel's mean seconds just after) of one fresh
    process (``setup_probe.py``)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    setup, kernel = out.stdout.strip().splitlines()[-1].split()
    return float(setup), float(kernel)


def warm_up(w) -> int:
    """Repeat the workload's first call for WARMUP_S seconds; returns the count."""
    calls = 0
    start = time.perf_counter()
    while calls == 0 or time.perf_counter() - start < WARMUP_S:
        w.first_call()
        calls += 1
    return calls


def run_units(w, seconds: float, between) -> tuple:
    """Units 0, 1, ... until ``seconds`` have passed and every key has run.

    Each unit runs under ``bench_trace.Stamps``; a query's latency leaves
    out the kernel runs within it.  A unit that made no kernel run of
    its own is followed by ``bench_reference.BLOCK`` runs of the kernel.
    ``between(elapsed_share)`` is called after each unit with the share
    of ``seconds`` that has passed; its time is not counted in any unit.
    Returns (results, their stretches, their kernel seconds).
    """
    import bench_reference as ref
    import bench_trace as bt

    results, stretches, kernels = [], [], []
    start = time.perf_counter()
    while True:
        with bt.Stamps() as stamps:
            r = w.unit(len(results))
        cut, kernel = stamps.cut(r.start_s, r.wall_s)
        if r.queries is not None:
            r.queries = [(t, x - stamps.kernel_within(t, x)) for t, x in r.queries]
        if not kernel:
            for _ in range(ref.BLOCK):
                t = time.perf_counter()
                ref.kernel()
                kernel.append(time.perf_counter() - t)
        results.append(r)
        stretches.append(cut)
        kernels.append(kernel)
        elapsed = time.perf_counter() - start
        between(elapsed / seconds)
        if elapsed >= seconds and len(results) >= w.MIN_UNITS:
            return results, stretches, kernels


def fastest_slots(rows: list):
    """Each slot's fastest over rows (repeats), or None if their lengths differ."""
    if len({len(r) for r in rows}) != 1:
        return None
    return [min(column) for column in zip(*rows)]


def unit_time(walls: list, stretches: list) -> float:
    """Time of one unit from repeats of it: the sum of each stretch's fastest.

    Repeated work is never faster than the code allows, while the
    machine's other tenants slow any stretch of it, so the fastest
    repeat measures the code (the reasoning behind timeit's advice to
    take the minimum).  Stretches last a few milliseconds, far less than
    the spells in which the machine is slow, so each is fast in some
    repeat even when no whole repeat was.  If the repeats were not cut
    into the same number of stretches, the fastest wall time is returned.
    """
    fastest = fastest_slots(stretches)
    return min(walls) if fastest is None else math.fsum(fastest)


def kernel_time(kernels: list) -> float:
    """The reference kernel's time from the same repeats, taken alike:
    each run's fastest at its place in the unit, mean over places."""
    fastest = fastest_slots(kernels)
    return min(map(min, kernels)) if fastest is None else statistics.fmean(fastest)


def fastest_latencies(units: list, per_key: dict) -> list:
    """Each query slot's fastest latency over the units of its key.

    Where the query is the whole unit, the slots are the keys and their
    latencies the keys' unit times.
    """
    if units[0].queries is None:
        return list(per_key.values())
    slots = defaultdict(list)
    for u in units:
        for i, (_, x) in enumerate(u.queries):
            slots[(u.key, i)].append(x)
    return [min(v) for v in slots.values()]


def tail(latencies: list) -> float:
    """The highest percentile with at least ten samples beyond it.

    With ten samples or fewer no such percentile exists; the maximum is
    returned instead.
    """
    xs = sorted(latencies)
    return xs[-11] if len(xs) > 10 else xs[-1]


def tail_how(n: int) -> str:
    """How the tail of ``n`` latencies is taken, with the sample count."""
    if n > 10:
        return f"p{100.0 * (n - 10) / n:.1f} of {n} query slots"
    return f"the maximum of {n} query slots (10 or fewer)"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _failures(results) -> tuple:
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    notes = [n for r in results for n in r.notes]
    return attempted, failed, notes


def _repeat_mismatches(w, results) -> list:
    """Units of one key that repeat the same inputs must agree bit for bit."""
    if not w.REPEATS_INPUTS:
        return []
    digests = defaultdict(set)
    for r in results:
        digests[r.key].add(r.digest)
    return [f"repeats of key {k} gave different results" for k, d in digests.items() if len(d) > 1]


def end_to_end(w, args, out: dict) -> tuple:
    """Untraced pass: (metrics, attempted, failed, notes, mismatches)."""
    import bench_reference as ref

    setup = []

    def probe_setup(elapsed_share):
        # one fresh set-up whenever the run is due one, SETUP_REPS in all
        if len(setup) < min(SETUP_REPS, 1 + int(elapsed_share * SETUP_REPS)):
            setup.append(measure_setup(args.workload, args.seed))

    warm = warm_up(w)
    timed, stretches, kernels = run_units(w, args.seconds, probe_setup)
    while len(setup) < SETUP_REPS:
        setup.append(measure_setup(args.workload, args.seed))

    walls, cuts, kerns = defaultdict(list), defaultdict(list), defaultdict(list)
    for r, cut, kernel in zip(timed, stretches, kernels):
        walls[r.key].append(r.wall_s)
        cuts[r.key].append(cut)
        kerns[r.key].append(kernel)
    per_key = {k: unit_time(walls[k], cuts[k]) for k in walls}
    kernel_s = statistics.fmean(kernel_time(kerns[k]) for k in walls)
    speed = ref.REFERENCE_S / kernel_s
    latencies = fastest_latencies(timed, per_key)
    measured = {
        "solve_s": statistics.fmean(per_key.values()),
        "query_p50_us": statistics.median(latencies) * 1e6,
        "query_tail_us": tail(latencies) * 1e6,
    }
    metrics = {
        # each set-up is scaled by the kernel timed in its own process
        "setup_s": statistics.median(t * ref.REFERENCE_S / k for t, k in setup),
        **{name: value * speed for name, value in measured.items()},
        "peak_rss_mb": peak_rss_mb(),
        "ref_err": statistics.median(r.ref_err for r in timed),
    }
    attempted, failed, notes = _failures(timed)
    out.update(
        measured_times=measured,
        reference_s=kernel_s,
        setup_s_unscaled=statistics.median(t for t, _ in setup),
        units=len(timed),
        keys=len(per_key),
        stretches_per_unit=[len(s) for s in stretches],
        kernel_runs_per_unit=[len(k) for k in kernels],
        warmup_calls=warm,
        setup_times_s=setup,
        query_tail=tail_how(len(latencies)),
        unit_wall_s=[r.wall_s for r in timed],
        digests=[r.digest for r in timed],
        unit_extra=[r.extra for r in timed],
    )
    print(
        f"units: {len(timed)} timed ({len(per_key)} distinct) after {warm} warm-up calls; "
        f"set-up x{len(setup)} spread over the run"
    )
    print(
        f"times: each key's unit time is the sum over its {min(map(len, stretches))} to "
        f"{max(map(len, stretches))} stretches of their fastest over its repeats; "
        f"query p50 and tail over each slot's fastest ({tail_how(len(latencies))})"
    )
    print(
        f"reference kernel: {kernel_s * 1e6:.2f} us over {min(map(len, kernels))} to "
        f"{max(map(len, kernels))} runs per unit (reference {ref.REFERENCE_S * 1e6:.2f} us); "
        f"times scaled by {speed:.4f} from "
        + ", ".join(f"{k} {v:.6g}" for k, v in measured.items())
    )
    return metrics, attempted, failed, notes, _repeat_mismatches(w, timed)


def per_layer(w, args, out: dict) -> tuple:
    """Each unit untraced, then traced; same return as end_to_end."""
    import bench_trace as bt

    warm = warm_up(w)
    # Each unit runs untraced, then traced, so that drift of the machine's
    # speed during the run does not bias trace_overhead.
    tracer = bt.Tracer()
    untraced, traced, roots = [], [], []
    start = time.perf_counter()
    while len(untraced) < w.MIN_UNITS or time.perf_counter() - start < args.seconds:
        i = len(untraced)
        untraced.append(w.unit(i))
        with tracer, tracer.root() as rid:
            traced.append(w.unit(i))
        roots.append(rid)

    mismatches = _repeat_mismatches(w, untraced + traced)
    for i, (a, b) in enumerate(zip(untraced, traced)):
        if (a.digest, a.attempted, a.failed) != (b.digest, b.attempted, b.failed):
            mismatches.append(f"unit {i}: traced result differs from untraced")
    selfs = bt.self_times(tracer.spans)
    per_unit, exact = [], True
    for i, (rid, res) in enumerate(zip(roots, traced)):
        m, unit_exact = bt.unit_layer_metrics(tracer.spans, selfs, rid, res.extra)
        exact = exact and unit_exact
        per_unit.append(m)
        spans_rhs, reported_rhs = bt.rhs_evaluations_traced(tracer.spans, rid)
        if spans_rhs != reported_rhs:
            mismatches.append(f"unit {i}: {spans_rhs} rhs spans, integrate reported {reported_rhs}")
    metrics = bt.median_over_units(per_unit)
    # Each ratio compares two runs of one unit made one after the other,
    # so slow drift of the machine's speed cancels within a pair.
    metrics["trace_overhead"] = statistics.median(
        t.wall_s / u.wall_s for t, u in zip(traced, untraced)
    )
    spans_path = RUNS / f"{args.workload}.spans.jsonl.gz"
    tracer.write(spans_path)

    attempted, failed, notes = _failures(untraced + traced)
    out.update(
        units=len(traced),
        warmup_calls=warm,
        spans=len(tracer.spans),
        spans_file=str(spans_path.relative_to(ROOT)),
        rejected_steps_exact=exact,
        digests=[r.digest for r in traced],
        per_unit=per_unit,
    )
    print(
        f"units: {len(untraced)} each untraced then traced, after {warm} warm-up calls; "
        f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"
    )
    return metrics, attempted, failed, notes, mismatches


def _json_number(value):
    """The value, or None where JSON has no number for it (NaN after failures)."""
    if value is None or not math.isfinite(value):
        return None
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    init = ROOT / "src" / "confgeo" / "__init__.py"
    if not init.is_file():
        print(f"error: confgeo sources not found at {init}", file=sys.stderr)
        return 2
    import bench_trace as bt
    import bench_workloads as bw

    if args.workload not in bw.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(bw.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    env = environment()
    print(
        f"confgeo benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print(
        f"environment: nproc={env['nproc']} python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']} threads=1"
    )
    w = bw.WORKLOADS[args.workload](args.seed)
    w.first_call()
    if args.workload == "spiral_inward":
        print(f"inputs: t0={w.t0!r} -> r={w.T_END}")

    out = {"args": vars(args), "environment": env}
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, notes, mismatches = measure(w, args, out)
    units = dict(bt.LAYER_METRICS) if args.trace else dict(E2E_METRICS)
    correct = failed == 0 and not mismatches
    notes = notes + mismatches

    print(f"{'metric':32s} {'value':>16s}  unit")
    for name, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:32s} {shown:>16s}  {units[name]}")
    print(f"fail_frac: {failed}/{attempted} = {failed / attempted:.3g}")
    for note in notes[:20]:
        print(f"note: {note}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": _json_number(metrics[name]), "unit": units[name]} for name in units
        },
    }
    out["result"] = result
    out["notes"] = notes
    RUNS.mkdir(parents=True, exist_ok=True)
    (RUNS / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(out, indent=1, default=float) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
