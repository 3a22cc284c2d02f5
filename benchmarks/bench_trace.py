"""In-memory spans around confgeo's public entry points, and the per-layer
metrics computed from them.

The tracer replaces each traced function under every module-level name
in the ``confgeo`` package that refers to it (so ``dynamics`` and
``verify`` call the wrapper through their own imports), and two methods
on their classes.  Leaving the ``with`` block puts every original back.

A span is (id, parent, root, kind, start_ns, end_ns, extra, raised).
Ids are positions in ``Tracer.spans``; parent is -1 for a root span.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

import bench_reference as ref

# (module, function, span kind)
FUNCTIONS = (
    ("confgeo.curvature", "curvature", "curvature"),
    ("confgeo.dynamics", "propertime_rhs", "rhs"),
    ("confgeo.dynamics", "integrate", "integrate"),
    ("confgeo.dynamics", "wedge_form_residual", "residual"),
    ("confgeo.dynamics", "unparam_residual", "residual"),
    ("confgeo.dynamics", "unparam_residual_scale", "residual"),
    ("confgeo.spiral", "h_profile", "profile"),
    ("confgeo.spiral", "h_over_r2", "profile"),
)
# (module, class, method, span kind)
METHODS = (
    ("confgeo.metrics", "MetricField", "__call__", "eval"),
    ("confgeo.bivectors", "Bivector", "norm", "norm"),
)

ID, PARENT, ROOT, KIND, START, END, EXTRA, RAISED = range(8)


def _confgeo_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "confgeo" or name.startswith("confgeo."))
    ]


def _eval_extra(args, result):
    field_ = args[0]
    return result.size // (field_.dimension * field_.dimension)


def _curvature_extra(args, result):
    field_, point = args[0], args[1]
    return (field_.name, np.asarray(point, dtype=float).tobytes())


def _integrate_extra(args, result):
    """Public counters of one integration, and the rejected steps they imply.

    rhs = 1 (first stage) + 6 per full step attempt + 1 per accepted step
    whose renormalisation moved the state (FSAL is then recomputed),
    except after the step that met the stop condition.  A step attempt
    cut short by leaving the domain makes fewer than 6 calls, so the
    formula is exact only when no attempt was cut short; it also copies
    integrate's internal accounting, so ``exact_rejections`` checks what
    it can before a count is believed.
    """
    traj = result
    if traj.rhs_evaluations == 0:
        return {"accepted": 0, "rhs_evaluations": 0, "rejected": 0, "remainder": 0}
    accepted = len(traj) - 1
    moved = traj.projection[1:] > 0.0
    refreshes = int(np.count_nonzero(moved))
    if traj.status == "stopped" and accepted > 0 and moved[-1]:
        refreshes -= 1
    attempts, rest = divmod(traj.rhs_evaluations - 1 - refreshes, 6)
    return {
        "accepted": accepted,
        "rhs_evaluations": traj.rhs_evaluations,
        "rejected": attempts - accepted,
        "remainder": rest,
    }


EXTRAS = {"eval": _eval_extra, "curvature": _curvature_extra, "integrate": _integrate_extra}


class Tracer:
    """Context manager that records spans while confgeo's names are patched."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _open(self, kind):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self._stack[0] if self._stack else sid
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent, root, time.perf_counter_ns()

    def _close(self, opened, kind, raised, extra=None):
        end = time.perf_counter_ns()
        sid, parent, root, start = opened
        self._stack.pop()
        if callable(extra):
            extra = extra()  # computed after the clock stopped
        self.spans[sid] = (sid, parent, root, kind, start, end, extra, raised)

    @contextlib.contextmanager
    def root(self, kind="unit"):
        """Root span around one workload unit; yields its id."""
        opened = self._open(kind)
        raised = True
        try:
            yield opened[0]
            raised = False
        finally:
            self._close(opened, kind, raised)

    def _wrap(self, fn, kind):
        extra_fn = EXTRAS.get(kind)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = tracer._open(kind)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(opened, kind, True)
                raise
            if extra_fn is None:
                tracer._close(opened, kind, False)
            else:
                tracer._close(opened, kind, False, lambda: extra_fn(args, result))
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        try:
            modules = _confgeo_modules()
            for mod_name, attr, kind in FUNCTIONS:
                original = getattr(sys.modules[mod_name], attr)
                wrapper = self._wrap(original, kind)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, name, original))
                            setattr(m, name, wrapper)
            for mod_name, cls_name, attr, kind in METHODS:
                cls = getattr(sys.modules[mod_name], cls_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, kind))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, exc_type, exc, tb):
        self._restore()
        return False

    def _restore(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON line (gzip-compressed)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            for sid, parent, root, kind, start, end, extra, raised in self.spans:
                if kind == "curvature" and extra is not None:
                    extra = [extra[0], np.frombuffer(extra[1]).tolist()]
                out.write(
                    json.dumps([sid, parent, root, kind, start, end, extra, raised]) + "\n"
                )


class Stamps:
    """Clock reads at the start of every ``MetricField.__call__``, and the
    reference kernel (``bench_reference``) at every EVERY-th.

    The untraced run's only hook into the library.  The reads cut a unit
    into stretches of at most a few milliseconds, and units that repeat
    the same work cut into the same stretches, one for one, with the
    kernel runs at the same places; so the kernel gauges the machine's
    speed at the moments the stretches were timed.
    """

    def __init__(self):
        self.times = []  # clock read at each evaluation, after any kernel run
        # index in times -> (start, seconds of the timed kernel run, seconds of both)
        self.kernel = {}
        self._original = None

    def __enter__(self):
        cls = sys.modules["confgeo.metrics"].MetricField
        original = self._original = cls.__dict__["__call__"]
        times, kernel = self.times, self.kernel

        @functools.wraps(original)
        def stamped(*args, **kwargs):
            now = time.perf_counter()
            if len(times) % ref.EVERY == ref.EVERY - 1:
                ref.kernel()  # warms the caches the unit has cooled
                warm = time.perf_counter()
                ref.kernel()
                after = time.perf_counter()
                kernel[len(times)] = (now, after - warm, after - now)
                now = after
            times.append(now)
            return original(*args, **kwargs)

        cls.__call__ = stamped
        return self

    def __exit__(self, exc_type, exc, tb):
        sys.modules["confgeo.metrics"].MetricField.__call__ = self._original
        return False

    def cut(self, start, wall):
        """(stretches, kernel seconds) of the unit timed over [start, start + wall].

        A stretch runs from one clock read to the next, less the kernel
        runs in it, if any.  The kernel seconds are those of the second
        of each pair of runs.
        """
        end = start + wall
        inside = [i for i, t in enumerate(self.times) if start <= t <= end]
        stretches = np.diff([start, *(self.times[i] for i in inside), end])
        kernel_s = []
        for k, i in enumerate(inside):
            if i in self.kernel:
                _, timed, both = self.kernel[i]
                stretches[k] -= both
                kernel_s.append(timed)
        return stretches.tolist(), kernel_s

    def kernel_within(self, start, seconds):
        """Seconds of kernel runs in [start, start + seconds]."""
        return sum(both for t, _, both in self.kernel.values() if start <= t <= start + seconds)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (name, unit); the order is the order of BENCHMARK.json's per_layer list.
LAYER_METRICS = (
    ("metrics.eval_calls", "count"),
    ("metrics.eval_points", "count"),
    ("metrics.eval_self_s", "s"),
    ("metrics.evals_per_curvature", "ratio"),
    ("spiral.profile_calls", "count"),
    ("spiral.profile_self_s", "s"),
    ("curvature.calls", "count"),
    ("curvature.self_s", "s"),
    ("curvature.self_us_per_call", "us"),
    ("curvature.fd_share", "ratio"),
    ("curvature.unique_point_ratio", "ratio"),
    ("dynamics.accepted_steps", "count"),
    ("dynamics.rejected_steps", "count"),
    ("dynamics.rhs_calls", "count"),
    ("dynamics.rhs_self_s", "s"),
    ("dynamics.rhs_per_step", "ratio"),
    ("dynamics.diag_evals_per_step", "ratio"),
    ("dynamics.integrate_self_s", "s"),
    ("dynamics.stop_overshoot", "1"),
    ("dynamics.residual_calls", "count"),
    ("dynamics.residual_self_s", "s"),
    ("bivectors.calls", "count"),
    ("bivectors.self_s", "s"),
    ("verify.lemma1_s", "s"),
    ("verify.lemma2_s", "s"),
    ("verify.lemma3_s", "s"),
    ("verify.lemma5_s", "s"),
    ("trace_overhead", "ratio"),
)


def self_times(spans):
    """Self time in seconds of every span: its duration minus its children's."""
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [(s[END] - s[START] - c) * 1e-9 for s, c in zip(spans, child)]


def _has_ancestor(spans, s, kind):
    p = s[PARENT]
    while p >= 0:
        if spans[p][KIND] == kind:
            return True
        p = spans[p][PARENT]
    return False


def _ratio(num, den):
    return num / den if den else 0.0


def unit_layer_metrics(spans, selfs, root_id, unit_extra):
    """Per-layer figures of the unit under root span ``root_id``.

    Returns (metrics, exact): ``exact`` is False when the rejected-step
    count could not be derived exactly from the public counters.
    """
    mine = [s for s in spans if s[ROOT] == root_id and s[ID] != root_id]
    wall = (spans[root_id][END] - spans[root_id][START]) * 1e-9
    by_kind = defaultdict(list)
    for s in mine:
        by_kind[s[KIND]].append(s)

    def self_sum(kind):
        return sum(selfs[s[ID]] for s in by_kind[kind])

    evals = by_kind["eval"]
    curv = by_kind["curvature"]
    integ = [s for s in by_kind["integrate"] if s[EXTRA] is not None]
    accepted = sum(s[EXTRA]["accepted"] for s in integ)
    rhs_in_integrate = [s for s in by_kind["rhs"] if spans[s[PARENT]][KIND] == "integrate"]
    diag_evals = [s for s in evals if spans[s[PARENT]][KIND] == "integrate"]
    exact = exact_rejections(integ, rhs_in_integrate)
    profile_outer = [s for s in by_kind["profile"] if spans[s[PARENT]][KIND] != "profile"]

    m = {
        "metrics.eval_calls": len(evals),
        "metrics.eval_points": sum(s[EXTRA] or 0 for s in evals),
        "metrics.eval_self_s": self_sum("eval"),
        "metrics.evals_per_curvature": _ratio(
            sum(1 for s in evals if _has_ancestor(spans, s, "curvature")), len(curv)
        ),
        "spiral.profile_calls": len(profile_outer),
        "spiral.profile_self_s": self_sum("profile"),
        "curvature.calls": len(curv),
        "curvature.self_s": self_sum("curvature"),
        "curvature.self_us_per_call": _ratio(self_sum("curvature") * 1e6, len(curv)),
        "curvature.fd_share": _ratio(self_sum("curvature"), wall),
        "curvature.unique_point_ratio": _ratio(
            len({s[EXTRA] for s in curv if s[EXTRA] is not None}), len(curv)
        ),
        "dynamics.accepted_steps": accepted,
        "dynamics.rejected_steps": sum(s[EXTRA]["rejected"] for s in integ) if exact else None,
        "dynamics.rhs_calls": len(by_kind["rhs"]),
        "dynamics.rhs_self_s": self_sum("rhs"),
        "dynamics.rhs_per_step": _ratio(len(rhs_in_integrate), accepted),
        "dynamics.diag_evals_per_step": _ratio(len(diag_evals), accepted),
        "dynamics.integrate_self_s": self_sum("integrate"),
        "dynamics.stop_overshoot": unit_extra.get("stop_overshoot", 0.0),
        "dynamics.residual_calls": len(by_kind["residual"]),
        "dynamics.residual_self_s": self_sum("residual"),
        "bivectors.calls": len(by_kind["norm"]),
        "bivectors.self_s": self_sum("norm"),
    }
    for lemma in ("lemma1", "lemma2", "lemma3", "lemma5"):
        m[f"verify.{lemma}_s"] = unit_extra.get(f"{lemma}_s", 0.0)
    return m, exact


def exact_rejections(integrate_spans, rhs_spans):
    """Whether the rejected-step counts of these integrations can be believed.

    Each integration's formula must divide evenly and give no negative
    count, no stage may have raised, and the propertime_rhs spans traced
    directly under each integration must number its rhs_evaluations.
    """
    traced = defaultdict(int)
    for s in rhs_spans:
        traced[s[PARENT]] += 1
    return not any(s[RAISED] for s in rhs_spans) and all(
        s[EXTRA]["remainder"] == 0
        and s[EXTRA]["rejected"] >= 0
        and traced[s[ID]] == s[EXTRA]["rhs_evaluations"]
        for s in integrate_spans
    )


def rhs_evaluations_traced(spans, root_id):
    """(propertime_rhs spans under integrate, rhs_evaluations integrate reported)."""
    traced = reported = 0
    for s in spans:
        if s[ROOT] != root_id:
            continue
        if s[KIND] == "rhs" and spans[s[PARENT]][KIND] == "integrate":
            traced += 1
        elif s[KIND] == "integrate" and s[EXTRA] is not None:
            reported += s[EXTRA]["rhs_evaluations"]
    return traced, reported


def median_over_units(per_unit):
    """Median of each metric across units; None stays None if any unit had it."""
    out = {}
    for name, _ in LAYER_METRICS:
        if name == "trace_overhead":
            continue
        values = [m[name] for m in per_unit]
        out[name] = None if any(v is None for v in values) else statistics.median(values)
    return out
