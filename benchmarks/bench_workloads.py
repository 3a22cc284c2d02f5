"""Seeded workloads of the confgeo benchmark.

A workload turns (seed, unit index) into inputs, runs one unit of work
through confgeo's public functions and checks what came back.  Inputs
depend only on the seed and the unit index, never on how many units ran
before, so a traced rerun of unit i sees exactly the inputs of the
untraced unit i.  The library sees only the generated inputs.

Units with the same ``UnitResult.key`` do the same work, so their times
differ only by how much the machine's other tenants slowed them; run.py
takes the fastest of each key's repeats (see run.unit_time).  ``MIN_UNITS`` is
the number of units that runs every key once; where ``REPEATS_INPUTS``
is true, units of one key also repeat the same inputs and must give the
same results bit for bit.

Library functions are looked up on the ``confgeo`` package at call time
(``confgeo.curvature(...)``), so the tracer's patched names are the ones
the benchmark calls.
"""
from __future__ import annotations

import hashlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFGEO_INIT = SRC / "confgeo" / "__init__.py"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import confgeo  # noqa: E402

if Path(confgeo.__file__).resolve() != CONFGEO_INIT.resolve():
    raise ImportError(
        f"confgeo imported from {confgeo.__file__}, expected the checkout's {CONFGEO_INIT}"
    )


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


# Tolerances the library checks the same quantities with.  The primary
# ones are read from the check functions' signatures; check_proposition
# writes the others as literals, repeated here.
TRACKING_TOL = _default(confgeo.check_proposition, "tol")  # 1e-4
CURVATURE_TOL = _default(confgeo.check_lemma5, "tol")  # 1e-6
Z_EXCURSION_TOL = 1e-8
GAUGE_PROJECTION_TOL = 1e-6
ARC_OVER_CHORD_MIN = 10.0
CONTAINMENT_RADII = (0.8, 0.6, 0.4)

# Per-workload salts keep the inputs of different workloads apart.
_SALT = {"spiral_inward": 101, "curvature_field": 202, "verify_checks": 303}


def unit_rng(workload: str, seed: int, index: int):
    """Generator for one unit; depends only on its arguments."""
    return np.random.default_rng((_SALT[workload], seed, index))


@dataclass
class UnitResult:
    """What one unit did: timings, outcome counts and a result digest.

    ``digest`` covers every numerical result the unit checked, so two runs
    of the same unit agree on it exactly when they computed the same bits.
    The timed stretch began at ``start_s`` (``time.perf_counter``) and
    lasted ``wall_s``.  ``queries`` holds (start, seconds) of each of the
    unit's queries, one per slot: the i-th query of every unit of one key
    does the same work.  It is None where the query is the whole unit.
    """

    key: int
    start_s: float
    wall_s: float
    queries: list
    attempted: int
    failed: int
    digest: str
    ref_err: float
    extra: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# spiral_inward: the paper's integration, from the spiral's data inward
# ---------------------------------------------------------------------------


class SpiralInward:
    """spiral_tracking_run from t0 in [0.78, 0.82] inward to r = 0.2.

    The seed picks t0 once per run, so every unit repeats the same
    integration and its counters must repeat exactly.  Each unit builds
    its own MetricField, so that nothing a field might keep from one
    integration can speed up the next.
    """

    name = "spiral_inward"
    MIN_UNITS = 1
    REPEATS_INPUTS = True
    T_END = 0.2
    INTEGRATOR_TOL = 1e-10
    CURVATURE_STEP = _default(confgeo.spiral_tracking_run, "curvature_step")

    def __init__(self, seed: int):
        self.seed = seed
        self.t0 = float(unit_rng(self.name, seed, 0).uniform(0.78, 0.82))
        self.metric = confgeo.example_metric("cylindrical")

    def first_call(self):
        state = confgeo.from_unparametrized(self.metric, confgeo.spiral_state(self.t0))
        confgeo.propertime_rhs(self.metric, state, curvature_step=self.CURVATURE_STEP)

    def unit(self, index: int) -> UnitResult:
        start = time.perf_counter()
        traj, track_err, max_z = confgeo.spiral_tracking_run(
            t0=self.t0,
            t_end=self.T_END,
            integrator_tol=self.INTEGRATOR_TOL,
            metric=confgeo.example_metric("cylindrical"),
        )
        wall = time.perf_counter() - start

        notes = []
        if traj.status != "stopped":
            notes.append(f"status {traj.status}: {traj.message}")
        if not track_err <= TRACKING_TOL:
            notes.append(f"tracking error {track_err:.3e} > {TRACKING_TOL:g}")
        if not max_z <= Z_EXCURSION_TOL:
            notes.append(f"|z| excursion {max_z:.3e} > {Z_EXCURSION_TOL:g}")
        if not traj.max_projection <= GAUGE_PROJECTION_TOL:
            notes.append(f"gauge projection {traj.max_projection:.3e}")
        embed = traj.field.chart.embed
        chord = float(np.linalg.norm(embed(traj.states[-1].x) - embed(traj.states[0].x)))
        if not traj.arc_length[-1] >= ARC_OVER_CHORD_MIN * chord:
            notes.append("arc length does not dwarf the chord")
        report = confgeo.detect_spiral(traj, np.zeros(3), CONTAINMENT_RADII)
        if not report.spiral_consistent:
            notes.append("trajectory not containment-consistent with a spiral")

        r_final = float(traj.states[-1].x[0])
        return UnitResult(
            key=0,
            start_s=start,
            wall_s=wall,
            queries=None,
            attempted=1,
            failed=1 if notes else 0,
            digest=_digest(traj.positions(), traj.arc_length, traj.projection),
            ref_err=track_err,
            extra={
                "samples": len(traj),
                "rhs_evaluations": traj.rhs_evaluations,
                "stop_overshoot": self.T_END - r_final,
            },
            notes=notes,
        )


# ---------------------------------------------------------------------------
# curvature_field: pointwise curvature queries in both charts
# ---------------------------------------------------------------------------


class CurvatureField:
    """One sweep = curvature() at fresh points in both charts of the example metric.

    Off-plane points are stratified over r in [0.2, 1], phi in [-pi, pi)
    and z in [-0.5, 0.5] (one jittered point per cell), so every sweep
    covers the whole box and its error statistic is steady across seeds.
    A few on-plane points (z = 0) are checked against the exact
    Ricci = -2 h(r) M at check_lemma5's tolerance.  The points differ
    between sweeps but the work does not, so every sweep has key 0.
    """

    name = "curvature_field"
    MIN_UNITS = 1
    REPEATS_INPUTS = False
    STRATA = (4, 4, 4)  # r, phi, z
    ON_PLANE = 8
    BOX_LOW = np.array([0.2, -np.pi, -0.5])
    BOX_HIGH = np.array([1.0, np.pi, 0.5])

    def __init__(self, seed: int):
        self.seed = seed
        self.cylindrical = confgeo.example_metric("cylindrical")
        self.cartesian = confgeo.example_metric("cartesian")

    def points(self, index: int) -> np.ndarray:
        """Cylindrical (r, phi, z) points of one sweep; the first ON_PLANE have z = 0."""
        rng = unit_rng(self.name, self.seed, index)
        strata = np.array(self.STRATA)
        cells = np.stack(
            np.meshgrid(*[np.arange(n) for n in self.STRATA], indexing="ij"), axis=-1
        ).reshape(-1, 3)
        frac = (cells + rng.random(cells.shape)) / strata
        off_plane = self.BOX_LOW + frac * (self.BOX_HIGH - self.BOX_LOW)
        r = self.BOX_LOW[0] + (
            (np.arange(self.ON_PLANE) + rng.random(self.ON_PLANE)) / self.ON_PLANE
        ) * (self.BOX_HIGH[0] - self.BOX_LOW[0])
        phi = rng.uniform(-np.pi, np.pi, self.ON_PLANE)
        on_plane = np.stack([r, phi, np.zeros(self.ON_PLANE)], axis=-1)
        return np.concatenate([on_plane, off_plane])

    def first_call(self):
        p = np.array([0.5, 0.3, 0.1])
        confgeo.curvature(self.cylindrical, p)
        confgeo.curvature(self.cartesian, self.cylindrical.chart.embed(p))

    def _query(self, field_, point, queries):
        start = time.perf_counter()
        try:
            bundle = confgeo.curvature(field_, point)
        except Exception as exc:  # a raising query is a counted failure
            queries.append((start, time.perf_counter() - start))
            return None, f"curvature({field_.name}, {point}) raised {exc!r}"
        queries.append((start, time.perf_counter() - start))
        return bundle, None

    def unit(self, index: int) -> UnitResult:
        pts = self.points(index)
        queries, notes = [], []
        s_cyl = np.full(len(pts), np.nan)
        s_cart = np.full(len(pts), np.nan)
        ricci_dev = np.zeros(self.ON_PLANE)
        failed = 0
        start = time.perf_counter()
        h_on_plane = confgeo.h_profile(pts[: self.ON_PLANE, 0])
        cart_pts = self.cylindrical.chart.embed(pts)
        for i, p in enumerate(pts):
            cyl, err_cyl = self._query(self.cylindrical, p, queries)
            cart, err_cart = self._query(self.cartesian, cart_pts[i], queries)
            for err in (err_cyl, err_cart):
                if err is not None:
                    failed += 1
                    notes.append(err)
            if cyl is not None:
                s_cyl[i] = cyl.scalar
                if i < self.ON_PLANE:
                    exact = -2.0 * h_on_plane[i] * confgeo.m_covariant(p[0], 3)
                    ricci_dev[i] = np.max(np.abs(cyl.ricci - exact))
                    if not ricci_dev[i] <= CURVATURE_TOL:
                        failed += 1
                        notes.append(f"on-plane Ricci deviation {ricci_dev[i]:.3e} at r={p[0]}")
            if cart is not None:
                s_cart[i] = cart.scalar
        wall = time.perf_counter() - start

        # chart_err: per-point scalar-curvature disagreement relative to the
        # sweep's curvature scale; its 90th percentile is the sweep's figure
        # (the maximum over a sweep varies too much between seeds).
        ok = np.isfinite(s_cyl) & np.isfinite(s_cart)
        chart_err = np.nan
        if ok.any():
            rel = np.abs(s_cyl[ok] - s_cart[ok]) / np.max(np.abs(s_cyl[ok]))
            chart_err = float(np.quantile(rel, 0.9))
        return UnitResult(
            key=0,
            start_s=start,
            wall_s=wall,
            queries=queries,
            attempted=2 * len(pts),
            failed=failed,
            digest=_digest(s_cyl, s_cart, ricci_dev),
            ref_err=chart_err,
            extra={"max_on_plane_ricci_dev": float(ricci_dev.max())},
            notes=notes,
        )


# ---------------------------------------------------------------------------
# verify_checks: the seeded verification checks
# ---------------------------------------------------------------------------


class VerifyChecks:
    """One unit = run_checks for lemma1, lemma2, lemma3 and lemma5 at one check seed.

    The run's seed picks a list of CHECK_SEEDS check seeds and unit i
    takes the (i mod CHECK_SEEDS)-th, so every seed is repeated over the
    run (the costliest of eight seeds took 25% longer than the cheapest).
    'proposition' is left out: spiral_inward measures the same
    integration deeper.
    """

    name = "verify_checks"
    CHECK_SEEDS = 4
    MIN_UNITS = CHECK_SEEDS
    REPEATS_INPUTS = True
    CHECKS = ("lemma1", "lemma2", "lemma3", "lemma5")
    # (primary metric, its tolerance key) of each check's report
    PRIMARY = {
        "lemma1": ("max_wedge_residual", "residual"),
        "lemma2": ("max_unparam_residual", "residual"),
        "lemma3": ("max_forcing_residual_rel", "forcing_residual"),
        "lemma5": ("max_ricci_deviation", "curvature"),
    }

    def __init__(self, seed: int):
        self.seed = seed
        self.first_field = confgeo.RandomMetricSpec(seed=self.check_seed(0)).build()

    def check_seed(self, index: int) -> int:
        """Check seed of unit ``index``."""
        return int(unit_rng(self.name, self.seed, index % self.CHECK_SEEDS).integers(2**31))

    def first_call(self):
        confgeo.curvature(self.first_field, np.array([0.1, -0.2, 0.3]))

    def unit(self, index: int) -> UnitResult:
        seed = self.check_seed(index)
        notes, shares, wall_times = [], [], {}
        texts = []
        start = time.perf_counter()
        for name in self.CHECKS:
            (report,) = confgeo.run_checks(name, seed=seed)
            wall_times[f"{name}_s"] = report.wall_time_s
            texts.append(report.to_json())
            metric, tol_key = self.PRIMARY[name]
            shares.append(float(report.metrics[metric]) / float(report.tolerances[tol_key]))
            if not report.passed:
                notes.append(f"{name} failed at seed {seed}")
        wall = time.perf_counter() - start
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()[:16]
        return UnitResult(
            key=index % self.CHECK_SEEDS,
            start_s=start,
            wall_s=wall,
            queries=None,
            attempted=len(self.CHECKS),
            failed=len(notes),
            digest=digest,
            ref_err=max(shares),
            extra=wall_times,
            notes=notes,
        )


WORKLOADS = {w.name: w for w in (SpiralInward, CurvatureField, VerifyChecks)}
