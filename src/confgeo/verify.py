"""Executable verification suite.

Each check_* function reproduces one mathematical claim of the
construction as a pass/fail report with explicit tolerances, seeded
random instances where randomness is involved, and a deliberately
broken input that must be flagged (so a vacuous pass cannot slip
through).  Reports serialize to stable JSON: identical seeds and
tolerances give byte-identical JSON (wall time is reported only in the
human-readable rendering).

Each check runs one fixed configuration (its sample sizes are reported
as metrics) and evaluates its points as one stack: one ``curvature``
call over the points of one MetricField (lemma3, lemma5 and the
proposition's identity sweep), or one curvature kernel evaluation over
the jets of lemma1's and lemma2's many random metrics.  The stacked
bundle goes, with the stacked states, to one call of the RHS and of
each residual (``field=None`` where a check has no MetricField).
lemma1 and lemma2 take their random draws first, in the generator's
order (metric seed, state, speeds, control directions), each run of
like draws as one generator call, which leaves every value at its
stream position: the directions of u and a are one block of normals, a
reparametrization's three speeds one block of uniforms taken to their
bounds afterwards, a metric's coefficients one block.  They then build
all their random metrics, jets and states as one stack through the
polynomial metric's kernels, without a MetricField; the jet's g also
normalises the states.  The kernels give each instance of a stack the
bits a one-instance evaluation gives it, so the draws and the reports
are the same as when each instance was drawn, built and evaluated on
its own.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bivectors import _max_abs, _wedge
from .curvature import _curvature_kernel, curvature, kulkarni_nomizu, metric_derivatives
from .dynamics import (
    GeodesicState,
    Trajectory,
    UnparamState,
    _pow,
    _quadratic,
    _raise_index,
    arc_length,
    detect_spiral,
    from_unparametrized,
    integrate,
    propertime_rhs,
    unparam_residual,
    unparam_residual_scale,
    wedge_form_residual,
)
from .metrics import (
    MetricField,
    _jet_tables,
    _monomials,
    _polynomial_jet,
    _polynomial_values,
    flat_cylindrical_metric,
    flat_polar_metric,
    polynomial_metric,
)
from .spiral import (
    example_metric,
    h_profile,
    k_exact,
    m_covariant,
    spiral_acceleration,
    spiral_acceleration_dot,
    spiral_point,
    spiral_state,
    spiral_velocity,
)


@dataclass(frozen=True)
class CheckReport:
    name: str
    status: str  # "pass" | "fail"
    metrics: dict
    tolerances: dict
    seed: Optional[int]
    wall_time_s: float
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        # Wall time intentionally excluded: JSON output is byte-identical
        # for identical (seed, tolerances).
        return {
            "name": self.name,
            "status": self.status,
            "metrics": {k: _plain(v) for k, v in sorted(self.metrics.items())},
            "seed": self.seed,
            "tolerances": {k: _plain(v) for k, v in sorted(self.tolerances.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"check {self.name}: {self.status.upper()}"]
        if self.seed is not None:
            lines.append(f"  seed: {self.seed}")
        for key in sorted(self.tolerances):
            lines.append(f"  tolerance {key}: {self.tolerances[key]:.3e}")
        for key in sorted(self.metrics):
            val = self.metrics[key]
            if isinstance(val, float):
                lines.append(f"  {key}: {val:.6e}")
            else:
                lines.append(f"  {key}: {val}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append(f"  wall time: {self.wall_time_s:.2f} s")
        return "\n".join(lines) + "\n"


def _plain(value):
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    return value


def _report(name, passed, metrics, tolerances, seed, t_start, notes=()):
    return CheckReport(
        name=name,
        status="pass" if passed else "fail",
        metrics=metrics,
        tolerances=tolerances,
        seed=seed,
        wall_time_s=time.perf_counter() - t_start,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _monomial_exponents(dimension: int, degree: int) -> np.ndarray:
    """Exponent tuples of total degree <= ``degree``, one row each; the
    array is shared between calls and read-only."""
    exps = []

    def rec(prefix, remaining):
        if len(prefix) == dimension:
            exps.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    rec([], degree)
    out = np.array(exps, dtype=int)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def _grid_monomials(dimension: int, degree: int) -> np.ndarray:
    """The monomials of ``_monomial_exponents(dimension, degree)`` at the
    5^dimension points of the positivity grid on [-1, 1]^dimension, shape
    (5^dimension, m); shared between calls and read-only."""
    grid_1d = np.linspace(-1.0, 1.0, 5)
    grid = np.stack(
        np.meshgrid(*([grid_1d] * dimension), indexing="ij"), axis=-1
    ).reshape(-1, dimension)
    out = _monomials(grid, _monomial_exponents(dimension, degree))
    out.flags.writeable = False
    return out


# Every eigenvalue of a random metric exceeds this on [-1, 1]^n.
_MIN_EIGENVALUE = 0.05
# Each coefficient of a random metric is at most this in size, which keeps
# the whole perturbation well inside the positive-definite region.
_AMPLITUDE = 0.015


def _positive_on_grid(coefs: np.ndarray, dimension: int, degree: int) -> bool:
    """Whether every eigenvalue of g exceeds _MIN_EIGENVALUE at every point
    of the 5^dimension grid on [-1, 1]^dimension, for the polynomial metric
    with exponents ``_monomial_exponents(dimension, degree)`` and these
    coefficients: g - _MIN_EIGENVALUE I has a Cholesky factor exactly when
    it is positive definite, so one batched factorisation makes the test."""
    g = _polynomial_values(_grid_monomials(dimension, degree), coefs)
    try:
        np.linalg.cholesky(g - _MIN_EIGENVALUE * np.eye(dimension))
    except np.linalg.LinAlgError:
        return False
    return True


def _gershgorin_bound(coefs: np.ndarray) -> np.ndarray:
    """A lower bound on every eigenvalue of g = I + sum_k c[k] x^e[k] on the
    whole box [-1, 1]^n, from the coefficients (..., m, n, n) alone: each
    |x^e| <= 1 there, so by Gershgorin's theorem every eigenvalue is at
    least min_i (1 - sum_j sum_k |c[k, i, j]|)."""
    return 1.0 - np.abs(coefs).sum(axis=(-3, -1)).max(axis=-1)


def _symmetrized(coefs):
    return 0.5 * (coefs + coefs.swapaxes(-1, -2))


def _amplitude_scaled(u):
    """Uniform draws ``u`` in [0, 1) taken to [-_AMPLITUDE, _AMPLITUDE), by
    the low + (high - low) u that ``Generator.uniform`` applies."""
    return -_AMPLITUDE + (_AMPLITUDE - -_AMPLITUDE) * u


def _random_coefficients(seeds, dimension: int) -> np.ndarray:
    """The coefficients (len(seeds), m, n, n) of the cubic perturbation that
    ``RandomMetricSpec(seed, dimension)`` builds, one table per seed.

    Each seed's generator draws tables until one is positive: a draw is
    accepted when its Gershgorin bound exceeds twice _MIN_EIGENVALUE, a
    margin no rounding can cross, and otherwise only when it passes
    ``_positive_on_grid``; so the bound accepts only draws the grid test
    accepts.  The first draws of all seeds are scaled and bounded as one
    stack.
    """
    size = (len(_monomial_exponents(dimension, 3)), dimension, dimension)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    coefs = _symmetrized(
        _amplitude_scaled(np.array([rng.random(size) for rng in rngs]))
    )
    for i in np.flatnonzero(_gershgorin_bound(coefs) <= 2.0 * _MIN_EIGENVALUE):
        draws = 1
        while not _positive_on_grid(coefs[i], dimension, 3):
            if draws == 50:
                raise RuntimeError("could not sample a positive-definite metric")
            coefs[i] = _symmetrized(_amplitude_scaled(rngs[i].random(size)))
            draws += 1
    return coefs


@dataclass(frozen=True)
class RandomMetricSpec:
    """Flat metric plus a seeded cubic polynomial perturbation, PD on the
    unit box."""

    seed: int
    dimension: int = 3

    def build(self) -> MetricField:
        return polynomial_metric(
            _monomial_exponents(self.dimension, 3),
            _random_coefficients([self.seed], self.dimension)[0],
            self.dimension,
            name=f"random(seed={self.seed})",
        )


def _metric_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**63))


def random_metric(rng: np.random.Generator) -> MetricField:
    return RandomMetricSpec(seed=_metric_seed(rng)).build()


def _draw_state(rng: np.random.Generator, dimension: int):
    """The draws of one random proper-time state, in their order: x, the
    directions of u and a (one block of 2 n normals), and the g-length
    of a."""
    x = rng.uniform(-0.6, 0.6, size=dimension)
    directions = rng.standard_normal(2 * dimension)
    return x, directions[:dimension], directions[dimension:], rng.uniform(0.3, 1.5)


def _gauge_normalised(g, u, a, scale):
    """(u, a) with |u|_g = 1 and a g-orthogonal to u with |a|_g = scale;
    for one instance or a stack."""
    u = u / np.sqrt(_quadratic(u, g, u))[..., None]
    a = a - _quadratic(a, g, u)[..., None] * u
    return u, a * (scale / np.sqrt(_quadratic(a, g, a)))[..., None]


def random_gauge_state(field: MetricField, rng: np.random.Generator) -> GeodesicState:
    """Random proper-time state in [-0.6, 0.6]^n: |u|_g = 1 and g(u, a) = 0
    by construction."""
    x, u, a, scale = _draw_state(rng, field.dimension)
    u, a = _gauge_normalised(field(x), u, a, scale)
    return GeodesicState(x=x, u=u, a=a)


def _orthogonalised(g, u, w):
    """w made g-orthogonal to u and of unit g-length; for one instance or a
    stack."""
    w = w - (_quadratic(w, g, u) / _quadratic(u, g, u))[..., None] * u
    return w / np.sqrt(_quadratic(w, g, w))[..., None]


def _orthogonal_direction(g, u, rng):
    return _orthogonalised(g, u, rng.standard_normal(len(u)))


def _random_stack(seeds, states):
    """(x, u, a, (g, dg, d2g)) of the random instances with these metric
    seeds and ``_draw_state`` draws, evaluated as one stack: instance i
    gets the bits of ``random_gauge_state(RandomMetricSpec(seeds[i]).build(),
    ...)`` and of that metric's jet at its x, with no MetricField built.
    The jet's g has the bits of the metric's own evaluation, so it also
    normalises the states."""
    x, u, a, scale = (np.array(d) for d in zip(*states))
    exps = _monomial_exponents(x.shape[-1], 3)
    coefs = _random_coefficients(seeds, x.shape[-1])
    jet = _polynomial_jet(x, *_jet_tables(exps, coefs))
    u, a = _gauge_normalised(jet[0], u, a, scale)
    return x, u, a, jet


def _lemma1_instances(rng, trials):
    """(x, u, a, jet, w) of lemma1's random instances, drawn in the
    generator's order (metric, state, control direction w) and evaluated
    as one stack; w is the raw draw."""
    seeds, states, directions = [], [], []
    for _ in range(trials):
        seeds.append(_metric_seed(rng))
        states.append(_draw_state(rng, 3))
        directions.append(rng.standard_normal(3))
    return *_random_stack(seeds, states), np.array(directions)


# lemma2's speeds (lam0, lam1, lam2) are drawn uniform on these bounds,
# lam0 on the log scale (ds/dt in [0.2, 5]).
_SPEED_LOW = np.array([np.log(0.2), -1.0, -1.0])
_SPEED_HIGH = np.array([np.log(5.0), 1.0, 1.0])


def _lemma2_instances(rng, trials, reparams):
    """(x, u, a, jet, speeds, w) of lemma2's random instances, drawn in the
    generator's order (metric, state, then each reparametrization's speeds
    (lam0, lam1, lam2) and control direction w) and evaluated as one stack;
    speeds and w are (trials, reparams, ...) and w is the raw draw.  Each
    reparametrization takes its three speeds as one block of uniforms on
    [0, 1), all taken to their bounds afterwards as ``Generator.uniform``
    takes each one."""
    seeds, states, uniforms, directions = [], [], [], []
    for _ in range(trials):
        seeds.append(_metric_seed(rng))
        states.append(_draw_state(rng, 3))
        for _ in range(reparams):
            uniforms.append(rng.random(3))
            directions.append(rng.standard_normal(3))
    uniforms = np.array(uniforms).reshape(trials, reparams, 3)
    speeds = _SPEED_LOW + (_SPEED_HIGH - _SPEED_LOW) * uniforms
    speeds[..., 0] = np.exp(speeds[..., 0])
    return (
        *_random_stack(seeds, states),
        speeds,
        np.array(directions).reshape(trials, reparams, 3),
    )


# ---------------------------------------------------------------------------
# check 'lemma1': wedge form of the proper-time equation
# ---------------------------------------------------------------------------


def check_lemma1(seed: int = 42, tol: float = 1e-9) -> CheckReport:
    """Equivalence of the proper-time equation and its wedge form.

    For 100 seeded random (metric, state) pairs, (a) the wedge-form
    residual of the equation's right-hand side vanishes, and (b) reconstructing
    the acceleration derivative from the wedge form's tangential
    completion c = -|a|^2 - u.L^u reproduces the right-hand side.

    Every instance's draws are taken first, in the generator's order
    (metric, state, control direction); the instances are then built as
    one stack (``_random_stack``), and one curvature kernel evaluation
    over the stack of jets serves the right-hand side,
    both residuals and the converse of all instances at once, and each
    instance gets the bits a single-instance evaluation gives it.  The
    converse's independence is its own contraction of the same
    curvature, not a second one.
    """
    t0 = time.perf_counter()
    trials = 100
    x, u, a, jet, directions = _lemma1_instances(np.random.default_rng(seed), trials)
    bundle = _curvature_kernel(x, *jet)
    g, ginv, gamma = bundle.metric, bundle.inverse_metric, bundle.christoffel
    L = bundle.schouten
    state = GeodesicState(x, u, a)
    _, _, da = propertime_rhs(None, state, bundle=bundle)
    res = wedge_form_residual(None, state, da, bundle=bundle).norm(g)

    c = -_quadratic(a, g, a) - _quadratic(u, L, u)
    da_converse = (
        -np.einsum("...mab,...a,...b->...m", gamma, u, a)
        + c[:, None] * u
        + _raise_index(ginv, L, u)
    )
    dev = np.abs(da - da_converse).max(axis=-1) / np.maximum(
        1.0, np.abs(da).max(axis=-1)
    )

    controls = _orthogonalised(g, u, directions)
    perturbed = da + 1e-3 * controls
    res_neg = wedge_form_residual(None, state, perturbed, bundle=bundle).norm(g)

    max_residual = float(np.max(res, initial=0.0))
    max_converse = float(np.max(dev, initial=0.0))
    min_negative = float(np.min(res_neg, initial=np.inf))
    passed = max_residual <= tol and max_converse <= 1e-12 and min_negative > tol
    return _report(
        "lemma1",
        passed,
        {
            "trials": trials,
            "max_wedge_residual": max_residual,
            "max_converse_deviation": max_converse,
            "min_negative_control_residual": min_negative,
        },
        {"residual": tol, "converse": 1e-12},
        seed,
        t0,
    )


# ---------------------------------------------------------------------------
# check 'lemma2': reparametrization invariance
# ---------------------------------------------------------------------------


def _reparametrized(st, du, da, lam0, lam1, lam2):
    """State and db for the same curve traversed with speed lam0 = ds/dt.

    ``du`` and ``da`` are the proper-time right-hand side's derivatives
    of u and a at ``st``.  The state, the derivatives and the speeds may
    be stacks that broadcast together.
    """
    u, a = st.u, st.a
    v = lam0 * u
    b = lam1 * u + _pow(lam0, 2) * a
    db = lam2 * u + lam1 * lam0 * du + 2.0 * lam0 * lam1 * a + _pow(lam0, 3) * da
    return UnparamState(x=st.x, v=v, b=b, t=0.0), db


def check_lemma2(seed: int = 43, tol: float = 1e-8) -> CheckReport:
    """Reparametrization invariance of the unparametrized wedge equation.

    The conformal geodesic data of 50 seeded random (metric, state)
    pairs is rebuilt under 5 random parameter changes each, with speeds
    ds/dt in [0.2, 5]; the unparametrized residual must stay zero and
    the identity v ^ b = |v|^3 u ^ a must hold.  Every instance's
    draws are taken first, in the generator's order (metric, state, then
    each reparametrization's speeds and control direction); the
    instances are built as one stack over (trials, 1), and one curvature
    kernel evaluation over that stack of jets then serves every
    reparametrization of every instance: the states over
    (trials, reparams) broadcast against it.
    """
    t0 = time.perf_counter()
    trials, reparams = 50, 5
    x, u, a, jet, speeds, directions = _lemma2_instances(
        np.random.default_rng(seed), trials, reparams
    )
    # over (trials, 1): the reparametrizations broadcast against them
    x, u, a, *jet = (arr[:, None] for arr in (x, u, a, *jet))
    bundle = _curvature_kernel(x, *jet)
    state = GeodesicState(x, u, a)
    _, du, da = propertime_rhs(None, state, bundle=bundle)

    lam0, lam1, lam2 = (speeds[..., k, None] for k in range(3))
    ust, db = _reparametrized(state, du, da, lam0, lam1, lam2)
    v, b, g = ust.v, ust.b, bundle.metric
    w = _orthogonalised(g, v, directions)

    res = unparam_residual(None, ust, db, bundle=bundle).norm(g)

    speed = np.sqrt(np.maximum(_quadratic(v, g, v), 0.0))
    lhs = _wedge(v, b)
    rhs = _pow(speed, 3)[..., None, None] * _wedge(u, a)
    identity = _max_abs(lhs - rhs) / np.maximum(_max_abs(rhs), 1e-300)

    res_neg = unparam_residual(None, ust, db + 1e-3 * w, bundle=bundle).norm(g)

    max_residual = float(np.max(res, initial=0.0))
    max_identity = float(np.max(identity, initial=0.0))
    min_negative = float(np.min(res_neg, initial=np.inf))
    passed = max_residual <= tol and max_identity <= 1e-12 and min_negative > tol
    return _report(
        "lemma2",
        passed,
        {
            "trials": trials,
            "reparametrizations": reparams,
            "max_unparam_residual": max_residual,
            "max_wedge_identity_deviation": max_identity,
            "min_negative_control_residual": min_negative,
        },
        {"residual": tol, "wedge_identity": 1e-12},
        seed,
        t0,
    )


# ---------------------------------------------------------------------------
# check 'lemma3': the forcing function and infinite length
# ---------------------------------------------------------------------------

FLATNESS_GRID = (0.2, 0.15, 0.1, 0.07, 0.05)


def forcing_residual_relative(t, k_override=None):
    """Relative residual of nabla_v(v^b/|v|^3) = k (v^M^v)/|v| on the flat plane.

    ``t`` is a spiral parameter in (0, 1] or an array of them; an array
    is evaluated as one stack (one ``curvature`` call) and gives one
    residual per entry, each with the bits of a scalar call.
    """
    fld = flat_polar_metric()
    t = np.asarray(t, dtype=float)
    if not np.all((t > 0.0) & (t <= 1.0)):
        raise ValueError("spiral parameter must lie in (0, 1]")
    x = spiral_point(t, 2)
    v, b = spiral_velocity(t, 2), spiral_acceleration(t, 2)
    db = spiral_acceleration_dot(t, 2)
    kfun = k_override if k_override is not None else k_exact
    L = np.asarray(kfun(t))[..., None, None] * m_covariant(t, 2)

    bundle = dataclasses.replace(curvature(fld, x), schouten=L)
    state = UnparamState(x, v, b)
    res = unparam_residual(fld, state, db, bundle=bundle).max_abs()
    return res / unparam_residual_scale(fld, state, db, bundle=bundle)


def flatness_table() -> np.ndarray:
    """Table T[n-1, i] = |k(t_i)| / t_i^n over FLATNESS_GRID, n = 1..8."""
    ts = np.asarray(FLATNESS_GRID, float)
    kv = np.abs(k_exact(ts))
    return np.array([kv / ts**n for n in range(1, 9)])


def check_lemma3(tol: float = 1e-9, seed: Optional[int] = None) -> CheckReport:
    """The forcing identity, flatness of k at 0, and infinite length.

    The forcing identity is evaluated at 50 spiral parameters in
    [0.3, 1], as one stack.
    Flatness is certified against its leading-term oracle e^(-1/t)/t:
    |k| must match the oracle closely on the sample grid, decrease with
    t on the tail t <= 0.1 for every power weight t^-n with n <= 8, and
    be far below any fixed power at the smallest sample.  The weighted
    sequence |k(t)|/t^n is *not* monotone over the full sample grid for
    n >= 5 (it peaks near t = 1/(n+1)); the violation count is reported
    as a metric for reference.
    """
    t0 = time.perf_counter()
    grid_points = 50
    ts = np.linspace(0.3, 1.0, grid_points)
    residuals = forcing_residual_relative(ts)
    max_residual = float(residuals.max())

    # flatness against the leading-term oracle
    grid = np.array(FLATNESS_GRID)
    kv = np.abs(k_exact(grid))
    oracle = 1.0 / (grid * spiral_point(grid, 2)[:, 1])  # e^(-1/t)/t = 1/(t phi)
    oracle_dev = float(np.max(np.abs(kv / oracle - 1.0)))
    table = flatness_table()
    tail = table[:, 2:]  # t in {0.1, 0.07, 0.05}
    tail_decreasing = bool(np.all(np.diff(tail, axis=1) < 0.0))
    monotone_violations = int(np.sum(np.diff(table, axis=1) >= 0.0))
    k_small = float(np.abs(k_exact(0.05)))

    # infinite-length evidence: length(t -> 1) >= log(1/t)
    fld = flat_polar_metric()
    length_ok = True
    lengths = {}
    for t_low in (0.5, 0.2, 0.1):
        res = arc_length(
            fld,
            lambda t: spiral_point(t, 2),
            (t_low, 1.0),
            tol=1e-9,
            velocity=lambda t: spiral_velocity(t, 2),
        )
        lengths[f"length_from_{t_low}"] = res.value
        if not (res.converged and res.value >= np.log(1.0 / t_low)):
            length_ok = False

    # negative control: a slightly wrong forcing function must be flagged
    res_neg = forcing_residual_relative(0.5, k_override=lambda t: 0.999 * k_exact(t))

    passed = (
        max_residual <= tol
        and oracle_dev <= 1e-2
        and tail_decreasing
        and k_small <= 1e-6
        and length_ok
        and res_neg > tol
    )
    metrics = {
        "grid_points": grid_points,
        "max_forcing_residual_rel": max_residual,
        "flatness_oracle_deviation": oracle_dev,
        "flatness_tail_decreasing": tail_decreasing,
        "flatness_full_grid_monotone_violations": monotone_violations,
        "abs_k_at_0.05": k_small,
        "negative_control_residual": float(res_neg),
    }
    metrics.update(lengths)
    return _report(
        "lemma3",
        passed,
        metrics,
        {"forcing_residual": tol, "flatness_oracle": 1e-2, "k_at_0.05": 1e-6},
        seed,
        t0,
        notes=(
            "full-grid monotonicity of |k(t)|/t^n fails for n >= 5 because the "
            "weighted profile peaks at t = 1/(n+1); flatness is certified via "
            "the leading-term oracle and the tail trend instead",
        ),
    )


# ---------------------------------------------------------------------------
# check 'lemma5': curvature of the example metric
# ---------------------------------------------------------------------------


def check_lemma5(tol: float = 1e-6, seed: Optional[int] = None) -> CheckReport:
    """Curvature structure of the example metric on the plane z = 0.

    At each sample radius: induced metric flat, first z-derivatives
    vanish, Ricci from the metric's closed-form jet equals -2 h(r) M,
    Riemann equals -2 dz^2 o (h M), and M is trace-free with vanishing
    contractions against dz^2.  One ``curvature`` call over all radii
    gives g and the curvature, and one ``metric_derivatives`` call the
    first partials.
    """
    t0 = time.perf_counter()
    r = np.array([0.2, 0.35, 0.5, 0.75, 1.0])
    x = np.outer(r, [1.0, 0.0, 0.0])  # the points (r, 0, 0)
    fld = example_metric("cylindrical")
    bundle = curvature(fld, x)
    g, ginv = bundle.metric, bundle.inverse_metric
    plane = np.array([np.diag([1.0, rr * rr]) for rr in r])
    max_induced = np.max(np.abs(g[:, :2, :2] - plane))
    max_dz = np.max(np.abs(metric_derivatives(fld, x, 1)[:, 2]))

    M = m_covariant(r, 3)
    hM = h_profile(r)[:, None, None] * M
    max_ricci = np.max(np.abs(bundle.ricci - (-2.0 * hM)))
    dz2 = np.diag([0.0, 0.0, 1.0])
    expected_riem = -2.0 * kulkarni_nomizu(np.broadcast_to(dz2, hM.shape), hM)
    max_riemann = np.max(np.abs(bundle.riemann_lowered - expected_riem))

    trace_m = np.abs(np.vecdot(ginv.reshape(-1, 9), M.reshape(-1, 9)))
    contraction = _max_abs(M @ ginv @ dz2)
    max_m_traces = float(np.max(np.maximum(trace_m, contraction)))

    # negative control: a 5% miscalibrated profile must be detected
    min_negative = np.min(_max_abs(bundle.ricci - (-2.0 * 1.05 * hM)))

    passed = (
        max_induced <= 1e-12
        and max_dz <= 1e-10
        and max_ricci <= tol
        and max_riemann <= tol
        and max_m_traces <= 1e-12
        and min_negative > tol
    )
    return _report(
        "lemma5",
        passed,
        {
            "radii": r.tolist(),
            "max_induced_metric_deviation": max_induced,
            "max_dz_metric_at_plane": max_dz,
            "max_ricci_deviation": max_ricci,
            "max_riemann_deviation": max_riemann,
            "max_m_trace_or_contraction": max_m_traces,
            "min_negative_control_deviation": min_negative,
        },
        {"curvature": tol, "induced": 1e-12, "dz": 1e-10},
        seed,
        t0,
    )


# ---------------------------------------------------------------------------
# check 'proposition': the integrated spiral
# ---------------------------------------------------------------------------


def spiral_tracking_errors(traj: Trajectory) -> tuple[np.ndarray, float]:
    """Per-sample planar distance to the analytic spiral at matched radius.

    The curve's radius equals its parameter, so each sample of radius r
    is compared against (r cos e^(1/r), r sin e^(1/r)); proper-time
    matching would be ill-conditioned because s(t) grows violently.
    Returns (errors, max |z|).
    """
    pos = traj.positions()
    r = pos[:, 0]
    dphi = pos[:, 1] - spiral_point(r, 2)[:, 1]
    errors = 2.0 * r * np.abs(np.sin(0.5 * dphi))
    return errors, float(np.max(np.abs(pos[:, 2])))


def spiral_tracking_run(
    t0: float = 0.8,
    t_end: float = 0.3,
    integrator_tol: float = 1e-10,
    curvature_step: float = 1e-2,
    metric: Optional[MetricField] = None,
    max_steps: int = 400_000,
) -> tuple[Trajectory, float, float]:
    """Integrate the conformal geodesic from the spiral's data inward.

    Proper time increases outward along the curve, so the inward run
    integrates toward negative s until the radius reaches t_end, with no
    bound on s.  A curve whose radius climbs back above t0 (a circle in
    a flat ``metric`` does) would never reach t_end, so the run also
    ends there, with status "turned_outward"; otherwise only the stop
    radius or ``max_steps`` ends it.  The radius is tested rather than
    the sign of u^r, which on the spiral shrinks toward the tolerance
    as r -> 0.
    The example metric carries a closed-form jet, with which the z = 0
    plane is an exact invariant of the computed flow (max |z| is 0).
    ``curvature_step`` is the finite-difference step and applies only
    to a ``metric`` without a closed-form jet.  The data and the stop
    test are cylindrical: a ``metric`` in another chart raises ValueError,
    and so does a t_end outside (0, t0]: NaN would stop the run at its
    first sample, and 0 would be reached only at ``max_steps``.
    Returns (trajectory, max tracking error, max |z|).
    """
    if not 0.0 < t_end <= t0:
        raise ValueError(
            f"spiral run needs 0 < t_end <= t0, got t_end={t_end}, t0={t0}"
        )
    fld = metric if metric is not None else example_metric("cylindrical")
    if fld.chart.name != "cylindrical":
        raise ValueError(f"spiral run needs the cylindrical chart, not {fld.chart.name}")
    initial = from_unparametrized(fld, spiral_state(t0))
    traj = integrate(
        fld,
        initial,
        (0.0, -np.inf),
        tol=integrator_tol,
        max_steps=max_steps,
        curvature_step=curvature_step,
        stop=lambda st: not t_end < st.x[0] <= t0,
    )
    r_final = float(traj.y[-1, 0])
    if traj.status == "stopped" and r_final > t0:
        traj.stats.update(
            status="turned_outward",
            message=f"radius climbed back above t0 = {t0} (r = {r_final:.6g})",
        )
    errors, max_z = spiral_tracking_errors(traj)
    return traj, float(np.max(errors)), max_z


def check_proposition(tol: float = 1e-4, seed: Optional[int] = None) -> CheckReport:
    """The curve is a conformal geodesic of the example metric and spirals.

    (i) v ^ L^v = v ^ Ric^v at 8 parameters along the curve, evaluated
    as one stack (they differ by a multiple of the metric in dimension
    3); (ii) the integrated conformal geodesic, from t = 0.8 to r = 0.3
    (``spiral_tracking_run``'s defaults), tracks the analytic curve at
    matched radius and stays in the plane; (iii) the trajectory is
    containment-consistent with a spiral toward the origin; (iv) its
    length dwarfs the flat chord.  The negative control re-runs the
    integration from the same initial state with the radial profile
    switched off, which must visibly leave the spiral.
    """
    t_start = time.perf_counter()
    fld = example_metric("cylindrical")

    ts = np.linspace(0.3, 1.0, 8)
    v = spiral_velocity(ts, 3)
    bundle = curvature(fld, spiral_point(ts, 3))
    w_l = _wedge(v, _raise_index(bundle.inverse_metric, bundle.schouten, v))
    w_r = _wedge(v, _raise_index(bundle.inverse_metric, bundle.ricci, v))
    max_identity = float(np.max(np.abs(w_l - w_r)))

    traj, max_track, max_z = spiral_tracking_run()
    reached = traj.status == "stopped"

    report = detect_spiral(traj, np.zeros(3), (0.8, 0.6, 0.4))
    start = traj.field.chart.embed(traj.state(0).x)
    end = traj.field.chart.embed(traj.final_state.x)
    chord = float(np.linalg.norm(end - start))
    arc_total = float(traj.arc_length[-1])
    arc_factor = arc_total / chord if chord > 0 else np.inf

    # negative control: without the curvature profile the same initial
    # data follows a flat-space conformal geodesic (a circle) instead
    flat = flat_cylindrical_metric()
    flat_traj = integrate(flat, traj.state(0), (0.0, -3.0), max_steps=50_000)
    flat_errors, _ = spiral_tracking_errors(flat_traj)
    departure = float(np.max(flat_errors))

    passed = (
        max_identity <= 1e-10
        and reached
        and max_track <= tol
        and max_z <= 1e-8
        and traj.max_projection <= 1e-6
        and report.spiral_consistent
        and arc_factor >= 10.0
        and departure > 1e-2
    )
    metrics = {
        "max_schouten_ricci_wedge_identity": max_identity,
        "reached_target_radius": reached,
        "samples": len(traj),
        "max_tracking_error": max_track,
        "max_abs_z": max_z,
        "max_gauge_projection": traj.max_projection,
        "spiral_consistent": report.spiral_consistent,
        "containment_s0": {
            f"rho_{e.radius}": (e.s0 if e.contained else None) for e in report.entries
        },
        "arc_length": arc_total,
        "chord": chord,
        "arc_over_chord": arc_factor,
        "negative_control_departure": departure,
    }
    return _report(
        "proposition",
        passed,
        metrics,
        {
            "tracking": tol,
            "wedge_identity": 1e-10,
            "z_excursion": 1e-8,
            "gauge_projection": 1e-6,
            "arc_over_chord": 10.0,
            "negative_departure": 1e-2,
        },
        seed,
        t_start,
    )


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run_checks(
    selection: str = "all", seed: int = 42, tol: Optional[float] = None
) -> list[CheckReport]:
    """Run one named check or all of them, with optional tolerance override.

    ``tol`` (positive and finite, else ValueError) replaces the primary
    tolerance of each selected check; the secondary tolerances
    (identities, negative controls) are fixed.  A negative ``seed``
    raises ValueError, as numpy's generators take none.
    """
    kw = {} if tol is None else {"tol": tol}
    checks = {
        "lemma1": lambda: check_lemma1(seed=seed, **kw),
        "lemma2": lambda: check_lemma2(seed=seed + 1, **kw),
        "lemma3": lambda: check_lemma3(seed=seed, **kw),
        "lemma5": lambda: check_lemma5(seed=seed, **kw),
        "proposition": lambda: check_proposition(seed=seed, **kw),
    }
    if selection != "all" and selection not in checks:
        raise ValueError(f"unknown selection '{selection}'")
    if tol is not None and not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    wanted = checks if selection == "all" else (selection,)
    return [checks[name]() for name in wanted]
