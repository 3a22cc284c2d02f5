"""Command-line interface.

Three subcommands: ``verify`` runs the named checks and writes their
reports, ``trace`` integrates a conformal geodesic and writes a CSV plus
a gnuplot script, ``curvature`` prints the curvature bundle of a
built-in metric at a point.  The CLI is a thin adapter: every number it
emits comes from the library modules.

A ``--config`` file holds KEY = VALUE defaults which explicit flags
override; the effective values are echoed into the output directory so
a run can be reproduced exactly.  Verbosity comes from the CONFGEO_LOG
environment variable (DEBUG/INFO/WARNING/ERROR).
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .curvature import curvature
from .dynamics import circle_state, integrate
from .errors import ChartSingularityError, ConfgeoError
from .metrics import euclidean_metric, flat_cylindrical_metric
from .spiral import example_metric
from .verify import run_checks, spiral_tracking_errors, spiral_tracking_run

log = logging.getLogger("confgeo")

CSV_HEADER = "s,t_param,x,y,z,r,phi,arc_length,track_err,z_err"


def _load_config(path: str) -> dict:
    """Parse a KEY = VALUE config file; '#' starts a comment."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, val = line.split("=", 1)
        values[key.strip()] = val.strip()
    return values


_CONFIG_TYPES = {
    "seed": int,
    "tol": float,
    "t0": float,
    "t_end": float,
    "circle": float,
    "max_steps": int,
    "out": str,
    "metric": str,
    "chart": str,
    "point": str,
    "format": str,
}

# trace's spiral settings and their flags, which a circle trace refuses
_SPIRAL_ONLY = {"t0": "--t0", "t_end": "--t-end", "metric": "--metric"}

# Allowed values of the flags that have them; the parser and the config
# file check against the same lists.
_CHOICES = {
    "metric": ("example", "flat"),
    "chart": ("cartesian", "cylindrical"),
    "format": ("text", "json"),
}


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill flag values left at None from the config file, then defaults.

    Keys of other subcommands' flags, and the spiral's in a circle trace,
    are left unused; a key of no flag or a value outside a flag's choices
    raises ValueError, as a flag would.
    """
    config = _load_config(args.config) if args.config else {}
    for key in config:
        if key not in _CONFIG_TYPES:
            raise ValueError(f"unknown key {key!r}")
    if hasattr(args, "circle") and (args.circle is not None or "circle" in config):
        config = {k: v for k, v in config.items() if k not in _SPIRAL_ONLY}
    for key, caster in _CONFIG_TYPES.items():
        if hasattr(args, key) and getattr(args, key) is None and key in config:
            value = caster(config[key])
            if key in _CHOICES and value not in _CHOICES[key]:
                raise ValueError(
                    f"{key} = {value!r} is not one of {', '.join(_CHOICES[key])}"
                )
            setattr(args, key, value)
    return args


def _echo_config(out_dir: Path, args: argparse.Namespace, effective: dict):
    payload = {"subcommand": args.command}
    payload.update({k: effective[k] for k in sorted(effective)})
    (out_dir / "run_config.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n"
    )


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _positive(value: float) -> bool:
    return bool(np.isfinite(value) and value > 0.0)


def cmd_verify(args) -> int:
    seed = 42 if args.seed is None else args.seed
    for bad, need in (
        (args.tol is not None and not _positive(args.tol), "a positive finite --tol"),
        (seed < 0, "a non-negative --seed"),
    ):
        if bad:
            print(f"verify requires {need}", file=sys.stderr)
            return 2
    out_dir = Path(args.out or "confgeo_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(
        out_dir, args, {"selection": args.selection, "seed": seed, "tol": args.tol}
    )

    reports = run_checks(args.selection, seed=seed, tol=args.tol)
    all_pass = True
    for rep in reports:
        (out_dir / f"report_{rep.name}.json").write_text(rep.to_json())
        (out_dir / f"report_{rep.name}.txt").write_text(rep.to_text())
        print(f"check {rep.name}: {rep.status.upper()} ({rep.wall_time_s:.1f} s)")
        all_pass = all_pass and rep.passed
    print(f"reports written to {out_dir}")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def _write_gnuplot(path: Path, csv_name: str):
    path.write_text(
        "\n".join(
            [
                "set datafile separator ','",
                "set key off",
                "set size ratio -1",
                "set xlabel 'x'",
                "set ylabel 'y'",
                f"plot '{csv_name}' every ::1 using 3:4 with lines",
                "pause -1 'planar view; press enter for radius vs arc length'",
                "set size noratio",
                "set xlabel 'arc length'",
                "set ylabel 'r'",
                f"plot '{csv_name}' every ::1 using 8:6 with lines",
                "pause -1",
                "",
            ]
        )
    )


def _trace_columns(traj, t_param, r, phi, track_err) -> np.ndarray:
    """The CSV_HEADER columns, one row per sample; the modes differ only
    in the parameter, the polar coordinates and the tracking error."""
    cart = traj.cartesian_positions()
    return np.column_stack(
        [
            traj.s,
            t_param,
            cart,
            r,
            phi,
            traj.arc_length,
            track_err,
            np.abs(traj.positions()[:, 2]),
        ]
    )


def cmd_trace(args) -> int:
    tol = 1e-10 if args.tol is None else args.tol
    metric_name = args.metric or "example"
    t0 = 0.8 if args.t0 is None else args.t0
    t_end = 0.4 if args.t_end is None else args.t_end
    max_steps = 500_000 if args.max_steps is None else args.max_steps
    radius = args.circle
    for key, flag in _SPIRAL_ONLY.items():  # in a circle trace only a flag sets them
        if radius is not None and getattr(args, key) is not None:
            print(f"trace --circle takes no {flag}", file=sys.stderr)
            return 2
    for bad, need in (
        (not _positive(tol), "a positive finite --tol"),
        (max_steps < 1, "--max-steps >= 1"),
        (radius is not None and not _positive(radius), "a positive finite --circle"),
        (radius is None and not 0.0 < t_end <= t0 <= 1.0, "0 < t_end <= t0 <= 1"),
    ):
        if bad:
            print(f"trace requires {need}", file=sys.stderr)
            return 2
    out_dir = Path(args.out or "confgeo_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    effective = {"circle": radius, "tol": tol, "max_steps": max_steps}
    if radius is None:
        effective.update(metric=metric_name, t0=t0, t_end=t_end)
    _echo_config(out_dir, args, effective)
    if radius is not None:
        field = euclidean_metric(3)
        initial = circle_state(radius)
        traj = integrate(
            field, initial, (0.0, 2.0 * np.pi * radius), tol=tol, max_steps=max_steps
        )
        pos = traj.positions()
        r = np.hypot(pos[:, 0], pos[:, 1])
        columns = _trace_columns(
            traj, traj.s, r, np.arctan2(pos[:, 1], pos[:, 0]), np.abs(r - radius)
        )
        closure = float(np.linalg.norm(pos[-1] - pos[0]))
        print(f"circle R={radius}: {len(traj)} samples, closure error {closure:.3e}")
    else:
        traj, _, _ = spiral_tracking_run(
            t0=t0,
            t_end=t_end,
            integrator_tol=tol,
            metric=flat_cylindrical_metric() if metric_name == "flat" else None,
            max_steps=max_steps,
        )
        r, phi, _ = traj.positions().T
        columns = _trace_columns(traj, r, r, phi, spiral_tracking_errors(traj)[0])
        print(
            f"spiral t0={t0} -> r={r[-1]:.4f}: "
            f"{len(traj)} samples, status {traj.status}"
        )

    csv_path = out_dir / "trace.csv"
    np.savetxt(
        csv_path, columns, fmt="%.17g", delimiter=",", header=CSV_HEADER, comments=""
    )
    _write_gnuplot(out_dir / "trace.gnuplot", csv_path.name)
    (out_dir / "run_stats.json").write_text(
        json.dumps(traj.stats, sort_keys=True, indent=2) + "\n"
    )
    print(f"trace written to {csv_path}")

    if traj.status not in ("ok", "stopped"):
        print(f"integration incomplete: {traj.status}: {traj.message}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def _bundle_payload(bundle) -> dict:
    return {
        "point": bundle.point.tolist(),
        "metric": bundle.metric.tolist(),
        "inverse_metric": bundle.inverse_metric.tolist(),
        "christoffel": bundle.christoffel.tolist(),
        "riemann": bundle.riemann.tolist(),
        "riemann_lowered": bundle.riemann_lowered.tolist(),
        "ricci": bundle.ricci.tolist(),
        "scalar": bundle.scalar,
        "schouten": None if bundle.schouten is None else bundle.schouten.tolist(),
    }


def cmd_curvature(args) -> int:
    metric_name = args.metric or "example"
    chart = args.chart or "cylindrical"
    fmt = args.format or "text"
    if metric_name == "flat":
        field = euclidean_metric(3) if chart == "cartesian" else flat_cylindrical_metric()
    else:
        field = example_metric(chart)

    try:
        point = np.array([float(v) for v in (args.point or "0.5,0,0").split(",")])
    except ValueError:
        print("could not parse --point; expected comma-separated floats", file=sys.stderr)
        return 2
    if point.size != field.dimension or not np.all(np.isfinite(point)):
        print(f"--point needs {field.dimension} finite components", file=sys.stderr)
        return 2

    try:
        bundle = curvature(field, point)
    except ChartSingularityError as exc:
        print(f"{exc}", file=sys.stderr)
        print(
            "hint: this point is on the chart's singular locus; "
            "evaluate in the cartesian chart instead",
            file=sys.stderr,
        )
        return 3
    except ConfgeoError as exc:
        print(f"{exc}", file=sys.stderr)
        return 3

    if fmt == "json":
        print(json.dumps(_bundle_payload(bundle), sort_keys=True, indent=2))
    else:
        with np.printoptions(precision=12, suppress=False, linewidth=120):
            print(f"metric '{field.name}' at point {bundle.point}")
            print("metric g_ij:")
            print(bundle.metric)
            print("christoffel Gamma^m_ab:")
            print(bundle.christoffel)
            print("ricci R_ab:")
            print(bundle.ricci)
            print(f"scalar curvature: {bundle.scalar:.12e}")
            print("schouten L_ab:")
            print(bundle.schouten)
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confgeo",
        description="Conformal geodesic toolkit: verification checks, "
        "trajectory traces, and curvature queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification checks")
    p_verify.add_argument(
        "selection",
        choices=["all", "lemma1", "lemma2", "lemma3", "lemma5", "proposition"],
    )
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--out", type=str, default=None)
    p_verify.add_argument("--config", type=str, default=None)

    p_trace = sub.add_parser("trace", help="integrate a conformal geodesic to CSV")
    p_trace.add_argument("--t0", type=float, default=None)
    p_trace.add_argument("--t-end", dest="t_end", type=float, default=None)
    p_trace.add_argument("--tol", type=float, default=None)
    p_trace.add_argument("--metric", choices=_CHOICES["metric"], default=None)
    p_trace.add_argument(
        "--circle",
        type=float,
        default=None,
        metavar="R",
        help="flat-space circle of radius R instead of the spiral",
    )
    p_trace.add_argument(
        "--max-steps",
        dest="max_steps",
        type=int,
        default=None,
        help="step budget; exceeding it yields a partial CSV and exit 3",
    )
    p_trace.add_argument("--out", type=str, default=None)
    p_trace.add_argument("--config", type=str, default=None)

    p_curv = sub.add_parser("curvature", help="print the curvature bundle at a point")
    p_curv.add_argument("--metric", choices=_CHOICES["metric"], default=None)
    p_curv.add_argument("--chart", choices=_CHOICES["chart"], default=None)
    p_curv.add_argument("--point", type=str, default=None, help="comma-separated")
    p_curv.add_argument("--format", choices=_CHOICES["format"], default=None)
    p_curv.add_argument("--config", type=str, default=None)

    return parser


def main(argv=None) -> int:
    level = logging.getLevelName(os.environ.get("CONFGEO_LOG", "WARNING").upper())
    if not isinstance(level, int):
        level = logging.WARNING
    # basicConfig does nothing when the root logger already has handlers,
    # so the package logger gets the level itself.
    logging.basicConfig(level=level)
    log.setLevel(level)

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        args = _apply_config(args)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    handlers = {"verify": cmd_verify, "trace": cmd_trace, "curvature": cmd_curvature}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
