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
from typing import NamedTuple

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


# Each subcommand's settings, declared once: its flags and --help, the config
# keys and their checks, the defaults and run_config.json all come from here.
class _Setting(NamedTuple):
    name: str  # the config key and, with '-' for '_', the flag
    type: type
    default: object = None
    choices: tuple | None = None
    metavar: str | None = None


_METRIC = _Setting("metric", str, "example", ("example", "flat"))
_OUT = _Setting("out", str, "confgeo_out")
# the spiral's settings, which a circle trace leaves unset and refuses as flags
_SPIRAL = (_Setting("t0", float, 0.8), _Setting("t_end", float, 0.4), _METRIC)
_SETTINGS = {
    "verify": (_Setting("seed", int, 42), _Setting("tol", float), _OUT),
    "trace": (
        *_SPIRAL,
        _Setting("tol", float, 1e-10),
        _Setting("circle", float, metavar="R"),
        _Setting("max_steps", int, 500_000),
        _OUT,
    ),
    "curvature": (
        _METRIC,
        _Setting("chart", str, "cylindrical", ("cartesian", "cylindrical")),
        _Setting("point", str, "0.5,0,0"),
        _Setting("format", str, "text", ("text", "json")),
    ),
}
_HELP = {
    "circle": "flat-space circle of radius R instead of the spiral",
    "max_steps": "step budget; exceeding it yields a partial CSV and exit 3",
    "point": "comma-separated",
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill each setting left unset from the config file, else its default.

    Keys of other subcommands' settings, and the spiral's in a circle trace,
    are left unused; a key of no setting, or a value that its flag would
    refuse, raises ValueError naming the key.
    """
    config = _load_config(args.config) if args.config else {}
    for key in config:
        if all(key != s.name for settings in _SETTINGS.values() for s in settings):
            raise ValueError(f"unknown key {key!r}")
    circle = hasattr(args, "circle") and (args.circle is not None or "circle" in config)
    for s in _SETTINGS[args.command]:
        if getattr(args, s.name) is not None or (circle and s in _SPIRAL):
            continue
        raw = config.get(s.name)
        try:
            value = s.default if raw is None else s.type(raw)
        except ValueError:
            kind = s.type.__name__
            raise ValueError(f"{s.name} = {raw!r} is not a valid {kind}") from None
        if s.choices and value not in s.choices:
            allowed = ", ".join(s.choices)
            raise ValueError(f"{s.name} = {value!r} is not one of {allowed}")
        setattr(args, s.name, value)
    return args


def _open_out_dir(args: argparse.Namespace) -> Path | None:
    """Make the --out directory and echo the settings in effect, all but
    --out, to its run_config.json; None, after one line on stderr, if
    --out cannot be made a directory (makedirs refuses an empty path)."""
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"cannot make --out {args.out!r}: {exc.strerror}", file=sys.stderr)
        return None
    unused = {"config", "out"}
    if getattr(args, "circle", None) is not None:
        unused.update(s.name for s in _SPIRAL)
    payload = {k: v for k, v in vars(args).items() if k not in unused}
    payload["subcommand"] = payload.pop("command")
    (Path(args.out) / "run_config.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n"
    )
    return Path(args.out)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _positive(value: float) -> bool:
    return bool(np.isfinite(value) and value > 0.0)


def cmd_verify(args) -> int:
    for bad, need in (
        (args.tol is not None and not _positive(args.tol), "a positive finite --tol"),
        (args.seed < 0, "a non-negative --seed"),
    ):
        if bad:
            print(f"verify requires {need}", file=sys.stderr)
            return 2
    out_dir = _open_out_dir(args)
    if out_dir is None:
        return 2

    reports = run_checks(args.selection, seed=args.seed, tol=args.tol)
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
    radius, tol, max_steps = args.circle, args.tol, args.max_steps
    for s in _SPIRAL:  # in a circle trace only a flag sets them
        if radius is not None and getattr(args, s.name) is not None:
            print(f"trace --circle takes no {_flag(s.name)}", file=sys.stderr)
            return 2
    for bad, need in (
        (not _positive(tol), "a positive finite --tol"),
        (max_steps < 1, "--max-steps >= 1"),
        (radius is not None and not _positive(radius), "a positive finite --circle"),
        (radius is None and not 0.0 < args.t_end <= args.t0 <= 1.0, "0 < t_end <= t0 <= 1"),
    ):
        if bad:
            print(f"trace requires {need}", file=sys.stderr)
            return 2
    out_dir = _open_out_dir(args)
    if out_dir is None:
        return 2
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
            t0=args.t0,
            t_end=args.t_end,
            integrator_tol=tol,
            metric=flat_cylindrical_metric() if args.metric == "flat" else None,
            max_steps=max_steps,
        )
        r, phi, _ = traj.positions().T
        columns = _trace_columns(traj, r, r, phi, spiral_tracking_errors(traj)[0])
        print(
            f"spiral t0={args.t0} -> r={r[-1]:.4f}: "
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
    if args.metric == "example":
        field = example_metric(args.chart)
    elif args.chart == "cartesian":
        field = euclidean_metric(3)
    else:
        field = flat_cylindrical_metric()

    try:
        point = np.array([float(v) for v in args.point.split(",")])
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

    if args.format == "json":
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

    sub.add_parser("verify", help="run verification checks").add_argument(
        "selection",
        choices=["all", "lemma1", "lemma2", "lemma3", "lemma5", "proposition"],
    )
    sub.add_parser("trace", help="integrate a conformal geodesic to CSV")
    sub.add_parser("curvature", help="print the curvature bundle at a point")
    for command, p in sub.choices.items():
        for s in _SETTINGS[command]:
            note = "" if s.default is None else f"(default: {s.default})"
            p.add_argument(
                _flag(s.name),
                type=s.type,
                choices=s.choices,
                metavar=s.metavar,
                help=f"{_HELP.get(s.name, '')} {note}".strip(),
            )
        p.add_argument("--config", type=str, default=None)

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
