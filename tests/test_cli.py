"""Exit codes, file outputs, and the thin-adapter property of the CLI."""
import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from confgeo import (
    circle_state,
    curvature,
    euclidean_metric,
    example_metric,
    from_unparametrized,
    integrate,
    spiral_state,
)
from confgeo import cli
from confgeo.cli import CSV_HEADER, main
from confgeo.verify import spiral_tracking_errors, spiral_tracking_run


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def _assert_columns(data, expected):
    """Each CSV column equals, bit for bit, its entry in ``expected``."""
    names = CSV_HEADER.split(",")
    assert sorted(expected) == sorted(names)
    assert data.shape == (len(expected["s"]), len(names))
    for j, name in enumerate(names):
        np.testing.assert_array_equal(data[:, j], expected[name], err_msg=name)


def test_verify_single_check_writes_reports(tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "lemma5", "--out", str(out)])
    assert code == 0
    assert (out / "report_lemma5.json").exists()
    assert (out / "report_lemma5.txt").exists()
    payload = json.loads((out / "report_lemma5.json").read_text())
    assert payload["status"] == "pass"
    config = json.loads((out / "run_config.json").read_text())
    assert config["subcommand"] == "verify"
    assert config["seed"] == 42  # default echoed for reproducibility


def test_verify_all_matches_suite_outcomes(tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "all", "--seed", "42", "--out", str(out)])
    names = ("lemma1", "lemma2", "lemma3", "lemma5", "proposition")
    statuses = {}
    for name in names:
        payload = json.loads((out / f"report_{name}.json").read_text())
        statuses[name] = payload["status"]
    assert len(statuses) == 5
    expected = 0 if all(s == "pass" for s in statuses.values()) else 1
    assert code == expected
    assert code == 0  # all five checks pass at their stated tolerances


def test_verify_overtight_tolerance_exits_one(tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "lemma3", "--tol", "1e-18", "--out", str(out)])
    assert code == 1
    payload = json.loads((out / "report_lemma3.json").read_text())
    assert payload["status"] == "fail"
    assert payload["metrics"]["max_forcing_residual_rel"] > 0.0


def test_verify_invalid_selection_usage_error(capsys):
    assert main(["verify", "bogus"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["verify", "lemma5", "--tol", "0"], "--tol"),
        (["verify", "lemma5", "--tol=-1e-9"], "--tol"),
        (["trace", "--circle", "0"], "--circle"),
        (["trace", "--circle", "-1"], "--circle"),
        (["trace", "--max-steps", "0"], "--max-steps"),
        (["trace", "--tol", "0"], "--tol"),
        (["trace", "--tol", "-1"], "--tol"),
        (["trace", "--t0", "0.5", "--t-end", "0.6"], "t_end <= t0"),
        (["verify", "all", "--seed", "-1"], "--seed"),
        (["trace", "--circle", "1.0", "--t0", "0.5"], "--t0"),
        (["trace", "--circle", "1.0", "--t-end", "0.3"], "--t-end"),
        (["trace", "--circle", "1.0", "--metric", "flat"], "--metric"),
    ],
)
def test_out_of_range_values_are_usage_errors(tmp_path, capsys, argv, named):
    # one line on stderr, no traceback, and nothing written or integrated
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and named in captured.err
    assert not out.exists()


@pytest.mark.parametrize("out", ["taken", ""], ids=["existing-file", "empty"])
@pytest.mark.parametrize(
    "argv",
    [["verify", "lemma5"], ["trace", "--t0", "0.8", "--t-end", "0.79"]],
    ids=lambda argv: argv[0],
)
def test_an_out_that_cannot_be_a_directory_is_a_usage_error(
    tmp_path, monkeypatch, capsys, argv, out
):
    # one line naming --out, exit 2, no check run and nothing integrated
    monkeypatch.chdir(tmp_path)
    if out:
        (tmp_path / out).write_text("kept\n")
    assert main(argv + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "--out" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ([out] if out else [])
    if out:
        assert (tmp_path / out).read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--seed", "1"],
        ["curvature", "--seed", "1"],
        ["curvature", "--out", "somewhere"],
    ],
)
def test_flags_without_effect_are_rejected(argv, capsys):
    # --seed belongs to verify only; curvature prints and writes no files.
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_trace_spiral_csv_and_golden_match(tmp_path):
    out = tmp_path / "t"
    t0, t_end, tol = 0.8, 0.7, 1e-8
    code = main(
        [
            "trace",
            "--t0",
            str(t0),
            "--t-end",
            str(t_end),
            "--tol",
            str(tol),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    data = _read_csv(out / "trace.csv")
    assert (out / "trace.gnuplot").exists()
    # radius column strictly decreasing on the inward run
    r = data[:, 5]
    assert np.all(np.diff(r) < 0.0)

    # golden comparison: every emitted number reproduces a direct
    # module computation with the same parameters
    field = example_metric("cylindrical")
    initial = from_unparametrized(field, spiral_state(t0))
    traj = integrate(
        field,
        initial,
        (0.0, -np.inf),
        tol=tol,
        max_steps=500_000,
        curvature_step=1e-2,
        stop=lambda st: st.x[0] <= t_end,
    )
    pos = traj.positions()
    cart = traj.cartesian_positions()
    _assert_columns(
        data,
        {
            "s": traj.s,
            "t_param": pos[:, 0],
            "x": cart[:, 0],
            "y": cart[:, 1],
            "z": cart[:, 2],
            "r": pos[:, 0],
            "phi": pos[:, 1],
            "arc_length": traj.arc_length,
            "track_err": spiral_tracking_errors(traj)[0],
            "z_err": np.abs(pos[:, 2]),
        },
    )


def test_trace_byte_identical_reruns(tmp_path):
    args = ["trace", "--t0", "0.75", "--t-end", "0.7", "--tol", "1e-8"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_trace_degenerate_span_single_row(tmp_path):
    out = tmp_path / "t"
    code = main(
        ["trace", "--t0", "0.8", "--t-end", "0.8", "--tol", "1e-8", "--out", str(out)]
    )
    assert code == 0
    data = _read_csv(out / "trace.csv")
    assert data.shape[0] == 1
    assert data[0, 1] == pytest.approx(0.8)


def test_trace_exhausted_step_budget_partial_csv_exit_three(tmp_path, capsys):
    out = tmp_path / "t"
    code = main(
        [
            "trace",
            "--t0",
            "0.8",
            "--t-end",
            "0.3",
            "--tol",
            "1e-10",
            "--max-steps",
            "20",
            "--out",
            str(out),
        ]
    )
    assert code == 3
    data = _read_csv(out / "trace.csv")  # partial trace still written
    assert data.shape[0] == 21
    assert data[-1, 5] > 0.3  # target radius not reached
    captured = capsys.readouterr()
    assert "incomplete" in captured.err


def test_trace_flat_spiral_that_turns_outward_exits_three(tmp_path, capsys):
    # In flat space the spiral's data give a circle with 0.69 <= r <= 1.15:
    # it never reaches r = 0.3, so the run ends once r climbs back above t0.
    out = tmp_path / "t"
    args = ["trace", "--metric", "flat", "--t0", "0.8", "--t-end", "0.3"]
    assert main(args + ["--out", str(out)]) == 3
    r = _read_csv(out / "trace.csv")[:, 5]
    assert r[-1] > 0.8 and np.all(r[1:-1] <= 0.8) and r.min() < 0.7
    stats = json.loads((out / "run_stats.json").read_text())
    assert stats["status"] == "turned_outward"
    assert stats["accepted"] == len(r) - 1
    assert "turned_outward" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "confgeo",
            "curvature",
            "--metric",
            "flat",
            "--chart",
            "cartesian",
            "--point",
            "1,2,3",
            "--format",
            "json",
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["scalar"] == 0.0


def test_trace_circle_mode_closes(tmp_path):
    out = tmp_path / "t"
    code = main(["trace", "--circle", "1.0", "--tol", "1e-10", "--out", str(out)])
    assert code == 0
    # the circle takes none of the spiral's settings, so none is echoed
    effective = json.loads((out / "run_config.json").read_text())
    assert effective == {
        "subcommand": "trace",
        "circle": 1.0,
        "tol": 1e-10,
        "max_steps": 500_000,
    }
    data = _read_csv(out / "trace.csv")
    endpoint_error = np.linalg.norm(data[-1, 2:5] - data[0, 2:5])
    assert endpoint_error < 1e-6
    assert np.max(np.abs(data[:, 5] - 1.0)) < 1e-6  # radial deviation

    # golden comparison, as for the spiral: the flat circle of radius 1
    # over one period, with its parameter in t_param
    traj = integrate(
        euclidean_metric(3),
        circle_state(1.0),
        (0.0, 2.0 * np.pi),
        tol=1e-10,
        max_steps=500_000,
    )
    x, y, z = traj.positions().T
    r = np.hypot(x, y)
    _assert_columns(
        data,
        {
            "s": traj.s,
            "t_param": traj.s,
            "x": x,
            "y": y,
            "z": z,
            "r": r,
            "phi": np.arctan2(y, x),
            "arc_length": traj.arc_length,
            "track_err": np.abs(r - 1.0),
            "z_err": np.abs(z),
        },
    )


def test_curvature_json_matches_module(capsys):
    code = main(
        [
            "curvature",
            "--metric",
            "example",
            "--chart",
            "cylindrical",
            "--point",
            "0.5,0,0",
            "--format",
            "json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    bundle = curvature(example_metric("cylindrical"), np.array([0.5, 0.0, 0.0]))
    np.testing.assert_array_equal(payload["ricci"], bundle.ricci)
    assert payload["scalar"] == bundle.scalar


def test_curvature_flat_zero_bundle(capsys):
    code = main(
        [
            "curvature",
            "--metric",
            "flat",
            "--chart",
            "cartesian",
            "--point",
            "1,2,3",
            "--format",
            "json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert np.max(np.abs(payload["ricci"])) == 0.0
    assert np.max(np.abs(payload["christoffel"])) == 0.0


def test_curvature_singular_point_exits_three(capsys):
    code = main(
        [
            "curvature",
            "--metric",
            "example",
            "--chart",
            "cylindrical",
            "--point",
            "0,0,0",
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "cartesian" in err  # chart-switch hint


def test_curvature_default_text_output(capsys):
    # no flag: the example metric in the cylindrical chart at 0.5,0,0, as text
    assert main(["curvature"]) == 0
    out = capsys.readouterr().out
    bundle = curvature(example_metric("cylindrical"), np.array([0.5, 0.0, 0.0]))
    with np.printoptions(precision=12, suppress=False, linewidth=120):
        blocks = [
            f"metric 'example_cylindrical' at point {bundle.point}",
            "metric g_ij:",
            str(bundle.metric),
            "christoffel Gamma^m_ab:",
            str(bundle.christoffel),
            "ricci R_ab:",
            str(bundle.ricci),
            f"scalar curvature: {bundle.scalar:.12e}",
            "schouten L_ab:",
            str(bundle.schouten),
        ]
    assert out == "\n".join(blocks) + "\n"


@pytest.mark.parametrize("point", ["a,b,c", "", "1,,2"])
def test_curvature_rejects_a_point_that_does_not_parse(capsys, point):
    assert main(["curvature", "--point", point]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("could not parse --point")


def test_curvature_metric_not_finite_exits_three(capsys):
    # finite coordinates, but z**2 overflows in the example metric's profile
    argv = ["curvature", "--chart", "cartesian", "--point", "1.2,0,1e200"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("metric not finite at ")


@pytest.mark.parametrize(
    "metric, chart, point",
    [
        ("flat", "cartesian", "inf,0,0"),
        ("flat", "cylindrical", "0.5,nan,0"),
        ("example", "cylindrical", "nan,0,0"),
        ("example", "cartesian", "0.5,0,-inf"),
    ],
)
def test_curvature_rejects_a_point_that_is_not_finite(capsys, metric, chart, point):
    argv = ["curvature", "--metric", metric, "--chart", chart, "--point", point]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "finite" in err


def test_config_file_defaults_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 9\ntol = 1e-5\n# a comment\n")
    out = tmp_path / "o"
    code = main(
        ["verify", "lemma5", "--config", str(cfg), "--seed", "11", "--out", str(out)]
    )
    assert code == 0
    effective = json.loads((out / "run_config.json").read_text())
    assert effective["seed"] == 11  # flag wins
    assert effective["tol"] == 1e-5  # config fills the gap
    payload = json.loads((out / "report_lemma5.json").read_text())
    assert payload["tolerances"]["curvature"] == 1e-5
    capsys.readouterr()


def test_malformed_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("not a pair\n")
    assert main(["verify", "lemma5", "--config", str(cfg)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, line",
    [
        (["curvature"], "chart = polar"),
        (["curvature"], "metric = sphere"),
        (["curvature"], "format = yaml"),
        (["trace", "--t0", "0.8", "--t-end", "0.79"], "metric = sphere"),
        (["trace", "--t0", "0.8", "--t-end", "0.79"], "max_steps = 1.5"),
        (["trace", "--t0", "0.8", "--t-end", "0.79"], "tol = small"),
    ],
)
def test_config_values_outside_the_flag_choices_rejected(tmp_path, capsys, argv, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "o"
    out_args = ["--out", str(out)] if argv[0] == "trace" else []
    assert main(argv + out_args + ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: " + line.split(" = ")[0])
    assert captured.out == ""
    assert not out.exists()  # nothing integrated, nothing echoed


def test_config_key_no_subcommand_has_rejected(tmp_path, capsys):
    # the flag's spelling "t-end" is not the key "t_end"; read silently,
    # it would run the trace to the default radius
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t0 = 0.8\nt-end = 0.3\n")
    out = tmp_path / "o"
    assert main(["trace", "--out", str(out), "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: unknown key 't-end'\n"
    assert captured.out == ""
    assert not out.exists()


def test_config_keys_of_other_subcommands_accepted(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\nt_end = 0.3\nmetric = flat\nformat = json\n")
    assert main(["curvature", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["scalar"] == 0.0


@pytest.mark.parametrize(
    "argv, lines",
    [
        (["--circle", "1.0"], "metric = flat\nt0 = 0.8\nt_end = 0.3\n"),
        ([], "circle = 1.0\nmetric = flat\nt0 = 0.8\n"),
    ],
    ids=["circle-flag", "circle-key"],
)
def test_circle_trace_leaves_spiral_config_keys_unused(tmp_path, capsys, argv, lines):
    # a config file shared with spiral runs and the curvature subcommand
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines)
    out = tmp_path / "o"
    assert main(["trace", *argv, "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "run_config.json").read_text()) == {
        "subcommand": "trace",
        "circle": 1.0,
        "tol": 1e-10,
        "max_steps": 500_000,
    }
    capsys.readouterr()


def test_circle_from_config_refuses_spiral_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("circle = 1.0\n")
    out = tmp_path / "o"
    assert main(["trace", "--t0", "0.5", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "trace --circle takes no --t0\n"
    assert not out.exists()


def test_config_values_inside_the_flag_choices_apply(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("metric = flat\nchart = cartesian\nformat = json\npoint = 1,2,3\n")
    assert main(["curvature", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["point"] == [1.0, 2.0, 3.0]
    assert payload["scalar"] == 0.0


# One case per (subcommand, setting): a value unlike the default that shows
# in run_config.json (verify, trace) or on stdout (curvature), on cheap
# runs; "out" takes the run's own directory.
_SPIRAL_RUN = ["trace", "--t0", "0.8", "--t-end", "0.79"]
_ONE_SETTING_CASES = [
    (["verify", "lemma5"], "seed", "3"),
    (["verify", "lemma5"], "tol", "1e-5"),
    (["verify", "lemma5"], "out", None),
    (["trace", "--t-end", "0.79"], "t0", "0.81"),
    (["trace", "--t0", "0.8"], "t_end", "0.79"),
    (_SPIRAL_RUN, "metric", "flat"),
    (_SPIRAL_RUN, "tol", "1e-8"),
    (["trace"], "circle", "1.0"),
    (["trace", "--circle", "1.0"], "max_steps", "3"),
    (_SPIRAL_RUN, "out", None),
    (["curvature"], "metric", "flat"),
    (["curvature"], "chart", "cartesian"),
    (["curvature"], "point", "0.4,0.1,0.2"),
    (["curvature"], "format", "json"),
]


def test_every_setting_has_a_flag_and_config_case():
    covered = {(argv[0], key) for argv, key, _ in _ONE_SETTING_CASES}
    table = {(cmd, s.name) for cmd, settings in cli._SETTINGS.items() for s in settings}
    assert covered == table


@pytest.mark.parametrize(
    "argv, key, value",
    _ONE_SETTING_CASES,
    ids=[f"{argv[0]}-{key}" for argv, key, _ in _ONE_SETTING_CASES],
)
def test_a_flag_and_its_config_key_are_one_setting(tmp_path, capsys, argv, key, value):
    runs = []
    for via in ("flag", "config"):
        out = tmp_path / via
        given = {} if argv[0] == "curvature" else {"out": str(out)}
        if key != "out":
            given[key] = value
        cfg = tmp_path / f"{via}.cfg"
        cfg.write_text(f"{key} = {given.pop(key)}\n" if via == "config" else "")
        flags = [a for k, v in given.items() for a in (cli._flag(k), v)]
        code = main(argv + flags + ["--config", str(cfg)])
        stdout = capsys.readouterr().out
        if argv[0] == "curvature":
            runs.append((code, stdout))
        else:
            runs.append((code, (out / "run_config.json").read_text()))
    assert runs[0] == runs[1]


def test_help_names_each_default(capsys):
    for command, settings in cli._SETTINGS.items():
        assert main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())  # undo the wrapping
        for s in settings:
            if s.default is not None:
                assert f"{cli._flag(s.name)} " in text
                assert f"(default: {s.default})" in text
        if command == "trace":
            assert "--t-end T_END (default: 0.4)" in text
            assert "partial CSV and exit 3 (default: 500000)" in text


def test_trace_writes_run_stats(tmp_path, capsys):
    out = tmp_path / "t"
    args = ["trace", "--t0", "0.8", "--t-end", "0.7", "--tol", "1e-8"]
    assert main(args + ["--out", str(out)]) == 0
    stats = json.loads((out / "run_stats.json").read_text())
    traj, _, _ = spiral_tracking_run(
        t0=0.8, t_end=0.7, integrator_tol=1e-8, max_steps=500_000
    )
    assert stats == traj.stats
    assert stats["status"] == "stopped"
    assert stats["accepted"] == len(_read_csv(out / "trace.csv")) - 1

    circle = tmp_path / "c"
    assert main(["trace", "--circle", "1.0", "--out", str(circle)]) == 0
    stats = json.loads((circle / "run_stats.json").read_text())
    assert stats["status"] == "ok"
    assert stats["accepted"] == len(_read_csv(circle / "trace.csv")) - 1
    capsys.readouterr()


def test_log_verbosity_from_environment(tmp_path, monkeypatch, capsys, caplog):
    # main() sets the level of the "confgeo" logger; caplog restores it.
    caplog.set_level(logging.DEBUG, logger="confgeo")
    argv = ["trace", "--circle", "1.0", "--out", str(tmp_path / "o")]

    monkeypatch.setenv("CONFGEO_LOG", "DEBUG")
    assert main(argv) == 0
    records = [r for r in caplog.records if r.name.startswith("confgeo")]
    assert [(r.name, r.levelno) for r in records] == [
        ("confgeo.dynamics", logging.INFO)
    ]
    assert re.search(r": ok; \d+ accepted, 0 rejected", records[0].getMessage())

    caplog.clear()
    monkeypatch.setenv("CONFGEO_LOG", "WARNING")
    assert main(argv) == 0
    assert not [r for r in caplog.records if r.name.startswith("confgeo")]
    capsys.readouterr()
