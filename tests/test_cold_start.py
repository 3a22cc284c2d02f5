"""scipy is not needed: ``import confgeo`` loads no scipy module, and with
every scipy import made to fail, ``verify all`` and ``trace`` still run
and write the reports an ordinary process writes."""
import json
import os
import subprocess
import sys
from pathlib import Path

from confgeo import run_checks

SRC = str(Path(__file__).resolve().parent.parent / "src")

WITHOUT_SCIPY = """
import json, sys

import confgeo
import confgeo.cli

loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
sys.modules["scipy"] = None  # from here on, any scipy import raises
verify = confgeo.cli.main(["verify", "all", "--seed", "42", "--out", "verify"])
trace = confgeo.cli.main(["trace", "--t-end", "0.7", "--out", "trace"])
print(json.dumps({"loaded": loaded, "verify": verify, "trace": trace}))
"""


def test_verify_and_trace_run_with_scipy_blocked(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report == {"loaded": [], "verify": 0, "trace": 0}
    for rep in run_checks("all", seed=42):
        written = (tmp_path / "verify" / f"report_{rep.name}.json").read_text()
        assert written == rep.to_json()
    assert (tmp_path / "trace" / "trace.csv").stat().st_size > 0
