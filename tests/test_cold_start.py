"""``import confgeo`` loads numpy and the package only; scipy loads on
the first ``arc_length`` call, its one user."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from confgeo import arc_length, euclidean_metric

SRC = str(Path(__file__).resolve().parent.parent / "src")

COLD_START = """
import json, sys
import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import confgeo
import confgeo.cli
code = confgeo.cli.main(
    ["curvature", "--metric", "example", "--point", "0.5,0.3,0.2", "--format", "json"]
)
before = scipy_modules()
res = confgeo.arc_length(
    confgeo.euclidean_metric(2),
    lambda t: np.array([np.cos(t), t * np.sin(t)]),
    (0.0, 2.0),
    tol=1e-10,
)
print(json.dumps({
    "code": code,
    "before": before,
    "integrate_loaded": "scipy.integrate" in sys.modules,
    "value": repr(res.value),
}))
"""


def test_import_and_curvature_load_no_scipy_until_arc_length(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", COLD_START],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["code"] == 0
    assert report["before"] == []
    assert report["integrate_loaded"]
    res = arc_length(
        euclidean_metric(2),
        lambda t: np.array([np.cos(t), t * np.sin(t)]),
        (0.0, 2.0),
        tol=1e-10,
    )
    assert float(report["value"]) == res.value
