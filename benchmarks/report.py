"""Run every workload untraced and traced and print every metric with its unit.

    python3 benchmarks/report.py [--seed 1] [--seconds N] [--out benchmarks/baseline.json]

Each (workload, trace) pair runs as its own ``run.py`` process, one
after another.  With ``--out`` the runs' records (result, environment,
unit counts, set-up samples) are saved as one JSON file.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    results, ok = {}, True
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [
                    sys.executable,
                    str(run.HERE / "run.py"),
                    "--workload", workload,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                ],
                capture_output=True,
                text=True,
                timeout=900,
            )
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            saved = json.loads((run.RUNS / f"{workload}.trace{trace}.json").read_text())
            for bulky in ("digests", "unit_extra", "per_unit", "unit_wall_s",
                          "stretches_per_unit", "kernel_runs_per_unit"):
                saved.pop(bulky, None)
            results.setdefault(workload, {})[f"trace{trace}"] = saved
            ok = ok and result["correct"]
            print(f"== {workload} trace={trace}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}")
            for name, m in result["metrics"].items():
                value = "null" if m["value"] is None else f"{m['value']:.6g}"
                print(f"   {name:32s} {value:>14s}  {m['unit']}")

    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
