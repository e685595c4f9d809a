#!/usr/bin/env python3
"""Print every metric of every workload: one untraced and one traced run each.

Run from the root of a checkout:

    python3 perfbench/report.py
    python3 perfbench/report.py --write perfbench/baseline.json

Each workload runs ``run.py`` twice in a child process, at the default seed
and ``BENCHMARK.json``'s ``run_seconds``: with ``--trace 0`` (end-to-end
metrics) and ``--trace 1`` (per-module metrics).  The table shows each metric
by name and unit next to the recorded baseline, if any.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

BASELINE = HERE / "baseline.json"
SEED = workloads.DEFAULT_SEED
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"run.py {workload} --trace {trace} exited with {proc.returncode}")
    return {"info": json.loads(lines[-2])["info"], "result": json.loads(lines[-1])}


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", type=Path, help="also write the results as JSON")
    args = parser.parse_args()
    baseline = json.loads(BASELINE.read_text())["workloads"] if BASELINE.is_file() else {}
    results = {}
    for name in workloads.WORKLOADS:
        results[name] = {"end_to_end": run_once(name, 0), "per_layer": run_once(name, 1)}
        for kind, run in results[name].items():
            res, info = run["result"], run["info"]
            base = baseline.get(name, {}).get(kind, {}).get("result", {}).get("metrics", {})
            passes = len(info["untraced_pass_s"]) + len(info["traced_pass_s"])
            print(f"\n== {name} ({kind}, seed {SEED}, {passes} passes): correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"ops_failed_ratio={info['ops_failed_ratio']:.6g}")
            print(f"   {'metric':44s} {'unit':6s} {'value':>14s} {'baseline':>14s}")
            for metric, entry in res["metrics"].items():
                print(f"   {metric:44s} {entry['unit']:6s} {_fmt(entry['value']):>14s} "
                      f"{_fmt(base.get(metric, {}).get('value')):>14s}")
    if args.write:
        args.write.write_text(json.dumps({"seed": SEED, "seconds": SECONDS,
                                          "workloads": results}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
