"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

Usage, from the root of a checkout:

    python3 bench/spread.py [--workloads corpus5 ...] [--runs 10]
                            [--record bench/baseline.json]

Runs `run.py` once per seed (seeds 1..runs) on each workload, with the run
length from BENCHMARK.json, and prints for each end-to-end metric its median
and its spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound, and the spread of the raw (unscaled) wall_s next to it.
Every run must check correct. With `--record`, one traced
run per workload is added and everything is written with the Python
version, CPU count and git revision.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's result, with its raw wall_s and speed factor added."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    *lines, scaling, result = proc.stdout.strip().splitlines()
    traffic = [line.strip() for line in lines if "traffic check:" in line]
    return {**json.loads(result), **json.loads(scaling)["scaling"][workload],
            "traffic_check": traffic[0] if traffic else None}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (q3 - q1) / median."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def git_rev() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--record", type=Path, default=None)
    args = parser.parse_args()
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    summary: dict = {}
    all_ok = True
    for workload in args.workloads:
        runs = [bench_run(workload, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        rows = {}
        print(f"{workload}: {args.runs} runs, all correct: "
              f"{all(r['correct'] for r in runs)}")
        all_ok &= all(r["correct"] for r in runs)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, spread_ = spread(values)
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread_,
                          "bound": bound, "unit": runs[0]["metrics"][name]["unit"],
                          "values": values}
            verdict = "ok" if spread_ <= bound / 3 else (
                "within bound" if spread_ <= bound else "ABOVE BOUND")
            print(f"  {name:14s} median {median:10.5g}  spread {spread_:7.4f}  "
                  f"bound {bound:5.3f}  {verdict}")
            if name != "setup_s":
                all_ok &= spread_ <= bound
        raw = [r["raw_wall_s"] for r in runs]
        median, _, _, raw_spread = spread(raw)
        print(f"  {'raw wall_s':14s} median {median:10.5g}  spread {raw_spread:7.4f}  "
              f"(unscaled, for comparison)")
        summary[workload] = {
            "end_to_end": rows,
            "raw_wall_s": {"median": median, "spread": raw_spread, "values": raw},
            "speed_factor": [r["speed_factor"] for r in runs],
        }
        if args.record:
            traced = bench_run(workload, 1, seconds, 1)
            summary[workload]["per_layer_seed_1"] = {
                n: m["value"] for n, m in traced["metrics"].items()}
            summary[workload]["traffic_check_seed_1"] = traced["traffic_check"]
    if args.record:
        record = {
            "environment": {
                "git_rev": git_rev(),
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "machine": platform.machine(),
                "recorded": datetime.date.today().isoformat(),
                "run_seconds": seconds,
                "seeds": list(range(1, args.runs + 1)),
            },
            "workloads": summary,
        }
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
