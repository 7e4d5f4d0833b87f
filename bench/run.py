"""coverdepth benchmark: exact workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload corpus5 --seed 1 --seconds 35 --trace 0

`--workload all` runs every workload in turn. Each timed repetition runs in
a fresh interpreter (`worker.py`) with `--jobs 1` and no threads, so the
process-global memos start cold, as in every `coverdepth` CLI call.
Repetitions follow each other for `--seconds`, with at least three; one
starts only if it can end in time. With `--trace 0` the end-to-end metrics
are printed; with `--trace 1` the run alternates untraced and traced
repetitions and prints the per-layer metrics, the tracing overhead and the
trace file. Every output is checked; the last line of standard output is
one JSON object, and the line above it a JSON object with the raw median
`wall_s` and the CPU speed factor of each workload. See README.md for the
metric and workload names.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
MIN_REPS = 3
SETUP_SPAWNS = 10
# Every run, with all its repetitions, ends within this many seconds.
RUN_DEADLINE_S = 170
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 80, 75, 50)
# Nominal duration of the worker's reference loop. The CPU speed of a shared
# host drifts by up to a third within seconds, which moved raw medians by
# 15-28% between seeds; every time is therefore reported in reference
# seconds: measured time x REFERENCE_LOOP_S / the reference loop's duration
# in the same worker.
REFERENCE_LOOP_S = 0.005

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn(spec: dict, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run deadline passed")
    spawned_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, "-I", "-S", str(BENCH / "worker.py"),
             str(spawned_ns), json.dumps(spec)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run deadline: {spec}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return _to_reference(json.loads(proc.stdout.strip().splitlines()[-1]))


def _to_reference(rep: dict) -> dict:
    """Convert a worker's times to reference seconds; keep the raw wall."""
    speed = REFERENCE_LOOP_S / rep["reference_loop_s"]
    rep["speed"] = speed
    rep["setup_s"] *= speed
    if "wall_s" in rep:
        rep["raw_wall_s"] = rep["wall_s"]
        rep["wall_s"] *= speed
        rep["latencies_ms"] = [x * speed for x in rep["latencies_ms"]]
    if "layers" in rep:
        units = tracer.metric_units()
        rep["layers"] = {n: v * speed if units[n] in ("s", "ms") else v
                         for n, v in rep["layers"].items()}
        rep["memo_key_s_by_caller"] = {
            n: v * speed for n, v in rep["memo_key_s_by_caller"].items()}
    return rep


def tail_percentile(samples_at_min: int) -> float:
    """Highest listed percentile with at least ten samples beyond it when
    the run makes its minimum number of repetitions; more repetitions only
    add samples, so the percentile is the same on every run."""
    for pct in TAIL_PERCENTILES:
        if samples_at_min - math.ceil(samples_at_min * pct / 100) >= 10:
            return pct
    return 100.0


def _checked(workload: str, tiny: bool, rep: dict) -> dict:
    rep.update(workloads.check(workload, tiny, rep.pop("output")))
    return rep


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = {"workload": workload, "seed": seed, "tiny": tiny, "out_dir": str(OUT_DIR)}
    spawn({**base, "mode": "setup"}, deadline)  # warm-up: bytecode and file caches
    setups: list[float] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    if not trace:
        setups = [spawn({**base, "mode": "setup"}, deadline)["setup_s"]
                  for _ in range(SETUP_SPAWNS)]
    started = last = time.monotonic()
    # A repetition (with --trace 1, an untraced and traced pair) starts only
    # if one as long as the last still ends in time.
    while len(untraced) < MIN_REPS or 2 * time.monotonic() - last - started <= seconds:
        last = time.monotonic()
        untraced.append(_checked(workload, tiny, spawn({**base, "mode": "timed"}, deadline)))
        if trace:
            traced.append(_checked(workload, tiny, spawn({**base, "mode": "traced"}, deadline)))
    reps = untraced + traced
    result = {
        "workload": workload,
        "reps": len(untraced),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "skipped": sum(r["skipped"] for r in reps),
    }
    result["speed_factor"] = statistics.median(r["speed"] for r in reps)
    result["raw_wall_s"] = statistics.median(r["raw_wall_s"] for r in untraced)
    if trace:
        layers = tracer.median_metrics([r["layers"] for r in traced])
        # each pair ran back to back, so its difference cancels most drift
        layers["bench.trace_overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced))
        units = tracer.metric_units()
        result["metrics"] = {n: {"value": layers[n], "unit": u} for n, u in units.items()}
        result["wall_s_traced"] = statistics.median(r["wall_s"] for r in traced)
        result["memo_key_s_by_caller"] = tracer.median_metrics(
            [r["memo_key_s_by_caller"] for r in traced])
        result["trace_file"] = traced[-1]["trace_file"]
        return result
    setups += [r["setup_s"] for r in untraced]
    latencies = [x for r in untraced for x in r["latencies_ms"]]
    # every repetition runs the same items in the same order
    item_medians = [statistics.median(item)
                    for item in zip(*(r["latencies_ms"] for r in untraced))]
    pct = tail_percentile(len(untraced[0]["latencies_ms"]) * MIN_REPS)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "items_per_s": statistics.median(r["attempted"] / r["wall_s"] for r in untraced),
        "item_p50_ms": statistics.median(item_medians),
        "item_tail_ms": tracer.percentile(latencies, pct),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    result["metrics"] = {n: {"value": values[n], "unit": u} for n, u in END_TO_END_UNITS.items()}
    result.update({
        "setup_samples": len(setups),
        "latency_samples": len(latencies),
        "tail_percentile": pct,
    })
    return result


def traffic_check(workload: str, result: dict) -> tuple[str, bool]:
    """Whether the traced run shows the workload stressing its layer."""
    m = {n: v["value"] for n, v in result["metrics"].items()}
    if workload == "corpus5":
        # Memo keys (homology.canonical_form) are not a homology function of
        # their own: each key is built for the homology function whose span
        # encloses the call, and its time is charged to that function.
        keys = result["memo_key_s_by_caller"]
        homology = {
            span: m[f"{span}.self_s"] + keys.get(span, 0.0)
            for span in (f"homology.{name}" for name in tracer.LAYER_FUNCTIONS["homology"])
            if span != "homology.rank"
        }
        homology["homology.rank"] = m["homology.rank.q_s"] + m["homology.rank.f2_s"]
        top = max(homology, key=homology.get)
        ok = top == "homology.reg_edge_ideal_layered"
        return (f"largest homology self time, memo keys charged to their caller: "
                f"{top} ({homology[top]:.3f} s, of which memo keys "
                f"{keys.get(top, 0.0):.3f} s; all memo keys "
                f"{m['homology.canonical_form.self_s']:.3f} s)", ok)
    if workload == "regsweep6":
        ratio = m["homology.memo_hit_ratio"]
        return f"memo_hit_ratio {ratio:.5f} (need >= 0.99)", ratio >= 0.99
    rank_s = m["homology.rank.q_s"] + m["homology.rank.f2_s"]
    wall = result["wall_s_traced"]
    lookups = m["homology.memo_lookups"]
    return (f"rank {rank_s:.3f} s of traced wall {wall:.3f} s (need >= 1/3), "
            f"memo_lookups {lookups:.0f} (need 0)",
            rank_s >= wall / 3 and lookups == 0)


def report(result: dict, trace: bool) -> None:
    """Human-readable lines, one metric per line with its unit."""
    n = result["attempted"]
    print(f"workload {result['workload']}: {result['reps']} untraced repetitions, "
          f"{n} items attempted; times in reference seconds, CPU speed factor "
          f"{result['speed_factor']:.3f}, raw wall_s {result['raw_wall_s']:.4g} s")
    for name, metric in result["metrics"].items():
        note = ""
        if name == "item_tail_ms":
            note = (f"  (p{result['tail_percentile']:g} of "
                    f"{result['latency_samples']} samples)")
        elif name == "setup_s":
            note = f"  (median of {result['setup_samples']} set-ups)"
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"  {'failed_share':44s} {result['failed'] / n:.6g} ({result['failed']}/{n})")
    print(f"  {'skipped_share':44s} {result['skipped'] / n:.6g} ({result['skipped']}/{n})")
    if trace:
        text, ok = traffic_check(result["workload"], result)
        print(f"  traffic check: {text}: {'met' if ok else 'NOT MET'}")
        print(f"  trace file: {os.path.relpath(result['trace_file'], ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "coverdepth" / "__init__.py").is_file():
        print(f"error: no coverdepth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), args.tiny)
            report(results[name], bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
    }
    if len(names) == 1:
        summary["metrics"] = results[names[0]]["metrics"]
    else:
        summary["metrics"] = {
            f"{name}.{metric}": value
            for name, r in results.items() for metric, value in r["metrics"].items()
        }
    # The raw median wall_s and the CPU speed factor it was scaled by, one
    # line above the result, so that raw and scaled spreads can be compared.
    print(json.dumps({"scaling": {
        name: {"raw_wall_s": r["raw_wall_s"], "speed_factor": r["speed_factor"]}
        for name, r in results.items()}}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
