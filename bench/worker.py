"""One repetition of a workload in a fresh interpreter.

Usage (from `run.py`): python3 -I -S bench/worker.py SPAWN_NS SPEC_JSON

SPAWN_NS is the parent's CLOCK_MONOTONIC reading just before the spawn, so
set-up time covers interpreter start, importing `coverdepth` from the
checkout's `src/`, and generating the inputs. SPEC_JSON holds `workload`,
`seed`, `tiny`, `mode` ("setup", "timed" or "traced") and `out_dir`. The
result is printed as one JSON line. It includes the median duration of a
fixed reference loop, timed after set-up and again after the timed section,
which `run.py` uses to scale times to a reference CPU speed.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
CAL_RUNS = 10


def reference_loop() -> float:
    """Duration of a fixed loop of interpreter work (indexing, dict updates,
    integer arithmetic) that allocates no tracked objects, so it is
    independent of the program and of its heap; about 5 ms."""
    table = list(range(64))
    index = dict.fromkeys(range(64), 1)
    acc = 0
    start = time.perf_counter()
    for i in range(20000):
        k = i & 63
        acc = (acc + index[k] * table[63 - k]) & 0xFFFF
        index[k] = acc & 63
    return time.perf_counter() - start


def calibrate() -> list[float]:
    return [reference_loop() for _ in range(CAL_RUNS)]


def main() -> int:
    spawned_ns = int(sys.argv[1])
    spec = json.loads(sys.argv[2])
    sys.path[:0] = [str(SRC), str(BENCH)]
    import coverdepth.cli  # noqa: F401  (the whole package, as the CLI loads it)

    if not Path(coverdepth.__file__).resolve().is_relative_to(SRC):
        print(f"coverdepth imported from {coverdepth.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    out_dir = Path(spec["out_dir"])
    inputs = workloads.setup(spec["workload"], spec["seed"], spec["tiny"], out_dir)
    result: dict = {
        "setup_s": (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - spawned_ns) / 1e9
    }
    cal = calibrate()
    if spec["mode"] != "setup":
        tracer = None
        if spec["mode"] == "traced":
            from tracer import Tracer

            tracer = Tracer.install()
        result.update(workloads.run(spec["workload"], inputs))
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        cal += calibrate()
        if tracer is not None:
            from coverdepth import homology

            memo = getattr(homology, "_COMPONENT_DIMS", {})
            result["layers"] = tracer.metrics(len(memo))
            result["memo_key_s_by_caller"] = tracer.memo_key_s_by_caller()
            trace_path = out_dir / f"trace-{spec['workload']}.json"
            tracer.write(trace_path, {"workload": spec["workload"], "seed": spec["seed"]})
            result["trace_file"] = str(trace_path)
    result["reference_loop_s"] = statistics.median(cal)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
