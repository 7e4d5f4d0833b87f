"""Smoke test of the benchmark: every workload at its smallest size emits
every metric named in BENCHMARK.json with its unit, and the correctness
checks flag wrong outputs.

Run from the root of a checkout:

    python3 -m unittest bench/test_smoke.py    (or: python3 -m pytest bench)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "1", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_with_its_unit(self) -> None:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            want = {m["name"]: m["unit"] for m in CONFIG[key]}
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(ROOT, "--workload", workload, "--trace", trace, "--tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()}, want)
                    text = "\n".join(lines[:-1])
                    for name, unit in want.items():
                        self.assertRegex(text, rf"\b{name} +\S+ {unit}\b")
                    for name in ("failed_share", "skipped_share"):
                        self.assertIn(name, text)

    def test_refuses_without_sources(self) -> None:
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, bare / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench(bare, "--workload", "regsweep6", "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


class ChecksFlagWrongOutputs(unittest.TestCase):
    def test_regsweep6(self) -> None:
        frozen = workloads.load_regsweep6_frozen()
        reg, t, ind = map(int, frozen[4][:3])
        self.assertEqual(workloads.check("regsweep6", False, [[4, 1, reg, t, ind]])["failed"], 0)
        wrong = [[4, 1, reg + 1, t, ind], [4, 1, "error", "boom"], [4, 1, "skipped"]]
        self.assertEqual(workloads.check("regsweep6", False, wrong),
                         {"attempted": 3, "failed": 3, "skipped": 1})

    def test_betti_generic(self) -> None:
        pool = json.loads((workloads.FROZEN / "betti_pool.json").read_text())["graphs"]
        table = pool[0]["tables"]["q"]
        self.assertEqual(workloads.check("betti_generic", False, [[0, "q", table, table]])["failed"], 0)
        shifted = [[i, j, b + 1] for i, j, b in table]
        wrong = [[0, "q", shifted, None], [0, "q", table, shifted], [0, "q", "skipped"]]
        self.assertEqual(workloads.check("betti_generic", False, wrong),
                         {"attempted": 3, "failed": 3, "skipped": 1})

    def test_corpus5(self) -> None:
        frozen = json.loads((workloads.FROZEN / "corpus5.json").read_text())["instances"]
        self.assertEqual(len(frozen), 222)
        self.assertEqual(sum(e["status"] == "skipped" for e in frozen.values()), 62)
        output = {"exit_code": 1, "outcomes": []}
        self.assertEqual(workloads.check("corpus5", False, output),
                         {"attempted": 222, "failed": 222, "skipped": 0})

    def test_corpus5_outcomes(self) -> None:
        sys.path.insert(0, str(ROOT / "src"))
        from coverdepth import cli

        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        report = out_dir / "smoke-corpus5.json"
        argv = ["verify", "all", "--max-vertices", "3", "--max-k", "3", "--jobs", "1",
                "--format", "json", "--output", str(report)]
        self.assertEqual(cli.main(argv), 0)
        outcomes = json.loads(report.read_text())
        report.unlink()
        result = workloads.check("corpus5", True, {"exit_code": 0, "outcomes": outcomes})
        self.assertEqual(result["failed"], 0)
        passed = [o for o in outcomes if o["theorem_id"] == "main" and o["status"] == "passed"]
        changed = json.loads(json.dumps(passed[0]))
        changed["details"]["report"]["ord_match"] += 1
        dropped = json.loads(json.dumps(passed[1]))
        del dropped["details"]["report"]["ord_match"]
        unpassed = json.loads(json.dumps(passed[2]))
        unpassed["status"] = "skipped"
        wrong = [o for o in outcomes if o not in passed[:3]] + [changed, dropped, unpassed]
        result = workloads.check("corpus5", True, {"exit_code": 0, "outcomes": wrong})
        self.assertEqual(result["failed"], 3)


if __name__ == "__main__":
    unittest.main()
