"""Regenerate the frozen values in `frozen/` that the benchmark checks
outputs against. Run from the root of a checkout:

    python3 bench/freeze.py

The values are mathematical invariants; regenerate them only from a commit
whose results are trusted, and review any change to them. Takes a few
minutes on one core.

* corpus5.json: status of every `verify all --max-vertices 5 --max-k 3`
  outcome under the default guards, and its depth, regularity and matching
  values from that run and from one with the Hochster guard raised to 24,
  so that values a default-guard run skips are frozen too. `passed_paths`
  lists the values a passing outcome reports (from the first run that
  passed), so that a pass which drops one is caught.
* regsweep6.txt: reg I(G), ord-match and ind-match of every labelled graph
  with at least one edge on at most six vertices, one digit each.
* betti_pool.json: the seeded random graphs on 9-12 vertices that
  betti_generic relabels, with the Betti tables of their edge ideals over
  Q and F2.
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from coverdepth import cli  # noqa: E402
from coverdepth.errors import GUARD_OVERRIDE_ENV  # noqa: E402
from coverdepth.graphs import graph, induced_matching_number, ordered_matching_number  # noqa: E402
from coverdepth.homology import F2, RATIONALS, betti_table_squarefree, reg_edge_ideal  # noqa: E402
from coverdepth.ideals import edge_ideal  # noqa: E402

import workloads  # noqa: E402

POOL_SEED = 20230821


def _verify_all(extra: list[str]) -> list[dict]:
    out = workloads.FROZEN / "corpus5-tmp.json"
    argv = ["verify", "all", "--max-vertices", "5", "--max-k", "3", "--jobs", "1",
            "--format", "json", "--output", str(out), *extra]
    if cli.main(argv) != 0:
        raise SystemExit(f"verify all {extra} did not exit 0")
    outcomes = json.loads(out.read_text())
    out.unlink()
    return outcomes


def freeze_corpus5() -> None:
    default = _verify_all([])
    os.environ[GUARD_OVERRIDE_ENV] = "1"
    raised = {
        workloads.instance_key(o["theorem_id"], o["instance"]): o
        for o in _verify_all(["--hochster-guard", "24"])
    }
    instances = {}
    for o in default:
        key = workloads.instance_key(o["theorem_id"], o["instance"])
        values = workloads.outcome_values(o["details"])
        for path, value in workloads.outcome_values(raised[key]["details"]).items():
            if values.setdefault(path, value) != value:
                raise SystemExit(f"{key}: {path} differs between guard settings")
        instances[key] = {
            "theorem_id": o["theorem_id"],
            "n": o["instance"]["graph"]["n"],
            "status": o["status"],
            "values": values,
        }
        passed = next((run for run in (o, raised[key]) if run["status"] == "passed"), None)
        if passed is not None:
            instances[key]["passed_paths"] = sorted(
                workloads.outcome_values(passed["details"]))
    path = workloads.FROZEN / "corpus5.json"
    path.write_text(json.dumps({"instances": instances}, indent=1, sort_keys=True) + "\n")


def freeze_regsweep6() -> None:
    lines = []
    by_n: dict[int, list[str]] = {n: [] for n in range(1, workloads.REGSWEEP6_MAX_N + 1)}
    for n, mask in workloads.regsweep6_population():
        g = graph(n, workloads.edges_of_mask(n, mask))
        row = (reg_edge_ideal(g), ordered_matching_number(g)[0], induced_matching_number(g))
        if max(row) > 9:
            raise SystemExit(f"value above one digit for n={n} mask={mask}")
        by_n[n].append("".join(map(str, row)))
    for n, digits in by_n.items():
        lines.append(f"{n}:{''.join(digits)}")
    (workloads.FROZEN / "regsweep6.txt").write_text("\n".join(lines) + "\n")


def _random_graph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Uniform m-edge graph on n vertices with no isolated vertex."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    while True:
        edges = sorted(rng.sample(pairs, m))
        if len({v for e in edges for v in e}) == n:
            return edges


def freeze_betti_pool() -> None:
    rng = random.Random(POOL_SEED)
    pool = []
    for n in workloads.BETTI_NS["full"]:
        # n edges keeps the Taylor oracle (at most 12 generators) in play
        for m in (n, 3 * n // 2):
            edges = _random_graph(rng, n, m)
            ideal = edge_ideal(graph(n, edges))
            tables = {
                label: [list(e) for e in betti_table_squarefree(ideal, field).entries]
                for label, field in (("q", RATIONALS), ("f2", F2))
            }
            pool.append({"n": n, "edges": edges, "tables": tables})
    path = workloads.FROZEN / "betti_pool.json"
    path.write_text(json.dumps({"seed": POOL_SEED, "graphs": pool}) + "\n")


if __name__ == "__main__":
    workloads.FROZEN.mkdir(exist_ok=True)
    freeze_betti_pool()
    freeze_corpus5()
    freeze_regsweep6()
