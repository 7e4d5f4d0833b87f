"""The three benchmark workloads: input generation, the timed section, and
the correctness checks against frozen values.

`setup` and `run` execute inside a fresh worker interpreter (see
`worker.py`) and call into `coverdepth`; `check` runs in the parent and
never imports the package. Inputs depend only on the workload, the seed and
the size, never on the program under test.

Frozen values live in `frozen/` and are regenerated by `freeze.py`. They are
mathematical invariants, so any correct version of the program reproduces
them; checks compare values, never report bytes, so a change that turns a
guard skip into a pass does not trip them.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path

WORKLOADS = ("corpus5", "regsweep6", "betti_generic")

FROZEN = Path(__file__).resolve().parent / "frozen"

# corpus5: `coverdepth verify all` on the <=5-vertex corpus, one process.
CORPUS5_MAX_VERTICES = {"full": 5, "tiny": 3}
# regsweep6: labelled graphs with at least one edge on at most six vertices.
REGSWEEP6_SAMPLE = {"full": 2000, "tiny": 20}
REGSWEEP6_MAX_N = 6
# betti_generic: vertex counts of the frozen graphs used.
BETTI_NS = {"full": (9, 10, 11, 12), "tiny": (9,)}
# The Taylor oracle runs on ideals with at most this many generators.
TAYLOR_MAX_GENS = 12


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


def edges_of_mask(n: int, mask: int) -> list[tuple[int, int]]:
    """Edges of the labelled graph whose edge bitmask, over the pairs (u, v)
    with u < v in lexicographic order, is `mask`."""
    return [p for i, p in enumerate(_pairs(n)) if mask >> i & 1]


def regsweep6_population() -> list[tuple[int, int]]:
    """Every (n, edge mask) with n <= 6 and at least one edge, in frozen
    order: 33 861 labelled graphs."""
    return [
        (n, mask)
        for n in range(1, REGSWEEP6_MAX_N + 1)
        for mask in range(1, 1 << (n * (n - 1) // 2))
    ]


def instance_key(theorem_id: str, instance: dict) -> str:
    payload = json.dumps(instance, sort_keys=True).encode()
    return f"{theorem_id}:{hashlib.sha256(payload).hexdigest()[:16]}"


# Integer leaves of an outcome's details that are depth, regularity or
# matching values. Certificates and matchings are left out: another maximum
# certificate is as correct as the frozen one.
VALUE_KEYS = frozenset({
    "depths", "expected_depths", "t", "s", "threshold", "limit_depth",
    "ord_match", "ind_match", "reg", "reg_edge_ideal", "alpha", "m",
    "largest_stable_s", "size", "k", "expected", "sdstab_observed_upper",
})
SKIP_KEYS = frozenset({"certificate", "matching", "graph", "whiskered"})


def outcome_values(details: dict) -> dict[str, int]:
    """Flattened path -> value for the checked integer leaves. A passed
    `main` outcome nests its values under "report"; that level is dropped so
    that a skip turning into a pass keeps the paths of its values."""
    out: dict[str, int] = {}

    def walk(node, path: tuple[str, ...]) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "report":
                    walk(value, path)
                elif key not in SKIP_KEYS:
                    walk(value, (*path, str(key)))
        elif isinstance(node, int) and not isinstance(node, bool):
            if VALUE_KEYS.intersection(path):
                out["/".join(path)] = node

    walk(details, ())
    return out


def _size(tiny: bool) -> str:
    return "tiny" if tiny else "full"


# ---------------------------------------------------------------------------
# worker side: input generation and the timed section
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int, tiny: bool, out_dir: Path):
    """Build the workload's inputs from the seed. Runs inside the worker
    after `coverdepth` is imported; its end marks the end of set-up."""
    from coverdepth.graphs import graph
    from coverdepth.ideals import edge_ideal

    size = _size(tiny)
    if workload == "corpus5":
        # The corpus is exhaustive, so the seed only names the report file.
        report = out_dir / f"corpus5-report-{seed}.json"
        argv = [
            "verify", "all",
            "--max-vertices", str(CORPUS5_MAX_VERTICES[size]),
            "--max-k", "3", "--jobs", "1", "--format", "json",
            "--output", str(report),
        ]
        return argv, report
    if workload == "regsweep6":
        population = regsweep6_population()
        picks = random.Random(seed).sample(population, REGSWEEP6_SAMPLE[size])
        return [(n, mask, graph(n, edges_of_mask(n, mask))) for n, mask in picks]
    if workload == "betti_generic":
        # The seed relabels the vertices of a fixed set of seeded random
        # graphs. Drawing other graphs per seed moved the run's cost by a
        # third between seeds, because the subset sweep's cost depends on
        # the graph far more than on its labelling.
        rng = random.Random(seed)
        pool = json.loads((FROZEN / "betti_pool.json").read_text())["graphs"]
        items = []
        for idx, entry in enumerate(pool):
            if entry["n"] in BETTI_NS[size]:
                perm = list(range(1, entry["n"] + 1))
                rng.shuffle(perm)
                edges = [(perm[u - 1], perm[v - 1]) for u, v in entry["edges"]]
                items.append((idx, edge_ideal(graph(entry["n"], edges))))
        return items
    raise ValueError(f"unknown workload {workload!r}")


def _timed_calls(module, names: tuple[str, ...], latencies: list[float]) -> None:
    """Replace module-level functions by timers appending each call's
    duration in ms; later lookups through `module` see the timers."""
    clock = time.perf_counter

    def timed(fn):
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                latencies.append((clock() - start) * 1e3)

        return wrapper

    for name in names:
        setattr(module, name, timed(getattr(module, name)))


VERIFIERS = (
    "verify_main", "verify_whisker", "verify_regind", "verify_reg_upper",
    "verify_bipartite", "verify_proof_matchings",
)


def run(workload: str, inputs) -> dict:
    """The timed section: every item in a closed loop, each call starting
    when the previous one returned. Functions are looked up through their
    modules at call time so that a tracer installed beforehand sees them."""
    from coverdepth import cli, graphs, homology, theorems
    from coverdepth.errors import GuardError

    clock = time.perf_counter
    latencies: list[float] = []
    if workload == "corpus5":
        argv, report = inputs
        # Per-outcome latency: each outcome is one verifier call, the only
        # per-item boundary on the CLI path.
        _timed_calls(theorems, VERIFIERS, latencies)
        start = clock()
        try:
            code = cli.main(argv)
        except Exception:  # the check counts every item as failed
            code = None
        wall = clock() - start
        outcomes = json.loads(report.read_text()) if report.exists() else None
        report.unlink(missing_ok=True)
        return {"wall_s": wall, "latencies_ms": latencies,
                "output": {"exit_code": code, "outcomes": outcomes}}

    rows = []
    if workload == "regsweep6":
        start = clock()
        for n, mask, g in inputs:
            t0 = clock()
            try:
                row = [n, mask, homology.reg_edge_ideal(g),
                       graphs.ordered_matching_number(g)[0],
                       graphs.induced_matching_number(g)]
            except GuardError:
                row = [n, mask, "skipped"]
            except Exception as exc:  # counted as a failed item
                row = [n, mask, "error", repr(exc)]
            latencies.append((clock() - t0) * 1e3)
            rows.append(row)
        wall = clock() - start
    elif workload == "betti_generic":
        fields = (("q", homology.RATIONALS), ("f2", homology.F2))
        start = clock()
        for idx, ideal in inputs:
            for label, field in fields:
                t0 = clock()
                try:
                    table = homology.betti_table_squarefree(ideal, field)
                    oracle = None
                    if len(ideal.gens) <= TAYLOR_MAX_GENS:
                        oracle = homology.taylor_betti_oracle(ideal, field)
                    row = [idx, label, [list(e) for e in table.entries],
                           None if oracle is None else [list(e) for e in oracle.entries]]
                except GuardError:
                    row = [idx, label, "skipped"]
                except Exception as exc:  # counted as a failed item
                    row = [idx, label, "error", repr(exc)]
                latencies.append((clock() - t0) * 1e3)
                rows.append(row)
        wall = clock() - start
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"wall_s": wall, "latencies_ms": latencies, "output": rows}


# ---------------------------------------------------------------------------
# parent side: correctness checks
# ---------------------------------------------------------------------------


def check(workload: str, tiny: bool, output) -> dict:
    """Counts of attempted, failed and skipped items for one repetition. A
    failed item is a failed outcome, an exception, a nonzero exit or a
    mismatch with the frozen values; mismatches never abort the run. On
    regsweep6 and betti_generic every item has a frozen value, so a guard
    skip there is also a failed item; only corpus5 may skip."""
    if workload == "corpus5":
        return _check_corpus5(tiny, output)
    if workload == "regsweep6":
        return _check_regsweep6(output)
    if workload == "betti_generic":
        return _check_betti(output)
    raise ValueError(f"unknown workload {workload!r}")


def _check_corpus5(tiny: bool, output: dict) -> dict:
    frozen = json.loads((FROZEN / "corpus5.json").read_text())["instances"]
    max_n = CORPUS5_MAX_VERTICES[_size(tiny)]
    expected = {key for key, entry in frozen.items() if entry["n"] <= max_n}
    outcomes = output["outcomes"]
    if output["exit_code"] != 0 or outcomes is None:
        return {"attempted": len(expected), "failed": len(expected), "skipped": 0}
    failed = skipped = 0
    seen = set()
    for outcome in outcomes:
        key = instance_key(outcome["theorem_id"], outcome["instance"])
        seen.add(key)
        entry = frozen.get(key)
        status = outcome["status"]
        skipped += status == "skipped"
        values = outcome_values(outcome["details"])
        if (
            entry is None
            or key not in expected
            or status == "failed"
            or (entry["status"] == "passed" and status != "passed")
            or any(entry["values"].get(path) != value for path, value in values.items())
            # a pass reports every value its frozen pass reported
            or (status == "passed"
                and not set(entry.get("passed_paths", ())) <= values.keys())
        ):
            failed += 1
    missing = len(expected - seen)
    return {"attempted": len(outcomes) + missing, "failed": failed + missing,
            "skipped": skipped}


def load_regsweep6_frozen() -> dict[int, str]:
    """n -> one digit triple (reg, ord-match, ind-match) per edge mask,
    starting at mask 1."""
    table = {}
    for line in (FROZEN / "regsweep6.txt").read_text().split():
        n, digits = line.split(":")
        table[int(n)] = digits
    return table


def _check_regsweep6(rows: list) -> dict:
    frozen = load_regsweep6_frozen()
    failed = skipped = 0
    for row in rows:
        n, mask, *values = row
        if values[0] in ("skipped", "error"):
            # every row has a frozen value, so a skip is a missing output
            skipped += values[0] == "skipped"
            failed += 1
            continue
        reg, t, ind = values
        want = frozen[n][3 * (mask - 1): 3 * mask]
        if not (ind + 1 <= reg <= t + 1) or f"{reg}{t}{ind}" != want:
            failed += 1
    return {"attempted": len(rows), "failed": failed, "skipped": skipped}


def _check_betti(rows: list) -> dict:
    pool = json.loads((FROZEN / "betti_pool.json").read_text())["graphs"]
    failed = skipped = 0
    for row in rows:
        idx, label, *values = row
        if values[0] in ("skipped", "error"):
            skipped += values[0] == "skipped"
            failed += 1
            continue
        table, oracle = values
        if table != pool[idx]["tables"][label] or (
            oracle is not None and oracle != table
        ):
            failed += 1
    return {"attempted": len(rows), "failed": failed, "skipped": skipped}
