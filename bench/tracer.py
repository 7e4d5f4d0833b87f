"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions listed in `LAYER_FUNCTIONS` in
every `coverdepth` module namespace that holds them, so calls made through
any import are seen. Each call becomes a span (name, start, end, parent
span, attributes) kept in memory and written out by `write` when the run
ends. A layer's self time is its spans' duration minus that of their child
spans.

Tracing adds a wrapper call, two clock reads and a span per wrapped call;
end-to-end numbers come from untraced runs only.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# layer -> public functions whose calls are traced; a span is named
# "<layer>.<function>" whichever namespace the call went through.
LAYER_FUNCTIONS = {
    "graphs": (
        "ordered_matching_number", "s_ordered_matching_number",
        "largest_stable_s", "induced_matching_number", "canonical_form",
        "isomorphism_representatives", "enumerate_graphs",
    ),
    "ideals": ("symbolic_power_cover", "polarize", "alexander_dual", "power"),
    "layered": ("build_gk", "as_plain_graph", "is_induced_matching_layered"),
    "homology": (
        "depth_symbolic_cover", "reg_edge_ideal_layered",
        "betti_table_squarefree", "reg_edge_ideal", "taylor_betti_oracle",
        "rank",
    ),
    "theorems": (
        "run_corpus", "report_to_json", "verify_main", "verify_whisker",
        "verify_regind", "verify_reg_upper", "verify_bipartite",
        "verify_proof_matchings",
    ),
    "cli": ("main",),
}

# Calls of canonical_form made from homology build component-memo keys;
# they get their own span name so that dedupe calls in graphs stay apart.
NAMESPACE_SPANS = {("homology", "canonical_form"): "homology.canonical_form"}

VERIFIER_SPANS = tuple(f"theorems.{name}" for name in LAYER_FUNCTIONS["theorems"][2:])


def _rank_attrs(rows, char) -> dict:
    return {"char": char, "cells": len(rows) * (len(rows[0]) if rows else 0)}


SPAN_ATTRS = {"homology.rank": _rank_attrs}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    counted = {
        "graphs.ordered_matching_number", "graphs.s_ordered_matching_number",
        "graphs.induced_matching_number", "graphs.canonical_form",
        "ideals.symbolic_power_cover", "homology.depth_symbolic_cover",
        "homology.reg_edge_ideal_layered", "homology.betti_table_squarefree",
        "homology.reg_edge_ideal", "homology.taylor_betti_oracle",
        *VERIFIER_SPANS,
    }
    for layer, names in LAYER_FUNCTIONS.items():
        for name in names:
            span = f"{layer}.{name}"
            if span == "homology.rank":
                units.update({"homology.rank.calls": "count", "homology.rank.q_s": "s",
                              "homology.rank.f2_s": "s", "homology.rank.cells": "count"})
                continue
            if span in counted:
                units[f"{span}.calls"] = "count"
            units[f"{span}.self_s"] = "s"
            if span in VERIFIER_SPANS:
                units[f"{span}.p50_ms"] = "ms"
                units[f"{span}.p95_ms"] = "ms"
        if layer == "homology":
            units.update({
                "homology.canonical_form.self_s": "s",
                "homology.memo_lookups": "count",
                "homology.memo_entries": "count",
                "homology.memo_hit_ratio": "ratio",
            })
    units["bench.trace_overhead_s"] = "s"
    return units


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * pct / 100) - 1)]


class Tracer:
    """In-memory span recorder for the functions in `LAYER_FUNCTIONS`."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    @classmethod
    def install(cls) -> "Tracer":
        """Wrap every listed function in every loaded `coverdepth` module."""
        tracer = cls()
        modules = {
            name.split(".", 1)[1]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("coverdepth.") and mod is not None
        }
        originals = {}
        for layer, names in LAYER_FUNCTIONS.items():
            for name in names:
                originals[id(getattr(modules[layer], name))] = f"{layer}.{name}"
        for namespace, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                span = originals.get(id(value))
                if span is not None:
                    span = NAMESPACE_SPANS.get((namespace, attr), span)
                    setattr(mod, attr, tracer._wrap(span, value))
        return tracer

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        attrs_of = SPAN_ATTRS.get(name)

        def open_span() -> int:
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            return sid

        def close_span(sid: int, start: int, attrs) -> None:
            end = clock()
            stack.pop()
            spans[sid] = (name, start, end, stack[-1] if stack else -1, attrs)

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's time is not counted
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = open_span()
                    start = clock()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(sid, start, None)
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of else None
            sid = open_span()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(sid, start, attrs)

        return wrapper

    def metrics(self, memo_entries: int) -> dict[str, float]:
        """Per-layer metrics from the recorded spans. `memo_entries` is the
        component-memo size at the end of the run."""
        child_ns: dict[int, int] = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        durations: dict[str, list[float]] = defaultdict(list)
        rank_ns = {0: 0, 2: 0}
        cells = 0
        for sid, (name, start, end, _, attrs) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[sid]
            if name in VERIFIER_SPANS:
                durations[name].append((end - start) / 1e6)
            if attrs is not None:
                if attrs["char"] in rank_ns:
                    rank_ns[attrs["char"]] += end - start
                cells += attrs["cells"]
        values: dict[str, float] = {}
        for metric in metric_units():
            span, _, stat = metric.rpartition(".")
            if stat == "calls":
                values[metric] = calls[span]
            elif stat == "self_s":
                values[metric] = self_ns[span] / 1e9
            elif stat == "p50_ms":
                values[metric] = percentile(durations[span], 50)
            elif stat == "p95_ms":
                values[metric] = percentile(durations[span], 95)
        lookups = calls["homology.canonical_form"]
        values.update({
            "homology.rank.q_s": rank_ns[0] / 1e9,
            "homology.rank.f2_s": rank_ns[2] / 1e9,
            "homology.rank.cells": cells,
            "homology.memo_lookups": lookups,
            "homology.memo_entries": memo_entries,
            "homology.memo_hit_ratio": 1 - memo_entries / lookups if lookups else 0.0,
        })
        return values

    def memo_key_s_by_caller(self) -> dict[str, float]:
        """Seconds spent building component-memo keys (the
        `homology.canonical_form` spans), summed by the span that made the
        call, so that key cost can be charged to the homology function
        that needed it."""
        by_caller: dict[str, int] = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if name == "homology.canonical_form":
                caller = self.spans[parent][0] if parent >= 0 else "none"
                by_caller[caller] += end - start
        return {caller: ns / 1e9 for caller, ns in by_caller.items()}

    def write(self, path: Path, meta: dict) -> None:
        """Write the spans as JSON: a name table and one
        [name, start_ns, end_ns, parent, attrs] row per span, times relative
        to the first span."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0
        rows = [[index[n], s - t0, e - t0, p, a] for n, s, e, p, a in self.spans]
        path.write_text(json.dumps({**meta, "names": names, "spans": rows},
                                   separators=(",", ":")))


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over traced repetitions; a name missing from a
    repetition counts as 0 there."""
    names = {name for run in runs for name in run}
    return {name: statistics.median(run.get(name, 0) for run in runs) for name in names}
