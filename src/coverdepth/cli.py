"""Command-line front end: graph and ideal files in, exact invariants,
ideal constructions, layered graphs, two-route depths, and verification
reports out.

Each command takes only the flags its handler reads. Every command takes
--format (text or json) and --output; `depth` and `verify` add --field and
--hochster-guard; `verify` adds --max-k, --jobs, --graph, --max-vertices
(corpus runs only), --partition (with --graph, for whisker or all only),
and the csv format.
Any other flag, or a mode's flag in the other mode, is a usage error.

Exit codes: 0 success; 1 verification found failures; 2 unparseable or
rejected input, usage errors included, or a file that cannot be read,
decoded or written; 3 resource guard exceeded; 4 operation precondition
violated, or a count flag below 1, or a guard above the default without
the override; 5 two internal computation routes disagreed (a bug, never a
property of the input).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .errors import (
    DEFAULT_ENUM_GUARD,
    DEFAULT_HOCHSTER_GUARD,
    GUARD_OVERRIDE_ENV,
    ConsistencyError,
    GuardError,
    InputError,
    ParseError,
    check_guard,
    guard_override_enabled,
)
from .graphs import (
    Graph,
    independence_number,
    induced_matching_number,
    ordered_profile,
)
from .homology import F2, RATIONALS, FieldChoice, depth_symbolic_cover
from .ideals import (
    MonomialIdeal,
    alexander_dual,
    base_ring,
    cover_ideal,
    edge_ideal,
    format_ideal_text,
    ideal_to_json,
    intersect,
    layered_ring,
    parse_ideal_text,
    polarize,
    power,
    symbolic_power_cover,
)
from .layered import LayeredGraph, build_gk
from .theorems import (
    REPORT_FORMATS,
    THEOREM_IDS,
    VERIFIERS,
    json_text,
    run_corpus,
    run_items,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_PRECONDITION = 4
EXIT_INCONSISTENT = 5

FIELDS = {f.label: f for f in (RATIONALS, F2)}
DEFAULT_MAX_VERTICES = 5
# graph and partition numbers; `str.isdigit` would also take '²', which int rejects
_NUMBER = re.compile("[0-9]+")


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def parse_graph_text(text: str) -> Graph:
    """Graph file: "n <count>", then one edge "u v" per line; ASCII digits."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty graph file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n" or not _NUMBER.fullmatch(head[1]):
        raise ParseError(f"graph file must start with 'n <count>', got {lines[0]!r}")
    n = int(head[1])
    edges = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2 or not all(_NUMBER.fullmatch(p) for p in parts):
            raise ParseError(f"bad edge line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if not 1 <= u < v <= n:
            raise ParseError(f"edge {u} {v} is not 1 <= u < v <= {n}")
        edges.add((u, v))
    try:
        return Graph(n, frozenset(edges))
    except InputError as exc:
        raise ParseError(str(exc)) from exc


def parse_partition_text(text: str) -> list[tuple[int, ...]]:
    """Clique-partition file: one block per line, vertices in ASCII digits."""
    blocks = []
    for ln in text.splitlines():
        if not ln.strip():
            continue
        parts = ln.split()
        if not all(_NUMBER.fullmatch(p) for p in parts):
            raise ParseError(f"bad partition line {ln!r}")
        blocks.append(tuple(int(p) for p in parts))
    if not blocks:
        raise ParseError("empty partition file")
    return blocks


def _layered_token(v: tuple[int, int]) -> str:
    return f"{v[0]}_{v[1]}"


def format_layered_text(gk: LayeredGraph) -> str:
    lines = [f"n {gk.base_n} k {gk.k}"]
    lines.extend(
        f"{_layered_token(a)} {_layered_token(b)}" for a, b in gk.sorted_edges()
    )
    return "\n".join(lines) + "\n"


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_graph(path: str) -> Graph:
    return parse_graph_text(_read_file(path))


def _load_ideal(path: str) -> MonomialIdeal:
    return parse_ideal_text(_read_file(path))


def _intersect_files(path_a: str, path_b: str) -> MonomialIdeal:
    """Intersection of two ideal files, both read over the smallest ring
    that holds the labels of either, since a literal alone infers its ring
    from its own labels; `intersect` rejects a base and a layered one."""
    texts = [_read_file(path) for path in (path_a, path_b)]
    a, b = (parse_ideal_text(text) for text in texts)
    if a.ring.is_layered == b.ring.is_layered:
        labels = {*a.ring.labels, *b.ring.labels}
        ring = layered_ring(labels) if a.ring.is_layered else base_ring(max(labels))
        a, b = (parse_ideal_text(text, ring) for text in texts)
    return intersect(a, b)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        Path(output).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write {output}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def invariants_report(g: Graph) -> dict:
    profile = ordered_profile(g)
    t, cert = profile.best(1)
    s_values = {str(s): profile.best(s)[0] or "-inf" for s in range(1, t + 2)}
    return {
        "n": g.n,
        "alpha": independence_number(g),
        "ind_match": induced_matching_number(g),
        "ord_match": t,
        "s_ord_match": s_values,
        "largest_stable_s": profile.largest_stable_s() if t else None,
        "certificate": [list(p) for p in cert] if cert else None,
    }


def _render_invariants_text(rep: dict) -> str:
    lines = [
        f"n {rep['n']}",
        f"alpha {rep['alpha']}",
        f"ind_match {rep['ind_match']}",
        f"ord_match {rep['ord_match']}",
    ]
    for s, value in rep["s_ord_match"].items():
        lines.append(f"s_ord_match s={s} {value}")
    stable = rep["largest_stable_s"]
    lines.append(f"largest_stable_s {stable if stable is not None else 'none'}")
    cert = rep["certificate"]
    cert_text = " ".join(f"{a},{b}" for a, b in cert) if cert else "none"
    lines.append(f"certificate {cert_text}")
    return "\n".join(lines) + "\n"


def cmd_invariants(args) -> int:
    g = _load_graph(args.graph)
    check_guard(g.n, None, DEFAULT_ENUM_GUARD,
                "invariant search on {cost} vertices exceeds guard {limit}")
    rep = invariants_report(g)
    text = json_text(rep) if args.format == "json" else _render_invariants_text(rep)
    _emit(text, args.output)
    return EXIT_OK


# `ideal` op -> (its positional arguments, in order, and the builder called
# on their values); `k` is parsed as an int.
IDEAL_OPS = {
    "cover": (("graph",), lambda graph: cover_ideal(_load_graph(graph))),
    "edge": (("graph",), lambda graph: edge_ideal(_load_graph(graph))),
    "sympow": (("graph", "k"),
               lambda graph, k: symbolic_power_cover(_load_graph(graph), k)),
    "pow": (("ideal", "k"), lambda ideal, k: power(_load_ideal(ideal), k)),
    "polarize": (("ideal",), lambda ideal: polarize(_load_ideal(ideal))),
    "dual": (("ideal",), lambda ideal: alexander_dual(_load_ideal(ideal))),
    "intersect": (("ideal_a", "ideal_b"), _intersect_files),
}


def cmd_ideal(args) -> int:
    names, build = IDEAL_OPS[args.ideal_op]
    ideal = build(*(getattr(args, name) for name in names))
    if args.format == "json":
        text = json_text(ideal_to_json(ideal))
    else:
        text = format_ideal_text(ideal) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_gk(args) -> int:
    gk = build_gk(_load_graph(args.graph), args.k)
    if args.format == "json":
        text = json_text(
            {
                "n": gk.base_n,
                "k": gk.k,
                "edges": [[list(a), list(b)] for a, b in gk.sorted_edges()],
            }
        )
    else:
        text = format_layered_text(gk)
    _emit(text, args.output)
    return EXIT_OK


def cmd_depth(args) -> int:
    g = _load_graph(args.graph)
    field = FIELDS[args.field]
    depth = depth_symbolic_cover(g, args.k, field, args.hochster_guard)
    if args.format == "json":
        text = json_text({"n": g.n, "k": args.k, "field": field.label, "depth": depth,
                           "routes_agree": True})
    else:
        text = f"depth {depth}\nroutes upper-koszul layered-regularity agree\n"
    _emit(text, args.output)
    return EXIT_OK


def _verify_single(args, field: FieldChoice, theorems) -> list:
    g = _load_graph(args.graph)
    partition = (
        parse_partition_text(_read_file(args.partition)) if args.partition else None
    )
    items = []
    for tid in theorems:
        spec = VERIFIERS[tid]
        if args.theorem == "all":
            if not spec.applies(g, partition):
                continue
        elif spec.takes_partition != (partition is not None):
            need = "needs" if spec.takes_partition else "takes no"
            raise InputError(f"verify {tid} {need} --partition")
        items.append((tid, g, partition, args.max_k, field, args.hochster_guard))
    return run_items(items, args.jobs)


def cmd_verify(args) -> int:
    theorems = THEOREM_IDS if args.theorem == "all" else (args.theorem,)
    field = FIELDS[args.field]
    try:
        if args.graph:
            if args.max_vertices is not None:
                raise InputError("--max-vertices bounds a corpus run, not --graph")
            outcomes = _verify_single(args, field, theorems)
        else:
            if args.partition:
                raise InputError("--partition needs --graph")
            outcomes = run_corpus(
                max_vertices=args.max_vertices or DEFAULT_MAX_VERTICES,
                k_max=args.max_k,
                field=field,
                theorems=theorems,
                jobs=args.jobs,
                guard=args.hochster_guard,
            )
    except InputError as exc:
        # a rejected instance is an input problem, not a disproved theorem
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    _emit(REPORT_FORMATS[args.format](outcomes), args.output)
    return EXIT_VERIFY_FAILED if any(o.status == "failed" for o in outcomes) else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _output_flags(formats) -> argparse.ArgumentParser:
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--format", choices=list(formats), default="text")
    flags.add_argument("--output", default=None)
    return flags


def build_parser() -> argparse.ArgumentParser:
    """Each leaf command takes only the flags its handler reads."""
    parser = argparse.ArgumentParser(
        prog="coverdepth",
        description="Exact depth, regularity, and matching computations for "
        "vertex-cover ideals of graphs, with a theorem-verification harness.",
    )
    out = _output_flags(("text", "json"))
    routes = argparse.ArgumentParser(add_help=False)
    routes.add_argument("--field", choices=sorted(FIELDS), default="q")
    routes.add_argument("--hochster-guard", type=int, default=DEFAULT_HOCHSTER_GUARD)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", parents=[out],
                       help="matching and independence invariants of a graph")
    p.add_argument("graph")

    ideal = sub.add_parser("ideal", help="monomial-ideal constructions")
    isub = ideal.add_subparsers(dest="ideal_op", required=True)
    for op, (names, _build) in IDEAL_OPS.items():
        q = isub.add_parser(op, parents=[out])
        for name in names:
            q.add_argument(name, type=int if name == "k" else None)

    p = sub.add_parser("gk", parents=[out],
                       help="build the layered graph for a symbolic power")
    p.add_argument("graph")
    p.add_argument("k", type=int)

    p = sub.add_parser("depth", parents=[out, routes],
                       help="depth of the symbolic cover-ideal power")
    p.add_argument("graph")
    p.add_argument("k", type=int)

    p = sub.add_parser("verify", parents=[_output_flags(REPORT_FORMATS), routes],
                       help="run theorem verifiers over a corpus or one graph")
    p.add_argument("theorem", choices=[*THEOREM_IDS, "all"])
    p.add_argument("--max-k", type=int, default=3)
    p.add_argument("--max-vertices", type=int, default=None,
                   help=f"largest corpus graph (default {DEFAULT_MAX_VERTICES}); "
                   "not with --graph")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--graph", default=None,
                   help="verify a single graph file instead of the corpus")
    p.add_argument("--partition", default=None,
                   help="clique-partition file for whisker verification; "
                   "needs --graph")
    return parser


def _check_flags(args) -> None:
    """The flag rules argparse cannot state, on whichever of these flags
    the command takes: a guard above the default needs the override, and
    every count is >= 1."""
    flags = vars(args)
    guard = flags.get("hochster_guard", DEFAULT_HOCHSTER_GUARD)
    if guard > DEFAULT_HOCHSTER_GUARD and not guard_override_enabled():
        raise InputError(
            f"--hochster-guard {guard} is above the default "
            f"{DEFAULT_HOCHSTER_GUARD}; set {GUARD_OVERRIDE_ENV}=1 to raise guards"
        )
    for name in ("max_k", "max_vertices", "hochster_guard", "jobs"):
        value = flags.get(name)
        if value is not None and value < 1:
            raise InputError(f"--{name.replace('_', '-')} must be >= 1, got {value}")


_HANDLERS = {
    "invariants": cmd_invariants,
    "ideal": cmd_ideal,
    "gk": cmd_gk,
    "depth": cmd_depth,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return _HANDLERS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
