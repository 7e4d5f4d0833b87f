"""Executable verification of the package's theorems on graph corpora.

Each verifier checks one statement relating cover-ideal depth, edge-ideal
regularity, and matching numbers on a concrete graph, and returns a
:class:`VerificationOutcome` that is `passed`, `failed` (with an expected
vs computed payload), or `skipped` (resource guards; never silent). Every
outcome is built by `_outcome`.

:data:`VERIFIERS` is the registry: one :class:`Verifier` entry per theorem
id, in report order, saying which instances a verifier takes and how it is
called. :data:`THEOREM_IDS`, :func:`run_corpus` and the CLI's single-graph
mode all read it, so a new verifier is one entry. Both modes hand their
items to :func:`run_items`, the one place an entry is called.
:func:`run_corpus` sweeps every verifier over exhaustively enumerated small
graphs and yields a deterministic, machine-readable report, rendered by
:data:`REPORT_FORMATS`. The JSON report, like every JSON output of the CLI,
is written by :func:`json_text`, which matches
`json.dumps(obj, indent=2, sort_keys=True)` byte for byte in one pass.

Importing this module, and so starting the CLI, loads no process pool:
`run_items` imports `concurrent.futures` (and with it multiprocessing) only
when it starts workers, and the text and csv reports import `hashlib` and
`csv` when they render.
"""

from __future__ import annotations

import itertools
import json
import os
from collections.abc import Callable, Iterable, Iterator, Sequence
from json.encoder import encode_basestring_ascii as _json_str

from . import homology
from .errors import ConsistencyError, Frozen, GuardError, InputError
from .graphs import (
    Graph,
    OrderedProfile,
    graph,
    independence_number,
    induced_matching_number,
    induced_matching_of_masks,
    is_bipartite,
    isolated_vertices,
    isomorphism_classes,
    ordered_matching_number,
    ordered_profile,
    whisker,
)
from .homology import RATIONALS, FieldChoice
from .ideals import cover_ideal, power, symbolic_power_cover
from .layered import (
    build_gk,
    is_induced_matching_layered,
    proof_matching_bipartite,
    proof_matching_main,
)

#: largest base-graph size whiskered instances are generated from
WHISKER_BASE_LIMIT = 4


def stability_threshold(t: int, s: int) -> int:
    """Exponent from which the depth of symbolic cover-ideal powers is
    guaranteed to equal its limit value: 2t - 1 in general (s = 1), and
    the smaller 2t - 2s + 2 when the ordered matching is s-ordered."""
    if t < 1 or s < 1 or s > t:
        raise InputError(f"need 1 <= s <= t, got s={s}, t={t}")
    return 2 * t - 1 if s == 1 else 2 * t - 2 * s + 2


def _stability(g: Graph) -> tuple[int, int, int, OrderedProfile]:
    """(ordered matching number, largest stable s, stability threshold, and
    the profile they were read from)."""
    profile = ordered_profile(g)
    t, s = profile.best(1)[0], profile.largest_stable_s()
    return t, s, stability_threshold(t, s), profile


class VerificationOutcome(Frozen):
    """Result of one verifier on one instance. `status` is `passed`,
    `failed`, or `skipped`; anything other than a pass carries details."""

    _fields = ("theorem_id", "instance", "status", "details")
    theorem_id: str
    instance: dict
    status: str
    details: dict

    def __init__(self, theorem_id: str, instance: dict, status: str, details: dict) -> None:
        object.__setattr__(self, "theorem_id", theorem_id)
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "details", details)
        if self.status not in ("passed", "failed", "skipped"):
            raise InputError(f"unknown outcome status {self.status!r}")
        if self.status != "passed" and not self.details:
            raise InputError("failed and skipped outcomes need details")

    @property
    def passed(self) -> bool:
        return self.status == "passed"

    def to_json(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "instance": self.instance,
            "status": self.status,
            "passed": self.passed,
            "details": self.details,
        }


def _graph_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.sorted_edges()]}


def _no_isolated(g: Graph) -> bool:
    return not isolated_vertices(g)


def _require_no_isolated(g: Graph) -> None:
    bad = isolated_vertices(g)
    if bad:
        raise InputError(f"graph must have no isolated vertices, found {bad}")


def _observed_stabilization(depths: dict[int, int], limit: int) -> int | None:
    """Smallest k in the window from which every later depth equals the
    limit, or None if the window never settles there."""
    ks = sorted(depths)
    if not ks or depths[ks[-1]] != limit:
        return None
    start = ks[-1]
    for k in reversed(ks):
        if depths[k] != limit:
            break
        start = k
    return start


# Depths computed so far in the running `run_items` call, keyed by
# (n, adjacency masks, k, characteristic); None outside such a call. Whisker
# instances on bases of at most WHISKER_BASE_LIMIT vertices reach it through
# an orbit copy (`_orbit_copy`), so the clique partitions of one Aut(base)
# orbit share one entry per k; with more than one worker, only among the
# items of one worker process.
_DEPTH_MEMO: dict[tuple, int] | None = None

# For each whisker base seen in the running `run_items` call, keyed by (n,
# adjacency masks): its automorphisms, and for each clique partition (sorted
# tuple of sorted blocks) of an orbit met so far, the orbit's least image and
# a sigma sending the partition there; created and dropped with `_DEPTH_MEMO`.
_BASE_AUTOMORPHISMS: dict[tuple, tuple[list[tuple[int, ...]], dict]] | None = None


def _depth(g: Graph, k: int, f: FieldChoice, guard: int | None) -> int:
    """depth(S/J(g)^(k)) by `homology.depth_symbolic_cover`, looked up at
    call time so that wrappers set on the module see every call.

    Inside `run_items`, which serves corpus and single-graph runs alike, a
    depth already computed for the same labelled graph, k and field is
    read from `_DEPTH_MEMO`; a guard hit raises and is never stored.
    Outside it every call computes afresh, so direct verifier calls never
    read a value another call left behind."""
    memo = _DEPTH_MEMO
    if memo is None:
        return homology.depth_symbolic_cover(g, k, f, guard)
    key = (g.n, g.adj, k, f.char)
    if key not in memo:
        memo[key] = homology.depth_symbolic_cover(g, k, f, guard)
    return memo[key]


def _depths(
    g: Graph, ks: Iterable[int], f: FieldChoice, guard: int | None
) -> tuple[dict[int, int], str | None]:
    """depth(S/J(g)^(k)) for each k in increasing order, stopping at the
    first guard hit; the second value is that hit as "k=<k>: <message>", or
    None. A depth above an earlier one raises ConsistencyError: depth
    S/J(g)^(k) is non-increasing in k (Seyed Fakhari, as recalled; the
    reference is unconfirmed), and all 1 208 depth series of the lifted
    `verify all --max-vertices 7` report comply."""
    depths: dict[int, int] = {}
    for k in ks:
        try:
            depths[k] = _depth(g, k, f, guard)
        except GuardError as err:
            return depths, f"k={k}: {err}"
        if depths[k] > min(depths.values()):
            raise ConsistencyError(f"depth rises with k: {depths}")
    return depths, None


def _automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every automorphism sigma of g as (sigma(1), ..., sigma(n)), by brute
    force over the n! relabellings (`verify_whisker` asks only for bases on
    at most WHISKER_BASE_LIMIT vertices)."""
    return [
        p for p in itertools.permutations(g.vertices)
        if all((min(p[u - 1], p[v - 1]), max(p[u - 1], p[v - 1])) in g.edges
               for u, v in g.edges)
    ]


def _orbit_copy(g: Graph, blocks: list[list[int]], w: Graph) -> Graph:
    """w = whisker(g, blocks) relabelled so that every clique partition in
    one Aut(g) orbit gives the same labelled graph, whisker(g, least image).

    sigma in Aut(g) makes the sorted list of the sorted blocks sigma(B_j)
    least; base vertex v becomes sigma(v), and whisker vertex n + j becomes
    n + 1 + the rank of sigma(B_j) in that list. The copy is a relabelling
    of w whatever sigma is, so a wrong automorphism can only cost memo hits,
    never change a depth. Aut(g) is enumerated once per base per run, and
    sigma is chosen once per orbit: when p sends the first partition met, P,
    to Q, then sigma_P composed with p^-1 sends Q to the least image."""
    key = (g.n, g.adj)
    entry = _BASE_AUTOMORPHISMS.get(key)
    if entry is None:
        entry = _BASE_AUTOMORPHISMS[key] = (_automorphisms(g), {})
    auts, sigmas = entry
    part = tuple(sorted(map(tuple, blocks)))
    if part not in sigmas:
        images = [
            (tuple(sorted(tuple(sorted(p[v - 1] for v in b)) for b in part)), p)
            for p in auts
        ]
        least, sigma = min(images)
        sigmas[part] = least, sigma
        for image, p in images:
            tau = tuple(sigma[p.index(v)] for v in g.vertices)
            sigmas.setdefault(image, (least, tau))
    least, sigma = sigmas[part]
    ranks = [least.index(tuple(sorted(sigma[v - 1] for v in b))) for b in blocks]
    label = [*sigma, *(g.n + 1 + r for r in ranks)]
    return graph(w.n, ((label[u - 1], label[v - 1]) for u, v in w.edges))


def _outcome(
    theorem_id: str, instance: dict, base: dict, failures: dict, skip: str | None
) -> VerificationOutcome:
    """Any failure fails the instance; otherwise a skip reason skips it;
    otherwise it passes with `base` as its details."""
    if failures:
        return VerificationOutcome(theorem_id, instance, "failed", {**base, **failures})
    if skip is not None:
        return VerificationOutcome(
            theorem_id, instance, "skipped", {**base, "reason": skip}
        )
    return VerificationOutcome(theorem_id, instance, "passed", base)


def verify_main(
    g: Graph,
    f: FieldChoice = RATIONALS,
    guard: int | None = None,
) -> VerificationOutcome:
    """Depth stabilization: depth(S/J(g)^(k)) equals n - t - 1 for every
    exponent at or beyond the two-case threshold, and never dips below that
    limit earlier. Checks exponents 1 .. threshold + 1; the instance records
    that one exponent past the threshold as `"k_extra": 1`."""
    _require_no_isolated(g)
    t, s, threshold, _ = _stability(g)
    limit = g.n - t - 1
    instance = {"graph": _graph_json(g), "k_extra": 1, "field": f.label}
    depths, guard_hit = _depths(g, range(1, threshold + 2), f, guard)
    failures = {}
    for k, depth in depths.items():
        if k >= threshold and depth != limit:
            failures[f"depth at k={k}"] = {"expected": limit, "computed": depth}
        elif depth < limit:
            failures[f"depth at k={k}"] = {"lower_bound": limit, "computed": depth}
    base = {
        "t": t,
        "s": s,
        "threshold": threshold,
        "limit_depth": limit,
        "depths": {str(k): d for k, d in sorted(depths.items())},
    }
    if failures or guard_hit is not None:
        return _outcome("main", instance, base, failures, guard_hit)
    report = {
        "graph": instance["graph"],
        "ord_match": t,
        "largest_stable_s": s,
        "threshold": threshold,
        "depths": base["depths"],
        "limit_depth": limit,
        "sdstab_observed_upper": _observed_stabilization(depths, limit),
    }
    return _outcome("main", instance, {"report": report}, {}, None)


def verify_whisker(
    g: Graph,
    pi: Sequence[Iterable[int]],
    k_max: int = 3,
    f: FieldChoice = RATIONALS,
    guard: int | None = None,
) -> VerificationOutcome:
    """Whiskered graphs: attaching one vertex per block of a clique
    partition pi of g yields a graph whose symbolic cover-ideal depth is
    n + m - alpha(g) - 1 at k = 1 and n - 1 for every k >= 2 (n = |V(g)|,
    m = number of blocks), and whose ordered matching number is m with an
    m-ordered certificate. Depth is read at k = 1..max(2, k_max).

    Inside `run_items`, and for a base on at most WHISKER_BASE_LIMIT
    vertices, the depths are read from an isomorphic orbit copy of the
    whiskered graph (`_orbit_copy`), so that the partitions of one Aut(g)
    orbit share their memo entries; otherwise (outside a run, or a larger
    base given to a single-graph run, whose n! relabellings would cost far
    more than a memo hit saves) they are computed on the whiskered graph
    itself. Either way the outcome reports pi and its own whiskered
    graph."""
    if k_max < 1:
        raise InputError("k_max must be >= 1")
    w = whisker(g, pi)
    blocks = [sorted(set(b)) for b in pi]
    m = len(blocks)
    alpha = independence_number(g)
    instance = {
        "graph": _graph_json(g),
        "partition": blocks,
        "k_max": k_max,
        "field": f.label,
    }
    profile = ordered_profile(w)
    t_w, _ = profile.best(1)
    failures = {}
    if t_w != m:
        failures["ord_match"] = {"expected": m, "computed": t_w}
    s_w = profile.best(m)[0] or "-inf"
    if s_w != m:
        failures["m_ordered_certificate"] = {"expected": m, "computed": s_w}
    small = _DEPTH_MEMO is not None and g.n <= WHISKER_BASE_LIMIT
    copy = _orbit_copy(g, blocks, w) if small else w
    depths, guard_hit = _depths(copy, range(1, max(2, k_max) + 1), f, guard)
    expected = {
        k: (g.n + m - alpha - 1 if k == 1 else g.n - 1) for k in depths
    }
    for k, depth in depths.items():
        if depth != expected[k]:
            failures[f"depth at k={k}"] = {
                "expected": expected[k],
                "computed": depth,
            }
    base = {
        "whiskered": _graph_json(w),
        "m": m,
        "alpha": alpha,
        "depths": {str(k): d for k, d in sorted(depths.items())},
        "expected_depths": {str(k): d for k, d in sorted(expected.items())},
        "stabilizes_by": 2,
    }
    return _outcome("whisker", instance, base, failures, guard_hit)


def verify_regind(
    g: Graph,
    f: FieldChoice = RATIONALS,
    guard: int | None = None,
) -> VerificationOutcome:
    """At the stabilization threshold (and one past it, guards allowing),
    the layered graph satisfies the double equality
    reg(I(G_k)) = ind-match(G_k) + 1 = ord-match(g) + 1. reg(I(G_k)) is
    read as n - depth(S/J(g)^(k)), so both depth routes must agree on it."""
    _require_no_isolated(g)
    t, s, threshold, _ = _stability(g)
    instance = {"graph": _graph_json(g), "field": f.label}
    checked: dict[str, dict] = {}
    failures = {}
    guard_notes = {}
    for k in (threshold, threshold + 1):
        try:
            reg = g.n - _depth(g, k, f, guard)
        except GuardError as err:
            guard_notes[f"k={k}"] = str(err)
            continue
        ind = induced_matching_of_masks(build_gk(g, k).adj)
        checked[f"k={k}"] = {"reg": reg, "ind_match": ind, "expected": t + 1}
        if not (reg == ind + 1 == t + 1):
            failures[f"k={k}"] = {"reg": reg, "ind_match_plus_1": ind + 1,
                                  "ord_match_plus_1": t + 1}
    base = {"t": t, "s": s, "threshold": threshold, "checked": checked}
    if guard_notes:
        base["guard_skips"] = guard_notes
    skip = None if checked else "all exponents exceed the guard"
    return _outcome("regind", instance, base, failures, skip)


def verify_reg_upper(
    g: Graph,
    f: FieldChoice = RATIONALS,
    guard: int | None = None,
) -> VerificationOutcome:
    """Edge-ideal regularity is sandwiched by matching numbers:
    ind-match(g) + 1 <= reg(I(g)) <= ord-match(g) + 1. reg(I(g)) is read as
    n - depth(S/J(g)) = pd(S/J(g)) (Terai, with J(g) the Alexander dual of
    I(g); G_1 = g), so both depth routes must agree on it."""
    if not g.edges:
        raise InputError("needs a graph with at least one edge")
    instance = {"graph": _graph_json(g), "field": f.label}
    try:
        reg = g.n - _depth(g, 1, f, guard)
    except GuardError as err:
        return _outcome("regupper", instance, {}, {}, str(err))
    t, _ = ordered_matching_number(g)
    ind = induced_matching_number(g)
    details = {
        "reg_edge_ideal": reg,
        "ord_match": t,
        "ind_match": ind,
        "upper_bound_ok": reg <= t + 1,
        "lower_bound_ok": reg >= ind + 1,
    }
    failures = {name: False for name in ("upper_bound_ok", "lower_bound_ok")
                if not details[name]}
    return _outcome("regupper", instance, details, failures, None)


def verify_bipartite(
    g: Graph,
    k_max: int = 3,
    f: FieldChoice = RATIONALS,
    guard: int | None = None,
) -> VerificationOutcome:
    """Bipartite graphs: symbolic and ordinary cover-ideal powers agree for
    k <= k_max, and the depth already sits at its limit n - t - 1 for every
    k from t = ord-match(g) on (so the powers, symbolic or not, stabilize
    no later than t). Depth is read at k = t..max(t, k_max)."""
    if not is_bipartite(g):
        raise InputError("graph must be bipartite")
    _require_no_isolated(g)
    if k_max < 1:
        raise InputError("k_max must be >= 1")
    t, _ = ordered_matching_number(g)
    instance = {"graph": _graph_json(g), "k_max": k_max, "field": f.label}
    j = cover_ideal(g)
    powers_equal = {}
    failures = {}
    for k in range(1, k_max + 1):
        same = symbolic_power_cover(g, k) == power(j, k)
        powers_equal[k] = same
        if not same:
            failures[f"symbolic vs ordinary at k={k}"] = {"equal": False}
    depths, guard_hit = _depths(g, range(t, max(t, k_max) + 1), f, guard)
    limit = g.n - t - 1
    for k, depth in depths.items():
        if depth != limit:
            failures[f"depth at k={k}"] = {"expected": limit, "computed": depth}
    base = {
        "t": t,
        "limit_depth": limit,
        "symbolic_equals_ordinary": {str(k): v for k, v in powers_equal.items()},
        "depths": {str(k): d for k, d in sorted(depths.items())},
    }
    return _outcome("bipartite", instance, base, failures, guard_hit)


def _witness(g: Graph, k: int, cert: Sequence, matching: Sequence) -> dict:
    """Report entry of a proof matching on G_k built from `cert`; a pair off
    G_k's edges is a faulty construction, so not induced, not bad input."""
    gk = build_gk(g, k)
    return {
        "k": k,
        "certificate": [list(p) for p in cert],
        "matching": [[list(a), list(b)] for a, b in matching],
        "induced": all(gk.has_edge(a, b) for a, b in matching)
        and is_induced_matching_layered(gk, matching),
        "size": len(matching),
    }


def verify_proof_matchings(
    g: Graph,
    f: FieldChoice = RATIONALS,
) -> VerificationOutcome:
    """Builds the explicit layered matchings behind the stabilization
    results at their smallest admissible exponent and checks they are
    induced matchings of G_k of size t, which witnesses
    ind-match(G_k) >= ord-match(g).

    The general construction needs an s-ordered certificate with s >= 2;
    the bipartite construction needs a maximum ordered matching whose
    second endpoints form an independent set. A graph offering neither
    hypothesis is reported as skipped, not failed."""
    _require_no_isolated(g)
    t, s, threshold, profile = _stability(g)
    instance = {"graph": _graph_json(g), "field": f.label}
    details: dict = {"t": t, "s": s}

    if s >= 2:
        _size, cert = profile.best(s)
        matching = proof_matching_main(g, cert, s, threshold)
        details["main"] = _witness(g, threshold, cert, matching)
    else:
        details["main"] = {
            "status": "skipped",
            "reason": "no explicit construction applies when the largest "
            "stable order parameter is 1",
        }

    if is_bipartite(g):
        size_b, cert_b = profile.b_independent
        if cert_b is None or size_b < t:
            details["bipartite"] = {
                "status": "anomaly",
                "reason": "no maximum ordered matching with independent "
                "second endpoints exists",
            }
        else:
            matching = proof_matching_bipartite(g, cert_b, t)
            details["bipartite"] = _witness(g, t, cert_b, matching)
    else:
        details["bipartite"] = {
            "status": "skipped",
            "reason": "graph is not bipartite",
        }

    # a built matching's entry carries its exponent k; every failure entry
    # is also in details, so merging them adds nothing
    built = [name for name in ("main", "bipartite") if "k" in details[name]]
    failures = {name: details[name] for name in built
                if not details[name]["induced"] or details[name]["size"] != t}
    skip = None if built else "no construction hypothesis applies"
    return _outcome("proofmatch", instance, details, failures, skip)


# ---------------------------------------------------------------------------
# corpus sweep
# ---------------------------------------------------------------------------


def clique_partitions(g: Graph) -> Iterator[list[tuple[int, ...]]]:
    """All partitions of the vertex set into cliques, in a deterministic
    order (the smallest unassigned vertex anchors each new block)."""

    def rec(remaining: tuple[int, ...]) -> Iterator[list[tuple[int, ...]]]:
        if not remaining:
            yield []
            return
        v, rest = remaining[0], remaining[1:]
        neighbors = [u for u in rest if g.has_edge(v, u)]
        for size in range(len(neighbors) + 1):
            for comb in itertools.combinations(neighbors, size):
                if any(
                    not g.has_edge(a, b)
                    for a, b in itertools.combinations(comb, 2)
                ):
                    continue
                block = (v, *comb)
                left = tuple(u for u in rest if u not in comb)
                for tail in rec(left):
                    yield [block, *tail]

    yield from rec(tuple(g.vertices))


class Verifier(Frozen):
    """Registry entry for one theorem id.

    `call(g, partition, k_max, field, guard)` runs the verifier. An entry
    with `takes_partition` is given every clique partition of the base
    graphs on up to WHISKER_BASE_LIMIT vertices (isolated vertices allowed)
    and needs a partition in single-graph mode; every other entry is given
    the graphs that `accepts`, which must reject every graph its verifier
    raises on (isolated vertices, no edges), so that a run of all verifiers
    on one graph skips that verifier instead of stopping.
    """

    _fields = ("call", "takes_partition", "accepts")
    call: Callable[..., VerificationOutcome]
    takes_partition: bool
    accepts: Callable[[Graph], bool]

    def __init__(
        self,
        call: Callable[..., VerificationOutcome],
        takes_partition: bool = False,
        accepts: Callable[[Graph], bool] = lambda g: True,
    ) -> None:
        object.__setattr__(self, "call", call)
        object.__setattr__(self, "takes_partition", takes_partition)
        object.__setattr__(self, "accepts", accepts)

    def applies(self, g: Graph, partition: Sequence | None) -> bool:
        """Whether a run of all verifiers gives this one the instance."""
        return partition is not None if self.takes_partition else self.accepts(g)


# The calls name verify_* at call time, not as captured function objects,
# so wrappers installed on this module's attributes see every call.
VERIFIERS: dict[str, Verifier] = {
    "main": Verifier(
        lambda g, pi, k_max, f, guard: verify_main(g, f, guard),
        accepts=_no_isolated,
    ),
    "whisker": Verifier(
        lambda g, pi, k_max, f, guard: verify_whisker(g, pi, k_max, f, guard),
        takes_partition=True,
    ),
    "regind": Verifier(
        lambda g, pi, k_max, f, guard: verify_regind(g, f, guard),
        accepts=_no_isolated,
    ),
    "regupper": Verifier(
        lambda g, pi, k_max, f, guard: verify_reg_upper(g, f, guard),
        accepts=lambda g: bool(g.edges),
    ),
    "bipartite": Verifier(
        lambda g, pi, k_max, f, guard: verify_bipartite(g, k_max, f, guard),
        accepts=lambda g: _no_isolated(g) and is_bipartite(g),
    ),
    "proofmatch": Verifier(
        lambda g, pi, k_max, f, guard: verify_proof_matchings(g, f),
        accepts=_no_isolated,
    ),
}

THEOREM_IDS = tuple(VERIFIERS)


def _run_item(item: tuple) -> VerificationOutcome:
    tid, g, pi, k_max, f, guard = item
    return VERIFIERS[tid].call(g, pi, k_max, f, guard)


def run_corpus(
    max_vertices: int = 5,
    k_max: int = 3,
    field: FieldChoice = RATIONALS,
    theorems: Sequence[str] = THEOREM_IDS,
    jobs: int = 1,
    guard: int | None = None,
) -> list[VerificationOutcome]:
    """Runs the requested verifiers over every graph without isolated
    vertices on up to `max_vertices` vertices (whiskered instances are built
    from all graphs on up to four vertices and every clique partition).
    The report order is deterministic and independent of `jobs`.

    The graph classes are built once; for the depth memo, and the orbit
    copies through which whisker instances share it, see `run_items`."""
    requested = tuple(tid for tid in THEOREM_IDS if tid in set(theorems))
    unknown = set(theorems) - set(THEOREM_IDS)
    if unknown:
        raise InputError(f"unknown theorem ids {sorted(unknown)}")
    if jobs < 1:
        raise InputError("jobs must be >= 1")
    classes = isomorphism_classes(max_vertices)
    corpus = [g for g in classes if _no_isolated(g)]
    items: list[tuple] = []
    for tid in requested:
        spec = VERIFIERS[tid]
        if spec.takes_partition:
            bases = [g for g in classes if g.n <= WHISKER_BASE_LIMIT]
            instances = [(g, pi) for g in bases for pi in clique_partitions(g)]
        else:
            instances = [(g, None) for g in corpus if spec.applies(g, None)]
        items.extend((tid, g, pi, k_max, field, guard) for g, pi in instances)
    return run_items(items, jobs)


def run_items(items: Sequence[tuple], jobs: int = 1) -> list[VerificationOutcome]:
    """Runs each (theorem id, graph, partition, k_max, field, guard) item
    through its registry entry, in item order whatever `jobs` is, on at
    most one worker process per item and per CPU. At `jobs=1` each depth
    is computed once per labelled graph, k and field (`_depth`), and the
    whisker instances whose partitions lie in one Aut(base) orbit of a base
    on at most WHISKER_BASE_LIMIT vertices share one orbit copy
    (`verify_whisker`), so one set of depths. Worker processes
    share no memo: with more than one, sharing happens only among the items
    of one worker. The memo and the automorphism table are gone when this
    returns or raises."""
    global _DEPTH_MEMO, _BASE_AUTOMORPHISMS
    _DEPTH_MEMO, _BASE_AUTOMORPHISMS = {}, {}
    workers = min(jobs, len(items), os.cpu_count() or 1)
    try:
        if workers <= 1:
            return [_run_item(item) for item in items]
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = min(8, -(-len(items) // workers))
            return list(pool.map(_run_item, items, chunksize=chunk))
    finally:
        _DEPTH_MEMO = _BASE_AUTOMORPHISMS = None


def instance_hash(instance: dict) -> str:
    """Stable short fingerprint of a serialized instance."""
    import hashlib

    payload = json.dumps(instance, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


def report_to_text(outcomes: Sequence[VerificationOutcome]) -> str:
    lines = [
        f"{o.theorem_id} {o.status} n={o.instance['graph']['n']} "
        f"{instance_hash(o.instance)}"
        for o in outcomes
    ]
    counts = {"passed": 0, "failed": 0, "skipped": 0}
    for o in outcomes:
        counts[o.status] += 1
    lines.append(
        f"passed {counts['passed']} failed {counts['failed']} "
        f"skipped {counts['skipped']}"
    )
    return "\n".join(lines) + "\n"


def _write_json(obj, out: list[str], pad: str) -> None:
    """Appends the pieces of `obj` as `json.dumps(obj, indent=2,
    sort_keys=True)` renders it, `pad` being a newline and the indent of
    obj's own line. Takes dicts with str keys, lists, str, int, bool and
    None, and raises TypeError on anything else."""
    kind = type(obj)
    if kind is str:
        out.append(_json_str(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        inner, sep = pad + "  ", "{"
        for key in sorted(obj):  # `_json_str` raises TypeError on a non-str key
            out.append(sep + inner + _json_str(key) + ": ")
            _write_json(obj[key], out, inner)
            sep = ","
        out.append(pad + "}")
    elif kind is list:
        if not obj:
            out.append("[]")
            return
        inner, sep = pad + "  ", "["
        for item in obj:
            out.append(sep + inner)
            _write_json(item, out, inner)
            sep = ","
        out.append(pad + "]")
    elif kind is bool:
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot render {kind.__name__} as JSON")


def json_text(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)` plus a newline, byte for
    byte, written in one pass (`indent` sends `json` to its pure-Python
    encoder)."""
    out: list[str] = []
    _write_json(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def report_to_json(outcomes: Sequence[VerificationOutcome]) -> str:
    return json_text([o.to_json() for o in outcomes])


def report_to_csv(outcomes: Sequence[VerificationOutcome]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["theorem_id", "n", "instance_hash", "status"])
    for o in outcomes:
        writer.writerow(
            [o.theorem_id, o.instance["graph"]["n"], instance_hash(o.instance), o.status]
        )
    return buf.getvalue()


# Renderers by format name, looked up at call time like the VERIFIERS calls.
REPORT_FORMATS: dict[str, Callable[[Sequence[VerificationOutcome]], str]] = {
    "json": lambda outcomes: report_to_json(outcomes),
    "csv": lambda outcomes: report_to_csv(outcomes),
    "text": lambda outcomes: report_to_text(outcomes),
}
