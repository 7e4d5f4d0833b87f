"""Theorem verifiers: spec'd example instances, guard behaviour, corpus
sweeps, and the invariant that verifiers never fail on real inputs."""

from __future__ import annotations

import ast
import concurrent.futures
import dataclasses
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coverdepth import cli, graphs, homology, theorems
from coverdepth.errors import ConsistencyError, InputError
from coverdepth.graphs import (
    Graph,
    enumerate_graphs,
    isolated_vertices,
    isomorphism_representatives,
)
from coverdepth.homology import F2, RATIONALS
from coverdepth.theorems import (
    THEOREM_IDS,
    VerificationOutcome,
    clique_partitions,
    instance_hash,
    report_to_csv,
    report_to_json,
    run_corpus,
    stability_threshold,
    verify_bipartite,
    verify_main,
    verify_proof_matchings,
    verify_reg_upper,
    verify_regind,
    verify_whisker,
)


def path(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(1, n)))


def cycle(n: int) -> Graph:
    return Graph(n, tuple(tuple(sorted((i, i % n + 1))) for i in range(1, n + 1)))


def complete(n: int) -> Graph:
    return Graph(n, tuple(itertools.combinations(range(1, n + 1), 2)))


# graph files of P4, C5 and K3 for the kernel-fault tests that run the CLI
FAULT_GRAPH_FILES = {
    "P4": "n 4\n1 2\n2 3\n3 4\n",
    "C5": "n 5\n1 2\n1 5\n2 3\n3 4\n4 5\n",
    "K3": "n 3\n1 2\n1 3\n2 3\n",
}


@st.composite
def small_graphs_no_isolated(draw, max_n: int = 4):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.sets(st.sampled_from(pairs), min_size=1))
    g = Graph(n, tuple(sorted(edges)))
    assume(not isolated_vertices(g))
    return g


def test_stability_threshold():
    assert stability_threshold(1, 1) == 1
    assert stability_threshold(2, 1) == 3
    assert stability_threshold(2, 2) == 2
    assert stability_threshold(3, 2) == 4
    # the refined bound beats the general one whenever s >= 2
    for t in range(1, 6):
        for s in range(2, t + 1):
            assert stability_threshold(t, s) < stability_threshold(t, 1)
    for t, s in [(0, 1), (2, 0), (2, 3)]:
        with pytest.raises(InputError):
            stability_threshold(t, s)


def test_verification_outcome_validation():
    ok = VerificationOutcome("main", {"graph": {"n": 2}}, "passed", {})
    assert ok.passed and ok.to_json()["status"] == "passed"
    with pytest.raises(InputError):
        VerificationOutcome("main", {}, "unknown", {})
    with pytest.raises(InputError):
        VerificationOutcome("main", {}, "failed", {})
    skip = VerificationOutcome("main", {}, "skipped", {"reason": "guard"})
    assert not skip.passed


def test_verify_main_examples():
    p4 = verify_main(path(4))
    assert p4.passed
    rep = p4.details["report"]
    assert rep["ord_match"] == 2 and rep["largest_stable_s"] == 2
    assert rep["threshold"] == 2 and rep["limit_depth"] == 1
    assert rep["depths"] == {"1": 2, "2": 1, "3": 1}
    assert rep["sdstab_observed_upper"] == 2

    k2 = verify_main(path(2))
    assert k2.passed
    assert k2.details["report"]["depths"] == {"1": 0, "2": 0}

    k3 = verify_main(complete(3))
    assert k3.passed
    assert k3.details["report"]["limit_depth"] == 1


def test_verify_main_errors_and_guard():
    with pytest.raises(InputError):
        verify_main(Graph(3, ((1, 2),)))
    skipped = verify_main(path(4), guard=5)
    assert skipped.status == "skipped"
    assert skipped.details["depths"] == {"1": 2}
    assert "guard" in skipped.details["reason"]


def test_verify_whisker_examples():
    one_block = verify_whisker(path(2), [(1, 2)])
    assert one_block.passed
    assert one_block.details["depths"] == {"1": 1, "2": 1, "3": 1}

    singletons = verify_whisker(path(2), [(1,), (2,)])
    assert singletons.passed
    assert singletons.details["depths"] == {"1": 2, "2": 1, "3": 1}

    triangle = verify_whisker(complete(3), [(1, 2, 3)])
    assert triangle.passed
    assert triangle.details["depths"] == {"1": 2, "2": 2, "3": 2}
    assert triangle.details["m"] == 1 and triangle.details["alpha"] == 1


def test_whisker_checks_the_k_2_clause_when_k_max_is_1():
    """At k_max = 1 the whiskered depth is still read at k = 2, where it
    must equal n - 1 (k = 1 gives n + m - alpha - 1). K2 whiskered at both
    vertices reads 2 at k = 1 and 1 at k = 2."""
    out = verify_whisker(path(2), [(1,), (2,)], k_max=1)
    assert out.passed and out.instance["k_max"] == 1
    assert out.details["depths"] == {"1": 2, "2": 1}
    assert out.details["expected_depths"] == {"1": 2, "2": 1}


def test_verify_whisker_errors_and_guard():
    with pytest.raises(InputError):
        verify_whisker(path(3), [(1, 3), (2,)])  # block is not a clique
    with pytest.raises(InputError):
        verify_whisker(path(2), [(1,)])  # not a partition
    with pytest.raises(InputError):
        verify_whisker(path(2), [(1, 2)], k_max=0)
    skipped = verify_whisker(path(2), [(1,), (2,)], guard=7)
    assert skipped.status == "skipped"
    assert skipped.details["depths"] == {"1": 2}


def test_whisker_failure_without_m_ordered_matching_is_valid_json(monkeypatch):
    """The report of a whisker graph with no m-ordered matching, the one a
    real counterexample would produce, is RFC 8259 JSON: the missing size
    reads "-inf", not -Infinity, which strict parsers reject. The ordered
    profile is faked to record only s = 1."""
    real = theorems.ordered_profile

    def no_m_ordered(g):
        profile = real(g)
        return dataclasses.replace(profile, sizes=profile.sizes[:1], certs=profile.certs[:1])

    monkeypatch.setattr(theorems, "ordered_profile", no_m_ordered)
    outcome = verify_whisker(path(2), [(1,), (2,)])
    assert outcome.status == "failed"

    def reject(constant):
        raise ValueError(f"{constant} is not RFC 8259 JSON")

    report = json.loads(report_to_json([outcome]), parse_constant=reject)
    assert report[0]["details"]["m_ordered_certificate"] == {"expected": 2, "computed": "-inf"}


def test_verify_regind_examples():
    k2 = verify_regind(path(2))
    assert k2.passed
    assert k2.details["checked"]["k=1"] == {"reg": 2, "ind_match": 1, "expected": 2}

    p4 = verify_regind(path(4))
    assert p4.passed
    assert p4.details["threshold"] == 2
    assert p4.details["checked"]["k=2"] == {"reg": 3, "ind_match": 2, "expected": 3}
    assert p4.details["checked"]["k=3"] == {"reg": 3, "ind_match": 2, "expected": 3}

    k3 = verify_regind(complete(3))
    assert k3.passed
    assert k3.details["checked"]["k=1"]["reg"] == 2


def test_verify_regind_tree_counts_three_induced_edges():
    # G_2 of this tree has an induced matching of size 3; a search that
    # found only 2 reported a false counterexample here
    tree = Graph(6, ((1, 2), (1, 3), (1, 6), (2, 5), (3, 4)))
    out = verify_regind(tree)
    assert out.passed
    for k in ("k=2", "k=3"):
        assert out.details["checked"][k] == {"reg": 4, "ind_match": 3, "expected": 4}


def test_verify_regind_errors_and_guard():
    with pytest.raises(InputError):
        verify_regind(Graph(3, ((1, 2),)))
    skipped = verify_regind(path(4), guard=7)
    assert skipped.status == "skipped"
    assert "k=2" in skipped.details["guard_skips"]


def test_verify_reg_upper_examples():
    c5 = verify_reg_upper(cycle(5))
    assert c5.passed
    assert c5.details == {
        "reg_edge_ideal": 3,
        "ord_match": 2,
        "ind_match": 1,
        "upper_bound_ok": True,
        "lower_bound_ok": True,
    }
    assert verify_reg_upper(path(2)).details["reg_edge_ideal"] == 2
    with pytest.raises(InputError):
        verify_reg_upper(Graph(2, ()))
    assert verify_reg_upper(path(4), guard=3).status == "skipped"


def test_verify_bipartite_examples():
    p4 = verify_bipartite(path(4))
    assert p4.passed
    assert p4.details["symbolic_equals_ordinary"] == {"1": True, "2": True, "3": True}
    assert p4.details["depths"] == {"2": 1, "3": 1}

    k2 = verify_bipartite(path(2))
    assert k2.passed and k2.details["depths"] == {"1": 0, "2": 0, "3": 0}

    c6 = verify_bipartite(cycle(6))
    assert c6.passed
    assert c6.details["t"] == 2 and c6.details["depths"] == {"2": 3, "3": 3}


def test_bipartite_checks_depth_at_t_when_k_max_is_below_it():
    """At k_max = 1 the depth clause still reads k = t. P4 has t = 2, so
    its report holds depth 1 = n - t - 1 at k = 2, and the powers at k = 1."""
    p4 = verify_bipartite(path(4), k_max=1)
    assert p4.passed
    assert p4.details["symbolic_equals_ordinary"] == {"1": True}
    assert p4.details["depths"] == {"2": 1}


def test_verify_bipartite_errors():
    with pytest.raises(InputError):
        verify_bipartite(complete(3))
    with pytest.raises(InputError):
        verify_bipartite(Graph(3, ((1, 2),)))
    with pytest.raises(InputError):
        verify_bipartite(path(2), k_max=0)


def test_verify_proof_matchings_examples():
    p4 = verify_proof_matchings(path(4))
    assert p4.passed
    assert p4.details["main"]["induced"] and p4.details["main"]["size"] == 2
    assert p4.details["bipartite"]["induced"] and p4.details["bipartite"]["k"] == 2

    k2 = verify_proof_matchings(path(2))
    assert k2.passed
    assert k2.details["bipartite"]["induced"]

    k3 = verify_proof_matchings(complete(3))
    assert k3.status == "skipped"
    assert k3.details["main"]["status"] == "skipped"
    assert k3.details["bipartite"]["status"] == "skipped"

    c5 = verify_proof_matchings(cycle(5))
    assert c5.passed  # main construction applies (s = 2), bipartite part skipped
    assert c5.details["main"]["induced"]
    assert c5.details["bipartite"]["status"] == "skipped"

    whiskered_triangle = verify_proof_matchings(
        Graph(4, ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)))
    )
    assert whiskered_triangle.status in ("passed", "skipped")


def test_proof_matchings_fail_on_a_certificate_one_pair_short(monkeypatch):
    """The constructions accept any valid certificate, so the verifier's own size
    check is what ties the matching to t. On P6 (t = 3, s = 2) a profile
    whose 2-ordered certificate lacks its last pair, still 2-ordered, must
    give a failed outcome."""
    profile = theorems.ordered_profile

    def short(g):
        p = profile(g)
        certs = list(p.certs)
        certs[1] = certs[1][:-1]
        return dataclasses.replace(p, certs=tuple(certs))

    monkeypatch.setattr(theorems, "ordered_profile", short)
    out = verify_proof_matchings(path(6))
    assert out.status == "failed"
    assert out.details["t"] == 3 and out.details["s"] == 2
    assert out.details["main"]["induced"] and out.details["main"]["size"] == 2
    assert out.details["bipartite"]["size"] == 3  # its certificate is untouched


def test_proof_matching_off_g_k_fails_and_exits_1(monkeypatch, capsys):
    """A construction fault that puts a pair off G_k's edges is a failed
    check, reported as `"induced": false` with exit 1; the input is fine,
    so it is not a rejected input (exit 2). The fault moves the first
    pair's second endpoint of the main matching to layer k + 1."""
    build = theorems.proof_matching_main

    def off_grid(g, cert, s, k):
        (a, (b, _layer)), *rest = build(g, cert, s, k)
        return [(a, (b, k + 1)), *rest]

    monkeypatch.setattr(theorems, "proof_matching_main", off_grid)
    argv = ["verify", "proofmatch", "--max-vertices", "4", "--format", "json"]
    assert cli.main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    built = [o for o in report if "k" in o["details"].get("main", {})]
    assert built and all(o["status"] == "failed" for o in built)
    assert all(o["details"]["main"]["induced"] is False for o in built)


def test_clique_partitions():
    assert sum(1 for _ in clique_partitions(complete(4))) == 15
    assert list(clique_partitions(path(3))) == [
        [(1,), (2,), (3,)],
        [(1,), (2, 3)],
        [(1, 2), (3,)],
    ]
    assert list(clique_partitions(Graph(2, ()))) == [[(1,), (2,)]]


def test_run_corpus_two_vertices():
    out = run_corpus(max_vertices=2, k_max=2)
    assert len(out) == 9
    assert all(o.passed for o in out)
    # whisker bases include the single vertex and the edgeless pair
    assert sum(1 for o in out if o.theorem_id == "whisker") == 4


def test_run_corpus_three_vertices():
    out = run_corpus(max_vertices=3, k_max=2)
    assert len(out) == 29
    assert not any(o.status == "failed" for o in out)
    skipped = [o for o in out if o.status == "skipped"]
    assert [o.theorem_id for o in skipped] == ["proofmatch"]
    assert skipped[0].instance["graph"]["edges"] == [[1, 2], [1, 3], [2, 3]]


def test_run_corpus_is_deterministic_and_parallel_safe():
    a = run_corpus(max_vertices=3, k_max=2)
    b = run_corpus(max_vertices=3, k_max=2)
    c = run_corpus(max_vertices=3, k_max=2, jobs=2)
    assert report_to_json(a) == report_to_json(b) == report_to_json(c)


def test_run_items_starts_at_most_one_worker_per_cpu(monkeypatch):
    """A `jobs` above the CPU count starts one worker per CPU, and an
    unknown CPU count none, with the report of a serial run either way.
    The pool is a fake that maps in this process, so no worker starts."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    serial = report_to_json(run_corpus(max_vertices=3, k_max=2))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    assert report_to_json(run_corpus(max_vertices=3, k_max=2, jobs=5000)) == serial
    assert started == [2]
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: None)
    assert report_to_json(run_corpus(max_vertices=3, k_max=2, jobs=5000)) == serial
    assert started == [2]


def test_run_corpus_subset_and_errors():
    out = run_corpus(max_vertices=3, k_max=2, theorems=("regupper",))
    assert {o.theorem_id for o in out} == {"regupper"}
    assert run_corpus(max_vertices=0) == []
    with pytest.raises(InputError):
        run_corpus(max_vertices=3, theorems=("nope",))
    with pytest.raises(InputError):
        run_corpus(max_vertices=3, jobs=0)


@pytest.mark.parametrize("no_isolated", [False, True])
def test_corpus_classes_match_labelled_enumeration(graph_classes, no_isolated):
    """The classes built by vertex extension, filtered for isolated vertices
    as `run_corpus` does, are the graphs that
    isomorphism_representatives(enumerate_graphs(n, no_isolated=...)) yields,
    in the same order, for every n <= 6; the labelled side is the session
    fixture, filtered for isolated vertices (checked against the flag for
    n <= 5)."""
    def labelled(n):
        reps = graph_classes[n]
        return [g for g in reps if all(g.adj)] if no_isolated else reps

    for n in range(1, 6):
        want = isomorphism_representatives(enumerate_graphs(n, no_isolated=True))
        assert want == [g for g in graph_classes[n] if all(g.adj)]
    built = graphs.isomorphism_classes(6)
    if no_isolated:
        built = [g for g in built if all(g.adj)]
    for n in range(1, 7):
        assert [g for g in built if g.n == n] == labelled(n)
    assert built == [g for n in range(1, 7) for g in labelled(n)]


def test_corpus_class_counts(classes_up_to_7):
    """Graph classes on n = 1..7 vertices (OEIS A000088)."""
    built = classes_up_to_7
    assert [sum(1 for g in built if g.n == n) for n in range(1, 8)] == [
        1, 2, 4, 11, 34, 156, 1044
    ]


def test_run_corpus_depth_memo_matches_cold_calls():
    """Each outcome of a corpus run, which reads repeated depths from the
    run's memo, equals a cold call of its verifier on the same instance. A
    whisker outcome of the run reads its depths off the orbit copy of its
    whiskered graph; the cold call reads them off the whiskered graph."""
    out = run_corpus(max_vertices=4, k_max=3)
    assert theorems._DEPTH_MEMO is None
    for o in out:
        g = Graph(o.instance["graph"]["n"], map(tuple, o.instance["graph"]["edges"]))
        pi = o.instance.get("partition")
        cold = theorems.VERIFIERS[o.theorem_id].call(g, pi, 3, RATIONALS, None)
        assert cold.to_json() == o.to_json()


def test_run_corpus_sweeps_each_layered_graph_once(monkeypatch):
    """Within one run no (G_k, field) pair reaches route B twice, the memo
    is live while the verifiers run, and it is gone once the run returns."""
    seen = []
    live = []
    sweep, depth = homology.reg_edge_ideal_layered, homology.depth_symbolic_cover

    def counting_sweep(gk, f=RATIONALS):
        seen.append((gk, f.char))
        return sweep(gk, f)

    def watched_depth(*args):
        live.append(theorems._DEPTH_MEMO is not None)
        return depth(*args)

    monkeypatch.setattr(homology, "reg_edge_ideal_layered", counting_sweep)
    monkeypatch.setattr(homology, "depth_symbolic_cover", watched_depth)
    run_corpus(max_vertices=4, k_max=3)
    assert seen and len(seen) == len(set(seen))
    assert live and all(live)
    assert theorems._DEPTH_MEMO is None


def _whisker_depth_graphs(monkeypatch) -> list[tuple]:
    """The (n, adjacency masks) of every graph that `verify_whisker` sends
    to `depth_symbolic_cover` from now on, one entry per call."""
    sent, inside = [], []
    depth, verify = homology.depth_symbolic_cover, theorems.verify_whisker

    def counting(g, k, f=RATIONALS, guard=None):
        if inside:
            sent.append((g.n, g.adj))
        return depth(g, k, f, guard)

    def watched(*args):
        inside.append(True)
        try:
            return verify(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(homology, "depth_symbolic_cover", counting)
    monkeypatch.setattr(theorems, "verify_whisker", watched)
    return sent


def test_whisker_partitions_in_one_automorphism_orbit_share_depths(monkeypatch):
    """In a corpus run the 78 whisker instances send 48 distinct graphs to
    `depth_symbolic_cover`, one per Aut(base) orbit of clique partitions
    (one per instance without the orbit copy), and the automorphism table
    is gone once the run returns. Outside a run, `verify_whisker` computes
    on the whiskered graph itself."""
    sent = _whisker_depth_graphs(monkeypatch)
    out = run_corpus(max_vertices=4, k_max=3)
    assert sum(o.theorem_id == "whisker" for o in out) == 78
    assert len(set(sent)) == 48
    assert theorems._BASE_AUTOMORPHISMS is None

    sent.clear()
    g, pi = path(3), [[1, 2], [3]]  # its orbit copy is whisker(g, [[1], [2, 3]])
    theorems.verify_whisker(g, pi, 2)
    w = graphs.whisker(g, pi)
    assert sent == [(w.n, w.adj)] * 2


def test_whisker_orbit_copy_with_wrong_automorphisms_changes_no_byte(monkeypatch):
    """A planted fault that lets every permutation of a base pass for an
    automorphism leaves the report byte for byte as it was, because an
    orbit copy is a relabelling of the whiskered graph whatever the
    permutation; only memo hits may be lost."""
    clean = report_to_json(run_corpus(max_vertices=4, k_max=3))
    sent = _whisker_depth_graphs(monkeypatch)
    monkeypatch.setattr(
        theorems, "_automorphisms", lambda g: list(itertools.permutations(g.vertices))
    )
    assert report_to_json(run_corpus(max_vertices=4, k_max=3)) == clean
    assert len(set(sent)) >= 48


def test_whisker_runs_on_large_bases_skip_the_orbit_copy(monkeypatch, tmp_path, capsys):
    """A whisker base on more than WHISKER_BASE_LIMIT vertices, which only a
    single-graph run can give, is never searched for automorphisms: its n!
    relabellings would cost far more than the one memo hit they could buy.
    Its outcome is the one a cold call gives, and an edgeless 12-vertex base
    with 12 singleton blocks is skipped at once by the default guard."""

    def refuse(g):
        raise AssertionError(f"automorphisms searched on a {g.n}-vertex base")

    monkeypatch.setattr(theorems, "_automorphisms", refuse)
    g, pi = path(5), [[1, 2], [3, 4], [5]]
    assert g.n > theorems.WHISKER_BASE_LIMIT
    (out,) = theorems.run_items([("whisker", g, pi, 2, RATIONALS, None)])
    assert out == verify_whisker(g, pi, 2)
    assert out.status == "passed"

    graph_file, pi_file = tmp_path / "g.txt", tmp_path / "pi.txt"
    graph_file.write_text("n 12\n")
    pi_file.write_text("".join(f"{v}\n" for v in range(1, 13)))
    argv = ["verify", "whisker", "--graph", str(graph_file), "--partition",
            str(pi_file), "--format", "json"]
    assert cli.main(argv) == 0
    (report,) = json.loads(capsys.readouterr().out)
    assert report["status"] == "skipped"


def test_single_graph_runs_compute_each_depth_once(monkeypatch, tmp_path, capsys):
    """`verify all --graph` runs its verifiers through the same runner as
    the corpus sweep: no (graph, k, field) depth is computed twice in one
    run, and the memo is gone once the run returns. On P4 and K3, `main`
    and `regind` both read the depths at the threshold and one past it."""
    computed = []
    depth = homology.depth_symbolic_cover

    def counting(g, k, f=RATIONALS, guard=None):
        value = depth(g, k, f, guard)
        computed.append((g.n, g.adj, k, f.char))
        return value

    monkeypatch.setattr(homology, "depth_symbolic_cover", counting)
    partition = tmp_path / "pi.txt"
    partition.write_text("1 2\n3\n")
    for name, extra in [("P4", []), ("K3", ["--partition", str(partition)])]:
        graph = tmp_path / f"{name}.txt"
        graph.write_text(FAULT_GRAPH_FILES[name])
        computed.clear()
        assert cli.main(["verify", "all", "--graph", str(graph), *extra]) == 0
        assert computed and len(computed) == len(set(computed)), name
        assert theorems._DEPTH_MEMO is None
    capsys.readouterr()


@pytest.mark.parametrize("by", [1, -1], ids=["up", "down"])
def test_run_corpus_memo_never_hides_a_fault(monkeypatch, by):
    """A kernel fault raises ConsistencyError on a graph's first depth in a
    corpus run, memo or not, and the memo is gone after the raise."""
    _shift_ind_dims(monkeypatch, by)
    with pytest.raises(ConsistencyError):
        run_corpus(max_vertices=4)
    assert theorems._DEPTH_MEMO is None


def test_verifier_calls_bind_late(monkeypatch, tmp_path, capsys):
    """Corpus sweeps and single-graph CLI runs call theorems.verify_* as
    looked up at call time, so wrappers set on the module see every
    outcome."""
    seen = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            seen.append(fn(*args, **kwargs))
            return seen[-1]

        return wrapper

    names = [name for name in vars(theorems) if name.startswith("verify_")]
    assert len(names) == len(THEOREM_IDS)
    for name in names:
        monkeypatch.setattr(theorems, name, counting(getattr(theorems, name)))

    out = run_corpus(max_vertices=3, k_max=2, jobs=1)
    assert len(seen) == len(out)
    assert all(a is b for a, b in zip(out, seen))

    seen.clear()
    graph = tmp_path / "k3.txt"
    graph.write_text("n 3\n1 2\n1 3\n2 3\n")
    partition = tmp_path / "pi.txt"
    partition.write_text("1 2\n3\n")
    argv = ["verify", "all", "--graph", str(graph), "--partition", str(partition),
            "--max-k", "2", "--format", "json"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report) == 5
    assert report == json.loads(report_to_json(seen))


@pytest.mark.parametrize(
    "run, searches",
    [
        (lambda: verify_main(path(4)), 1),
        (lambda: verify_whisker(path(2), [[1], [2]]), 1),
        (lambda: cli.invariants_report(path(6)), 1),
        (lambda: verify_proof_matchings(path(4)), 1),
    ],
    ids=["main", "whisker", "invariants", "proofmatch"],
)
def test_one_ordered_search_per_graph(monkeypatch, run, searches):
    """Each caller reads the ordered numbers and certificates it needs off
    one ordered search per graph. `ordered_profile` and
    `ordered_matching_number` both run `graphs._ordered_search`, so its
    calls count every ordered search."""
    calls = []
    search = graphs._ordered_search

    def counting(g, top, track_b):
        calls.append(g)
        return search(g, top, track_b)

    monkeypatch.setattr(graphs, "_ordered_search", counting)
    run()
    assert len(calls) == searches


def _shift_ind_dims(monkeypatch, by: int) -> None:
    """Fault the homology kernel the regularity sweep reads: every degree of
    a mask of two or more vertices moves by `by`."""
    inner = homology._ind_dims

    def shifted(adj, mask, char):
        dims = inner(adj, mask, char)
        return {d + by: c for d, c in dims.items()} if mask.bit_count() >= 2 else dims

    monkeypatch.setattr(homology, "_ind_dims", shifted)


@pytest.mark.parametrize("text", FAULT_GRAPH_FILES.values(), ids=FAULT_GRAPH_FILES.keys())
def test_regularity_verifiers_catch_a_fold_kernel_fault(monkeypatch, tmp_path, capsys, text):
    """A fault in the homology kernel the regularity sweep reads (every
    degree of a mask of two or more vertices shifted up by one) breaks the
    quadric size bound, so both regularity verifiers raise ConsistencyError
    instead of reporting a counterexample, and the CLI exits 5."""
    g = cli.parse_graph_text(text)
    _shift_ind_dims(monkeypatch, 1)
    with pytest.raises(ConsistencyError):
        verify_reg_upper(g)
    with pytest.raises(ConsistencyError):
        verify_regind(g)
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    assert cli.main(["verify", "regupper", "--graph", str(graph)]) == 5
    assert "quadric bound" in capsys.readouterr().err


@pytest.mark.parametrize("g", [path(4), cycle(5), complete(3)], ids=["P4", "C5", "K3"])
def test_regind_catches_a_fold_kernel_fault_inside_the_size_bound(monkeypatch, g):
    """A fault in the homology kernel that keeps the quadric size bound
    (every degree of a mask of two or more vertices shifted down by one)
    passes route B's own check. `verify_regind` reads reg(I(G_k)) through
    both depth routes, and route A does not go through that kernel, so it
    raises ConsistencyError instead of reporting a counterexample."""
    _shift_ind_dims(monkeypatch, -1)
    with pytest.raises(ConsistencyError):
        verify_regind(g)


@pytest.mark.parametrize("text", FAULT_GRAPH_FILES.values(), ids=FAULT_GRAPH_FILES.keys())
def test_reg_upper_catches_a_fold_kernel_fault_inside_the_size_bound(
    monkeypatch, tmp_path, capsys, text
):
    """The same fault under `verify_reg_upper`: it reads reg(I(g)) as
    n - depth(S/J(g)) through both depth routes (Terai, with G_1 = g), so the
    fault raises ConsistencyError, and the CLI exits 5, instead of reading
    as a counterexample to the matching bounds."""
    _shift_ind_dims(monkeypatch, -1)
    with pytest.raises(ConsistencyError):
        verify_reg_upper(cli.parse_graph_text(text))
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    assert cli.main(["verify", "regupper", "--graph", str(graph)]) == 5
    assert "depth routes disagree on k=1" in capsys.readouterr().err


def test_depth_series_that_rises_with_k_is_an_internal_error(monkeypatch, tmp_path, capsys):
    """depth S/J(g)^(k) does not rise with k, so a depth kernel whose series
    rises (a stub returning k) raises ConsistencyError in every verifier
    that reads a depth series, and `verify main` exits 5 instead of
    reporting a failed instance."""
    monkeypatch.setattr(homology, "depth_symbolic_cover", lambda g, k, f, guard: k)
    c5 = cli.parse_graph_text(FAULT_GRAPH_FILES["C5"])
    with pytest.raises(ConsistencyError, match="depth rises with k"):
        verify_main(c5)
    with pytest.raises(ConsistencyError, match="depth rises with k"):
        verify_bipartite(cli.parse_graph_text(FAULT_GRAPH_FILES["P4"]), k_max=3)
    with pytest.raises(ConsistencyError, match="depth rises with k"):
        verify_whisker(path(2), [(1, 2)])
    graph = tmp_path / "g.txt"
    graph.write_text(FAULT_GRAPH_FILES["C5"])
    assert cli.main(["verify", "main", "--graph", str(graph)]) == 5
    assert "depth rises with k: {1: 1, 2: 2}" in capsys.readouterr().err


def test_report_formats():
    out = run_corpus(max_vertices=2, k_max=1, theorems=("main", "regupper"))
    text = report_to_csv(out)
    lines = text.splitlines()
    assert lines[0] == "theorem_id,n,instance_hash,status"
    assert len(lines) == len(out) + 1
    for o in out:
        assert len(instance_hash(o.instance)) == 12
    assert report_to_json(out).endswith("\n")


_JSON_STRINGS = st.text() | st.sampled_from(
    ["", '"', "\\", '\\"', "\x00\x1f\x7f\n\t", "é\u2028", "\U0001f600", "\ud800"]
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64)) | _JSON_STRINGS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_JSON_STRINGS, inner, max_size=4),
    max_leaves=25,
)


@given(obj=_JSON_VALUES)
@example(obj=[{}, [], "", {"": [[]]}])
@example(obj=[True, 1, False, 0, None, -(2**80)])
@example(obj={"\\": '"', "é": "\x00", "a": {"b": {}}})
@settings(max_examples=200, deadline=None)
def test_json_text_matches_json_dumps(obj):
    assert theorems.json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "obj",
    [1.5, {1, 2}, b"x", {1: "a"}, [{"a": [0.5]}], {"a": (1, 2)}],
    ids=["float", "set", "bytes", "int-key", "nested-float", "tuple"],
)
def test_json_text_rejects_what_it_does_not_render(obj):
    with pytest.raises(TypeError):
        theorems.json_text(obj)


def test_cli_import_loads_no_pool_typing_hashlib_or_csv():
    """Importing the CLI, as every `coverdepth` run does, loads no process
    pool (nor multiprocessing behind it), `typing`, `hashlib` or `csv`:
    `run_items` imports the pool only to start workers, and the text and
    csv reports import `hashlib` and `csv` when they render."""
    src = Path(theorems.__file__).resolve().parents[1]
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import coverdepth.cli; "
            "print(sorted(sys.modules))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    loaded = set(ast.literal_eval(out))
    assert "coverdepth.cli" in loaded
    banned = {"concurrent.futures", "multiprocessing", "typing", "hashlib", "csv"}
    assert not banned & loaded


@given(g=small_graphs_no_isolated())
@settings(max_examples=15, deadline=None)
def test_verifiers_never_fail_on_small_graphs(g):
    assert verify_main(g, f=RATIONALS).status in ("passed", "skipped")
    assert verify_reg_upper(g).passed
    assert verify_regind(g).status in ("passed", "skipped")
    assert verify_proof_matchings(g).status in ("passed", "skipped")


@given(g=small_graphs_no_isolated(), f=st.sampled_from([RATIONALS, F2]))
@settings(max_examples=10, deadline=None)
def test_bipartite_verifier_never_fails(g, f):
    from coverdepth.graphs import is_bipartite

    assume(is_bipartite(g))
    assert verify_bipartite(g, k_max=2, f=f).status in ("passed", "skipped")
