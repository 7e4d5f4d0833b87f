"""Acceptance suite: one test per numbered criterion.

Each test sweeps a deterministic corpus and asserts frozen expectations
(counts, statuses, byte equality).  A hook in ``conftest.py`` prints one
``ACCEPTANCE <n>: PASS/FAIL`` line per test.  Guard-limited instances are
counted as explicit skips with their partial results validated -- a guard
can hide an expensive check, never a failure.
"""

from __future__ import annotations

import time

import pytest

from coverdepth import cli
from coverdepth.graphs import (
    Graph,
    enumerate_graphs,
    induced_matching_number,
    isomorphism_representatives,
    ordered_matching_number,
)
from coverdepth.homology import (
    F2,
    RATIONALS,
    betti_table_squarefree,
    reg_edge_ideal,
    taylor_betti_oracle,
)
from coverdepth.ideals import MonomialIdeal
from coverdepth.theorems import (
    clique_partitions,
    verify_bipartite,
    verify_main,
    verify_proof_matchings,
    verify_regind,
    verify_whisker,
)

from _oracles import check_polarization_identity

# Six-vertex graphs that exercise behaviours absent below five vertices:
# an even cycle, a complete bipartite graph, a perfect induced matching,
# and the triangular prism.
CURATED_SIX = (
    Graph(6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6))),
    Graph(6, ((1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6))),
    Graph(6, ((1, 2), (3, 4), (5, 6))),
    Graph(6, ((1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (1, 4), (2, 5), (3, 6))),
)


def _status_counts(outcomes) -> dict[str, int]:
    counts: dict[str, int] = {}
    for outcome in outcomes:
        counts[outcome.status] = counts.get(outcome.status, 0) + 1
    return counts


@pytest.fixture(scope="module")
def corpus_five() -> list[Graph]:
    """Isomorphism representatives of all isolated-vertex-free graphs on
    at most five vertices."""
    graphs: list[Graph] = []
    for n in range(2, 6):
        graphs.extend(
            isomorphism_representatives(list(enumerate_graphs(n, no_isolated=True)))
        )
    assert len(graphs) == 33
    return graphs


@pytest.fixture(scope="module")
def regularity_sweep_six() -> tuple[list[tuple[int, int, int, int]], float]:
    """(n, reg I(g), ord-match, ind-match) for every labelled graph with at
    most six vertices and at least one edge, plus the sweep's wall time.
    Shared by the two regularity-bound criteria."""
    started = time.monotonic()
    rows: list[tuple[int, int, int, int]] = []
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            if not g.edges:
                continue
            reg = reg_edge_ideal(g)
            t, _ = ordered_matching_number(g)
            ind = induced_matching_number(g)
            rows.append((g.n, reg, t, ind))
    return rows, time.monotonic() - started


def test_acceptance_01_polarization_identity() -> None:
    """Polarizing the k-th symbolic power of a cover ideal gives exactly the
    cover ideal of the layered graph, for every labelled isolated-vertex-free
    graph on at most five vertices and k in {1, 2, 3}."""
    started = time.monotonic()
    checked = 0
    for n in range(2, 6):
        for g in enumerate_graphs(n, no_isolated=True):
            for k in (1, 2, 3):
                assert check_polarization_identity(g, k), (g, k)
                checked += 1
    assert checked == 2442
    assert time.monotonic() - started < 120


def test_acceptance_02_depth_stabilization(corpus_five: list[Graph]) -> None:
    """depth(S/J^(k)) equals n - t - 1 for k at the two-case threshold and
    one step beyond, and never dips below that limit earlier.  Guard-limited
    instances (five n=5 graphs whose threshold+1 exponent needs 20 layered
    vertices) still validate every exponent through the threshold."""
    outcomes = [verify_main(g) for g in list(corpus_five) + list(CURATED_SIX)]
    failed = [o for o in outcomes if o.status == "failed"]
    assert failed == []
    assert _status_counts(outcomes) == {"passed": 32, "skipped": 5}
    for outcome in outcomes:
        if outcome.status == "skipped":
            computed = {int(k) for k in outcome.details["depths"]}
            assert max(computed) >= outcome.details["threshold"]


def test_acceptance_03_whisker_formula() -> None:
    """For every clique partition pi of every graph on at most four vertices
    (isomorphism representatives), the whiskered graph has ordered matching
    number m with an m-ordered certificate and symbolic-power depth
    n + m - alpha - 1 at k = 1 and n - 1 for k = 2, 3.  Guard-limited
    instances (k = 3 needs more than 18 layered vertices once n + m >= 7)
    still validate k in {1, 2} and both matching claims."""
    bases: list[Graph] = []
    for n in range(1, 5):
        bases.extend(isomorphism_representatives(list(enumerate_graphs(n))))
    assert len(bases) == 18
    outcomes = [
        verify_whisker(g, pi) for g in bases for pi in clique_partitions(g)
    ]
    assert len(outcomes) == 78
    failed = [o for o in outcomes if o.status == "failed"]
    assert failed == []
    assert _status_counts(outcomes) == {"passed": 34, "skipped": 44}
    for outcome in outcomes:
        if outcome.status == "skipped":
            assert {"1", "2"} <= set(outcome.details["depths"])


def test_acceptance_04_layered_regularity(corpus_five: list[Graph]) -> None:
    """At the stabilization threshold, reg I(G_k) = ind-match(G_k) + 1
    = t + 1 for every corpus graph."""
    outcomes = [verify_regind(g) for g in corpus_five]
    assert _status_counts(outcomes) == {"passed": 33}


def test_acceptance_05_regularity_upper_bound(
    regularity_sweep_six: tuple[list[tuple[int, int, int, int]], float],
) -> None:
    """reg I(g) <= ord-match(g) + 1 for every labelled graph with at most
    six vertices and at least one edge, in under five minutes."""
    rows, elapsed = regularity_sweep_six
    assert len(rows) == 33861
    violations = [row for row in rows if row[1] > row[2] + 1]
    assert violations == []
    assert elapsed < 300


def test_acceptance_06_bipartite_powers(graph_classes: dict[int, list[Graph]]) -> None:
    """On every bipartite isolated-vertex-free graph with at most six
    vertices (isomorphism representatives): symbolic powers of the cover
    ideal coincide with ordinary powers for k <= 3, and depth equals
    n - t - 1 for every exponent from t through 3."""
    from coverdepth.graphs import is_bipartite

    graphs = [
        g
        for n in range(2, 7)
        for g in graph_classes[n]
        if all(g.adj) and is_bipartite(g)
    ]
    assert len(graphs) == 34
    outcomes = [verify_bipartite(g, 3) for g in graphs]
    assert _status_counts(outcomes) == {"passed": 34}


def test_acceptance_07_proof_matchings(corpus_five: list[Graph]) -> None:
    """Both explicit layered matchings pass the induced-matching check of
    size t on every corpus instance where their hypotheses hold; graphs
    offering neither hypothesis are skipped, never failed."""
    outcomes = [
        verify_proof_matchings(g) for g in list(corpus_five) + list(CURATED_SIX)
    ]
    failed = [o for o in outcomes if o.status == "failed"]
    assert failed == []
    assert _status_counts(outcomes) == {"passed": 24, "skipped": 13}
    ran_main = [o for o in outcomes if "induced" in o.details["main"]]
    ran_bipartite = [o for o in outcomes if "induced" in o.details["bipartite"]]
    assert ran_main and ran_bipartite
    anomalies = [
        o for o in outcomes if o.details["bipartite"].get("status") == "anomaly"
    ]
    assert anomalies == []
    for outcome in outcomes:
        if outcome.status == "skipped":
            assert outcome.details["s"] == 1
            assert outcome.details["bipartite"]["status"] == "skipped"


def test_acceptance_08_betti_oracle_agreement(oracle_ideals: list[MonomialIdeal]) -> None:
    """The subset-homology Betti table matches the generator-subset oracle
    entrywise, over both Q and F2, for every squarefree corpus ideal with at
    most eight generators (the `oracle_ideals` fixture).  Any disagreement
    is reported (expected: none)."""
    ideals = oracle_ideals
    assert len(ideals) == 89
    disagreements = []
    for ideal in ideals:
        for field in (RATIONALS, F2):
            table = betti_table_squarefree(ideal, field)
            oracle = taylor_betti_oracle(ideal, field)
            if table != oracle:
                disagreements.append(
                    {
                        "ideal": ideal.sorted_gens(),
                        "field": field.label,
                        "table": table.to_json(),
                        "oracle": oracle.to_json(),
                    }
                )
    assert disagreements == []


def test_acceptance_09_regularity_lower_bound(
    regularity_sweep_six: tuple[list[tuple[int, int, int, int]], float],
) -> None:
    """reg(S/I(g)) >= ind-match(g) for every labelled graph with at most six
    vertices and at least one edge."""
    rows, _elapsed = regularity_sweep_six
    assert len(rows) == 33861
    violations = [row for row in rows if row[1] - 1 < row[3]]
    assert violations == []


def test_acceptance_10_deterministic_reports(tmp_path) -> None:
    """Repeat `verify all` runs with identical configuration produce
    byte-identical reports, including under parallel execution."""
    reports = []
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / f"report_{name}.json"
        code = cli.main(
            [
                "verify",
                "all",
                "--max-vertices",
                "4",
                "--max-k",
                "2",
                "--jobs",
                jobs,
                "--format",
                "json",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]
