"""Shared pytest hooks.

The acceptance tests in ``test_acceptance.py`` each cover one numbered
criterion.  The hook below prints a single ``ACCEPTANCE <n>: PASS/FAIL``
line per criterion so the suite output doubles as an acceptance report.
"""

from __future__ import annotations

import re

import pytest

from coverdepth.graphs import (
    Graph,
    enumerate_graphs,
    isomorphism_classes,
    isomorphism_representatives,
)
from coverdepth.ideals import (
    MonomialIdeal,
    cover_ideal,
    edge_ideal,
    polarize,
    symbolic_power_cover,
)

_ACCEPTANCE_PATTERN = re.compile(r"test_acceptance_(\d+)_")

_DESCRIPTIONS = {
    1: "polarizing a symbolic cover-ideal power yields the layered-graph cover ideal",
    2: "depth of symbolic cover-ideal powers hits n - t - 1 at the two-case threshold",
    3: "clique-whiskered graphs: exact depth formula and ordered matching number m",
    4: "layered-graph regularity equals induced matching + 1 equals t + 1 at threshold",
    5: "edge-ideal regularity is at most the ordered matching number + 1 (all graphs <= 6)",
    6: "bipartite graphs: symbolic powers are ordinary and depth stabilizes to n - t - 1",
    7: "explicit proof matchings are induced matchings of size t in the layered graph",
    8: "subset-homology Betti tables match the generator-subset oracle over Q and F2",
    9: "edge-ideal quotient regularity is at least the induced matching number (<= 6)",
    10: "verification reports are byte-identical across repeat runs and job counts",
}


def pytest_runtest_logreport(report):
    """Emit one acceptance line per criterion test, pass or fail."""
    match = _ACCEPTANCE_PATTERN.search(report.nodeid.rsplit("::", 1)[-1])
    if match is None:
        return
    number = int(match.group(1))
    if report.when == "call" or (report.when == "setup" and report.failed):
        status = "PASS" if report.passed else "FAIL"
        print(f"\nACCEPTANCE {number}: {status} - {_DESCRIPTIONS[number]}")


@pytest.fixture(scope="session")
def graph_classes() -> dict[int, list[Graph]]:
    """Isomorphism representatives of every graph on n <= 6 vertices,
    isolated vertices included, keyed by n. The six-vertex classes take
    about 3 s (2^15 canonical forms), so they are enumerated once per
    session."""
    return {n: isomorphism_representatives(enumerate_graphs(n)) for n in range(1, 7)}


@pytest.fixture(scope="session")
def classes_up_to_7() -> list[Graph]:
    """`isomorphism_classes(7)`: one graph per class on 1..7 vertices. The
    vertex-extension build takes about 1.5 s, so it runs once per session."""
    return isomorphism_classes(7)


@pytest.fixture(scope="session")
def oracle_ideals() -> list[MonomialIdeal]:
    """The squarefree ideals of acceptance criterion 8: the edge ideal, the
    cover ideal and the polarized second symbolic power of the cover ideal
    of each isolated-free graph class on 2..5 vertices, with one to eight
    generators, first occurrence of each (ring, generators) pair kept."""
    seen = set()
    ideals = []
    for n in range(2, 6):
        for g in isomorphism_representatives(list(enumerate_graphs(n, no_isolated=True))):
            for ideal in (
                edge_ideal(g),
                cover_ideal(g),
                polarize(symbolic_power_cover(g, 2)),
            ):
                if len(ideal.gens) > 8:
                    continue
                key = (ideal.ring.labels, tuple(ideal.sorted_gens()))
                if key not in seen:
                    seen.add(key)
                    ideals.append(ideal)
    return ideals
