"""Graph core: matching invariants, whiskering, enumeration, canonical forms.

Frozen numeric expectations were computed with the independent brute-force
oracles in tests/_oracles.py and are cross-checked against them again on a
random sample via hypothesis.
"""

from __future__ import annotations

import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverdepth.errors import GuardError, InputError
from coverdepth.graphs import (
    NEG_INF,
    Graph,
    all_pairs,
    are_isomorphic,
    canonical_form,
    enumerate_graphs,
    graph,
    independence_number,
    induced_matching_number,
    is_bipartite,
    is_independent,
    is_ordered_matching,
    is_s_ordered_matching,
    isolated_vertices,
    isomorphism_representatives,
    largest_stable_s,
    ordered_matching_number,
    ordered_profile,
    relabel,
    s_ordered_matching_number,
    whisker,
)

from _oracles import (
    brute_alpha,
    brute_induced_matching,
    brute_ordered_matching,
    brute_smallest_mask,
)


def path(n: int) -> Graph:
    return graph(n, [(i, i + 1) for i in range(1, n)])


def cycle(n: int) -> Graph:
    return graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete(n: int) -> Graph:
    return graph(n, itertools.combinations(range(1, n + 1), 2))


K33 = graph(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])
PRISM = graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)])
THREE_K2 = graph(6, [(1, 2), (3, 4), (5, 6)])
BULL = graph(5, [(1, 2), (2, 3), (1, 3), (1, 4), (2, 5)])


@st.composite
def small_graphs(draw, max_n: int = 6):
    """hypothesis strategy: a random graph on 2..max_n vertices."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = all_pairs(n)
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def permutations_of(g: Graph):
    return st.permutations(list(g.vertices)).map(
        lambda order: {v: order[v - 1] for v in g.vertices}
    )


# ---------------------------------------------------------------------------
# basic structure
# ---------------------------------------------------------------------------

def test_graph_validation():
    with pytest.raises(InputError):
        graph(3, [(1, 4)])
    with pytest.raises(InputError):
        graph(3, [(2, 2)])
    with pytest.raises(InputError):
        Graph(2, [(1.0, 2.0)])
    with pytest.raises(InputError):
        Graph(3, [(1, 2, 3)])
    with pytest.raises(InputError):
        graph(3, [(1, 2, 3)])
    g = graph(3, [(2, 1)])
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert g.sorted_edges() == [(1, 2)]


def test_is_independent():
    g = path(4)
    assert is_independent(g, [1, 3])
    assert is_independent(g, [])
    assert not is_independent(g, [2, 3])
    with pytest.raises(InputError):
        is_independent(g, [0])
    with pytest.raises(InputError):
        g.degree(0)


def test_independence_number_frozen():
    # frozen from brute_alpha
    assert independence_number(path(4)) == 2
    assert independence_number(cycle(5)) == 2
    assert independence_number(cycle(6)) == 3
    assert independence_number(complete(6)) == 1
    assert independence_number(K33) == 3
    assert independence_number(THREE_K2) == 3
    assert independence_number(PRISM) == 2
    assert independence_number(BULL) == 3
    assert independence_number(graph(4, [])) == 4


def test_induced_matching_frozen():
    # frozen from brute_induced_matching
    assert induced_matching_number(path(4)) == 1
    assert induced_matching_number(path(6)) == 2
    assert induced_matching_number(cycle(5)) == 1
    assert induced_matching_number(cycle(6)) == 2
    assert induced_matching_number(K33) == 1
    assert induced_matching_number(THREE_K2) == 3
    assert induced_matching_number(PRISM) == 1
    assert induced_matching_number(graph(3, [])) == 0


def test_induced_matching_seven_vertex_regression():
    # {1,7}, {2,6}, {3,4}: a colour bound whose classes were cliques of the
    # compatibility graph undercounted them and pruned this optimum
    assert induced_matching_number(graph(7, [(1, 5), (1, 7), (2, 5), (2, 6), (3, 4)])) == 3


def test_clique_searches_match_oracles_on_seeded_larger_graphs():
    """alpha and ind-match against the brute oracles on 200 seeded random
    graphs on 7-8 vertices (edge probability 0.3), beyond the exhaustive
    check on <= 5 vertices. A colour bound built from compatible edges
    instead of incompatible ones gets four of them wrong."""
    rng = random.Random(0)
    for _ in range(200):
        n = rng.choice((7, 8))
        g = graph(n, [p for p in all_pairs(n) if rng.random() < 0.3])
        edges = set(g.edges)
        assert independence_number(g) == brute_alpha(n, edges), g
        assert induced_matching_number(g) == brute_induced_matching(n, edges), g


# ---------------------------------------------------------------------------
# ordered and s-ordered matchings
# ---------------------------------------------------------------------------

def test_ordered_matching_p4_certificate():
    size, cert = ordered_matching_number(path(4))
    assert size == 2
    assert cert == [(1, 2), (4, 3)]
    assert is_ordered_matching(path(4), cert)


def test_ordered_matching_frozen_values():
    # frozen from brute_ordered_matching
    expected = {
        "P5": (path(5), 2),
        "P6": (path(6), 3),
        "C4": (cycle(4), 1),
        "C5": (cycle(5), 2),
        "C6": (cycle(6), 2),
        "K3": (complete(3), 1),
        "K5": (complete(5), 1),
        "K33": (K33, 1),
        "3K2": (THREE_K2, 3),
        "prism": (PRISM, 2),
        "bull": (BULL, 2),
    }
    for name, (g, t) in expected.items():
        size, cert = ordered_matching_number(g)
        assert size == t, name
        assert cert is not None and len(cert) == t
        assert is_ordered_matching(g, cert), name


def test_ordered_matching_edgeless():
    size, cert = ordered_matching_number(graph(3, []))
    assert size == 0 and cert is None


def test_is_ordered_matching_rejects():
    g = path(4)
    assert not is_ordered_matching(g, [(2, 1), (3, 4)])  # a-side 2,3 adjacent
    # {a_2, b_1} = {3,2} is an edge with 2 > 1
    assert not is_ordered_matching(g, [(1, 2), (3, 4)])
    with pytest.raises(InputError):
        is_ordered_matching(g, [(1, 3)])  # not an edge
    with pytest.raises(InputError):
        is_ordered_matching(g, [(1, 2), (2, 3)])  # vertex reused


def test_s_ordered_frozen_values():
    # frozen from brute_ordered_matching(..., s)
    assert s_ordered_matching_number(path(4), 2) == 2
    assert s_ordered_matching_number(path(4), 3) == NEG_INF
    assert s_ordered_matching_number(path(6), 2) == 3
    assert s_ordered_matching_number(path(6), 3) == NEG_INF
    assert s_ordered_matching_number(complete(3), 2) == NEG_INF
    assert s_ordered_matching_number(THREE_K2, 3) == 3
    assert s_ordered_matching_number(PRISM, 2) == 2
    assert s_ordered_matching_number(cycle(4), 2) == NEG_INF
    with pytest.raises(InputError):
        s_ordered_matching_number(path(4), 0)


def test_is_s_ordered_matching():
    # oracle witness for a 2-ordered matching of size 3 in P6
    w = [(4, 3), (1, 2), (6, 5)]
    assert is_s_ordered_matching(path(6), w, 2)
    assert not is_s_ordered_matching(path(6), w[:2], 3)  # too small for s=3
    assert not is_s_ordered_matching(path(6), [(1, 2), (3, 4), (5, 6)], 2)


def test_largest_stable_s_frozen():
    # frozen from the oracle sweep
    assert largest_stable_s(path(4)) == 2
    assert largest_stable_s(path(6)) == 2
    assert largest_stable_s(cycle(4)) == 1
    assert largest_stable_s(cycle(6)) == 2
    assert largest_stable_s(complete(3)) == 1
    assert largest_stable_s(K33) == 1
    assert largest_stable_s(THREE_K2) == 3
    assert largest_stable_s(PRISM) == 2
    with pytest.raises(InputError):
        largest_stable_s(graph(2, []))


# ---------------------------------------------------------------------------
# whiskering and bipartiteness
# ---------------------------------------------------------------------------

def test_whisker_single_block_is_triangle():
    g = whisker(graph(2, [(1, 2)]), [[1, 2]])
    assert are_isomorphic(g, complete(3))


def test_whisker_singletons_is_path():
    g = whisker(graph(2, [(1, 2)]), [[1], [2]])
    assert g.n == 4
    assert are_isomorphic(g, path(4))
    # whisker vertex numbering: block j gets vertex n + j
    assert g.has_edge(1, 3) and g.has_edge(2, 4)


def test_whisker_validation():
    g = graph(3, [(1, 2)])
    with pytest.raises(InputError):
        whisker(g, [[1, 2]])  # misses vertex 3
    with pytest.raises(InputError):
        whisker(g, [[1, 3], [2]])  # block {1,3} not a clique


def test_is_bipartite():
    ok, coloring = is_bipartite(path(5))
    assert ok
    assert all(coloring[u] != coloring[v] for u, v in path(5).edges)
    ok, coloring = is_bipartite(cycle(5))
    assert not ok and coloring is None
    ok, _ = is_bipartite(K33)
    assert ok
    ok, _ = is_bipartite(graph(3, []))
    assert ok


# ---------------------------------------------------------------------------
# enumeration and isomorphism
# ---------------------------------------------------------------------------

def test_enumerate_counts():
    assert sum(1 for _ in enumerate_graphs(3)) == 8
    assert sum(1 for _ in enumerate_graphs(3, no_isolated=True)) == 4
    with pytest.raises(GuardError):
        list(enumerate_graphs(8))


def test_isomorphism_class_counts():
    # classic unlabeled-graph counts 1, 2, 4, 11, 34
    for n, count in [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)]:
        reps = isomorphism_representatives(enumerate_graphs(n))
        assert len(reps) == count


def test_isomorphism_class_count_n6(graph_classes):
    assert len(graph_classes[6]) == 156


def test_canonical_form_examples():
    assert are_isomorphic(path(4), relabel(path(4), {1: 3, 2: 1, 3: 4, 4: 2}))
    assert not are_isomorphic(path(4), cycle(4))
    assert not are_isomorphic(K33, PRISM)  # both 3-regular on 6 vertices
    assert canonical_form(path(4)) == canonical_form(graph(4, [(3, 1), (1, 4), (4, 2)]))


def test_canonical_form_is_the_smallest_mask_on_all_small_graphs():
    """On every labelled graph on <= 5 vertices, the pruned search finds the
    brute-force minimum over all n! relabellings."""
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            assert canonical_form(g) == (n, brute_smallest_mask(n, set(g.edges)))


def test_six_vertex_representatives_are_their_own_canonical_copies(graph_classes):
    """Each six-vertex class's first labelled copy is its smallest-mask copy,
    so its own edge bitmask is its canonical form."""
    index = {pair: i for i, pair in enumerate(all_pairs(6))}
    for g in graph_classes[6]:
        assert canonical_form(g) == (6, sum(1 << index[e] for e in g.edges))


# ---------------------------------------------------------------------------
# randomized cross-checks against the oracles
# ---------------------------------------------------------------------------

@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_alpha_and_induced_match_oracle(data):
    g = data.draw(small_graphs(6))
    edges = set(g.sorted_edges())
    assert independence_number(g) == brute_alpha(g.n, edges)
    assert induced_matching_number(g) == brute_induced_matching(g.n, edges)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_ordered_matching_matches_oracle(data):
    g = data.draw(small_graphs(5))
    edges = set(g.sorted_edges())
    size, cert = ordered_matching_number(g)
    assert size == brute_ordered_matching(g.n, edges, 1)
    if size:
        assert is_ordered_matching(g, cert)
    for s in (2, 3):
        got = s_ordered_matching_number(g, s)
        want = brute_ordered_matching(g.n, edges, s)
        assert got == (NEG_INF if want is None else want)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_invariants_relabeling_invariant(data):
    g = data.draw(small_graphs(6))
    perm = data.draw(permutations_of(g))
    h = relabel(g, perm)
    assert independence_number(g) == independence_number(h)
    assert induced_matching_number(g) == induced_matching_number(h)
    assert ordered_matching_number(g)[0] == ordered_matching_number(h)[0]
    assert canonical_form(g) == canonical_form(h)
    assert are_isomorphic(g, h)


# ---------------------------------------------------------------------------
# exhaustive reference check of the mask-based searches
# ---------------------------------------------------------------------------

def _brute_bipartite(g: Graph) -> bool:
    return any(
        all(colors[u - 1] != colors[v - 1] for u, v in g.edges)
        for colors in itertools.product((0, 1), repeat=g.n)
    )


def test_mask_searches_match_oracles_on_all_small_graphs():
    """Every labelled graph on <= 5 vertices (1 099 of them): the searches
    over neighbour masks agree with the brute oracles and with the edge set,
    and every certificate they return is valid."""
    graphs = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    assert len(graphs) == 1099
    for g in graphs:
        edges = set(g.edges)
        nbrs = {v: {w for e in edges if v in e for w in e if w != v} for v in g.vertices}
        assert g.adj == tuple(sum(1 << (w - 1) for w in nbrs[v]) for v in g.vertices)
        assert [g.degree(v) for v in g.vertices] == [len(nbrs[v]) for v in g.vertices]
        assert isolated_vertices(g) == [v for v in g.vertices if not nbrs[v]]
        assert induced_matching_number(g) == brute_induced_matching(g.n, edges)

        size, cert = ordered_matching_number(g)
        assert size == brute_ordered_matching(g.n, edges, 1)
        assert (cert is None) == (not edges)
        if cert is not None:
            assert len(cert) == size and is_ordered_matching(g, cert)
            assert largest_stable_s(g) == max(
                s for s in range(1, size + 1)
                if brute_ordered_matching(g.n, edges, s) == size
            )
        for s in (2, 3):
            want = brute_ordered_matching(g.n, edges, s)
            got = s_ordered_matching_number(g, s)
            assert got == (NEG_INF if want is None else want)
            size_s, cert_s = ordered_profile(g).best(s)
            if want is not None:
                assert len(cert_s) == size_s == want
                assert is_s_ordered_matching(g, cert_s, s)
        size_b, cert_b = ordered_profile(g).b_independent
        assert size_b == brute_ordered_matching(g.n, edges, 1, b_independent=True)
        if cert_b is not None:
            assert len(cert_b) == size_b and is_ordered_matching(g, cert_b)
            assert is_independent(g, [b for _, b in cert_b])

        ok, coloring = is_bipartite(g)
        assert ok == _brute_bipartite(g)
        if ok:
            assert sorted(coloring) == list(g.vertices)
            assert all(coloring[u] != coloring[v] for u, v in edges)
        else:
            assert coloring is None
    # labelled graphs without isolated vertices (OEIS A006129)
    assert [len(list(enumerate_graphs(n, no_isolated=True))) for n in range(1, 6)] == [
        0, 1, 4, 41, 768
    ]


def test_adj_is_derived_state():
    """The neighbour masks stay out of equality, hashing and repr, and
    survive pickling."""
    g = BULL
    h = Graph(g.n, frozenset(g.edges))
    object.__setattr__(h, "adj", (0,) * h.n)
    assert h == g and hash(h) == hash(g)
    assert "adj" not in repr(g)
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and copy.adj == g.adj
