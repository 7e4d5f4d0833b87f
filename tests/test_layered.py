"""Layered graphs G_k, the polarization identity, and the explicit matchings.

Frozen matchings were validated with is_induced_matching_layered's exhaustive
cross-edge scan; the cover-ideal identity is asserted by computing both sides
from scratch (polarize the symbolic power vs. minimal covers of G_k).
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverdepth.errors import InputError
from coverdepth.graphs import (
    Graph,
    all_pairs,
    graph,
    induced_matching_number,
    is_bipartite,
    largest_stable_s,
    ordered_matching_number,
    ordered_profile,
)
from coverdepth.ideals import polarize, symbolic_power_cover
from coverdepth.layered import (
    LayeredGraph,
    as_plain_graph,
    build_gk,
    is_induced_matching_layered,
    proof_matching_bipartite,
    proof_matching_main,
)

from _oracles import (
    brute_induced_matching,
    brute_ordered_matchings,
    check_polarization_identity,
    label_sets,
    layered_cover_ideal,
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
STAR5 = graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])


@st.composite
def small_graphs(draw, max_n: int = 4):
    """hypothesis strategy: a random graph on 2..max_n vertices."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = all_pairs(n)
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


# ---------------------------------------------------------------------------
# building G_k
# ---------------------------------------------------------------------------

def test_build_gk_single_edge_k2():
    gk = build_gk(graph(2, [(1, 2)]), 2)
    assert gk.base_n == 2 and gk.k == 2
    assert gk.sorted_edges() == [
        ((1, 1), (2, 1)),
        ((1, 1), (2, 2)),
        ((1, 2), (2, 1)),
    ]
    assert gk.vertices == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_build_gk_level_one_is_base():
    for g in (path(4), complete(3), PRISM):
        gk = build_gk(g, 1)
        assert gk.sorted_edges() == [((i, 1), (j, 1)) for i, j in g.sorted_edges()]
        plain, labels = as_plain_graph(gk)
        assert labels == tuple((i, 1) for i in range(1, g.n + 1))
        assert plain == g


def test_build_gk_edge_count():
    # each base edge contributes the triangular count k(k+1)/2
    for g in (path(4), cycle(5), K33):
        m = len(g.edges)
        for k in (1, 2, 3):
            assert len(build_gk(g, k).edges) == m * k * (k + 1) // 2


def test_build_gk_validation():
    with pytest.raises(InputError):
        build_gk(path(3), 0)


def test_build_gk_keeps_isolated_columns():
    # vertex 3 is isolated; its grid column exists but carries no edges
    gk = build_gk(graph(3, [(1, 2)]), 2)
    assert (3, 1) in gk.vertices and (3, 2) in gk.vertices
    assert all(3 not in (a[0], b[0]) for a, b in gk.edges)


def test_layered_graph_is_value_like():
    assert build_gk(path(4), 2) == build_gk(path(4), 2)
    assert build_gk(path(4), 2) != build_gk(path(4), 3)


# ---------------------------------------------------------------------------
# the cover-ideal identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize(
    "g",
    [graph(2, [(1, 2)]), path(3), path(4), complete(3), cycle(4), BULL],
    ids=["K2", "P3", "P4", "K3", "C4", "bull"],
)
def test_polarization_identity_examples(g, k):
    assert check_polarization_identity(g, k) is True
    # the same equality, both routes spelled out: without isolated
    # vertices both sides live in the same ring
    lhs = polarize(symbolic_power_cover(g, k))
    rhs = layered_cover_ideal(build_gk(g, k))
    assert lhs == rhs


def test_layered_cover_ideal_requires_edges():
    with pytest.raises(InputError):
        layered_cover_ideal(build_gk(graph(2, []), 2))


def test_layered_cover_ideal_k1_matches_base_labels():
    # at k = 1 the minimal covers of G_1 are those of g, on (i, 1) labels
    ideal = layered_cover_ideal(build_gk(path(3), 1))
    assert ideal.ring.labels == ((1, 1), (2, 1), (3, 1))
    assert label_sets(ideal) == {
        frozenset({((2, 1), 1)}),
        frozenset({((1, 1), 1), ((3, 1), 1)}),
    }


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_polarization_identity_random(data):
    g = data.draw(small_graphs(4))
    if not g.edges:
        return
    k = data.draw(st.integers(min_value=1, max_value=3))
    assert check_polarization_identity(g, k) is True


# ---------------------------------------------------------------------------
# induced-matching checker on layered graphs
# ---------------------------------------------------------------------------

def test_induced_checker_basic():
    gk = build_gk(path(4), 2)
    assert is_induced_matching_layered(gk, [((1, 1), (2, 1))]) is True
    assert is_induced_matching_layered(gk, []) is True
    # {(2,1),(3,1)} joins the two pairs
    assert is_induced_matching_layered(
        gk, [((1, 1), (2, 1)), ((3, 1), (4, 1))]
    ) is False
    # overlapping pairs are not a matching
    assert is_induced_matching_layered(
        gk, [((1, 1), (2, 1)), ((2, 1), (3, 2))]
    ) is False


def test_induced_checker_rejects_non_edges():
    gk = build_gk(path(4), 2)
    with pytest.raises(InputError):
        is_induced_matching_layered(gk, [((1, 1), (3, 1))])  # not a base edge
    with pytest.raises(InputError):
        is_induced_matching_layered(gk, [((1, 2), (2, 2))])  # layers 2+2 > 3
    with pytest.raises(InputError):
        is_induced_matching_layered(gk, [((1, 1), (2, 5))])  # off the grid


def test_ind_match_of_layered_p4():
    # ind-match((P4)_2) = 2 even though ind-match(P4) = 1
    plain, _ = as_plain_graph(build_gk(path(4), 2))
    assert induced_matching_number(plain) == 2
    assert brute_induced_matching(plain.n, set(plain.sorted_edges())) == 2
    assert induced_matching_number(path(4)) == 1


# ---------------------------------------------------------------------------
# explicit matching, stable case (s >= 2)
# ---------------------------------------------------------------------------

def test_proof_matching_main_p4():
    m = proof_matching_main(path(4), [(1, 2), (4, 3)], 2, 2)
    assert m == [((1, 1), (2, 2)), ((4, 1), (3, 2))]
    assert is_induced_matching_layered(build_gk(path(4), 2), m) is True


def test_proof_matching_main_p6_uses_both_layer_formulas():
    # t = 3, s = 2: pair i=1 goes through the (t+2-s-i, k+s+i-t-1) branch
    cert = [(4, 3), (1, 2), (6, 5)]
    m = proof_matching_main(path(6), cert, 2, 4)
    assert m == [((4, 2), (3, 3)), ((1, 1), (2, 4)), ((6, 1), (5, 4))]
    assert is_induced_matching_layered(build_gk(path(6), 4), m) is True


def test_proof_matching_main_3k2():
    # t = s = 3: threshold k = 2t - 2s + 2 = 2, all pairs in the flat branch
    m = proof_matching_main(THREE_K2, [(1, 2), (3, 4), (5, 6)], 3, 2)
    assert m == [((1, 1), (2, 2)), ((3, 1), (4, 2)), ((5, 1), (6, 2))]
    assert is_induced_matching_layered(build_gk(THREE_K2, 2), m) is True


def test_proof_matching_main_errors():
    with pytest.raises(InputError):
        proof_matching_main(path(4), [(1, 2), (4, 3)], 1, 2)  # s must be >= 2
    with pytest.raises(InputError):
        proof_matching_main(path(4), [(1, 2)], 2, 2)  # fewer than s pairs
    with pytest.raises(InputError):
        proof_matching_main(path(4), [(1, 2), (3, 4)], 2, 2)  # not 2-ordered
    with pytest.raises(InputError):
        proof_matching_main(path(4), [(1, 2), (4, 3)], 2, 1)  # k below 2t-2s+2


@pytest.mark.parametrize(
    "g",
    [path(4), PRISM, BULL, THREE_K2],
    ids=["P4", "prism", "bull", "3K2"],
)
def test_proof_matching_main_induced_on_k_window(g):
    t, _ = ordered_matching_number(g)
    s = largest_stable_s(g)
    assert s >= 2
    size, cert = ordered_profile(g).best(s)
    assert size == t
    for k in range(2 * t - 2 * s + 2, 2 * t - 2 * s + 5):
        m = proof_matching_main(g, cert, s, k)
        assert len(m) == t
        assert is_induced_matching_layered(build_gk(g, k), m) is True


# ---------------------------------------------------------------------------
# explicit matching, bipartite case
# ---------------------------------------------------------------------------

def test_ordered_matching_b_independent_p4():
    assert ordered_profile(path(4)).b_independent == (2, [(2, 1), (4, 3)])


def test_proof_matching_bipartite_p4():
    # with an independent b-side the construction is induced
    m = proof_matching_bipartite(path(4), [(2, 1), (4, 3)], 2)
    assert m == [((2, 2), (1, 1)), ((4, 1), (3, 2))]
    assert is_induced_matching_layered(build_gk(path(4), 2), m) is True


def test_proof_matching_bipartite_dependent_b_side():
    # the substitution also accepts certificates whose b-side is NOT
    # independent, but then loses the induced guarantee: here b-side {2, 3}
    # is the middle edge of P4 and a cross edge survives in G_2
    m = proof_matching_bipartite(path(4), [(1, 2), (4, 3)], 2)
    assert m == [((1, 2), (2, 1)), ((4, 1), (3, 2))]
    assert is_induced_matching_layered(build_gk(path(4), 2), m) is False


def test_proof_matching_bipartite_errors():
    with pytest.raises(InputError):
        proof_matching_bipartite(complete(3), [(1, 2)], 2)  # not bipartite
    with pytest.raises(InputError):
        proof_matching_bipartite(path(4), [(4, 3), (2, 1)], 2)  # not ordered
    with pytest.raises(InputError):
        proof_matching_bipartite(path(4), [(2, 1), (4, 3)], 1)  # k < t
    # a certificate below the maximum size is accepted, with t = len(cert)
    assert proof_matching_bipartite(path(4), [(1, 2)], 2) == [((1, 1), (2, 2))]


@pytest.mark.parametrize(
    "g",
    [path(4), path(6), cycle(4), K33, STAR5],
    ids=["P4", "P6", "C4", "K33", "star5"],
)
def test_proof_matching_bipartite_induced_on_k_window(g):
    t, _ = ordered_matching_number(g)
    size, cert = ordered_profile(g).b_independent
    assert size == t  # these graphs all admit an independent b-side
    for k in range(t, t + 3):
        m = proof_matching_bipartite(g, cert, k)
        assert len(m) == t
        assert is_induced_matching_layered(build_gk(g, k), m) is True


def test_proof_matchings_from_every_certificate_are_induced(graph_classes):
    """Neither construction needs a maximum certificate. On every class with
    at most six vertices, each s-ordered certificate (s >= 2) of any size t
    gives an induced matching of G_k of size t for k = 2t - 2s + 2 .. +2,
    and on the bipartite classes each ordered certificate with an
    independent b-side does for k = t .. t + 2. Six vertices are needed for
    t > s, the only case that reaches the first layer formula of
    `proof_matching_main`."""
    built = {"main": 0, "bipartite": 0}
    for g in (g for n in sorted(graph_classes) for g in graph_classes[n]):
        edges = set(g.sorted_edges())
        for s in range(2, g.n // 2 + 1):
            for cert in brute_ordered_matchings(g.n, edges, s):
                t = len(cert)
                for k in range(2 * t - 2 * s + 2, 2 * t - 2 * s + 5):
                    m = proof_matching_main(g, cert, s, k)
                    assert len(m) == t, (g, cert, s, k)
                    assert is_induced_matching_layered(build_gk(g, k), m), (g, cert, s, k)
                    built["main"] += 1
        if not is_bipartite(g):
            continue
        for cert in brute_ordered_matchings(g.n, edges, 1, b_independent=True):
            t = len(cert)
            for k in range(t, t + 3):
                m = proof_matching_bipartite(g, cert, k)
                assert len(m) == t, (g, cert, k)
                assert is_induced_matching_layered(build_gk(g, k), m), (g, cert, k)
                built["bipartite"] += 1
    assert built == {"main": 5736, "bipartite": 2940}


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_proof_matching_sizes_match_certificate(data):
    g = data.draw(small_graphs(4))
    t, _ = ordered_matching_number(g)
    if t == 0:
        return
    s = largest_stable_s(g)
    if s < 2:
        return
    size, cert = ordered_profile(g).best(s)
    assert size == t
    k = 2 * t - 2 * s + 2 + data.draw(st.integers(min_value=0, max_value=2))
    m = proof_matching_main(g, cert, s, k)
    assert len(m) == t
    assert is_induced_matching_layered(build_gk(g, k), m) is True
