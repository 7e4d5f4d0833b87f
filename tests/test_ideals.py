"""Monomial ideal arithmetic: antichains, intersections, powers, symbolic
powers of cover ideals, polarization, duality, and the text/JSON forms.

Frozen generator sets below were derived with the brute-force oracles
(iterated lcm-intersection, subset covers) in tests/_oracles.py.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverdepth.errors import InputError, ParseError
from coverdepth.graphs import enumerate_graphs, graph, isomorphism_representatives
from coverdepth.ideals import (
    MonomialIdeal,
    alexander_dual,
    base_ring,
    cover_ideal,
    edge_ideal,
    format_ideal_text,
    ideal_to_json,
    intersect,
    is_squarefree,
    layered_ring,
    monomial_ideal,
    parse_ideal_text,
    polarize,
    power,
    symbolic_power_cover,
)

from _oracles import (
    brute_intersect,
    brute_minimalize,
    brute_power,
    brute_symbolic_power_cover,
)


def P3():
    return graph(3, [(1, 2), (2, 3)])


def P4():
    return graph(4, [(1, 2), (2, 3), (3, 4)])


def K3():
    return graph(3, [(1, 2), (1, 3), (2, 3)])


# ---------------------------------------------------------------------------
# construction and antichain reduction
# ---------------------------------------------------------------------------

def test_minimalize_drops_multiples():
    ideal = monomial_ideal(base_ring(2), [(1, 0), (1, 1), (2, 0)])
    assert ideal.gens == frozenset({(1, 0)})


def test_zero_and_unit():
    """Every ideal is nonzero and proper: the constructor rejects the zero
    ideal and the unit ideal, the latter also once minimalization has
    reduced a generating set to the generator 1."""
    with pytest.raises(InputError, match="zero ideal"):
        monomial_ideal(base_ring(2), [])
    with pytest.raises(InputError, match="unit ideal"):
        monomial_ideal(base_ring(2), [(0, 0), (1, 2)])
    with pytest.raises(InputError, match="unit ideal"):
        MonomialIdeal(base_ring(2), frozenset({(0, 0)}))


def test_ring_validation():
    with pytest.raises(InputError):
        base_ring(0)
    with pytest.raises(InputError):
        layered_ring([(1, 0)])
    with pytest.raises(InputError):
        monomial_ideal(base_ring(2), [(1,)])


# ---------------------------------------------------------------------------
# intersection and powers
# ---------------------------------------------------------------------------

def test_intersect_frozen():
    r = base_ring(2)
    a = monomial_ideal(r, [(1, 0)])
    b = monomial_ideal(r, [(0, 2), (1, 1)])
    assert intersect(a, b).gens == frozenset({(1, 1)})
    # library callers give both ideals one ring
    with pytest.raises(InputError, match="different rings"):
        intersect(a, monomial_ideal(base_ring(3), [(0, 0, 1)]))


def test_power_frozen():
    # (x1 x2, x2 x3)^2 = (x1^2 x2^2, x1 x2^2 x3, x2^2 x3^2)
    ideal = monomial_ideal(base_ring(3), [(1, 1, 0), (0, 1, 1)])
    assert power(ideal, 2).gens == frozenset({(2, 2, 0), (1, 2, 1), (0, 2, 2)})
    assert power(ideal, 1).gens == ideal.gens
    with pytest.raises(InputError, match="power needs k >= 1"):
        power(ideal, 0)


# ---------------------------------------------------------------------------
# graph ideals
# ---------------------------------------------------------------------------

def test_edge_ideal_p3():
    assert edge_ideal(P3()).gens == frozenset({(1, 1, 0), (0, 1, 1)})


def test_cover_ideal_p3():
    # minimal vertex covers of 1-2-3 are {2} and {1,3}
    assert cover_ideal(P3()).gens == frozenset({(0, 1, 0), (1, 0, 1)})


def test_cover_ideal_k3():
    assert cover_ideal(K3()).gens == frozenset({(1, 1, 0), (1, 0, 1), (0, 1, 1)})


def test_cover_ideal_requires_edges():
    with pytest.raises(InputError):
        cover_ideal(graph(3, []))


def test_edge_ideal_requires_edges():
    with pytest.raises(InputError, match="edge ideal needs at least one edge"):
        edge_ideal(graph(3, []))


def test_cover_is_intersection_of_edge_primes():
    r = base_ring(3)
    expected = intersect(
        monomial_ideal(r, [(1, 0, 0), (0, 1, 0)]),
        monomial_ideal(r, [(0, 1, 0), (0, 0, 1)]),
    )
    assert cover_ideal(P3()) == expected


# ---------------------------------------------------------------------------
# symbolic powers
# ---------------------------------------------------------------------------

def test_symbolic_power_cover_k3_frozen():
    # J(K3)^(2) = (x1 x2 x3, x1^2 x2^2, x1^2 x3^2, x2^2 x3^2)
    got = symbolic_power_cover(K3(), 2)
    assert got.gens == frozenset({(1, 1, 1), (2, 2, 0), (2, 0, 2), (0, 2, 2)})


def test_symbolic_power_cover_p4_frozen():
    got = symbolic_power_cover(P4(), 2)
    assert got.gens == frozenset(
        {(0, 2, 0, 2), (0, 2, 1, 1), (0, 2, 2, 0), (1, 1, 1, 1), (1, 1, 2, 0), (2, 0, 2, 0)}
    )


def test_symbolic_power_routes_agree():
    # the perfect matching on 8 vertices: 5^4 generators at k = 4
    matching = graph(8, [(1, 2), (3, 4), (5, 6), (7, 8)])
    for g, k in [(P3(), 2), (K3(), 2), (P4(), 3), (K3(), 3), (matching, 4)]:
        want = brute_symbolic_power_cover(g.n, set(g.sorted_edges()), k)
        assert symbolic_power_cover(g, k).gens == frozenset(want), (g, k)


def test_symbolic_equals_ordinary_for_prime():
    # J(K2) = (x1, x2) is prime, so symbolic and ordinary powers agree
    k2 = graph(2, [(1, 2)])
    assert symbolic_power_cover(k2, 3) == power(cover_ideal(k2), 3)


# ---------------------------------------------------------------------------
# polarization and duality
# ---------------------------------------------------------------------------

def test_polarize_frozen():
    # (x1^2, x1 x2, x2^2) -> (x11 x12, x11 x21, x21 x22)
    ideal = monomial_ideal(base_ring(2), [(2, 0), (1, 1), (0, 2)])
    pol = polarize(ideal)
    assert pol.ring.labels == ((1, 1), (1, 2), (2, 1), (2, 2))
    assert pol.gens == frozenset(
        {(1, 1, 0, 0), (1, 0, 1, 0), (0, 0, 1, 1)}
    )
    assert is_squarefree(pol)


def test_polarize_squarefree_is_relabeling():
    pol = polarize(edge_ideal(P3()))
    assert pol.ring.labels == ((1, 1), (2, 1), (3, 1))
    assert pol.gens == frozenset({(1, 1, 0), (0, 1, 1)})


def test_polarize_rejects_layered():
    pol = polarize(monomial_ideal(base_ring(2), [(2, 0)]))
    with pytest.raises(InputError):
        polarize(pol)


def test_alexander_dual_edge_cover():
    for g in (P3(), P4(), K3()):
        assert alexander_dual(edge_ideal(g)) == cover_ideal(g)
        assert alexander_dual(cover_ideal(g)) == edge_ideal(g)


def test_alexander_dual_requires_squarefree():
    with pytest.raises(InputError):
        alexander_dual(monomial_ideal(base_ring(2), [(2, 0)]))


# ---------------------------------------------------------------------------
# text and JSON forms
# ---------------------------------------------------------------------------

def test_format_ideal_text_frozen():
    k2 = graph(2, [(1, 2)])
    assert format_ideal_text(symbolic_power_cover(k2, 2)) == "(x1^2, x1 x2, x2^2)"
    assert format_ideal_text(cover_ideal(P3())) == "(x2, x1 x3)"


def test_text_round_trip():
    for ideal in (
        symbolic_power_cover(K3(), 2),
        cover_ideal(P4()),
        polarize(symbolic_power_cover(P3(), 2)),
    ):
        back = parse_ideal_text(format_ideal_text(ideal))
        assert back == ideal


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_ideal_text("x1, x2")
    with pytest.raises(ParseError):
        parse_ideal_text("(x1 y2)")
    with pytest.raises(ParseError):
        parse_ideal_text("(x1 x1_2)")
    # an ideal literal is nonzero and proper, and the monomial 1 is no term
    for literal in ("(0)", "(1)", "(1, x2)"):
        with pytest.raises(ParseError, match="bad monomial factor"):
            parse_ideal_text(literal)
    # variables are numbered from 1, and so are layers
    for literal in ("(x0)", "(x0 x1)", "(x1_0)", "(x0_1)"):
        with pytest.raises(ParseError, match="needs indices >= 1"):
            parse_ideal_text(literal)
    # and exponents are at least 1: x^0 would be the unit or drop a variable
    for literal in ("(x1^0)", "(x1 x2^0)", "(x1^00)", "(x1_1^0)", "(x1_1, x2_1^00)"):
        with pytest.raises(ParseError, match="needs an exponent >= 1"):
            parse_ideal_text(literal)
    assert parse_ideal_text("(x1^01)") == parse_ideal_text("(x1)")


def test_json_round_trip():
    """The JSON form against literal JSON: labels in ring order, layered
    labels as pairs, generators in `sorted_gens` order."""
    assert ideal_to_json(cover_ideal(P4())) == {
        "vars": [1, 2, 3, 4],
        "gens": [[1, 0, 1, 0], [0, 1, 1, 0], [0, 1, 0, 1]],
    }
    assert ideal_to_json(polarize(symbolic_power_cover(graph(2, [(1, 2)]), 2))) == {
        "vars": [[1, 1], [1, 2], [2, 1], [2, 2]],
        "gens": [[1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 1, 1]],
    }


# ---------------------------------------------------------------------------
# randomized cross-checks against the oracles
# ---------------------------------------------------------------------------

def exponent_tuples(n: int):
    """Exponent vectors of n variables, never all zero: that generator
    would make the unit ideal."""
    return st.tuples(*[st.integers(min_value=0, max_value=3)] * n).filter(any)


@st.composite
def random_ideals(draw, max_n: int = 4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    gens = draw(st.lists(exponent_tuples(n), min_size=1, max_size=5))
    return monomial_ideal(base_ring(n), gens), set(map(tuple, gens))


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_minimalize_matches_oracle(data):
    ideal, raw = data.draw(random_ideals())
    assert ideal.gens == frozenset(brute_minimalize(raw))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_intersect_matches_oracle_and_commutes(data):
    a, raw_a = data.draw(random_ideals(3))
    b, raw_b = data.draw(random_ideals(3))
    if a.ring != b.ring:
        return
    got = intersect(a, b)
    assert got.gens == frozenset(brute_intersect(set(a.gens), set(b.gens)))
    assert intersect(b, a).gens == got.gens


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_power_matches_oracle(data):
    ideal, _ = data.draw(random_ideals(3))
    k = data.draw(st.integers(min_value=1, max_value=3))
    assert power(ideal, k).gens == frozenset(brute_power(set(ideal.gens), k))


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_dual_involution(data):
    ideal, _ = data.draw(random_ideals(4))
    squarefree = monomial_ideal(
        ideal.ring, [tuple(min(e, 1) for e in g) for g in ideal.gens]
    )
    assert alexander_dual(alexander_dual(squarefree)) == squarefree


def test_symbolic_power_cover_matches_oracle():
    """Exact generator sets against the iterated lcm-intersection oracle:
    every labelled graph with an edge on at most four vertices and every
    isomorphism class on five, isolated vertices included, for k <= 3."""
    graphs = [g for n in range(2, 5) for g in enumerate_graphs(n)]
    graphs += isomorphism_representatives(enumerate_graphs(5))
    for g in graphs:
        if not g.edges:
            continue
        for k in (1, 2, 3):
            want = brute_symbolic_power_cover(g.n, set(g.sorted_edges()), k)
            assert symbolic_power_cover(g, k).gens == frozenset(want), (g, k)
