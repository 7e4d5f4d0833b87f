"""Reduced homology, Betti tables, and the depth engine.

Every Betti number is computed twice: the production path sums homology of
restricted complexes, and an independent generator-subset oracle minimalizes
strand-by-strand. Frozen values below were cross-checked between the two.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import operator
import random
import sys
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverdepth import cli, graphs, homology, layered
from coverdepth._bits import iter_bits
from coverdepth.errors import (
    DEFAULT_TAYLOR_GUARD,
    ConsistencyError,
    GuardError,
    InputError,
)
from coverdepth.graphs import (
    Graph,
    enumerate_graphs,
    isomorphism_classes,
    isomorphism_representatives,
)
from coverdepth.homology import (
    F2,
    RATIONALS,
    BettiTable,
    FieldChoice,
    betti_table_squarefree,
    depth_symbolic_cover,
    reg_edge_ideal,
    reg_edge_ideal_layered,
    taylor_betti_oracle,
)
from coverdepth.ideals import (
    MonomialIdeal,
    base_ring,
    cover_ideal,
    edge_ideal,
    is_squarefree,
    monomial_ideal,
    polarize,
    power,
    symbolic_power_cover,
)
from coverdepth.layered import as_plain_graph, build_gk

from _oracles import (
    brute_ordered_matching,
    brute_reduced_homology,
    tuple_pd_symbolic_cover,
    tuple_taylor_betti,
    unfiltered_reg_sweep,
)


def path(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(1, n)))


def cycle(n: int) -> Graph:
    return Graph(n, tuple(tuple(sorted((i, i % n + 1))) for i in range(1, n + 1)))


def complete(n: int) -> Graph:
    return Graph(n, tuple(itertools.combinations(range(1, n + 1), 2)))


K33 = Graph(6, ((1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6)))
THREE_K2 = Graph(6, ((1, 2), (3, 4), (5, 6)))


@st.composite
def small_graphs(draw, max_n: int = 5, min_edges: int = 0):
    n = draw(st.integers(min_value=2 if min_edges else 1, max_value=max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.sets(st.sampled_from(pairs), min_size=min_edges) if pairs
                 else st.just(set()))
    return Graph(n, tuple(sorted(edges)))


@st.composite
def small_complexes(draw):
    """(n, minimal non-faces): a complex on vertices 1..n, n <= 5, from a
    random antichain of non-empty non-faces of every size, so non-faces of
    three or more vertices reach the walk's general test."""
    n = draw(st.integers(min_value=1, max_value=5))
    subsets = [
        frozenset(c)
        for size in range(1, n + 1)
        for c in itertools.combinations(range(1, n + 1), size)
    ]
    family = draw(st.sets(st.sampled_from(subsets), max_size=6))
    return n, [s for s in family if not any(t < s for t in family)]


def _masks(non_faces) -> list[int]:
    """Vertex sets as bitmasks, vertex v on bit v - 1."""
    return [sum(1 << (v - 1) for v in nf) for nf in non_faces]


def _nonzero(dims: dict[int, int]) -> dict[int, int]:
    """The degrees of nonzero homology, as `_dims_from_faces` keeps them."""
    return {d: c for d, c in dims.items() if c}


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def test_field_choice():
    assert RATIONALS.char == 0 and RATIONALS.label == "q"
    assert F2.char == 2 and F2.label == "f2"
    for bad in (-1, 1, 3, 4, 5, 6):
        with pytest.raises(InputError):
            FieldChoice(bad)


def test_independence_complex():
    """The face walk on a graph's neighbour masks walks its independent
    sets: {1, 3} is a face of Ind(P3) and {1, 2} is not, and an edgeless
    graph gives the full simplex."""
    faces = homology._faces_by_dim(0b111, path(3).adj)
    assert sorted(faces[1]) == [0b101] and 2 not in faces
    full = homology._faces_by_dim(0b11, [0, 0])
    assert {d: sorted(fs) for d, fs in full.items()} == {-1: [0], 0: [1, 2], 1: [0b11]}


# ---------------------------------------------------------------------------
# reduced homology
# ---------------------------------------------------------------------------


def test_reduced_homology_examples():
    """The face walk and boundary ranks on small complexes."""
    def dims(vertices, non_faces):
        faces = homology._faces_by_dim(vertices, [0] * vertices.bit_length(), non_faces)
        return homology._dims_from_faces(faces, 0)

    assert dims(0b111, []) == {}  # full simplex
    assert dims(0b11, [0b11]) == {0: 1}  # two points
    assert dims(0b111, [0b111]) == {1: 1}  # hollow triangle
    assert dims(0, []) == {-1: 1}  # only the empty face
    # the independence complex of C4 is a pair of disjoint edges
    assert dims(0b1111, _masks(cycle(4).edges)) == {0: 1}


def test_reduced_homology_projective_plane():
    """A six-vertex closed surface whose homology depends on the field."""
    triangles = [
        (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
        (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
    ]
    for e in itertools.combinations(range(1, 7), 2):
        assert sum(1 for t in triangles if set(e) <= set(t)) == 2
    missing = [
        t for t in itertools.combinations(range(1, 7), 3) if t not in triangles
    ]
    assert len(missing) == 10
    # the missing triples already exclude every larger subset
    for q in itertools.combinations(range(1, 7), 4):
        assert any(set(m) <= set(q) for m in missing)
    faces = homology._faces_by_dim(0b111111, [0] * 6, _masks(missing))
    assert homology._dims_from_faces(faces, RATIONALS.char) == {}
    assert homology._dims_from_faces(faces, F2.char) == {1: 1, 2: 1}


@given(g=small_graphs(max_n=6))
@settings(max_examples=60, deadline=None)
def test_reduced_homology_matches_oracle_on_graphs(g):
    faces = homology._faces_by_dim((1 << g.n) - 1, g.adj)
    expected = brute_reduced_homology(
        list(range(1, g.n + 1)), [frozenset(e) for e in g.edges]
    )
    assert homology._dims_from_faces(faces, 0) == _nonzero(expected)


@given(c=small_complexes())
@settings(max_examples=60, deadline=None)
def test_reduced_homology_matches_oracle_on_complexes(c):
    n, non_faces = c
    faces = homology._faces_by_dim((1 << n) - 1, [0] * n, _masks(non_faces))
    expected = brute_reduced_homology(list(range(1, n + 1)), non_faces)
    assert homology._dims_from_faces(faces, 0) == _nonzero(expected)


def _faces_by_itertools(bits: list[int], non_faces: list[int]) -> dict[int, list[int]]:
    """Every subset of the vertex bits containing no non-face, by size."""
    faces: dict[int, list[int]] = {}
    for size in range(len(bits) + 1):
        for subset in itertools.combinations(bits, size):
            mask = sum(subset)
            if not any(nf & mask == nf for nf in non_faces):
                faces.setdefault(size - 1, []).append(mask)
    return faces


def _check_face_walk(n: int, non_faces) -> None:
    """The walk against itertools, with vertex v on bit 2v - 1 so that the
    vertex mask has gaps."""
    bit = {v: 1 << (2 * v - 1) for v in range(1, n + 1)}
    nf_masks = [sum(bit[v] for v in nf) for nf in non_faces]
    walk = homology._faces_by_dim(sum(bit.values()), [0] * 2 * n, nf_masks)
    want = _faces_by_itertools(list(bit.values()), nf_masks)
    assert {d: sorted(fs) for d, fs in walk.items()} == {
        d: sorted(fs) for d, fs in want.items()
    }, (n, non_faces)


def test_face_walk_matches_itertools_on_all_small_graphs():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            _check_face_walk(n, g.edges)


@given(c=small_complexes())
@settings(max_examples=60, deadline=None)
def test_face_walk_matches_itertools_on_complexes(c):
    """Larger and singleton non-faces as well as edges."""
    _check_face_walk(*c)


def test_face_walk_on_neighbour_masks_matches_edge_non_faces():
    """A graph's neighbour masks walk the same faces, in the same order, as
    its edges passed as non-faces, the path the itertools tests check, on
    every labelled graph with at most five vertices."""
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            full = (1 << n) - 1
            plain = homology._faces_by_dim(full, [0] * n, _masks(g.edges))
            assert homology._faces_by_dim(full, g.adj) == plain, g


def test_graph_fast_path_matches_reference_with_cold_memo():
    """The folded, component-memoized path against plain face enumeration,
    on every labelled graph with at most five vertices, over Q and F2. The
    memo starts empty, so every key is built here and every hit is checked."""
    homology._COMPONENT_DIMS.clear()
    for f in (RATIONALS, F2):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                full = (1 << n) - 1
                plain = homology._dims_from_faces(
                    homology._faces_by_dim(full, g.adj), f.char
                )
                assert homology._ind_dims(g.adj, full, f.char) == plain, (g, f)
    assert homology._COMPONENT_DIMS


@given(g=small_graphs(max_n=5), data=st.data())
@settings(max_examples=40, deadline=None)
def test_reduced_homology_relabeling_invariance(g, data):
    perm = data.draw(st.permutations(range(1, g.n + 1)))
    relabel = dict(zip(range(1, g.n + 1), perm))
    h = Graph(
        g.n, tuple(sorted(tuple(sorted((relabel[a], relabel[b]))) for a, b in g.edges))
    )
    dims = [
        homology._dims_from_faces(homology._faces_by_dim((1 << f.n) - 1, f.adj), 0)
        for f in (g, h)
    ]
    assert dims[0] == dims[1]


# ---------------------------------------------------------------------------
# Betti tables
# ---------------------------------------------------------------------------


def test_betti_table_validation():
    t = BettiTable(2, ((0, 0, 1), (1, 1, 2), (2, 2, 1)))
    assert t.beta(1, 1) == 2 and t.beta(1, 2) == 0
    assert t.pd == 2 and t.reg == 0
    with pytest.raises(InputError):
        BettiTable(2, ((1, 1, 2), (0, 0, 1)))
    with pytest.raises(InputError):
        BettiTable(2, ((0, 0, 1), (1, 1, 0)))
    with pytest.raises(InputError):
        BettiTable(2, ((0, 0, 1), (3, 3, 1)))
    with pytest.raises(InputError):
        BettiTable(2, ((1, 1, 2),))


def test_betti_table_json_round_trip():
    t = BettiTable(4, ((0, 0, 1), (1, 2, 3), (2, 3, 2)))
    data = t.to_json()
    assert data == {"num_vars": 4, "entries": [[0, 0, 1], [1, 2, 3], [2, 3, 2]]}


def test_betti_two_variables():
    ideal = monomial_ideal(base_ring(2), [(1, 0), (0, 1)])
    for f in (RATIONALS, F2):
        t = betti_table_squarefree(ideal, f)
        assert t.entries == ((0, 0, 1), (1, 1, 2), (2, 2, 1))
        assert taylor_betti_oracle(ideal, f) == t
    assert (t.pd, t.reg, ideal.ring.num_vars - t.pd) == (2, 0, 0)


def test_betti_edge_ideal_triangle():
    ideal = edge_ideal(complete(3))
    for f in (RATIONALS, F2):
        t = betti_table_squarefree(ideal, f)
        assert t.entries == ((0, 0, 1), (1, 2, 3), (2, 3, 2))
        assert taylor_betti_oracle(ideal, f) == t
    assert (t.pd, t.reg, ideal.ring.num_vars - t.pd) == (2, 1, 1)


def test_betti_cover_ideal_path4():
    ideal = cover_ideal(path(4))
    t = betti_table_squarefree(ideal)
    assert t.entries == ((0, 0, 1), (1, 2, 3), (2, 3, 2))
    assert taylor_betti_oracle(ideal) == t
    assert (t.pd, t.reg, ideal.ring.num_vars - t.pd) == (2, 1, 2)


def test_betti_input_errors():
    with pytest.raises(InputError):
        betti_table_squarefree(monomial_ideal(base_ring(2), [(2, 0)]))
    with pytest.raises(GuardError):
        betti_table_squarefree(edge_ideal(path(4)), guard=3)
    with pytest.raises(GuardError):
        taylor_betti_oracle(edge_ideal(path(4)), guard=2)


def test_taylor_handles_non_squarefree():
    square = power(monomial_ideal(base_ring(2), [(1, 0), (0, 1)]), 2)
    assert taylor_betti_oracle(square).entries == ((0, 0, 1), (1, 2, 3), (2, 3, 2))
    # polarization keeps pd and reg; depth counts the original variables
    t = betti_table_squarefree(polarize(square))
    assert (t.pd, t.reg, square.ring.num_vars - t.pd) == (2, 1, 0)


def _random_monomial_ideals(seed: int, count: int) -> list[MonomialIdeal]:
    """Seeded monomial ideals with 1-8 generators in 1-5 variables and
    exponents 0-3. A drawn all-zero generator, the monomial 1, is dropped,
    since it would make the unit ideal; a draw left with no generator
    gives no ideal."""
    rng = random.Random(seed)
    ideals = []
    for _ in range(count):
        n = rng.randint(1, 5)
        gens = [tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(1, 8))]
        gens = [g for g in gens if any(g)]
        if gens:
            ideals.append(monomial_ideal(base_ring(n), gens))
    return ideals


def _taylor_mismatches(ideals) -> list[tuple]:
    """(generators, field) of each input where `taylor_betti_oracle` and
    the tuple-LCM reference disagree; an entry list that `BettiTable`
    rejects counts as a disagreement."""
    bad = []
    for ideal in ideals:
        for f in (RATIONALS, F2):
            try:
                same = taylor_betti_oracle(ideal, f) == tuple_taylor_betti(ideal, f)
            except InputError:
                same = False
            if not same:
                bad.append((ideal.sorted_gens(), f.label))
    return bad


# (x y^2, x^2 y): the lcm x^2 y^2 needs each variable's larger exponent
CROSSED = monomial_ideal(base_ring(2), [(1, 2), (2, 1)])


def test_taylor_matches_tuple_reference_on_random_ideals():
    ideals = _random_monomial_ideals(18, 400)
    assert any(not is_squarefree(ideal) for ideal in ideals)
    assert _taylor_mismatches(ideals + [CROSSED]) == []


def test_taylor_matches_tuple_reference_on_criterion_8_ideals(oracle_ideals):
    assert len(oracle_ideals) == 89
    assert _taylor_mismatches(oracle_ideals) == []


def test_taylor_reference_catches_binary_packing(monkeypatch):
    """Exponents packed in binary instead of unary: OR is no longer max, so
    the lcm and the degree j come out wrong and the reference comparison
    must fail."""
    def binary_pack(gens):
        packed = [0] * len(gens)
        offset = 0
        for column in zip(*gens):
            for g, e in enumerate(column):
                packed[g] |= e << offset
            offset += max(column).bit_length()
        return packed

    monkeypatch.setattr(homology, "_unary_pack", binary_pack)
    assert _taylor_mismatches([CROSSED]) == [
        ([(2, 1), (1, 2)], label) for label in ("q", "f2")
    ]
    assert _taylor_mismatches(_random_monomial_ideals(18, 400))


def test_taylor_ring_variable_in_no_generator():
    # x2 and x4 divide no generator: their fields are zero bits wide
    ideal = monomial_ideal(base_ring(4), [(2, 0, 0, 0), (1, 0, 3, 0)])
    t = taylor_betti_oracle(ideal)
    assert t.entries == ((0, 0, 1), (1, 2, 1), (1, 4, 1), (2, 5, 1))
    assert t == tuple_taylor_betti(ideal)


def test_taylor_guard_at_twelve_generators():
    twelve = edge_ideal(path(13))
    assert len(twelve.gens) == 12 == DEFAULT_TAYLOR_GUARD
    assert taylor_betti_oracle(twelve, F2) == betti_table_squarefree(twelve, F2)
    thirteen = edge_ideal(cycle(13))
    with pytest.raises(GuardError):
        taylor_betti_oracle(thirteen)
    assert taylor_betti_oracle(thirteen, F2, guard=13) == betti_table_squarefree(thirteen, F2)


@given(g=small_graphs(max_n=5, min_edges=1), f=st.sampled_from([RATIONALS, F2]))
@settings(max_examples=40, deadline=None)
def test_betti_matches_taylor_on_edge_and_cover_ideals(g, f):
    for ideal in (edge_ideal(g), cover_ideal(g)):
        assert betti_table_squarefree(ideal, f) == taylor_betti_oracle(ideal, f)


def _plain_hochster_table(g: Graph, f: FieldChoice) -> BettiTable:
    """Betti table of S/I(g) by Hochster's formula with no fold, join or
    memo: plain face enumeration of the restricted complex on every vertex
    subset sigma, its degree-d homology added at (|sigma| - d - 1, |sigma|)."""
    counts: dict[tuple[int, int], int] = defaultdict(int)
    for size in range(g.n + 1):
        for sigma in itertools.combinations(range(1, g.n + 1), size):
            faces = homology._faces_by_dim(sum(1 << (v - 1) for v in sigma), g.adj)
            for d, c in homology._dims_from_faces(faces, f.char).items():
                counts[(size - d - 1, size)] += c
    return BettiTable(g.n, tuple(sorted((i, j, b) for (i, j), b in counts.items())))


def _seeded_graphs(seed: int, sizes) -> list[Graph]:
    rng = random.Random(seed)
    return [
        Graph(n, tuple(e for e in itertools.combinations(range(1, n + 1), 2)
                       if rng.random() < 0.4))
        for n in sizes
    ]


def _hochster_mismatches(graphs) -> list[tuple]:
    """(graph, field label) of each graph whose edge-ideal Betti table,
    read through `homology.betti_table_squarefree` so a planted fault is
    seen, differs from `_plain_hochster_table`."""
    return [(g, f.label) for g in graphs for f in (RATIONALS, F2)
            if homology.betti_table_squarefree(edge_ideal(g), f) != _plain_hochster_table(g, f)]


def test_edge_ideal_betti_matches_plain_hochster_with_cold_memo():
    """The edge-ideal branch (cone and fold tables, join, memo) against a plain
    Hochster sum, on every labelled graph with at most five vertices and a
    seeded handful on seven to nine vertices, over Q and F2. The memo starts
    empty, so every key is built here and every hit is checked."""
    homology._COMPONENT_DIMS.clear()
    graphs = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    graphs += _seeded_graphs(11, (7, 7, 8, 8, 9, 9))
    # an edge ideal needs an edge
    assert _hochster_mismatches([g for g in graphs if g.edges]) == []
    assert homology._COMPONENT_DIMS


@given(g=small_graphs(max_n=9, min_edges=1))
@settings(max_examples=40, deadline=None)
def test_edge_ideal_betti_sweep_matches_plain_hochster(g):
    """The edge-ideal sweep, with its cones read from the isolated-vertex
    masks and its folds read from the table, against the plain Hochster
    sum on random graphs on up to nine vertices, over Q and F2, each from
    a cold memo."""
    homology._COMPONENT_DIMS.clear()
    assert _hochster_mismatches([g]) == []


@pytest.mark.parametrize(
    "name, old, new",
    [
        # the lookup reads W - v, v the vertex whose neighbours u's hold
        ("_dominated", "return common & -common", "return low"),
        # the cone test keeps the new top vertex's neighbours isolated
        ("betti_table_squarefree", "lone[rest] & ~adj[t]", "lone[rest]"),
    ],
    ids=["fold-reads-v", "cone-keeps-neighbours"],
)
def test_edge_ideal_betti_reference_catches_a_planted_fault(monkeypatch, name, old, new):
    _plant(monkeypatch, name, old, new)
    assert _hochster_mismatches([g for g in enumerate_graphs(4) if g.edges])


def test_betti_cone_test_sees_an_isolated_top_vertex(monkeypatch):
    """A cone test that misses an isolated new top vertex t leaves every
    table as it was: the fold lemma deletes any other vertex of a subset
    with an isolated one, and the join reads a lone vertex as a cone. It
    shows only as work, so the planted fault is caught by counting the
    subsets sent to the join: C5's five edges and C5 itself, and five
    lone vertices more under the fault."""
    joined = []
    inner = homology._joined_dims

    def counting(adj, mask, char):
        joined.append(mask)
        return inner(adj, mask, char)

    monkeypatch.setattr(homology, "_joined_dims", counting)
    want = _plain_hochster_table(cycle(5), RATIONALS)
    assert homology.betti_table_squarefree(edge_ideal(cycle(5))) == want
    assert len(joined) == 6
    _plant(monkeypatch, "betti_table_squarefree", "(0 if adj[t] & rest else 1 << t)", "0")
    joined.clear()
    assert homology.betti_table_squarefree(edge_ideal(cycle(5))) == want
    assert len(joined) == 11


def test_betti_branch_reach(monkeypatch):
    """Edge ideals join components only on their fold-free subsets without
    an isolated vertex, read every other subset from the sweep's own table,
    never call _ind_dims and never build boundary matrices once the memo is
    warm; cover ideals with a non-quadric generator sweep the independent
    sets of the dual graph; an ideal with a non-quadric generator on both
    sides takes the generic face sweep."""
    calls = {"_dims_from_faces": 0, "_ind_dims": 0, "_joined_dims": 0}

    def counting(name):
        inner = getattr(homology, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(homology, name, wrapper)

    for name in calls:
        counting(name)

    def reach(ideal):
        betti_table_squarefree(ideal)  # warm the memo
        calls.update(dict.fromkeys(calls, 0))
        betti_table_squarefree(ideal)
        return calls["_dims_from_faces"], calls["_ind_dims"], calls["_joined_dims"]

    # I(C5): the dual, the cover ideal, has cubic generators. Its 5 edges
    # and C5 itself; every path of three or four vertices folds
    assert reach(edge_ideal(cycle(5))) == (0, 0, 6)
    # I(K3) is quadric, and so is its dual J(K3): the ideal's own test
    # comes first, so it takes the edge sweep, over 3 edges and K3
    assert reach(edge_ideal(complete(3))) == (0, 0, 4)
    # J(C5): one sweep step per independent set of C5 (1 + 5 + 5); each
    # residual graph, C5, an edge or empty, is fold-free and joined
    assert reach(cover_ideal(cycle(5))) == (0, 11, 11)
    # (x1x2, x2x3x4): mixed degrees, dual (x2, x1x3, x1x4) mixed as well
    mixed = monomial_ideal(base_ring(4), [(1, 1, 0, 0), (0, 1, 1, 1)])
    faces, ind, joined = reach(mixed)
    assert faces > 0 and ind == joined == 0


@given(c=small_complexes(), f=st.sampled_from([RATIONALS, F2]))
@settings(max_examples=40, deadline=None)
def test_betti_matches_taylor_on_random_squarefree_ideals(c, f):
    n, non_faces = c
    if not non_faces:
        return
    gens = [tuple(1 if v in nf else 0 for v in range(1, n + 1)) for nf in non_faces]
    ideal = monomial_ideal(base_ring(n), gens)
    assert betti_table_squarefree(ideal, f) == taylor_betti_oracle(ideal, f)


@given(g=small_graphs(max_n=5, min_edges=1))
@settings(max_examples=40, deadline=None)
def test_cover_ideal_pd_equals_edge_ideal_reg(g):
    # Alexander duality swaps projective dimension and regularity
    assert betti_table_squarefree(cover_ideal(g)).pd == reg_edge_ideal(g)


# ---------------------------------------------------------------------------
# regularity and depth
# ---------------------------------------------------------------------------


def test_reg_edge_ideal_examples():
    assert reg_edge_ideal(path(2)) == 2
    assert reg_edge_ideal(path(4)) == 2
    assert reg_edge_ideal(cycle(5)) == 3
    assert reg_edge_ideal(cycle(6)) == 3
    assert reg_edge_ideal(K33) == 2
    assert reg_edge_ideal(THREE_K2) == 4


def test_component_join_keeps_disconnected_inputs_small(monkeypatch):
    """reg(I(9K2)) = 10 on 18 vertices, at the vertex guard. The component
    join splits every swept subset into its edges, so no face walk sees
    more than two vertices; walking the whole complex instead takes
    seconds already at 7K2. The memo starts empty, so the walk runs; a
    larger walk fails at once instead of running for minutes."""
    walked = []
    faces_by_dim = homology._faces_by_dim

    def recording(vertices, adj):
        walked.append(vertices.bit_count())
        assert walked[-1] <= 2, f"face walk on {walked[-1]} vertices"
        return faces_by_dim(vertices, adj)

    monkeypatch.setattr(homology, "_faces_by_dim", recording)
    monkeypatch.setattr(homology, "_COMPONENT_DIMS", {})
    nine_k2 = Graph(18, tuple((2 * i + 1, 2 * i + 2) for i in range(9)))
    assert reg_edge_ideal(nine_k2) == 10
    assert walked


def test_reg_edge_ideal_errors():
    with pytest.raises(InputError):
        reg_edge_ideal(Graph(3, ()))
    with pytest.raises(GuardError):
        reg_edge_ideal(path(4), guard=3)


def _unpruned_reg(g: Graph, f: FieldChoice = RATIONALS, masks=None) -> int:
    """Reference edge-ideal regularity with no sweep pruning: one more than
    the largest d + 1 with nonzero degree-d homology over all 2^n induced
    subgraphs, or over the vertex masks `masks` if given."""
    best = 0
    for mask in range(1 << g.n) if masks is None else masks:
        for d in homology._ind_dims(g.adj, mask, f.char):
            best = max(best, d + 1)
    return best + 1


def _column_masks(labels) -> list[int]:
    """Every vertex mask of G_k relabelled by `as_plain_graph` (labels[v] is
    vertex v's (column, layer)) with at most one vertex per grid column.
    Within a column the neighbourhoods are nested, so by the fold lemma
    these subsets reach every homology degree that all subsets reach."""
    columns: dict[int, list[int]] = defaultdict(list)
    for v, (i, _layer) in enumerate(labels):
        columns[i].append(1 << v)
    return [sum(pick) for pick in itertools.product(*([0, *c] for c in columns.values()))]


def _corpus5_layered() -> list:
    """G_k, k <= 3, of every isolated-free graph class on at most five
    vertices: the layered graphs route B sweeps in `verify all` on the
    five-vertex corpus."""
    return [build_gk(g, k) for g in isomorphism_classes(5) if all(g.adj) for k in (1, 2, 3)]


@pytest.mark.parametrize(
    "g, k",
    [(path(2), 1), (path(2), 2), (path(2), 3), (path(4), 2), (complete(3), 2),
     (cycle(4), 2)],
)
def test_reg_layered_matches_plain_sweep(g, k):
    gk = build_gk(g, k)
    plain, _labels = as_plain_graph(gk)
    assert reg_edge_ideal_layered(gk) == _unpruned_reg(plain)


@given(g=small_graphs(max_n=4, min_edges=1), k=st.integers(min_value=1, max_value=2))
@settings(max_examples=25, deadline=None)
def test_reg_layered_matches_plain_sweep_random(g, k):
    gk = build_gk(g, k)
    plain, _labels = as_plain_graph(gk)
    assert reg_edge_ideal_layered(gk) == _unpruned_reg(plain)


def test_fold_free_sweep_matches_unpruned_reference():
    """The regularity sweep visits only subsets with no nested pair
    N(v) <= N(u), and evaluates only those its size bound and link filter
    let through; the unpruned sweep must give the same value, over Q and
    F2, from a cold memo. It covers every labelled graph with an edge on at
    most five vertices over every subset, and G_k, k <= 3, of every
    isolated-free graph class on at most five vertices: over every subset
    up to four vertices, and over the subsets with at most one vertex per
    grid column on five, where 2^(5k) subsets are too many."""
    homology._COMPONENT_DIMS.clear()
    graphs = [g for n in range(2, 6) for g in enumerate_graphs(n) if g.edges]
    layered = _corpus5_layered()
    for f in (RATIONALS, F2):
        for g in graphs:
            assert reg_edge_ideal(g, f) == _unpruned_reg(g, f), (g, f)
        for gk in layered:
            plain, labels = as_plain_graph(gk)
            masks = _column_masks(labels) if gk.base_n == 5 else None
            want = _unpruned_reg(plain, f, masks)
            assert reg_edge_ideal_layered(gk, f) == want, (gk, f)


@pytest.fixture(scope="module")
def layered_six() -> dict:
    """G_k, k = 1..4, of every isolated-free graph class on at most six
    vertices (155 classes, 620 layered graphs), mapped to reg(I(G_k)) over
    Q and F2 from the subset sweep `_reg_sweep`, which has none of route
    B's column cuts."""
    return {gk: {f.char: homology._reg_sweep(gk.adj, f.char) for f in (RATIONALS, F2)}
            for gk in (build_gk(g, k) for g in isomorphism_classes(6) if all(g.adj)
                       for k in range(1, 5))}


def _plant(monkeypatch, name: str, old: str, new: str) -> None:
    """Replace `homology.<name>` by its source with the one fragment `old`
    replaced by `new`: a planted fault."""
    source = inspect.getsource(getattr(homology, name))
    assert source.count(old) == 1, old
    namespace = dict(vars(homology))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(homology, name, namespace[name])


def _walk_mismatches(layered_six) -> int:
    """How many of the 620 Q sweeps of `layered_six` the column walk gets
    wrong."""
    return sum(homology._column_walk(gk, 0) != want[0] for gk, want in layered_six.items())


def test_column_walk_matches_the_subset_sweep(monkeypatch, layered_six):
    """Route B's column walk, with its size, cone and fold cuts, gives the
    regularity of the fold-free subset sweep on G_k, k = 1..4, of every
    isolated-free class on at most six vertices, over Q and F2, starting
    from a cold memo."""
    monkeypatch.setattr(homology, "_COMPONENT_DIMS", {})
    for gk, want in layered_six.items():
        for f in (RATIONALS, F2):
            assert reg_edge_ideal_layered(gk, f) == want[f.char], (gk, f)


@pytest.mark.parametrize(
    "name, old, new",
    [
        # closing one column early, never before the closed vertex's own column
        ("_column_walk", "(row.bit_length() - 1) // k)", "(row.bit_length() - 1) // k - 1)"),
        # a size bound one too tight
        ("_column_walk", "(size + (live >> shift).bit_count()) // 2 <= best",
         "(size + (live >> shift).bit_count() - 1) // 2 <= best"),
        # a cone cut that also fires on a vertex with one neighbour
        ("_closing_cuts", "if not nbrs:", "if nbrs.bit_count() <= 1:"),
    ],
    ids=["close-early", "size-tight", "cone-one-neighbour"],
)
def test_column_walk_reference_catches_a_planted_cut_fault(monkeypatch, layered_six, name,
                                                           old, new):
    _plant(monkeypatch, name, old, new)
    assert _walk_mismatches(layered_six)


def test_column_walk_reference_catches_a_fold_on_overlap(monkeypatch, layered_six):
    """A fold cut that fires when N_W(b) merely meets N_W(a): the vertices
    adjacent to some vertex of N_W(b) stand in for those adjacent to all."""

    def any_neighbours(adj, mask):
        return functools.reduce(operator.or_, (adj[w] for w in iter_bits(mask)))

    monkeypatch.setattr(homology, "_common_neighbours", any_neighbours)
    assert _walk_mismatches(layered_six)


def test_link_filter_cuts_evaluations(monkeypatch):
    """On the G_k of `_corpus5_layered`, the sweep gives the value of the
    sweep before the link filter (`unfiltered_reg_sweep`) and makes at most
    0.7 times as many `_ind_dims` evaluations."""
    calls = []
    inner = homology._ind_dims

    def counting(adj, mask, char):
        calls.append(mask)
        return inner(adj, mask, char)

    monkeypatch.setattr(homology, "_ind_dims", counting)
    filtered = unfiltered = 0
    for gk in _corpus5_layered():
        adj = as_plain_graph(gk)[0].adj
        calls.clear()
        got = homology._reg_sweep(adj, 0)
        filtered += len(calls)
        calls.clear()
        assert got == unfiltered_reg_sweep(adj, 0), gk
        unfiltered += len(calls)
    assert filtered <= 0.7 * unfiltered, (filtered, unfiltered)


@pytest.mark.parametrize(
    "g",
    [Graph(2, ((1, 2),)), Graph(4, ((1, 2), (3, 4))), THREE_K2]
    + [as_plain_graph(build_gk(path(2), k))[0] for k in (1, 2, 3)],
    ids=["1K2", "2K2", "3K2", "P2-G1", "P2-G2", "P2-G3"],
)
def test_size_bound_is_tight(g):
    """The sweep stops once no larger subset can carry a higher degree, by
    |W| >= 2d + 2. On these graphs the top degree d sits on exactly 2d + 2
    vertices, so pruning one size early, or evaluating a face one size
    late, loses it. Compared with the unpruned reference over Q and F2."""
    for f in (RATIONALS, F2):
        top = _unpruned_reg(g, f) - 2
        sizes = [mask.bit_count() for mask in range(1 << g.n)
                 if top in homology._ind_dims(g.adj, mask, f.char)]
        assert min(sizes) == 2 * top + 2
        assert homology._reg_sweep(g.adj, f.char) == top + 2, (g, f)


@pytest.mark.parametrize(
    "g", [cycle(5), as_plain_graph(build_gk(path(4), 2))[0]], ids=["C5", "P4-G2"]
)
def test_link_bound_is_tight(g):
    """The sweep evaluates a face only if its top vertex v leaves at least
    2 * best vertices outside N[v], since a new degree d needs the link's
    degree d - 1 and so |W \\ N[v]| >= 2d. On these graphs every face with
    homology in the top degree d leaves exactly 2d: on C5 the only one is
    the whole cycle, where vertex 5 leaves 2 and 3, and the edges have
    already set best = 1. So a filter one vertex stricter loses the degree
    (reg(C5) would read 2). Compared with the unpruned reference over Q and
    F2."""
    for f in (RATIONALS, F2):
        top = _unpruned_reg(g, f) - 2
        links = [(mask & ~g.adj[mask.bit_length() - 1]).bit_count() - 1
                 for mask in range(1 << g.n) if top in homology._ind_dims(g.adj, mask, f.char)]
        assert top >= 1 and min(links) == 2 * top
        assert homology._reg_sweep(g.adj, f.char) == top + 2, (g, f)


# graphs on which the fault below trips the link bound and not the quadric
# one: in the subset sweep, and in route B's column walk (the triangular prism)
LINK_FAULT_GRAPH = "n 6\n1 4\n1 6\n2 3\n2 4\n2 5\n3 4\n3 5\n"
PRISM = "n 6\n1 4\n1 5\n1 6\n2 3\n2 5\n2 6\n3 4\n3 6\n4 5\n"


def test_sweep_checks_the_link_bound(monkeypatch, tmp_path, capsys):
    """A kernel fault that moves the top degree d of a mask up by one
    wherever |W| >= 2(d + 1) + 2 still holds passes the quadric check. On
    LINK_FAULT_GRAPH it reads degree 1 on the face {1, 2, 3, 4} (truly a
    path and a point, degree 0 only) while best is 0; its top vertex 4 is
    adjacent to the other three, so the link bound |W \\ N[v]| >= 2d fails,
    and the sweep raises ConsistencyError naming it instead of returning a
    regularity its filter may have cut. Route B's column walk reads the
    whole prism (truly degree 1) as degree 2 while best is 1; its top vertex
    6 leaves only 4 and 5 outside N[6], so the link bound fails there too,
    and `coverdepth depth` on the prism exits 5 naming it."""
    inner = homology._ind_dims

    def raised(adj, mask, char):
        dims = inner(adj, mask, char)
        if dims and 2 * max(dims) + 4 <= mask.bit_count():
            top = max(dims)
            dims = {**{d: c for d, c in dims.items() if d != top}, top + 1: dims[top]}
        return dims

    monkeypatch.setattr(homology, "_ind_dims", raised)
    g = cli.parse_graph_text(LINK_FAULT_GRAPH)
    with pytest.raises(ConsistencyError, match="link bound"):
        homology._reg_sweep(g.adj, 0)
    with pytest.raises(ConsistencyError, match="link bound"):
        reg_edge_ideal_layered(build_gk(cli.parse_graph_text(PRISM), 1))
    graph = tmp_path / "g.txt"
    graph.write_text(PRISM)
    assert cli.main(["depth", str(graph), "1"]) == 5
    assert "link bound" in capsys.readouterr().err


@pytest.mark.parametrize("k", [1, 2, 3])
def test_column_walk_checks_the_quadric_bound(monkeypatch, tmp_path, capsys, k):
    """A kernel fault that moves every degree of a mask of two or more
    vertices up by one breaks |W| >= 2d + 2 on the first face route B's
    column walk reads, so the walk raises ConsistencyError naming the
    quadric bound instead of returning a regularity its cuts may have
    lost, and `coverdepth depth` exits 5 naming it. Route A does not read
    that kernel, so only route B's own check can name the bound."""
    inner = homology._ind_dims

    def shifted(adj, mask, char):
        dims = inner(adj, mask, char)
        return {d + 1: c for d, c in dims.items()} if mask.bit_count() >= 2 else dims

    monkeypatch.setattr(homology, "_ind_dims", shifted)
    with pytest.raises(ConsistencyError, match="quadric bound"):
        reg_edge_ideal_layered(build_gk(cli.parse_graph_text(PRISM), k))
    graph = tmp_path / "g.txt"
    graph.write_text(PRISM)
    assert cli.main(["depth", str(graph), str(k)]) == 5
    assert "quadric bound" in capsys.readouterr().err


def test_depth_symbolic_cover_examples():
    assert [depth_symbolic_cover(path(2), k) for k in (1, 2, 3, 4)] == [0, 0, 0, 0]
    assert [depth_symbolic_cover(path(4), k) for k in (1, 2, 3)] == [2, 1, 1]
    assert [depth_symbolic_cover(complete(3), k) for k in (1, 2)] == [1, 1]
    assert depth_symbolic_cover(THREE_K2, 3) == 2
    assert depth_symbolic_cover(cycle(6), 3) == 3
    assert depth_symbolic_cover(K33, 2) == 4


def test_depth_symbolic_cover_builds_no_plain_graph(monkeypatch):
    """Route B sweeps G_k's grid-order masks as `build_gk` makes them: a
    depth call, from cold memos, relabels nothing into a plain `Graph`."""
    graphs_in = [(cycle(6), 3), (K33, 2), (path(4), 2)]

    def refuse(*args, **kwargs):
        raise AssertionError("a depth call built a plain graph")

    for module in (layered, homology):
        monkeypatch.setattr(module, "as_plain_graph", refuse, raising=False)
    monkeypatch.setattr(graphs, "graph", refuse)
    monkeypatch.setattr(Graph, "__init__", refuse)
    monkeypatch.setattr(homology, "_KOSZUL_DIMS", {})
    monkeypatch.setattr(homology, "_COMPONENT_DIMS", {})
    assert [depth_symbolic_cover(g, k) for g, k in graphs_in] == [3, 4, 1]


def test_depth_symbolic_cover_errors():
    with pytest.raises(InputError):
        depth_symbolic_cover(Graph(2, ()), 1)
    with pytest.raises(InputError):
        depth_symbolic_cover(path(2), 0)
    with pytest.raises(GuardError):
        depth_symbolic_cover(path(4), 5)


def test_ind_dims_matches_faces_on_depth_route_inputs(monkeypatch):
    """The fold, component join and memo against plain face enumeration on
    every mask route B of the depth sweeps on G_k and every residual mask
    the quadric-dual branch of `betti_table_squarefree` sweeps on the
    polarized J(g)^(k), for each isolated-free graph class with at most
    four vertices, k <= 3, over Q and F2. The memo starts empty, so every
    key is built here."""
    seen = {}
    inner = homology._ind_dims

    def recording(adj, mask, char):
        seen[adj, mask, char] = dims = inner(adj, mask, char)
        return dims

    monkeypatch.setattr(homology, "_ind_dims", recording)
    homology._COMPONENT_DIMS.clear()
    for n in range(2, 5):
        for g in isomorphism_representatives(enumerate_graphs(n, no_isolated=True)):
            for f in (RATIONALS, F2):
                for k in (1, 2, 3):
                    depth_symbolic_cover(g, k, f)
                    betti_table_squarefree(polarize(symbolic_power_cover(g, k)), f)
    assert homology._COMPONENT_DIMS
    for (adj, mask, char), dims in seen.items():
        plain = homology._dims_from_faces(homology._faces_by_dim(mask, adj), char)
        assert dims == plain, (adj, mask, char)


def test_koszul_pd_matches_polarized_betti_table():
    """Route A of the depth check against the polarized Betti table, from a
    cold memo, over Q and F2: every labelled graph with an edge on at most
    four vertices and every graph class with an edge on five, k <= 3."""
    homology._KOSZUL_DIMS.clear()
    graphs = [g for n in range(2, 5) for g in enumerate_graphs(n) if g.edges]
    graphs += [g for g in isomorphism_representatives(enumerate_graphs(5)) if g.edges]
    for f in (RATIONALS, F2):
        for g in graphs:
            for k in (1, 2, 3):
                want = betti_table_squarefree(polarize(symbolic_power_cover(g, k)), f).pd
                assert homology._pd_symbolic_cover(g, k, f.char) == want, (g, k, f)


def test_koszul_pd_matches_taylor_oracle():
    """Route A against the generator-subset oracle on the unpolarized
    J(g)^(k), wherever it has at most eight generators: graph classes with
    an edge on at most five vertices, k <= 3, over Q and F2."""
    homology._KOSZUL_DIMS.clear()
    checked = 0
    for n in range(2, 6):
        for g in isomorphism_representatives(enumerate_graphs(n)):
            if not g.edges:
                continue
            for k in (1, 2, 3):
                ideal = symbolic_power_cover(g, k)
                if len(ideal.gens) > 8:
                    continue
                for f in (RATIONALS, F2):
                    want = taylor_betti_oracle(ideal, f).pd
                    assert homology._pd_symbolic_cover(g, k, f.char) == want, (g, k, f)
                    checked += 1
    assert checked > 100


def _unpruned_pd(g: Graph, k: int, char: int, memo: dict) -> int:
    """Reference pd(S/J(g)^(k)) with no size pruning: the upper-Koszul walk
    of `_pd_symbolic_cover` as it was before its per-value masks, on a
    growing tuple b, reading every non-cone K^b, with its own memo in place
    of `_KOSZUL_DIMS`."""
    n = g.n
    nbrs = [tuple(iter_bits(m)) for m in g.adj]
    closing: list[list[int]] = [[] for _ in nbrs]
    for v, nv in enumerate(nbrs):
        closing[max((v, *nv))].append(v)
    pos = {x: i for i, x in enumerate(itertools.chain.from_iterable(closing))}
    pd = 0
    stack = [((), 0, ())]
    while stack:
        a, live, rows = stack.pop()
        v = len(a)
        if v == n:
            key = tuple(rows[pos[x]] & live for x in iter_bits(live))
            if 0 in key:
                continue
            dims = memo.get((char, key))
            if dims is None:
                faces = homology._faces_by_dim(live, dict(zip(iter_bits(live), key)))
                dims = memo[char, key] = homology._dims_from_faces(faces, char)
            pd = max(pd, max(dims, default=-2) + 2)
            continue
        low = max([0, *(k - a[u] for u in nbrs[v] if u < v)])
        for e in range(low, k + 1):
            b, grown, more = a + (e,), live, rows
            for x in closing[v]:
                one, bx = 0, b[x]
                if bx and k - bx not in [b[u] for u in nbrs[x]]:
                    one = sum(1 << u for u in nbrs[x] if b[u] == k + 1 - bx)
                    if not one:
                        break
                    grown |= 1 << x
                more += (one,)
            else:
                stack.append((b, grown, more))
    return pd


def test_koszul_size_bound_matches_unpruned_reference(graph_classes):
    """Route A stops once no live set can raise pd, by |live| >= 2d + 2;
    the unpruned walk must give the same pd, over Q and F2, from a cold
    memo, on every graph class with an edge on two to six vertices (isolated
    vertices included) with k <= 4 and n * k <= 18."""
    homology._KOSZUL_DIMS.clear()
    memo: dict = {}
    for n in range(2, 7):
        for g in graph_classes[n]:
            if not g.edges:
                continue
            for k in range(1, min(4, 18 // n) + 1):
                for char in (0, 2):
                    want = _unpruned_pd(g, k, char, memo)
                    assert homology._pd_symbolic_cover(g, k, char) == want, (g, k, char)


@pytest.mark.parametrize("g", [cycle(5), path(4), K33], ids=["C5", "P4", "K33"])
def test_koszul_walk_fills_the_memo_keys_of_the_tuple_walk(monkeypatch, g):
    """From a cold memo, the per-value mask walk evaluates exactly the K^b
    the tuple walk it replaced evaluated, over Q and F2 at k = 1..3: the
    same live vertices with the same slack-1 rows, so a change to the live
    or tight masks, or to the pruning, shows as a different key set."""
    for char in (0, 2):
        for k in (1, 2, 3):
            monkeypatch.setattr(homology, "_KOSZUL_DIMS", {})
            memo: dict = {}
            want = tuple_pd_symbolic_cover(g, k, char, memo)
            assert homology._pd_symbolic_cover(g, k, char) == want
            assert homology._KOSZUL_DIMS == memo, (k, char)
            assert memo


@pytest.mark.parametrize("g", [path(4), cycle(5), complete(3)], ids=["P4", "C5", "K3"])
def test_koszul_route_checks_the_size_bound(monkeypatch, g):
    """A fault in the face homology route A reads (every degree shifted up
    by one) breaks |live| >= 2d + 2 on some K^b, so route A raises
    ConsistencyError instead of returning a pd its pruning may have cut.
    The memo is swapped for an empty one, so no faulty entry outlives the
    test."""
    inner = homology._dims_from_faces

    def shifted(faces, char):
        return {d + 1: c for d, c in inner(faces, char).items()}

    monkeypatch.setattr(homology, "_dims_from_faces", shifted)
    monkeypatch.setattr(homology, "_KOSZUL_DIMS", {})
    for k in (1, 2, 3):
        with pytest.raises(ConsistencyError, match="quadric bound"):
            homology._pd_symbolic_cover(g, k, 0)


@pytest.mark.parametrize(
    "g, k",
    [(cycle(6), 5), (cycle(6), 6), (path(6), 5), (path(6), 6),
     (Graph(8, ((1, 2), (3, 4), (5, 6), (7, 8))), 4)],
    ids=["C6-5", "C6-6", "P6-5", "P6-6", "4K2-4"],
)
def test_koszul_pd_matches_layered_regularity_on_large_instances(g, k):
    homology._KOSZUL_DIMS.clear()
    want = reg_edge_ideal_layered(build_gk(g, k))
    assert homology._pd_symbolic_cover(g, k, 0) == want


@pytest.mark.parametrize("g", [path(4), cycle(5), complete(3)], ids=["P4", "C5", "K3"])
def test_depth_routes_catch_a_fold_kernel_fault(monkeypatch, g):
    """A fault in the kernel route B sweeps through (every homology degree
    of a mask of two or more vertices shifted up by one) must surface as a
    ConsistencyError, because route A does not go through that kernel."""
    inner = homology._ind_dims

    def shifted(adj, mask, char):
        dims = inner(adj, mask, char)
        return {d + 1: c for d, c in dims.items()} if mask.bit_count() >= 2 else dims

    monkeypatch.setattr(homology, "_ind_dims", shifted)
    for k in (1, 2, 3):
        with pytest.raises(ConsistencyError):
            depth_symbolic_cover(g, k)


def test_koszul_route_calls_none_of_route_b_or_the_betti_table(monkeypatch):
    """Route A runs with the fold kernel, its memo, polarization, the
    Alexander dual, G_k, the generator search and the Betti table all
    replaced by functions that raise, in every coverdepth namespace."""
    cases = [(path(4), 2), (cycle(5), 3), (complete(3), 2), (THREE_K2, 3), (K33, 2)]
    want = [depth_symbolic_cover(g, k) for g, k in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("route A reached a shared kernel")

    names = ("_ind_dims", "_dominated", "_joined_dims", "_component_dims", "polarize",
             "alexander_dual", "build_gk", "symbolic_power_cover", "betti_table_squarefree")
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "coverdepth":
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
    homology._KOSZUL_DIMS.clear()
    got = [g.n - homology._pd_symbolic_cover(g, k, 0) for g, k in cases]
    assert got == want


@given(g=small_graphs(max_n=4, min_edges=1), k=st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_depth_lower_bound_small_k(g, k):
    t = brute_ordered_matching(g.n, set(g.edges))
    depth = depth_symbolic_cover(g, k)
    assert g.n - t - 1 <= depth <= g.n - 1
