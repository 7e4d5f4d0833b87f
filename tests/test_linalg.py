"""Exact rank engines, cross-checked against one another and an oracle."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverdepth import homology
from coverdepth._linalg import rank, rank_mod_2, rank_over_q
from coverdepth.errors import InputError

from _oracles import _rank_fraction, brute_rank_mod_2


def sparse(m):
    """A dense integer matrix as the sparse rows `rank` takes."""
    return [{j: e for j, e in enumerate(r) if e} for r in m]


def test_rank_examples():
    assert rank_over_q(sparse([[1, 0], [0, 1]])) == 2
    assert rank_over_q(sparse([[1, 2], [2, 4]])) == 1
    assert rank_over_q(sparse([[0, 0], [0, 0]])) == 0
    assert rank_over_q([]) == 0
    # characteristic matters: 2 is invertible over Q, zero over F2
    assert rank_over_q(sparse([[2]])) == 1
    assert rank_mod_2(sparse([[2]])) == 0
    assert rank(sparse([[2]]), 0) == 1
    assert rank(sparse([[2]]), 2) == 0
    # only Q and F2 are computed over: characteristic 3 is refused, not
    # quietly answered over another field
    with pytest.raises(InputError):
        rank(sparse([[3]]), 3)


def test_rank_leaves_its_rows_unchanged():
    rows = sparse([[2, 4, 0], [4, 6, 1], [1, 0, 5]])
    before = [dict(r) for r in rows]
    assert rank_over_q(rows) == 3
    assert rank_mod_2(rows) == 2
    assert rows == before


matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda c: st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=c, max_size=c),
        min_size=1,
        max_size=5,
    )
)


@st.composite
def matrices_with_repeats(draw):
    """Up to 10 x 10 with entries -4..4, some rows repeated or negated and
    the rows shuffled, so that elimination meets dependent rows, large
    intermediate entries and pivots whose entries share a factor."""
    cols = draw(st.integers(min_value=1, max_value=10))
    entries = st.integers(min_value=-4, max_value=4)
    rows = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=1, max_size=10))
    for _ in range(draw(st.integers(min_value=0, max_value=10 - len(rows)))):
        row = draw(st.sampled_from(rows))
        rows.append([-e for e in row] if draw(st.booleans()) else list(row))
    return draw(st.permutations(rows))


@given(m=matrices)
@settings(max_examples=150, deadline=None)
def test_rank_over_q_matches_fraction_oracle(m):
    expected = _rank_fraction([[Fraction(e) for e in row] for row in m])
    assert rank_over_q(sparse(m)) == expected


@given(m=matrices_with_repeats())
@settings(max_examples=200, deadline=None)
def test_rank_over_q_matches_fraction_oracle_on_larger_matrices(m):
    expected = _rank_fraction([[Fraction(e) for e in row] for row in m])
    assert rank_over_q(sparse(m)) == expected
    assert rank_mod_2(sparse(m)) == brute_rank_mod_2(m)


@given(m=matrices)
@settings(max_examples=150, deadline=None)
def test_rank_mod_2_matches_generic_mod_p(m):
    # elimination against the size of the XOR span, which eliminates nothing
    assert rank_mod_2(sparse(m)) == brute_rank_mod_2(m)


@given(m=matrices)
@settings(max_examples=100, deadline=None)
def test_rank_can_only_drop_in_positive_characteristic(m):
    assert rank_mod_2(sparse(m)) <= rank_over_q(sparse(m))


def test_rank_matches_dense_reference_on_flag_complex_boundaries():
    """Boundary matrices of independence complexes (flag complexes) of
    seeded random graphs on four to eight vertices, each made dense, against
    the Fraction elimination over Q and, up to 12 rows, the XOR span over
    F2."""
    rng = random.Random(28)
    checked = 0
    for _ in range(60):
        n = rng.randint(4, 8)
        p = rng.choice((0.2, 0.4, 0.6))
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        faces = homology._faces_by_dim((1 << n) - 1, adj)
        for d in range(1, max(faces) + 1):
            lower = {f: i for i, f in enumerate(faces[d - 1])}
            dense = []
            for face in faces[d]:
                row = [0] * len(lower)
                for i, v in enumerate(u for u in range(n) if face >> u & 1):
                    row[lower[face ^ 1 << v]] = (-1) ** i
                dense.append(row)
            assert rank_over_q(sparse(dense)) == _rank_fraction(
                [[Fraction(e) for e in row] for row in dense])
            if len(dense) <= 12:
                assert rank_mod_2(sparse(dense)) == brute_rank_mod_2(dense)
            checked += 1
    assert checked > 100
