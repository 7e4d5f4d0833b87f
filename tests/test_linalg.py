"""Exact rank engines, cross-checked against one another and an oracle."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverdepth._linalg import rank, rank_mod_2, rank_over_q
from coverdepth.errors import InputError

from _oracles import _rank_fraction, brute_rank_mod_2


def test_rank_examples():
    assert rank_over_q([[1, 0], [0, 1]]) == 2
    assert rank_over_q([[1, 2], [2, 4]]) == 1
    assert rank_over_q([[0, 0], [0, 0]]) == 0
    assert rank_over_q([]) == 0
    # characteristic matters: 2 is invertible over Q, zero over F2
    assert rank_over_q([[2]]) == 1
    assert rank_mod_2([[2]]) == 0
    assert rank([[2]], 0) == 1
    assert rank([[2]], 2) == 0
    # only Q and F2 are computed over: characteristic 3 is refused, not
    # quietly answered over another field
    with pytest.raises(InputError):
        rank([[3]], 3)


matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda c: st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=c, max_size=c),
        min_size=1,
        max_size=5,
    )
)


@given(m=matrices)
@settings(max_examples=150, deadline=None)
def test_rank_over_q_matches_fraction_oracle(m):
    expected = _rank_fraction([[Fraction(e) for e in row] for row in m])
    assert rank_over_q(m) == expected


@given(m=matrices)
@settings(max_examples=150, deadline=None)
def test_rank_mod_2_matches_generic_mod_p(m):
    # elimination against the size of the XOR span, which eliminates nothing
    assert rank_mod_2(m) == brute_rank_mod_2(m)


@given(m=matrices)
@settings(max_examples=100, deadline=None)
def test_rank_can_only_drop_in_positive_characteristic(m):
    assert rank_mod_2(m) <= rank_over_q(m)
