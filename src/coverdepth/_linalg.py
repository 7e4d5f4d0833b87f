"""Exact rank computation for small sparse integer matrices.

Ranks drive every homology dimension in this package, so they must be exact:
over the rationals a sparse elimination over the integers, and over F2 a
bitmask XOR elimination, of rows that are dicts {column: nonzero int}.
Characteristic 0 means the rationals throughout; those are the only two
fields the package computes over.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from math import gcd

from .errors import InputError


def rank_over_q(rows: Sequence[Mapping[int, int]]) -> int:
    """Rank over the rationals. While a pivot row p leads at a row's lowest
    column c, the row becomes (p[c] * row - row[c] * p) / gcd(row[c], p[c]);
    a row left nonzero becomes the pivot at c, divided by the gcd of its
    entries. Rows are only scaled by nonzero integers: the rank is exact."""
    pivots: dict[int, dict[int, int]] = {}
    for r in rows:
        row = dict(r)
        while row:
            lead = min(row)
            p = pivots.get(lead)
            if p is None:
                g = gcd(*row.values())
                pivots[lead] = {c: x // g for c, x in row.items()} if g > 1 else row
                break
            g = gcd(row[lead], p[lead])
            a, b = row[lead] // g, p[lead] // g
            if b != 1:
                row = {c: b * x for c, x in row.items()}
            for c, x in p.items():
                if y := row.get(c, 0) - a * x:
                    row[c] = y
                else:
                    del row[c]
    return len(pivots)


def rank_mod_2(rows: Sequence[Mapping[int, int]]) -> int:
    """Rank over F2; rows are packed into integers and eliminated by XOR."""
    basis: list[int] = []
    for r in rows:
        v = 0
        for j, e in r.items():
            if e & 1:
                v |= 1 << j
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def rank(rows: Sequence[Mapping[int, int]], char: int) -> int:
    """Rank over Q (characteristic 0) or F2 (characteristic 2) of sparse
    rows; any other characteristic raises :class:`InputError`."""
    if char == 0:
        return rank_over_q(rows)
    if char == 2:
        return rank_mod_2(rows)
    raise InputError(f"field characteristic must be 0 or 2, got {char}")
