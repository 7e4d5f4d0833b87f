"""Exact rank computation for small integer matrices.

Ranks drive every homology dimension in this package, so they must be exact:
over the rationals a fraction-free Bareiss elimination on Python integers,
and over F2 a bitmask XOR elimination. Characteristic 0 means the rationals
throughout; those are the only two fields the package computes over.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import InputError


def rank_over_q(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix, by fraction-free
    (Bareiss) elimination; all intermediate values stay integers."""
    m = [list(r) for r in rows if any(r)]
    if not m:
        return 0
    cols = len(m[0])
    rank = 0
    prev = 1
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            for j in range(c + 1, cols):
                m[i][j] = (m[i][j] * m[rank][c] - m[i][c] * m[rank][j]) // prev
            m[i][c] = 0
        prev = m[rank][c]
        rank += 1
        if rank == len(m):
            break
    return rank


def rank_mod_2(rows: Sequence[Sequence[int]]) -> int:
    """Rank over F2; rows are packed into integers and eliminated by XOR."""
    basis: list[int] = []
    for r in rows:
        v = 0
        for j, e in enumerate(r):
            if e & 1:
                v |= 1 << j
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def rank(rows: Sequence[Sequence[int]], char: int) -> int:
    """Rank over Q (characteristic 0) or F2 (characteristic 2); any other
    characteristic raises :class:`InputError`."""
    if char == 0:
        return rank_over_q(rows)
    if char == 2:
        return rank_mod_2(rows)
    raise InputError(f"field characteristic must be 0 or 2, got {char}")
