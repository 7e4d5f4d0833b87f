"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive and shares no code with the package:
subsets via itertools, membership-by-divisibility, homology by Fraction
Gaussian elimination. Slow is fine; these run on tiny inputs only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


# ---------------------------------------------------------------------------
# graphs (vertices 1..n, edges as sorted tuples)
# ---------------------------------------------------------------------------

def brute_alpha(n: int, edges: set[tuple[int, int]]) -> int:
    best = 0
    for r in range(n, 0, -1):
        for sub in itertools.combinations(range(1, n + 1), r):
            if all(
                (min(u, v), max(u, v)) not in edges
                for u, v in itertools.combinations(sub, 2)
            ):
                return r
    return best


def brute_induced_matching(n: int, edges: set[tuple[int, int]]) -> int:
    es = sorted(edges)
    best = 0
    for r in range(len(es), 0, -1):
        for sub in itertools.combinations(es, r):
            verts = [v for e in sub for v in e]
            if len(set(verts)) != 2 * r:
                continue
            span = {
                (min(u, v), max(u, v))
                for u, v in itertools.combinations(verts, 2)
                if (min(u, v), max(u, v)) in edges
            }
            if span == set(sub):
                return r
    return best


def _ordered_ok(
    edges: set[tuple[int, int]],
    pairs: list[tuple[int, int]],
    s: int,
    b_independent: bool = False,
) -> bool:
    def adj(u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in edges

    verts = [v for p in pairs for v in p]
    if len(set(verts)) != len(verts):
        return False
    if any(not adj(a, b) for a, b in pairs):
        return False
    if any(adj(pairs[i][0], pairs[j][0]) for i in range(len(pairs)) for j in range(i)):
        return False
    if b_independent and any(
        adj(pairs[i][1], pairs[j][1]) for i in range(len(pairs)) for j in range(i)
    ):
        return False
    for i in range(1, len(pairs) + 1):
        for j in range(1, len(pairs) + 1):
            if adj(pairs[i - 1][0], pairs[j - 1][1]):
                if s == 1 and not i <= j:
                    return False
                if s > 1 and not (i == j or i <= j - s):
                    return False
    return True


def _edge_sequences(edges: set[tuple[int, int]], r: int):
    """Every oriented, ordered sequence of r disjoint edges."""
    for sub in itertools.combinations(sorted(edges), r):
        if len({v for e in sub for v in e}) != 2 * r:
            continue
        for order in itertools.permutations(sub):
            for orient in itertools.product((0, 1), repeat=r):
                yield [(e[1], e[0]) if flip else e for e, flip in zip(order, orient)]


def brute_ordered_matching(
    n: int, edges: set[tuple[int, int]], s: int = 1, b_independent: bool = False
):
    """Max size over every oriented, ordered sequence of disjoint edges;
    returns None (for -inf) when s > 1 admits nothing of size >= s. With
    `b_independent`, the second endpoints must be pairwise non-adjacent."""
    best = 0
    for r in range(1, n // 2 + 1):
        if any(_ordered_ok(edges, pairs, s, b_independent)
               for pairs in _edge_sequences(edges, r)):
            best = r
    if s > 1 and best < s:
        return None
    return best


def brute_ordered_matchings(
    n: int, edges: set[tuple[int, int]], s: int = 1, b_independent: bool = False
):
    """Every sequence `brute_ordered_matching` accepts with at least
    max(1, s) pairs."""
    for r in range(max(1, s), n // 2 + 1):
        for pairs in _edge_sequences(edges, r):
            if _ordered_ok(edges, pairs, s, b_independent):
                yield pairs


def unpruned_ordered_profile(n: int, edges: set[tuple[int, int]]):
    """The ordered-matching search without a size bound: every valid node in
    preorder (edges ascending, (u,v) before (v,u)), a record replaced only
    by a strictly larger size. Returns (sizes, certs, b_independent) for
    s = 1..max(1, n // 2), the fields of `graphs.OrderedProfile`."""
    es = sorted(edges)
    nbrs = {v: {u for e in es if v in e for u in e if u != v} for v in range(1, n + 1)}
    top = max(1, n // 2)
    sizes, certs = [0] * top, [None] * top
    b_best = (0, None)

    def extend(pairs, used, gap, b_ok):
        nonlocal b_best
        r = len(pairs)
        for s in range(1, min(gap, r) + 1):
            if sizes[s - 1] < r:
                sizes[s - 1], certs[s - 1] = r, list(pairs)
        if b_ok and r > b_best[0]:
            b_best = (r, list(pairs))
        for u, v in es:
            if u in used or v in used:
                continue
            for a, b in ((u, v), (v, u)):
                if nbrs[a] & used:
                    continue
                # the latest a_i adjacent to b sets the gap
                earlier = [i for i, (ai, _) in enumerate(pairs, start=1) if ai in nbrs[b]]
                new_gap = min(gap, r + 1 - max(earlier)) if earlier else gap
                b_next = b_ok and not any(bj in nbrs[b] for _, bj in pairs)
                extend(pairs + [(a, b)], used | {a, b}, new_gap, b_next)

    extend([], set(), top, True)
    return tuple(sizes), tuple(certs), b_best


def brute_smallest_mask(n: int, edges: set[tuple[int, int]]) -> int:
    """Smallest edge bitmask over all n! relabellings, bit i standing for
    the i-th pair (u, v), u < v, in lexicographic order."""
    bit = {
        pair: 1 << i
        for i, pair in enumerate(itertools.combinations(range(1, n + 1), 2))
    }
    return min(
        sum(bit[min(p[u - 1], p[v - 1]), max(p[u - 1], p[v - 1])] for u, v in edges)
        for p in itertools.permutations(range(1, n + 1))
    )


def brute_minimal_vertex_covers(n: int, edges: set[tuple[int, int]]) -> list[frozenset[int]]:
    covers = []
    for r in range(0, n + 1):
        for sub in itertools.combinations(range(1, n + 1), r):
            sset = set(sub)
            if all(u in sset or v in sset for u, v in edges):
                covers.append(frozenset(sset))
    minimal = [c for c in covers if not any(d < c for d in covers)]
    return sorted(minimal, key=lambda c: (len(c), sorted(c)))


# ---------------------------------------------------------------------------
# monomial ideals over x1..xn: monomials are exponent tuples
# ---------------------------------------------------------------------------

def divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def brute_minimalize(gens: set[tuple[int, ...]]) -> set[tuple[int, ...]]:
    return {
        g
        for g in gens
        if not any(h != g and divides(h, g) for h in gens)
    }


def brute_in_ideal(m: tuple[int, ...], gens: set[tuple[int, ...]]) -> bool:
    return any(divides(g, m) for g in gens)


def lcm_exp(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def brute_intersect(gens1: set[tuple[int, ...]], gens2: set[tuple[int, ...]]) -> set[tuple[int, ...]]:
    return brute_minimalize({lcm_exp(a, b) for a in gens1 for b in gens2})


def brute_power(gens: set[tuple[int, ...]], k: int) -> set[tuple[int, ...]]:
    prods = set()
    for combo in itertools.combinations_with_replacement(sorted(gens), k):
        total = tuple(sum(col) for col in zip(*combo))
        prods.add(total)
    return brute_minimalize(prods)


def brute_symbolic_power_cover(
    n: int, edges: set[tuple[int, int]], k: int
) -> set[tuple[int, ...]]:
    """Iterated lcm-intersection of the edge-prime powers (x_i, x_j)^k."""
    result: set[tuple[int, ...]] | None = None
    for u, v in sorted(edges):
        prime_power = set()
        for a in range(k + 1):
            exps = [0] * n
            exps[u - 1] = a
            exps[v - 1] = k - a
            prime_power.add(tuple(exps))
        result = prime_power if result is None else brute_intersect(result, prime_power)
    assert result is not None
    return result


# ---------------------------------------------------------------------------
# simplicial homology over Q via Fraction Gaussian elimination
# ---------------------------------------------------------------------------

def _rank_fraction(rows: list[list[Fraction]]) -> int:
    if not rows or not rows[0]:
        return 0
    mat = [row[:] for row in rows]
    rank = 0
    cols = len(mat[0])
    for c in range(cols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][c] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][c]
        mat[rank] = [x / inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c] != 0:
                factor = mat[r][c]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def brute_reduced_homology(vertices: list, nonfaces: list[frozenset]) -> dict[int, int]:
    """Reduced homology dims over Q of the complex with the given minimal
    non-faces, degrees -1..dim. The complex {empty face only} has H_{-1} = 1.
    Singleton non-faces simply remove that vertex from every face."""
    index = {v: i for i, v in enumerate(vertices)}
    nf_idx = [frozenset(index[v] for v in nf) for nf in nonfaces]
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for r in range(len(vertices) + 1):
        for sub in itertools.combinations(range(len(vertices)), r):
            if not any(nf <= set(sub) for nf in nf_idx):
                by_dim.setdefault(r - 1, []).append(sub)
    top = max(by_dim) if by_dim else -1
    ranks: dict[int, int] = {}
    for d in range(0, top + 1):
        lower = {f: i for i, f in enumerate(by_dim.get(d - 1, []))}
        rows = []
        for f in by_dim.get(d, []):
            row = [Fraction(0)] * len(lower)
            for i, v in enumerate(f):
                sub = tuple(x for x in f if x != v)
                row[lower[sub]] += Fraction((-1) ** i)
            rows.append(row)
        ranks[d] = _rank_fraction(rows)
    dims: dict[int, int] = {}
    for d in range(-1, top + 1):
        n_d = len(by_dim.get(d, []))
        dims[d] = n_d - ranks.get(d, 0) - ranks.get(d + 1, 0)
    return dims
