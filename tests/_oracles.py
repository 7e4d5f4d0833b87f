"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive and shares no code with the package:
subsets via itertools, membership-by-divisibility, homology by Fraction
Gaussian elimination. Slow is fine; these run on tiny inputs only.

Three reference paths are kept from earlier versions of the package, to
check the faster code that replaced them: `tuple_taylor_betti` (the Taylor
oracle on exponent tuples, which uses the package's `rank` and
`BettiTable`), `unfiltered_reg_sweep` (the regularity sweep before its link
filter, which reads the package's `_ind_dims`) and the polarization
identity (`layered_cover_ideal`, `check_polarization_identity`), which
builds both sides from the package's ideal operations. One more,
`face_walk_induced_matching`, reads the induced matching number off the
package's face walk, for graphs too large for `brute_induced_matching`.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction

from coverdepth import homology
from coverdepth._linalg import rank
from coverdepth.errors import (
    DEFAULT_TAYLOR_GUARD,
    ConsistencyError,
    InputError,
    check_guard,
)
from coverdepth.graphs import Graph
from coverdepth.homology import RATIONALS, BettiTable, FieldChoice
from coverdepth.ideals import (
    MonomialIdeal,
    alexander_dual,
    layered_ring,
    polarize,
    symbolic_power_cover,
)
from coverdepth.layered import LayeredGraph, build_gk


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


def face_walk_induced_matching(g: Graph) -> int:
    """Induced matching number of g: one more than the top dimension of the
    complex on E(g) whose faces are the induced matchings, walked by
    `homology._faces_by_dim` with every incompatible pair of edges (sharing
    an end, or joined by an edge of g) as a non-face. It shares no code with
    the clique search of `graphs.induced_matching_number`."""
    edges = g.sorted_edges()
    non_faces = [
        1 << i | 1 << j
        for (i, e), (j, f) in itertools.combinations(enumerate(edges), 2)
        if set(e) & set(f) or any(g.has_edge(u, v) for u in e for v in f)
    ]
    return max(homology._faces_by_dim((1 << len(edges)) - 1, non_faces)) + 1


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


# ---------------------------------------------------------------------------
# reference paths kept from earlier versions of the package
# ---------------------------------------------------------------------------

def tuple_taylor_betti(
    ideal: MonomialIdeal,
    f: FieldChoice = RATIONALS,
    guard: int | None = None,
) -> BettiTable:
    """The Taylor-resolution Betti oracle on exponent tuples, as
    `homology.taylor_betti_oracle` was before it moved to packed ints: each
    subset's lcm is an exponent tuple built by `max` over `zip`, strands are
    keyed by tuples, and boundary faces come from slicing subset tuples.
    Verbatim but for two inlined one-liners it called: `sum` for
    `ideals.total_degree` and the `BettiTable` built by
    `homology._betti_from_counts`."""
    if ideal.is_unit:
        raise InputError("the unit ideal is not a quotient ring input")
    gens = ideal.sorted_gens()
    check_guard(len(gens), guard, DEFAULT_TAYLOR_GUARD,
                "{cost} generators exceed the guard {limit}")
    strands: dict[tuple, dict[int, list[tuple[int, ...]]]] = defaultdict(
        lambda: defaultdict(list)
    )
    # Depth-first over subsets in prefix order: each size's subsets come in
    # the lexicographic order of itertools.combinations, and a subset's LCM
    # is its parent's (the subset without its last index) joined with the
    # last generator. The stack is explicit because a recursive closure's
    # reference cycle would keep `strands` alive until the next collection;
    # each LCM is built from a list because a tuple grown from an iterator
    # is resized, and freed resized tuples pile up on the tuple free list.
    stack = [((), tuple([0] * ideal.ring.num_vars))]
    while stack:
        subset, lcm = stack.pop()
        strands[lcm][len(subset)].append(subset)
        for idx in reversed(range(subset[-1] + 1 if subset else 0, len(gens))):
            lcm_up = tuple([max(a, b) for a, b in zip(lcm, gens[idx])])
            stack.append((subset + (idx,), lcm_up))

    counts: dict[tuple[int, int], int] = defaultdict(int)
    for degree, by_size in sorted(strands.items()):
        j = sum(degree)
        index = {
            size: {s: i for i, s in enumerate(subsets)}
            for size, subsets in by_size.items()
        }
        ranks: dict[int, int] = {}
        for size, subsets in sorted(by_size.items()):
            lower = index.get(size - 1, {})
            rows = []
            for subset in subsets:
                row = [0] * len(lower)
                for i in range(len(subset)):
                    sub = subset[:i] + subset[i + 1 :]
                    if sub in lower:  # same multidegree survives the tensor
                        row[lower[sub]] = (-1) ** i
                rows.append(row)
            ranks[size] = rank(rows, f.char) if rows and lower else 0
        for size, subsets in by_size.items():
            h = len(subsets) - ranks.get(size, 0) - ranks.get(size + 1, 0)
            if h:
                counts[(size, j)] += h
    entries = tuple(sorted((i, j, b) for (i, j), b in counts.items() if b))
    return BettiTable(ideal.ring.num_vars, entries)


def unfiltered_reg_sweep(adj: tuple[int, ...], char: int) -> int:
    """`homology._reg_sweep` as it was before the link-deletion filter:
    the fold-free walk pruned by the quadric size bound alone. Verbatim but
    for reading `_ind_dims` through the `homology` module, so a test that
    wraps the kernel counts this sweep's evaluations too."""
    n = len(adj)
    up = [sum(1 << u for u in range(v + 1, n)
              if not adj[v] & ~adj[u] or not adj[u] & ~adj[v]) for v in range(n)]
    best = 0
    stack = [(0, (1 << n) - 1)]
    while stack:
        face, candidates = stack.pop()
        size = face.bit_count()
        if (size + candidates.bit_count()) // 2 <= best:
            continue
        if size // 2 > best:
            for d in homology._ind_dims(adj, face, char):
                if 2 * d + 2 > size:
                    raise ConsistencyError(
                        f"homology of degree {d} on {size} vertices breaks the "
                        f"quadric bound |W| >= 2d + 2"
                    )
                best = max(best, d + 1)
        above = 0  # candidates above the current one
        while candidates:  # highest first, so the lowest is walked next
            v = candidates.bit_length() - 1
            bit = 1 << v
            candidates ^= bit
            stack.append((face | bit, above & ~up[v]))
            above |= bit
    return best + 1


def layered_cover_ideal(gk: LayeredGraph) -> MonomialIdeal:
    """Cover ideal of G_k in the layered ring on the full grid: the
    Alexander dual of its edge ideal, whose generators are the minimal
    vertex covers."""
    if not gk.edges:
        raise InputError("cover ideal needs at least one edge")
    ring = layered_ring(gk.vertices)
    gens = []
    for a, b in gk.edges:
        exps = [0] * ring.num_vars
        exps[ring.index(a)] = exps[ring.index(b)] = 1
        gens.append(tuple(exps))
    return alexander_dual(MonomialIdeal(ring, frozenset(gens)))


def label_sets(ideal: MonomialIdeal) -> set[frozenset]:
    """Each generator as the set of its (variable label, exponent) pairs
    with a positive exponent, so ideals over different rings compare by
    the variables their generators use."""
    return {
        frozenset((lab, e) for lab, e in zip(ideal.ring.labels, g) if e > 0)
        for g in ideal.gens
    }


def check_polarization_identity(g: Graph, k: int) -> bool:
    """Exact generator-set equality of polarize(J(g)^(k)) and the cover
    ideal of G_k, both computed from first principles and compared by
    `label_sets`: the grid ring of G_k also holds the layers of isolated
    vertices, which no generator of the polarization uses. Expected True
    for every graph with an edge; False localizes a bug."""
    lhs = polarize(symbolic_power_cover(g, k))
    rhs = layered_cover_ideal(build_gk(g, k))
    return label_sets(lhs) == label_sets(rhs)
