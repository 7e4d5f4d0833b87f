"""Finite simple graphs and the matching invariants of the toolkit.

Vertices are the integers 1..n. Edges are unordered pairs stored as sorted
tuples. A graph is immutable and carries its neighbour bitmasks (`adj`),
built once from the edges; every search below runs on those masks.

The matching zoo implemented here:

* independent sets and the independence number alpha(G);
* induced matchings (pairwise disjoint edges spanning no extra edge);
* ordered matchings: a matching (a_1,b_1),...,(a_r,b_r) whose a-side is an
  independent set and in which every edge {a_i, b_j} of G forces i <= j;
* s-ordered matchings: ordered matchings of size >= s in which every edge
  {a_i, b_j} forces i = j or i <= j - s (the value is -inf when no such
  matching exists);
* the largest stable s: the largest s with s-ordered matching number equal
  to the ordered matching number.

alpha(G) and the induced matching number are largest cliques, of the
complement and of the edge-compatibility graph (edges that are disjoint and
span no cross edge), both found by one branch and bound, :func:`_max_clique`.

One search, :func:`ordered_profile`, yields t, every s-ordered size with its
certificate, and a largest ordered matching with independent b-side. This is
exact: both conditions are inherited by prefixes, so a search restricted to
either visits exactly the valid nodes of the plain search, in the same order.

Isomorphism classes have one canonical form, :func:`canonical_form`: the
smallest edge bitmask over all relabelings, found by one pruned search. It
dedupes, and it picks each class's representative in
:func:`isomorphism_classes`.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from ._bits import iter_bits
from .errors import DEFAULT_ENUM_GUARD, InputError, check_guard

# Ordering-compatible sentinel for "no such matching exists".
NEG_INF = float("-inf")

Edge = tuple[int, int]
Pair = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 1..n. `adj[i]` is the neighbour
    bitmask of vertex i + 1 (bit j for vertex j + 1), derived from the edges
    and so left out of equality, hashing and repr."""

    n: int
    edges: frozenset[Edge]
    adj: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError("graph needs at least one vertex")
        # normalize the container so equality and hashing see only the edge
        # set, not whether a tuple or frozenset was passed in
        edges = frozenset(_pair(e) for e in self.edges)
        adj = [0] * self.n
        for u, v in edges:
            if not (1 <= u < v <= self.n):
                raise InputError(f"bad edge {(u, v)!r} for n={self.n}")
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "adj", tuple(adj))

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def degree(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise InputError(f"vertex {v} out of range")
        return self.adj[v - 1].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


def _pair(e) -> Edge:
    """The two endpoints of an edge; InputError unless they are ints."""
    try:
        u, v = e
    except (TypeError, ValueError):
        raise InputError(f"edge {e!r} is not a pair of vertices") from None
    if not (isinstance(u, int) and isinstance(v, int)):
        raise InputError(f"edge {e!r} needs integer endpoints")
    return u, v


def graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Build a :class:`Graph`, normalizing and validating the edge list."""
    normalized = set()
    for e in edges:
        u, v = _pair(e)
        if u == v:
            raise InputError(f"loop at vertex {u} is not allowed")
        normalized.add((min(u, v), max(u, v)))
    return Graph(n, frozenset(normalized))


def isolated_vertices(g: Graph) -> list[int]:
    return [v for v in g.vertices if not g.adj[v - 1]]


def is_independent(g: Graph, vertices: Iterable[int]) -> bool:
    """True when no two of the given vertices are adjacent."""
    mask = 0
    for v in vertices:
        if not 1 <= v <= g.n:
            raise InputError(f"vertex {v} out of range")
        mask |= 1 << (v - 1)
    return not any(g.adj[v] & mask for v in iter_bits(mask))


def independence_number(g: Graph) -> int:
    """alpha(G): the largest clique of the complement."""
    full = (1 << g.n) - 1
    return _max_clique([full & ~(a | 1 << v) for v, a in enumerate(g.adj)])


def _edges_compatible(g: Graph, e: Edge, f: Edge) -> bool:
    """Disjoint and spanning no cross edge: the induced-matching condition,
    i.e. f misses the closed neighbourhood of e."""
    (a, b), (c, d) = e, f
    closed = g.adj[a - 1] | g.adj[b - 1] | 1 << (a - 1) | 1 << (b - 1)
    return not closed & (1 << (c - 1) | 1 << (d - 1))


def induced_matching_number(g: Graph) -> int:
    """Largest number of edges forming an induced matching: the largest
    clique of the edge-compatibility graph."""
    edges = g.sorted_edges()
    m = len(edges)
    compat = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if _edges_compatible(g, edges[i], edges[j]):
                compat[i] |= 1 << j
                compat[j] |= 1 << i
    return _max_clique(compat)


def _max_clique(compat: Sequence[int]) -> int:
    """Size of a largest clique of the graph with neighbour bitmasks
    `compat`, by branch and bound (Tomita and Seki, DMTCS 2003). The bound
    greedily splits the candidates into classes that are independent in
    `compat`; a clique meets each class at most once, so the class count
    bounds what the candidates can add."""
    best = 0

    def color_bound(candidates: int) -> int:
        colors = 0
        remaining = candidates
        while remaining:
            colors += 1
            available = remaining
            while available:
                low = available & -available
                remaining ^= low
                available &= ~(low | compat[low.bit_length() - 1])
        return colors

    def expand(candidates: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if candidates == 0 or size + color_bound(candidates) <= best:
            return
        while candidates:
            v = (candidates & -candidates).bit_length() - 1
            candidates &= ~(1 << v)
            if size + 1 + candidates.bit_count() <= best:
                return
            expand(candidates & compat[v], size + 1)

    expand((1 << len(compat)) - 1, 0)
    return best


def _check_matching_pairs(g: Graph, pairs: Sequence[Pair]) -> None:
    used: set[int] = set()
    for a, b in pairs:
        if not g.has_edge(a, b):
            raise InputError(f"pair ({a},{b}) is not an edge")
        if a in used or b in used or a == b:
            raise InputError("matching pairs must use distinct vertices")
        used.update((a, b))


def is_ordered_matching(g: Graph, pairs: Sequence[Pair]) -> bool:
    """Check the ordered-matching conditions for pairs (a_i, b_i): an
    independent a-side and i <= j for every edge {a_i, b_j} of G, i.e. the
    s-ordered conditions at s = 1. The empty sequence is trivially ordered."""
    return not pairs or is_s_ordered_matching(g, pairs, 1)


def is_s_ordered_matching(g: Graph, pairs: Sequence[Pair], s: int) -> bool:
    """Check the s-ordered conditions: size >= s and edges {a_i, b_j} force
    i = j or i <= j - s."""
    if s < 1:
        raise InputError("s must be >= 1")
    _check_matching_pairs(g, pairs)
    if len(pairs) < s or not is_independent(g, [a for a, _ in pairs]):
        return False
    return not any(
        g.has_edge(a, b) and not (i == j or i <= j - s)
        for i, (a, _) in enumerate(pairs, start=1)
        for j, (_, b) in enumerate(pairs, start=1)
    )


@dataclass(frozen=True)
class OrderedProfile:
    """One search's records, for s = 1..max(1, n // 2): `sizes[s - 1]` is the
    largest s-ordered size (0 if none) and `certs[s - 1]` the first such
    matching found; `b_independent` is the same for s = 1 and an independent
    b-side."""

    sizes: tuple[int, ...]
    certs: tuple[list[Pair] | None, ...]
    b_independent: tuple[int, list[Pair] | None]

    def best(self, s: int) -> tuple[int, list[Pair] | None]:
        """(size, certificate) of a largest s-ordered matching; (0, None) if none."""
        if s > len(self.sizes):
            return 0, None
        return self.sizes[s - 1], self.certs[s - 1]

    def largest_stable_s(self) -> int:
        """Largest s whose s-ordered size is still t; errors on edgeless graphs."""
        if not self.sizes[0]:
            raise InputError("largest stable s needs at least one edge")
        return self.sizes.count(self.sizes[0])  # sizes do not increase with s


def ordered_profile(g: Graph) -> OrderedProfile:
    """Depth-first search over ordered matchings, recorded for every s.

    Appending (a, b) to an ordered prefix keeps it ordered iff a misses every
    used vertex, so each ordered matching is reached in its own order. Nodes
    come in preorder (edges ascending, (u,v) before (v,u)); each carries its
    smallest gap j - i over edges {a_i, b_j} with i < j (it is s-ordered iff
    gap >= s and size >= s) and its b-side mask, -1 once that side is not
    independent. Vertex sets are bitmasks over `g.adj`.
    """
    edges = [(u, v, 1 << (u - 1) | 1 << (v - 1)) for u, v in g.sorted_edges()]
    adj = g.adj
    top = max(1, g.n // 2)  # no matching is larger, so no gap is either
    sizes, certs = [0] * top, [None] * top
    b_best: tuple[int, list[Pair] | None] = (0, None)

    def extend(pairs: list[Pair], used: int, a_side: int, gap: int, b_side: int):
        nonlocal b_best
        r = len(pairs)
        s = gap if gap < r else r
        while s and sizes[s - 1] < r:  # recorded sizes do not increase with s
            sizes[s - 1], certs[s - 1] = r, list(pairs)
            s -= 1
        if b_side >= 0 and r > b_best[0]:
            b_best = (r, list(pairs))
        for u, v, uv in edges:
            if used & uv:
                continue
            for a, b in ((u, v), (v, u)):
                if adj[a - 1] & used:
                    continue
                nb, new_gap = adj[b - 1], gap
                if nb & a_side:  # the latest a_i adjacent to b sets the gap
                    i = r
                    while not nb >> (pairs[i - 1][0] - 1) & 1:
                        i -= 1
                    new_gap = min(gap, r + 1 - i)
                b_next = -1 if b_side < 0 or nb & b_side else b_side | 1 << (b - 1)
                pairs.append((a, b))
                extend(pairs, used | uv, a_side | 1 << (a - 1), new_gap, b_next)
                pairs.pop()

    extend([], 0, 0, top, 0)
    return OrderedProfile(tuple(sizes), tuple(certs), b_best)


def ordered_matching_number(g: Graph) -> tuple[int, list[Pair] | None]:
    """Maximum size of an ordered matching, with one witnessing certificate
    (None when the graph has no edges)."""
    return ordered_profile(g).best(1)


def s_ordered_matching_number(g: Graph, s: int):
    """Maximum size of an s-ordered matching, or -inf when none exists."""
    if s < 1:
        raise InputError("s must be >= 1")
    return ordered_profile(g).best(s)[0] or NEG_INF


def largest_stable_s(g: Graph) -> int:
    """Largest s for which the s-ordered matching number still equals the
    ordered matching number t. Always in 1..t; errors on edgeless graphs."""
    return ordered_profile(g).largest_stable_s()


def whisker(g: Graph, partition: Sequence[Iterable[int]]) -> Graph:
    """Attach one new vertex to each block of a clique vertex-partition.

    Block j (1-based) gets the new vertex n + j, adjacent to every vertex of
    the block. Blocks must partition 1..n and each must induce a clique.
    """
    blocks = [sorted(set(b)) for b in partition]
    flat = [v for b in blocks for v in b]
    if sorted(flat) != list(g.vertices) or any(not b for b in blocks):
        raise InputError("blocks must partition the vertex set")
    for b in blocks:
        for u, v in itertools.combinations(b, 2):
            if not g.has_edge(u, v):
                raise InputError(f"block {b} is not a clique")
    new_edges = set(g.edges)
    for j, b in enumerate(blocks, start=1):
        for v in b:
            new_edges.add((v, g.n + j))
    return Graph(g.n + len(blocks), frozenset(new_edges))


def is_bipartite(g: Graph) -> tuple[bool, dict[int, int] | None]:
    """Two-color by BFS layers; returns (True, coloring) or (False, None).
    A vertex's color is the parity of its distance from the smallest vertex
    of its component; bipartite iff no edge joins equal parities."""
    sides = [0, 0]
    seen = 0
    for start in range(g.n):
        if seen >> start & 1:
            continue
        frontier, parity = 1 << start, 0
        while frontier:
            sides[parity] |= frontier
            seen |= frontier
            grown = 0
            for v in iter_bits(frontier):
                grown |= g.adj[v]
            frontier = grown & ~seen
            parity ^= 1
    if any(g.adj[v] & side for side in sides for v in iter_bits(side)):
        return False, None
    return True, {v + 1: 0 if sides[0] >> v & 1 else 1 for v in range(g.n)}


def all_pairs(n: int) -> list[Edge]:
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


def _mask_graph(n: int, pairs: Sequence[Edge], mask: int) -> Graph:
    """The graph on 1..n whose edges are the pairs at the set bits of `mask`
    (bit i for `pairs[i]`, as `all_pairs(n)` orders them)."""
    return Graph(n, frozenset(pairs[i] for i in iter_bits(mask)))


def enumerate_graphs(
    n: int, *, no_isolated: bool = False, guard: int | None = None
) -> Iterator[Graph]:
    """All labeled graphs on 1..n in edge-bitmask order, optionally only
    those without isolated vertices."""
    if n < 1:
        raise InputError("n must be >= 1")
    check_guard(n, guard, DEFAULT_ENUM_GUARD,
                "enumeration of {cost}-vertex graphs exceeds guard {limit}")
    pairs = all_pairs(n)
    for mask in range(1 << len(pairs)):
        g = _mask_graph(n, pairs, mask)
        if not no_isolated or all(g.adj):
            yield g


def relabel(g: Graph, perm: dict[int, int]) -> Graph:
    """Apply a vertex bijection 1..n -> 1..n."""
    if sorted(perm) != list(g.vertices) or sorted(perm.values()) != list(g.vertices):
        raise InputError("perm must be a bijection on the vertex set")
    return graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _smallest_code(placed: tuple[int, ...], free: int) -> tuple[int, int]:
    """The smallest code among the `free` vertices, and the free vertices
    that have it. A vertex's code is its adjacency to the `placed` vertices
    (their neighbour masks, in placing order), the earliest placed as the
    most significant bit; each placed vertex in turn keeps the candidates
    it misses, if any."""
    code = 0
    for a in placed:
        missed = free & ~a
        code <<= 1
        if missed:
            free = missed
        else:
            code |= 1
    return code, free


def canonical_form(g: Graph) -> tuple[int, int]:
    """(n, m) with m the smallest edge bitmask (bit i for the i-th pair of
    `all_pairs(n)`) over all relabelings of g: the copy `enumerate_graphs`
    meets first. Equal iff isomorphic.

    Labels are placed from n down. Placing label j fixes the bits of pairs
    (j, n), ..., (j, j + 1), the highest not yet fixed, to the placed
    vertex's code (see `_smallest_code`). So a prefix of placements stays
    only while its bits are minimal, and only free vertices of smallest code
    extend it. Of two free twins (N(u) - v = N(v) - u) one is tried: their
    transposition is an automorphism fixing every placed vertex."""
    n, adj = g.n, g.adj
    twins = [
        sum(1 << u for u in range(n) if not (a ^ adj[u]) & ~(1 << u | 1 << v))
        for v, a in enumerate(adj)
    ]
    mask = 0
    # prefixes of equal bits: (placed neighbour masks, free, code, candidates)
    prefixes = [((), (1 << n) - 1, 0, (1 << n) - 1)]
    for j in range(n, 0, -1):
        best = min(code for _, _, code, _ in prefixes)
        mask |= best << (j - 1) * (2 * n - j) // 2  # the index of pair (j, j + 1)
        extended = []
        for placed, free, code, candidates in prefixes:
            if code != best:
                continue
            tried = 0
            for v in iter_bits(candidates):
                if not twins[v] & tried:
                    tried |= 1 << v
                    ext, rest = placed + (adj[v],), free & ~(1 << v)
                    extended.append((ext, rest, *_smallest_code(ext, rest)))
        prefixes = extended
    return n, mask


def isomorphism_classes(max_vertices: int) -> list[Graph]:
    """One graph per isomorphism class on 1..`max_vertices` vertices,
    isolated vertices included: per n, each class's copy with the smallest
    edge bitmask, classes ordered by that mask. These are the graphs, in
    order, that `isomorphism_representatives(enumerate_graphs(n))` yields.

    The classes on n vertices are built by vertex extension (Read 1978;
    McKay 1998): each class on n - 1 vertices gains a vertex n with every
    possible neighbourhood, and the canonical masks are collected and
    sorted. The enumeration guard bounds `max_vertices` before any class is
    built."""
    check_guard(max_vertices, None, DEFAULT_ENUM_GUARD,
                "enumeration of {cost}-vertex graphs exceeds guard {limit}")
    level = [Graph(1, frozenset())] if max_vertices >= 1 else []
    classes = list(level)
    for n in range(2, max_vertices + 1):
        masks = {
            canonical_form(Graph(n, h.edges | {(v + 1, n) for v in iter_bits(nbrs)}))[1]
            for h in level
            for nbrs in range(1 << (n - 1))
        }
        pairs = all_pairs(n)
        level = [_mask_graph(n, pairs, m) for m in sorted(masks)]
        classes.extend(level)
    return classes


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_form(g) == canonical_form(h)


def isomorphism_representatives(graphs: Iterable[Graph]) -> list[Graph]:
    """First representative of each isomorphism class, in input order."""
    seen: set[tuple[int, int]] = set()
    reps: list[Graph] = []
    for g in graphs:
        key = canonical_form(g)
        if key not in seen:
            seen.add(key)
            reps.append(g)
    return reps
