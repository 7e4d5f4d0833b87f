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
Its one bound is the candidate count: a greedy-colouring bound (Tomita and
Seki, DMTCS 2003) cost more time than it saved on every input measured.

One branch and bound, `_ordered_search`, yields t, every s-ordered size with
its certificate, and a largest ordered matching with independent b-side
(:func:`ordered_profile`), or t alone, which prunes more
(:func:`ordered_matching_number`). Both conditions are inherited by prefixes,
so a search restricted to either visits the valid nodes of the plain search
in the same order, and its size bound drops only subtrees that cannot
strictly beat a record, so no size or certificate depends on the bound.

Isomorphism classes have one canonical form, :func:`canonical_form`: the
smallest edge bitmask over all relabelings, found by one pruned search. It
dedupes, and it picks each class's representative in
:func:`isomorphism_classes`.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence

from ._bits import iter_bits
from .errors import DEFAULT_ENUM_GUARD, Frozen, InputError, check_guard

# Ordering-compatible sentinel for "no such matching exists".
NEG_INF = float("-inf")

Edge = tuple[int, int]
Pair = tuple[int, int]


class Graph(Frozen):
    """A simple undirected graph on vertices 1..n. `adj[i]` is the neighbour
    bitmask of vertex i + 1 (bit j for vertex j + 1), derived from the edges
    and so left out of equality, hashing and repr."""

    _fields = ("n", "edges")
    n: int
    edges: frozenset[Edge]
    adj: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[Edge]) -> None:
        _init_graph(self, n, map(_pair, edges))

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


def _init_graph(g: Graph, n: int, pairs: Iterable[Edge]) -> None:
    """Set g's fields from n and its edges, given as pairs of ints: an
    InputError unless n >= 1 and every pair is (u, v) with 1 <= u < v <= n.
    The edges become a frozenset, so equality and hashing see only the edge
    set, not whether a tuple or frozenset was passed in."""
    if n < 1:
        raise InputError("graph needs at least one vertex")
    edges = frozenset(pairs)
    adj = [0] * n
    for u, v in edges:
        if not (1 <= u < v <= n):
            raise InputError(f"bad edge {(u, v)!r} for n={n}")
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "edges", edges)
    object.__setattr__(g, "adj", tuple(adj))


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
    """Build a :class:`Graph`, normalizing and validating the edge list;
    each edge goes through `_pair` once, here, not again in `Graph`."""
    normalized = set()
    for e in edges:
        u, v = _pair(e)
        if u == v:
            raise InputError(f"loop at vertex {u} is not allowed")
        normalized.add((u, v) if u < v else (v, u))
    g = Graph.__new__(Graph)
    _init_graph(g, n, normalized)
    return g


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


def induced_matching_number(g: Graph) -> int:
    """Largest number of edges of g forming an induced matching
    (`induced_matching_of_masks` on g's masks)."""
    return induced_matching_of_masks(g.adj)


def induced_matching_of_masks(adj: Sequence[int]) -> int:
    """Largest number of edges forming an induced matching of the graph
    with neighbour masks `adj`: the largest clique of the
    edge-compatibility graph, where f is compatible with e iff f misses e's
    closed neighbourhood. Edges are taken in increasing order of (u, v)."""
    ends = []
    closed = []  # each edge's closed neighbourhood: its ends are each other's neighbours
    for u, row in enumerate(adj):
        above = row >> u + 1 << u + 1
        while above:
            low = above & -above
            above ^= low
            ends.append(1 << u | low)
            closed.append(row | adj[low.bit_length() - 1])
    compat = [0] * len(ends)
    for i, near in enumerate(closed):
        for j in range(i + 1, len(ends)):
            if not ends[j] & near:
                compat[i] |= 1 << j
                compat[j] |= 1 << i
    return _max_clique(compat)


def _max_clique(compat: Sequence[int]) -> int:
    """Size of a largest clique of the graph with neighbour bitmasks
    `compat`, by branch and bound. A node extends its clique by each
    candidate in turn, lowest first, and stops once the clique, that
    candidate and the candidates above it add up to no more than the
    record: neither this branch nor a later one can then beat it."""
    best = 0

    def expand(candidates: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
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


class OrderedProfile(Frozen):
    """One search's records, for s = 1..max(1, n // 2): `sizes[s - 1]` is the
    largest s-ordered size (0 if none) and `certs[s - 1]` the first such
    matching found; `b_independent` is the same for s = 1 and an independent
    b-side."""

    _fields = ("sizes", "certs", "b_independent")
    sizes: tuple[int, ...]
    certs: tuple[list[Pair] | None, ...]
    b_independent: tuple[int, list[Pair] | None]

    def __init__(
        self,
        sizes: tuple[int, ...],
        certs: tuple[list[Pair] | None, ...],
        b_independent: tuple[int, list[Pair] | None],
    ) -> None:
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "certs", certs)
        object.__setattr__(self, "b_independent", b_independent)

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


def _ordered_search(
    g: Graph, top: int, track_b: bool
) -> tuple[list[int], list[list[Pair] | None], tuple[int, list[Pair] | None]]:
    """Depth-first branch and bound over ordered matchings, recorded for
    s = 1..`top` and, if `track_b`, for an independent b-side.

    Appending (a, b) to an ordered prefix keeps it ordered iff a misses every
    used vertex, so each ordered matching is reached in its own order. Nodes
    come in preorder (edges ascending, (u,v) before (v,u)); each carries its
    smallest gap j - i over edges {a_i, b_j} with i < j (it is s-ordered iff
    gap >= s and size >= s) and its b-side mask, -1 once that side is not
    independent. A record is replaced only by a strictly larger size.

    The size bound: each pair below a child of r + 1 pairs takes its a from
    the child's avail set (vertices neither used nor adjacent to a used one)
    and two of its free vertices, so the subtree holds at most reach =
    r + 1 + min(|avail|, free // 2) = min(r + 1 + |avail|, n // 2) pairs. A
    node of size R is recorded for s <= min(gap, R) only, and sizes do not
    increase with s, so R = reach is the best case: the child is entered iff
    reach > sizes[min(gap, reach) - 1] or, with its b-side still independent,
    reach > the b-side record. A pruned subtree cannot beat a record held
    when it is pruned, and records only grow, so every record, certificate
    included, is the one the unpruned walk finds.
    """
    edges = [(u, v, 1 << (u - 1) | 1 << (v - 1)) for u, v in g.sorted_edges()]
    n, adj = g.n, g.adj
    cap = n // 2  # no matching is larger
    sizes, certs = [0] * top, [None] * top
    b_best: tuple[int, list[Pair] | None] = (0, None)

    def extend(pairs: list[Pair], used: int, blocked: int, a_side: int, gap: int,
               b_side: int) -> None:
        # blocked: the used vertices and their neighbours, which no a can be
        nonlocal b_best
        r = len(pairs)
        s = gap if gap < r else r
        while s and sizes[s - 1] < r:  # recorded sizes do not increase with s
            sizes[s - 1], certs[s - 1] = r, list(pairs)
            s -= 1
        if b_side >= 0 and r > b_best[0]:
            b_best = (r, list(pairs))
        base = r + 1 + n  # a child's reach is base less its blocked count
        for u, v, uv in edges:
            if used & uv:
                continue
            for a, b in ((u, v), (v, u)):
                na = adj[a - 1]
                if na & used:
                    continue
                nb, new_gap = adj[b - 1], gap
                # the latest a_i adjacent to b sets the gap, which never falls below 1
                if gap > 1 and nb & a_side:
                    i = r
                    while not nb >> (pairs[i - 1][0] - 1) & 1:
                        i -= 1
                    new_gap = min(gap, r + 1 - i)
                b_next = -1 if b_side < 0 or nb & b_side else b_side | 1 << (b - 1)
                next_blocked = blocked | uv | na | nb
                reach = base - next_blocked.bit_count()
                if reach > cap:
                    reach = cap
                # reach >= 1 here; a reach below 1 beats no record and must
                # not index sizes[-1]
                if (reach < 1 or reach <= sizes[min(new_gap, reach) - 1]) and (
                    b_next < 0 or reach <= b_best[0]
                ):
                    continue
                pairs.append((a, b))
                extend(pairs, used | uv, next_blocked, a_side | 1 << (a - 1), new_gap,
                       b_next)
                pairs.pop()

    extend([], 0, 0, 0, top, 0 if track_b else -1)
    return sizes, certs, b_best


def ordered_profile(g: Graph) -> OrderedProfile:
    """Every s-ordered size for s = 1..max(1, n // 2) with its certificate,
    and a largest ordered matching with independent b-side, from one pruned
    search (`_ordered_search`). No matching has more than n // 2 pairs, so
    no larger s or gap can occur."""
    sizes, certs, b_best = _ordered_search(g, max(1, g.n // 2), True)
    return OrderedProfile(tuple(sizes), tuple(certs), b_best)


def ordered_matching_number(g: Graph) -> tuple[int, list[Pair] | None]:
    """Maximum size of an ordered matching, with one witnessing certificate
    (None when the graph has no edges): `ordered_profile(g).best(1)` from the
    same search recording s = 1 only, so its bound prunes against t alone."""
    sizes, certs, _ = _ordered_search(g, 1, False)
    return sizes[0], certs[0]


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


def is_bipartite(g: Graph) -> bool:
    """Whether g is bipartite: split each component into BFS layers of even
    and odd distance from its smallest vertex, and look for an edge inside
    one side."""
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
    return not any(g.adj[v] & side for side in sides for v in iter_bits(side))


def all_pairs(n: int) -> list[Edge]:
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


def _mask_graph(n: int, pairs: Sequence[Edge], mask: int) -> Graph:
    """The graph on 1..n whose edges are the pairs at the set bits of `mask`
    (bit i for `pairs[i]`, as `all_pairs(n)` orders them)."""
    return Graph(n, frozenset(pairs[i] for i in iter_bits(mask)))


def enumerate_graphs(n: int, *, no_isolated: bool = False) -> Iterator[Graph]:
    """All labeled graphs on 1..n (n within the enumeration guard) in
    edge-bitmask order, optionally only those without isolated vertices."""
    if n < 1:
        raise InputError("n must be >= 1")
    check_guard(n, None, DEFAULT_ENUM_GUARD,
                "enumeration of {cost}-vertex graphs exceeds guard {limit}")
    pairs = all_pairs(n)
    for mask in range(1 << len(pairs)):
        g = _mask_graph(n, pairs, mask)
        if not no_isolated or all(g.adj):
            yield g


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
