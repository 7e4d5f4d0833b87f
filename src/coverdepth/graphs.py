"""Finite simple graphs and the matching invariants of the toolkit.

Vertices are the integers 1..n. Edges are unordered pairs stored as sorted
tuples. Everything is immutable and hashable so results can be memoized.

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
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache

from .errors import DEFAULT_ENUM_GUARD, ConsistencyError, GuardError, InputError

# Ordering-compatible sentinel for "no such matching exists".
NEG_INF = float("-inf")

Edge = tuple[int, int]
Pair = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 1..n."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError("graph needs at least one vertex")
        # normalize the container so equality and hashing see only the edge
        # set, not whether a tuple or frozenset was passed in
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        for e in self.edges:
            u, v = e
            if not (1 <= u < v <= self.n):
                raise InputError(f"bad edge {e!r} for n={self.n}")

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def degree(self, v: int) -> int:
        return len(adjacency(self)[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


def graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Build a :class:`Graph`, normalizing and validating the edge list."""
    normalized = set()
    for e in edges:
        u, v = e
        if u == v:
            raise InputError(f"loop at vertex {u} is not allowed")
        normalized.add((min(u, v), max(u, v)))
    return Graph(n, frozenset(normalized))


@lru_cache(maxsize=None)
def adjacency(g: Graph) -> dict[int, frozenset[int]]:
    """Neighbor sets, keyed by vertex."""
    nbrs: dict[int, set[int]] = {v: set() for v in g.vertices}
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return {v: frozenset(s) for v, s in nbrs.items()}


@lru_cache(maxsize=None)
def adjacency_masks(g: Graph) -> tuple[int, ...]:
    """Neighbor bitmasks; bit i stands for vertex i+1. Index 0 is vertex 1."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u - 1] |= 1 << (v - 1)
        masks[v - 1] |= 1 << (u - 1)
    return tuple(masks)


def isolated_vertices(g: Graph) -> list[int]:
    adj = adjacency(g)
    return [v for v in g.vertices if not adj[v]]


def is_independent(g: Graph, vertices: Iterable[int]) -> bool:
    """True when no two of the given vertices are adjacent."""
    vs = list(vertices)
    for v in vs:
        if not 1 <= v <= g.n:
            raise InputError(f"vertex {v} out of range")
    return not any(g.has_edge(u, v) for u, v in itertools.combinations(vs, 2))


def independence_number(g: Graph) -> int:
    """alpha(G), by branch and bound over neighbor bitmasks."""
    masks = adjacency_masks(g)
    best = 0

    def extend(candidates: int, size: int) -> None:
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if candidates == 0:
            best = max(best, size)
            return
        v = (candidates & -candidates).bit_length() - 1
        # branch: take v, or skip v
        extend(candidates & ~(masks[v] | (1 << v)), size + 1)
        extend(candidates & ~(1 << v), size)

    extend((1 << g.n) - 1, 0)
    return best


def _edges_compatible(g: Graph, e: Edge, f: Edge) -> bool:
    """Disjoint and spanning no cross edge: the induced-matching condition."""
    if set(e) & set(f):
        return False
    return not any(g.has_edge(u, v) for u in e for v in f)


def induced_matching_number(g: Graph) -> int:
    """Largest number of edges forming an induced matching.

    Equivalent to a maximum clique in the edge-compatibility graph; solved
    by branch and bound with a greedy-coloring upper bound.
    """
    edges = g.sorted_edges()
    m = len(edges)
    if m == 0:
        return 0
    compat = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if _edges_compatible(g, edges[i], edges[j]):
                compat[i] |= 1 << j
                compat[j] |= 1 << i

    best = 0

    def color_bound(candidates: int) -> int:
        # greedy clique-cover style bound: number of color classes needed
        colors = 0
        remaining = candidates
        while remaining:
            colors += 1
            available = remaining
            while available:
                v = (available & -available).bit_length() - 1
                available &= ~(1 << v)
                remaining &= ~(1 << v)
                available &= compat[v]
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

    expand((1 << m) - 1, 0)
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
    """Check the ordered-matching conditions for pairs (a_i, b_i).

    The a-side must be independent and every edge {a_i, b_j} of G must have
    i <= j. The empty sequence is trivially ordered.
    """
    _check_matching_pairs(g, pairs)
    a_side = [a for a, _ in pairs]
    if not is_independent(g, a_side):
        return False
    for i, (a, _) in enumerate(pairs):
        for j, (_, b) in enumerate(pairs):
            if g.has_edge(a, b) and i > j:
                return False
    return True


def is_s_ordered_matching(g: Graph, pairs: Sequence[Pair], s: int) -> bool:
    """Check the s-ordered conditions: size >= s and edges {a_i, b_j} force
    i = j or i <= j - s."""
    if s < 1:
        raise InputError("s must be >= 1")
    _check_matching_pairs(g, pairs)
    if len(pairs) < s:
        return False
    a_side = [a for a, _ in pairs]
    if not is_independent(g, a_side):
        return False
    for i, (a, _) in enumerate(pairs, start=1):
        for j, (_, b) in enumerate(pairs, start=1):
            if g.has_edge(a, b) and not (i == j or i <= j - s):
                return False
    return True


def _search_ordered(
    g: Graph, s: int, b_side_independent: bool = False
) -> tuple[int, list[Pair] | None]:
    """Depth-first search for a maximum s-ordered matching (s=1: ordered).

    Appending pair r+1 = (a, b) to a valid prefix of length r stays valid
    iff a is non-adjacent to every used vertex and b is non-adjacent to a_i
    for all i >= r + 2 - s; both follow from the index conditions, so every
    target matching is reachable in its own order and the search is exact.
    Deterministic: edges ascending, orientation (u,v) before (v,u).
    """
    edges = g.sorted_edges()
    adj = adjacency(g)
    best_size = 0
    best_cert: list[Pair] | None = None

    def extend(pairs: list[Pair], used: set[int]) -> None:
        nonlocal best_size, best_cert
        if len(pairs) > best_size:
            best_size = len(pairs)
            best_cert = list(pairs)
        r = len(pairs)
        for u, v in edges:
            if u in used or v in used:
                continue
            for a, b in ((u, v), (v, u)):
                if any(x in adj[a] for x in used):
                    continue
                lo = max(1, r + 2 - s)
                if any(pairs[i - 1][0] in adj[b] for i in range(lo, r + 1)):
                    continue
                if b_side_independent and any(
                    pb in adj[b] for _, pb in pairs
                ):
                    continue
                pairs.append((a, b))
                used.update((a, b))
                extend(pairs, used)
                used.difference_update((a, b))
                pairs.pop()

    extend([], set())
    return best_size, best_cert


def ordered_matching_number(g: Graph) -> tuple[int, list[Pair] | None]:
    """Maximum size of an ordered matching, with one witnessing certificate
    (None when the graph has no edges)."""
    size, cert = _search_ordered(g, s=1)
    return size, cert


def s_ordered_matching_number(g: Graph, s: int):
    """Maximum size of an s-ordered matching, or -inf when none exists."""
    if s < 1:
        raise InputError("s must be >= 1")
    size, _ = _search_ordered(g, s=s)
    return size if size >= s else NEG_INF


def largest_stable_s(g: Graph) -> int:
    """Largest s for which the s-ordered matching number still equals the
    ordered matching number t. Always in 1..t; errors on edgeless graphs."""
    t, _ = ordered_matching_number(g)
    if t == 0:
        raise InputError("largest stable s needs at least one edge")
    for s in range(t, 0, -1):
        if s_ordered_matching_number(g, s) == t:
            return s
    raise ConsistencyError("s=1 must reproduce the ordered matching number")


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
    """Two-color by BFS; returns (True, coloring) or (False, None)."""
    adj = adjacency(g)
    color: dict[int, int] = {}
    for start in g.vertices:
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop(0)
            for w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return False, None
    return True, color


def _is_connected(n: int, edges: frozenset[Edge]) -> bool:
    if n == 1:
        return True
    nbrs: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for w in nbrs[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def all_pairs(n: int) -> list[Edge]:
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


def enumerate_graphs(
    n: int,
    *,
    connected: bool = False,
    no_isolated: bool = False,
    guard: int = DEFAULT_ENUM_GUARD,
) -> Iterator[Graph]:
    """All labeled graphs on 1..n in edge-bitmask order, with filters."""
    if n < 1:
        raise InputError("n must be >= 1")
    if n > guard:
        raise GuardError(f"enumeration of {n}-vertex graphs exceeds guard {guard}")
    pairs = all_pairs(n)
    for mask in range(1 << len(pairs)):
        edges = frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        if no_isolated:
            touched = {v for e in edges for v in e}
            if len(touched) != n:
                continue
        if connected and not _is_connected(n, edges):
            continue
        yield Graph(n, edges)


def relabel(g: Graph, perm: dict[int, int]) -> Graph:
    """Apply a vertex bijection 1..n -> 1..n."""
    if sorted(perm) != list(g.vertices) or sorted(perm.values()) != list(g.vertices):
        raise InputError("perm must be a bijection on the vertex set")
    return graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _refinement_classes(g: Graph) -> list[list[int]]:
    """Iterated neighbor-color refinement; classes ordered canonically."""
    adj = adjacency(g)
    colors = {v: g.degree(v) for v in g.vertices}
    while True:
        sigs = {
            v: (colors[v], tuple(sorted(colors[u] for u in adj[v])))
            for v in g.vertices
        }
        order = {sig: i for i, sig in enumerate(sorted(set(sigs.values())))}
        new = {v: order[sigs[v]] for v in g.vertices}
        same_partition = all(
            (colors[u] == colors[v]) == (new[u] == new[v])
            for u, v in itertools.combinations(g.vertices, 2)
        )
        colors = new
        if same_partition:
            break
    classes: dict[int, list[int]] = {}
    for v in sorted(g.vertices):
        classes.setdefault(colors[v], []).append(v)
    return [classes[c] for c in sorted(classes)]


def canonical_form(g: Graph) -> tuple[int, tuple[Edge, ...]]:
    """A canonical labeled copy: minimal edge list over all relabelings that
    respect the refinement classes (equal iff isomorphic). It serves corpus
    dedupe only (`isomorphism_representatives`, `are_isomorphic`); the
    homology memo keys on exact relabelled adjacency instead."""
    classes = _refinement_classes(g)
    offsets = []
    pos = 1
    for cls in classes:
        offsets.append(pos)
        pos += len(cls)
    best: tuple[Edge, ...] | None = None
    for perms in itertools.product(*(itertools.permutations(c) for c in classes)):
        mapping: dict[int, int] = {}
        for cls_perm, off in zip(perms, offsets):
            for i, v in enumerate(cls_perm):
                mapping[v] = off + i
        candidate = tuple(
            sorted(
                (min(mapping[u], mapping[v]), max(mapping[u], mapping[v]))
                for u, v in g.edges
            )
        )
        if best is None or candidate < best:
            best = candidate
    assert best is not None
    return g.n, best


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_form(g) == canonical_form(h)


def isomorphism_representatives(graphs: Iterable[Graph]) -> list[Graph]:
    """First representative of each isomorphism class, in input order."""
    seen: set[tuple[int, tuple[Edge, ...]]] = set()
    reps: list[Graph] = []
    for g in graphs:
        key = canonical_form(g)
        if key not in seen:
            seen.add(key)
            reps.append(g)
    return reps
