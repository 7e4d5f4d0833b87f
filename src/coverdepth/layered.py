"""The layered graph G_k and the proof-matching certificates.

For a graph g on 1..n and k >= 1, the layered graph has vertex grid
(i, p) for 1 <= i <= n, 1 <= p <= k, and an edge {(i,p), (j,q)} exactly when
{i,j} is an edge of g and p + q <= k + 1. Its cover ideal is, generator for
generator, the polarization of the k-th symbolic power of the cover ideal of
g (acceptance criterion 1 checks that identity, both sides computed from
scratch).

G_k is held as its neighbour bitmasks in grid order, vertex (i, p) at bit
(i - 1) * k + p - 1, built from g's masks in closed form (`build_gk`).

The two explicit matchings built here witness ind-match(G_k) >= t
(t = ordered matching number of g): one exists whenever the largest stable s
is >= 2 and k >= 2t - 2s + 2, the other for ordered matchings whose b-side
is independent (always searched, available on the bipartite instances) and
k >= t.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._bits import iter_bits
from .errors import InputError
from .graphs import Graph, is_bipartite, is_ordered_matching, is_s_ordered_matching

LayeredVertex = tuple[int, int]
LayeredEdge = tuple[LayeredVertex, LayeredVertex]


@dataclass(frozen=True)
class LayeredGraph:
    """The graph G_k on the full (i, p) grid. `adj[v]` is the neighbour
    bitmask of grid vertex v = (i - 1) * k + p - 1, in the same order."""

    base_n: int
    k: int
    adj: tuple[int, ...]

    @property
    def vertices(self) -> list[LayeredVertex]:
        return [(i, p) for i in range(1, self.base_n + 1) for p in range(1, self.k + 1)]

    def _bit(self, v: LayeredVertex) -> int | None:
        """The grid index of label v, or None off the grid."""
        i, p = v
        return (i - 1) * self.k + p - 1 if 1 <= i <= self.base_n and 1 <= p <= self.k else None

    def has_edge(self, a: LayeredVertex, b: LayeredVertex) -> bool:
        u, v = self._bit(a), self._bit(b)
        return u is not None and v is not None and bool(self.adj[u] >> v & 1)

    def _index_edges(self) -> list[tuple[int, int]]:
        """The edges as grid-index pairs u < v, in increasing order."""
        return [(u, v) for u, m in enumerate(self.adj)
                for v in iter_bits(m >> u + 1 << u + 1)]

    def sorted_edges(self) -> list[LayeredEdge]:
        grid = self.vertices
        return [(grid[u], grid[v]) for u, v in self._index_edges()]


def build_gk(g: Graph, k: int) -> LayeredGraph:
    """Construct the layered graph of g at level k. The neighbours of (i, p)
    are layers 1..k+1-p of each column j adjacent to i: one run of k + 1 - p
    bits at (j - 1) * k, so a column's bit pattern times 2^(k+1-p) - 1."""
    if k < 1:
        raise InputError("layered graph needs k >= 1")
    spread = [sum(1 << j * k for j in iter_bits(m)) for m in g.adj]
    return LayeredGraph(g.n, k, tuple(
        s * ((1 << k + 1 - p) - 1) for s in spread for p in range(1, k + 1)))


def as_plain_graph(gk: LayeredGraph) -> tuple[Graph, tuple[LayeredVertex, ...]]:
    """G_k as a plain graph on 1..n*k in grid order; returns the graph and
    the label tuple with labels[v-1] = (i, p)."""
    plain = Graph(len(gk.adj), frozenset((u + 1, v + 1) for u, v in gk._index_edges()))
    return plain, tuple(gk.vertices)


def is_induced_matching_layered(gk: LayeredGraph, pairs) -> bool:
    """Check that the given layered vertex pairs form an induced matching of
    G_k: pairwise disjoint edges, so each covers two new vertices, and each
    covered vertex has exactly one covered neighbour, its partner.

    Every pair must be an edge of G_k; anything else, a label off the grid
    included, raises InputError.
    """
    covered = 0
    for a, b in pairs:
        if not gk.has_edge(a, b):
            raise InputError(f"pair {(a, b)} is not an edge of the layered graph")
        covered |= 1 << gk._bit(a) | 1 << gk._bit(b)
    return covered.bit_count() == 2 * len(pairs) and all(
        (gk.adj[v] & covered).bit_count() == 1 for v in iter_bits(covered))


def proof_matching_main(g: Graph, cert, s: int, k: int) -> list[LayeredEdge]:
    """The explicit matching of G_k of size t for the stable case s >= 2,
    defined from an s-ordered matching cert = [(a_1,b_1),...,(a_t,b_t)] by

        {(a_i, t+2-s-i), (b_i, k+s+i-t-1)}   for 1 <= i <= t-s,
        {(a_i, 1),       (b_i, k)}           for t-s <  i <= t.

    Requires s >= 2, a valid s-ordered certificate, and k >= 2t - 2s + 2;
    under those hypotheses the result is an induced matching of G_k. The
    certificate need not be of maximum size: the witness ind-match(G_k) >=
    ord-match(g) needs a maximum one, which the caller checks by size.
    """
    if s < 2:
        raise InputError("explicit matching needs s >= 2")
    t = len(cert)
    if not is_s_ordered_matching(g, cert, s):
        raise InputError("cert must be an s-ordered matching")
    if k < 2 * t - 2 * s + 2:
        raise InputError(f"needs k >= {2 * t - 2 * s + 2}, got {k}")
    pairs: list[LayeredEdge] = []
    for i in range(1, t + 1):
        a, b = cert[i - 1]
        if i <= t - s:
            pairs.append(((a, t + 2 - s - i), (b, k + s + i - t - 1)))
        else:
            pairs.append(((a, 1), (b, k)))
    return pairs


def proof_matching_bipartite(g: Graph, cert, k: int) -> list[LayeredEdge]:
    """The explicit matching of G_k built from an ordered matching
    cert = [(a_1,b_1),...,(a_t,b_t)]:

        {(a_i, t+1-i), (b_i, k+i-t)}   for 1 <= i <= t.

    Requires g bipartite and k >= t. The result is guaranteed to be an
    induced matching of G_k when the certificate's b-side is independent
    (see :attr:`~coverdepth.graphs.OrderedProfile.b_independent`); the
    substitution itself is performed for any valid ordered certificate, of
    maximum size or not.
    """
    if not is_bipartite(g):
        raise InputError("graph must be bipartite")
    t = len(cert)
    if not is_ordered_matching(g, cert):
        raise InputError("cert must be an ordered matching")
    if k < t:
        raise InputError(f"needs k >= t = {t}, got {k}")
    return [((a, t + 1 - i), (b, k + i - t)) for i, (a, b) in enumerate(cert, 1)]
