"""Exact homological invariants of monomial quotients.

The pipeline: reduced homology is computed by exact ranks of boundary
matrices, graded Betti numbers of the quotient come from summing
restricted-complex homology over vertex subsets, and pd / reg / depth are
read off the Betti table (depth through the projective-dimension complement
in the original variable count). Every face list, the independent sets of
a graph included, comes from one bitmask walk, `_faces_by_dim`; only the
edge-ideal regularity sweep walks its subsets itself, because it prunes them
by size and by the link of their top vertex (`_reg_sweep`).

Two independent cross-checks keep the main engine honest. The Taylor
oracle (`taylor_betti_oracle`) minimalizes the generator-subset resolution
strand by strand for any monomial ideal. It packs each monomial into one int
with a unary field per variable, so lcm is bitwise OR and the total degree
is the bit count, and it shares only `rank` with the Hochster engine: no
face walk, fold, memo, polarization or duality. The dual-route depth
computation for symbolic powers of cover ideals must agree with itself
(`depth_symbolic_cover`); its routes share no fold, join or memo, so a
fault in one raises ConsistencyError.

Performance notes, all homology-preserving and therefore invisible in the
results:

* independence complexes are folded first: by Engstrom's fold lemma (Eur.
  J. Combin. 29 (2008)), a vertex u with N(v) <= N(u) for some v != u can
  be deleted; such u are the common neighbours of N(v) other than v;
* edge-ideal regularity sweeps only fold-free vertex subsets, those with
  no pair u != v and N(v) <= N(u): the fold deletes u from any subset
  holding both without changing its homology, so no degree is lost;
* that sweep also stops at the quadric size bound: in the Taylor resolution
  of a quadric ideal beta_{i,j} != 0 needs j <= 2i, so by Hochster's
  formula H~_d(Ind(G[W])) != 0 needs |W| >= 2d + 2, and a subset or a
  branch of subsets too small to raise the best degree so far is never
  evaluated. The sweep checks every degree it reads against the bound and
  raises ConsistencyError on a breach, so the pruning cannot hide a kernel
  fault that breaks the bound;
* it evaluates a subset only if the link of its top vertex v can carry a
  new degree: by Mayer-Vietoris on deleting v, a degree d that the subset
  without v lacks needs degree d - 1 in Ind(G[W \\ N[v]]), so
  |W \\ N[v]| >= 2d. That subset without v is the walk's parent node, which
  cannot beat the best degree so far, so a subset leaving fewer than twice
  the best outside N[v] is skipped. Every degree read that could raise the
  best is checked against this link bound too, with ConsistencyError on a
  breach;
* route A of the depth check (`_pd_symbolic_cover`) stops at the same
  bound: each upper Koszul complex K^b is the independence complex of a
  graph on its live vertices, so a point b can raise pd to d + 2 only if
  |live| >= 2d + 2, and a branch whose live vertices, decided and still
  open, cannot reach that is dropped. Every degree read from a K^b, memo
  hit or not, is checked against the bound, with ConsistencyError on a
  breach;
* disjoint graph components are combined by the join rule for reduced
  homology over a field;
* component homology is memoized per field under the component's adjacency
  bitmasks, relabelled 0..m-1 in increasing vertex order; the key is exact,
  so equal keys are equal labelled graphs;
* `betti_table_squarefree` evaluates Hochster's subset sum by one of three
  branches, tried in this order: a quadric Alexander dual (cover ideals)
  turns it, by duality, into a sweep over the independent sets of the dual
  graph; a quadric ideal (edge ideals) makes each restricted complex the
  independence complex of an induced subgraph (Hochster's formula for edge
  ideals); only the remaining ideals enumerate faces and build boundary
  matrices, skipping subsets whose restricted complex is a cone. The first
  two branches go through the fold, join and memo above.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass

from ._bits import iter_bits
from ._linalg import rank
from .errors import (
    DEFAULT_HOCHSTER_GUARD,
    DEFAULT_TAYLOR_GUARD,
    ConsistencyError,
    InputError,
    check_guard,
)
from .graphs import Graph
from .ideals import (
    MonomialIdeal,
    alexander_dual,
    is_squarefree,
    support,
)
from .layered import LayeredGraph, as_plain_graph, build_gk


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldChoice:
    """Coefficient field for all homology: characteristic 0 is the rationals,
    a prime characteristic p is the p-element field."""

    char: int

    def __post_init__(self) -> None:
        if self.char != 0 and not _is_prime(self.char):
            raise InputError(f"field characteristic must be 0 or prime, got {self.char}")

    @property
    def label(self) -> str:
        return "q" if self.char == 0 else f"f{self.char}"


RATIONALS = FieldChoice(0)
F2 = FieldChoice(2)


# ---------------------------------------------------------------------------
# reduced homology by exact ranks
# ---------------------------------------------------------------------------

def _faces_by_dim(vertices: int, non_faces) -> dict[int, list[int]]:
    """All faces, as bitmasks grouped by dimension, of the complex on the
    vertex mask `vertices` whose minimal non-faces are the masks `non_faces`;
    the empty face sits in dimension -1. One depth-first walk adds vertices
    in increasing order, so only a vertex joining as a face's highest can
    complete a non-face: a singleton non-face removes its vertex, a
    2-element one drops its upper vertex from the lower one's candidates,
    and a larger one is tested when its highest vertex would join."""
    up = [0] * vertices.bit_length()  # vertex -> upper ends of its 2-non-faces
    larger: dict[int, list[int]] = {}  # top vertex bit -> larger non-faces
    for nf in non_faces:
        top = 1 << (nf.bit_length() - 1)
        if nf == top:
            vertices &= ~top
        elif nf.bit_count() == 2:
            up[(nf ^ top).bit_length() - 1] |= top
        else:
            larger.setdefault(top, []).append(nf)
    tops = sum(larger)
    faces: dict[int, list[int]] = {}
    stack = [(0, vertices)]
    while stack:
        face, candidates = stack.pop()
        faces.setdefault(face.bit_count() - 1, []).append(face)
        above = 0  # candidates above the current one
        while candidates:  # highest first, so the lowest is walked next
            v = candidates.bit_length() - 1
            bit = 1 << v
            candidates ^= bit
            grown = face | bit
            if not (bit & tops and any(nf & grown == nf for nf in larger[bit])):
                stack.append((grown, above & ~up[v]))
            above |= bit
    return faces


def _dims_from_faces(faces: dict[int, list[int]], char: int) -> dict[int, int]:
    """Reduced homology dimensions from face masks by dimension: for each
    degree d, dim = #faces - rank(boundary_d) - rank(boundary_{d+1}). The
    i-th lowest vertex of a face carries the sign (-1)^i; ranks, and so the
    dims, do not depend on the order of the faces."""
    top = max(faces)
    ranks: dict[int, int] = {}
    for d in range(0, top + 1):
        lower = {f: i for i, f in enumerate(faces[d - 1])}
        rows = []
        for face in faces[d]:
            row = [0] * len(lower)
            sign, rest = 1, face
            while rest:
                low = rest & -rest
                row[lower[face ^ low]] = sign
                sign, rest = -sign, rest ^ low
            rows.append(row)
        ranks[d] = rank(rows, char)
    return {d: len(faces[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0)
            for d in range(-1, top + 1)}


def _adjacency(edges: list[int], m: int) -> tuple[int, ...]:
    """Neighbour bitmasks on m vertices of the graph whose edges are the
    distinct 2-bit masks `edges` (so each sum below is a union)."""
    return tuple(sum(e ^ 1 << v for e in edges if e >> v & 1) for v in range(m))


# memo for component homology: (char, relabelled adjacency) -> sparse dims
_COMPONENT_DIMS: dict[tuple, dict[int, int]] = {}


def _component_dims(adj: tuple[int, ...], comp_mask: int, char: int) -> dict[int, int]:
    """Sparse reduced-homology dims of the independence complex of one
    connected induced subgraph, memoized per field under the subgraph's
    adjacency bitmasks relabelled 0..m-1 in increasing vertex order. The key
    determines the labelled graph, so a hit is always the same complex."""
    pos: dict[int, int] = {}  # vertex bit -> its bit in the relabelled graph
    m = comp_mask
    while m:
        low = m & -m
        pos[low] = 1 << len(pos)
        m ^= low
    local = []
    for low in pos:
        nv = adj[low.bit_length() - 1] & comp_mask
        row = 0
        while nv:
            w = nv & -nv
            row |= pos[w]
            nv ^= w
        local.append(row)
    key = (char, tuple(local))
    cached = _COMPONENT_DIMS.get(key)
    if cached is None:
        edges = [1 << v | 1 << u for v, row in enumerate(local)
                 for u in iter_bits(row) if u > v]
        dense = _dims_from_faces(_faces_by_dim((1 << len(local)) - 1, edges), char)
        cached = {d: c for d, c in dense.items() if c}
        _COMPONENT_DIMS[key] = cached
    return cached


def _join_dims(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Reduced homology of a join of complexes over a field:
    dim_d = sum over p+q = d-1 of dim_p(X) * dim_q(Y)."""
    out: dict[int, int] = defaultdict(int)
    for p, cp in a.items():
        for q, cq in b.items():
            out[p + q + 1] += cp * cq
    return dict(out)


def _ind_dims(adj: tuple[int, ...], mask: int, char: int) -> dict[int, int]:
    """Sparse reduced-homology dims, read-only (maybe a memo entry), of the
    independence complex of the induced subgraph on `mask`: {} if it
    vanishes (an isolated vertex makes a cone), {-1: 1} if `mask` is empty.
    Each pass folds away the lowest u that is a common neighbour of some
    N(v), v != u, so N(v) <= N(u), at one AND per edge end; the rest joins
    over its connected components, the first taken as it is. No benchmark
    workload needs the join, but disconnected inputs do: with it,
    `reg_edge_ideal` on 9K2 walks only two-vertex complexes; without it,
    7K2 takes seconds."""
    while True:
        nbrs: dict[int, int] = {}  # vertex bit -> its neighbours in mask
        m = mask
        while m:
            low = m & -m
            nv = adj[low.bit_length() - 1] & mask
            if not nv:
                return {}
            nbrs[low] = nv
            m ^= low
        dominated = 0
        for low, nv in nbrs.items():
            common = mask
            while nv:
                w = nv & -nv
                common &= adj[w.bit_length() - 1]
                nv ^= w
            dominated |= common & ~low
        if not dominated:
            break
        mask &= ~(dominated & -dominated)
    total = {-1: 1}
    remaining = mask
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier:
            low = frontier & -frontier
            grown = nbrs[low] & ~comp
            comp |= grown
            frontier ^= low | grown
        remaining &= ~comp
        dims = _component_dims(adj, comp, char)
        if not dims:
            return {}
        total = dims if total == {-1: 1} else _join_dims(total, dims)
    return total


# ---------------------------------------------------------------------------
# Betti tables
# ---------------------------------------------------------------------------

def _hochster_position(j: int, d: int) -> tuple[int, int]:
    """The Betti position (i, j) receiving homology of degree d computed
    over a vertex subset of size j: i = j - d - 1. This single definition
    pins the homological-degree convention for the whole package."""
    return (j - d - 1, j)


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers beta_{i,j} of a quotient ring, stored as sorted
    (i, j, beta) triples with beta > 0."""

    num_vars: int
    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if list(self.entries) != sorted(self.entries):
            raise InputError("Betti entries must be sorted by (i, j)")
        for i, j, b in self.entries:
            if b <= 0 or i < 0 or j < 0 or i > self.num_vars:
                raise InputError(f"invalid Betti entry ({i}, {j}, {b})")
        if self.beta(0, 0) != 1:
            raise InputError("a quotient ring has beta_{0,0} = 1")

    def beta(self, i: int, j: int) -> int:
        for ei, ej, b in self.entries:
            if (ei, ej) == (i, j):
                return b
        return 0

    @property
    def pd(self) -> int:
        return max(i for i, _, _ in self.entries)

    @property
    def reg(self) -> int:
        return max(j - i for i, j, _ in self.entries)

    def to_json(self) -> dict:
        return {
            "num_vars": self.num_vars,
            "entries": [[i, j, b] for i, j, b in self.entries],
        }

def _betti_from_counts(num_vars: int, counts: dict[tuple[int, int], int]) -> BettiTable:
    entries = tuple(sorted((i, j, b) for (i, j), b in counts.items() if b))
    return BettiTable(num_vars, entries)


def betti_table_squarefree(
    ideal: MonomialIdeal,
    f: FieldChoice = RATIONALS,
    guard: int | None = None,
) -> BettiTable:
    """Betti table of the quotient by a squarefree ideal: homology of the
    restricted Stanley-Reisner complexes, summed over vertex subsets
    (Hochster's formula). Three branches evaluate that one sum:

    * quadric dual: when every generator of the Alexander dual is a
      quadric, the sum is reorganized through duality into a sweep over
      independent sets W of the dual graph H, each contributing homology of
      the independence complex of H minus the closed neighborhood of W in
      degree i-2; it never enumerates subsets with vanishing contributions;
    * quadric ideal: when every generator is a quadric, the ideal is the
      edge ideal of a graph G on the active variables and the restricted
      complex on a subset is the independence complex of the induced
      subgraph, so beta_{i,j} sums dim H~_{j-i-1}(Ind(G[sigma])) over
      subsets sigma of size j;
    * generic: faces of every restricted complex are enumerated and its
      homology read off boundary-matrix ranks; subsets whose complex is a
      cone are skipped.

    The guard bounds the number of swept vertices.
    """
    if not is_squarefree(ideal):
        raise InputError("Betti table via complexes needs a squarefree ideal")
    if ideal.is_unit:
        raise InputError("the unit ideal is not a quotient ring input")
    sweep = sorted({i for m in ideal.gens for i in support(m)})
    check_guard(len(sweep), guard, DEFAULT_HOCHSTER_GUARD,
                "{cost} active variables exceed guard {limit}")
    counts: dict[tuple[int, int], int] = defaultdict(int)
    counts[(0, 0)] = 1
    if not ideal.gens:
        return _betti_from_counts(ideal.ring.num_vars, counts)

    bit = {v: 1 << i for i, v in enumerate(sweep)}
    n, full = len(sweep), (1 << len(sweep)) - 1
    dual = [sum(bit[v] for v in support(m)) for m in alexander_dual(ideal).sorted_gens()]
    if all(s.bit_count() == 2 for s in dual):
        adj_t = _adjacency(dual, n)
        for w in itertools.chain.from_iterable(_faces_by_dim(full, dual).values()):
            closed = w
            for v in iter_bits(w):
                closed |= adj_t[v]
            rest = full & ~closed
            j = n - w.bit_count()
            if j == 0:
                continue  # the empty subset is the manual beta_{0,0}
            # duality within the size-j subset V \ W: degree d homology of
            # the residual independence complex sits at degree j - (d+2) - 1
            # of the restricted complex, i.e. _hochster_position(j, j-d-3)
            for d, c in _ind_dims(adj_t, rest, f.char).items():
                counts[_hochster_position(j, j - d - 3)] += c
        return _betti_from_counts(ideal.ring.num_vars, counts)

    gens = [sum(bit[v] for v in support(m)) for m in ideal.sorted_gens()]
    if all(s.bit_count() == 2 for s in gens):
        # edge ideal: each restricted complex is the independence complex of
        # the induced subgraph on that subset (Hochster's formula)
        adj = _adjacency(gens, n)
        for mask in range(1, 1 << n):
            for d, c in _ind_dims(adj, mask, f.char).items():
                counts[_hochster_position(mask.bit_count(), d)] += c
        return _betti_from_counts(ideal.ring.num_vars, counts)

    # generic subset sweep with cone pruning
    for mask in range(1, 1 << n):
        inside = [s for s in gens if s & mask == s]
        union = 0
        for s in inside:
            union |= s
        if union != mask:
            continue  # a vertex in no non-face lies in every facet: a cone
        j = mask.bit_count()
        for d, c in _dims_from_faces(_faces_by_dim(mask, inside), f.char).items():
            if c:
                counts[_hochster_position(j, d)] += c
    return _betti_from_counts(ideal.ring.num_vars, counts)


def _unary_pack(gens: list[tuple[int, ...]]) -> list[int]:
    """Each exponent vector as one int. Variable i owns a field of bits as
    wide as its largest exponent among `gens`, and exponent e sets the
    lowest e bits of that field, so a field reads e in unary: the bitwise
    OR of two fields is the larger exponent, the OR of packed monomials is
    their lcm, and `bit_count()` is the total degree."""
    packed = [0] * len(gens)
    offset = 0
    for column in zip(*gens):
        for g, e in enumerate(column):
            packed[g] |= ((1 << e) - 1) << offset
        offset += max(column)
    return packed


def taylor_betti_oracle(
    ideal: MonomialIdeal,
    f: FieldChoice = RATIONALS,
    guard: int | None = None,
) -> BettiTable:
    """Independent Betti-number oracle for any monomial ideal, squarefree or
    not: Taylor's resolution on the generator subsets, minimalized per
    lcm-lattice multidegree by exact linear algebra (Gasharov, Peeva and
    Welker 1999). In the strand of a multidegree, a subset maps to each
    subset one generator smaller with the same lcm, with sign (-1)^i for
    the i-th generator in index order; the homology of each strand is its
    column of the Betti table.

    All of it runs on ints. Monomials are unary-packed (`_unary_pack`), so
    lcm is bitwise OR and the total degree j is `bit_count()`; subsets are
    generator-index masks, and one flat table holds every subset's lcm,
    lcm[s] = lcm[s without its top generator] | packed[top]. Of the
    Hochster engine it checks, the oracle shares only `rank` and the
    `BettiTable` it returns: no face walk, fold, memo, polarization or
    Alexander duality.
    """
    if ideal.is_unit:
        raise InputError("the unit ideal is not a quotient ring input")
    gens = ideal.sorted_gens()
    check_guard(len(gens), guard, DEFAULT_TAYLOR_GUARD,
                "{cost} generators exceed the guard {limit}")
    lcms = [0]
    for top in _unary_pack(gens):
        lcms += [lcm | top for lcm in lcms]
    strands: dict[int, list[int]] = defaultdict(list)
    for s, lcm in enumerate(lcms):
        strands[lcm].append(s)

    counts: dict[tuple[int, int], int] = defaultdict(int)
    for lcm, subsets in strands.items():
        j = lcm.bit_count()
        by_size: dict[int, list[int]] = defaultdict(list)
        for s in subsets:
            by_size[s.bit_count()].append(s)
        ranks: dict[int, int] = {}
        for size, masks in by_size.items():
            lower = {t: i for i, t in enumerate(by_size.get(size - 1, ()))}
            if not lower:
                continue
            rows = []
            for s in masks:
                row = [0] * len(lower)
                sign, rest = 1, s
                while rest:
                    low = rest & -rest
                    i = lower.get(s ^ low)
                    if i is not None:  # same multidegree survives the tensor
                        row[i] = sign
                    sign, rest = -sign, rest ^ low
                rows.append(row)
            ranks[size] = rank(rows, f.char)
        for size, masks in by_size.items():
            h = len(masks) - ranks.get(size, 0) - ranks.get(size + 1, 0)
            if h:
                counts[(size, j)] += h
    return _betti_from_counts(ideal.ring.num_vars, counts)


# ---------------------------------------------------------------------------
# regularity and depth
# ---------------------------------------------------------------------------

def _reg_sweep(adj: tuple[int, ...], char: int) -> int:
    """Edge-ideal regularity of the graph with neighbour masks `adj`: one
    more than the largest d + 1 with nonzero reduced homology of degree d
    in the independence complex of an induced subgraph G[W].

    Only fold-free subsets are swept, those holding no pair u != v with
    N(v) <= N(u): such u and v are not adjacent, and in any induced
    subgraph holding both the fold lemma deletes u with every homology
    degree unchanged, so each degree some subset reaches is also reached by
    a fold-free one. A depth-first walk adds vertices in increasing order,
    so a nested pair drops its upper vertex from the lower one's candidates
    (`up`), as 2-element non-faces do in `_faces_by_dim`.

    The walk is pruned by the quadric size bound: in the Taylor resolution
    of a quadric ideal beta_{i,j} != 0 needs j <= 2i, which by Hochster's
    formula reads H~_d(Ind(G[W])) != 0 => |W| >= 2d + 2. So a face is
    evaluated only when |W| // 2 exceeds the best d + 1 so far, and a
    branch is dropped once (|face| + |candidates|) // 2 cannot.

    It is also filtered by link and deletion (Mayer-Vietoris) at the face's
    top vertex v: Ind(G[W]) is Ind(G[W - v]) glued to the cone from v over
    the link Ind(G[W \\ N[v]]), so H~_d(Ind(G[W])) != 0 needs
    H~_d(Ind(G[W - v])) != 0 or H~_{d-1}(Ind(G[W \\ N[v]])) != 0. W - v is
    the face's parent, popped before it, and no degree of the parent beats
    the best so far: it was evaluated, or skipped by the size bound or by
    this filter. So a degree d >= best needs the link's homology in degree
    d - 1, and by the quadric bound on the link |W \\ N[v]| >= 2d; a face
    whose link has fewer than 2 * best vertices is not evaluated.

    Both bounds use subset sizes only. The pruning trusts them, so every
    degree read from `_ind_dims` (sparse, nonzero, vanishing on cones) is
    checked against the quadric bound, and every degree d >= best (as it
    stood before the face) against the link bound, and a breach raises
    ConsistencyError."""
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
            v = face.bit_length() - 1
            link = (face & ~adj[v]).bit_count() - 1
            floor = best
            if link >= 2 * floor:
                for d in _ind_dims(adj, face, char):
                    if 2 * d + 2 > size:
                        raise ConsistencyError(
                            f"homology of degree {d} on {size} vertices breaks the "
                            f"quadric bound |W| >= 2d + 2"
                        )
                    if d >= floor and 2 * d > link:
                        raise ConsistencyError(
                            f"homology of degree {d} on {size} vertices, {link} "
                            f"of them off the top vertex's closed neighbourhood, "
                            f"breaks the link bound |W \\ N[v]| >= 2d"
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


def reg_edge_ideal(
    g: Graph,
    f: FieldChoice = RATIONALS,
    guard: int | None = None,
) -> int:
    """Regularity of the edge ideal I(g) (one more than the regularity of
    the quotient), via homology of independence complexes of the fold-free
    induced subgraphs (see `_reg_sweep`). Needs at least one edge."""
    if not g.edges:
        raise InputError("regularity of an edge ideal needs at least one edge")
    check_guard(g.n, guard, DEFAULT_HOCHSTER_GUARD,
                "{cost} vertices exceed the guard {limit}")
    return _reg_sweep(g.adj, f.char)


def reg_edge_ideal_layered(gk: LayeredGraph, f: FieldChoice = RATIONALS) -> int:
    """Regularity of the edge ideal of a layered graph, by the same
    fold-free sweep as `reg_edge_ideal` on G_k relabelled 1..n*k. Within a
    grid column the neighbourhoods shrink as the layer grows, so a swept
    subset holds at most one vertex per column. Unguarded: its caller
    `depth_symbolic_cover` bounds the n * k vertices of G_k."""
    if not gk.edges:
        raise InputError("regularity of an edge ideal needs at least one edge")
    return _reg_sweep(as_plain_graph(gk)[0].adj, f.char)


# memo for upper Koszul complexes: (char, live rows in vertex order) -> sparse dims
_KOSZUL_DIMS: dict[tuple, dict[int, int]] = {}


def _pd_symbolic_cover(g: Graph, k: int, char: int) -> int:
    """pd(S / J(g)^(k)) from upper Koszul complexes of the unpolarized ideal:
    beta_{i+1,b}(S/I) = dim H~_{i-1}(K^b), K^b = {tau <= supp b : x^(b-tau) in
    I} (Miller-Sturmfels, Combinatorial Commutative Algebra, Thm 1.34). Only
    lcm-lattice points carry Betti numbers (Gasharov-Peeva-Welker 1999), and
    they lie in {0..k}^n, so the walk of `symbolic_power_cover` sweeps every
    b there with b_u + b_v >= k on each edge, fixing b_v in vertex order.

    The slack rule: tau is a face iff |tau & {u, v}| <= b_u + b_v - k on
    each edge, so a vertex of supp b on a tight edge is in no face and the
    other, live, ones span Ind of the slack-1 graph on them. A vertex is
    decided, live or not, at its closing vertex, the last of its closed
    neighbourhood; a live vertex with no slack-1 edge there makes a cone,
    which is skipped.

    The walk is pruned by the quadric size bound: beta_{i,j} != 0 needs
    j <= 2i for a quadric ideal, so by Hochster's formula H~_d of the
    independence complex of a graph on m vertices vanishes unless
    m >= 2d + 2. A point b thus raises pd to at most |live| // 2 + 1, and a
    node is dropped once its live vertices plus the `open_after` vertices
    still undecided cannot beat the best pd so far; at a leaf none are
    open. The bound uses sizes only. The pruning trusts it, so every degree
    read from a K^b, memoized or fresh, is checked against its live count,
    and a breach raises ConsistencyError."""
    n = g.n
    nbrs = [tuple(iter_bits(m)) for m in g.adj]
    closing: list[list[int]] = [[] for _ in nbrs]  # x with max N[x] = v
    for v, nv in enumerate(nbrs):
        closing[max((v, *nv))].append(v)
    pos = {x: i for i, x in enumerate(itertools.chain.from_iterable(closing))}
    open_after = [0] * (n + 1)  # v -> vertices still undecided at depth v
    for v in reversed(range(n)):
        open_after[v] = open_after[v + 1] + len(closing[v])
    pd = 0
    stack = [((), 0, ())]  # (b so far, live mask, slack-1 rows in closing order)
    while stack:
        a, live, rows = stack.pop()
        v = len(a)
        size = live.bit_count()
        if (size + open_after[v]) // 2 + 1 <= pd:
            continue
        if v == n:
            key = tuple(rows[pos[x]] & live for x in iter_bits(live))
            if 0 in key:
                continue  # a cone
            dims = _KOSZUL_DIMS.get((char, key))
            if dims is None:
                edges = [1 << x | 1 << u for x, r in zip(iter_bits(live), key)
                         for u in iter_bits(r) if u > x]
                dense = _dims_from_faces(_faces_by_dim(live, edges), char)
                dims = _KOSZUL_DIMS[char, key] = {d: c for d, c in dense.items() if c}
            for d in dims:
                if 2 * d + 2 > size:
                    raise ConsistencyError(
                        f"upper Koszul homology of degree {d} on {size} live "
                        f"vertices breaks the quadric bound |live| >= 2d + 2"
                    )
                pd = max(pd, d + 2)
            continue
        low = max([0, *(k - a[u] for u in nbrs[v] if u < v)])
        for e in range(low, k + 1):
            b, grown, more = a + (e,), live, rows
            for x in closing[v]:
                one, bx = 0, b[x]
                if bx and k - bx not in [b[u] for u in nbrs[x]]:  # no tight edge
                    one = sum(1 << u for u in nbrs[x] if b[u] == k + 1 - bx)
                    if not one:
                        break  # a cone
                    grown |= 1 << x
                more += (one,)
            else:
                stack.append((b, grown, more))
    return pd


def depth_symbolic_cover(
    g: Graph,
    k: int,
    f: FieldChoice = RATIONALS,
    guard: int | None = None,
) -> int:
    """Depth of S / J(g)^(k), where J is the cover ideal, computed by two
    independent routes that must agree:

    A. (vertex count) - pd, with pd read off the upper Koszul complexes of
       the unpolarized symbolic power (`_pd_symbolic_cover`, Miller-Sturmfels
       Thm 1.34 and the slack rule);
    B. (vertex count) - reg(I(G_k)) on the layered graph, converting the
       depth question into edge-ideal regularity.

    The routes share only the face walk (route B reaches it through
    `_component_dims`), `_dims_from_faces` and `rank`. Both prune by the
    same quadric size bound, but each checks every degree it reads against
    that bound itself; route B also filters by, and checks, the link bound
    of `_reg_sweep`. A disagreement is an internal error, never resolved
    silently.
    """
    if not g.edges:
        raise InputError("needs a graph with at least one edge")
    if k < 1:
        raise InputError("symbolic power exponent must be >= 1")
    check_guard(g.n * k, guard, DEFAULT_HOCHSTER_GUARD,
                "layered computation needs {cost} vertices, guard is {limit}")
    depth_a = g.n - _pd_symbolic_cover(g, k, f.char)
    depth_b = g.n - reg_edge_ideal_layered(build_gk(g, k), f)
    if depth_a != depth_b:
        raise ConsistencyError(
            f"depth routes disagree on k={k}: upper Koszul complexes give "
            f"{depth_a}, layered regularity gives {depth_b}"
        )
    return depth_a
