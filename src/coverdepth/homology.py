"""Exact homological invariants of monomial quotients.

The pipeline: reduced homology is computed by exact ranks of boundary
matrices, graded Betti numbers of the quotient come from summing
restricted-complex homology over vertex subsets, and pd / reg / depth are
read off the Betti table (depth through the projective-dimension complement
in the original variable count). Every face list, the independent sets of
a graph included, comes from one bitmask walk, `_faces_by_dim`; only the
two edge-ideal regularity walks choose their subsets themselves, because
they prune them: the subset sweep of `reg_edge_ideal` (`_reg_sweep`) and
route B's column walk of the layered graph G_k (`_column_walk`).

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
* route B walks G_k column by column (`_column_walk`), each column
  holding no vertex or one layer, and reads each face as the sweep does,
  link filter and both checks included, after one edge (degree 0).
  N((i, p)) is layers 1..k+1-p of the columns N_g(i), so (i, p) and
  (j, q), i != j, are nested exactly when N_g(i) or N_g(j) is empty, or
  N_g(i) <= N_g(j) and q <= p (or the same with i and j swapped): the
  nesting masks come from g's masks, and the layers a column still
  offers form one run. Three cuts drop a node with everything below it.
  Size: (|W| + later columns with a candidate) // 2 <= best, exact by the
  quadric bound as a column adds at most one vertex. Cone: once the last column of x and its neighbours in g is
  decided, x's chosen vertex has its final neighbours in every face below;
  with none, each is a cone. Fold: once a closed chosen b has
  N_W(b) <= N_W(a) for a chosen a, every face W' below keeps it (N_W(b) is
  final, N_W(a) only grows), so the fold lemma gives W' the homology of
  W' - a, a face of the branch that leaves a's column empty; each
  deferral shrinks the face, so none comes back to itself;
* route A of the depth check (`_pd_symbolic_cover`) stops at the same
  bound: each upper Koszul complex K^b is the independence complex of a
  graph on its live vertices, so a point b can raise pd to d + 2 only if
  |live| >= 2d + 2, and a branch whose live vertices, decided and still
  open, cannot reach that is dropped. Every degree read from a K^b, memo
  hit or not, is checked against the bound, with ConsistencyError on a
  breach. It keeps the mask at[e] of the vertices of each value e, so a
  closing vertex's tight-edge test and slack-1 row are one AND each;
* disjoint graph components are combined by the join rule for reduced
  homology over a field;
* component homology is memoized per field under the component's adjacency
  bitmasks, relabelled 0..m-1 in increasing vertex order; the key is exact,
  so equal keys are equal labelled graphs;
* `betti_table_squarefree` evaluates Hochster's subset sum by one of three
  branches, tried in this order: a quadric ideal (edge ideals) makes each
  restricted complex the independence complex of an induced subgraph
  (Hochster's formula for edge ideals); a quadric Alexander dual (cover
  ideals) turns it, by duality, into a sweep over the independent sets of
  the dual graph; only the remaining ideals enumerate faces and build
  boundary matrices, skipping subsets whose restricted complex is a cone.
  Both fold (the edge-ideal one by table lookup), join and memo as above.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

from ._bits import iter_bits
from ._linalg import rank
from .errors import (
    DEFAULT_HOCHSTER_GUARD,
    DEFAULT_TAYLOR_GUARD,
    ConsistencyError,
    Frozen,
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
from .layered import LayeredGraph, build_gk


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------

class FieldChoice(Frozen):
    """Coefficient field for all homology: characteristic 0 is the rationals
    Q, characteristic 2 the two-element field F2; no other is accepted."""

    _fields = ("char",)
    char: int

    def __init__(self, char: int) -> None:
        if char not in (0, 2):
            raise InputError(f"field characteristic must be 0 or 2, got {char}")
        object.__setattr__(self, "char", char)

    @property
    def label(self) -> str:
        return "q" if self.char == 0 else f"f{self.char}"


RATIONALS = FieldChoice(0)
F2 = FieldChoice(2)


# ---------------------------------------------------------------------------
# reduced homology by exact ranks
# ---------------------------------------------------------------------------

def _faces_by_dim(vertices: int, adj, non_faces=()) -> dict[int, list[int]]:
    """All faces, as bitmasks grouped by dimension, of the complex on the
    vertex mask `vertices` whose minimal non-faces are the edges of the
    neighbour masks `adj` (`adj[v]` holds v's neighbours) and the masks
    `non_faces`, of any size; the empty face sits in dimension -1. One
    depth-first walk adds vertices in increasing order, so only a vertex
    joining as a face's highest can complete a non-face: a joining vertex
    drops its neighbours from the candidates above it, and a mask in
    `non_faces` is tested when its highest vertex would join."""
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
            if not non_faces or not any(nf >> v == 1 and nf & grown == nf for nf in non_faces):
                stack.append((grown, above & ~adj[v]))
            above |= bit
    return faces


def _dims_from_faces(faces: dict[int, list[int]], char: int) -> dict[int, int]:
    """Sparse reduced homology dimensions from face masks by dimension: for
    each degree d, dim = #faces - rank(boundary_d) - rank(boundary_{d+1}),
    and only nonzero degrees are kept, so an acyclic complex gives {} and
    the empty complex {-1: 1}. A face's boundary row is sparse, {index of
    the face without its i-th lowest vertex: (-1)^i}; ranks, and so the
    dims, do not depend on the order of the faces."""
    top = max(faces)
    ranks: dict[int, int] = {0: 1} if top >= 0 else {}
    for d in range(1, top + 1):
        lower = {f: i for i, f in enumerate(faces[d - 1])}
        rows = []
        for face in faces[d]:
            row = {}
            sign, rest = 1, face
            while rest:
                low = rest & -rest
                row[lower[face ^ low]] = sign
                sign, rest = -sign, rest ^ low
            rows.append(row)
        ranks[d] = rank(rows, char)
    dims = {d: len(faces[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0)
            for d in range(-1, top + 1)}
    return {d: c for d, c in dims.items() if c}


def _adjacency(edges: list[int], m: int) -> tuple[int, ...]:
    """Neighbour bitmasks on m vertices of the graph whose edges are the
    distinct 2-bit masks `edges` (so each sum below is a union)."""
    return tuple(sum(e ^ 1 << v for e in edges if e >> v & 1) for v in range(m))


# memo for component homology: (char, relabelled adjacency) -> sparse dims
_COMPONENT_DIMS: dict[tuple, dict[int, int]] = {}


def _component_dims(adj: tuple[int, ...], comp_mask: int, char: int) -> dict[int, int]:
    """Sparse reduced-homology dims of the independence complex of one
    connected induced subgraph, memoized per field under the subgraph's
    adjacency bitmasks relabelled 0..m-1 in increasing vertex order, which
    are also the rows a miss hands to the face walk. The key determines the
    labelled graph, so a hit is always the same complex."""
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
        cached = _COMPONENT_DIMS[key] = _dims_from_faces(
            _faces_by_dim((1 << len(local)) - 1, local), char)
    return cached


def _join_dims(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Reduced homology of a join of complexes over a field:
    dim_d = sum over p+q = d-1 of dim_p(X) * dim_q(Y)."""
    out: dict[int, int] = defaultdict(int)
    for p, cp in a.items():
        for q, cq in b.items():
            out[p + q + 1] += cp * cq
    return dict(out)


def _dominated(adj: tuple[int, ...], mask: int) -> int:
    """The lowest common neighbour u != v of N_W(v), W = `mask`, for the
    first v that has one, as a bit (the fold lemma deletes u), or 0 if W is
    fold-free. An AND stops once nothing is common. An isolated v gives any u."""
    m = mask
    while m:
        low = m & -m
        m ^= low
        nv = adj[low.bit_length() - 1] & mask
        common = mask ^ low
        while nv and common:
            w = nv & -nv
            common &= adj[w.bit_length() - 1]
            nv ^= w
        if common:
            return common & -common
    return 0


def _joined_dims(adj: tuple[int, ...], mask: int, char: int) -> dict[int, int]:
    """Sparse reduced-homology dims of Ind(G[mask]) ({-1: 1} if `mask` is
    empty), joined over its connected components (`_component_dims`)."""
    total = {-1: 1}
    remaining = mask
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier:
            low = frontier & -frontier
            grown = adj[low.bit_length() - 1] & mask & ~comp
            comp |= grown
            frontier ^= low | grown
        remaining &= ~comp
        dims = _component_dims(adj, comp, char)
        if not dims:
            return {}
        total = dims if total == {-1: 1} else _join_dims(total, dims)
    return total


def _ind_dims(adj: tuple[int, ...], mask: int, char: int) -> dict[int, int]:
    """Sparse reduced-homology dims, read-only (maybe a memo entry), of the
    independence complex of the induced subgraph on `mask`: {} if it
    vanishes (an isolated vertex makes a cone), {-1: 1} if `mask` is empty.
    Each pass deletes the vertex `_dominated` finds; the fold-free rest
    joins over its components (`_joined_dims`), where the edge-ideal Betti
    sweep sends its fold-free subsets too. With the join, `reg_edge_ideal`
    on 9K2 walks only two-vertex complexes; without it, 7K2 takes seconds."""
    while True:
        m = mask
        while m:
            low = m & -m
            if not adj[low.bit_length() - 1] & mask:
                return {}
            m ^= low
        u = _dominated(adj, mask)
        if not u:
            return _joined_dims(adj, mask, char)
        mask ^= u


# ---------------------------------------------------------------------------
# Betti tables
# ---------------------------------------------------------------------------

def _hochster_position(j: int, d: int) -> tuple[int, int]:
    """The Betti position (i, j) receiving homology of degree d computed
    over a vertex subset of size j: i = j - d - 1. This single definition
    pins the homological-degree convention for the whole package."""
    return (j - d - 1, j)


class BettiTable(Frozen):
    """Graded Betti numbers beta_{i,j} of a quotient ring, stored as sorted
    (i, j, beta) triples with beta > 0."""

    _fields = ("num_vars", "entries")
    num_vars: int
    entries: tuple[tuple[int, int, int], ...]

    def __init__(self, num_vars: int, entries: tuple[tuple[int, int, int], ...]) -> None:
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "entries", entries)
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
    (Hochster's formula). Three branches, tried in order, evaluate it:

    * quadric ideal: when every generator is a quadric, the ideal is the
      edge ideal of a graph G on the active variables and the restricted
      complex on a subset is the independence complex of the induced
      subgraph, so beta_{i,j} sums dim H~_{j-i-1}(Ind(G[sigma])) over
      subsets sigma of size j. In increasing order, a cone is read off the
      isolated vertices of sigma minus its top vertex, a fold u
      (`_dominated`) off sigma - u's entry, and the rest is `_joined_dims`;
    * quadric dual: otherwise, when every generator of the Alexander dual
      is a quadric, the sum is reorganized through duality into a sweep
      over independent sets W of the dual graph H, each contributing
      homology of the independence complex of H minus the closed
      neighborhood of W in degree i-2; it never enumerates subsets with
      vanishing contributions;
    * generic: faces of every restricted complex are enumerated and its
      homology read off boundary-matrix ranks; subsets whose complex is a
      cone are skipped.

    The guard bounds the number of swept vertices.
    """
    if not is_squarefree(ideal):
        raise InputError("Betti table via complexes needs a squarefree ideal")
    sweep = sorted({i for m in ideal.gens for i in support(m)})
    check_guard(len(sweep), guard, DEFAULT_HOCHSTER_GUARD,
                "{cost} active variables exceed guard {limit}")
    counts: dict[tuple[int, int], int] = defaultdict(int)
    counts[(0, 0)] = 1
    bit = {v: 1 << i for i, v in enumerate(sweep)}
    n, full = len(sweep), (1 << len(sweep)) - 1
    gens = [sum(bit[v] for v in support(m)) for m in ideal.sorted_gens()]
    if all(s.bit_count() == 2 for s in gens):
        # edge ideal: each restricted complex is Ind(G[W]) (Hochster's
        # formula), and W minus any vertex comes before W in increasing order
        adj = _adjacency(gens, n)
        lone = memoryview(bytearray(4 << n)).cast("I")  # W -> its isolated vertices
        table: list[dict[int, int] | None] = [None] * (1 << n)  # W -> its dims, None if none
        for mask in range(1, 1 << n):
            t = mask.bit_length() - 1
            rest = mask ^ 1 << t
            lone[mask] = isolated = lone[rest] & ~adj[t] | (0 if adj[t] & rest else 1 << t)
            if isolated:
                continue  # a cone adds nothing
            u = _dominated(adj, mask)
            dims = table[mask ^ u] if u else _joined_dims(adj, mask, f.char)
            if dims:
                table[mask] = dims
                for d, c in dims.items():
                    counts[_hochster_position(mask.bit_count(), d)] += c
        return _betti_from_counts(ideal.ring.num_vars, counts)

    dual = [sum(bit[v] for v in support(m)) for m in alexander_dual(ideal).sorted_gens()]
    if all(s.bit_count() == 2 for s in dual):
        adj_t = _adjacency(dual, n)
        for w in itertools.chain.from_iterable(_faces_by_dim(full, adj_t).values()):
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

    # generic subset sweep with cone pruning
    for mask in range(1, 1 << n):
        inside = [s for s in gens if s & mask == s]
        union = 0
        for s in inside:
            union |= s
        if union != mask:
            continue  # a vertex in no non-face lies in every facet: a cone
        j = mask.bit_count()
        for d, c in _dims_from_faces(_faces_by_dim(mask, [0] * n, inside), f.char).items():
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
                row = {}
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

def _read_face(adj: tuple[int, ...], face: int, size: int, char: int, best: int) -> int:
    """The best d + 1 so far after reading the face `face` of `size`
    vertices: evaluated only if the link of its top vertex v leaves at least
    2 * best vertices outside N[v] (the link filter of `_reg_sweep`). Every
    degree read is checked against the quadric bound |W| >= 2d + 2, and
    every degree d >= best against the link bound |W \\ N[v]| >= 2d; a
    breach raises ConsistencyError."""
    v = face.bit_length() - 1
    link = (face & ~adj[v]).bit_count() - 1
    if link < 2 * best:
        return best
    floor = best
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
    return best


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
    (`up`), as neighbours do in `_faces_by_dim`.

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
            best = _read_face(adj, face, size, char, best)
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


def _common_neighbours(adj, mask: int) -> int:
    """The vertices adjacent to every vertex of the nonempty mask `mask`."""
    common = -1
    while mask:
        low = mask & -mask
        common &= adj[low.bit_length() - 1]
        mask ^= low
    return common


def _closing_cuts(adj, face: int, shut: int, dom: int, shared: dict[int, int]) -> int:
    """The cone and fold cuts of `_column_walk` at the chosen vertices
    `shut` of `face` that the column just decided closes: -1 if the node
    is dropped, else `dom` with each closing b's common neighbours of
    N_W(b) added, b left out. `shared` memoizes common neighbours."""
    while shut:
        b = shut & -shut
        shut ^= b
        nbrs = adj[b.bit_length() - 1] & face
        if not nbrs:
            return -1  # cone cut: b is isolated in every face below
        common = shared.get(nbrs)
        if common is None:
            common = shared[nbrs] = _common_neighbours(adj, nbrs)
        common &= ~b
        if common & face:
            return -1  # fold cut: a chosen vertex's neighbours hold N_W(b)
        dom |= common
    return dom


def _column_walk(gk: LayeredGraph, char: int) -> int:
    """reg(I(G_k)) from G_k's grid-order masks, over the fold-free subsets
    W, which hold at most one vertex per grid column (module notes). The
    walk decides the columns in order, each holding no vertex or one layer
    not nested with a chosen vertex (`up[v]`: the later vertices nested
    with v). A face is read at the node that adds its top vertex, as
    `_reg_sweep` reads it (`_read_face`), after one edge, whose two points
    give degree 0: the walk starts from best = 1, so it reads no face of
    fewer than four vertices. A node is dropped by the size cut, and, once
    a column closes chosen vertices, by the cone and fold cuts
    (`_closing_cuts`). `dom` holds every vertex adjacent to all of some
    closed N_W(b), b left out: adding one would fold, so none is added.
    """
    n, k, adj = gk.base_n, gk.k, gk.adj
    run = (1 << k) - 1
    rows = adj[::k]  # layer 1 of each column: every layer of its neighbour columns
    cols = [i for i in range(n) if rows[i]]  # isolated columns only ever make cones
    up = [0] * len(adj)
    closing = [0] * n  # column -> every vertex of the columns it closes
    firsts = 0  # the first bit of each walk column
    for c, i in enumerate(cols):
        row = rows[i]
        firsts |= 1 << i * k
        sub = sup = 0  # later columns j with N_g(i) <= N_g(j), and with N_g(j) <= N_g(i)
        for j in cols[c + 1:]:
            if not row & ~rows[j]:
                sub |= 1 << j * k
            if not rows[j] & ~row:
                sup |= 1 << j * k
        for p in range(k):  # layer p + 1: layers 1..p + 1 under sub, p + 1..k under sup
            up[i * k + p] = sub * ((2 << p) - 1) | sup * (run >> p << p)
        closing[max(i, (row.bit_length() - 1) // k)] |= run << i * k
    steps = [(i * k, closing[i]) for i in cols]
    smear = [1 << s for s in range(k.bit_length() - 1)]  # shifts OR-ing k bits into the first
    if k > 1 << len(smear):
        smear.append(k - (1 << len(smear)))
    shared: dict[int, int] = {}
    u = cols[0] * k  # an edge: u and its lowest neighbour
    best = _read_face(adj, 1 << u | adj[u] & -adj[u], 2, char, 0)
    stack = [(0, 0, firsts * run, 0)]  # face, next column, candidates, dom
    while stack:
        face, start, cand, dom = stack.pop()  # the face's top vertex was just added
        size = face.bit_count()
        if size // 2 > best:
            best = _read_face(adj, face, size, char, best)
        live = cand  # the columns with a candidate left, at their first bits
        for s in smear:
            live |= live >> s
        live &= firsts
        for c in range(start, len(steps)):
            shift, closes = steps[c]
            if (size + (live >> shift).bit_count()) // 2 <= best:
                break  # size cut
            layers = cand >> shift & run  # one run: nesting cuts layers from its ends
            while layers:  # the highest layer first, so the lowest pops first
                v = shift + layers.bit_length() - 1
                layers ^= 1 << v - shift
                if dom >> v & 1:
                    continue  # fold cut
                grown = face | 1 << v
                shut = grown & closes
                more = _closing_cuts(adj, grown, shut, dom, shared) if shut else dom
                if more >= 0:
                    stack.append((grown, c + 1, cand & ~up[v], more))
            shut = face & closes  # no vertex in column c: walked on at once
            if shut:
                dom = _closing_cuts(adj, face, shut, dom, shared)
                if dom < 0:
                    break
    return best + 1


def reg_edge_ideal_layered(gk: LayeredGraph, f: FieldChoice = RATIONALS) -> int:
    """Regularity of the edge ideal of a layered graph, route B of
    `depth_symbolic_cover`, by the column walk of G_k (`_column_walk`).
    Unguarded: its caller bounds the n * k vertices of G_k."""
    if not any(gk.adj):
        raise InputError("regularity of an edge ideal needs at least one edge")
    return _column_walk(gk, f.char)


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
    which is skipped. With b the walk holds at[e], the vertices of value e,
    as field e (bits e*n and up) of one int: v's values start at k minus
    the lowest field its earlier neighbours meet; x with b_x >= 1 has a
    tight edge iff at[k - b_x] & N(x), and slack-1 row at[k + 1 - b_x] & N(x).

    By the quadric size bound (module notes) a point b raises pd to at most
    |live| // 2 + 1, so a node is dropped once its live vertices plus the
    `open_after` vertices still undecided cannot beat the best pd so far.
    The pruning trusts the bound, so every degree read from a K^b, memoized
    or fresh, is checked against its live count, and a breach raises
    ConsistencyError."""
    n, adj = g.n, g.adj
    closing: list[list[int]] = [[] for _ in adj]  # x with max N[x] = v
    for x, m in enumerate(adj):
        closing[max(x, m.bit_length() - 1)].append(x)
    open_after = [0] * (n + 1)  # v -> vertices still undecided at depth v
    for v in reversed(range(n)):
        open_after[v] = open_after[v + 1] + len(closing[v])
    spread = sum(1 << e * n for e in range(k + 1))  # one bit at the foot of each field
    below = [(m & (1 << v) - 1) * spread for v, m in enumerate(adj)]  # earlier neighbours
    pd = 0
    stack = [((), 0, 0)]  # (b so far, at, live); at[e] is field e of at, bits e*n..
    while stack:
        b, at, live = stack.pop()
        v = len(b)
        size = live.bit_count()
        if (size + open_after[v]) // 2 + 1 <= pd:
            continue
        if v == n:
            key = tuple(at >> (k + 1 - b[x]) * n & adj[x] & live for x in iter_bits(live))
            if 0 in key:
                continue  # a cone
            dims = _KOSZUL_DIMS.get((char, key))
            if dims is None:
                dims = _KOSZUL_DIMS[char, key] = _dims_from_faces(
                    _faces_by_dim(live, dict(zip(iter_bits(live), key))), char)
            for d in dims:
                if 2 * d + 2 > size:
                    raise ConsistencyError(
                        f"upper Koszul homology of degree {d} on {size} live "
                        f"vertices breaks the quadric bound |live| >= 2d + 2"
                    )
                pd = max(pd, d + 2)
            continue
        early = at & below[v]  # v's earlier neighbours, each in the field of its value
        low = k - ((early & -early).bit_length() - 1) // n if early else 0
        for e in range(low, k + 1):
            grown_b, grown_at, grown = b + (e,), at | 1 << e * n + v, live
            for x in closing[v]:
                bx = grown_b[x]
                if bx and not grown_at >> (k - bx) * n & adj[x]:  # no tight edge
                    if not grown_at >> (k + 1 - bx) * n & adj[x]:
                        break  # a cone: no slack-1 edge
                    grown |= 1 << x
            else:
                stack.append((grown_b, grown_at, grown))
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
       depth question into edge-ideal regularity, read by a walk over
       G_k's grid columns (`reg_edge_ideal_layered`).

    The routes share only the face walk (route B reaches it through
    `_component_dims`), `_dims_from_faces` and `rank`. Both prune by the
    same quadric size bound and cut a branch once a vertex's closed
    neighbourhood is decided, but each has its own walk and closing table
    and checks every degree it reads against that bound itself; route B's
    column walk also filters by, and checks, the link bound. A
    disagreement is an internal error, never resolved silently.
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
