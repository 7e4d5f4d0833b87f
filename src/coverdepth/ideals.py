"""Monomial ideals with exact antichain arithmetic.

A ring is a tuple of variable labels; a label is either an integer i
(base variable x_i) or a pair (i, p) (layered variable x_{i,p}, layer p of
base variable i). Monomials are exponent tuples aligned with the ring's
label order; an ideal stores its inclusion-minimal generators only. Every
ideal is nonzero and proper, as are all those the verified statements name.

Operations: intersection (pairwise lcm), ordinary power, the cover/edge
ideals of a graph and the symbolic powers of the cover ideal, polarization
into the layered variable space, and squarefree Alexander duality (minimal
hitting sets of generator supports).
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterable

from ._bits import iter_bits, mask_of, minimal_hitting_sets
from .errors import Frozen, InputError, ParseError
from .graphs import Graph

# A variable label is an int (base x_i) or an (i, p) pair (layered x_{i,p}).
Monomial = tuple[int, ...]


class Ring(Frozen):
    """An ordered tuple of variable labels (all ints, or all layer pairs)."""

    _fields = ("labels",)
    labels: tuple

    def __init__(self, labels: tuple) -> None:
        object.__setattr__(self, "labels", labels)
        if len(set(self.labels)) != len(self.labels):
            raise InputError("duplicate variable labels")
        kinds = {isinstance(lab, tuple) for lab in self.labels}
        if len(kinds) > 1:
            raise InputError("cannot mix base and layered variables")
        if tuple(sorted(self.labels)) != self.labels:
            raise InputError("ring labels must be sorted")

    @property
    def num_vars(self) -> int:
        return len(self.labels)

    @property
    def is_layered(self) -> bool:
        return bool(self.labels) and isinstance(self.labels[0], tuple)

    def index(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"label {label!r} not in ring") from None


def base_ring(n: int) -> Ring:
    if n < 1:
        raise InputError("ring needs at least one variable")
    return Ring(tuple(range(1, n + 1)))


def layered_ring(labels: Iterable[tuple[int, int]]) -> Ring:
    labs = tuple(sorted(set(labels)))
    if not labs:
        raise InputError("ring needs at least one variable")
    for lab in labs:
        if not (isinstance(lab, tuple) and len(lab) == 2 and lab[0] >= 1 and lab[1] >= 1):
            raise InputError(f"bad layered label {lab!r}")
    return Ring(labs)


def var_name(label) -> str:
    if isinstance(label, tuple):
        return f"x{label[0]}_{label[1]}"
    return f"x{label}"


class MonomialIdeal(Frozen):
    """A nonzero proper monomial ideal, stored by its minimal generators."""

    _fields = ("ring", "gens")
    ring: Ring
    gens: frozenset[Monomial]

    def __init__(self, ring: Ring, gens: frozenset[Monomial]) -> None:
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", gens)
        if not self.gens:
            raise InputError("the zero ideal (no generators) is not supported")
        for g in self.gens:
            if len(g) != self.ring.num_vars or any(e < 0 for e in g):
                raise InputError(f"bad exponent tuple {g!r}")
            if not any(g):
                raise InputError("the unit ideal (generator 1) is not supported")

    def sorted_gens(self) -> list[Monomial]:
        """Generators sorted by (total degree, exponent vector descending)."""
        return sorted(self.gens, key=lambda g: (sum(g), tuple(-e for e in g)))


def _minimalize(gens: Iterable[Monomial]) -> frozenset[Monomial]:
    ordered = sorted(set(gens), key=lambda g: (sum(g), g))
    kept: list[Monomial] = []
    for g in ordered:
        if not any(all(x <= y for x, y in zip(h, g)) for h in kept):
            kept.append(g)
    return frozenset(kept)


def monomial_ideal(ring: Ring, gens: Iterable[Iterable[int]]) -> MonomialIdeal:
    """Build an ideal from any generating set; generators are minimalized."""
    return MonomialIdeal(ring, _minimalize(tuple(g) for g in gens))


def support(mono: Monomial) -> tuple[int, ...]:
    return tuple(i for i, e in enumerate(mono) if e > 0)


def is_squarefree(ideal: MonomialIdeal) -> bool:
    return all(e <= 1 for g in ideal.gens for e in g)


def lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _require_same_ring(a: MonomialIdeal, b: MonomialIdeal) -> None:
    if a.ring != b.ring:
        raise InputError("ideals live in different rings")


def intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """Intersection via pairwise least common multiples."""
    _require_same_ring(a, b)
    return monomial_ideal(a.ring, (lcm(g, h) for g in a.gens for h in b.gens))


def power(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    """Ordinary k-th power, for k >= 1."""
    if k < 1:
        raise InputError("power needs k >= 1")
    prods = []
    for combo in itertools.combinations_with_replacement(sorted(ideal.gens), k):
        prods.append(tuple(sum(col) for col in zip(*combo)))
    return monomial_ideal(ideal.ring, prods)


def edge_ideal(g: Graph) -> MonomialIdeal:
    """Ideal generated by x_u x_v over the edges of g, which needs an edge."""
    if not g.edges:
        raise InputError("edge ideal needs at least one edge")
    ring = base_ring(g.n)
    gens = []
    for u, v in g.sorted_edges():
        exps = [0] * g.n
        exps[u - 1] = 1
        exps[v - 1] = 1
        gens.append(tuple(exps))
    return MonomialIdeal(ring, frozenset(gens))


def cover_ideal(g: Graph) -> MonomialIdeal:
    """Ideal whose generators are the minimal vertex covers of g: the
    Alexander dual of the edge ideal, i.e. the intersection of (x_u, x_v)
    over all edges. Like the edge ideal, it needs an edge."""
    return alexander_dual(edge_ideal(g))


def symbolic_power_cover(g: Graph, k: int) -> MonomialIdeal:
    """k-th symbolic power of the cover ideal of g.

    It is the intersection of (x_u, x_v)^k over the edges uv, so x^a lies in
    it exactly when a_u + a_v >= k on every edge. That is an up-set, so x^a
    is a minimal generator exactly when each v with a_v > 0 has a neighbour
    u with a_u + a_v = k. A depth-first search sets a_1, a_2, ... in turn,
    each from max(0, k - a_u over earlier neighbours u) to k, and drops a
    branch once a vertex whose closed neighbourhood is set fails that test,
    so its leaves are the minimal generators (its tests check it against
    the brute-force `brute_symbolic_power_cover`).
    """
    if not g.edges:
        raise InputError("cover ideal needs at least one edge")
    if k < 1:
        raise InputError("symbolic power needs k >= 1")
    nbrs = [tuple(iter_bits(m)) for m in g.adj]
    closing: list[list[int]] = [[] for _ in nbrs]  # x with max N[x] = v
    for v, nv in enumerate(nbrs):
        closing[max((v, *nv))].append(v)
    gens: list[Monomial] = []
    stack: list[Monomial] = [()]
    while stack:
        a = stack.pop()
        v = len(a)
        low = max([0, *(k - a[u] for u in nbrs[v] if u < v)])
        for e in range(low, k + 1):
            b = a + (e,)
            if all(b[x] == 0 or any(b[x] + b[u] == k for u in nbrs[x])
                   for x in closing[v]):
                (gens if v + 1 == g.n else stack).append(b)
    return MonomialIdeal(base_ring(g.n), frozenset(gens))


def polarize(ideal: MonomialIdeal) -> MonomialIdeal:
    """Exponent-splitting transform into the layered variable space.

    x_i^a contributes the product x_{i,1} x_{i,2} ... x_{i,a}; the result is
    squarefree and has the same graded Betti numbers as the input. Input must
    live in a base ring (no double polarization).
    """
    if ideal.ring.is_layered:
        raise InputError("ideal is already polarized")
    n = ideal.ring.num_vars
    max_exp = [0] * n
    for gmono in ideal.gens:
        for i, e in enumerate(gmono):
            max_exp[i] = max(max_exp[i], e)
    labels = [
        (ideal.ring.labels[i], p)
        for i in range(n)
        for p in range(1, max_exp[i] + 1)
    ]
    ring = layered_ring(labels)
    gens = []
    for gmono in ideal.gens:
        exps = [0] * ring.num_vars
        for i, e in enumerate(gmono):
            for p in range(1, e + 1):
                exps[ring.index((ideal.ring.labels[i], p))] = 1
        gens.append(tuple(exps))
    return MonomialIdeal(ring, frozenset(gens))


def alexander_dual(ideal: MonomialIdeal) -> MonomialIdeal:
    """Squarefree Alexander dual: generators are the minimal transversals of
    the generator supports. An involution on squarefree ideals."""
    if not is_squarefree(ideal):
        raise InputError("Alexander dual implemented for squarefree ideals")
    support_masks = [mask_of(support(g)) for g in ideal.gens]
    gens = []
    for h in minimal_hitting_sets(support_masks):
        exps = [0] * ideal.ring.num_vars
        for i in iter_bits(h):
            exps[i] = 1
        gens.append(tuple(exps))
    return MonomialIdeal(ideal.ring, frozenset(gens))


# ---------------------------------------------------------------------------
# text and JSON forms
# ---------------------------------------------------------------------------

_FACTOR_RE = re.compile(r"^x([0-9]+)(?:_([0-9]+))?(?:\^([0-9]+))?$")


def format_monomial(ring: Ring, mono: Monomial) -> str:
    parts = []
    for lab, e in zip(ring.labels, mono):
        if e == 1:
            parts.append(var_name(lab))
        elif e > 1:
            parts.append(f"{var_name(lab)}^{e}")
    return " ".join(parts)


def format_ideal_text(ideal: MonomialIdeal) -> str:
    return "(" + ", ".join(format_monomial(ideal.ring, g) for g in ideal.sorted_gens()) + ")"


def parse_ideal_text(text: str, ring: Ring | None = None) -> MonomialIdeal:
    """Parse the canonical text form over `ring`, by default the space its
    labels infer (x1..x3 from base x3; the labels themselves if layered, as
    x3_2). Indices, layers and exponents are at least 1, and every generator
    has a variable: `(0)`, `(1)` and `(1, x2)` are not ideal literals."""
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ParseError("ideal literal must be wrapped in parentheses")
    body = body[1:-1].strip()
    terms = [t.strip() for t in body.split(",")]
    if any(not t for t in terms):
        raise ParseError("empty generator in ideal literal")
    parsed: list[dict] = []
    labels: set = set()
    layered = None
    for term in terms:
        factors = {}
        for factor in term.split():
            m = _FACTOR_RE.match(factor)
            if not m:
                raise ParseError(f"bad monomial factor {factor!r}")
            i, p, e = m.groups()
            if int(i) == 0 or p is not None and int(p) == 0:
                raise ParseError(f"variable {factor!r} needs indices >= 1")
            lab = (int(i), int(p)) if p is not None else int(i)
            is_layer = p is not None
            if layered is None:
                layered = is_layer
            elif layered != is_layer:
                raise ParseError("cannot mix base and layered variables")
            exp = int(e or 1)
            if exp == 0:
                raise ParseError(f"factor {factor!r} needs an exponent >= 1")
            if lab in factors:
                raise ParseError(f"repeated variable in {term!r}")
            factors[lab] = exp
            labels.add(lab)
        parsed.append(factors)
    if ring is None:
        ring = layered_ring(labels) if layered else base_ring(max(labels))
    gens = []
    for factors in parsed:
        exps = [0] * ring.num_vars
        for lab, e in factors.items():
            exps[ring.index(lab)] = e
        gens.append(tuple(exps))
    return monomial_ideal(ring, gens)


def ideal_to_json(ideal: MonomialIdeal) -> dict:
    labels = [list(lab) if isinstance(lab, tuple) else lab for lab in ideal.ring.labels]
    return {"vars": labels, "gens": [list(g) for g in ideal.sorted_gens()]}
