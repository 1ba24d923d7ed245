"""Counting one-dimensional indecomposable representations of a graph over
rings of finite depth, the normalized limit, brute-force oracles, and the
bridge to the arrangement-side numerator polynomial.

A representation assigns a scalar x_e in Z/p^alpha to every edge; it is
indecomposable exactly when the edges with x_e != 0 span a connected
subgraph.  Grouping by edge valuations gives the finite-depth polynomial

  A(alpha) = sum over nested spanning subgraphs G_1 <= ... <= G_alpha with
             G_alpha connected of (q-1)^b(G_alpha) q^(sum_{k<alpha} b(G_k)),

with b the first Betti number; the normalized limit over 2-edge-connected
graphs is

  A = (1 - 1/q)^b(G) * sum over strict chains G'_1 < ... < G'_beta = G of
      prod_{j=1}^{beta-1} 1/(q^(b(G) - b(G'_j)) - 1).

Both sums run over the Boolean lattice of edge masks.  A(alpha) takes one
subset-sum (zeta) transform per level, E * 2^E Laurent additions.  The limit
keeps every chain sum as an integer polynomial in the symbols
u_k = 1/(q^k - 1), k = 1..b(G): 3^E (mask, submask) steps of integer dict
additions, then one rational reduction of the total.
"""

from __future__ import annotations

import itertools

from .arrangement import graphic_arrangement
from .errors import (
    InvariantError,
    PreconditionError,
    charge,
    require_depth,
)
from .exact_algebra import (
    LaurentPoly,
    RationalUni,
    _b2_at,
    _b2_expand,
    _charge_reduction,
    _clear,
)
from .quiver_varieties import Quiver


# ---------------------------------------------------------------------------
# subgraph combinatorics (spanning subgraphs = edge subsets)
# ---------------------------------------------------------------------------

def components(quiver: Quiver, edge_mask: int) -> int:
    parent = list(range(quiver.vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for idx, (s, t) in enumerate(quiver.edges):
        if edge_mask >> idx & 1:
            parent[find(s - 1)] = find(t - 1)
    return len({find(v) for v in range(quiver.vertices)})


def betti(quiver: Quiver, edge_mask: int) -> int:
    """b = components - vertices + edges of the spanning subgraph."""
    edges = bin(edge_mask).count("1")
    return components(quiver, edge_mask) - quiver.vertices + edges


def is_connected(quiver: Quiver, edge_mask=None) -> bool:
    if edge_mask is None:
        edge_mask = (1 << len(quiver.edges)) - 1
    return components(quiver, edge_mask) == 1


def is_two_edge_connected(quiver: Quiver) -> bool:
    """Connected and bridgeless; parallel edges are distinct edges."""
    full = (1 << len(quiver.edges)) - 1
    if not is_connected(quiver, full):
        return False
    return all(is_connected(quiver, full & ~(1 << i))
               for i in range(len(quiver.edges)))


# ---------------------------------------------------------------------------
# the finite-depth polynomial
# ---------------------------------------------------------------------------

def a_gamma_alpha(quiver: Quiver, alpha: int) -> LaurentPoly:
    """Polynomial count of indecomposable classes at depth alpha.

    Each level is one subset-sum (zeta) transform over the 2^E edge masks,
    E * 2^E Laurent additions, instead of a sum over every pair; the
    alpha * E * 2^E additions are charged against the budget."""
    require_depth(alpha)
    if not is_connected(quiver):
        raise PreconditionError("graph must be connected")
    ne = len(quiver.edges)
    charge("depth polynomial", alpha * ne * 2 ** ne)
    masks = range(1 << ne)
    comps = [components(quiver, mask) for mask in masks]
    b = [comps[mask] - quiver.vertices + bin(mask).count("1")
         for mask in masks]
    # level[mask] = sum over nested chains ending at mask of q^(sum of
    # b-values of the earlier levels)
    level = [LaurentPoly.one("q")] * len(masks)
    for _ in range(alpha - 1):
        # level'[mask] = sum over s <= mask of level[s] q^b(s)
        level = [level[s].shift(b[s]) for s in masks]
        for i in range(ne):
            bit = 1 << i
            for mask in masks:
                if mask & bit:
                    level[mask] = level[mask] + level[mask ^ bit]
    qm1 = LaurentPoly("q", {1: 1, 0: -1})
    total = LaurentPoly.zero("q")
    for mask in masks:
        if comps[mask] == 1:
            total = total + level[mask] * qm1 ** b[mask]
    if total.degree() != alpha * b[-1]:
        raise InvariantError("depth polynomial has wrong degree")
    return total


def a_gamma_limit(quiver: Quiver) -> RationalUni:
    """Normalized limit of q^(-alpha b) A(alpha) for 2-edge-connected graphs.

    Every chain weight is u_k = 1/(q^k - 1) with k = b(G) - b(G'_j) in
    1..b(G), so the chain sums are integer polynomials in the symbols
    u_1..u_b(G), dicts from exponent tuples to ints.  The 3^E (subset,
    submask) steps are integer dict additions, charged against the budget;
    the sum becomes one rational function, reduced once, only at the end."""
    if not is_two_edge_connected(quiver):
        raise PreconditionError(
            "graph has a bridge: the normalized limit diverges")
    ne = len(quiver.edges)
    charge("normalized limit", 3 ** ne)
    full = (1 << ne) - 1
    b_top = betti(quiver, full)
    one = (0,) * b_top
    # chains of proper subgraphs below the full graph, each weighted by
    # u_k = 1/(q^(b(G)-b(G'_j)) - 1); accumulated bottom-up, submasks first
    acc = []
    total = {one: 1}
    for mask in range(full):
        inner = {one: 1}
        sub = mask
        while sub:
            sub = (sub - 1) & mask
            for e, c in acc[sub].items():
                inner[e] = inner.get(e, 0) + c
        i = b_top - betti(quiver, mask) - 1
        val = {e[:i] + (e[i] + 1,) + e[i + 1:]: c for e, c in inner.items()}
        acc.append(val)
        for e, c in val.items():
            total[e] = total.get(e, 0) + c
    num, den = _clear({e: {0: c} for e, c in total.items()},
                      range(1, b_top + 1))
    # t = 1, times the factor (1 - 1/q)^b = (q - 1)^b / q^b
    num = _b2_at(num, 0) * LaurentPoly("q", {1: 1, 0: -1}) ** b_top
    _charge_reduction(num, den)
    return RationalUni(num, _b2_at(_b2_expand(den), 0).shift(b_top))


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def _unit_weights(p: int, alpha: int):
    """Count of elements of Z/p^alpha with each valuation 0..alpha."""
    return [(p - 1) * p ** (alpha - 1 - v) if v < alpha else 1
            for v in range(alpha + 1)]


def brute_force_indec(quiver: Quiver, p: int, alpha: int) -> int:
    """Number of isomorphism classes of indecomposable all-ones
    representations over Z/p^alpha: edge valuation patterns, each weighted
    by the automorphism count (q-1)^c_alpha q^(sum c_k) via the
    orbit-count lemma.  ``_brute_force_raw`` is its reference.
    """
    require_depth(alpha)
    if not is_connected(quiver):
        raise PreconditionError("graph must be connected")
    ne = len(quiver.edges)
    charge("valuation pattern enumeration", (alpha + 1) ** ne)
    weights = _unit_weights(p, alpha)
    group_order = ((p - 1) * p ** (alpha - 1)) ** quiver.vertices
    total = 0
    for pattern in itertools.product(range(alpha + 1), repeat=ne):
        support = 0
        for i, v in enumerate(pattern):
            if v < alpha:
                support |= 1 << i
        if components(quiver, support) != 1:
            continue
        count = 1
        for v in pattern:
            count *= weights[v]
        aut = p - 1                 # the support is connected
        for k in range(1, alpha):
            mask = 0
            for i, v in enumerate(pattern):
                if v < k:
                    mask |= 1 << i
            aut *= p ** components(quiver, mask)
        total += count * aut
    classes, rest = divmod(total, group_order)
    if rest:
        raise InvariantError("orbit count is not an integer")
    return classes


def _brute_force_raw(quiver: Quiver, p: int, alpha: int) -> int:
    """``brute_force_indec`` by enumerating representations and
    canonicalizing their orbits explicitly."""
    ne = len(quiver.edges)
    mod = p ** alpha
    units = [u for u in range(1, mod) if u % p]
    charge("raw orbit enumeration", mod ** ne * len(units) ** quiver.vertices)
    seen = set()
    classes = 0
    for rep in itertools.product(range(mod), repeat=ne):
        support = 0
        for i, x in enumerate(rep):
            if x:
                support |= 1 << i
        if components(quiver, support) != 1:
            continue
        if rep in seen:
            continue
        classes += 1
        for g in itertools.product(units, repeat=quiver.vertices):
            moved = tuple(
                x * g[t - 1] * pow(g[s - 1], -1, mod) % mod
                for x, (s, t) in zip(rep, quiver.edges))
            seen.add(moved)
    return classes


# ---------------------------------------------------------------------------
# the bridge to the arrangement numerator
# ---------------------------------------------------------------------------

class LastOneReport:
    __slots__ = ("lhs", "rhs", "equal")

    def __init__(self, lhs, rhs, equal):
        self.lhs = lhs
        self.rhs = rhs
        self.equal = equal


def check_lastone(quiver: Quiver) -> LastOneReport:
    """Compare (q^b - 1)^(V-1) * A(q) with the numerator polynomial of the
    graphic arrangement, whose chain poset and walk draw on the budget
    too.  A mismatch is reported, never raised: the equality is
    conjectural."""
    limit = a_gamma_limit(quiver)
    b_top = betti(quiver, (1 << len(quiver.edges)) - 1)
    lhs = RationalUni(limit.num * LaurentPoly("q", {b_top: 1, 0: -1})
                      ** (quiver.vertices - 1), limit.den)
    arr = graphic_arrangement(quiver)
    from .igusa import chain_poset
    from .residues import b_prime
    rhs = b_prime(arr, chain_poset(arr)).b_prime
    equal = lhs.den.is_one() and lhs.num == rhs
    return LastOneReport(lhs, rhs, equal)
