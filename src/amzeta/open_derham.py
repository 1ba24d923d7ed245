"""Closed-form class of the moduli space of connections on the trivial
rank-n bundle with d poles of prescribed orders k_1..k_d, all >= 2.

The partition sum carries half-integer exponents of L in its pieces;
internally everything is computed in the variable L^(1/2) (exponents
doubled) and the final result is checked to land in integer powers of L.
The (L-1)^(nd-1) prefactor denominator must clear exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import InvariantError, PreconditionError, charge
from .exact_algebra import LaurentPoly, exact_div
from .quiver_varieties import _partition_counts, multiplicities, partitions


class OdrInput:
    """Rank n >= 1 and pole orders k_1..k_d, each >= 2."""

    __slots__ = ("n", "orders", "total", "d")

    def __init__(self, n: int, orders):
        orders = tuple(int(k) for k in orders)
        if n < 1:
            raise PreconditionError("rank must be >= 1")
        if not orders:
            raise PreconditionError("at least one pole is required")
        if any(k < 2 for k in orders):
            raise PreconditionError("every pole order must be >= 2")
        self.n = n
        self.orders = orders
        self.total = sum(orders)
        self.d = len(orders)

    def dimension(self) -> int:
        n, k = self.n, self.total
        return k * (n * n - n) - 2 * (n * n - 1)


class OdrClass:
    __slots__ = ("input", "value", "positive_coeffs")

    def __init__(self, inp, value):
        self.input = inp
        self.value = value
        # positivity is observed and reported, never asserted
        self.positive_coeffs = (not value.is_zero()
                                and all(c > 0 for _, c in value.items()))


def gl_class(k: int) -> LaurentPoly:
    """prod_{i=0}^{k-1} (L^k - L^i); the empty product for k = 0."""
    if k < 0:
        raise PreconditionError("negative rank")
    out = LaurentPoly.one("L")
    for i in range(k):
        out = out * LaurentPoly("L", {k: 1, i: -1})
    return out


def _doubled(poly: LaurentPoly) -> dict:
    return {2 * e: c for e, c in poly.items()}


def odr_class(inp: OdrInput) -> OdrClass:
    """The partition sum over lambda |- n, cleared by (L-1)^(nd-1).  Before
    any work, the budget is charged n^2 (d-1) + 1 steps for each of the
    p(n) terms, a bound on the coefficients its power of the stabilizer
    class adds: 10 steps for rank 2 with two poles."""
    n, d, k = inp.n, inp.d, inp.total
    what = "open de Rham sum"
    charge(what, _partition_counts(n, what)[n] * (n * n * (d - 1) + 1))
    acc = {}
    for lam in partitions(n):
        length = len(lam)
        nsq = sum(p * p for p in lam)
        mults = multiplicities(lam)
        coef = Fraction(
            (-1) ** (length - 1) * factorial(length - 1) * factorial(n) ** d)
        denom = 1
        for p in lam:
            denom *= factorial(p) ** d
        for mult in mults.values():
            denom *= factorial(mult)
        coef /= denom
        stab = LaurentPoly.one("L")
        for p in lam:
            stab = stab * gl_class(p)
        stab_pow = stab ** (d - 1)
        shift = nsq * (k - 2 * d)            # doubled exponent of the L-power
        for e2, c in _doubled(stab_pow).items():
            key = e2 + shift
            acc[key] = acc.get(key, Fraction(0)) + coef * c
    for e2, c in acc.items():
        if c.denominator != 1:
            raise InvariantError(f"non-integer coefficient {c} at L^({e2}/2)")
    summed = LaurentPoly("H", {e2: int(c) for e2, c in acc.items()})
    lm1_doubled = LaurentPoly("H", {2: 1, 0: -1})
    cleared = exact_div(summed, lm1_doubled ** (n * d - 1),
                        f"(L-1)^{n * d - 1} does not clear the partition sum")
    prefix2 = k * (n * n - 2 * n) + 2 * n * (d - n) + 2
    final2 = cleared.shift(prefix2)
    if any(e % 2 for e, _ in final2.items()):
        raise InvariantError("half-integer exponent survives in the class")
    value = LaurentPoly("L", {e // 2: c for e, c in final2.items()})
    if not value.is_zero():
        dim = inp.dimension()
        if value.degree() != dim:
            raise InvariantError(
                f"class degree {value.degree()} != dimension {dim}")
        if value.leading_coeff() != 1:
            raise InvariantError("class is not monic")
    return OdrClass(inp, value)
