"""Motivic class of the variety attached to a central essential
arrangement, together with a finite-field moment-map-fiber oracle.

The class is the Laurent polynomial obtained by clearing (L-1)^m from
L^(n-m) * sum_F nu(F, top) L^|F|; failure to clear is a hard error.  The
oracle counts pairs (v, w) in F_p^(2n) with sum v_i w_i a_i = xi for a
generic xi and certifies count / (p-1)^m = class(p) in the unimodular
essential case.
"""

from __future__ import annotations

import itertools

from .arrangement import (
    Arrangement,
    FlatLattice,
    _character_count,
    _require_essential,
    rank,
    require_prime_above_minors,
    unimodular,
)
from .errors import InvariantError, PreconditionError, _charge_running
from .exact_algebra import LaurentPoly, exact_div


class HypertoricClass:
    """Class polynomial plus the smoothness bookkeeping around it."""

    __slots__ = ("value", "unimodular", "formal")

    def __init__(self, value, unimodular):
        self.value = value
        self.unimodular = unimodular
        # without unimodularity the defining formula is evaluated formally
        self.formal = not unimodular


def hypertoric_class(arrangement: Arrangement,
                     lat: FlatLattice) -> HypertoricClass:
    """The budget bounds the scan of maximal minors for unimodularity."""
    _require_essential(arrangement)
    smooth = unimodular(arrangement)
    n, m = arrangement.n, arrangement.m
    coeffs = {}
    for i, f in enumerate(lat.flats):
        coeffs[len(f)] = coeffs.get(len(f), 0) + lat.mobius(i, lat.top)
    acc = LaurentPoly("L", coeffs)
    cleared = exact_div(acc, LaurentPoly("L", {1: 1, 0: -1}) ** m,
                        f"(L-1)^{m} does not divide the flat sum")
    value = LaurentPoly.monomial("L", n - m) * cleared
    if n >= m and not value.is_zero() and value.low_degree() < 0:
        raise InvariantError("class has negative exponents with n >= m")
    return HypertoricClass(value, smooth)


def e_polynomial(cls: HypertoricClass) -> LaurentPoly:
    """Specialize L to the single variable u (standing for the product of
    the two refinement variables)."""
    if not cls.value.is_polynomial():
        raise PreconditionError("class has negative exponents")
    return cls.value.rename("u")


# ---------------------------------------------------------------------------
# finite-field fiber oracle
# ---------------------------------------------------------------------------

def xi_is_generic(arrangement: Arrangement, lat: FlatLattice, p: int,
                  xi) -> bool:
    """xi must avoid the F_p-span of every proper flat's normals; a proper
    flat's span lies in a coatom's, so only the coatoms are tested."""
    xi = [x % p for x in xi]
    if not any(xi):
        return False
    for f, r in zip(lat.flats, lat.ranks):
        if r == lat.ranks[lat.top] - 1:
            rows = [arrangement.normals[j] for j in f]
            if rank(rows + [xi], p) == rank(rows, p):
                return False
    return True


def find_generic_xi(arrangement: Arrangement, lat: FlatLattice, p: int):
    """First generic vector in lexicographic order; exists for admissible p.
    Each candidate tried is charged the flats it may read: K6 at p = 3
    tries all 3^5 and is refused by a budget of 243 * 203 - 1."""
    for tries, xi in enumerate(
            itertools.product(range(p), repeat=arrangement.m), 1):
        _charge_running("generic vector search", tries * len(lat))
        if xi_is_generic(arrangement, lat, p, xi):
            return xi
    raise PreconditionError(f"no generic vector mod {p}")


def count_moment_fiber(arrangement: Arrangement, lat: FlatLattice, p: int,
                       xi) -> int:
    """|{(v, w) in F_p^2n : sum v_i w_i a_i = xi}| for generic xi."""
    require_prime_above_minors(arrangement, p)
    if not xi_is_generic(arrangement, lat, p, xi):
        raise PreconditionError(f"{tuple(xi)} is not generic mod {p}")
    return _character_count(arrangement.normals, p, 1, xi)[0]
