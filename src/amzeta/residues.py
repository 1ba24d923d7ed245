"""Residue of the zeta function at its largest pole -m, the associated
numerator polynomial, and the checks attached to them.

For an essential coloop-free arrangement the normalized limit of solution
counts is the degree-0 rational function

  B = sum over chains top = I_0 > I_1 > ... > I_r (r >= 0) of
      q^(rk I_r - m) * prod_i chi_[I_i, I_(i-1)](q) / (q^(d_i - m) - 1),

and the numerator polynomial is

  B' = q^m * prod over eps in P minus {-m} of
       ((q^(-eps-m) - 1)/(q - 1))^(l(eps)+1) * B.

B' must clear to a genuine polynomial and be palindromic at its actual
degree; positivity of its coefficients is reported, never asserted.  The
degree the clearing factor nominally declares, m plus the sum of
(-eps-m)(l(eps)+1), can exceed the actual degree; both are recorded and a
discrepancy flag is raised when they differ.
"""

from __future__ import annotations

from .arrangement import Arrangement, FlatLattice, structural_flags
from .errors import InvariantError, PreconditionError
from .exact_algebra import (
    BiRational,
    LaurentPoly,
    RationalUni,
    palindromic_check,
)
from .igusa import IgusaZeta, level_sets


class ResidueData:
    __slots__ = ("b_mu", "b_prime", "degree", "declared_degree",
                 "degree_discrepancy", "positive_coeffs")

    # b_prime raises InvariantError on a numerator that is not palindromic,
    # so every ResidueData it returns has one
    palindromic = True

    def __init__(self, b_mu, b_prime, degree, declared_degree,
                 positive_coeffs):
        self.b_mu = b_mu
        self.b_prime = b_prime
        self.degree = degree
        self.declared_degree = declared_degree
        self.degree_discrepancy = degree != declared_degree
        self.positive_coeffs = positive_coeffs


def _require_coloop_free(arrangement: Arrangement):
    flags = structural_flags(arrangement)
    if not flags["essential"]:
        raise PreconditionError("residue needs an essential arrangement")
    if not flags["coloop_free"]:
        raise PreconditionError(
            "arrangement has a coloop: the normalized limit diverges")


def b_mu(arrangement: Arrangement, lat: FlatLattice) -> RationalUni:
    """Chain-sum value of the normalized limit, as a reduced degree-0
    rational function of q."""
    _require_coloop_free(arrangement)
    m = arrangement.m
    order = sorted(range(len(lat.flats)), key=lambda i: -len(lat.flats[i]))
    one = RationalUni.one("q")
    V = {lat.top: one}
    for i in order:
        if i == lat.top:
            continue
        acc = RationalUni.zero("q")
        for j in lat.indices(lat.up[i] ^ (1 << i)):
            acc = acc + V[j] * RationalUni.from_laurent(
                lat.char_poly_interval(i, j))
        d = lat.delta(i) - m
        if d <= 0:
            raise InvariantError("delta - m must be positive off the top")
        V[i] = acc / RationalUni.from_laurent(LaurentPoly("q", {d: 1, 0: -1}))
    total = RationalUni.zero("q")
    for i in order:
        total = total + V[i] * RationalUni.from_laurent(
            LaurentPoly.monomial("q", lat.ranks[i] - m))
    if total.degree() != 0:
        raise InvariantError("normalized limit is not of degree 0")
    return total


def b_mu_via_residue(zeta: IgusaZeta, m: int) -> RationalUni:
    """q^m (q^(s+m) - 1)/(q^m - 1) * I at s = -m; requires a simple pole."""
    orders = zeta.value.pole_orders()
    if orders.get(m, 0) != 1:
        raise PreconditionError(
            f"pole at -{m} is not simple (order {orders.get(m, 0)})")
    # multiply by (q^m - t)/t, cancelling the simple factor, then set t = q^m
    cancelled = BiRational(zeta.value.num,
                           (zeta.value.unit[0], zeta.value.unit[1] + 1),
                           [(a, mu) for a, mu in zeta.value.den if a != m])
    value = cancelled.substitute_t_qpower(m)
    scale = RationalUni(LaurentPoly.monomial("q", m),
                        LaurentPoly("q", {m: 1, 0: -1}))
    return scale * value


def b_prime(arrangement: Arrangement, lat: FlatLattice) -> ResidueData:
    _require_coloop_free(arrangement)
    m = arrangement.m
    base = b_mu(arrangement, lat)
    levels = level_sets(lat)
    value = base * RationalUni.from_laurent(LaurentPoly.monomial("q", m))
    declared_degree = m
    for eps, lv in sorted(levels.items()):
        if eps == -m:
            continue
        a = -eps - m
        # the q-integer [a]_q = (q^a - 1)/(q - 1) = 1 + q + ... + q^(a-1)
        factor = RationalUni.from_laurent(
            LaurentPoly("q", {e: 1 for e in range(a)}))
        value = value * factor ** (lv.length + 1)
        declared_degree += a * (lv.length + 1)
    try:
        poly = value.as_laurent()
    except InvariantError as exc:
        raise InvariantError(
            "expected denominator does not clear the normalized limit") from exc
    if not poly.is_polynomial():
        raise InvariantError("cleared numerator has negative exponents")
    palindromic, degree = palindromic_check(poly)
    if not palindromic:
        raise InvariantError(
            f"numerator {poly.to_str()} is not palindromic at degree {degree}")
    positive = all(c > 0 for _, c in poly.items())
    return ResidueData(base, poly, degree, declared_degree, positive)
