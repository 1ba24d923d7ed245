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

from .arrangement import Arrangement, _require_essential
from .errors import InvariantError, PreconditionError
from .exact_algebra import (
    LaurentPoly,
    RationalUni,
    _b2_at,
    _b2_expand,
    _charge_reduction,
    _clear,
    exact_div,
    palindromic_check,
)
from .igusa import IgusaZeta, _chain_sums, level_sets


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

    def to_json(self):
        return {"poly": {str(e): str(c) for e, c in self.b_prime.items()},
                "palindromic": self.palindromic, "degree": self.degree,
                "declared_degree": self.declared_degree,
                "degree_discrepancy": self.degree_discrepancy,
                "positive_coeffs_observed": self.positive_coeffs}


def b_mu(arrangement: Arrangement, lat) -> RationalUni:
    """Chain-sum value of the normalized limit, as a reduced degree-0
    rational function of q, over ``lat``, the lattice of flats or the
    ``chain_poset`` of the arrangement: the sums of ``_chain_sums`` at
    t = q^m, plus the top's 1.  There t/(q^delta - t) is 1/(q^(delta-m) - 1),
    so they are cleared by ``_clear`` over the factors q^(delta-m) - t, read
    at t = 1 and reduced once."""
    _require_essential(arrangement, coloop_free=True)
    m = arrangement.m
    deltas, sums = _chain_sums(lat)
    if deltas and deltas[0] <= m:
        raise InvariantError("delta - m must be positive off the top")
    sums[(0,) * len(deltas)] = {0: 1}
    num, den = _clear(sums, [a - m for a in deltas])
    num = _b2_at(num, 0)
    _charge_reduction(num, den)
    total = RationalUni(num, _b2_at(_b2_expand(den), 0))
    if total.degree() != 0:
        raise InvariantError("normalized limit is not of degree 0")
    return total


def b_mu_via_residue(zeta: IgusaZeta, m: int) -> RationalUni:
    """q^m (q^(s+m) - 1)/(q^m - 1) * I at s = -m; requires a simple pole.
    The reduction is charged over q^m - 1 and q^|a-m| - 1."""
    orders = zeta.value.pole_orders()
    if orders.get(m, 0) != 1:
        raise PreconditionError(
            f"pole at -{m} is not simple (order {orders.get(m, 0)})")
    # times (q^m - t)/t, cancelling the simple factor, at t = q^m
    e1, e2 = zeta.value.unit
    rest = [(a, mu) for a, mu in zeta.value.den if a != m]
    num = _b2_at(zeta.value.num, m).shift(m)
    _charge_reduction(num, [(abs(a - m), mu) for a, mu in rest] + [(m, 1)])
    return RationalUni(num,
                       _b2_at(_b2_expand(rest), m).shift(e1 + m * (e2 + 1))
                       * LaurentPoly("q", {m: 1, 0: -1}))


def b_prime(arrangement: Arrangement, lat) -> ResidueData:
    """num(B_mu) times the clearing factor, divided once, exactly, by
    den(B_mu); a remainder means the factor does not clear B_mu."""
    m = arrangement.m
    base = b_mu(arrangement, lat)
    cleared = base.num.shift(m)
    declared_degree = m
    for eps, lv in sorted(level_sets(lat).items()):
        if eps == -m:
            continue
        a = -eps - m
        # the q-integer [a]_q = (q^a - 1)/(q - 1) = 1 + q + ... + q^(a-1)
        factor = LaurentPoly("q", {e: 1 for e in range(a)})
        cleared = cleared * factor ** (lv.length + 1)
        declared_degree += a * (lv.length + 1)
    poly = exact_div(cleared, base.den, "expected denominator does not "
                     "clear the normalized limit")
    if not poly.is_polynomial():
        raise InvariantError("cleared numerator has negative exponents")
    palindromic, degree = palindromic_check(poly)
    if not palindromic:
        raise InvariantError(
            f"numerator {poly.to_str()} is not palindromic at degree {degree}")
    positive = all(c > 0 for _, c in poly.items())
    return ResidueData(base, poly, degree, declared_degree, positive)
