"""Exact arithmetic foundation: Laurent polynomials, univariate rational
functions, two-variable rational functions with factored denominators, and
truncated multivariate power series.

Representations
---------------
LaurentPoly   sparse dict {exponent: coefficient} with int (arbitrary
              precision) coefficients; exponents may be negative; zero
              coefficients are never stored.  A variable tag ("L", "q",
              "t", ...) guards against mixing incompatible values.

RationalUni   quotient num/den of Laurent polynomials in one variable,
              kept fully reduced with a canonical representative:
              den = c * prod Phi_d^k with c >= 1 and Phi_d the d-th
              cyclotomic polynomial, coprime to num in Z[x].  A
              denominator factor other than an integer, a monomial or
              some Phi_d raises UnsupportedDenominatorError.

BiRational    value num(q,t) / (q^e1 * t^e2 * prod (q^a - t)^mu) where
              num is a polynomial dict over exponent pairs and every
              denominator factor is a binomial q^a - t with a >= 1.
              Substituting t = q^(-s) turns the factor (q^a - t) of
              multiplicity mu into a pole of order mu at s = -a, since
              q^(s+a) - 1 = (q^a - t)/t.  Canonical form: num has minimal
              exponent 0 in both variables and no denominator factor
              divides num.

MultiSeries   truncated power series in r variables with RationalUni
              coefficients, all exponent vectors of total degree <= bound.

Everything is immutable after construction and safe to share.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import (
    InvariantError,
    NotDivisibleError,
    ParseError,
    PreconditionError,
    UnsupportedDenominatorError,
)


# ---------------------------------------------------------------------------
# Laurent polynomials in one variable
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Sparse Laurent polynomial with big-integer coefficients."""

    __slots__ = ("var", "_c")

    def __init__(self, var: str, coeffs=None):
        self.var = var
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    clean[int(e)] = int(c)
        self._c = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, var: str) -> "LaurentPoly":
        return cls(var)

    @classmethod
    def const(cls, var: str, c: int) -> "LaurentPoly":
        return cls(var, {0: c})

    @classmethod
    def one(cls, var: str) -> "LaurentPoly":
        return cls.const(var, 1)

    @classmethod
    def monomial(cls, var: str, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls(var, {exp: coeff})

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def is_polynomial(self) -> bool:
        """True when no negative exponent is present (zero counts)."""
        return all(e >= 0 for e in self._c)

    def is_one(self) -> bool:
        return self._c == {0: 1}

    def coeff(self, e: int) -> int:
        return self._c.get(e, 0)

    def items(self):
        """Sorted (exponent, coefficient) pairs, ascending exponent."""
        return sorted(self._c.items())

    def degree(self) -> int:
        """Largest exponent; raises on the zero polynomial."""
        if not self._c:
            raise ValueError("degree of zero polynomial")
        return max(self._c)

    def low_degree(self) -> int:
        if not self._c:
            raise ValueError("low degree of zero polynomial")
        return min(self._c)

    def leading_coeff(self) -> int:
        return self._c[self.degree()]

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "LaurentPoly"):
        if self.var != other.var:
            raise PreconditionError(
                f"variable-tag mismatch: {self.var!r} vs {other.var!r}")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        c = dict(self._c)
        for e, v in other._c.items():
            c[e] = c.get(e, 0) + v
        return LaurentPoly(self.var, c)

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __neg__(self):
        return LaurentPoly(self.var, {e: -c for e, c in self._c.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        c = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + v1 * v2
        return LaurentPoly(self.var, c)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a Laurent polynomial")
        out = LaurentPoly.one(self.var)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def _coerce(self, other):
        if isinstance(other, int):
            return LaurentPoly.const(self.var, other)
        return other

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(self.var, other)
        return (isinstance(other, LaurentPoly)
                and self.var == other.var and self._c == other._c)

    def __hash__(self):
        return hash((self.var, frozenset(self._c.items())))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by var**k."""
        return LaurentPoly(self.var, {e + k: c for e, c in self._c.items()})

    def reverse(self) -> "LaurentPoly":
        """Substitute var -> var**(-1)."""
        return LaurentPoly(self.var, {-e: c for e, c in self._c.items()})

    def rename(self, var: str) -> "LaurentPoly":
        return LaurentPoly(var, self._c)

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        if not self._c and x == 0:
            return Fraction(0)
        total = Fraction(0)
        for e, c in self._c.items():
            total += c * x ** e
        return total

    # -- display / serialization --------------------------------------------

    def __repr__(self):
        return f"LaurentPoly({self.to_str()!r})"

    def to_str(self, var=None) -> str:
        var = var or self.var
        if not self._c:
            return "0"
        parts = []
        for e, c in sorted(self._c.items(), reverse=True):
            if e == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}{var}" if e == 1 else f"{mag}{var}^{e}"
            parts.append(("- " if c < 0 else "+ ") + term)
        lead = parts[0][2:] if parts[0][0] == "+" else "-" + parts[0][2:]
        return " ".join([lead] + parts[1:])

    def to_json(self) -> dict:
        return {
            "var": self.var,
            "coeffs": {str(e): str(c) for e, c in self.items()},
        }

    @classmethod
    def from_json(cls, obj) -> "LaurentPoly":
        try:
            return cls(obj["var"],
                       {int(e): int(c) for e, c in obj["coeffs"].items()})
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad LaurentPoly JSON: {exc}") from exc


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact quotient a/b in the Laurent ring; NotDivisibleError otherwise."""
    a._check(b)
    if b.is_zero():
        raise PreconditionError("division by the zero polynomial")
    if a.is_zero():
        return LaurentPoly.zero(a.var)
    la, lb = a.low_degree(), b.low_degree()
    qa = {e - la: c for e, c in a._c.items()}
    qb = {e - lb: c for e, c in b._c.items()}
    quot = _poly_div_exact(qa, qb)
    if quot is None:
        raise NotDivisibleError(f"{b.to_str()} does not divide {a.to_str()}")
    return LaurentPoly(a.var, {e + la - lb: c for e, c in quot.items()})


def palindromic_check(p: LaurentPoly):
    """Return (is_palindromic, degree) for a genuine nonzero polynomial."""
    if p.is_zero():
        raise PreconditionError("palindromic check on the zero polynomial")
    if not p.is_polynomial():
        raise PreconditionError("palindromic check needs a genuine polynomial")
    d = p.degree()
    ok = all(p.coeff(e) == p.coeff(d - e) for e in range(d + 1))
    return ok, d


# -- integer polynomial helpers (dicts with exponents >= 0) -----------------

def _poly_div_exact(a: dict, b: dict):
    """Exact quotient of integer polynomial dicts; None when b does not
    divide a in Z[x]."""
    db = max(b)
    lb = b[db]
    da = max(a)
    if da < db:
        return None
    rem = [a.get(e, 0) for e in range(da + 1)]
    quot = {}
    for top in range(da, db - 1, -1):
        if not rem[top]:
            continue
        q, r = divmod(rem[top], lb)
        if r:
            return None
        quot[top - db] = q
        for e, c in b.items():
            rem[top - db + e] -= q * c
    if any(rem[:db]):
        return None
    return quot


_CYCLOTOMIC = {}


def _cyclotomic(d: int) -> dict:
    """Phi_d = (x^d - 1) / prod of Phi_e over proper divisors e of d,
    cached; callers must not mutate the result."""
    out = _CYCLOTOMIC.get(d)
    if out is None:
        out = {d: 1, 0: -1}
        for e in range(1, d):
            if d % e == 0:
                out = _poly_div_exact(out, _cyclotomic(e))
        _CYCLOTOMIC[d] = out
    return out


# ---------------------------------------------------------------------------
# Univariate rational functions
# ---------------------------------------------------------------------------

class RationalUni:
    """Reduced fraction of Laurent polynomials in one variable."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        num._check(den)
        if den.is_zero():
            raise PreconditionError("rational function with zero denominator")
        var = num.var
        if num.is_zero():
            self.num = LaurentPoly.zero(var)
            self.den = LaurentPoly.one(var)
            return
        ln, ld = num.low_degree(), den.low_degree()
        pn = {e - ln: c for e, c in num._c.items()}
        pd = {e - ld: c for e, c in den._c.items()}
        # pd = c * prod Phi_d^k: strip the factors Phi_1, Phi_2, ... from a
        # copy of pd and cancel each one that also divides pn.  A factor
        # Phi_e of a degree-D rest has sqrt(e/2) <= phi(e) <= D, so once
        # d > 2 D^2 no cyclotomic factor is left to find.
        rest = pd
        d = 0
        while max(rest):
            d += 1
            if d > 2 * max(rest) ** 2:
                raise UnsupportedDenominatorError(
                    f"denominator {den.to_str()} has a factor other than "
                    "an integer, a monomial and cyclotomic polynomials")
            phi = _cyclotomic(d)
            cancel = True
            while True:
                quot = _poly_div_exact(rest, phi)
                if quot is None:
                    break
                rest = quot
                if cancel:
                    quot = _poly_div_exact(pn, phi)
                    cancel = quot is not None
                    if cancel:
                        pn = quot
                        pd = _poly_div_exact(pd, phi)
        # rest is now the leading coefficient of pd and, by Gauss's lemma,
        # its content up to sign
        g = math.gcd(rest[0], *pn.values())
        if rest[0] < 0:
            g = -g
        if g != 1:
            pn = {e: c // g for e, c in pn.items()}
            pd = {e: c // g for e, c in pd.items()}
        self.num = LaurentPoly(var, {e + ln - ld: c for e, c in pn.items()})
        self.den = LaurentPoly(var, pd)

    @classmethod
    def from_laurent(cls, p: LaurentPoly) -> "RationalUni":
        return cls(p, LaurentPoly.one(p.var))

    @classmethod
    def const(cls, var: str, c: int) -> "RationalUni":
        return cls.from_laurent(LaurentPoly.const(var, c))

    @classmethod
    def zero(cls, var: str) -> "RationalUni":
        return cls.const(var, 0)

    @classmethod
    def one(cls, var: str) -> "RationalUni":
        return cls.const(var, 1)

    @property
    def var(self) -> str:
        return self.num.var

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_laurent(self) -> bool:
        return self.den.is_one()

    def as_laurent(self) -> LaurentPoly:
        if not self.den.is_one():
            raise InvariantError(
                f"({self.num.to_str()})/({self.den.to_str()}) "
                "is not a Laurent polynomial")
        return self.num

    def degree(self) -> int:
        """Rational-function degree: deg num - deg den."""
        if self.is_zero():
            raise ValueError("degree of zero")
        return self.num.degree() - self.den.degree()

    def __add__(self, other):
        other = self._coerce(other)
        return RationalUni(self.num * other.den + other.num * self.den,
                           self.den * other.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __neg__(self):
        return RationalUni(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalUni(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalUni(self.num * other.den, self.den * other.num)

    def __pow__(self, k: int):
        if k < 0:
            return RationalUni(self.den, self.num) ** (-k)
        out = RationalUni.one(self.var)
        for _ in range(k):
            out = out * self
        return out

    def _coerce(self, other):
        if isinstance(other, int):
            return RationalUni.const(self.var, other)
        if isinstance(other, LaurentPoly):
            return RationalUni.from_laurent(other)
        return other

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = self._coerce(other)
        return (isinstance(other, RationalUni)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def evaluate(self, x) -> Fraction:
        d = self.den.evaluate(x)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {x}")
        return self.num.evaluate(x) / d

    def __repr__(self):
        return f"RationalUni({self.to_str()!r})"

    def to_str(self) -> str:
        if self.den.is_one():
            return self.num.to_str()
        return f"({self.num.to_str()}) / ({self.den.to_str()})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, obj) -> "RationalUni":
        try:
            return cls(LaurentPoly.from_json(obj["num"]),
                       LaurentPoly.from_json(obj["den"]))
        except KeyError as exc:
            raise ParseError(f"bad RationalUni JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Two-variable rational functions with factored denominators
# ---------------------------------------------------------------------------

def _b2_mul(a: dict, b: dict) -> dict:
    out = {}
    for (e1, f1), c1 in a.items():
        for (e2, f2), c2 in b.items():
            k = (e1 + e2, f1 + f2)
            v = out.get(k, 0) + c1 * c2
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def _b2_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        v = out.get(k, 0) + c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _b2_factor(a: int) -> dict:
    """The binomial q^a - t."""
    return {(a, 0): 1, (0, 1): -1}


_FACTOR_POWERS = {}


def _b2_factor_power(a: int, k: int) -> dict:
    """(q^a - t)^k, cached; callers must not mutate the result."""
    key = (a, k)
    out = _FACTOR_POWERS.get(key)
    if out is None:
        out = (_b2_factor(a) if k == 1
               else _b2_mul(_b2_factor_power(a, k - 1), _b2_factor(a)))
        _FACTOR_POWERS[key] = out
    return out


def _b2_div_factor(num: dict, a: int):
    """Exact quotient num / (q^a - t), or None.

    Treating num as a polynomial in t with Laurent-q coefficients, divide
    synthetically by (t - q^a) and negate; exact iff num vanishes at t = q^a.
    Laurent input is handled by shifting the t-window and shifting back.
    """
    if not num:
        return {}
    mt = min(f for (_, f) in num)
    if mt:
        quot = _b2_div_factor({(e, f - mt): c for (e, f), c in num.items()},
                              a)
        if quot is None:
            return None
        return {(e, f + mt): c for (e, f), c in quot.items()}
    by_t = {}
    for (eq, et), c in num.items():
        by_t.setdefault(et, {})[eq] = c
    d = max(by_t)
    if d == 0:
        return None
    h = {}                      # coefficients of the synthetic quotient
    carry = {}
    for j in range(d, 0, -1):
        c_j = by_t.get(j, {})
        carry = _b2_add({(e, 0): c for e, c in c_j.items()},
                        {(e + a, f): c for (e, f), c in carry.items()})
        h[j - 1] = carry
    c0 = by_t.get(0, {})
    rem = _b2_add({(e, 0): c for e, c in c0.items()},
                  {(e + a, f): c for (e, f), c in carry.items()})
    if rem:
        return None
    out = {}
    for j, cj in h.items():
        for (eq, _), c in cj.items():
            out[(eq, j)] = -c
    return out


class BiRational:
    """num(q,t) / (q^e1 * t^e2 * prod (q^a - t)^mu), fully reduced.

    The constructor reduces: it tries each denominator factor by exact
    division.  Operations that cannot create a common factor (a monomial
    or q-polynomial multiple, negation) skip that step, and ``sum`` adds
    any number of terms with one reduction at the end."""

    __slots__ = ("num", "unit", "den")

    def __init__(self, num: dict, unit=(0, 0), den=()):
        num = {k: int(c) for k, c in num.items() if c}
        den_acc = {}
        for a, mu in den:
            a, mu = int(a), int(mu)
            if a < 1:
                raise UnsupportedDenominatorError(
                    f"denominator factor q^{a} - t outside the supported family")
            if mu < 0:
                raise UnsupportedDenominatorError("negative multiplicity")
            if mu:
                den_acc[a] = den_acc.get(a, 0) + mu
        e1, e2 = int(unit[0]), int(unit[1])
        if not num:
            self.num = {}
            self.unit = (0, 0)
            self.den = ()
            return
        # absorb monomial content into the unit, then reduce; division by
        # q^a - t preserves minimal exponent 0 in both variables
        mq = min(e for (e, _) in num)
        mt = min(f for (_, f) in num)
        if mq or mt:
            num = {(e - mq, f - mt): c for (e, f), c in num.items()}
            e1, e2 = e1 - mq, e2 - mt
        for a in sorted(den_acc):
            while den_acc[a]:
                quot = _b2_div_factor(num, a)
                if quot is None:
                    break
                num = quot
                den_acc[a] -= 1
        self.num = num
        self.unit = (e1, e2)
        self.den = tuple(sorted((a, mu) for a, mu in den_acc.items() if mu))

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_reduced(cls, num: dict, unit, den) -> "BiRational":
        """Instance from parts already in canonical form; no reduction."""
        out = object.__new__(cls)
        out.num = num
        out.unit = unit
        out.den = den
        return out

    @classmethod
    def sum(cls, terms, unit=(0, 0), den=()) -> "BiRational":
        """Sum of terms over q^unit[0] t^unit[1] prod (q^a - t)^mu (den),
        reduced once.

        Terms with equal denominators are added after aligning their units
        (Laurent shifts, no multiplication).  Each such group is then
        lifted once to the lcm of the group denominators by cached powers
        (q^a - t)^k, and the constructor reduces the total."""
        groups = {}
        for x in terms:
            acc = groups.setdefault(x.den, {})
            e1, e2 = x.unit
            for (e, f), c in x.num.items():
                k = (e - e1, f - e2)
                v = acc.get(k, 0) + c
                if v:
                    acc[k] = v
                else:
                    del acc[k]
        groups = {d: num for d, num in groups.items() if num}
        lcm = {}
        for d in groups:
            for a, mu in d:
                if mu > lcm.get(a, 0):
                    lcm[a] = mu
        total = {}
        for d, num in groups.items():
            have = dict(d)
            extra = None
            for a, top in lcm.items():
                k = top - have.get(a, 0)
                if k:
                    power = _b2_factor_power(a, k)
                    extra = power if extra is None else _b2_mul(extra, power)
            if extra is not None:
                num = _b2_mul(num, extra)
            for k, c in num.items():
                v = total.get(k, 0) + c
                if v:
                    total[k] = v
                else:
                    del total[k]
        return cls(total, unit, list(lcm.items()) + list(den))

    @classmethod
    def zero(cls) -> "BiRational":
        return cls({})

    @classmethod
    def one(cls) -> "BiRational":
        return cls({(0, 0): 1})

    @classmethod
    def const(cls, c: int) -> "BiRational":
        return cls({(0, 0): c})

    @classmethod
    def from_q_poly(cls, p: LaurentPoly) -> "BiRational":
        return cls({(e, 0): c for e, c in p._c.items()})

    @classmethod
    def monomial(cls, eq: int, et: int, c: int = 1) -> "BiRational":
        return cls({(eq, et): c})

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def pole_orders(self) -> dict:
        """Map a -> multiplicity of the reduced factor (q^a - t)."""
        return dict(self.den)

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        other = self._coerce(other)
        den = list(self.den) + list(other.den)
        unit = (self.unit[0] + other.unit[0], self.unit[1] + other.unit[1])
        return BiRational(_b2_mul(self.num, other.num), unit, den)

    def __add__(self, other):
        return BiRational.sum((self, self._coerce(other)))

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __neg__(self):
        return BiRational._from_reduced(
            {k: -c for k, c in self.num.items()}, self.unit, self.den)

    def _coerce(self, other):
        if isinstance(other, int):
            return BiRational.const(other)
        if isinstance(other, LaurentPoly):
            return BiRational.from_q_poly(other)
        return other

    __radd__ = __add__
    __rmul__ = __mul__

    def over_factor(self, a: int, mu: int = 1) -> "BiRational":
        """Divide by (q^a - t)^mu."""
        return BiRational(self.num, self.unit,
                          list(self.den) + [(a, mu)])

    def times_unit(self, dq: int, dt: int) -> "BiRational":
        """Multiply by the monomial q^dq * t^dt."""
        return BiRational._from_reduced(
            self.num, (self.unit[0] - dq, self.unit[1] - dt), self.den)

    def times_q_poly(self, p: LaurentPoly) -> "BiRational":
        """Multiply by a Laurent polynomial in q alone, with no reduction:
        q^a - t is irreducible and divides no nonzero polynomial in q, so
        it divides the product only if it already divides num."""
        if self.is_zero() or p.is_zero():
            return BiRational.zero()
        low = p.low_degree()
        num = _b2_mul(self.num, {(e - low, 0): c for e, c in p._c.items()})
        return BiRational._from_reduced(
            num, (self.unit[0] - low, self.unit[1]), self.den)

    def __eq__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = self._coerce(other)
        return (isinstance(other, BiRational)
                and self.num == other.num
                and self.unit == other.unit
                and self.den == other.den)

    def __hash__(self):
        return hash((frozenset(self.num.items()), self.unit, self.den))

    def cross_equal(self, other: "BiRational") -> bool:
        """Equality by cross-multiplication of fully expanded forms."""
        left = _b2_mul(self.num, other.expanded_den())
        right = _b2_mul(other.num, self.expanded_den())
        # align units
        du = (other.unit[0] - self.unit[0], other.unit[1] - self.unit[1])
        left = {(e + du[0], f + du[1]): c for (e, f), c in left.items()}
        return left == right

    def expanded_den(self) -> dict:
        out = {(0, 0): 1}
        for a, mu in self.den:
            for _ in range(mu):
                out = _b2_mul(out, _b2_factor(a))
        return out

    # -- substitutions ------------------------------------------------------

    def shift_s(self, c: int) -> "BiRational":
        """Substitute t -> q^(-c) t, i.e. shift s -> s + c."""
        num = {(eq - c * et, et): v for (eq, et), v in self.num.items()}
        mu_total = sum(mu for _, mu in self.den)
        den = [(a + c, mu) for a, mu in self.den]
        unit = (self.unit[0] - c * self.unit[1] - c * mu_total, self.unit[1])
        return BiRational(num, unit, den)

    def invert_vars(self) -> "BiRational":
        """Substitute (q, t) -> (q^(-1), t^(-1))."""
        mu_total = sum(mu for _, mu in self.den)
        a_total = sum(a * mu for a, mu in self.den)
        sign = -1 if mu_total % 2 else 1
        num = {(-eq, -et): sign * v for (eq, et), v in self.num.items()}
        unit = (-self.unit[0] - a_total, -self.unit[1] - mu_total)
        return BiRational(num, unit, self.den)

    def substitute_t_qpower(self, mexp: int) -> RationalUni:
        """Substitute t = q^mexp, returning a univariate rational function."""
        num = {}
        for (eq, et), c in self.num.items():
            e = eq + mexp * et
            num[e] = num.get(e, 0) + c
        num_l = LaurentPoly("q", num)
        den_l = LaurentPoly.monomial("q", self.unit[0] + mexp * self.unit[1])
        for a, mu in self.den:
            if a == mexp:
                raise PreconditionError(
                    f"substitution t = q^{mexp} hits the factor q^{a} - t")
            den_l = den_l * (LaurentPoly("q", {a: 1, mexp: -1}) ** mu)
        return RationalUni(num_l, den_l)

    def evaluate(self, q0, t0) -> Fraction:
        q0, t0 = Fraction(q0), Fraction(t0)
        total = Fraction(0)
        for (eq, et), c in self.num.items():
            total += c * q0 ** eq * t0 ** et
        den = q0 ** self.unit[0] * t0 ** self.unit[1]
        for a, mu in self.den:
            den *= (q0 ** a - t0) ** mu
        if den == 0:
            raise ZeroDivisionError("denominator vanishes")
        return total / den

    def expand_in_t(self, q0: int, order: int):
        """First order+1 coefficients of the t-power-series at q = q0."""
        if q0 < 2:
            raise PreconditionError("expansion point must satisfy q0 >= 2")
        by_t = {}
        for (eq, et), c in self.num.items():
            te = et - self.unit[1]
            by_t[te] = by_t.get(te, Fraction(0)) + Fraction(c) * Fraction(q0) ** eq
        if any(te < 0 and v for te, v in by_t.items()):
            raise PreconditionError("pole at t = 0 after substitution")
        series = [Fraction(0)] * (order + 1)
        for te, v in by_t.items():
            if te <= order:
                series[te] = v
        scale = Fraction(1, q0 ** self.unit[0])
        series = [scale * v for v in series]
        for a, mu in self.den:
            base = q0 ** a
            if base == 0:
                raise PreconditionError("denominator factor vanishes")
            geom = [Fraction(1, base ** (k + 1)) for k in range(order + 1)]
            for _ in range(mu):
                out = [Fraction(0)] * (order + 1)
                for i in range(order + 1):
                    si = series[i]
                    if not si:
                        continue
                    for j in range(order + 1 - i):
                        out[i + j] += si * geom[j]
                series = out
        return series

    # -- display / serialization --------------------------------------------

    def __repr__(self):
        return f"BiRational({self.to_plain()!r})"

    def _s_form(self):
        """Group numerator monomials by power of q^s after clearing units.

        value = num * t^(-e2-M) * q^(-e1) / prod (q^(s+a)-1)^mu with
        M = total denominator multiplicity and t^j = q^(-j s).
        Returns (qshift, {s_power: LaurentPoly in q}, den list).
        """
        m_total = sum(mu for _, mu in self.den)
        groups = {}
        for (eq, et), c in self.num.items():
            spow = -(et - self.unit[1] - m_total)
            groups.setdefault(spow, {})[eq] = c
        return (-self.unit[0],
                {s: LaurentPoly("q", g) for s, g in sorted(groups.items(),
                                                           reverse=True)},
                self.den)

    def to_plain(self) -> str:
        if self.is_zero():
            return "0"
        qshift, groups, den = self._s_form()
        terms = []
        for s, poly in groups.items():
            body = f"({poly.to_str()})"
            if s == 0:
                terms.append(body)
            elif s == 1:
                terms.append(f"q^s*{body}")
            else:
                terms.append(f"q^({s}s)*{body}")
        num = " + ".join(terms)
        if qshift:
            num = f"q^{qshift}*[{num}]" if len(terms) > 1 else f"q^{qshift}*{num}"
        if not den:
            return num
        dparts = []
        for a, mu in den:
            f = f"(q^(s+{a})-1)"
            dparts.append(f if mu == 1 else f + f"^{mu}")
        return f"[{num}] / [{'*'.join(dparts)}]"

    def to_latex(self) -> str:
        if self.is_zero():
            return "0"
        qshift, groups, den = self._s_form()
        terms = []
        for s, poly in groups.items():
            body = poly.to_str()
            if s == 0:
                terms.append(f"\\left({body}\\right)")
            else:
                spow = "s" if s == 1 else f"{s}s"
                terms.append(f"q^{{{spow}}}\\left({body}\\right)")
        num = " + ".join(terms)
        if qshift:
            num = f"q^{{{qshift}}}\\left[{num}\\right]"
        if not den:
            return num
        dparts = []
        for a, mu in den:
            f = f"(q^{{s+{a}}}-1)"
            dparts.append(f if mu == 1 else f + f"^{{{mu}}}")
        return f"\\frac{{{num}}}{{{''.join(dparts)}}}"

    def to_json(self) -> dict:
        return {
            "unit": [self.unit[0], self.unit[1]],
            "num": [[eq, et, str(c)]
                    for (eq, et), c in sorted(self.num.items())],
            "den": [[a, mu] for a, mu in self.den],
        }

    @classmethod
    def from_json(cls, obj) -> "BiRational":
        try:
            num = {(int(eq), int(et)): int(c) for eq, et, c in obj["num"]}
            return cls(num, tuple(obj["unit"]),
                       [(int(a), int(mu)) for a, mu in obj["den"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad BiRational JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Truncated multivariate power series
# ---------------------------------------------------------------------------

def _exponents(nvars: int, bound: int):
    """All exponent vectors with total degree <= bound, graded lexicographic."""
    for total in range(bound + 1):
        for cuts in itertools.combinations(range(total + nvars - 1), nvars - 1):
            prev = -1
            vec = []
            for c in cuts:
                vec.append(c - prev - 1)
                prev = c
            vec.append(total + nvars - 1 - prev - 1)
            yield tuple(vec)


class MultiSeries:
    """Power series in nvars variables truncated at total degree bound,
    with RationalUni coefficients."""

    __slots__ = ("nvars", "bound", "var", "coeffs")

    def __init__(self, nvars: int, bound: int, coeffs=None, var: str = "L"):
        if nvars < 1:
            raise PreconditionError("series needs at least one variable")
        self.nvars = nvars
        self.bound = bound
        self.var = var
        clean = {}
        if coeffs:
            for v, c in coeffs.items():
                v = tuple(int(x) for x in v)
                if len(v) != nvars or any(x < 0 for x in v):
                    raise PreconditionError(f"bad exponent vector {v}")
                if sum(v) <= bound and not c.is_zero():
                    clean[v] = c
        self.coeffs = clean

    @classmethod
    def zero(cls, nvars: int, bound: int, var: str = "L") -> "MultiSeries":
        return cls(nvars, bound, {}, var)

    @classmethod
    def one(cls, nvars: int, bound: int, var: str = "L") -> "MultiSeries":
        return cls(nvars, bound, {(0,) * nvars: RationalUni.one(var)}, var)

    def coeff(self, v) -> RationalUni:
        return self.coeffs.get(tuple(v), RationalUni.zero(self.var))

    def _check(self, other):
        if (self.nvars, self.bound, self.var) != (other.nvars, other.bound,
                                                  other.var):
            raise PreconditionError("series shape mismatch")

    def __mul__(self, other):
        self._check(other)
        c = {}
        for v1, x1 in self.coeffs.items():
            for v2, x2 in other.coeffs.items():
                v = tuple(a + b for a, b in zip(v1, v2))
                if sum(v) > self.bound:
                    continue
                c[v] = c.get(v, RationalUni.zero(self.var)) + x1 * x2
        return MultiSeries(self.nvars, self.bound, c, self.var)

    def __eq__(self, other):
        return (isinstance(other, MultiSeries)
                and (self.nvars, self.bound, self.var)
                == (other.nvars, other.bound, other.var)
                and self.coeffs == other.coeffs)

    def __repr__(self):
        inner = ", ".join(f"{v}: {c.to_str()}"
                          for v, c in sorted(self.coeffs.items()))
        return f"MultiSeries({{{inner}}})"


def series_div(num: MultiSeries, den: MultiSeries) -> MultiSeries:
    """Truncated quotient; den must have an invertible constant term."""
    num._check(den)
    origin = (0,) * num.nvars
    c0 = den.coeff(origin)
    if c0.is_zero():
        raise PreconditionError("series division by zero constant term")
    res = {}
    for v in _exponents(num.nvars, num.bound):
        acc = num.coeff(v)
        for u, du in den.coeffs.items():
            if u == origin:
                continue
            w = tuple(a - b for a, b in zip(v, u))
            if any(x < 0 for x in w):
                continue
            rw = res.get(w)
            if rw is not None:
                acc = acc - du * rw
        if not acc.is_zero():
            res[v] = acc / c0
    return MultiSeries(num.nvars, num.bound, res, num.var)
