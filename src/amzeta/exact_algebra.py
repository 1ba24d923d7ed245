"""Exact arithmetic foundation: Laurent polynomials, univariate rational
functions and two-variable rational functions with factored denominators.

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

Sums over formal pole variables t/(q^d - t) (the zeta chain sum, and at
t = 1 the symbols 1/(q^d - 1) of B_mu and of the quiver limit) are
cleared by ``_clear``: one Horner pass per variable, each step a product
with the single binomial q^d - t, the counterpart of the exact division
``_b2_div_factor``.  Only ``_b2_expand`` expands prod (q^a - t)^mu, besides
the lifts of ``BiRational.__add__``, and only ``_b2_at`` reads at t = q^k.

Both constructors reduce by trial division and charge the work of each
trial, as they make it, to the one budget of errors.py, so a refusal is a
lower bound on the cost of the reduction and no caller charges one.

Errors are errors.py types: misuse (the degree of zero, a negative power, a
vanishing denominator, a pole at 0) is a PreconditionError, and a remainder
in ``exact_div`` is an InvariantError naming the cancellation that failed.

Everything is immutable after construction and safe to share.
"""

from __future__ import annotations

import math

from .errors import (
    InvariantError,
    ParseError,
    PreconditionError,
    UnsupportedDenominatorError,
    _charge_running,
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
            raise PreconditionError("degree of zero polynomial")
        return max(self._c)

    def low_degree(self) -> int:
        if not self._c:
            raise PreconditionError("low degree of zero polynomial")
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
            raise PreconditionError("negative power of a Laurent polynomial")
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
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.var == other.var and self._c == other._c

    def __hash__(self):
        # a value hashes like an equal value of a narrower type: a constant
        # as its int, and without the tag, which BiRational ignores
        if not self._c.keys() - {0}:
            return hash(self._c.get(0, 0))
        return hash(frozenset(self._c.items()))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by var**k."""
        return LaurentPoly(self.var, {e + k: c for e, c in self._c.items()})

    def rename(self, var: str) -> "LaurentPoly":
        return LaurentPoly(var, self._c)

    def evaluate(self, x) -> Fraction:
        from fractions import Fraction
        x = Fraction(x)
        if x == 0 and not self.is_polynomial():
            raise PreconditionError(f"negative power of {self.var} at 0")
        total = Fraction(0)
        for e, c in self._c.items():
            total += c * x ** e
        return total

    # -- display / serialization --------------------------------------------

    def __repr__(self):
        return f"LaurentPoly({self.to_str()!r})"

    def to_str(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e, c in sorted(self._c.items(), reverse=True):
            if e == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}{self.var}" if e == 1 else f"{mag}{self.var}^{e}"
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


def exact_div(a: LaurentPoly, b: LaurentPoly, what: str = None) -> LaurentPoly:
    """Exact quotient a/b in the Laurent ring; a remainder is an
    InvariantError, ``what`` or by default "b does not divide a"."""
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
        raise InvariantError(
            what or f"{b.to_str()} does not divide {a.to_str()}")
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


def _totient(d: int) -> int:
    """Euler's phi(d) = deg Phi_d, by trial division."""
    out, rest, f = d, d, 2
    while f * f <= rest:
        if rest % f == 0:
            out -= out // f
            while rest % f == 0:
                rest //= f
        f += 1
    return out - out // rest if rest > 1 else out


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
        steps = 0

        def divide(a, b):
            # a trial division of a by b builds deg a + 1 remainder entries
            # and updates |b| of them per quotient term
            nonlocal steps
            da, db = max(a), max(b)
            steps += da + 1 + max(da - db + 1, 0) * len(b)
            _charge_running("rational function reduction", steps)
            return _poly_div_exact(a, b)

        # pd = c * prod Phi_d^k: strip the factors Phi_1, Phi_2, ... from a
        # copy of pd and cancel each one that also divides pn.  A factor
        # Phi_e of a degree-D rest has sqrt(e/2) <= phi(e) <= D, so a d with
        # phi(d) > D is skipped unbuilt, and once d > 2 D^2 no cyclotomic
        # factor is left to find.
        rest = pd
        d = 0
        while max(rest):
            d += 1
            if d > 2 * max(rest) ** 2:
                raise UnsupportedDenominatorError(
                    f"denominator {den.to_str()} has a factor other than "
                    "an integer, a monomial and cyclotomic polynomials")
            if _totient(d) > max(rest):
                continue
            phi = _cyclotomic(d)
            cancel = True
            while True:
                quot = divide(rest, phi)
                if quot is None:
                    break
                rest = quot
                if cancel:
                    quot = divide(pn, phi)
                    cancel = quot is not None
                    if cancel:
                        pn = quot
                        pd = divide(pd, phi)
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
    def one(cls, var: str) -> "RationalUni":
        return cls.const(var, 1)

    @property
    def var(self) -> str:
        return self.num.var

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_laurent(self) -> LaurentPoly:
        if not self.den.is_one():
            raise InvariantError(
                f"({self.num.to_str()})/({self.den.to_str()}) "
                "is not a Laurent polynomial")
        return self.num

    def degree(self) -> int:
        """Rational-function degree: deg num - deg den."""
        if self.is_zero():
            raise PreconditionError("degree of zero")
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
            raise PreconditionError("division by zero rational function")
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
        if self.den.is_one():
            return hash(self.num)
        return hash((self.num, self.den))

    def evaluate(self, x) -> Fraction:
        d = self.den.evaluate(x)
        if d == 0:
            raise PreconditionError(f"denominator vanishes at {x}")
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
        except (KeyError, TypeError) as exc:
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


def _b2_times_factor(num: dict, a: int) -> dict:
    """num * (q^a - t): two shifted copies of num."""
    out = {(e + a, f): c for (e, f), c in num.items()}
    for (e, f), c in num.items():
        k = (e, f + 1)
        v = out.get(k, 0) - c
        if v:
            out[k] = v
        else:
            del out[k]
    return out


def _b2_expand(den) -> dict:
    """prod (q^a - t)^mu over den = [(a, mu)], as a (q, t) dict."""
    out = {(0, 0): 1}
    for a, mu in den:
        for _ in range(mu):
            out = _b2_times_factor(out, a)
    return out


def _b2_at(num: dict, k: int) -> LaurentPoly:
    """num at t = q^k, a Laurent polynomial in q."""
    out = {}
    for (e, f), c in num.items():
        out[e + k * f] = out.get(e + k * f, 0) + c
    return LaurentPoly("q", out)


def _b2_add_into(out: dict, num: dict, dt: int = 0):
    """out += t^dt * num, in place."""
    for (e, f), c in num.items():
        k = (e, f + dt)
        v = out.get(k, 0) + c
        if v:
            out[k] = v
        else:
            del out[k]


def _clear(sums: dict, ds):
    """Sum over x of sums[x](q) * prod_k (t/(q^ds[k] - t))^x[k], where sums
    maps exponent tuples over ds to integer polynomial dicts {e: c}, as the
    unreduced pair (num, den): num a dict over (q, t) exponent pairs and
    den = [(d, top)], top the largest exponent of d with a nonzero sum.

    One Horner pass per variable, last first: the terms sharing x[:k] are
    P_j = their values at x[k] = j, and sum_j P_j t^j (q^d - t)^(top - j)
    is built by multiplying the running value by q^d - t and adding the
    next P_j t^j.  At t = 1 the factors are 1/(q^d - 1).  Each step charges
    the entries it is about to merge, so a refusal is a lower bound on the
    cost: K7's partition types cost 16,582 steps, K10's 4,742,544."""
    terms = {x: {(e, 0): c for e, c in poly.items() if c}
             for x, poly in sums.items()}
    terms = {x: num for x, num in terms.items() if num}
    den = []
    steps = 0
    for k in reversed(range(len(ds))):
        top = max((x[k] for x in terms), default=0)
        if top:
            den.append((ds[k], top))
        rows = {}
        for x, num in terms.items():
            rows.setdefault(x[:k], {})[x[k]] = num
        terms = {}
        for prefix, row in rows.items():
            acc = {}
            for j in range(min(row), top + 1):
                steps += len(acc) + len(row.get(j, ()))
                _charge_running("denominator clear", steps)
                if acc:
                    acc = _b2_times_factor(acc, ds[k])
                if j in row:
                    _b2_add_into(acc, row[j], j)
            if acc:
                terms[prefix] = acc
    return terms.get((), {}), den


def _b2_div_factor(num: dict, a: int):
    """Exact quotient num / (q^a - t), or None.

    num is a polynomial in q and t with minimal t-exponent 0, as the
    constructor leaves it.  Synthetic division by t - q^a from the top
    t-degree down carries one q-polynomial {e: c}; the quotient is the
    negated carry, exact iff the carry past t^0 vanishes.
    """
    by_t = {}
    for (eq, et), c in num.items():
        by_t.setdefault(et, {})[eq] = c
    d = max(by_t)
    if d == 0:
        return None
    out = {}
    carry = {}
    for j in range(d, -1, -1):
        row = by_t.get(j, {})
        for e, c in carry.items():
            v = row.get(e + a, 0) + c
            if v:
                row[e + a] = v
            else:
                row.pop(e + a, None)
        carry = row
        if j:
            out.update(((e, j - 1), -c) for e, c in row.items())
    return None if carry else out


class BiRational:
    """num(q,t) / (q^e1 * t^e2 * prod (q^a - t)^mu), fully reduced.

    The constructor reduces: it tries each denominator factor by exact
    division.  Operations that cannot create a common factor (a monomial
    multiple, negation) skip that step.  A sum of many terms is cleared by
    ``_clear`` and handed to the constructor once."""

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
        ts = {f for (_, f) in num}
        mt = min(ts)
        if mq or mt:
            num = {(e - mq, f - mt): c for (e, f), c in num.items()}
            e1, e2 = e1 - mq, e2 - mt
        # a trial division of a dividend of t-degree d reads its |num| terms
        # and merges into each of its d + 1 t-rows a carry, the rows above
        # it shifted, of at most |num| terms: (d + 2) |num| steps, charged
        # before it runs.  An exact quotient has t-degree d - 1.
        d = max(ts) - mt
        steps = 0
        for a in sorted(den_acc):
            while den_acc[a]:
                steps += (d + 2) * len(num)
                _charge_running("zeta reduction", steps)
                quot = _b2_div_factor(num, a)
                if quot is None:
                    break
                num = quot
                d -= 1
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
    def zero(cls) -> "BiRational":
        return cls({})

    @classmethod
    def const(cls, c: int) -> "BiRational":
        return cls({(0, 0): c})

    @classmethod
    def from_q_poly(cls, p: LaurentPoly) -> "BiRational":
        return cls({(e, 0): c for e, c in p._c.items()})

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
        """Both terms lifted to the lcm of the two denominators one factor
        q^a - t at a time, added, and reduced once."""
        other = self._coerce(other)
        if not other.num:
            return self
        if not self.num:
            return other
        lcm = dict(self.den)
        for a, mu in other.den:
            lcm[a] = max(mu, lcm.get(a, 0))
        total = {}
        for x in (self, other):
            num = {(e - x.unit[0], f - x.unit[1]): c
                   for (e, f), c in x.num.items()}
            have = dict(x.den)
            for a, top in lcm.items():
                for _ in range(top - have.get(a, 0)):
                    num = _b2_times_factor(num, a)
            _b2_add_into(total, num)
        return BiRational(total, den=list(lcm.items()))

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

    def times_unit(self, dq: int, dt: int) -> "BiRational":
        """Multiply by the monomial q^dq * t^dt."""
        if not self.num:
            return self                 # zero keeps the unit (0, 0)
        return BiRational._from_reduced(
            self.num, (self.unit[0] - dq, self.unit[1] - dt), self.den)

    def __eq__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = self._coerce(other)
        return (isinstance(other, BiRational)
                and self.num == other.num
                and self.unit == other.unit
                and self.den == other.den)

    def __hash__(self):
        if not (self.den or self.unit[1] or any(f for _, f in self.num)):
            return hash(_b2_at(self.num, 0).shift(-self.unit[0]))
        return hash((frozenset(self.num.items()), self.unit, self.den))

    def cross_equal(self, other: "BiRational") -> bool:
        """Equality by cross-multiplication of fully expanded forms."""
        left = _b2_mul(self.num, _b2_expand(other.den))
        right = _b2_mul(other.num, _b2_expand(self.den))
        # align units
        du = (other.unit[0] - self.unit[0], other.unit[1] - self.unit[1])
        left = {(e + du[0], f + du[1]): c for (e, f), c in left.items()}
        return left == right

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

    def evaluate(self, q0, t0) -> Fraction:
        from fractions import Fraction
        q0, t0 = Fraction(q0), Fraction(t0)
        total = Fraction(0)
        for (eq, et), c in self.num.items():
            total += c * q0 ** eq * t0 ** et
        den = q0 ** self.unit[0] * t0 ** self.unit[1]
        for a, mu in self.den:
            den *= (q0 ** a - t0) ** mu
        if den == 0:
            raise PreconditionError("denominator vanishes")
        return total / den

    def expand_in_t(self, q0: int, order: int):
        """First order+1 coefficients of the t-power-series at q = q0: one
        division of num by q0^e1 * prod (q0^a - t)^mu, both read at q0."""
        if q0 < 2:
            raise PreconditionError("expansion point must satisfy q0 >= 2")
        from fractions import Fraction
        n, d = {}, {}
        for (eq, et), c in self.num.items():
            te = et - self.unit[1]
            n[te] = n.get(te, 0) + c * q0 ** eq
        if any(te < 0 and v for te, v in n.items()):
            raise PreconditionError("pole at t = 0 after substitution")
        for (e, f), c in _b2_expand(self.den).items():
            d[f] = d.get(f, 0) + c * q0 ** e
        scale = Fraction(q0) ** self.unit[0]
        series = []
        for i in range(order + 1):
            series.append((n.get(i, 0) / scale - sum(
                d.get(j, 0) * series[i - j] for j in range(1, i + 1))) / d[0])
        return series

    # -- display / serialization --------------------------------------------

    def __repr__(self):
        return f"BiRational({self.to_str()!r})"

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

    def to_str(self) -> str:
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

