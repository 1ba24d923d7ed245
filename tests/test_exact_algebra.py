import functools
import math
import operator
import random
from fractions import Fraction

import pytest

from amzeta.errors import (
    InvariantError,
    PreconditionError,
    UnsupportedDenominatorError,
)
from amzeta.exact_algebra import (
    BiRational,
    LaurentPoly,
    RationalUni,
    _b2_at,
    _b2_div_factor,
    _b2_expand,
    _clear,
    _cyclotomic,
    exact_div,
    palindromic_check,
)


def L(coeffs, var="L"):
    return LaurentPoly(var, coeffs)


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

def test_poly_arith_examples():
    lm1 = L({1: 1, 0: -1})
    lp1 = L({1: 1, 0: 1})
    assert lm1 * lp1 == L({2: 1, 0: -1})
    assert L({-1: 1, 0: 1}) + L({-1: -1}) == L({0: 1})
    q = L({2: 1, 1: 4, 0: 1}, "q")
    assert q * LaurentPoly.one("q") == q


def test_var_mismatch_rejected():
    with pytest.raises(PreconditionError):
        L({0: 1}, "L") + L({0: 1}, "q")


def test_exact_div_examples():
    lm1 = L({1: 1, 0: -1})
    assert exact_div(L({3: 1, 0: -1}), lm1) == L({2: 1, 1: 1, 0: 1})
    with pytest.raises(InvariantError,
                       match=r"^L \+ 2 does not divide L\^2 - 1$"):
        exact_div(L({2: 1, 0: -1}), L({1: 1, 0: 2}))
    with pytest.raises(InvariantError, match=r"^L \+ 2 fails to clear$"):
        exact_div(L({2: 1, 0: -1}), L({1: 1, 0: 2}), "L + 2 fails to clear")
    assert exact_div(L({3: 1, 1: -1}, "q"), L({1: 1}, "q")) == L({2: 1, 0: -1}, "q")


def rand_poly(rng, var="L", span=3):
    return LaurentPoly(var, {e: rng.randint(-4, 4)
                             for e in range(-span, span + 1)
                             if rng.random() < 0.5})


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_exact_div_roundtrip_random():
    rng = random.Random(11)
    for _ in range(60):
        a, b = rand_poly(rng), rand_poly(rng)
        if b.is_zero():
            continue
        assert exact_div(a * b, b) == a


def test_palindromic_check():
    assert palindromic_check(L({2: 1, 1: 4, 0: 1}, "q")) == (True, 2)
    assert palindromic_check(L({3: 1, 2: 11, 1: 11, 0: 1}, "q")) == (True, 3)
    assert palindromic_check(L({2: 1, 1: 1}, "q")) == (False, 2)
    with pytest.raises(PreconditionError):
        palindromic_check(L({}, "q"))
    with pytest.raises(PreconditionError):
        palindromic_check(L({-1: 1, 0: 1}, "q"))


def test_evaluate():
    p = L({2: 3, -1: 1}, "q")
    assert p.evaluate(2) == Fraction(12) + Fraction(1, 2)
    assert L({}, "q").evaluate(0) == 0


def test_json_roundtrip_poly():
    p = L({3: 12345678901234567890, -2: -7}, "q")
    assert LaurentPoly.from_json(p.to_json()) == p


# ---------------------------------------------------------------------------
# univariate rational functions
# ---------------------------------------------------------------------------

def test_rational_normalization():
    q = "q"
    num = L({3: 1, 0: -1}, q)          # q^3 - 1
    den = L({1: 1, 0: -1}, q)          # q - 1
    r = RationalUni(num, den)
    assert r.den.is_one()
    assert r.as_laurent() == L({2: 1, 1: 1, 0: 1}, q)

    r2 = RationalUni(L({1: 2, 0: 2}, q), L({0: 4}, q))
    assert r2.num == L({1: 1, 0: 1}, q)
    assert r2.den == L({0: 2}, q)

    r3 = RationalUni(L({0: 1}, q), L({1: -1, 0: 1}, q))
    assert r3.den.leading_coeff() > 0


def rand_den(rng, var="q"):
    """c * q^e * prod (q^a - 1)^k with c of either sign: the denominator
    family RationalUni supports."""
    den = LaurentPoly.monomial(var, rng.randint(-2, 2),
                               rng.choice((-1, 1)) * rng.randint(1, 6))
    for _ in range(rng.randint(0, 3)):
        den = den * LaurentPoly(var, {rng.randint(1, 6): 1, 0: -1}) ** (
            rng.randint(1, 2))
    return den


def test_rational_arithmetic_random():
    rng = random.Random(3)
    for _ in range(40):
        a = rand_poly(rng, "q", 2)
        b = rand_den(rng)
        c = rand_den(rng)
        x = RationalUni(a, b)
        y = RationalUni(b, c)
        z = x * y + y
        pt = Fraction(7, 3)
        expected = x.evaluate(pt) * y.evaluate(pt) + y.evaluate(pt)
        assert z.evaluate(pt) == expected
        assert z - y == x * y and z / y == x + 1


def test_rational_degree():
    r = RationalUni(L({2: 1, 0: 1}, "q"), L({2: 5, 1: -5}, "q"))
    assert r.degree() == 0


_zero_q = RationalUni.const("q", 0)


@pytest.mark.parametrize("misuse, message", [
    (lambda: L({}).degree(), "degree of zero polynomial"),
    (lambda: L({}).low_degree(), "low degree of zero polynomial"),
    (lambda: L({1: 1}) ** -1, "negative power"),
    (lambda: _zero_q.degree(), "degree of zero"),
    (lambda: RationalUni.const("q", 1) / _zero_q, "division by zero"),
    (lambda: RationalUni(L({0: 1}, "q"), L({1: 1, 0: -1}, "q")).evaluate(1),
     "denominator vanishes at 1"),
    (lambda: BiRational({(0, 0): 1}, (0, 0), [(1, 1)]).evaluate(2, 2),
     "denominator vanishes"),
    (lambda: L({-1: 1}, "q").evaluate(0), "negative power of q at 0"),
    (lambda: RationalUni(L({-1: 1, 0: 1}, "q"), L({1: 1, 0: -1}, "q"))
     .evaluate(0), "negative power of q at 0"),
], ids=["degree", "low_degree", "pow", "rational_degree", "truediv",
        "rational_evaluate", "birational_evaluate", "laurent_at_zero",
        "rational_at_zero"])
def test_arithmetic_misuse_is_a_precondition_error(misuse, message):
    # the arithmetic layer raises only errors.py types, so amz maps a
    # misuse onto exit 2 instead of a traceback
    with pytest.raises(PreconditionError, match=message):
        misuse()


def test_cyclotomic_products():
    for n in range(1, 41):
        prod = LaurentPoly.one("x")
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * LaurentPoly("x", _cyclotomic(d))
        assert prod == LaurentPoly("x", {n: 1, 0: -1})


def test_unsupported_denominator_rejected():
    one = RationalUni.one("q")
    for den in (L({1: 1, 0: 2}, "q"), L({1: 5, 0: 1}, "q")):
        with pytest.raises(UnsupportedDenominatorError):
            RationalUni(L({0: 1}, "q"), den)
        with pytest.raises(UnsupportedDenominatorError):
            one / RationalUni.from_laurent(den)


def content(p):
    return math.gcd(*(c for _, c in p.items()))


def test_rational_canonical_form_random():
    rng = random.Random(20261018)
    for trial in range(200):
        num = rand_poly(rng, "q", 3)
        if num.is_zero():
            continue
        # multiply in factors of the denominator family, so that some of
        # them cancel
        for _ in range(rng.randint(0, 2)):
            num = num * LaurentPoly("q", {rng.randint(1, 6): 1, 0: -1})
        num = num * rng.choice((1, 2, 3, -6))
        den = rand_den(rng)
        r = RationalUni(num, den)
        assert r.num * den == num * r.den
        assert r.den.is_polynomial()
        assert r.den.leading_coeff() > 0 and r.den.coeff(0) != 0
        assert math.gcd(content(r.num), content(r.den)) == 1
        # every factor q^a - 1 of den has a <= 6, so Phi_d has d <= 6
        for d in range(1, 7):
            phi = LaurentPoly("q", _cyclotomic(d))
            try:
                exact_div(r.den, phi)
            except InvariantError:
                continue
            with pytest.raises(InvariantError):
                exact_div(r.num, phi)
        # the reduced form does not depend on the representative
        extra = rand_den(rng)
        assert RationalUni(num * extra, den * extra) == r


# ---------------------------------------------------------------------------
# two-variable rational functions
# ---------------------------------------------------------------------------

def one_over(a):
    return BiRational({(0, 0): 1}, den=[(a, 1)])


def test_birational_trivial_adds():
    x = one_over(1)
    assert x + BiRational.zero() == x
    assert one_over(1) + -one_over(1) == BiRational.zero()


def test_birational_distinct_factor_sum():
    # (q-1)/(q^2-t) + (q-1)/(q-t): denominator stays (q^2-t)(q-t)
    x = BiRational({(1, 0): 1, (0, 0): -1}, den=[(2, 1)])
    y = BiRational({(1, 0): 1, (0, 0): -1}, den=[(1, 1)])
    z = x + y
    assert dict(z.den) == {1: 1, 2: 1}
    # cross-multiplication against the unreduced sum:
    # num = (q-1)(q-t) + (q-1)(q^2-t) = q^3 - q + t(2 - 2q)
    unreduced = BiRational(
        {(3, 0): 1, (1, 0): -1, (1, 1): -2, (0, 1): 2},
        den=[(1, 1), (2, 1)])
    assert z == unreduced
    assert z.cross_equal(unreduced)


def test_birational_reduction_preserves_value():
    rng = random.Random(5)
    for trial in range(120):
        terms = []
        for _ in range(rng.randint(2, 4)):
            num = {(rng.randint(-2, 3), rng.randint(-2, 2)):
                   rng.randint(-3, 3) for _ in range(rng.randint(1, 4))}
            den = [(rng.randint(1, 3), rng.randint(1, 2))]
            terms.append(BiRational(num, (rng.randint(-2, 2),
                                          rng.randint(-2, 2)), den))
        # mix in products so reducible numerators actually appear
        if trial % 3 == 0 and not terms[0].is_zero():
            terms.append(terms[0] * BiRational({(rng.randint(1, 3), 0): 1,
                                                (0, 1): -1}))
        total = BiRational.zero()
        for t in terms:
            total = total + t
        q0, t0 = Fraction(7), Fraction(3, 2)
        expected = sum((t.evaluate(q0, t0) for t in terms), Fraction(0))
        assert total.evaluate(q0, t0) == expected
        # equality is canonical: rebuilding from the unreduced cross sum
        # must give the identical object
        assert total == BiRational(total.num, total.unit, total.den)


def test_b2_div_factor_exact_and_refusals():
    rng = random.Random(12)
    for _ in range(200):
        a = rng.randint(1, 4)
        num = {(rng.randint(0, 4), rng.randint(0, 3)): rng.randint(-5, 5)
               for _ in range(rng.randint(1, 6))}
        num[(rng.randint(0, 4), 0)] = rng.choice((-2, -1, 1, 3))
        num = {k: c for k, c in num.items() if c}
        product = poly2_mul(num, {(a, 0): 1, (0, 1): -1})
        assert _b2_div_factor(product, a) == num
        # product(q, q^a) = 0 and its t^0 part q^a num(q, 0) has no q^0
        # term, so adding 1 leaves a nonzero remainder
        assert _b2_div_factor({**product, (0, 0): 1}, a) is None
        # num has t-degree 0 here: no factor q^a - t can divide it
        assert _b2_div_factor({k: c for k, c in num.items() if not k[1]},
                              a) is None


def test_clear_equals_termwise_sums():
    # sum_x sums[x](q) prod (t/(q^d - t))^x_d, cleared in one Horner pass
    # per variable, against the fold of its reduced terms, and at t = 1
    # against the fold of the terms over prod (q^d - 1)^x_d
    rng = random.Random(2026)
    for trial in range(200):
        ds = rng.sample(range(1, 6), rng.randint(1, 4))
        sums = {}
        for _ in range(rng.randint(1, 6)):
            x = tuple(rng.randint(0, 3) for _ in ds)
            if trial % 3 == 0:
                x = (x[0],) * len(ds)        # one exponent in every slot
            sums[x] = {rng.randint(0, 4): rng.randint(-3, 3)
                       for _ in range(rng.randint(0, 3))}
        if trial % 4 == 0:
            sums[(1,) * len(ds)] = {}
        num, den = _clear(sums, ds)
        live = [x for x, poly in sums.items() if any(poly.values())]
        tops = {d: max((x[k] for x in live), default=0)
                for k, d in enumerate(ds)}
        assert dict(den) == {d: top for d, top in tops.items() if top}
        terms = [BiRational({(e, 0): c for e, c in poly.items()},
                            (0, -sum(x)), zip(ds, x))
                 for x, poly in sums.items()]
        got = BiRational(num, den=den)
        assert got == functools.reduce(operator.add, terms,
                                       BiRational.zero())
        at_one = RationalUni.from_laurent(L({}, "q"))
        for x, poly in sums.items():
            cleared = L({0: 1}, "q")
            for d, e in zip(ds, x):
                cleared = cleared * L({d: 1, 0: -1}, "q") ** e
            at_one = at_one + RationalUni(L(poly, "q"), cleared)
        assert RationalUni(_b2_at(num, 0),
                           _b2_at(_b2_expand(den), 0)) == at_one


def test_birational_laurent_numerator_normalization():
    # a numerator living at negative t-exponents must not be corrupted by
    # the reduction pass
    x = BiRational({(0, -1): 1}, (0, 0), [(1, 1)])      # t^-1 / (q - t)
    assert x.num == {(0, 0): 1} and x.unit == (0, 1)
    assert dict(x.den) == {1: 1}
    assert x.evaluate(5, Fraction(1, 2)) == Fraction(1, Fraction(9, 4))
    # (q - t) t^-1 / (q - t) reduces fully to t^-1
    y = BiRational({(1, -1): 1, (0, 0): -1}, (0, 0), [(1, 1)])
    assert y == BiRational({(0, 0): 1}, (0, 1), ())


def test_birational_mul_pow_shift():
    x = one_over(2)
    y = x * x
    assert dict(y.den) == {2: 2}
    sh = x.shift_s(3)   # 1/(q^2 - q^-3 t) = q^3/(q^5 - t)
    assert sh == BiRational({(3, 0): 1}, den=[(5, 1)])


def test_invert_vars_on_simple_value():
    # x = 1/(q - t);  x(q^-1, t^-1) = qt/(t - q) = -qt/(q - t)
    x = one_over(1)
    inv = x.invert_vars()
    assert inv == BiRational({(1, 1): -1}, den=[(1, 1)])
    q0, t0 = Fraction(5), Fraction(2)
    assert inv.evaluate(q0, t0) == x.evaluate(Fraction(1, 5), Fraction(1, 2))


def test_expand_in_t_examples():
    x = one_over(1)
    assert x.expand_in_t(5, 2) == [Fraction(1, 5), Fraction(1, 25),
                                   Fraction(1, 125)]
    c = BiRational.const(9)
    assert c.expand_in_t(5, 2) == [Fraction(9), Fraction(0), Fraction(0)]


def test_expand_in_t_pole_at_zero_rejected():
    x = BiRational({(0, 0): 1}, (0, 1), ())     # 1/t
    with pytest.raises(PreconditionError):
        x.expand_in_t(5, 2)


def test_substitute_t_qpower():
    # (q^3 - t)/(q - t) at t = q^2 -> (q^3 - q^2)/(q - q^2) = -q
    x = BiRational({(3, 0): 1, (0, 1): -1}, den=[(1, 1)])
    r = RationalUni(_b2_at(x.num, 2), _b2_at(_b2_expand(x.den), 2))
    assert r == RationalUni.from_laurent(LaurentPoly("q", {1: -1}))
    # at t = q the factor q - t vanishes: a zero denominator is refused
    with pytest.raises(PreconditionError):
        RationalUni(_b2_at(x.num, 1), _b2_at(_b2_expand(x.den), 1))


def test_expanded_denominator_read_at_q_powers():
    # prod (q^a - t)^mu read at t = q^k equals prod (q^a - q^k)^mu
    rng = random.Random(24)
    for _ in range(60):
        den = [(rng.randint(1, 5), rng.randint(1, 3))
               for _ in range(rng.randint(0, 4))]
        for k in (0, 1, 3):
            want = LaurentPoly.one("q")
            for a, mu in den:
                binomial = LaurentPoly("q", {a: 1}) - LaurentPoly("q", {k: 1})
                want = want * binomial ** mu
            assert _b2_at(_b2_expand(den), k) == want


def geometric_expand_in_t(x, q0, order):
    """An independent route to the t-expansion: one convolution with the
    geometric series 1/(q0^a - t) = sum_k t^k / q0^(a(k+1)) per
    denominator factor."""
    by_t = {}
    for (eq, et), c in x.num.items():
        te = et - x.unit[1]
        by_t[te] = by_t.get(te, 0) + Fraction(c) * Fraction(q0) ** eq
    if any(te < 0 and v for te, v in by_t.items()):
        raise PreconditionError("pole at t = 0 after substitution")
    scale = Fraction(1, q0) ** x.unit[0]
    series = [scale * by_t.get(i, 0) for i in range(order + 1)]
    for a, mu in x.den:
        geom = [Fraction(1, q0 ** (a * (k + 1))) for k in range(order + 1)]
        for _ in range(mu):
            out = [Fraction(0)] * (order + 1)
            for i in range(order + 1):
                for j in range(order + 1 - i):
                    out[i + j] += series[i] * geom[j]
            series = out
    return series


def test_expand_in_t_matches_geometric_convolutions():
    rng = random.Random(2410)
    compared = refused = 0
    while compared < 200:
        num = {(rng.randint(0, 4), rng.randint(0, 3)): rng.randint(-4, 4)
               for _ in range(rng.randint(1, 5))}
        den = [(rng.randint(1, 4), rng.randint(1, 3))
               for _ in range(rng.randint(1, 4))]
        x = BiRational(num, (rng.randint(-3, 3), rng.randint(-3, 3)), den)
        q0, order = rng.choice((2, 3, 5, 7)), rng.randint(0, 6)
        try:
            want = geometric_expand_in_t(x, q0, order)
        except PreconditionError:
            refused += 1
            with pytest.raises(PreconditionError):
                x.expand_in_t(q0, order)
            continue
        assert x.expand_in_t(q0, order) == want
        compared += 1
    assert refused


def test_birational_json_roundtrip():
    x = BiRational({(2, 1): 3, (0, 0): -1}, (1, -2), [(2, 1), (3, 2)])
    assert BiRational.from_json(x.to_json()) == x


def poly2_mul(a, b):
    out = {}
    for (e1, f1), c1 in a.items():
        for (e2, f2), c2 in b.items():
            k = (e1 + e2, f1 + f2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def full_den(x):
    """q^e1 t^e2 prod (q^a - t)^mu of x, expanded."""
    out = {x.unit: 1}
    for a, mu in x.den:
        for _ in range(mu):
            out = poly2_mul(out, {(a, 0): 1, (0, 1): -1})
    return out


def folded_sum(terms):
    """Sum over the product of all the term denominators, unreduced:
    num = sum_i num_i prod_{j != i} den_j, no lcm and no division."""
    num = {}
    for i, x in enumerate(terms):
        part = dict(x.num)
        for j, y in enumerate(terms):
            if j != i:
                part = poly2_mul(part, full_den(y))
        for k, c in part.items():
            num[k] = num.get(k, 0) + c
    unit = (sum(x.unit[0] for x in terms), sum(x.unit[1] for x in terms))
    return BiRational(num, unit, [f for x in terms for f in x.den])


def assert_canonical(x):
    if x.is_zero():
        assert x.unit == (0, 0) and x.den == ()
        return
    assert min(e for e, _ in x.num) == 0 and min(f for _, f in x.num) == 0
    for a, mu in x.den:
        assert mu >= 1
        # no factor q^a - t divides num: num(q, q^a) is not zero
        at_pole = {}
        for (e, f), c in x.num.items():
            at_pole[e + a * f] = at_pole.get(e + a * f, 0) + c
        assert any(at_pole.values())
    assert x == BiRational(x.num, x.unit, x.den)


def check_sum(terms):
    got = functools.reduce(operator.add, terms, BiRational.zero())
    assert got.cross_equal(folded_sum(terms))
    for q0, t0 in ((Fraction(7), Fraction(3, 2)), (Fraction(-2, 3), 5),
                   (Fraction(11, 4), Fraction(-1, 9))):
        assert got.evaluate(q0, t0) == sum(
            (x.evaluate(q0, t0) for x in terms), Fraction(0))
    assert_canonical(got)
    return got


def test_birational_sum_random_against_folded_reference():
    rng = random.Random(20261018)
    for trial in range(150):
        shared = [(rng.randint(1, 3), rng.randint(1, 2))]
        terms = []
        for _ in range(rng.randint(1, 6)):
            num = {(rng.randint(-2, 3), rng.randint(-2, 2)):
                   rng.randint(-3, 3) for _ in range(rng.randint(0, 4))}
            den = shared if rng.random() < 0.5 else [
                (rng.randint(1, 4), rng.randint(0, 2))
                for _ in range(rng.randint(0, 2))]
            terms.append(BiRational(num, (rng.randint(-3, 3),
                                          rng.randint(-3, 3)), den))
        if trial % 4 == 0:
            terms.append(BiRational.zero())
        if trial % 5 == 0:
            terms.append(-terms[0])
        check_sum(terms)


def test_birational_sum_cancellation():
    x = BiRational({(2, 1): 3, (0, 0): -1}, (1, -2), [(2, 1), (3, 2)])
    assert check_sum([x, -x]) == BiRational.zero()
    assert x + (-x) == BiRational.zero()
    assert check_sum([]) == BiRational.zero()
    assert check_sum([BiRational.zero(), x, BiRational.zero()]) == x
    # q/((q-t)(q^2-t)) - t/((q-t)(q^2-t)) = 1/(q^2-t): the factor q - t
    # leaves the reduced denominator
    both = [(1, 1), (2, 1)]
    got = check_sum([BiRational({(1, 0): 1}, den=both),
                     BiRational({(0, 1): -1}, den=both)])
    assert got == one_over(2)
    # the same loss across distinct denominators, with negative units:
    # q t^2 [1/((q-t)(q^2-t)) - (q+1)/((q-t)(q^3-t))]
    #   = q t^2 (qt - q^2)/((q-t)(q^2-t)(q^3-t)) = -q^2 t^2/((q^2-t)(q^3-t))
    got = check_sum([BiRational({(0, 0): 1}, (-1, -2), both),
                     BiRational({(1, 0): -1, (0, 0): -1}, (-1, -2),
                                [(1, 1), (3, 1)])])
    assert got == BiRational({(2, 2): -1}, (0, 0), [(2, 1), (3, 1)])


def test_birational_reduction_free_products():
    rng = random.Random(77)
    for _ in range(60):
        num = {(rng.randint(0, 3), rng.randint(0, 2)): rng.randint(-3, 3)
               for _ in range(rng.randint(1, 4))}
        x = BiRational(num, (rng.randint(-2, 2), rng.randint(-2, 2)),
                       [(rng.randint(1, 3), rng.randint(0, 2))])
        dq, dt = rng.randint(-3, 3), rng.randint(-3, 3)
        assert x.times_unit(dq, dt) == x * BiRational({(dq, dt): 1})
        assert_canonical(-x)
        assert -x == x * BiRational.const(-1)

