import random

import pytest

from amzeta.errors import InvariantError, ParseError, PreconditionError
from amzeta.exact_algebra import LaurentPoly
from amzeta.quiver_varieties import (
    Quiver,
    dimension_pairing,
    gaussian_binomial,
    hua_term,
    nakajima_gf,
    partition_inner,
    partitions,
    q_factorial,
)
from amzeta.reference import hilbert_series_coefficients, jordan_quiver


def L(coeffs):
    return LaurentPoly("L", coeffs)


def test_nakajima_refuses_a_coefficient_that_does_not_clear(monkeypatch):
    # one more summand at every multipartition leaves a remainder in the
    # division by D_v = P(1) at v = (1,)
    from amzeta import quiver_varieties
    real = quiver_varieties.hua_term
    monkeypatch.setattr(quiver_varieties, "hua_term",
                        lambda *args: real(*args) + 1)
    with pytest.raises(InvariantError, match=r"^coefficient at \(1,\) is "
                       "not a Laurent polynomial$"):
        nakajima_gf(jordan_quiver(), (1,), 2)


def test_partitions_enumeration():
    assert list(partitions(0)) == [()]
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1),
                                   (1, 1, 1, 1)]


def test_partition_inner_examples():
    assert partition_inner((1,), (1,)) == 1
    assert partition_inner((2, 1), ()) == 0
    assert partition_inner((2, 1), (2, 1)) == 5


def test_partition_inner_symmetric_random():
    rng = random.Random(23)
    pool = [lam for n in range(6) for lam in partitions(n)]
    for _ in range(50):
        a, b = rng.choice(pool), rng.choice(pool)
        assert partition_inner(a, b) == partition_inner(b, a)
        assert partition_inner(a, b) >= 0


def test_quiver_validation():
    with pytest.raises(ParseError):
        Quiver(2, [(1, 3)])
    q = Quiver(2, [(1, 2), (1, 2), (2, 2)])
    assert Quiver.from_json(q.to_json()) == q


def test_q_factorial_and_gaussian_binomial():
    assert q_factorial(0) == L({0: 1})
    assert q_factorial(2) == L({0: 1, -1: -1, -2: -1, -3: 1})
    assert gaussian_binomial(4, 2) == L({0: 1, -1: 1, -2: 2, -3: 1, -4: 1})
    for n in range(6):
        assert gaussian_binomial(n, 0) == gaussian_binomial(n, n) == L({0: 1})


def test_hua_term_examples():
    # summands cleared by D_v = P(|lam|), P(n) = prod_{j<=n} (1 - L^-j)
    jordan = jordan_quiver()
    assert hua_term(jordan, (1,), ((),)) == L({0: 1})
    # L^2 / (L (1 - L^-1)) times P(1)
    assert hua_term(jordan, (1,), ((1,),)) == L({1: 1})
    assert hua_term(jordan, (0,), ((1,),)) == L({0: 1})
    # lam = (1, 1): L^4 L^2 / (L^4 P(2)) times P(2)
    assert hua_term(jordan, (1,), ((1, 1),)) == L({2: 1})
    # lam = (2): L^2 L / (L^2 P(1)) times P(2) = L (1 - L^-2)
    assert hua_term(jordan, (1,), ((2,),)) == L({1: 1, -1: -1})


def test_dimension_pairing_jordan():
    jordan = jordan_quiver()
    for n in range(1, 5):
        assert dimension_pairing(jordan, (n,), (1,)) == -n


def test_series_is_one_for_zero_framing():
    for quiver in [jordan_quiver(), Quiver(2, [(1, 2)])]:
        gf = nakajima_gf(quiver, (0,) * quiver.vertices, 3)
        assert gf.series == {(0,) * quiver.vertices: L({0: 1})}


def test_jordan_small_classes():
    gf = nakajima_gf(jordan_quiver(), (1,), 2)
    assert gf.classes[(1,)] == L({2: 1})
    assert gf.classes[(2,)] == L({4: 1, 3: 1})


def test_jordan_matches_product_expansion_through_degree_twelve():
    bound = 12
    gf = nakajima_gf(jordan_quiver(), (1,), bound)
    expected = hilbert_series_coefficients(bound)
    for n in range(bound + 1):
        # the product's T^n coefficient equals class * L^(-n)
        assert gf.series[(n,)] == expected[n]
        if n:
            assert gf.classes[(n,)] == expected[n] * L({n: 1})


def test_edgeless_vertex_classes():
    # one vertex, no arrows, one-dimensional framing: only the dimension-1
    # class survives (a point); higher coefficients cancel to zero exactly
    quiver = Quiver(1, [])
    gf = nakajima_gf(quiver, (1,), 4)
    assert gf.classes[(1,)] == L({0: 1})
    assert all(v in ((0,), (1,)) for v in gf.classes)


def test_multi_vertex_classes():
    # A3 framed at its source vertex: every class is a point
    gf = nakajima_gf(Quiver(3, [(1, 2), (2, 3)]), (1, 0, 0), 4)
    assert gf.classes == {v: L({0: 1}) for v in
                          [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]}
    # two vertices joined by a double edge, framed at both
    gf = nakajima_gf(Quiver(2, [(1, 2), (1, 2)]), (1, 1), 4)
    one = L({0: 1})
    mid = L({4: 1, 3: 2, 2: 2})
    assert gf.classes == {
        (0, 0): one, (0, 1): one, (1, 0): one, (1, 3): one, (3, 1): one,
        (1, 1): mid, (1, 2): mid, (2, 1): mid,
        (2, 2): L({8: 1, 7: 2, 6: 5, 5: 6, 4: 4}),
    }


def test_all_extracted_classes_are_laurent():
    quiver = Quiver(2, [(1, 2)])
    gf = nakajima_gf(quiver, (1, 0), 3)
    for v, cls in gf.classes.items():
        assert isinstance(cls, LaurentPoly)


def test_framing_length_checked():
    with pytest.raises(PreconditionError):
        nakajima_gf(jordan_quiver(), (1, 1), 2)
