import pytest

from amzeta.arrangement import (
    Arrangement,
    build_lattice,
    graphic_arrangement,
    structural_flags,
)
from amzeta.errors import BudgetExceededError, PreconditionError
from amzeta.exact_algebra import LaurentPoly
from amzeta.hypertoric import (
    count_moment_fiber,
    e_polynomial,
    find_generic_xi,
    hypertoric_class,
    xi_is_generic,
)
from amzeta.padic_oracle import _count_direct
from amzeta.reference import complete_quiver, n_origins, triangle


def L(coeffs):
    return LaurentPoly("L", coeffs)


def class_of(arr):
    lat = build_lattice(arr)
    return hypertoric_class(arr, lat), lat


def test_class_n_origins():
    cls, _ = class_of(n_origins(3))
    assert cls.value == L({4: 1, 3: 1, 2: 1})
    assert not cls.formal


def test_class_single_origin_point():
    cls, _ = class_of(n_origins(1))
    assert cls.value == L({0: 1})


def test_class_triangle():
    cls, _ = class_of(triangle())
    assert cls.value == L({2: 1, 1: 2})


def test_class_rejects_non_essential():
    arr = Arrangement([(1, 0)])
    with pytest.raises(PreconditionError):
        hypertoric_class(arr, build_lattice(arr))


def test_non_unimodular_class_is_formal():
    # the formula still evaluates, but the smoothness hypothesis fails
    cls, _ = class_of(Arrangement([(2,)]))
    assert cls.formal and not cls.unimodular
    assert cls.value == L({0: 1})


def test_class_at_one_counts_hyperplanes_in_origin_family():
    for n in range(1, 5):
        cls, _ = class_of(n_origins(n))
        assert cls.value.evaluate(1) == n


def test_top_coefficient_is_one():
    for arr in [n_origins(2), n_origins(4), triangle()]:
        cls, _ = class_of(arr)
        assert cls.value.leading_coeff() == 1


def test_e_polynomial():
    cls, _ = class_of(n_origins(3))
    assert e_polynomial(cls) == LaurentPoly("u", {4: 1, 3: 1, 2: 1})
    cls1, _ = class_of(n_origins(1))
    assert e_polynomial(cls1) == LaurentPoly("u", {0: 1})


def test_e_polynomial_degree_is_twice_dimension():
    for arr in [n_origins(2), n_origins(3), triangle()]:
        cls, _ = class_of(arr)
        assert e_polynomial(cls).degree() == 2 * (arr.n - arr.m)


# ---------------------------------------------------------------------------
# finite-field oracle
# ---------------------------------------------------------------------------

def test_fiber_count_two_origins():
    arr = n_origins(2)
    lat = build_lattice(arr)
    assert count_moment_fiber(arr, lat, 5, (1,)) == 120


def test_fiber_count_single_origin():
    arr = n_origins(1)
    lat = build_lattice(arr)
    # solutions of v*w = 1 over F_7
    assert count_moment_fiber(arr, lat, 7, (1,)) == 6


def test_fiber_count_triangle_matches_class():
    arr = triangle()
    cls, lat = class_of(arr)
    for p in (5, 7):
        xi = find_generic_xi(arr, lat, p)
        count = count_moment_fiber(arr, lat, p, xi)
        assert count == (p - 1) ** 2 * cls.value.evaluate(p)


def test_fiber_count_methods_agree():
    arr = n_origins(2)
    lat = build_lattice(arr)
    d = _count_direct(arr.normals, 5, 1, (1,), 10 ** 8)
    c = count_moment_fiber(arr, lat, 5, (1,))
    assert d == c == 120


def test_two_point_certificate_origin_family():
    for n in (2, 3):
        arr = n_origins(n)
        cls, lat = class_of(arr)
        for p in (5, 7):
            count = count_moment_fiber(arr, lat, p, (1,))
            assert count == (p - 1) * cls.value.evaluate(p)


def test_genericity_rejects_bad_xi():
    arr = triangle()
    lat = build_lattice(arr)
    assert not xi_is_generic(arr, lat, 5, (0, 0))
    # (1, 0) is the first normal: contained in a proper flat's span
    assert not xi_is_generic(arr, lat, 5, (1, 0))
    with pytest.raises(PreconditionError):
        count_moment_fiber(arr, lat, 5, (0, 0))


def test_fiber_budget_charges_the_character_sum():
    # K5 at p = 5 (m = 4) is charged ten inner products for each of the
    # (5^4 - 1) / 4 = 156 unit-scaling orbits of nonzero xi in F_5^4; the
    # prime guard's minor scan (28,600 steps) is run first, so that the
    # character sum is the stage these budgets refuse
    arr = graphic_arrangement(complete_quiver(5))
    cls, lat = class_of(arr)
    xi = find_generic_xi(arr, lat, 5)
    structural_flags(arr, "max_abs_minor", budget=28600)
    count = count_moment_fiber(arr, lat, 5, xi, budget=1560)
    assert count == 151316000000 == cls.value.evaluate(5) * 4 ** 4
    with pytest.raises(BudgetExceededError,
                       match="character sum needs 1560 steps"):
        count_moment_fiber(arr, lat, 5, xi, budget=1559)
