import itertools
import random

import pytest

from amzeta import errors
from amzeta.arrangement import (
    Arrangement,
    build_lattice,
    graphic_arrangement,
    max_abs_minor,
    rank,
)
from amzeta.errors import BudgetExceededError, InvariantError, \
    PreconditionError
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


def test_class_refuses_a_flat_sum_that_does_not_clear():
    # one more at the bottom's Mobius value leaves the flat sum nonzero
    # at L = 1, so (L-1)^m does not divide it
    arr = triangle()
    lat = build_lattice(arr)

    class Skewed:
        flats, top = lat.flats, lat.top

        def mobius(self, i, j):
            return lat.mobius(i, j) + (i == lat.bottom)

    with pytest.raises(InvariantError,
                       match=r"^\(L-1\)\^2 does not divide the flat sum$"):
        hypertoric_class(arr, Skewed())


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


def test_fiber_count_methods_agree(monkeypatch):
    arr = n_origins(2)
    lat = build_lattice(arr)
    monkeypatch.setattr(errors, "BUDGET", 10 ** 8)
    d = _count_direct(arr.normals, 5, 1, (1,))
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


def _generic_over_all_proper_flats(arr, lat, p, xi):
    xi = [x % p for x in xi]
    if not any(xi):
        return False
    for i, f in enumerate(lat.flats):
        if i == lat.top:
            continue
        rows = [arr.normals[j] for j in f]
        if rank(rows + [xi], p) == rank(rows, p):
            return False
    return True


def test_coatoms_decide_genericity():
    # every proper flat lies in a coatom and spans over F_p grow with the
    # flat, so the coatoms alone give the answer at every prime, bad ones
    # included
    rng = random.Random(26)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 7)
        normals = []
        while len(normals) < n:
            v = tuple(rng.randint(-4, 4) for _ in range(m))
            if any(v):
                normals.append(v)
        arr = Arrangement(normals)
        lat = build_lattice(arr)
        for p in (2, 3, 5, 7):
            candidates = list(itertools.product(range(p), repeat=m))
            if len(candidates) > 50:
                candidates = rng.sample(candidates, 50)
            for xi in candidates:
                assert xi_is_generic(arr, lat, p, xi) == \
                    _generic_over_all_proper_flats(arr, lat, p, xi)


def test_fiber_budget_charges_the_character_sum(monkeypatch):
    # K5 at p = 5 (m = 4) is charged ten inner products for each of the
    # (5^4 - 1) / 4 = 156 unit-scaling orbits of nonzero xi in F_5^4; the
    # prime guard's minor walk (2,860 steps) is run first, so that the
    # character sum is the stage these budgets refuse
    arr = graphic_arrangement(complete_quiver(5))
    cls, lat = class_of(arr)
    xi = find_generic_xi(arr, lat, 5)
    monkeypatch.setattr(errors, "BUDGET", 2860)
    max_abs_minor(arr)
    monkeypatch.setattr(errors, "BUDGET", 1560)
    count = count_moment_fiber(arr, lat, 5, xi)
    assert count == 151316000000 == cls.value.evaluate(5) * 4 ** 4
    monkeypatch.setattr(errors, "BUDGET", 1559)
    with pytest.raises(BudgetExceededError,
                       match="character sum needs 1560 steps"):
        count_moment_fiber(arr, lat, 5, xi)


def test_generic_vector_search_is_charged(monkeypatch):
    # K6 (m = 5, 203 flats) has no generic vector mod 3: the search tries
    # all 3^5 = 243 candidates, each charged the 203 flats it may read
    arr = graphic_arrangement(complete_quiver(6))
    lat = build_lattice(arr)
    monkeypatch.setattr(errors, "BUDGET", 243 * 203 - 1)
    with pytest.raises(BudgetExceededError,
                       match="generic vector search needs at least 49329 "
                             "steps, budget allows 49328"):
        find_generic_xi(arr, lat, 3)
    monkeypatch.setattr(errors, "BUDGET", 243 * 203)
    with pytest.raises(PreconditionError, match="no generic vector mod 3"):
        find_generic_xi(arr, lat, 3)
