import pytest

from amzeta.errors import InvariantError, PreconditionError
from amzeta.exact_algebra import LaurentPoly
from amzeta.open_derham import OdrInput, gl_class, odr_class
from amzeta.reference import odr_rank2_expected


def L(coeffs):
    return LaurentPoly("L", coeffs)


def test_gl_class_small():
    assert gl_class(0) == L({0: 1})
    assert gl_class(1) == L({1: 1, 0: -1})
    assert gl_class(2) == L({4: 1, 3: -1, 2: -1, 1: 1})


def test_odr_refuses_a_sum_that_does_not_clear(monkeypatch):
    # GL_k's class shifted by 1 leaves a remainder in the division by
    # (L-1)^(nd-1)
    from amzeta import open_derham
    monkeypatch.setattr(open_derham, "gl_class", lambda k: gl_class(k) + 1)
    with pytest.raises(InvariantError, match=r"^\(L-1\)\^3 does not clear "
                       "the partition sum$"):
        odr_class(OdrInput(2, (2, 2)))


def test_gl_class_negative_rejected():
    with pytest.raises(PreconditionError):
        gl_class(-1)


def test_input_validation():
    with pytest.raises(PreconditionError):
        OdrInput(2, [])
    with pytest.raises(PreconditionError):
        OdrInput(2, [2, 1])
    with pytest.raises(PreconditionError):
        OdrInput(0, [2])


def test_rank1_is_a_point():
    for orders in [(2,), (3,), (2, 2), (4, 2, 3)]:
        cls = odr_class(OdrInput(1, orders))
        assert cls.value == L({0: 1})


def test_rank2_two_poles_order_two():
    cls = odr_class(OdrInput(2, (2, 2)))
    assert cls.value == L({2: 1, 1: 2})


def test_rank2_three_poles_total_six():
    cls = odr_class(OdrInput(2, (2, 2, 2)))
    assert cls.value == L({6: 1, 5: 3, 4: 4, 3: 4})


def test_rank2_closed_family():
    for d in (2, 3, 4):
        for total in range(2 * d, 9):
            orders = (total - 2 * (d - 1),) + (2,) * (d - 1)
            cls = odr_class(OdrInput(2, orders))
            assert cls.value == odr_rank2_expected(d, total)
            assert cls.positive_coeffs


def test_dimension_and_monic():
    for n, orders in [(2, (2, 2)), (2, (3, 2)), (3, (2, 2))]:
        inp = OdrInput(n, orders)
        cls = odr_class(inp)
        if not cls.value.is_zero():
            assert cls.value.degree() == inp.dimension()
            assert cls.value.leading_coeff() == 1


def test_value_depends_only_on_total_order():
    a = odr_class(OdrInput(2, (4, 2))).value
    b = odr_class(OdrInput(2, (3, 3))).value
    assert a == b
