from fractions import Fraction

import pytest

from amzeta import errors, exact_algebra
from amzeta.arrangement import build_lattice, graphic_arrangement
from amzeta.errors import PreconditionError, UnsupportedDenominatorError
from amzeta.exact_algebra import LaurentPoly, RationalUni
from amzeta.quiver_reps import (
    _brute_force_raw,
    a_gamma_alpha,
    a_gamma_limit,
    betti,
    brute_force_indec,
    check_lastone,
    is_two_edge_connected,
)
from amzeta.quiver_varieties import Quiver
from amzeta.reference import (
    EULERIAN,
    a_limit_cycle,
    a_limit_cycle3_doubled,
    complete_quiver,
    cycle3_doubled_quiver,
    cycle_quiver,
    eulerian,
    single_edge_quiver,
    theta_quiver,
)
from amzeta.igusa import level_sets
from amzeta.residues import b_mu


def q(coeffs):
    return LaurentPoly("q", coeffs)


def test_betti_and_connectivity():
    tri = cycle_quiver(3)
    assert betti(tri, 0b111) == 1
    assert betti(tri, 0b011) == 0
    assert is_two_edge_connected(tri)
    assert not is_two_edge_connected(single_edge_quiver())
    assert is_two_edge_connected(Quiver(2, [(1, 2), (1, 2)]))


def test_depth_one_triangle():
    assert a_gamma_alpha(cycle_quiver(3), 1) == q({1: 1, 0: 2})


def test_depth_one_single_edge():
    assert a_gamma_alpha(single_edge_quiver(), 1) == q({0: 1})


def test_depth_two_single_edge():
    assert a_gamma_alpha(single_edge_quiver(), 2) == q({0: 2})


def test_degree_equals_depth_times_betti():
    for quiver in [cycle_quiver(3), cycle_quiver(4), cycle3_doubled_quiver()]:
        b = betti(quiver, (1 << len(quiver.edges)) - 1)
        for alpha in (1, 2, 3):
            assert a_gamma_alpha(quiver, alpha).degree() == alpha * b


def test_disconnected_rejected():
    with pytest.raises(PreconditionError):
        a_gamma_alpha(Quiver(4, [(1, 2), (3, 4)]), 1)


# ---------------------------------------------------------------------------
# brute-force agreement
# ---------------------------------------------------------------------------

def test_brute_force_triangle_depth_one():
    tri = cycle_quiver(3)
    assert brute_force_indec(tri, 3, 1) == 5
    assert brute_force_indec(tri, 5, 1) == 7


def test_brute_force_raw_agrees_small(monkeypatch):
    monkeypatch.setattr(errors, "BUDGET", 10 ** 7)
    tri = cycle_quiver(3)
    for p in (3, 5):
        assert _brute_force_raw(tri, p, 1) == brute_force_indec(tri, p, 1)
    edge = single_edge_quiver()
    assert _brute_force_raw(edge, 3, 2) == 2
    assert brute_force_indec(edge, 3, 2) == 2


def test_brute_force_matches_polynomial():
    for quiver in [cycle_quiver(3), cycle3_doubled_quiver()]:
        for p in (3, 5):
            for alpha in (1, 2):
                poly = a_gamma_alpha(quiver, alpha)
                assert brute_force_indec(quiver, p, alpha) == poly.evaluate(p)


def test_orbit_count_identity():
    # sum of automorphism counts over indecomposables = |G| * class count
    import itertools
    from amzeta.quiver_reps import components
    tri = cycle_quiver(3)
    for p, alpha in [(3, 1), (3, 2), (5, 1)]:
        mod = p ** alpha
        total = 0
        for rep in itertools.product(range(mod), repeat=3):
            support = sum(1 << i for i, x in enumerate(rep) if x)
            if components(tri, support) != 1:
                continue
            aut = (p - 1) ** components(tri, support)
            for k in range(1, alpha):
                # edges of valuation < k survive at level k
                level = sum(1 << i for i, x in enumerate(rep)
                            if x % p ** k != 0)
                aut *= p ** components(tri, level)
            total += aut
        group = ((p - 1) * p ** (alpha - 1)) ** 3
        assert total == group * brute_force_indec(tri, p, alpha)


# ---------------------------------------------------------------------------
# normalized limits
# ---------------------------------------------------------------------------

def test_limit_values():
    for k in range(3, 11):
        assert a_gamma_limit(cycle_quiver(k)) == a_limit_cycle(k)
    assert a_gamma_limit(cycle3_doubled_quiver()) == a_limit_cycle3_doubled()


def test_eulerian_recurrence_matches_table():
    for n, poly in EULERIAN.items():
        assert eulerian(n) == poly


def test_limit_equals_bmu_of_graphic_arrangement():
    # A(q) = (q/(q-1))^(V-1) B_mu(graphic arrangement), with b(G) > 1
    k4 = complete_quiver(4)
    k4_minus_edge = Quiver(4, k4.edges[:-1])
    # the wheel W5 (hub 1 on the rim 2..6; rank 5, 118 flats) and the
    # 4-prism (two 4-cycles joined by rungs; rank 7, 958 flats)
    w5 = Quiver(6, [(1, k) for k in range(2, 7)]
                + [(k, k + 1) for k in range(2, 6)] + [(6, 2)])
    prism4 = Quiver(8, [(k, k % 4 + 1) for k in range(1, 5)]
                    + [(k + 4, k % 4 + 5) for k in range(1, 5)]
                    + [(k, k + 4) for k in range(1, 5)])
    factor = RationalUni(q({1: 1}), q({1: 1, 0: -1}))
    for quiver in [theta_quiver(), k4_minus_edge, k4,
                   cycle3_doubled_quiver(), complete_quiver(5), w5, prism4]:
        assert betti(quiver, (1 << len(quiver.edges)) - 1) > 1
        arr = graphic_arrangement(quiver)
        assert a_gamma_limit(quiver) == (
            factor ** (quiver.vertices - 1) * b_mu(arr, build_lattice(arr)))


def test_limit_rejects_bridges():
    with pytest.raises(PreconditionError):
        a_gamma_limit(single_edge_quiver())


def test_numeric_limit_probe():
    # q^(-alpha b) A(alpha) at q=5 approaches the limit value
    quiver = cycle_quiver(3)
    lim = a_gamma_limit(quiver).evaluate(5)
    diffs = []
    for alpha in (2, 4, 6):
        val = a_gamma_alpha(quiver, alpha).evaluate(5) * Fraction(5) ** (-alpha)
        diffs.append(abs(val - lim))
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] / lim < Fraction(1, 100)


# ---------------------------------------------------------------------------
# the conjectural bridge
# ---------------------------------------------------------------------------

def test_lastone_on_fixtures():
    for quiver in [cycle_quiver(3), cycle_quiver(4), cycle3_doubled_quiver()]:
        report = check_lastone(quiver)
        assert report.equal


def q_integer(a):
    """[a]_q = (q^a - 1)/(q - 1)."""
    return LaurentPoly("q", {e: 1 for e in range(a)})


PHI5 = LaurentPoly("q", {4: 1, 3: 1, 2: 1, 1: 1, 0: 1})


@pytest.mark.parametrize("quiver, ratio", [
    (cycle_quiver(5), RationalUni.one("q")),
    (cycle3_doubled_quiver(), RationalUni.one("q")),
    (theta_quiver(), RationalUni.one("q")),
    (complete_quiver(4), RationalUni.from_laurent(q_integer(2))),
    (complete_quiver(5), RationalUni(PHI5 * PHI5,
                                     LaurentPoly("q", {3: 1, 0: 1}))),
], ids=["C5", "doubled-triangle", "theta", "K4", "K5"])
def test_lastone_is_a_level_set_identity(quiver, ratio):
    # with A = (q/(q-1))^m B_mu and m = V - 1, check_lastone's sides are
    # q^m [b]_q^m B_mu and q^m prod_{eps != -m} [a_eps]_q^(l_eps+1) B_mu,
    # a_eps = -eps - m: they agree exactly when the two products do
    arr = graphic_arrangement(quiver)
    m = arr.m
    assert m == quiver.vertices - 1
    graph = q_integer(betti(quiver, (1 << len(quiver.edges)) - 1)) ** m
    levels = LaurentPoly.one("q")
    for eps, lv in level_sets(build_lattice(arr)).items():
        if eps != -m:
            levels = levels * q_integer(-eps - m) ** (lv.length + 1)
    report = check_lastone(quiver)
    assert report.equal == (graph == levels)
    assert RationalUni(levels, graph) == ratio
    assert RationalUni.from_laurent(report.rhs) == report.lhs * ratio


def test_non_cyclotomic_denominator_rejected_unbuilt(monkeypatch):
    # rhs / lhs on K5 has a degree-32 denominator that is not a product
    # of cyclotomic polynomials; a Phi_d of degree above 32 cannot divide
    # it, so none may be built on the way to rejecting it
    report = check_lastone(complete_quiver(5))
    degree = report.lhs.num.degree() - report.lhs.num.low_degree()
    assert degree == 32
    built = {}
    monkeypatch.setattr(exact_algebra, "_CYCLOTOMIC", built)
    with pytest.raises(UnsupportedDenominatorError):
        RationalUni.from_laurent(report.rhs) / report.lhs
    assert built and all(max(phi) <= degree for phi in built.values())


def test_lastone_five_cycle():
    report = check_lastone(cycle_quiver(5))
    assert report.equal
    assert report.rhs == EULERIAN[5]
