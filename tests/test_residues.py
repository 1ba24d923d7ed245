import hashlib
import json
import random

import pytest

from amzeta.arrangement import (
    Arrangement,
    FlatLattice,
    build_lattice,
    graphic_arrangement,
    structural_flags,
)
from amzeta import errors, residues
from amzeta.errors import (
    BudgetExceededError,
    InvariantError,
    PreconditionError,
)
from amzeta.exact_algebra import BiRational, LaurentPoly, RationalUni
from amzeta.igusa import (
    chain_poset,
    igusa_chain,
    igusa_recursion,
    level_sets,
)
from amzeta.quiver_reps import a_gamma_limit, check_lastone
from amzeta.reference import (
    EULERIAN,
    SIX_NORMALS_BPRIME,
    bmu_n_origins,
    bmu_six_normals,
    bmu_triangle,
    bmu_triangle_doubled,
    complete_quiver,
    cycle_quiver,
    n_origins,
    six_normals_rank3,
    triangle,
    triangle_doubled,
)
from amzeta.residues import b_mu, b_mu_via_residue, b_prime


def with_lattice(arr):
    return arr, build_lattice(arr)


def test_bmu_origin_family():
    for n in (2, 3, 4):
        arr, lat = with_lattice(n_origins(n))
        assert b_mu(arr, lat) == bmu_n_origins(n)


def test_bmu_triangle():
    arr, lat = with_lattice(triangle())
    assert b_mu(arr, lat) == bmu_triangle()


def test_bmu_six_normals():
    arr, lat = with_lattice(six_normals_rank3())
    assert b_mu(arr, lat) == bmu_six_normals()


def test_bmu_rejects_coloops():
    arr, lat = with_lattice(n_origins(1))
    with pytest.raises(PreconditionError):
        b_mu(arr, lat)


def seeded_rank3():
    """A seeded coloop-free rank-3 arrangement of 13 normals, 45-55 flats."""
    rng = random.Random(20261018)
    while True:
        rows = [tuple(rng.randint(-2, 2) for _ in range(3))
                for _ in range(13)]
        arr = Arrangement([r for r in rows if any(r)])
        if arr.rank() == 3 and structural_flags(arr)["coloop_free"]:
            if 45 <= len(build_lattice(arr).flats) <= 55:
                return arr


def test_bmu_via_residue_matches():
    for arr in [n_origins(2), n_origins(3), triangle(), triangle_doubled(),
                graphic_arrangement(complete_quiver(5)),
                graphic_arrangement(complete_quiver(6)), seeded_rank3()]:
        lat = build_lattice(arr)
        zeta = igusa_chain(arr, lat)
        assert b_mu_via_residue(zeta, arr.m) == b_mu(arr, lat)
    # the recursion's residue reaches B_mu without the shared clear
    for arr in [graphic_arrangement(complete_quiver(5)), seeded_rank3()]:
        lat = build_lattice(arr)
        zeta = igusa_recursion(arr, lat)
        assert b_mu_via_residue(zeta, arr.m) == b_mu(arr, lat)


def test_bmu_reduces_once(monkeypatch):
    # the chain sums are cleared over one denominator; a reduced
    # RationalUni per flat or per comparable pair (thousands on K5) would
    # bring back the per-flat re-reduction
    arr, lat = with_lattice(graphic_arrangement(complete_quiver(5)))
    built = []
    init = RationalUni.__init__

    def counting(self, num, den):
        built.append(den)
        init(self, num, den)

    monkeypatch.setattr(RationalUni, "__init__", counting)
    b_mu(arr, lat)
    assert len(built) == 1


def test_reduction_is_charged_before_it_runs(monkeypatch):
    # K4's B_mu reduction charges its trial divisions 565 steps, the
    # residue route to it 909 and the quiver limit of K4 1,156, each more
    # than its walk and clear; one step short is refused before the last
    # trial division is made
    from amzeta import exact_algebra
    arr, lat = with_lattice(graphic_arrangement(complete_quiver(4)))
    zeta = igusa_chain(arr, lat)
    bmu = b_mu(arr, lat)
    limit = a_gamma_limit(complete_quiver(4))
    divide, trials = exact_algebra._poly_div_exact, []

    def counting(a, b):
        trials.append(1)
        return divide(a, b)
    monkeypatch.setattr(exact_algebra, "_poly_div_exact", counting)

    def budgeted(steps, call):
        monkeypatch.setattr(errors, "BUDGET", steps)
        trials.clear()
        return call()
    for call, steps, value in [
            (lambda: b_mu(arr, lat), 565, bmu),
            (lambda: b_mu_via_residue(zeta, arr.m), 909, bmu),
            (lambda: a_gamma_limit(complete_quiver(4)), 1156, limit)]:
        assert budgeted(steps, call) == value
        made = len(trials)
        with pytest.raises(BudgetExceededError, match=(
                f"rational function reduction needs at least {steps} steps, "
                f"budget allows {steps - 1}$")):
            budgeted(steps - 1, call)
        assert len(trials) == made - 1


def test_each_univariate_result_is_reduced_once(monkeypatch):
    # B' is one exact division of integer polynomials and the quiver limit
    # and the bridge fold their known factors into one construction each,
    # so these counts are the reductions that are left
    k5, lat5 = with_lattice(graphic_arrangement(complete_quiver(5)))
    zeta5 = igusa_chain(k5, lat5)
    built = []
    init = RationalUni.__init__

    def counting(self, num, den):
        built.append(den)
        init(self, num, den)

    monkeypatch.setattr(RationalUni, "__init__", counting)
    for call, expected in [
            (lambda: b_prime(k5, lat5), 1),
            (lambda: a_gamma_limit(cycle_quiver(5)), 1),
            (lambda: a_gamma_limit(complete_quiver(4)), 1),
            (lambda: check_lastone(complete_quiver(4)), 3),
            (lambda: b_mu_via_residue(zeta5, k5.m), 1)]:
        built.clear()
        call()
        assert len(built) == expected


def test_t_one_and_residue_reads_build_no_birational(monkeypatch):
    # B_mu, the quiver limit and the residue read the cleared (q, t) dicts
    # at a point and reduce once as a RationalUni; a BiRational on the way
    # would reduce the same value a second time
    k5, lat5 = with_lattice(graphic_arrangement(complete_quiver(5)))
    k6 = graphic_arrangement(complete_quiver(6))
    types6 = chain_poset(k6)
    zeta5 = igusa_chain(k5, lat5)
    built = []
    init = BiRational.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BiRational, "__init__", counting)
    for call in [lambda: b_mu(k5, lat5), lambda: b_mu(k6, types6),
                 lambda: a_gamma_limit(cycle_quiver(5)),
                 lambda: a_gamma_limit(complete_quiver(4)),
                 lambda: b_mu_via_residue(zeta5, k5.m)]:
        call()
        assert built == []


def test_bmu_via_residue_doubled_edge_value():
    arr, lat = with_lattice(triangle_doubled())
    zeta = igusa_chain(arr, lat)
    assert b_mu_via_residue(zeta, arr.m) == bmu_triangle_doubled()


def test_bmu_via_residue_rejects_double_pole():
    arr, lat = with_lattice(n_origins(1))
    zeta = igusa_chain(arr, lat)
    with pytest.raises(PreconditionError):
        b_mu_via_residue(zeta, arr.m)


# ---------------------------------------------------------------------------
# the numerator polynomial
# ---------------------------------------------------------------------------

def test_bprime_triangle_is_eulerian():
    arr, lat = with_lattice(triangle())
    data = b_prime(arr, lat)
    assert data.b_prime == EULERIAN[3]
    assert data.palindromic and data.positive_coeffs
    assert data.degree == 2
    assert data.declared_degree == 4 and data.degree_discrepancy


def test_bprime_graphic_cycles_are_eulerian():
    # cycle graphs on k vertices give the k-th Eulerian polynomial
    for k in (3, 4, 5):
        arr = graphic_arrangement(cycle_quiver(k))
        lat = build_lattice(arr)
        assert b_prime(arr, lat).b_prime == EULERIAN[k]


def test_bprime_six_normals():
    arr, lat = with_lattice(six_normals_rank3())
    data = b_prime(arr, lat)
    assert data.b_prime == SIX_NORMALS_BPRIME
    assert data.palindromic and data.positive_coeffs
    assert data.degree == 10


def test_bprime_doubled_edge():
    arr, lat = with_lattice(triangle_doubled())
    data = b_prime(arr, lat)
    assert data.b_prime == LaurentPoly("q", {4: 1, 3: 3, 2: 6, 1: 3, 0: 1})


def test_bprime_origin_family():
    # n origins: B' = q (q^(n-1)+...+1)/ ... cleared against P \ {-1}
    for n in (2, 3, 4):
        arr, lat = with_lattice(n_origins(n))
        data = b_prime(arr, lat)
        assert data.palindromic
        assert data.b_mu == bmu_n_origins(n)


@pytest.mark.parametrize("arr", [six_normals_rank3(),
                                 graphic_arrangement(complete_quiver(4))],
                         ids=["six", "K4"])
def test_bprime_refuses_a_factor_that_does_not_clear(monkeypatch, arr):
    # one power of each q-integer too few leaves a remainder in the
    # exact division by den(B_mu)
    def shorter(lat):
        levels = level_sets(lat)
        for lv in levels.values():
            lv.length -= 1
        return levels

    monkeypatch.setattr(residues, "level_sets", shorter)
    with pytest.raises(InvariantError,
                       match="expected denominator does not clear"):
        b_prime(arr, build_lattice(arr))


def random_coloop_free(rng):
    while True:
        m = rng.randint(1, 3)
        n = rng.randint(2, 5)
        rows = [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(n)]
        rows = [r for r in rows if any(r)]
        if not rows:
            continue
        arr = Arrangement(rows)
        flags = structural_flags(arr)
        if flags["essential"] and flags["coloop_free"]:
            return arr


def test_bprime_random_palindromic():
    rng = random.Random(31337)
    violations = 0
    for _ in range(20):
        arr = random_coloop_free(rng)
        data = b_prime(arr, build_lattice(arr))
        assert data.palindromic    # hard guarantee
        if not data.positive_coeffs:
            violations += 1        # conjectural, tracked not asserted
    assert violations == 0, "positivity conjecture violated on suite"


# ---------------------------------------------------------------------------
# the chain sums behind igusa_chain, b_mu and b_prime
# ---------------------------------------------------------------------------

K5_BPRIME = LaurentPoly("q", dict(enumerate([
    1, 6, 21, 60, 145, 324, 672, 1197, 1913, 2825, 3874, 4991, 6042, 6868,
    7301, 7301, 6868, 6042, 4991, 3874, 2825, 1913, 1197, 672, 324, 145, 60,
    21, 6, 1])))


@pytest.mark.parametrize("arr, bprime", [
    (graphic_arrangement(complete_quiver(5)), K5_BPRIME),
    (six_normals_rank3(), SIX_NORMALS_BPRIME)], ids=["K5", "six"])
def test_chain_route_reads_no_interval_chi_or_mobius_row(monkeypatch, arr,
                                                         bprime):
    # the references come from the localization recursion, which reads
    # interval characteristic polynomials, before those are switched off
    zeta = igusa_recursion(arr, build_lattice(arr))

    def refuse(*args):
        raise AssertionError("the chain route read an interval chi or a "
                             "Mobius row")

    monkeypatch.setattr(FlatLattice, "char_poly_interval", refuse)
    monkeypatch.setattr(FlatLattice, "_mobius_row", refuse)
    lat = build_lattice(arr)
    assert igusa_chain(arr, lat).value == zeta.value
    assert b_mu(arr, lat) == b_mu_via_residue(zeta, arr.m)
    assert b_prime(arr, lat).b_prime == bprime


def test_k7_chain_route_regression_pin():
    # K7 (877 flats) is past the recursion oracle's reach in tier-1 time
    # (about 8 s), so its values are pinned as the interval-chi form of the
    # chain sums computed them: 16 hex digits of the sha256 of the sorted
    # JSON, and the degree and leading coefficients of B'
    arr = graphic_arrangement(complete_quiver(7))
    lat = build_lattice(arr)

    def digest(value):
        text = json.dumps(value.to_json(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    assert digest(igusa_chain(arr, lat).value) == "1d83506e638b90c0"
    data = b_prime(arr, lat)
    assert digest(data.b_mu) == "24ddce2147880e01"
    # the partition-type route that igusa and bmu take on K7
    types = chain_poset(arr)
    assert len(types) == 15
    assert digest(igusa_chain(arr, types).value) == "1d83506e638b90c0"
    assert digest(b_mu(arr, types)) == "24ddce2147880e01"
    coeffs = [c for _, c in sorted(data.b_prime.items())]
    assert data.degree == 165 and len(coeffs) == 166
    assert coeffs == coeffs[::-1]
    assert coeffs[:6] == [1, 14, 105, 560, 2380, 8574]
