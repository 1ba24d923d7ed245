"""Acceptance gate: one test per criterion, each printing a pass line.

Where ``amz verify`` already makes a criterion's assertions, the test runs
that entry of the check table (``amzeta.checks.SUITES``, default options);
only what the table does not check is written out here.  Every comparison
is exact (big-integer / rational arithmetic); there are no numeric
tolerances anywhere.  Run with -s to see the pass lines.
"""

import functools
import random
from types import SimpleNamespace

from amzeta.arrangement import build_lattice, graphic_arrangement, \
    structural_flags
from amzeta.checks import DEFAULT_SEED, SUITES, lattice_invariants, \
    random_arrangement
from amzeta.exact_algebra import LaurentPoly
from amzeta.hypertoric import count_moment_fiber, find_generic_xi, \
    hypertoric_class
from amzeta.igusa import functional_equation_check, igusa_chain, \
    igusa_recursion
from amzeta.open_derham import OdrInput, odr_class
from amzeta.quiver_reps import a_gamma_alpha, brute_force_indec
from amzeta.residues import b_mu, b_prime
from amzeta.reference import (
    bmu_n_origins,
    cycle_quiver,
    n_origins,
    six_normals_rank3,
    triangle,
    triangle_doubled,
)


def _passed(num, text):
    print(f"ACCEPTANCE {num:>2}: {text} ... PASS")


@functools.cache
def _table(suite):
    checks, conjectures = SUITES[suite](
        SimpleNamespace(p=None, alpha=None, seed=DEFAULT_SEED))
    return dict(checks + conjectures)


@functools.cache
def _run(suite, name):
    """Run one table entry (once per session); return what it returns."""
    return _table(suite)[name]()


def _random_invariants():
    """The 20 seeded essential arrangements of the properties suite: lattice
    invariants, chain == recursion, functional equation, pole report."""
    for name in _table("properties"):
        if name.startswith("random arrangement #"):
            _run("properties", name)


def test_criterion_01_origin_family_zeta():
    _run("paper", "igusa rank-1 origin family n=1..5")
    _passed(1, "rank-1 origin family zeta, n = 1..5, exact")


def test_criterion_02_triangle_zeta():
    _run("paper", "igusa triangle")
    arr = triangle()
    zeta = igusa_chain(arr, build_lattice(arr))
    assert zeta.value.pole_orders() == {2: 1, 3: 2}
    _passed(2, "triangle zeta matches the printed rational function")


def test_criterion_03_six_normal_zeta():
    _run("paper", "igusa six-normal rank-3")
    _passed(3, "six-normal rank-3 zeta: denominator and degree-24 numerator")


def test_criterion_04_chain_equals_recursion():
    _random_invariants()
    for arr in [n_origins(n) for n in range(1, 6)] + [triangle(),
                                                      six_normals_rank3()]:
        lat = build_lattice(arr)
        assert igusa_chain(arr, lat).value == igusa_recursion(arr, lat).value
    _passed(4, "chain formula == recursion on fixtures + 20 random")


def test_criterion_05_poincare_oracle():
    for name in _table("oracle"):
        if name.startswith("series vs counts"):
            _run("oracle", name)
    _run("paper", "single-origin depth counts")
    _passed(5, "series expansion == depth counts at p=5 (alpha <= 3)")


def test_criterion_06_residue_values():
    _run("paper", "residues and numerators")
    arr = n_origins(4)
    assert b_mu(arr, build_lattice(arr)) == bmu_n_origins(4)
    _passed(6, "residues: origin family, Eulerian values, doubled edge, "
               "degree-10 numerator")


def test_criterion_07_palindromicity():
    fixtures = [n_origins(2), n_origins(4), triangle(), triangle_doubled(),
                six_normals_rank3(), graphic_arrangement(cycle_quiver(4))]
    rng = random.Random(414243)
    randoms = []
    while len(randoms) < 20:
        arr = random_arrangement(rng, require_essential=True)
        flags = structural_flags(arr)
        if flags["coloop_free"]:
            randoms.append(arr)
    violations = 0
    for arr in fixtures + randoms:
        data = b_prime(arr, build_lattice(arr))
        assert data.palindromic
        if not data.positive_coeffs:
            violations += 1
    assert violations == 0
    _passed(7, "palindromic numerators; positivity conjecture holds on suite"
               f" ({len(fixtures) + len(randoms)} cases)")


def test_criterion_08_functional_equation():
    _random_invariants()
    fixtures = [n_origins(n) for n in range(1, 6)] + [
        triangle(), triangle_doubled(), six_normals_rank3()]
    for arr in fixtures:
        lat = build_lattice(arr)
        assert functional_equation_check(igusa_chain(arr, lat))
    _passed(8, "functional equation with degree-2 weight on all zetas")


def test_criterion_09_hypertoric_classes():
    _run("paper", "hypertoric origin family classes")
    for arr in [n_origins(2), n_origins(3), triangle()]:
        lat = build_lattice(arr)
        cls = hypertoric_class(arr, lat)
        for p in (5, 7):
            xi = find_generic_xi(arr, lat, p)
            count = count_moment_fiber(arr, lat, p, xi)
            assert count == (p - 1) ** arr.m * cls.value.evaluate(p)
    _passed(9, "hypertoric classes and fiber-count certificates at p = 5, 7")


def test_criterion_10_quiver_series():
    _run("paper", "one-loop quiver series vs product expansion")
    _passed(10, "one-loop quiver series == product expansion through T^5")


def test_criterion_11_open_derham():
    _run("paper", "open de Rham rank-2 family")
    for orders in [(2,), (5,), (2, 3, 4)]:
        assert odr_class(OdrInput(1, orders)).value == LaurentPoly.one("L")
    for d in (2, 3, 4):
        for k in range(2 * d, 9):
            inp = OdrInput(2, (k - 2 * (d - 1),) + (2,) * (d - 1))
            value = odr_class(inp).value
            assert value.degree() == inp.dimension()
            assert value.leading_coeff() == 1
    _passed(11, "rank-2 family matches closed form for d = 2..4, total <= 8")


def test_criterion_12_quiver_reps():
    _run("paper", "indecomposable count limits")
    tri = cycle_quiver(3)
    poly = a_gamma_alpha(tri, 1)
    for p in (3, 5):
        assert brute_force_indec(tri, p, 1) == poly.evaluate(p)
    assert _run("properties", "graph-count vs numerator bridge") == (3, 0)
    _passed(12, "depth counts, limits, and the numerator bridge")


def test_criterion_13_arrangement_core():
    _random_invariants()
    for arr in [n_origins(2), triangle(), triangle_doubled(),
                six_normals_rank3()]:
        lattice_invariants(arr, build_lattice(arr))
    _passed(13, "lattice core properties on fixtures + 20 random")
