import random
from fractions import Fraction

import pytest

from amzeta.arrangement import (
    Arrangement,
    FlatLattice,
    build_lattice,
    graphic_arrangement,
    structural_flags,
)
from amzeta.errors import InvariantError, PreconditionError
from amzeta.igusa import (
    functional_equation_check,
    igusa_chain,
    igusa_recursion,
    level_sets,
    pole_report,
)
from amzeta.reference import (
    complete_quiver,
    n_origins,
    six_normals_rank3,
    triangle,
    triangle_doubled,
    zeta_n_origins,
    zeta_six_normals,
    zeta_triangle,
)


def zeta_pair(arr):
    lat = build_lattice(arr)
    return igusa_chain(arr, lat), lat


@pytest.fixture(scope="module")
def six_normal_zeta():
    arr = six_normals_rank3()
    lat = build_lattice(arr)
    return arr, lat, igusa_chain(arr, lat)


def test_origin_family_closed_form():
    for n in range(1, 6):
        z, _ = zeta_pair(n_origins(n))
        assert z.value == zeta_n_origins(n)


def test_triangle_closed_form():
    z, _ = zeta_pair(triangle())
    assert z.value == zeta_triangle()


def test_six_normals_closed_form(six_normal_zeta):
    _, _, z = six_normal_zeta
    assert z.value.pole_orders() == {3: 1, 5: 1, 6: 3}
    assert z.value == zeta_six_normals()


def test_non_essential_rejected():
    arr = Arrangement([(1, 0)])
    with pytest.raises(PreconditionError):
        igusa_chain(arr, build_lattice(arr))


def test_chain_equals_recursion_fixtures():
    for arr in [n_origins(1), n_origins(3), triangle(), triangle_doubled()]:
        lat = build_lattice(arr)
        assert igusa_chain(arr, lat).value == igusa_recursion(arr, lat).value


def test_chain_equals_recursion_six_normals(six_normal_zeta):
    arr, lat, z = six_normal_zeta
    assert igusa_recursion(arr, lat).value == z.value


def random_essential(rng):
    while True:
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        rows = [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(n)]
        rows = [r for r in rows if any(r)]
        if not rows:
            continue
        arr = Arrangement(rows)
        if arr.rank() == m:
            return arr


def test_chain_equals_recursion_random():
    rng = random.Random(4207)
    for _ in range(20):
        arr = random_essential(rng)
        lat = build_lattice(arr)
        assert igusa_chain(arr, lat).value == igusa_recursion(arr, lat).value


def test_chain_equals_recursion_graphic_k5():
    arr = graphic_arrangement(complete_quiver(5))
    lat = build_lattice(arr)
    assert arr.rank() == 4 and len(lat.flats) == 52
    assert igusa_chain(arr, lat).value == igusa_recursion(arr, lat).value


def test_chain_equals_recursion_random_rank4():
    rng = random.Random(4)
    while True:
        rows = [tuple(rng.randint(-1, 1) for _ in range(4))
                for _ in range(10)]
        arr = Arrangement([r for r in rows if any(r)])
        if arr.rank() == 4:
            lat = build_lattice(arr)
            if len(lat.flats) >= 50:
                break
    assert igusa_chain(arr, lat).value == igusa_recursion(arr, lat).value


def zeta_by_chain_enumeration(arr, lat):
    """Literal sum over all strict chains descending from the top flat;
    no resummation, used to validate the dynamic program."""
    from amzeta.exact_algebra import BiRational
    m = arr.m
    chains = []

    def extend(chain):
        for j in range(len(lat.flats)):
            if j != chain[-1] and lat.leq(j, chain[-1]):
                chains.append(chain + [j])
                extend(chain + [j])

    extend([lat.top])
    total = BiRational.zero()
    for chain in chains:
        term = BiRational.monomial(lat.ranks[chain[-1]] - m, 0)
        for i in range(1, len(chain)):
            term = term * BiRational.from_q_poly(
                lat.char_poly_interval(chain[i], chain[i - 1]))
            term = term * BiRational({(0, 1): 1},
                                     den=[(lat.delta(chain[i]), 1)])
        total = total + term
    leading = BiRational({(m, 0): 1, (0, 0): -1}, den=[(m, 1)])
    prefactor = BiRational({(m, 1): 1, (m, 0): -1}, (0, 1), [(m, 1)])
    return leading + prefactor * total


def test_dp_equals_literal_chain_sum():
    rng = random.Random(777)
    arrangements = [triangle(), n_origins(3)]
    arrangements += [random_essential(rng) for _ in range(5)]
    for arr in arrangements:
        lat = build_lattice(arr)
        assert igusa_chain(arr, lat).value == zeta_by_chain_enumeration(
            arr, lat)


def test_value_against_numeric_probe():
    # independent spot check of the chain DP: evaluate at rational points
    arr = triangle()
    z, _ = zeta_pair(arr)
    expected = zeta_triangle()
    for q0, t0 in [(5, Fraction(1, 5)), (7, Fraction(2, 3))]:
        assert z.value.evaluate(q0, t0) == expected.evaluate(q0, t0)


# ---------------------------------------------------------------------------
# poles
# ---------------------------------------------------------------------------

def test_pole_report_triangle():
    arr = triangle()
    z, lat = zeta_pair(arr)
    rep = pole_report(z, arr, lat)
    assert {e.eps: e.actual_order for e in rep.entries} == {-2: 1, -3: 2}
    assert rep.entry(-3).predicted_bound == 2
    assert rep.entry(-2).distinguished == {"-m"}
    assert rep.entry(-3).distinguished == {"-n", "second-largest"}


def test_pole_report_six_normals(six_normal_zeta):
    arr, lat, z = six_normal_zeta
    rep = pole_report(z, arr, lat)
    assert {e.eps: e.actual_order for e in rep.entries} == {
        -3: 1, -5: 1, -6: 3}


def test_pole_report_origin_family():
    for n in (2, 4):
        arr = n_origins(n)
        z, lat = zeta_pair(arr)
        rep = pole_report(z, arr, lat)
        assert {e.eps: e.actual_order for e in rep.entries} == {-1: 1, -n: 1}


def test_level_sets_coloop_detection():
    # simple pole at -m exactly when the arrangement is coloop-free
    for arr in [n_origins(1), n_origins(3), triangle(),
                Arrangement([(1, 0), (0, 1)])]:
        lat = build_lattice(arr)
        lv = level_sets(lat)[-arr.m]
        assert (lv.length == 0) == structural_flags(arr)["coloop_free"]


def test_level_sets_rejects_outside_flat_inside_a_level_set():
    # hand-built chain {} < {0} < {0, 1} with ranks 0, 2, 2: delta is
    # 2, 3, 2, so {0} lies between the two members of the delta-2 set
    lat = FlatLattice(Arrangement([(1, 0), (0, 1)]), [0b00, 0b01, 0b11],
                      [0, 2, 2], [[1], [2], []])
    with pytest.raises(InvariantError, match="interval-closed"):
        level_sets(lat)


def test_level_sets_rejects_member_above_two_minimal_flats():
    # hand-built square {} < {0}, {1} < {0, 1} with ranks 0, 2, 2, 3: the
    # delta-3 set {0}, {1}, {0, 1} is interval-closed, but its top member
    # lies above both of its minimal flats
    lat = FlatLattice(Arrangement([(1, 0), (0, 1)]),
                      [0b00, 0b01, 0b10, 0b11], [0, 2, 2, 3],
                      [[1, 2], [3], [3], []])
    with pytest.raises(InvariantError, match="more than one minimal"):
        level_sets(lat)


def test_pole_reports_random():
    rng = random.Random(97)
    for _ in range(12):
        arr = random_essential(rng)
        z, lat = zeta_pair(arr)
        pole_report(z, arr, lat)   # all embedded assertions must hold


# ---------------------------------------------------------------------------
# functional equation
# ---------------------------------------------------------------------------

def test_functional_equation_fixtures(six_normal_zeta):
    for arr in [n_origins(1), n_origins(2), n_origins(5), triangle(),
                triangle_doubled()]:
        z, _ = zeta_pair(arr)
        assert functional_equation_check(z)
    assert functional_equation_check(six_normal_zeta[2])
