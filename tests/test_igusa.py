import random
from fractions import Fraction

import pytest

from amzeta.arrangement import (
    Arrangement,
    FlatLattice,
    build_lattice,
    graphic_arrangement,
    max_abs_minor,
    structural_flags,
)
from amzeta import errors, igusa
from amzeta.checks import lattice_invariants
from amzeta.errors import (
    BudgetExceededError,
    InvariantError,
    PreconditionError,
)
from amzeta.igusa import (
    functional_equation_check,
    igusa_chain,
    igusa_recursion,
    level_sets,
    pole_report,
)
from amzeta.padic_oracle import poincare_check
from amzeta.reference import (
    complete_quiver,
    cycle_quiver,
    n_origins,
    six_normals_rank3,
    triangle,
    triangle_doubled,
    zeta_n_origins,
    zeta_six_normals,
    zeta_triangle,
)
from amzeta.residues import b_mu, b_mu_via_residue


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


def test_recursion_reads_only_the_lattice_it_is_given(monkeypatch):
    # each flat's localization lattice is its order ideal in ``lat``, so
    # the recursion on K5 builds no lattice and no localization
    from amzeta import arrangement
    arr = graphic_arrangement(complete_quiver(5))
    lat = build_lattice(arr)
    chain = igusa_chain(arr, lat).value

    def refuse(*args):
        raise AssertionError("the recursion built a sub-arrangement")
    for module, name in [(igusa, "build_lattice"),
                         (arrangement, "build_lattice"),
                         (arrangement, "localization")]:
        monkeypatch.setattr(module, name, refuse)
    assert igusa_recursion(arr, lat).value == chain


def test_chain_equals_recursion_graphic_k6():
    arr = graphic_arrangement(complete_quiver(6))
    lat = build_lattice(arr)
    assert arr.rank() == 5 and len(lat.flats) == 203
    assert igusa_chain(arr, lat).value == igusa_recursion(arr, lat).value


def test_narrowed_slot_width_is_caught(monkeypatch):
    # the proven width holds K6's coefficients with room to spare (22 bits
    # for 14-bit sums); the balanced decode needs one bit over the largest,
    # and with one bit less it wraps that coefficient, so the chain route
    # no longer agrees with the recursion
    arr = graphic_arrangement(complete_quiver(6))
    lat = build_lattice(arr)
    _, sums = igusa._chain_sums(lat)
    need = 1 + max(abs(c) for poly in sums.values()
                   for c in poly.values()).bit_length()
    assert igusa._slot_width(lat) == need + 7
    oracle = igusa_recursion(arr, lat).value
    monkeypatch.setattr(igusa, "_slot_width", lambda lat: need)
    assert igusa_chain(arr, lat).value == oracle
    monkeypatch.setattr(igusa, "_slot_width", lambda lat: need - 1)
    try:
        narrowed = igusa_chain(arr, lat).value
    except InvariantError:
        return
    assert narrowed != oracle


def test_chain_walk_charges_its_merged_entries(monkeypatch):
    # K5: the walk merges 1,041 W and S entries over its 52 flats, charged
    # as it goes, so one step short is refused at the last flat
    arr = graphic_arrangement(complete_quiver(5))
    lat = build_lattice(arr)
    monkeypatch.setattr(errors, "BUDGET", 1040)
    for route in (igusa._chain_sums, lambda lat: igusa_chain(arr, lat)):
        with pytest.raises(BudgetExceededError, match=(
                "chain walk needs at least 1041 steps, budget allows 1040")):
            route(lat)
    monkeypatch.setattr(errors, "BUDGET", 1041)
    igusa._chain_sums(lat)
    # one step more and igusa_chain walks on: its reduction refuses now
    with pytest.raises(BudgetExceededError,
                       match="^zeta reduction needs at least"):
        igusa_chain(arr, lat)


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
        term = BiRational({(lat.ranks[chain[-1]] - m, 0): 1})
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
    # rank 4 and 52 flats: the resummed DP against every chain literally
    arrangements.append(graphic_arrangement(complete_quiver(5)))
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


# ---------------------------------------------------------------------------
# braid arrangements by partition type
# ---------------------------------------------------------------------------

def braid(k):
    return graphic_arrangement(complete_quiver(k))


def _dump(payload):
    import json
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.fixture(scope="module")
def lattice_route(tmp_path_factory):
    """Per k = 2..8: K_k's lattice, its chain sums, its level sets as
    eps -> (length, criterion), and the stdout that igusa, poles, bmu,
    bprime and (k <= 7) oracle print from the lattice route's values.  K8's
    oracle stops at the prime guard, whose minor scan outruns the default
    budget, before any poset is read."""
    import contextlib
    import io
    import json
    from amzeta.cli import main
    from amzeta.residues import b_prime
    out = {}
    for k in range(2, 9):
        arr = braid(k)
        lat = build_lattice(arr)
        zeta = igusa_chain(arr, lat)
        value = zeta.value
        poles = pole_report(zeta, arr, lat).to_json()
        poles["functional_equation"] = functional_equation_check(zeta)
        printed = {
            ("igusa",): _dump(value.to_json()),
            ("igusa", "--format", "plain"): value.to_str() + "\n",
            ("igusa", "--format", "latex"): value.to_latex() + "\n",
            ("poles",): _dump(poles)}
        try:
            data = b_prime(arr, lat)
        except PreconditionError:           # K2's one normal is a coloop
            for argv in [("bmu",), ("bmu", "--format", "plain"),
                         ("bprime",), ("bprime", "--format", "plain")]:
                printed[argv] = None
        else:
            printed[("bmu",)] = _dump(data.b_mu.to_json())
            printed[("bmu", "--format", "plain")] = data.b_mu.to_str() + "\n"
            printed[("bprime",)] = _dump(data.to_json())
            printed[("bprime", "--format", "plain")] = (data.b_prime.to_str()
                                                        + "\n")
        if k <= 7:
            # the oracle through the CLI, its poset swapped for the lattice
            path = tmp_path_factory.mktemp("lattice_route") / f"k{k}.json"
            path.write_text(json.dumps(arr.to_json()))
            argv = ("oracle", "--p", "3", "--alpha", "1")
            with pytest.MonkeyPatch.context() as patch, \
                    contextlib.redirect_stdout(io.StringIO()) as stdout:
                patch.setattr(igusa, "chain_poset", lambda arr: lat)
                assert main([argv[0], str(path), *argv[1:]]) == 0
            printed[argv] = stdout.getvalue()
        levels = {eps: (lv.length, lv.criterion)
                  for eps, lv in level_sets(lat).items()}
        out[k] = lat, igusa._chain_sums(lat), printed, levels
    return out


@pytest.mark.parametrize("k", range(2, 9))
def test_type_route_sums_equal_lattice_route(lattice_route, k):
    arr = braid(k)
    poset = igusa.chain_poset(arr)
    assert isinstance(poset, igusa.TypeQuotient)
    lat, sums, _, levels = lattice_route[k]
    assert igusa._chain_sums(poset) == sums
    assert igusa._slot_width(poset) == igusa._slot_width(lat)
    assert {eps: (lv.length, lv.criterion)
            for eps, lv in level_sets(poset).items()} == levels


@pytest.mark.parametrize("k", range(2, 9))
def test_type_route_stdout_equals_lattice_route(lattice_route, capsys,
                                                 tmp_path, k):
    import json
    from amzeta.cli import main
    path = tmp_path / f"k{k}.json"
    path.write_text(json.dumps(braid(k).to_json()))
    for argv, expected in lattice_route[k][2].items():
        code = main([argv[0], str(path), *argv[1:]])
        out = capsys.readouterr().out
        assert (code, out) == ((0, expected) if expected is not None
                               else (2, "")), argv


@pytest.mark.parametrize("argv", [
    ["igusa"], ["poles"], ["bmu"], ["bprime"],
    ["oracle", "--p", "3", "--alpha", "1"], ["check-lastone"]],
    ids=lambda argv: argv[0])
def test_chain_sum_commands_build_no_lattice_on_braids(capsys, tmp_path,
                                                       monkeypatch, argv):
    import json
    from amzeta.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("a braid arrangement built its lattice")
    monkeypatch.setattr(igusa, "build_lattice", refuse)
    monkeypatch.setattr("amzeta.cli.build_lattice", refuse)
    built, quotient = [], igusa.TypeQuotient

    def counted(*args):
        built.append(quotient(*args))
        return built[-1]
    monkeypatch.setattr(igusa, "TypeQuotient", counted)
    data = (complete_quiver(4) if argv[0] == "check-lastone"
            else braid(5)).to_json()
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main([argv[0], str(path), *argv[1:]]) == 0
    assert capsys.readouterr().out and len(built) == 1


def test_type_route_equals_recursion_k6():
    arr = braid(6)
    poset = igusa.chain_poset(arr)
    assert len(poset) == 11
    assert (igusa_chain(arr, poset).value
            == igusa_recursion(arr, build_lattice(arr)).value)


def bell(k):
    row = [1]
    for _ in range(k - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


@pytest.mark.parametrize("k", range(2, 13))
def test_type_weights_count_flats_and_chi(k):
    # the weights count the Bell(k) flats, and with the Mobius values they
    # give K_k's characteristic polynomial prod_{i<k} (q - i), divided by
    # q.  [bottom, F] is the product of the partition lattices of F's
    # blocks and [G, top] the partition lattice of G's blocks, so
    # mu(bottom, F) is the product of the mobius_top of the types G with
    # as many blocks as F's block sizes
    from math import prod
    from amzeta.exact_algebra import LaurentPoly
    poset = igusa.TypeQuotient(braid(k), k)
    assert sum(poset.weights) == bell(k)
    top_mu = {len(lam): poset.mobius_top(i)
              for i, lam in enumerate(poset.types)}
    chi = LaurentPoly.zero("q")
    for lam, weight in zip(poset.types, poset.weights):
        mobius = prod(top_mu[x] for x in lam)
        chi = chi + LaurentPoly("q", {len(lam) - 1: weight * mobius})
    expected = LaurentPoly.one("q")
    for i in range(1, k):
        expected = expected * LaurentPoly("q", {1: 1, 0: -i})
    assert chi == expected


def test_type_slot_width_equals_lattice_k6():
    arr = braid(6)
    lat, poset = build_lattice(arr), igusa.chain_poset(arr)
    assert igusa._slot_width(poset) == igusa._slot_width(lat) == 22


def test_braid_recognition():
    rng = random.Random(19)
    for k in range(2, 8):
        # the normals shuffled, each negated or not, the coordinates
        # (vertices 1..k-1) permuted
        perm = rng.sample(range(k - 1), k - 1)
        rows = [tuple(sign * row[c] for c in perm)
                for row in braid(k).normals
                for sign in [rng.choice((1, -1))]]
        rng.shuffle(rows)
        poset = igusa.chain_poset(Arrangement(rows))
        assert isinstance(poset, igusa.TypeQuotient)
        assert len(poset.types) == len(poset.weights) and poset.top == len(
            poset) - 1 and poset.types[-1] == (k,)
    k6 = braid(6).normals
    rejected = {
        "minus an edge": k6[1:],
        "a doubled edge": k6 + k6[:1],
        "a doubled edge for another": k6[:1] + k6[:-1],
        "one normal scaled by 2": ((2 * k6[0][0],) + k6[0][1:],) + k6[1:],
        "C4": graphic_arrangement(cycle_quiver(4)).normals,
        "relabelled but not a difference": (tuple(
            abs(x) for x in k6[1]),) + k6[:1] + k6[2:],
    }
    for what, rows in rejected.items():
        arr = Arrangement(rows)
        assert igusa._braid_order(arr) == 0, what
        assert isinstance(igusa.chain_poset(arr), FlatLattice), what


# ---------------------------------------------------------------------------
# signed graphs at rank 4-5: sub-arrangements of the type-B root system,
# whose minors are 0 or +-2^k, so they reduce well at every odd prime
# ---------------------------------------------------------------------------

def signed_graph_draws():
    """12 seeded essential sub-arrangements of B4 and B5, normals e_i and
    e_i +- e_j, with 50 to 120 flats, and their lattices."""
    rng = random.Random(11)
    draws = []
    while len(draws) < 12:
        m = rng.randint(4, 5)
        units = [tuple(int(i == c) for c in range(m)) for i in range(m)]
        roots = units + [tuple(a + s * b for a, b in zip(ei, ej))
                         for i, ei in enumerate(units) for ej in units[i + 1:]
                         for s in (1, -1)]
        arr = Arrangement(rng.sample(roots, rng.randint(m + 2, 2 * m + 2)))
        if arr.rank() == m:
            lat = build_lattice(arr)
            if 50 <= len(lat) <= 120:
                draws.append((arr, lat))
    return draws


@pytest.fixture(scope="module")
def signed_graphs():
    return [(arr, lat, igusa_chain(arr, lat),
             max_abs_minor(arr))
            for arr, lat in signed_graph_draws()]


def test_signed_graph_routes_agree_at_rank_4_and_5(signed_graphs):
    assert {arr.m for arr, *_ in signed_graphs} == {4, 5}
    simple = 0
    for arr, lat, zeta, _ in signed_graphs:
        assert zeta.value == igusa_recursion(arr, lat).value
        pole_report(zeta, arr, lat)
        if zeta.value.pole_orders().get(arr.m) == 1:
            simple += 1
            assert b_mu(arr, lat) == b_mu_via_residue(zeta, arr.m)
        lattice_invariants(arr, lat)
    assert simple >= 6


def test_signed_graph_series_equal_counts_at_p3(signed_graphs):
    admitted = [draw for draw in signed_graphs if draw[3] <= 2]
    assert len(admitted) >= 4
    for arr, lat, _, _ in admitted:
        poincare_check(arr, lat, 3, 2)


def _trials_within_charge(monkeypatch, cls, stage, divide_name, updates,
                          calls):
    """Run calls and pair each trial division of cls's reduction, the
    function divide_name of exact_algebra, with the running charge it drew
    just before; its updates, counted by a copy of the division, never
    exceed that charge."""
    from amzeta import exact_algebra
    init, divide = cls.__init__, getattr(exact_algebra, divide_name)
    running = exact_algebra._charge_running
    state = {"steps": 0, "drawn": None}
    trials = []

    def reducing(self, *args, **kwargs):
        state["steps"] = 0
        init(self, *args, **kwargs)

    def charging(what, steps):
        if what == stage:
            state["drawn"], state["steps"] = steps - state["steps"], steps
        running(what, steps)

    def counting(*args):
        # a division right after a charge is a trial of the reduction; the
        # ones building a cyclotomic polynomial are not charged
        drawn, state["drawn"] = state["drawn"], None
        if drawn is not None:
            trials.append((updates(*args), drawn))
        return divide(*args)
    monkeypatch.setattr(cls, "__init__", reducing)
    monkeypatch.setattr(exact_algebra, "_charge_running", charging)
    monkeypatch.setattr(exact_algebra, divide_name, counting)
    for call in calls:
        trials.clear()
        call()
        assert trials and all(work <= drawn for work, drawn in trials)


def _reduction_inputs(signed_graphs):
    """K4-K8 over their types and the B4/B5 draws over their lattices."""
    return ([(braid(k), igusa.chain_poset(braid(k))) for k in range(4, 9)]
            + [(arr, lat) for arr, lat, *_ in signed_graphs])


def test_zeta_reduction_charge_bounds_its_updates(monkeypatch,
                                                  signed_graphs):
    # the updates of a trial division by q^a - t: each term read, and each
    # carry term merged into a t-row
    from amzeta.exact_algebra import BiRational

    def updates(num, a):
        rows = {}
        for (e, f), c in num.items():
            rows.setdefault(f, {})[e] = c
        carry, work = {}, len(num)
        for j in range(max(rows), -1, -1):
            row = rows.get(j, {})
            for e, c in carry.items():
                row[e + a] = row.get(e + a, 0) + c
            work += len(carry)
            carry = {e: c for e, c in row.items() if c}
        return work
    _trials_within_charge(
        monkeypatch, BiRational, "zeta reduction", "_b2_div_factor", updates,
        [lambda arr=arr, lat=lat: igusa_chain(arr, lat)
         for arr, lat in _reduction_inputs(signed_graphs)])


def test_rational_reduction_charge_bounds_its_updates(monkeypatch,
                                                      signed_graphs):
    # the updates of a trial division by Phi_d: each remainder entry built,
    # and |Phi_d| entries per quotient term
    from amzeta.exact_algebra import RationalUni

    def updates(a, b):
        da, db = max(a), max(b)
        if da < db:
            return 0
        rem = [a.get(e, 0) for e in range(da + 1)]
        work = da + 1
        for top in range(da, db - 1, -1):
            if rem[top]:
                q, r = divmod(rem[top], b[db])
                if r:
                    break
                work += len(b)
                for e, c in b.items():
                    rem[top - db + e] -= q * c
        return work
    inputs = [(arr, lat) for arr, lat in _reduction_inputs(signed_graphs)
              if structural_flags(arr)["coloop_free"]]
    assert len(inputs) >= 10
    _trials_within_charge(
        monkeypatch, RationalUni, "rational function reduction",
        "_poly_div_exact", updates,
        [lambda arr=arr, lat=lat: b_mu(arr, lat) for arr, lat in inputs])


def test_signed_graph_with_minor_4_is_refused_at_p3(signed_graphs):
    # bad reduction is the guard's refusal, never a series/oracle mismatch
    arr, lat, _, _ = next(d for d in signed_graphs if d[3] == 4)
    with pytest.raises(PreconditionError,
                       match=r"prime 3 not larger than max \|minor\| 4"):
        poincare_check(arr, lat, 3, 2)
