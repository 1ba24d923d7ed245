import itertools
import math
import random
from fractions import Fraction

import pytest

from amzeta import arrangement as arrangement_module
from amzeta.arrangement import (
    Arrangement,
    build_lattice,
    char_poly_of,
    count_complement_Fq,
    deletion,
    graphic_arrangement,
    int_det,
    localization,
    max_abs_minor,
    rank,
    restriction,
    structural_flags,
    unimodular,
)
from amzeta.checks import (
    DEFAULT_SEED,
    lattice_invariants,
    next_prime_above,
    random_arrangement,
)
from amzeta.errors import PreconditionError
from amzeta.exact_algebra import LaurentPoly
from amzeta.hypertoric import hypertoric_class
from amzeta.igusa import (
    functional_equation_check,
    igusa_chain,
    igusa_recursion,
    pole_report,
)
from amzeta.padic_oracle import poincare_check
from amzeta.reference import (
    complete_quiver,
    cycle_quiver,
    n_origins,
    single_edge_quiver,
    six_normals_rank3,
    triangle,
    triangle_doubled,
)
from amzeta.residues import b_mu, b_mu_via_residue, b_prime


def flat_sets(lat):
    return {tuple(sorted(f)) for f in lat.flats}


# ---------------------------------------------------------------------------
# lattice construction
# ---------------------------------------------------------------------------

def test_lattice_n_origins():
    lat = build_lattice(n_origins(4))
    assert flat_sets(lat) == {(), (0, 1, 2, 3)}
    assert lat.ranks == (0, 1)


def test_lattice_triangle():
    lat = build_lattice(triangle())
    assert flat_sets(lat) == {(), (0,), (1,), (2,), (0, 1, 2)}
    assert lat.ranks[lat.top] == 2


def test_lattice_empty():
    lat = build_lattice(Arrangement(()))
    assert flat_sets(lat) == {()}
    assert lat.bottom == lat.top


def test_zero_row_rejected():
    with pytest.raises(PreconditionError):
        Arrangement([(1, 0), (0, 0)])


def test_flat_budget_enforced(monkeypatch):
    # the triangle (n = 3, m = 2): 5 flats at n * m = 6 steps each
    from amzeta import errors
    monkeypatch.setattr(errors, "BUDGET", 29)
    with pytest.raises(errors.BudgetExceededError,
                       match="lattice of flats needs at least 30 steps"):
        build_lattice(triangle())
    monkeypatch.setattr(errors, "BUDGET", 30)
    assert len(build_lattice(triangle()).flats) == 5


# ---------------------------------------------------------------------------
# Mobius function
# ---------------------------------------------------------------------------

def test_mobius_examples():
    lat = build_lattice(n_origins(3))
    assert lat.mobius(lat.bottom, lat.bottom) == 1
    assert lat.mobius(lat.bottom, lat.top) == -1

    lat3 = build_lattice(triangle())
    assert lat3.mobius(lat3.bottom, lat3.top) == 2


def test_mobius_incomparable_rejected():
    lat = build_lattice(triangle())
    with pytest.raises(PreconditionError):
        lat.mobius(lat.flat_index({0}), lat.flat_index({1}))


def test_mobius_recursion_equals_chain_count_fixtures():
    for arr in [n_origins(3), triangle(), triangle_doubled(),
                six_normals_rank3()]:
        lat = build_lattice(arr)
        for fi in range(len(lat.flats)):
            for gi in range(len(lat.flats)):
                if lat.leq(fi, gi):
                    assert lat.mobius(fi, gi) == lat.mobius_via_chains(fi, gi)


# ---------------------------------------------------------------------------
# characteristic polynomials
# ---------------------------------------------------------------------------

def test_char_poly_interval_examples():
    lat = build_lattice(triangle())
    assert lat.char_poly_interval(lat.bottom, lat.top) == LaurentPoly(
        "q", {2: 1, 1: -3, 0: 2})
    assert lat.char_poly_interval(lat.top, lat.top) == LaurentPoly("q", {0: 1})
    assert lat.char_poly_interval(lat.flat_index({0}), lat.top) == LaurentPoly(
        "q", {1: 1, 0: -1})


def test_delta_examples():
    lat = build_lattice(triangle())
    assert lat.delta(lat.top) == 2
    assert lat.delta(lat.bottom) == 3
    assert lat.delta(lat.flat_index({0})) == 3


# ---------------------------------------------------------------------------
# structural flags
# ---------------------------------------------------------------------------

def test_flags_triangle():
    assert structural_flags(triangle()) == {"essential": True,
                                            "coloop_free": True}
    assert unimodular(triangle()) and max_abs_minor(triangle()) == 1


def test_flags_single_hyperplane_rank2():
    flags = structural_flags(Arrangement([(1, 0)]))
    assert not flags["essential"]


def test_flags_coloops():
    assert structural_flags(Arrangement([(1,), (1,)]))["coloop_free"]
    assert not structural_flags(Arrangement([(1,)]))["coloop_free"]


def test_flags_of_the_empty_arrangement():
    assert rank([]) == 0
    assert structural_flags(Arrangement([])) == {"essential": False,
                                                 "coloop_free": False}


def bareiss_rank(rows) -> int:
    """Rank over Q by fraction-free elimination (Bareiss): a test reference
    that shares no code with the package's column operations."""
    M = [list(r) for r in rows]
    if not M:
        return 0
    nrows, ncols = len(M), len(M[0])
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if M[i][c]), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                M[i][j] = (M[r][c] * M[i][j] - M[i][c] * M[r][j]) // prev
            M[i][c] = 0
        prev = M[r][c]
        r += 1
        if r == nrows:
            break
    return r


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p by Gauss-Jordan elimination: a test reference."""
    M = [[x % p for x in r] for r in rows]
    if not M:
        return 0
    nrows, ncols = len(M), len(M[0])
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if M[i][c]), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        inv = pow(M[r][c], -1, p)
        M[r] = [(x * inv) % p for x in M[r]]
        for i in range(nrows):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[r])]
        r += 1
        if r == nrows:
            break
    return r


def test_rank_and_flags_match_the_reference_eliminations(monkeypatch):
    # 2,000 seeded draws, m 1-6, n 1-9, entries in [-7, 7]; about a third
    # end in twice an earlier row, parallel over Q and zero mod 2.  The
    # flags are checked against their definitions by n + 1 ranks.
    monkeypatch.setattr(arrangement_module, "_FLAGS_CACHE", {})
    rng = random.Random(DEFAULT_SEED + 11)
    for _ in range(2000):
        m, n = rng.randint(1, 6), rng.randint(1, 9)
        rows = []
        while len(rows) < n:
            row = [rng.randint(-7, 7) for _ in range(m)]
            if any(row):
                rows.append(row)
        if n > 1 and rng.random() < 1 / 3:
            rows[-1] = [2 * x for x in rng.choice(rows[:-1])]
        r = bareiss_rank(rows)
        assert rank(rows) == r
        for p in (2, 3, 5, 7):
            assert rank(rows, p) == rank_mod_p(rows, p)
        flags = structural_flags(Arrangement(rows))
        assert flags["essential"] == (r == m)
        assert flags["coloop_free"] == all(
            bareiss_rank(rows[:i] + rows[i + 1:]) == r for i in range(n))


def fraction_det(rows):
    """Determinant by Gaussian elimination over Q."""
    M = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(len(M)):
        pivot = next((i for i in range(c, len(M)) if M[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            M[c], M[pivot] = M[pivot], M[c]
            det = -det
        det *= M[c][c]
        for i in range(c + 1, len(M)):
            if M[i][c]:
                f = M[i][c] / M[c][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    return det


ENTRIES = (0, 0, 0, 1, -1, 2, -2, 9, -9)


def flag_matrices(count=320, wide=20):
    """Seeded n x m normal matrices, n in 1..8 and m in 1..5, then
    ``wide`` more with n in 6..7 and m = 6, so that the Laplace walk of
    ``max_abs_minor`` reaches depth 6; each cycles through four shapes:
    plain, a zero column, a repeated row and rows parallel to one
    another."""
    rng = random.Random(DEFAULT_SEED + 14)
    out = []
    while len(out) < count + wide:
        if len(out) < count:
            n, m = rng.randint(1, 8), rng.randint(1, 5)
        else:
            n, m = rng.randint(6, 7), 6
        shape = len(out) % 4
        if shape == 3:
            base = [rng.choice((0, 1, -1)) for _ in range(m)]
            rows = [[rng.choice((1, -1, 2, -2, 9, -9)) * x for x in base]
                    for _ in range(n)]
        else:
            rows = [[rng.choice(ENTRIES) for _ in range(m)]
                    for _ in range(n)]
        if shape == 1:
            j = rng.randrange(m)
            for r in rows:
                r[j] = 0
        elif shape == 2:
            rows[rng.randrange(n)] = list(rows[rng.randrange(n)])
        if all(any(r) for r in rows):
            out.append(Arrangement(rows))
    return out


def test_flags_equal_a_fraction_scan_of_every_minor(monkeypatch):
    seen = []

    def record(rows):
        seen.append(rows)
        return int_det(rows)

    monkeypatch.setattr(arrangement_module, "_FLAGS_CACHE", {})
    monkeypatch.setattr(arrangement_module, "int_det", record)
    for arr in flag_matrices():
        n, m = arr.n, arr.m
        dets = {k: [fraction_det([[r[c] for c in cols] for r in rows])
                    for rows in itertools.combinations(arr.normals, k)
                    for cols in itertools.combinations(range(m), k)]
                for k in range(1, min(n, m) + 1)}
        expected = {"unimodular": all(abs(d) <= 1 for d in dets.get(m, [])),
                    "max_abs_minor": max((abs(d) for ds in dets.values()
                                          for d in ds), default=0)}
        assert {"unimodular": unimodular(arr),
                "max_abs_minor": max_abs_minor(arr)} == expected, arr
    # unimodular skips every submatrix with an all-zero column
    assert all(any(r[c] for r in rows)
               for rows in seen for c in range(len(rows)))


def test_int_det_equals_fraction_det_with_row_swaps():
    rng = random.Random(DEFAULT_SEED + 15)
    swaps = 0
    for _ in range(500):
        size = rng.randint(0, 7)
        M = [[rng.choice(ENTRIES) for _ in range(size)] for _ in range(size)]
        if size > 1:
            # the first pivot sits below the diagonal
            M[0][0] = 0
            M[rng.randrange(1, size)][0] = rng.choice((1, -2, 9))
            swaps += 1
        assert int_det(M) == fraction_det(M), M
    assert swaps >= 300


def test_unimodular_scan_at_rank_six_skips_zero_columns(monkeypatch):
    # K7: 54,264 maximal minors, of which those whose 6 edges touch each of
    # the vertices 1-6 (vertex 7 is the dropped coordinate) can be nonzero;
    # by inclusion-exclusion over the untouched vertices there are 27,364
    seen = []

    def record(rows):
        seen.append(rows)
        return int_det(rows)

    monkeypatch.setattr(arrangement_module, "_FLAGS_CACHE", {})
    monkeypatch.setattr(arrangement_module, "int_det", record)
    arr = graphic_arrangement(complete_quiver(7))
    assert arr.m == 6
    assert unimodular(arr)
    assert all(any(r[c] for r in rows) for rows in seen for c in range(6))
    assert len(seen) == sum((-1) ** j * math.comb(6, j)
                            * math.comb(math.comb(7 - j, 2), 6)
                            for j in range(7)) == 27364


# ---------------------------------------------------------------------------
# finite field complement counts
# ---------------------------------------------------------------------------

def test_count_complement_examples():
    assert count_complement_Fq(triangle(), 5) == 12
    assert count_complement_Fq(n_origins(4), 7) == 6


def test_count_complement_prime_guard():
    arr = Arrangement([(2, 1), (1, 1)])
    with pytest.raises(PreconditionError):
        count_complement_Fq(arr, 2)


# ---------------------------------------------------------------------------
# graphic arrangements
# ---------------------------------------------------------------------------

def test_graphic_triangle_quiver():
    arr = graphic_arrangement(cycle_quiver(3))
    lat = build_lattice(arr)
    assert len(lat.flats) == 5
    assert lat.char_poly() == LaurentPoly("q", {2: 1, 1: -3, 0: 2})


def test_graphic_single_edge():
    arr = graphic_arrangement(single_edge_quiver())
    assert arr.normals == ((1,),)


def test_graphic_four_cycle():
    arr = graphic_arrangement(cycle_quiver(4))
    assert arr.n == 4 and arr.m == 3
    assert structural_flags(arr)["coloop_free"] and unimodular(arr)


def test_graphic_rejects_loops_and_disconnected():
    from amzeta.quiver_varieties import Quiver
    with pytest.raises(PreconditionError):
        graphic_arrangement(Quiver(2, [(1, 1)]))
    with pytest.raises(PreconditionError):
        graphic_arrangement(Quiver(4, [(1, 2), (3, 4)]))


# ---------------------------------------------------------------------------
# sub-arrangements and the deletion-restriction identity
# ---------------------------------------------------------------------------

def test_localization_restriction_lattices():
    # rank 3, then K5 (rank 4, 52 flats) and a seeded rank 4-5 draw with
    # at least 50 flats
    for arr in [six_normals_rank3(),
                graphic_arrangement(complete_quiver(5)),
                medium_arrangements(1)[0]]:
        localizations_and_restrictions(arr)


def localizations_and_restrictions(arr):
    lat = build_lattice(arr)
    for rank, f in zip(lat.ranks, lat.flats):
        loc, idx = localization(arr, f)
        assert loc.n == len(f)
        if f:
            assert loc.rank() == loc.m == rank
            sub = build_lattice(loc)
            mapped = {frozenset(idx[i] for i in g) for g in sub.flats}
            ideal = {g for g in lat.flats if g <= f}
            assert mapped == ideal
        res, idx = restriction(arr, f)
        assert res.n == arr.n - len(f)
        if res.n:
            assert res.m == arr.m - rank
            sub = build_lattice(res)
            mapped = {frozenset(idx[i] for i in g) | f for g in sub.flats}
            filt = {g for g in lat.flats if g >= f}
            assert mapped == filt


def pinned_subarrangements(arr, lat):
    """Each flat's localization and restriction normals, as lists."""
    return {tuple(sorted(f)): tuple([list(r) for r in sub(arr, f)[0].normals]
                                    for sub in (localization, restriction))
            for f in lat.flats}


def test_localization_restriction_normals_pinned():
    # the exact coordinates both return on every flat; they depend on the
    # order of the column operations, not only on the lattices they span
    arr = six_normals_rank3()
    assert pinned_subarrangements(arr, build_lattice(arr)) == {
        (): ([], [list(r) for r in arr.normals]),
        (0,): ([[2]], [[1, 1], [-1, 1], [-2, 0], [1, -1], [1, 1]]),
        (1,): ([[2]], [[1, -1], [1, 1], [1, 1], [0, -2], [-1, 1]]),
        (2,): ([[2]], [[1, -1], [1, 1], [-1, -1], [1, -1], [0, 2]]),
        (3,): ([[-2]], [[2, 0], [1, 1], [1, 1], [1, -1], [-1, 1]]),
        (4,): ([[-2]], [[1, 1], [0, 2], [1, 1], [1, -1], [-1, 1]]),
        (5,): ([[2]], [[1, 1], [1, 1], [0, 2], [-1, 1], [1, -1]]),
        (0, 3): ([[1, 1], [1, -1]], [[1], [1], [-1], [1]]),
        (1, 4): ([[1, 1], [1, -1]], [[1], [1], [1], [-1]]),
        (2, 5): ([[1, 1], [-1, 1]], [[1], [1], [-1], [1]]),
        (0, 1, 5): ([[2, -1], [1, 1], [-1, 2]], [[2], [2], [-2]]),
        (0, 2, 4): ([[2, 1], [1, 2], [1, -1]], [[2], [-2], [2]]),
        (1, 2, 3): ([[1, 1], [-1, 2], [-2, 1]], [[-2], [-2], [2]]),
        (3, 4, 5): ([[-2, -1], [1, -1], [1, 2]], [[2], [2], [2]]),
        (0, 1, 2, 3, 4, 5): ([list(r) for r in arr.normals], []),
    }
    rng = random.Random(3)
    arr = Arrangement([tuple(rng.randint(-3, 3) for _ in range(3))
                       for _ in range(5)])
    assert arr.normals == ((-2, 1, 1), (-2, -1, 1), (0, 2, 1), (-3, 1, -3),
                           (3, 0, -1))
    assert pinned_subarrangements(arr, build_lattice(arr)) == {
        (): ([], [list(r) for r in arr.normals]),
        (0,): ([[6]], [[-4, 2], [4, -1], [-1, -4], [3, -1]]),
        (1,): ([[6]], [[-4, 2], [-4, 3], [-5, -2], [3, -1]]),
        (2,): ([[5]], [[-2, -1], [-2, -3], [-3, 7], [3, 2]]),
        (3,): ([[19]], [[1, 4], [-5, -2], [6, 7], [3, -1]]),
        (4,): ([[-10]], [[1, 1], [1, -1], [3, 2], [-12, 1]]),
        (0, 1): ([[1, 5], [-1, 5]], [[2], [-9], [1]]),
        (0, 2): ([[-3, 9], [2, 1]], [[4], [-17], [-1]]),
        (0, 3): ([[2, 10], [-15, -26]], [[18], [-17], [-13]]),
        (0, 4): ([[-1, 7], [3, -10]], [[2], [1], [-13]]),
        (1, 2): ([[7, -1], [-6, 5]], [[-4], [-23], [5]]),
        (1, 3): ([[20, 6], [25, 2]], [[18], [23], [-11]]),
        (1, 4): ([[1, 7], [-3, -10]], [[2], [5], [-11]]),
        (2, 3): ([[14, 5], [16, -1]], [[-17], [-23], [27]]),
        (2, 4): ([[-4, 1], [-9, -10]], [[1], [-5], [27]]),
        (3, 4): ([[37, 6], [-36, -10]], [[13], [-11], [27]]),
        (0, 1, 2, 3, 4): ([list(r) for r in arr.normals], []),
    }


def test_deletion_restriction_fixtures():
    for arr in [n_origins(3), triangle(), triangle_doubled(),
                six_normals_rank3()]:
        lat = build_lattice(arr)
        chi = char_poly_of(arr, arr.m)
        for i in range(arr.n):
            # the flat of hyperplane i is the closure of {i}
            fi = min((f for f in lat.flats if i in f), key=len)
            deleted, _ = deletion(arr, fi)
            restricted, _ = restriction(arr, fi)
            chi_del = char_poly_of(deleted, ambient_m=arr.m)
            chi_res = char_poly_of(
                restricted, ambient_m=arr.m - lat.ranks[lat.flat_index(fi)])
            assert chi == chi_del - chi_res


# ---------------------------------------------------------------------------
# lattice invariants (chi, Mobius, deletion-restriction, F_p count) on
# fixtures plus random arrangements
# ---------------------------------------------------------------------------

def test_core_properties_fixtures():
    for arr in [n_origins(2), n_origins(3), triangle(), triangle_doubled(),
                six_normals_rank3()]:
        lattice_invariants(arr, build_lattice(arr))


def test_core_properties_random():
    rng = random.Random(DEFAULT_SEED)
    for _ in range(20):
        arr = random_arrangement(rng)
        lattice_invariants(arr, build_lattice(arr))


# ---------------------------------------------------------------------------
# the bitset core at the sizes where bugs live: K4-K7 and seeded rank-4/5
# arrangements with 8-15 normals and at least 50 flats
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k, bell", [(4, 15), (5, 52), (6, 203), (7, 877),
                                     (8, 4140)])
def test_braid_flat_counts_are_bell_numbers(k, bell):
    lat = build_lattice(graphic_arrangement(complete_quiver(k)))
    assert len(lat.flats) == bell
    # chi_{K_k} = (q - 1)(q - 2)...(q - k + 1)
    expected = LaurentPoly("q", {0: 1})
    for i in range(1, k):
        expected = expected * LaurentPoly("q", {1: 1, 0: -i})
    assert lat.char_poly() == expected


def closure_lattice(arr):
    """Flats and ranks by rank-based closure from the empty set: a test
    reference that shares no code with the kernel/cover build."""
    def rank(indices):
        return bareiss_rank([arr.normals[i] for i in sorted(indices)])

    def closure(indices):
        r = rank(indices)
        return frozenset(j for j in range(arr.n)
                         if j in indices or rank(indices | {j}) == r)

    flats = {frozenset()}
    queue = [frozenset()]
    while queue:
        f = queue.pop()
        for j in range(arr.n):
            if j not in f:
                g = closure(f | {j})
                if g not in flats:
                    flats.add(g)
                    queue.append(g)
    return {f: rank(f) for f in flats}


def medium_arrangements(count=5):
    """Seeded essential arrangements of rank 4-5 with 8-15 normals (entries
    in {-1, 0, 1}, zero rows dropped) and at least 50 flats.  Draws whose
    F_p complement count would exceed 10^5 points are skipped to keep the
    tier to a few seconds."""
    rng = random.Random(DEFAULT_SEED + 5)
    out = []
    while len(out) < count:
        m = rng.randint(4, 5)
        rows = [tuple(rng.choice((-1, 0, 0, 1)) for _ in range(m))
                for _ in range(rng.randint(8, 15))]
        rows = [r for r in rows if any(r)]
        if len(rows) < 8:
            continue
        arr = Arrangement(rows)
        if arr.rank() != m:
            continue
        bound = max_abs_minor(arr)
        if next_prime_above(bound) ** m > 10 ** 5:
            continue
        if len(build_lattice(arr).flats) >= 50:
            out.append(arr)
    return out


def test_medium_tier_lattices():
    for arr in medium_arrangements():
        lat = build_lattice(arr)
        assert dict(zip(lat.flats, lat.ranks)) == closure_lattice(arr)
        assert list(lat.flats) == sorted(lat.flats,
                                         key=lambda f: (len(f), sorted(f)))
        for i, f in enumerate(lat.flats):
            assert lat.between(i, lat.top) == [
                j for j, g in enumerate(lat.flats) if f <= g]
        # Mobius recursion == chain count on every comparable pair, and
        # count_complement_Fq(p) == chi(p) above the largest |minor|
        lattice_invariants(arr, lat)


def test_wide_entry_lattices_match_the_closure_reference():
    # with entries in [-5, 5] most cover eliminations take more than one
    # round of Euclid; the {-1, 0, 1} draws above take it in 6 of 898
    rng = random.Random(DEFAULT_SEED + 7)
    found = []
    while len(found) < 3:
        m = rng.randint(3, 5)
        rows = [tuple(rng.randint(-5, 5) for _ in range(m))
                for _ in range(rng.randint(m + 3, 8))]
        arr = Arrangement([r for r in rows if any(r)])
        lat = build_lattice(arr)
        if len(lat.flats) >= 30:
            assert dict(zip(lat.flats, lat.ranks)) == closure_lattice(arr)
            found.append(arr)
    localizations_and_restrictions(found[0])


def test_medium_tier_zeta():
    for arr in medium_arrangements():
        lat = build_lattice(arr)
        zeta = igusa_chain(arr, lat)
        oracle = igusa_recursion(arr, lat)
        assert zeta.value == oracle.value
        assert functional_equation_check(zeta)
        assert b_mu(arr, lat) == b_mu_via_residue(oracle, arr.m)
        assert b_mu(arr, lat) == b_mu_via_residue(zeta, arr.m)
        b_prime(arr, lat)             # raises unless B' is palindromic
        pole_report(zeta, arr, lat)   # raises on a violated order bound


def test_medium_tier_oracle():
    # the congruence counts at depth 1 against the t-expansion of the
    # zeta function, at the first prime above the largest |minor|
    for arr in medium_arrangements():
        bound = max_abs_minor(arr)
        poincare_check(arr, build_lattice(arr), next_prime_above(bound), 1)


def test_zeta_and_class_never_enumerate_all_minors(monkeypatch):
    def refuse(*args):
        raise AssertionError("square minors of every size enumerated")

    monkeypatch.setattr(arrangement_module, "_FLAGS_CACHE", {})
    monkeypatch.setattr(arrangement_module, "_minors", refuse)
    arr = graphic_arrangement(complete_quiver(5))
    with pytest.raises(AssertionError):
        max_abs_minor(arr)
    lat = build_lattice(arr)
    assert hypertoric_class(arr, lat).unimodular
    igusa_chain(arr, lat)
    b_mu(arr, lat)
