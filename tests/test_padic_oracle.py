from fractions import Fraction

import pytest

from amzeta import arrangement, errors, igusa
from amzeta.arrangement import build_lattice, graphic_arrangement
from amzeta.errors import BudgetExceededError, PreconditionError
from amzeta.padic_oracle import (
    _count_direct,
    depth_counts,
    limit_probe,
    poincare_check,
    series_counts_from_zeta,
)
from amzeta.igusa import igusa_chain
from amzeta.reference import (
    complete_quiver,
    n_origins,
    six_normals_rank3,
    triangle,
)


def with_lattice(arr):
    return arr, build_lattice(arr)


def direct(normals, p, alpha, target, budget):
    """``_count_direct`` under a budget of its own."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(errors, "BUDGET", budget)
        return _count_direct(normals, p, alpha, target)


def at_default(stage):
    """``stage`` run at the default budget, whatever the budget is."""
    def run(*args):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(errors, "BUDGET", errors.DEFAULT_BUDGET)
            return stage(*args)
    return run


def closed_form_single_origin(p, alpha):
    return (alpha + 1) * p ** alpha - alpha * p ** (alpha - 1)


def test_single_origin_counts():
    arr, _ = with_lattice(n_origins(1))
    assert depth_counts(arr, 5, 1)[-1].count == 9
    assert depth_counts(arr, 5, 2)[-1].count == 65
    for alpha in (1, 2, 3):
        assert (depth_counts(arr, 5, alpha)[-1].count
                == closed_form_single_origin(5, alpha))


def test_direct_equals_character_sum_depth_one():
    for arr in [n_origins(2), triangle()]:
        count = direct(arr.normals, 5, 1, (0,) * arr.m, 10 ** 8)
        assert depth_counts(arr, 5, 1)[-1].count == count


def test_direct_equals_character_sum_depth_two():
    # at alpha > 1 the multiples of p enter through the depth-1 sum
    for arr, p in [(n_origins(2), 5), (triangle(), 3)]:
        count = direct(arr.normals, p, 2, (0,) * arr.m, 10 ** 8)
        assert depth_counts(arr, p, 2)[-1].count == count


def test_character_sum_charges_every_depth(monkeypatch):
    # triangle at p = 5, alpha = 3 (m = 2): 6 + 30 + 150 unit-scaling orbit
    # representatives at depths 1, 2, 3, three inner products each
    arr = triangle()
    monkeypatch.setattr(errors, "BUDGET", 558)
    assert depth_counts(arr, 5, 3)[-1].count == 444765625
    monkeypatch.setattr(errors, "BUDGET", 557)
    with pytest.raises(BudgetExceededError,
                       match="character sum needs 558 steps"):
        depth_counts(arr, 5, 3)[-1]


def test_character_sum_is_charged_before_its_walk(monkeypatch):
    # K5 at p = 3, alpha = 3 is charged 10 * (40 + 1080 + 29160) steps;
    # one step short is refused before any representative is walked
    def refuse(p, depth, m):
        raise AssertionError("orbit representatives walked past the budget")
    monkeypatch.setattr(arrangement, "_orbit_representatives", refuse)
    arr = graphic_arrangement(complete_quiver(5))
    monkeypatch.setattr(errors, "BUDGET", 302799)
    with pytest.raises(BudgetExceededError, match="needs 302800 steps"):
        depth_counts(arr, 3, 3)[-1]


def test_every_refusal_says_what_it_needs(monkeypatch):
    from amzeta.arrangement import (
        count_complement_Fq,
        max_abs_minor,
        unimodular,
    )
    from amzeta.hypertoric import (
        count_moment_fiber,
        find_generic_xi,
        hypertoric_class,
    )
    from amzeta.quiver_reps import _brute_force_raw, brute_force_indec
    from amzeta.reference import cycle_quiver
    from amzeta.exact_algebra import LaurentPoly, _charge_reduction
    from amzeta.residues import b_mu, b_mu_via_residue
    # a cold cache, so that the minor scans are charged before they run
    monkeypatch.setattr(arrangement, "_FLAGS_CACHE", {})
    arr, lat = with_lattice(triangle())
    zeta = igusa_chain(arr, lat)
    monkeypatch.setattr(errors, "BUDGET", 1)
    # the zeta reduction, once the walk and the clear before it have run at
    # the default budget
    with pytest.MonkeyPatch.context() as patch:
        for stage in ("_chain_sums", "_clear"):
            patch.setattr(igusa, stage, at_default(getattr(igusa, stage)))
        with pytest.raises(BudgetExceededError, match=(
                r"^zeta reduction needs \d+ steps, budget allows 1$")):
            igusa_chain(arr, lat)
    for refused in [
            lambda: unimodular(arr),
            lambda: max_abs_minor(arr),
            lambda: hypertoric_class(arr, lat),
            lambda: build_lattice(arr),
            lambda: count_complement_Fq(arr, 5),
            lambda: count_moment_fiber(arr, lat, 5, (1, 2)),
            lambda: find_generic_xi(arr, lat, 5),
            lambda: _count_direct(arr.normals, 5, 1, (1, 2)),
            lambda: _count_direct(arr.normals, 5, 1, (0, 0)),
            lambda: depth_counts(arr, 5, 1)[-1],
            lambda: igusa_chain(arr, lat),
            lambda: b_mu(arr, lat),
            lambda: b_mu_via_residue(zeta, arr.m),
            lambda: _charge_reduction(LaurentPoly.one("q"), [(1, 1)]),
            lambda: brute_force_indec(cycle_quiver(3), 3, 1),
            lambda: _brute_force_raw(cycle_quiver(3), 3, 1)]:
        with pytest.raises(BudgetExceededError,
                           match=r"needs (at least )?\d+ steps, "
                                 r"budget allows 1$"):
            refused()


def test_triangle_depth_one_value():
    # product structure: 9^3 + 4 * 4^3 over F_5
    arr, _ = with_lattice(triangle())
    assert depth_counts(arr, 5, 1)[-1].count == 985


def test_prime_guard():
    from amzeta.arrangement import Arrangement
    arr = Arrangement([(2, 1), (1, 1)])
    with pytest.raises(PreconditionError):
        depth_counts(arr, 2, 1)[-1]


# ---------------------------------------------------------------------------
# series reconciliation
# ---------------------------------------------------------------------------

def test_poincare_single_origin_depth_three():
    arr, lat = with_lattice(n_origins(1))
    report = poincare_check(arr, lat, 5, 3)
    for alpha, value in enumerate(report.series_values, start=1):
        assert value == Fraction(closed_form_single_origin(5, alpha),
                                 5 ** (2 * alpha))


def test_poincare_two_origins():
    arr, lat = with_lattice(n_origins(2))
    poincare_check(arr, lat, 5, 2)


def test_poincare_triangle():
    arr, lat = with_lattice(triangle())
    poincare_check(arr, lat, 5, 2)


@pytest.mark.parametrize("arr, p, alpha", [
    (graphic_arrangement(complete_quiver(4)), 5, 2),
    (six_normals_rank3(), 5, 2),
    (graphic_arrangement(complete_quiver(4)), 3, 3),
    (triangle(), 5, 4),
], ids=["K4-p5-a2", "six-p5-a2", "K4-p3-a3", "triangle-p5-a4"])
def test_poincare_at_depth(arr, p, alpha):
    poincare_check(arr, build_lattice(arr), p, alpha)


@pytest.mark.parametrize("k, alpha, counts", [
    (6, 2, [895778349165, 759497186917907469429021]),
    (5, 3, [50132601, 2170834129994841, 93467602977650562739041]),
], ids=["K6-p3-a2", "K5-p3-a3"])
def test_poincare_at_rank_four_and_five(k, alpha, counts):
    # certificates where the lattice is large: rank 5 with 203 flats, and
    # rank 4 with 52 flats at depth 3
    arr = graphic_arrangement(complete_quiver(k))
    report = poincare_check(arr, build_lattice(arr), 3, alpha)
    assert [c.count for c in report.counts] == counts


def test_character_sum_matches_direct_count_on_random_arrangements():
    # seeded draws of three normals of rank 1-2 with entries in {-1, 0, 1}:
    # the fiber count at a generic target mod 5 for each draw, and the
    # congruence count mod 4 wherever 2 passes the prime guard, both
    # against direct enumeration
    import random

    from amzeta.arrangement import Arrangement, max_abs_minor
    from amzeta.hypertoric import count_moment_fiber, find_generic_xi

    rng = random.Random(16)
    fibers = depth_two = 0
    while fibers < 8 or depth_two < 4:
        m = rng.randint(1, 2)
        rows = [tuple(rng.randint(-1, 1) for _ in range(m)) for _ in range(3)]
        if not all(map(any, rows)) or Arrangement(rows).rank() != m:
            continue
        arr = Arrangement(rows)
        lat = build_lattice(arr)
        xi = find_generic_xi(arr, lat, 5)
        assert (count_moment_fiber(arr, lat, 5, xi)
                == direct(arr.normals, 5, 1, xi, 10 ** 5))
        fibers += 1
        if max_abs_minor(arr) < 2:
            assert (depth_counts(arr, 2, 2)[-1].count
                    == direct(arr.normals, 2, 2, (0,) * m, 10 ** 5))
            depth_two += 1


def test_poincare_random_arrangements():
    # end-to-end certificate on fresh arrangements: symbolic expansion of
    # the zeta function against raw congruence counts
    import random

    from amzeta.arrangement import Arrangement, max_abs_minor

    rng = random.Random(60229)
    produced = 0
    while produced < 3:
        m = rng.randint(1, 2)
        n = rng.randint(1, 3)
        rows = [tuple(rng.randint(-1, 1) for _ in range(m))
                for _ in range(n)]
        rows = [r for r in rows if any(r)]
        if not rows:
            continue
        arr = Arrangement(rows)
        if arr.rank() != m:
            continue
        bound = max_abs_minor(arr)
        if bound > 4:
            continue
        p = next(c for c in (3, 5) if c > bound)
        lat = build_lattice(arr)
        poincare_check(arr, lat, p, 2)
        produced += 1


def test_series_counts_shape():
    arr, lat = with_lattice(n_origins(2))
    zeta = igusa_chain(arr, lat)
    vals = series_counts_from_zeta(zeta, 5, 2)
    assert len(vals) == 2
    assert vals[0] == Fraction(depth_counts(arr, 5, 1)[-1].count, 5 ** 4)


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------

def test_limit_probe_triangle():
    arr, lat = with_lattice(triangle())
    probe = limit_probe(arr, lat, depth_counts(arr, 5, 2))
    assert probe.converges
    assert probe.limit == Fraction(46, 25)
    assert probe.distances[1] < probe.distances[0]


def test_limit_probe_two_origins():
    arr, lat = with_lattice(n_origins(2))
    probe = limit_probe(arr, lat, depth_counts(arr, 5, 3))
    assert probe.limit == Fraction(6, 5)
    assert probe.distances[-1] < probe.distances[0]


def test_limit_probe_divergence_single_origin():
    arr, lat = with_lattice(n_origins(1))
    probe = limit_probe(arr, lat, depth_counts(arr, 5, 3))
    assert not probe.converges
    assert probe.values[0] < probe.values[1] < probe.values[2]
