"""Verification suites: each invariant checked a second way, in one table.

``amz verify --suite NAME`` runs ``SUITES[NAME]``, and the acceptance gate
runs the same entries.  A suite takes the parsed options (``p``,
``alpha``, ``seed``) and returns ``(checks, conjectures)``, two lists of
``(name, fn)``: a check raises an ``AmzError`` on failure (``require``
raises ``InvariantError``, so the checks also run under ``python -O``), a
conjecture returns ``(cases seen, violations)`` and never fails the run.
Every lattice, walk and oracle of a suite draws on the one budget,
``errors.BUDGET``.
"""

from __future__ import annotations

import random

from .arrangement import (
    Arrangement,
    build_lattice,
    char_poly_of,
    count_complement_Fq,
    deletion,
    graphic_arrangement,
    max_abs_minor,
    restriction,
    structural_flags,
)
from .errors import InvariantError, is_prime, require_depth
from .exact_algebra import LaurentPoly
from .hypertoric import hypertoric_class
from .igusa import (
    functional_equation_check,
    igusa_chain,
    igusa_recursion,
    pole_report,
)
from .open_derham import OdrInput, odr_class
from .padic_oracle import (
    depth_counts,
    limit_probe,
    poincare_check,
)
from .quiver_reps import (
    a_gamma_alpha,
    a_gamma_limit,
    check_lastone,
    is_two_edge_connected,
)
from .quiver_varieties import nakajima_gf
from . import reference
from .residues import b_mu, b_prime

DEFAULT_SEED = 20260808


def require(ok, what):
    """Raise InvariantError naming ``what`` unless ``ok``.  Unlike an
    assert statement, it still checks under ``python -O``."""
    if not ok:
        raise InvariantError(what)


def random_arrangement(rng, require_essential=False):
    """Rank 1-3, at most 5 normals, entries in [-2, 2]; zero rows dropped."""
    while True:
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        rows = [tuple(rng.randint(-2, 2) for _ in range(m))
                for _ in range(n)]
        rows = [r for r in rows if any(r)]
        if not rows:
            continue
        arr = Arrangement(rows)
        if require_essential and arr.rank() != m:
            continue
        return arr


def next_prime_above(bound):
    p = max(bound, 1) + 1
    while not is_prime(p):
        p += 1
    return p


def lattice_invariants(arr, lat):
    """chi monic of degree m and divisible by q - 1; Mobius sign and
    recursion == chain count on every comparable pair; deletion-restriction
    for each hyperplane; chi(p) == the F_p complement count."""
    chi = lat.char_poly()
    require(chi.degree() == arr.m and chi.leading_coeff() == 1,
            "chi is not monic of degree m")
    require(chi.evaluate(1) == 0, "chi is not divisible by q - 1")
    for fi in range(len(lat)):
        for gi in lat.indices(lat.up[fi]):
            require(lat.mobius(fi, gi) == lat.mobius_via_chains(fi, gi),
                    f"Mobius recursion != chain count on ({fi}, {gi})")
            r = lat.ranks[gi] - lat.ranks[fi]
            require((-1) ** r * lat.mobius(fi, gi) > 0,
                    f"Mobius sign wrong on ({fi}, {gi})")
    for i in range(arr.n):
        # the flat of hyperplane i is the closure of {i}, the first flat
        # holding i as flats ascend in size
        fi = next(k for k, f in enumerate(lat.flats) if i in f)
        deleted, _ = deletion(arr, lat.flats[fi])
        restricted, _ = restriction(arr, lat.flats[fi])
        require(chi == (char_poly_of(deleted, arr.m)
                        - char_poly_of(restricted, arr.m - lat.ranks[fi])),
                f"deletion-restriction fails at hyperplane {i}")
    p = next_prime_above(max_abs_minor(arr))
    require(count_complement_Fq(arr, p) == chi.evaluate(p),
            f"F_{p} complement count != chi({p})")


def _suite_paper(args):
    checks = []

    def zeta_of(arr):
        lat = build_lattice(arr)
        return igusa_chain(arr, lat), lat

    def origin_zetas():
        for n in range(1, 6):
            z, _ = zeta_of(reference.n_origins(n))
            require(z.value == reference.zeta_n_origins(n),
                    f"zeta of {n} origins")
    checks.append(("igusa rank-1 origin family n=1..5", origin_zetas))

    def triangle_zeta():
        z, _ = zeta_of(reference.triangle())
        require(z.value == reference.zeta_triangle(), "zeta of the triangle")
    checks.append(("igusa triangle", triangle_zeta))

    def six_zeta():
        z, _ = zeta_of(reference.six_normals_rank3())
        require(z.value == reference.zeta_six_normals(),
                "zeta of the six normals")
        require(z.value.pole_orders() == {3: 1, 5: 1, 6: 3},
                "pole orders of the six normals")
    checks.append(("igusa six-normal rank-3", six_zeta))

    def toric_classes():
        for n in range(1, 5):
            arr = reference.n_origins(n)
            cls = hypertoric_class(arr, build_lattice(arr))
            expected = (LaurentPoly.monomial("L", n - 1)
                        * LaurentPoly("L", {e: 1 for e in range(n)}))
            require(cls.value == expected, f"hypertoric class of {n} origins")
    checks.append(("hypertoric origin family classes", toric_classes))

    def odr_values():
        require(odr_class(OdrInput(1, (2, 5))).value
                == LaurentPoly.one("L"),
                "odr class of rank 1, orders (2, 5)")
        for d in (2, 3, 4):
            for k in range(2 * d, 9):
                orders = (k - 2 * (d - 1),) + (2,) * (d - 1)
                got = odr_class(OdrInput(2, orders)).value
                require(got == reference.odr_rank2_expected(d, k),
                        f"odr rank-2 class, d={d}, k={k}")
    checks.append(("open de Rham rank-2 family", odr_values))

    def one_loop_series():
        gf = nakajima_gf(reference.jordan_quiver(), (1,), 5)
        expected = reference.hilbert_series_coefficients(5)
        for n in range(6):
            require(gf.series.get((n,), LaurentPoly.zero("L")) == expected[n],
                    f"one-loop series coefficient T^{n}")
        require(gf.classes[(1,)] == LaurentPoly("L", {2: 1}),
                "one-loop class at dimension 1")
        require(gf.classes[(2,)] == LaurentPoly("L", {4: 1, 3: 1}),
                "one-loop class at dimension 2")
    checks.append(("one-loop quiver series vs product expansion",
                   one_loop_series))

    def residue_values():
        arr = reference.triangle()
        lat = build_lattice(arr)
        require(b_mu(arr, lat) == reference.bmu_triangle(),
                "B_mu of the triangle")
        require(b_prime(arr, lat).b_prime == reference.EULERIAN[3],
                "B' of the triangle")
        arr4 = graphic_arrangement(reference.cycle_quiver(4))
        require(b_prime(arr4, build_lattice(arr4)).b_prime
                == reference.EULERIAN[4], "B' of the 4-cycle")
        arrd = reference.triangle_doubled()
        latd = build_lattice(arrd)
        require(b_mu(arrd, latd) == reference.bmu_triangle_doubled(),
                "B_mu of the doubled triangle")
        arr6 = reference.six_normals_rank3()
        require(b_prime(arr6, build_lattice(arr6)).b_prime
                == reference.SIX_NORMALS_BPRIME, "B' of the six normals")
        for n in (2, 3):
            arrn = reference.n_origins(n)
            require(b_mu(arrn, build_lattice(arrn))
                    == reference.bmu_n_origins(n), f"B_mu of {n} origins")
    checks.append(("residues and numerators", residue_values))

    def divisor_counts():
        for c in depth_counts(reference.n_origins(1), 5, 3):
            require(c.count == (c.alpha + 1) * 5 ** c.alpha
                    - c.alpha * 5 ** (c.alpha - 1),
                    f"single-origin count at depth {c.alpha}")
    checks.append(("single-origin depth counts", divisor_counts))

    def rep_limits():
        for k in (3, 4):
            require(a_gamma_limit(reference.cycle_quiver(k))
                    == reference.a_limit_cycle(k), f"limit of the {k}-cycle")
        require(a_gamma_limit(reference.cycle3_doubled_quiver())
                == reference.a_limit_cycle3_doubled(),
                "limit of the doubled triangle")
        require(a_gamma_alpha(reference.cycle_quiver(3), 1)
                == LaurentPoly("q", {1: 1, 0: 2}),
                "depth-1 count of the triangle")
    checks.append(("indecomposable count limits", rep_limits))

    return checks, []


def _suite_oracle(args):
    p = args.p or 5
    alpha = 2 if args.alpha is None else args.alpha
    require_depth(alpha)
    checks = []

    def series(arr, depth):
        return lambda: poincare_check(arr, build_lattice(arr), p, depth)
    for name, arr, depth in [
            ("single origin", reference.n_origins(1), max(alpha, 3)),
            ("two origins", reference.n_origins(2), alpha),
            ("triangle", reference.triangle(), alpha)]:
        checks.append((f"series vs counts, {name}, p={p}", series(arr, depth)))

    def probes():
        arr = reference.triangle()
        probe = limit_probe(arr, build_lattice(arr),
                            depth_counts(arr, p, alpha))
        # one depth gives one distance, so there is nothing to compare
        require(probe.converges and (alpha == 1 or probe.distances[-1]
                                     < probe.distances[0]),
                "limit probe does not converge")
    checks.append((f"normalized limit probe, triangle, p={p}", probes))

    return checks, []


def _suite_properties(args):
    rng = random.Random(args.seed)
    arrangements = [random_arrangement(rng, require_essential=True)
                    for _ in range(20)]
    checks = []
    conjectures = []

    def core(arr):
        def run():
            lat = build_lattice(arr)
            lattice_invariants(arr, lat)
            zeta = igusa_chain(arr, lat)
            require(zeta.value == igusa_recursion(arr, lat).value,
                    "chain != recursion")
            require(functional_equation_check(zeta),
                    "functional equation fails")
            pole_report(zeta, arr, lat)
        return run

    for k, arr in enumerate(arrangements):
        checks.append((f"random arrangement #{k + 1} invariants", core(arr)))

    def positivity():
        seen = violated = 0
        for arr in arrangements:
            if not all(structural_flags(arr).values()):
                continue
            seen += 1
            if not b_prime(arr, build_lattice(arr)).positive_coeffs:
                violated += 1
        return seen, violated
    conjectures.append(("positivity of the cleared numerator", positivity))

    def bridge():
        seen = violated = 0
        for quiver in [reference.cycle_quiver(3), reference.cycle_quiver(4),
                       reference.cycle3_doubled_quiver()]:
            if is_two_edge_connected(quiver):
                seen += 1
                if not check_lastone(quiver).equal:
                    violated += 1
        return seen, violated
    conjectures.append(("graph-count vs numerator bridge", bridge))

    return checks, conjectures


SUITES = {"paper": _suite_paper, "oracle": _suite_oracle,
          "properties": _suite_properties}
