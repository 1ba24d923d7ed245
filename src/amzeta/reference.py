"""Regression anchors: fixture arrangements/quivers and transcribed
closed-form values used as independent oracles by the verify suites.

The constants here are published reference values (Eulerian polynomials,
worked zeta functions of small arrangements); they are transcribed, never
recomputed through the code paths they certify.  ``eulerian`` extends the
transcribed Eulerian table by its standard recurrence.
"""

from __future__ import annotations

from .arrangement import Arrangement
from .exact_algebra import BiRational, LaurentPoly, RationalUni, exact_div
from .quiver_varieties import Quiver


# ---------------------------------------------------------------------------
# fixture arrangements and quivers
# ---------------------------------------------------------------------------

def n_origins(n: int) -> Arrangement:
    """n copies of the origin in rank 1 (all normals equal to 1)."""
    return Arrangement([(1,)] * n)


def triangle() -> Arrangement:
    """Three normals (1,0), (-1,1), (0,-1) in rank 2."""
    return Arrangement([(1, 0), (-1, 1), (0, -1)])


def triangle_doubled() -> Arrangement:
    """The triangle with the third normal doubled."""
    return Arrangement([(1, 0), (-1, 1), (0, -1), (0, -1)])


def six_normals_rank3() -> Arrangement:
    """Six normals in rank 3 whose zeta function has a degree-24 numerator."""
    return Arrangement([
        (1, 1, 0),
        (0, 1, 1),
        (1, 0, 1),
        (1, -1, 0),
        (0, 1, -1),
        (-1, 0, 1),
    ])


def cycle_quiver(k: int):
    """The k-cycle on k vertices (k >= 2): edges 1->2->...->k->1."""
    edges = [(i, i + 1) for i in range(1, k)] + [(k, 1)]
    return Quiver(k, edges)


def cycle3_doubled_quiver():
    """Triangle graph with one edge doubled."""
    return Quiver(3, [(1, 2), (2, 3), (3, 1), (3, 1)])


def complete_quiver(k: int):
    """The complete graph K_k, edges i->j for i < j."""
    return Quiver(k, [(i, j) for i in range(1, k + 1)
                      for j in range(i + 1, k + 1)])


def theta_quiver():
    """Two vertices joined by three parallel edges."""
    return Quiver(2, [(1, 2), (1, 2), (2, 1)])


def jordan_quiver():
    return Quiver(1, [(1, 1)])


def single_edge_quiver():
    return Quiver(2, [(1, 2)])


# ---------------------------------------------------------------------------
# Eulerian polynomials (reference constants)
# ---------------------------------------------------------------------------

EULERIAN = {
    1: LaurentPoly("q", {0: 1}),
    2: LaurentPoly("q", {1: 1, 0: 1}),
    3: LaurentPoly("q", {2: 1, 1: 4, 0: 1}),
    4: LaurentPoly("q", {3: 1, 2: 11, 1: 11, 0: 1}),
    5: LaurentPoly("q", {4: 1, 3: 26, 2: 66, 1: 26, 0: 1}),
}


def eulerian(n: int) -> LaurentPoly:
    """Eulerian polynomial sum_m A(n, m) q^m (n >= 1) from the standard
    recurrence A(n, m) = (m + 1) A(n-1, m) + (n - m) A(n-1, m-1)."""
    row = [1]
    for k in range(2, n + 1):
        row = [(m + 1) * (row[m] if m < k - 1 else 0)
               + (k - m) * (row[m - 1] if m else 0) for m in range(k)]
    return LaurentPoly("q", dict(enumerate(row)))


# ---------------------------------------------------------------------------
# transcribed zeta functions (t = q^(-s); q^(s+a) - 1 = (q^a - t)/t)
# ---------------------------------------------------------------------------

def zeta_n_origins(n: int) -> BiRational:
    """(q-1)(q^n-1) q^(2s) / ((q^(s+1)-1)(q^(s+n)-1)), reduced form."""
    qm1 = LaurentPoly("q", {1: 1, 0: -1})
    qn1 = LaurentPoly("q", {n: 1, 0: -1})
    num = BiRational.from_q_poly(qm1 * qn1)
    if n == 1:
        return BiRational(num.num, num.unit, [(1, 2)])
    return BiRational(num.num, num.unit, [(1, 1), (n, 1)])


def zeta_triangle() -> BiRational:
    """(q-1)^2 q^(2s) (q^s A + B) / ((q^(s+2)-1)(q^(s+3)-1)^2) with
    A = q^6+2q^5+2q^4-2q^3 and B = 2q^3-2q^2-2q-1.

    The overall power q^(2s) is forced: at s -> +infinity the value must
    tend to the volume of the locus where the moment map is a unit,
    which is (q-1)(q^7+q^6-4q^4+2q^3)/q^8 > 0, and the reduced form below
    reproduces the depth-1 congruence count exactly.
    """
    qm1sq = LaurentPoly("q", {2: 1, 1: -2, 0: 1})
    a = LaurentPoly("q", {6: 1, 5: 2, 4: 2, 3: -2})
    b = LaurentPoly("q", {3: 2, 2: -2, 1: -2, 0: -1})
    num = {}
    for e, c in (qm1sq * a).items():
        num[(e, 0)] = c
    for e, c in (qm1sq * b).items():
        num[(e, 1)] = c
    return BiRational(num, (0, 0), [(2, 1), (3, 2)])


def zeta_six_normals() -> BiRational:
    """Denominator (q^(s+3)-1)(q^(s+5)-1)(q^(s+6)-1)^3; the numerator is
    (q-1)^2 q^(2s) (q^(3s) P3 + q^(2s) P2 + q^s P1 + P0)."""
    p3 = LaurentPoly("q", {24: 1, 23: 2, 22: 3, 21: 3, 20: 3, 19: -1,
                           18: -11, 17: 6})
    p2 = LaurentPoly("q", {19: 3, 18: 9, 17: -12, 16: -9, 15: -9, 14: -9,
                           13: -3, 12: 9, 11: 3})
    p1 = LaurentPoly("q", {13: -3, 12: -9, 11: 3, 10: 9, 9: 9, 8: 9,
                           7: 12, 6: -9, 5: -3})
    p0 = LaurentPoly("q", {7: -6, 6: 11, 5: 1, 4: -3, 3: -3, 2: -3,
                           1: -2, 0: -1})
    qm1sq = LaurentPoly("q", {2: 1, 1: -2, 0: 1})
    num = {}
    for t_extra, poly in ((0, p3), (1, p2), (2, p1), (3, p0)):
        for e, c in (qm1sq * poly).items():
            key = (e, t_extra)
            num[key] = num.get(key, 0) + c
    # q^(2s) q^(3s) over the cleared denominator leaves no loose t power
    return BiRational(num, (0, 0), [(3, 1), (5, 1), (6, 3)])


# ---------------------------------------------------------------------------
# transcribed residue values
# ---------------------------------------------------------------------------

def bmu_n_origins(n: int) -> RationalUni:
    """(q-1)(q^(n-1)+...+1) / (q (q^(n-1)-1)), n >= 2."""
    num = LaurentPoly("q", {1: 1, 0: -1}) * LaurentPoly(
        "q", {e: 1 for e in range(n)})
    den = LaurentPoly("q", {n: 1, 1: -1})
    return RationalUni(num, den)


def bmu_triangle() -> RationalUni:
    return RationalUni(EULERIAN[3], LaurentPoly("q", {2: 1}))


def bmu_triangle_doubled() -> RationalUni:
    num = (LaurentPoly("q", {1: 1, 0: -1}) ** 2
           * LaurentPoly("q", {4: 1, 3: 3, 2: 6, 1: 3, 0: 1}))
    den = LaurentPoly("q", {2: 1}) * LaurentPoly("q", {2: 1, 0: -1}) ** 2
    return RationalUni(num, den)


SIX_NORMALS_BPRIME = LaurentPoly("q", {10: 1, 9: 4, 8: 13, 7: 35, 6: 50,
                                       5: 58, 4: 50, 3: 35, 2: 13, 1: 4,
                                       0: 1})


def bmu_six_normals() -> RationalUni:
    num = LaurentPoly("q", {1: 1, 0: -1}) ** 4 * SIX_NORMALS_BPRIME
    den = (LaurentPoly("q", {3: 1})
           * LaurentPoly("q", {2: 1, 0: -1})
           * LaurentPoly("q", {3: 1, 0: -1}) ** 3)
    return RationalUni(num, den)


# ---------------------------------------------------------------------------
# transcribed limits of indecomposable-count normalizations
# ---------------------------------------------------------------------------

def a_limit_cycle(k: int) -> RationalUni:
    """Cycle graphs: Eulerian(k)/(q-1)^(k-1), e.g. (q^2+4q+1)/(q-1)^2
    for k=3 and (q^3+11q^2+11q+1)/(q-1)^3 for k=4."""
    den = LaurentPoly("q", {1: 1, 0: -1}) ** (k - 1)
    return RationalUni(eulerian(k), den)


def a_limit_cycle3_doubled() -> RationalUni:
    num = LaurentPoly("q", {4: 1, 3: 3, 2: 6, 1: 3, 0: 1})
    den = LaurentPoly("q", {2: 1, 0: -1}) ** 2
    return RationalUni(num, den)


# ---------------------------------------------------------------------------
# independent product expansion for the point-count generating series
# ---------------------------------------------------------------------------

def hilbert_series_coefficients(bound: int):
    """Coefficients of prod_{k>=1} 1/(1 - L T^k) up to T^bound, computed by
    straight truncated product expansion (independent of the quiver-series
    pipeline it certifies)."""
    coeffs = {0: LaurentPoly.one("L")}
    for k in range(1, bound + 1):
        # multiply by 1/(1 - L T^k) = sum_j L^j T^(jk)
        out = {}
        for deg, poly in coeffs.items():
            j = 0
            while deg + j * k <= bound:
                d = deg + j * k
                term = poly * LaurentPoly.monomial("L", j)
                out[d] = out.get(d, LaurentPoly.zero("L")) + term
                j += 1
        coeffs = out
    return [coeffs.get(d, LaurentPoly.zero("L")) for d in range(bound + 1)]


def odr_rank2_expected(d: int, k: int) -> LaurentPoly:
    """Rank-2 closed family L^(k-3)(L^(k-d-1)(L+1)^(d-1) - 2^(d-1))/(L-1)."""
    lp1 = LaurentPoly("L", {1: 1, 0: 1})
    inner = (LaurentPoly.monomial("L", k - d - 1) * lp1 ** (d - 1)
             - LaurentPoly.const("L", 2 ** (d - 1)))
    quo = exact_div(inner, LaurentPoly("L", {1: 1, 0: -1}),
                    f"L - 1 does not divide the rank-2 numerator at d={d}, "
                    f"k={k}")
    return LaurentPoly.monomial("L", k - 3) * quo
