"""Brute-force counting of moment-map congruences modulo prime powers and
their exact reconciliation with the symbolic zeta function.

With 2n variables, depth-alpha counts B_alpha feed the power series
P(t) = sum B_alpha q^(-2 n alpha) t^alpha, and the zeta function satisfies
I = (P(t) - 1)(1 - 1/t) + 1, equivalently

  i_0 = 1 - p_1,   i_beta = p_beta - p_(beta+1)  (beta >= 1),

where i_beta are the t-expansion coefficients of I at q = p and
p_alpha = B_alpha p^(-2 n alpha).  The reconciliation is exact rational
arithmetic throughout; any mismatch is a pipeline-level failure.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .arrangement import (
    Arrangement,
    _character_count,
    require_prime_above_minors,
    structural_flags,
)
from .errors import InvariantError, charge, require_depth
from .igusa import IgusaZeta, igusa_chain
from .residues import b_mu


class OracleCount:
    __slots__ = ("p", "alpha", "count", "normalized")

    def __init__(self, arrangement, p, alpha, count):
        self.p = p
        self.alpha = alpha
        self.count = count
        n, m = arrangement.n, arrangement.m
        self.normalized = Fraction(count, p ** (alpha * (2 * n - m)))


def _count_direct(normals, p, alpha, target):
    """|{(x, y) in (Z/p^alpha)^2n : sum x_i y_i a_i = target}| by
    enumerating all p^(2 n alpha) pairs: the reference that the character
    sum ``_character_count`` is tested against, for the fiber count
    (alpha = 1, target xi) and the congruence count (target 0) alike."""
    n, mod = len(normals), p ** alpha
    charge("direct enumeration", mod ** (2 * n))
    target = tuple(t % mod for t in target)
    return sum(all(sum(xy[i] * xy[n + i] * normals[i][k]
                       for i in range(n)) % mod == t
                   for k, t in enumerate(target))
               for xy in itertools.product(range(mod), repeat=2 * n))


def depth_counts(arrangement: Arrangement, p: int, alpha_max: int):
    """OracleCounts of depths 1..alpha_max at the prime p, from one walk:
    the solutions of sum x_i y_i a_i = 0 in (Z/p^alpha)^(2n).  A depth
    below 1 is refused before the prime guard scans any minor."""
    require_depth(alpha_max)
    require_prime_above_minors(arrangement, p)
    counts = _character_count(arrangement.normals, p, alpha_max,
                              (0,) * arrangement.m)
    return [OracleCount(arrangement, p, alpha, count)
            for alpha, count in enumerate(counts, 1)]


# ---------------------------------------------------------------------------
# reconciliation with the symbolic zeta function
# ---------------------------------------------------------------------------

class PoincareReport:
    __slots__ = ("counts", "series_values")

    def __init__(self, counts, series_values):
        self.counts = counts
        self.series_values = series_values


def series_counts_from_zeta(zeta: IgusaZeta, p: int, alpha_max: int):
    """Normalized counts p_1..p_alpha_max recovered from the t-expansion."""
    coeffs = zeta.value.expand_in_t(p, max(alpha_max - 1, 0))
    values = [1 - coeffs[0]]
    for beta in range(1, alpha_max):
        values.append(values[-1] - coeffs[beta])
    return values


def poincare_check(arrangement: Arrangement, lat, p: int,
                   alpha_max: int) -> PoincareReport:
    """Exact equality of the series coefficients with the brute-force
    normalized counts, for every depth up to alpha_max; a mismatch
    raises."""
    zeta = igusa_chain(arrangement, lat)
    n = arrangement.n
    expected = series_counts_from_zeta(zeta, p, alpha_max)
    counts = depth_counts(arrangement, p, alpha_max)
    got = [Fraction(c.count, p ** (2 * n * c.alpha)) for c in counts]
    if got != expected:
        raise InvariantError(
            f"series/oracle mismatch at p={p}: {expected} vs {got}")
    return PoincareReport(counts, expected)


class LimitProbe:
    __slots__ = ("values", "limit", "distances", "converges")

    def __init__(self, values, limit, distances, converges):
        self.values = values
        self.limit = limit
        self.distances = distances
        self.converges = converges


def limit_probe(arrangement: Arrangement, lat, counts) -> LimitProbe:
    """Normalized count sequence and exact distances to the symbolic limit.

    ``counts`` are the OracleCounts of depths 1..alpha_max at one prime,
    as returned by ``depth_counts``.  Convergence holds exactly when
    the arrangement is coloop-free; for a coloop the sequence diverges and
    the probe reports that.  ``lat`` is what ``b_mu`` reads."""
    p = counts[0].p
    values = [c.normalized for c in counts]
    flags = structural_flags(arrangement)
    if flags["essential"] and flags["coloop_free"]:
        limit = b_mu(arrangement, lat).evaluate(p)
        distances = [abs(v - limit) for v in values]
        return LimitProbe(values, limit, distances, True)
    return LimitProbe(values, None, None, False)
