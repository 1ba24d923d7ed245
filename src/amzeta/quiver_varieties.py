"""Partition combinatorics and the generating function packaging the
classes attached to a framed quiver.

For a quiver with vertex set I, framing vector w and truncation bound D,
the series in variables T_i (i in I) is a quotient of two partition sums:
the coefficient of T^v, multiplied by L^(-d(v,w)) with
d(v,w) = sum_i v_i^2 - sum_e v_s(e) v_t(e) - sum_i v_i w_i,
must reduce to a Laurent polynomial in L; failure to reduce is a hard
internal error.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .errors import (
    InvariantError,
    ParseError,
    PreconditionError,
    _charge_running,
    charge,
    parse_int,
    parse_list,
    partitions,
)
from .exact_algebra import LaurentPoly, exact_div


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def _partition_counts(n: int, what: str) -> list:
    """[p(0), ..., p(n)] by Euler's pentagonal number recurrence.  Each
    caller's cost is at least p(n), so ``what`` is refused as soon as a
    count passes the budget, and the count itself stays short."""
    counts = [1]
    for total in range(1, n + 1):
        value, j = 0, 1
        while j * (3 * j - 1) // 2 <= total:
            sign = 1 if j % 2 else -1
            for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
                if g <= total:
                    value += sign * counts[total - g]
            j += 1
        _charge_running(what, value)
        counts.append(value)
    return counts


def multiplicities(lam) -> dict:
    out = {}
    for part in lam:
        out[part] = out.get(part, 0) + 1
    return out


def partition_inner(lam, mu) -> int:
    """sum_{i,j} min(i,j) m_i(lam) m_j(mu); symmetric and nonnegative."""
    ml, mm = multiplicities(lam), multiplicities(mu)
    return sum(min(i, j) * a * b
               for i, a in ml.items() for j, b in mm.items())


# ---------------------------------------------------------------------------
# quivers
# ---------------------------------------------------------------------------

class Quiver:
    """Directed multigraph on vertices 1..k; loops and parallels allowed."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: int, edges):
        if vertices < 1:
            raise ParseError("quiver needs at least one vertex")
        clean = []
        for e in edges:
            s, t = int(e[0]), int(e[1])
            if not (1 <= s <= vertices and 1 <= t <= vertices):
                raise ParseError(f"edge ({s},{t}) out of range")
            clean.append((s, t))
        self.vertices = vertices
        self.edges = tuple(clean)

    def __eq__(self, other):
        return (isinstance(other, Quiver)
                and (self.vertices, self.edges) == (other.vertices, other.edges))

    def __repr__(self):
        return f"Quiver({self.vertices}, {list(self.edges)})"

    def to_json(self) -> dict:
        return {"vertices": self.vertices,
                "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json(cls, obj) -> "Quiver":
        try:
            edges = [parse_list(e, "edge") for e in obj["edges"]]
            return cls(parse_int(obj["vertices"], "vertex count"),
                       [(parse_int(s, "edge source"),
                         parse_int(t, "edge target")) for s, t in edges])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad Quiver JSON: {exc}") from exc


def dimension_pairing(quiver: Quiver, v, w) -> int:
    """d(v,w) = sum v_i^2 - sum_e v_s v_t - sum v_i w_i."""
    total = sum(x * x for x in v)
    for s, t in quiver.edges:
        total -= v[s - 1] * v[t - 1]
    total -= sum(x * y for x, y in zip(v, w))
    return total


# ---------------------------------------------------------------------------
# the partition sums, cleared by q-factorials
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def q_factorial(n: int) -> LaurentPoly:
    """P(n) = prod_{j=1..n} (1 - L^-j)."""
    if n == 0:
        return LaurentPoly.one("L")
    return q_factorial(n - 1) * LaurentPoly("L", {0: 1, -n: -1})


@functools.lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int) -> LaurentPoly:
    """[n, k] = P(n) / (P(k) P(n-k)), a polynomial in L^-1."""
    return exact_div(q_factorial(n), q_factorial(k) * q_factorial(n - k),
                     f"P({k}) P({n - k}) does not divide P({n}) in [{n}, {k}]")


def hua_term(quiver: Quiver, w, blam) -> LaurentPoly:
    """One multipartition summand times D_v: products of L^<.,.> over edges
    and framings divided by the centralizer class of the multipartition,
    whose factor prod_k P(m_k(lam)) divides P(|lam|)."""
    exp = 0
    for s, t in quiver.edges:
        exp += partition_inner(blam[s - 1], blam[t - 1])
    num = LaurentPoly.one("L")
    den = LaurentPoly.one("L")
    for i, lam in enumerate(blam):
        exp += partition_inner((1,) * w[i], lam) - partition_inner(lam, lam)
        num = num * q_factorial(sum(lam))
        for mult in multiplicities(lam).values():
            den = den * q_factorial(mult)
    cleared = exact_div(num, den, "centralizer factor does not divide the "
                        f"summand of multipartition {list(map(list, blam))}")
    return cleared.shift(exp)


def _graded(nvars, bound):
    """Dimension vectors of total degree <= bound, by total degree and
    lexicographically within a degree."""
    def exact(count, total):
        if count == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in exact(count - 1, total - first):
                yield (first,) + rest
    return [v for total in range(bound + 1) for v in exact(nvars, total)]


def _partition_sum(quiver: Quiver, w, bound: int) -> dict:
    """{v: D_v * (T^v coefficient of Hua's sum)} for the nonzero ones."""
    coeffs = {}
    for v in _graded(quiver.vertices, bound):
        acc = LaurentPoly.zero("L")
        for blam in itertools.product(*map(partitions, v)):
            acc = acc + hua_term(quiver, w, blam)
        if not acc.is_zero():
            coeffs[v] = acc
    return coeffs


class NakajimaGF:
    """Quotient series {v: T^v coefficient} (nonzero ones) and the
    Laurent-polynomial classes extracted from it."""

    __slots__ = ("series", "classes")

    def __init__(self, series, classes):
        self.series = series
        self.classes = classes


def nakajima_gf(quiver: Quiver, w, bound: int) -> NakajimaGF:
    """Build the quotient series and extract one class per coefficient.

    With N_v, Den_v the partition sums' coefficients and Q = N / Den, the
    cleared Q~_v = D_v Q_v obey the integer recurrence
    Q~_v = N~_v - sum_{0<u<=v} prod_i [v_i, u_i] Den~_u Q~_(v-u),
    and Q_v = Q~_v / D_v must be exact.  Before any work, the budget is
    charged one step per term of the two partition sums, the
    multipartitions of every v of degree <= bound: 2 sum_v prod_i p(v_i),
    38 steps for one loop at bound 5."""
    w = tuple(int(x) for x in w)
    if len(w) != quiver.vertices:
        raise PreconditionError("framing vector length != vertex count")
    if any(x < 0 for x in w):
        raise PreconditionError("framing vector must be nonnegative")
    if bound < 0:
        raise PreconditionError("truncation bound must be >= 0")
    what = "Nakajima partition sums"
    counts = _partition_counts(bound, what)
    terms = [1] + [0] * bound       # multipartition counts by degree
    for _ in range(quiver.vertices):
        terms = [sum(terms[a] * counts[d - a] for a in range(d + 1))
                 for d in range(bound + 1)]
    charge(what, 2 * sum(terms))
    num = _partition_sum(quiver, w, bound)
    den = _partition_sum(quiver, (0,) * quiver.vertices, bound)
    cleared, series = {}, {}
    for v in _graded(quiver.vertices, bound):
        acc = num.get(v, LaurentPoly.zero("L"))
        for u, den_u in den.items():
            if not any(u) or any(a > b for a, b in zip(u, v)):
                continue
            rest = cleared.get(tuple(b - a for a, b in zip(u, v)))
            if rest is not None:
                for a, b in zip(u, v):
                    rest = rest * gaussian_binomial(b, a)
                acc = acc - den_u * rest
        if acc.is_zero():
            continue
        cleared[v] = acc
        # D_v = prod_i P(v_i) is the known denominator at T^v
        series[v] = exact_div(
            acc, functools.reduce(operator.mul, map(q_factorial, v)),
            f"coefficient at {v} is not a Laurent polynomial")
    if not series.get((0,) * quiver.vertices, LaurentPoly.zero("L")).is_one():
        raise InvariantError("series constant term is not 1")
    classes = {v: series[v].shift(-dimension_pairing(quiver, v, w))
               for v in sorted(series)}
    return NakajimaGF(series, classes)
