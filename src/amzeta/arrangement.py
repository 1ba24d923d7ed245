"""Central integer hyperplane arrangements and their lattices of flats.

An arrangement is an n x m integer matrix whose rows are the hyperplane
normals a_1..a_n (all nonzero); every hyperplane passes through the origin.
A flat is an index set F closed under rational span: F = {i : a_i lies in
the span of {a_j : j in F}}.  The lattice of flats carries the Mobius
function, interval characteristic polynomials and the delta statistics
that drive the zeta-function modules, each queried by flat index.

Determinants are fraction-free integer eliminations (Bareiss).  Ranks
over Q and F_p, the flags ``essential`` and ``coloop_free``, flats and
sub-arrangements all come from Euclid's column operations, which write
integer vectors in the coordinates of a saturated kernel without forming
its basis, so the lattice is exact for arbitrary integer entries.
``unimodular`` runs Bareiss on the maximal minors, and ``max_abs_minor``
builds every nonzero minor once, by Laplace expansion along its last row;
each charges the work budget for its scan first.
"""

from __future__ import annotations

import itertools
import math
from operator import mul

from .errors import (
    ParseError,
    PreconditionError,
    _charge_running,
    charge,
    parse_int,
    parse_list,
)
from .exact_algebra import LaurentPoly


# ---------------------------------------------------------------------------
# fraction-free integer linear algebra
# ---------------------------------------------------------------------------

def int_det(rows) -> int:
    """Determinant of a square integer matrix (Bareiss).

    Each step rewrites only the columns right of the pivot.  A row with a
    0 below the pivot is only rescaled by pivot / previous pivot, so it is
    left untouched when the two pivots are equal."""
    M = [list(r) for r in rows]
    n = len(M)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for c in range(n - 1):
        for i in range(c, n):
            if M[i][c]:
                break
        else:
            return 0
        if i != c:
            M[c], M[i] = M[i], M[c]
            sign = -sign
        top = M[c]
        p = top[c]
        cols = range(c + 1, n)
        for row in M[c + 1:]:
            f = row[c]
            if f:
                for j in cols:
                    row[j] = (p * row[j] - f * top[j]) // prev
            elif p != prev:
                for j in cols:
                    row[j] = p * row[j] // prev
        prev = p
    return sign * M[n - 1][n - 1]


def _eliminate(d, vecs) -> list:
    """``vecs`` paired with a basis of the saturated lattice {x : <d, x> = 0},
    d nonzero: Euclid's column operations bring d to +-gcd(d) e_p and make
    the unit vectors a basis of which all but the p-th span that lattice."""
    d = list(d)
    ops = []
    nz = [i for i, x in enumerate(d) if x]
    while len(nz) > 1:
        piv = min(nz, key=lambda i: abs(d[i]))
        for i in nz:
            if i != piv:
                k = d[i] // d[piv]
                d[i] -= k * d[piv]
                ops.append((i, piv, k))
        nz = [i for i in nz if d[i]]
    out = [list(v) for v in vecs]
    for v in out:
        for i, piv, k in ops:
            v[i] -= k * v[piv]
        del v[nz[0]]
    return out


def _restrict(rows, vecs) -> list:
    """``vecs`` in the saturated kernel coordinates of ``rows``: each row,
    in the coordinates the earlier ones left, is eliminated unless zero."""
    vecs = [*rows, *vecs]
    for _ in rows:
        d = vecs.pop(0)
        if any(d):
            vecs = _eliminate(d, vecs)
    return vecs


def rank(rows, p: int = 0) -> int:
    """Rank of a list of integer row vectors over Q, or over F_p for a
    prime p.  Each row, in the kernel coordinates the earlier rows left
    (read mod p), counts when nonzero and is then eliminated.  Mod p this
    is exact: the column operations are unimodular, and the pivot gcd of a
    row read mod p lies in [1, p), a unit."""
    vecs, count = list(rows), 0
    while vecs:
        d = [x % p for x in vecs.pop(0)] if p else vecs.pop(0)
        if any(d):
            count += 1
            vecs = _eliminate(d, vecs)
    return count


# ---------------------------------------------------------------------------
# arrangements
# ---------------------------------------------------------------------------

class Arrangement:
    """n hyperplanes through the origin of Q^m with integer normals."""

    __slots__ = ("normals",)

    def __init__(self, normals):
        rows = tuple(tuple(int(x) for x in r) for r in normals)
        if rows:
            width = len(rows[0])
            if width == 0:
                raise ParseError("normals must have positive length")
            if any(len(r) != width for r in rows):
                raise ParseError("normals of unequal length")
            for idx, r in enumerate(rows):
                if not any(r):
                    raise PreconditionError(f"zero normal at index {idx}")
        self.normals = rows

    @property
    def n(self) -> int:
        return len(self.normals)

    @property
    def m(self) -> int:
        return len(self.normals[0]) if self.normals else 0

    def rank(self) -> int:
        return rank(self.normals)

    def __eq__(self, other):
        return isinstance(other, Arrangement) and self.normals == other.normals

    def __hash__(self):
        return hash(self.normals)

    def __repr__(self):
        return f"Arrangement({list(map(list, self.normals))})"

    def to_json(self) -> dict:
        return {"normals": [list(r) for r in self.normals]}

    @classmethod
    def from_json(cls, obj) -> "Arrangement":
        try:
            return cls([[parse_int(x, "normal entry")
                         for x in parse_list(r, "normal")]
                        for r in obj["normals"]])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad Arrangement JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# lattice of flats
# ---------------------------------------------------------------------------

def _bits(mask: int) -> list:
    """Positions of the set bits of a nonnegative int, ascending."""
    digits = bin(mask)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


class FlatLattice:
    """Lattice of flats of a central arrangement, with Mobius data.

    Flat i is built from a hyperplane mask and exposed as the frozenset
    ``flats[i]`` of 0-based hyperplane indices.  Flats are ordered by
    (size, sorted members), a linear extension of inclusion, top last.
    Every query names flats by index, as ``TypeQuotient`` names its nodes;
    ``flat_index`` turns a set of hyperplanes into one.  ``up[i]`` and
    ``down[i]`` are masks over flat indices of the flats H >= i and H <= i
    (both include i), so an interval is one ``&``.  ``above``, ``weight``
    and ``mobius_top`` are shared with ``TypeQuotient``.

    Mobius values are read from tables built once and cached: a column
    nu(., G) for ``mobius`` and a row nu(F, .) for the characteristic
    polynomials.  Each entry sums the entries of one interval.
    """

    __slots__ = ("arrangement", "flats", "ranks", "up", "down", "bottom",
                 "top", "_rows", "_columns")

    def __init__(self, arrangement: Arrangement, masks, ranks, covers):
        """``covers[i]`` lists the indices of the flats covering flat i."""
        self.arrangement = arrangement
        self.flats = tuple(frozenset(_bits(f)) for f in masks)
        self.ranks = tuple(ranks)
        count = len(self.flats)
        # a cover has a larger index than the flat it covers
        up = [1 << i for i in range(count)]
        for i in reversed(range(count)):
            for c in covers[i]:
                up[i] |= up[c]
        down = [1 << i for i in range(count)]
        for i in range(count):
            for c in covers[i]:
                down[c] |= down[i]
        self.up = tuple(up)
        self.down = tuple(down)
        # flats ascend in size: the empty flat first, all hyperplanes last
        self.bottom, self.top = 0, count - 1
        self._rows = {}
        self._columns = {}

    # flat indices in a mask such as ``up[i]`` or ``down[i]``, ascending
    indices = staticmethod(_bits)

    def __len__(self):
        return len(self.flats)

    def flat_index(self, flat) -> int:
        """Index of the flat whose hyperplanes are the set ``flat``."""
        f = frozenset(flat)
        try:
            return self.flats.index(f)
        except ValueError:
            raise PreconditionError(f"{sorted(f)} is not a flat") from None

    def leq(self, f: int, g: int) -> bool:
        return bool(self.up[f] >> g & 1)

    def between(self, g: int, f: int):
        """Indices of flats H with g <= H <= f, ascending."""
        return _bits(self.up[g] & self.down[f])

    def _comparable(self, f: int, g: int, what):
        if not self.leq(f, g):
            raise PreconditionError(f"{what} on incomparable flats")

    def mobius(self, f: int, g: int) -> int:
        """Mobius value nu(F, G) for comparable flats F <= G."""
        self._comparable(f, g, "mobius")
        column = self._columns.get(g)
        if column is None:
            # nu(H, G) = -sum of nu(K, G) over H < K <= G, from G down
            column = {}
            below = self.down[g]
            for h in reversed(_bits(below)):
                column[h] = 1 if h == g else -sum(
                    column[k] for k in _bits((self.up[h] & below) ^ (1 << h)))
            self._columns[g] = column
        return column[f]

    def _mobius_row(self, fi: int) -> dict:
        row = self._rows.get(fi)
        if row is None:
            # nu(F, H) = -sum of nu(F, K) over F <= K < H, from F up
            row = {}
            above = self.up[fi]
            for h in _bits(above):
                row[h] = 1 if h == fi else -sum(
                    row[k] for k in _bits((self.down[h] & above) ^ (1 << h)))
            self._rows[fi] = row
        return row

    def mobius_via_chains(self, f: int, g: int) -> int:
        """Alternating count of strict chains from f to g; independent of
        the Mobius tables and used to cross-check them."""
        self._comparable(f, g, "mobius")
        total = 0
        sign = 1
        counts = {f: 1}
        while counts:
            total += sign * counts.get(g, 0)
            nxt = {}
            for h, c in counts.items():
                for k in self.between(h, g):
                    if k != h:
                        nxt[k] = nxt.get(k, 0) + c
            counts = nxt
            sign = -sign
        return total

    def char_poly_interval(self, g: int, f: int) -> LaurentPoly:
        """Characteristic polynomial of the interval [g, f], a monic
        polynomial in q of degree rank(f) - rank(g)."""
        self._comparable(g, f, "interval")
        row = self._mobius_row(g)
        rf = self.ranks[f]
        coeffs = {}
        for h in _bits(self.up[g] & self.down[f]):
            e = rf - self.ranks[h]
            coeffs[e] = coeffs.get(e, 0) + row[h]
        return LaurentPoly("q", coeffs)

    def char_poly(self) -> LaurentPoly:
        """Global characteristic polynomial, with corank taken in the
        ambient dimension m (monic of degree m)."""
        return self.char_poly_interval(self.bottom, self.top).shift(
            self.arrangement.m - self.ranks[self.top])

    def delta(self, i: int) -> int:
        """delta_I = n - |I| + rank(I)."""
        return self.arrangement.n - len(self.flats[i]) + self.ranks[i]

    def above(self, i):
        return zip(_bits(self.up[i] ^ (1 << i)), itertools.repeat(1))

    def weight(self, i) -> int:
        return 1

    def mobius_top(self, i) -> int:
        return self.mobius(i, self.top)


def _direction(vec) -> tuple:
    """Primitive integer vector with positive leading entry parallel to a
    nonzero vec: two vectors are parallel iff their directions agree."""
    g = math.gcd(*vec) if next(filter(None, vec)) > 0 else -math.gcd(*vec)
    return tuple(vec) if g == 1 else tuple([x // g for x in vec])


def build_lattice(arrangement: Arrangement) -> FlatLattice:
    """Enumerate all flats by a search over covers from the empty flat.

    Each queued flat F carries the pairings of the normals a_j outside F
    with a saturated integer kernel basis K of F, as nonzero vectors in the
    coordinates of K.  a_j lies in the span of F and a_i iff the pairings
    of i and j are parallel.  So the flats covering F are F joined with
    each class of parallel pairings, each one rank above F.  The kernel of
    a cover is the part of K orthogonal to its class's direction d, so its
    pairings are the parent's with d eliminated by ``_eliminate``, each
    with its gcd kept.  Each flat found is charged n * m steps, a bound on
    the pairing entries it gets, as it is found: K7 costs 110,502, K11
    373,213,500.
    """
    per_flat = arrangement.n * arrangement.m
    ranks = {0: 0}
    covers = {}
    queue = [(0, dict(enumerate(arrangement.normals)))]
    while queue:
        f, pairings = queue.pop()
        classes = {}
        for j, vec in pairings.items():
            key = _direction(vec)
            classes[key] = classes.get(key, 0) | 1 << j
        covers[f] = [f | c for c in classes.values()]
        for d, c in classes.items():
            g = f | c
            if g not in ranks:
                ranks[g] = ranks[f] + 1
                _charge_running("lattice of flats", per_flat * len(ranks))
                rest = [j for j in pairings if not c >> j & 1]
                queue.append((g, dict(zip(rest, _eliminate(
                    d, [pairings[j] for j in rest])))))
    masks = sorted(ranks, key=lambda f: (f.bit_count(), _bits(f)))
    index = {f: i for i, f in enumerate(masks)}
    return FlatLattice(arrangement, masks, [ranks[f] for f in masks],
                       [[index[g] for g in covers[f]] for f in masks])


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------

_FLAGS_CACHE: dict = {}


def _cached_flags(arrangement: Arrangement) -> dict:
    """The flags of the normal matrix computed so far; ``essential`` and
    ``coloop_free`` from one elimination of the transposed normals against
    the unit vectors, which leaves the lattice of row dependencies: the rank
    is n minus its dimension, and a coloop's row there is zero."""
    cached = _FLAGS_CACHE.get(arrangement.normals)
    if cached is None:
        n, m = arrangement.n, arrangement.m
        cached = {"essential": False, "coloop_free": False}
        if n:
            units = [[int(i == j) for j in range(n)] for i in range(n)]
            pairings = _restrict(list(zip(*arrangement.normals)), units)
            cached = {"essential": n - len(pairings[0]) == m,
                      "coloop_free": all(map(any, pairings))}
        if len(_FLAGS_CACHE) < 10 ** 4:
            _FLAGS_CACHE[arrangement.normals] = cached
    return cached


def structural_flags(arrangement: Arrangement) -> dict:
    """``essential`` and ``coloop_free``, cached per normal matrix."""
    cached = _cached_flags(arrangement)
    return {key: cached[key] for key in ("essential", "coloop_free")}


def _charge_unimodular(arr: Arrangement):
    """C(n, m) m^3, a bound, as the skip's count is known only by
    enumerating: K9 costs 15,493,294,080 steps."""
    charge("unimodular", math.comb(arr.n, arr.m) * arr.m ** 3)


def unimodular(arrangement: Arrangement) -> bool:
    """Every maximal minor lies in {-1, 0, 1}: ``int_det`` on the m-row
    choices without an all-zero column (K7: 27,364 of 54,264), up to the
    first |det| > 1.  Charged by ``_charge_unimodular`` first."""
    cached = _cached_flags(arrangement)
    if "unimodular" not in cached:
        _charge_unimodular(arrangement)
        cached["unimodular"] = all(
            abs(int_det(rows)) <= 1
            for rows in itertools.combinations(arrangement.normals,
                                               arrangement.m)
            if all(map(any, zip(*rows))))
    return cached["unimodular"]


def _minors(normals, start: int, minors: dict, left: int):
    """For each choice of 1 to ``left`` more rows from ``normals[start:]``,
    the nonzero minors on the rows so far and those, keyed by column mask
    as ``minors`` is.  Below row a, the minor on columns D is the sum over
    c in D of (-1)^(#columns of D after c) a_c times the minor on D - c."""
    for r in range(start, len(normals)):
        entries = [(c, x) for c, x in enumerate(normals[r]) if x]
        grown = {}
        for mask, d in minors.items():
            for c, x in entries:
                if not mask >> c & 1:
                    term = -x * d if (mask >> c).bit_count() & 1 else x * d
                    grown[mask | 1 << c] = grown.get(mask | 1 << c, 0) + term
        grown = {key: d for key, d in grown.items() if d}
        if grown:
            yield grown
            if left > 1:
                yield from _minors(normals, r + 1, grown, left - 1)


def max_abs_minor(arrangement: Arrangement) -> int:
    """Largest |det| over the square minors of every size, from one
    depth-first Laplace walk over the row choices that builds each nonzero
    minor once.  Charged sum_k C(n, k) C(m, k) k first, a bound on its
    products, exact when no minor vanishes: K8 costs 37,657,312 steps."""
    cached = _cached_flags(arrangement)
    if "max_abs_minor" not in cached:
        n, m = arrangement.n, arrangement.m
        charge("max_abs_minor", sum(math.comb(n, k) * math.comb(m, k) * k
                                    for k in range(1, m + 1)))
        cached["max_abs_minor"] = max(
            (abs(d) for grown in _minors(arrangement.normals, 0, {0: 1}, m)
             for d in grown.values()), default=0)
    return cached["max_abs_minor"]


def _require_essential(arrangement: Arrangement, coloop_free=False):
    """Refuse a non-essential arrangement, or a coloop if ``coloop_free``."""
    flags = structural_flags(arrangement)
    if not flags["essential"]:
        raise PreconditionError(
            "arrangement is not essential; restrict to the span of the "
            "normals first")
    if coloop_free and not flags["coloop_free"]:
        raise PreconditionError(
            "arrangement has a coloop: the normalized limit diverges")


def require_prime_above_minors(arrangement: Arrangement, p: int):
    """The counting oracles need p larger than every |minor|."""
    bound = max_abs_minor(arrangement)
    if p <= bound:
        raise PreconditionError(
            f"prime {p} not larger than max |minor| {bound}")


def count_complement_Fq(arrangement: Arrangement, p: int) -> int:
    """Points of F_p^m lying on none of the hyperplanes (brute force)."""
    require_prime_above_minors(arrangement, p)
    m = arrangement.m
    charge(f"complement count over F_{p}^{m}", p ** m)
    count = 0
    for v in itertools.product(range(p), repeat=m):
        if all(sum(a * x for a, x in zip(row, v)) % p
               for row in arrangement.normals):
            count += 1
    return count


def _orbit_representatives(p, depth, m):
    """One primitive xi in (Z/p^depth)^m per orbit of unit scaling: those
    whose first unit coordinate is 1, the earlier ones lying in pZ."""
    mod = p ** depth
    for k in range(m):
        yield from itertools.product(*[range(0, mod, p)] * k, (1,),
                                     *[range(mod)] * (m - k - 1))


def _character_count(normals, p, alpha, target):
    """[|{(x, y) in (Z/p^d)^2n : sum x_i y_i a_i = target}| for d = 1..alpha]
    by additive characters.  Since sum_{x,y} e(x y c / p^d) = p^d gcd(c, p^d),
    the count is p^(d (n - m)) sum_xi e(-<target, xi> / p^d) w(xi) over
    xi in (Z/p^d)^m, with w(xi) = prod_i gcd(<a_i, xi>, p^d).  The xi in
    p(Z/p^d)^m contribute p^n times the sum at depth d - 1, so one Horner
    pass from depth 0's 1 sums every depth.  Unit scaling of a primitive xi
    fixes w, so each orbit is walked once, weighted by its Ramanujan sum
    sum_u e(u k / p^d) = p^d [p^d | k] - p^(d-1) [p^(d-1) | k], where
    k = <target, xi>.  Charged before any work: per representative, one
    inner product with the target and n with the normals, m products each.
    The congruence oracle and the fiber count share it."""
    n, m = len(normals), len(target)
    reps = sum((p ** (d * m) - p ** (d * m - m)) // (p ** d - p ** (d - 1))
               for d in range(1, alpha + 1))
    charge("character sum", (n + 1) * m * reps)
    total, counts = 1, []
    for d in range(1, alpha + 1):
        mod, unit = p ** d, p ** (d - 1)
        total *= p ** n
        for xi in _orbit_representatives(p, d, m):
            k = sum(map(mul, target, xi))
            orbit = (k % mod == 0) * mod - (k % unit == 0) * unit
            if orbit:
                total += orbit * math.prod(
                    math.gcd(sum(map(mul, a, xi)), mod) for a in normals)
        counts.append(p ** (d * n) * total // p ** (d * m))
    return counts


# ---------------------------------------------------------------------------
# sub-arrangements
# ---------------------------------------------------------------------------

def localization(arrangement: Arrangement, flat):
    """Arrangement of the hyperplanes in the flat, written in rank F
    coordinates: their normals in those of the kernel of K, the flat's
    kernel, whose basis is the transpose of the unit vectors in K's.
    Returns (sub_arrangement, index_list)."""
    idx = sorted(flat)
    rows = [arrangement.normals[i] for i in idx]
    m = arrangement.m
    units = [[int(i == j) for j in range(m)] for i in range(m)]
    kernel = list(zip(*_restrict(rows, units)))
    return Arrangement(_restrict(kernel, rows)), idx


def restriction(arrangement: Arrangement, flat):
    """Arrangement induced on the common intersection of the flat: the
    normals outside the flat in the coordinates of its kernel.
    Returns (sub_arrangement, index_list)."""
    flat = frozenset(flat)
    idx = [j for j in range(arrangement.n) if j not in flat]
    return Arrangement(_restrict(
        [arrangement.normals[i] for i in sorted(flat)],
        [arrangement.normals[j] for j in idx])), idx


def deletion(arrangement: Arrangement, flat):
    """Remove every hyperplane belonging to the flat.
    Returns (sub_arrangement, index_list)."""
    flat = frozenset(flat)
    idx = [j for j in range(arrangement.n) if j not in flat]
    return Arrangement([arrangement.normals[j] for j in idx]), idx


def char_poly_of(arrangement: Arrangement, ambient_m: int) -> LaurentPoly:
    """Characteristic polynomial in an ambient space of dimension
    ambient_m (deletions live in the original space)."""
    return build_lattice(arrangement).char_poly().shift(
        ambient_m - arrangement.m)


# ---------------------------------------------------------------------------
# graphic arrangements
# ---------------------------------------------------------------------------

def graphic_arrangement(quiver) -> Arrangement:
    """One normal per edge, the difference of the endpoint coordinates,
    expressed in rank |vertices| - 1 by dropping the last coordinate."""
    k = quiver.vertices
    if k < 2:
        raise PreconditionError("graphic arrangement needs >= 2 vertices")
    rows = []
    for s, t in quiver.edges:
        if s == t:
            raise PreconditionError("loops give zero normals; rejected")
        row = [0] * k
        row[s - 1] += 1
        row[t - 1] -= 1
        rows.append(tuple(row[:-1]))
    # the normals of a graph on k vertices span rank k - c, c = components
    if rank(rows) != k - 1:
        raise PreconditionError("graph must be connected")
    return Arrangement(rows)
