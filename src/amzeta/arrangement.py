"""Central integer hyperplane arrangements and their lattices of flats.

An arrangement is an n x m integer matrix whose rows are the hyperplane
normals a_1..a_n (all nonzero); every hyperplane passes through the origin.
A flat is an index set F closed under rational span: F = {i : a_i lies in
the span of {a_j : j in F}}.  The lattice of flats carries the Mobius
function, interval characteristic polynomials and the delta statistics
that drive the zeta-function modules.

Ranks and determinants are fraction-free integer eliminations (Bareiss)
and flats come from integer kernel bases, so the lattice is exact for
arbitrary integer entries.
"""

from __future__ import annotations

import itertools
import math
from operator import mul

from .errors import (
    ParseError,
    PreconditionError,
    charge,
    parse_int,
    parse_list,
)
from .exact_algebra import LaurentPoly

DEFAULT_FLAT_BUDGET = 10 ** 6


# ---------------------------------------------------------------------------
# fraction-free integer linear algebra
# ---------------------------------------------------------------------------

def bareiss_rank(rows) -> int:
    """Rank over Q of a list of integer row vectors."""
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


def int_det(rows) -> int:
    """Determinant of a square integer matrix (Bareiss)."""
    M = [list(r) for r in rows]
    n = len(M)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for c in range(n - 1):
        pivot = next((i for i in range(c, n) if M[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            M[c], M[pivot] = M[pivot], M[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                M[i][j] = (M[c][c] * M[i][j] - M[i][c] * M[c][j]) // prev
            M[i][c] = 0
        prev = M[c][c]
    return sign * M[n - 1][n - 1]


def int_kernel_basis(rows, m: int):
    """Basis of the saturated lattice {x in Z^m : <a_i, x> = 0 for all rows}.

    Maintains a generating set of the solution lattice and imposes the
    constraints one at a time by unimodular column operations.
    """
    basis = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for a in rows:
        vals = [sum(map(mul, a, b)) for b in basis]
        while True:
            nz = [i for i, v in enumerate(vals) if v]
            if len(nz) <= 1:
                break
            piv = min(nz, key=lambda i: abs(vals[i]))
            for i in nz:
                if i == piv:
                    continue
                k = vals[i] // vals[piv]
                if k:
                    vals[i] -= k * vals[piv]
                    basis[i] = [x - k * y for x, y in zip(basis[i], basis[piv])]
        nz = [i for i, v in enumerate(vals) if v]
        if nz:
            del basis[nz[0]]
    return basis


def row_lattice_basis(rows):
    """Echelon basis of the Z-lattice generated by integer rows."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    basis = []
    col = 0
    while work and col < ncols:
        cand = [r for r in work if r[col]]
        if not cand:
            col += 1
            continue
        rest = [r for r in work if not r[col]]
        while len(cand) > 1:
            cand.sort(key=lambda r: abs(r[col]))
            piv = cand[0]
            new_cand = [piv]
            for r in cand[1:]:
                k = r[col] // piv[col]
                red = [x - k * y for x, y in zip(r, piv)]
                if red[col]:
                    new_cand.append(red)
                elif any(red):
                    rest.append(red)
            cand = new_cand
        piv = cand[0]
        if piv[col] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        work = rest
        col += 1
    return basis


def coords_in_basis(vec, basis):
    """Integer coordinates of vec in an echelon lattice basis.

    Requires vec to lie in the lattice spanned by the basis rows.
    """
    coords = []
    rem = list(vec)
    for b in basis:
        piv = next(j for j, x in enumerate(b) if x)
        c, r = divmod(rem[piv], b[piv])
        if r:
            raise PreconditionError("vector not in the row lattice")
        coords.append(c)
        rem = [x - c * y for x, y in zip(rem, b)]
    if any(rem):
        raise PreconditionError("vector not in the row lattice")
    return coords


def rank_mod_p(rows, p: int) -> int:
    """Rank of an integer matrix over F_p."""
    M = [[x % p for x in r] for r in rows]
    if not M:
        return 0
    nrows, ncols = len(M), len(M[0])
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if M[i][c] % p), None)
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

    def rows(self, indices):
        return [self.normals[i] for i in sorted(indices)]

    def rank(self) -> int:
        return bareiss_rank(self.normals)

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
    (size, sorted members), a linear extension of inclusion.  ``up[i]``
    and ``down[i]`` are masks over flat indices of the flats H >= i and
    H <= i (both include i), so an interval is one ``&``.

    Mobius values are read from tables built once and cached: a column
    nu(., G) for ``mobius`` and a row nu(F, .) for the characteristic
    polynomials.  Each entry sums the entries of one interval.
    """

    __slots__ = ("arrangement", "flats", "index", "ranks", "up", "down",
                 "bottom", "top", "_rows", "_columns")

    def __init__(self, arrangement: Arrangement, masks, ranks, covers):
        """``covers[i]`` lists the indices of the flats covering flat i."""
        self.arrangement = arrangement
        self.flats = tuple(frozenset(_bits(f)) for f in masks)
        self.index = {f: i for i, f in enumerate(self.flats)}
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
        self.bottom = self.index[frozenset()]
        self.top = self.index[frozenset(range(arrangement.n))]
        self._rows = {}
        self._columns = {}

    # flat indices in a mask such as ``up[i]`` or ``down[i]``, ascending
    indices = staticmethod(_bits)

    def __len__(self):
        return len(self.flats)

    def flat_index(self, flat) -> int:
        if isinstance(flat, int):
            return flat
        f = frozenset(flat)
        try:
            return self.index[f]
        except KeyError:
            raise PreconditionError(f"{sorted(f)} is not a flat") from None

    def leq(self, f, g) -> bool:
        return bool(self.up[self.flat_index(f)] >> self.flat_index(g) & 1)

    def rank_of(self, flat) -> int:
        return self.ranks[self.flat_index(flat)]

    def between(self, g, f):
        """Indices of flats H with g <= H <= f, ascending."""
        return _bits(self.up[self.flat_index(g)]
                     & self.down[self.flat_index(f)])

    def _comparable(self, f, g, what):
        fi, gi = self.flat_index(f), self.flat_index(g)
        if not self.leq(fi, gi):
            raise PreconditionError(f"{what} on incomparable flats")
        return fi, gi

    def mobius(self, f, g) -> int:
        """Mobius value nu(F, G) for comparable flats F <= G."""
        fi, gi = self._comparable(f, g, "mobius")
        column = self._columns.get(gi)
        if column is None:
            # nu(H, G) = -sum of nu(K, G) over H < K <= G, from G down
            column = {}
            below = self.down[gi]
            for h in reversed(_bits(below)):
                column[h] = 1 if h == gi else -sum(
                    column[k] for k in _bits((self.up[h] & below) ^ (1 << h)))
            self._columns[gi] = column
        return column[fi]

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

    def mobius_via_chains(self, f, g) -> int:
        """Alternating count of strict chains from f to g; independent of
        the Mobius tables and used to cross-check them."""
        fi, gi = self._comparable(f, g, "mobius")
        total = 0
        sign = 1
        counts = {fi: 1}
        while counts:
            total += sign * counts.get(gi, 0)
            nxt = {}
            for h, c in counts.items():
                for k in self.between(h, gi):
                    if k != h:
                        nxt[k] = nxt.get(k, 0) + c
            counts = nxt
            sign = -sign
        return total

    def char_poly_interval(self, g, f) -> LaurentPoly:
        """Characteristic polynomial of the interval [g, f], a monic
        polynomial in q of degree rank(f) - rank(g)."""
        gi, fi = self._comparable(g, f, "interval")
        row = self._mobius_row(gi)
        rf = self.ranks[fi]
        coeffs = {}
        for h in _bits(self.up[gi] & self.down[fi]):
            e = rf - self.ranks[h]
            coeffs[e] = coeffs.get(e, 0) + row[h]
        return LaurentPoly("q", coeffs)

    def char_poly(self) -> LaurentPoly:
        """Global characteristic polynomial, with corank taken in the
        ambient dimension m (monic of degree m)."""
        m = self.arrangement.m if self.arrangement.n else 0
        coeffs = {}
        for h, value in self._mobius_row(self.bottom).items():
            e = m - self.ranks[h]
            coeffs[e] = coeffs.get(e, 0) + value
        return LaurentPoly("q", coeffs)

    def delta(self, flat) -> int:
        """delta_I = n - |I| + rank(I)."""
        i = self.flat_index(flat)
        return self.arrangement.n - len(self.flats[i]) + self.ranks[i]

    def proper_flats(self):
        return [i for i in range(len(self.flats)) if i != self.top]


def _direction(vec) -> tuple:
    """Primitive integer vector with positive leading entry parallel to a
    nonzero vec: two vectors are parallel iff their directions agree."""
    g = math.gcd(*vec)
    if next(x for x in vec if x) < 0:
        g = -g
    return tuple(x // g for x in vec)


def build_lattice(arrangement: Arrangement,
                  max_flats: int = DEFAULT_FLAT_BUDGET) -> FlatLattice:
    """Enumerate all flats by a search over covers from the empty flat.

    Each flat F gets one integer kernel basis K of its normals.  A normal
    a_j outside F pairs with K to a nonzero vector, and a_j lies in the
    span of F and a_i iff the pairings of i and j are parallel.  So the
    flats covering F are F joined with each class of parallel pairings,
    each one rank above F.
    """
    normals, m = arrangement.normals, arrangement.m
    everything = (1 << arrangement.n) - 1
    ranks = {0: 0}
    covers = {}
    queue = [0]
    while queue:
        f = queue.pop()
        kernel = int_kernel_basis([normals[i] for i in _bits(f)], m)
        classes = {}
        for j in _bits(everything & ~f):
            key = _direction([sum(map(mul, normals[j], k)) for k in kernel])
            classes[key] = classes.get(key, 0) | 1 << j
        covers[f] = [f | c for c in classes.values()]
        for g in covers[f]:
            if g not in ranks:
                ranks[g] = ranks[f] + 1
                charge("lattice of flats", len(ranks), max_flats)
                queue.append(g)
    masks = sorted(ranks, key=lambda f: (f.bit_count(), _bits(f)))
    index = {f: i for i, f in enumerate(masks)}
    return FlatLattice(arrangement, masks, [ranks[f] for f in masks],
                       [[index[g] for g in covers[f]] for f in masks])


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------

def _unimodular(arrangement: Arrangement) -> bool:
    """Every maximal (m x m) minor lies in {-1, 0, 1}."""
    n, m = arrangement.n, arrangement.m
    if not m or n < m:
        return True
    return all(abs(int_det([arrangement.normals[i] for i in rows_idx])) <= 1
               for rows_idx in itertools.combinations(range(n), m))


def _max_abs_minor(arrangement: Arrangement) -> int:
    """Largest |det| over the square minors of every size."""
    n, m = arrangement.n, arrangement.m
    best = 0
    for k in range(1, min(n, m) + 1):
        for rows_idx in itertools.combinations(range(n), k):
            rows = [arrangement.normals[i] for i in rows_idx]
            for cols_idx in itertools.combinations(range(m), k):
                d = int_det([[r[c] for c in cols_idx] for r in rows])
                best = max(best, abs(d))
    return best


_FLAG_ROUTINES = {"unimodular": _unimodular, "max_abs_minor": _max_abs_minor}

_FLAGS_CACHE: dict = {}


def structural_flags(arrangement: Arrangement, *extra) -> dict:
    """Exact structural predicates; each is computed only when asked for.

    ``essential`` and ``coloop_free`` always, from n + 1 ranks.  ``extra``
    names any of ``"unimodular"`` (one pass over the C(n, m) maximal
    minors, stopping at the first |det| > 1) and ``"max_abs_minor"`` (the
    largest |det| over square minors of every size, exponential in m).

    Values are cached per normal matrix: several modules consult the flags
    repeatedly.
    """
    cached = _FLAGS_CACHE.get(arrangement.normals)
    if cached is None:
        n, m = arrangement.n, arrangement.m
        rank = arrangement.rank()
        cached = {
            "essential": rank == m and m > 0,
            "coloop_free": n > 0 and all(
                bareiss_rank(arrangement.normals[:i]
                             + arrangement.normals[i + 1:]) == rank
                for i in range(n)),
        }
        if len(_FLAGS_CACHE) < 10 ** 4:
            _FLAGS_CACHE[arrangement.normals] = cached
    for key in extra:
        if key not in cached:
            cached[key] = _FLAG_ROUTINES[key](arrangement)
    return {key: cached[key] for key in ("essential", "coloop_free") + extra}


def require_prime_above_minors(arrangement: Arrangement, p: int):
    """The counting oracles need p larger than every |minor|."""
    bound = structural_flags(arrangement, "max_abs_minor")["max_abs_minor"]
    if p <= bound:
        raise PreconditionError(
            f"prime {p} not larger than max |minor| {bound}")


def count_complement_Fq(arrangement: Arrangement, p: int,
                        budget: int = 10 ** 7, ambient_m=None) -> int:
    """Points of F_p^m lying on none of the hyperplanes (brute force).

    ambient_m supplies the dimension for the empty arrangement, which
    carries no width of its own.
    """
    require_prime_above_minors(arrangement, p)
    m = arrangement.m if arrangement.n else (ambient_m or 0)
    charge(f"complement count over F_{p}^{m}", p ** m, budget)
    count = 0
    for v in itertools.product(range(p), repeat=m):
        if all(sum(a * x for a, x in zip(row, v)) % p
               for row in arrangement.normals):
            count += 1
    return count


# ---------------------------------------------------------------------------
# sub-arrangements
# ---------------------------------------------------------------------------

def localization(arrangement: Arrangement, flat):
    """Arrangement of the hyperplanes in the flat, rewritten in an integer
    basis of their span.  Returns (sub_arrangement, index_list)."""
    idx = sorted(flat)
    rows = [arrangement.normals[i] for i in idx]
    if not rows:
        return Arrangement(()), []
    basis = row_lattice_basis(rows)
    new_rows = [coords_in_basis(r, basis) for r in rows]
    return Arrangement(new_rows), idx


def restriction(arrangement: Arrangement, flat):
    """Arrangement induced on the common intersection of the flat:
    normals outside the flat paired against an integer basis of it.
    Returns (sub_arrangement, index_list)."""
    flat = frozenset(flat)
    kernel = int_kernel_basis([arrangement.normals[i] for i in sorted(flat)],
                              arrangement.m)
    idx = [j for j in range(arrangement.n) if j not in flat]
    new_rows = [
        tuple(sum(a * x for a, x in zip(arrangement.normals[j], b))
              for b in kernel)
        for j in idx
    ]
    return Arrangement(new_rows), idx


def deletion(arrangement: Arrangement, flat):
    """Remove every hyperplane belonging to the flat.
    Returns (sub_arrangement, index_list)."""
    flat = frozenset(flat)
    idx = [j for j in range(arrangement.n) if j not in flat]
    return Arrangement([arrangement.normals[j] for j in idx]), idx


def char_poly_of(arrangement: Arrangement, ambient_m=None) -> LaurentPoly:
    """Characteristic polynomial with an explicit ambient dimension (used
    for deletions, which live in the original space)."""
    if arrangement.n == 0:
        m = ambient_m if ambient_m is not None else 0
        return LaurentPoly.monomial("q", m)
    m = ambient_m if ambient_m is not None else arrangement.m
    return build_lattice(arrangement).char_poly().shift(
        m - arrangement.m)


# ---------------------------------------------------------------------------
# graphic arrangements
# ---------------------------------------------------------------------------

def graphic_arrangement(quiver) -> Arrangement:
    """One normal per edge, the difference of the endpoint coordinates,
    expressed in rank |vertices| - 1 by dropping the last coordinate."""
    k = quiver.vertices
    if k < 2:
        raise PreconditionError("graphic arrangement needs >= 2 vertices")
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rows = []
    for s, t in quiver.edges:
        if s == t:
            raise PreconditionError("loops give zero normals; rejected")
        parent[find(s - 1)] = find(t - 1)
        row = [0] * k
        row[s - 1] += 1
        row[t - 1] -= 1
        rows.append(tuple(row[:-1]))
    if len({find(v) for v in range(k)}) != 1:
        raise PreconditionError("graph must be connected")
    return Arrangement(rows)
