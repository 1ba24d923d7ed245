"""Zeta function of the moment map of a central essential arrangement.

Two independent computations are provided and must agree exactly:

  igusa_chain      dynamic programming over the lattice of flats that
                   resums the chain formula, reduced once at the end,
                     I = (q^m-1)/(q^m-t) + q^m (t-1)/(t (q^m-t))
                         * sum_{I != top} W(I) q^(rk I - m),
                   with W(top) = 1, S(top) = 0 and, free of any chi or mu,
                     W(I) = t/(q^dI - t) * S(I),
                     S(I) = sum_{J > I} [W(J) q^(rk J - rk I) - W(J) - S(J)].

  igusa_recursion  a recursion over localizations: each proper flat I
                   contributes through the zeta data of the arrangement
                   formed by its own hyperplanes, with a shifted variable.

The chain DP and the level sets walk a weighted poset: nodes indexed in
order, top last, with a rank, a delta, a weight (the flats each stands
for) and mu(I, top), and up-edges J > I with a multiplicity (the flats of
node J above one flat of node I); the lattice of flats has every weight
and multiplicity 1.  On the braid arrangement K_k both depend only on the
partition type of a flat, so ``chain_poset`` hands every chain-sum user
(igusa, poles, bmu, bprime, oracle, check-lastone) the quotient by types,
p(k) nodes for Bell(k) flats (K10: 42 types, 115,975 flats); other
inputs, and the recursion, get the lattice.

Everywhere t = q^(-s), so q^(s+a) - 1 = (q^a - t)/t and a denominator
factor (q^a - t) of multiplicity mu is a pole of order mu at s = -a.
"""

from __future__ import annotations

from math import comb, factorial, prod

from .arrangement import (
    Arrangement,
    FlatLattice,
    _require_essential,
    build_lattice,
)
from .errors import InvariantError, _charge_running, partitions
from .exact_algebra import (
    BiRational,
    _b2_add_into,
    _b2_expand,
    _b2_mul,
    _clear,
)


class IgusaZeta:
    __slots__ = ("arrangement", "lattice", "value")

    def __init__(self, arrangement, lattice, value):
        self.arrangement = arrangement
        self.lattice = lattice
        self.value = value


def _check_pole_set(value: BiRational, lat):
    candidates = {lat.delta(i) for i in range(len(lat))}
    for a, _ in value.den:
        if a not in candidates:
            raise InvariantError(
                f"reduced denominator factor q^{a} - t outside the "
                "candidate pole set")


def _braid_order(arrangement: Arrangement) -> int:
    """k when the normals are those of ``graphic_arrangement`` on K_k up to
    order and sign: each is e_i - e_j or e_i in Q^(k-1), the last vertex's
    coordinate dropped, and each pair of the k vertices appears once.
    Otherwise 0."""
    m, n = arrangement.m, arrangement.n
    if not n or n != m * (m + 1) // 2:
        return 0
    pairs = set()
    for row in arrangement.normals:
        support = [(c, x) for c, x in enumerate(row) if x]
        if len(support) == 1 and abs(support[0][1]) == 1:
            pairs.add((support[0][0], m))
        elif (len(support) == 2 and abs(support[0][1]) == 1
              and support[0][1] == -support[1][1]):
            pairs.add((support[0][0], support[1][0]))
        else:
            return 0
    return m + 1 if len(pairs) == n else 0


def _groupings(blocks, parts, memo):
    """Ways to group labelled blocks of the sizes ``blocks`` so that the
    group sums are ``parts`` (both non-increasing): the first block's group
    takes some part v and labelled blocks summing to v minus its size."""
    if not blocks:                  # then parts is empty too
        return 1
    key = blocks, parts
    if key not in memo:
        first, rest = blocks[0], blocks[1:]
        total = 0
        for v in set(parts):
            if v >= first:
                left = list(parts)
                left.remove(v)
                for others, ways in _pick(rest, v - first):
                    total += ways * _groupings(others, tuple(left), memo)
        memo[key] = total
    return memo[key]


def _pick(blocks, target):
    """(left, ways): the labelled sub-multisets of ``blocks`` summing to
    target, by the blocks they leave, and how many there are of each."""
    if not target:
        yield blocks, 1
    elif blocks:
        size, count = blocks[0], blocks.count(blocks[0])
        for used in range(min(count, target // size) + 1):
            for left, ways in _pick(blocks[count:], target - used * size):
                yield ((size,) * (count - used) + left,
                       comb(count, used) * ways)


class TypeQuotient:
    """The lattice of flats of the braid arrangement K_k folded onto
    partition types.  A flat is a set partition of the k vertices and its
    interval up to the top depends only on its type, the partition lambda
    of its block sizes, so node lambda stands for weights[lambda] =
    k! / (prod lambda_i! prod_j m_j(lambda)!) flats, each of rank
    k - len(lambda) with |I| = sum C(lambda_i, 2) hyperplanes.
    ``edges[i]`` lists (J, N) for the coarser types J, N counting the
    groupings of one flat's blocks into a flat of type J.  Nodes ascend in
    rank, so their indices extend the order, as flat indices do.  The
    p(k)^2 pairs of types are charged to the budget as the types are
    listed, before any edge is counted."""

    __slots__ = ("arrangement", "types", "ranks", "weights", "edges", "top")

    def __init__(self, arrangement: Arrangement, k: int):
        types = []
        for lam in partitions(k):
            types.append(lam)
            _charge_running("partition types", len(types) ** 2)
        self.arrangement = arrangement
        self.types = sorted(types, key=len, reverse=True)
        self.ranks = [k - len(lam) for lam in self.types]
        self.weights = [factorial(k) // prod(
            factorial(x) for x in lam + tuple(map(lam.count, set(lam))))
            for lam in self.types]
        memo = {}
        self.edges = [[(j, n) for j, mu in enumerate(self.types)
                       if len(mu) < len(lam)
                       for n in [_groupings(lam, mu, memo)] if n]
                      for lam in self.types]
        self.top = len(self.types) - 1

    def __len__(self):
        return len(self.types)

    def delta(self, i) -> int:
        """delta_I = n - |I| + rank(I) of each flat of type i."""
        return (self.arrangement.n + self.ranks[i]
                - sum(x * (x - 1) // 2 for x in self.types[i]))

    def above(self, i):
        return self.edges[i]

    def weight(self, i) -> int:
        return self.weights[i]

    def mobius_top(self, i) -> int:
        blocks = len(self.types[i])     # [F, top] is their partition lattice
        return (-1) ** (blocks - 1) * factorial(blocks - 1)


def chain_poset(arrangement: Arrangement):
    """The poset the chain sums walk: the partition-type quotient of a
    braid arrangement, else the lattice of flats."""
    k = _braid_order(arrangement)
    return TypeQuotient(arrangement, k) if k else build_lattice(arrangement)


def _slot_width(lat) -> int:
    """Bits per coefficient slot of the packed chain sums: 2 more than the
    bit length of sum_I |W(I)|, which bounds every coefficient of the sums,
    from the l1 norms |S(I)| <= sum_{J > I} (2|W(J)| + |S(J)|), with
    |W(I)| = |S(I)| and W(top) = 1."""
    bound = {lat.top: 2}
    total = 0
    for i in reversed(range(lat.top)):
        norm = sum(n * bound[j] for j, n in lat.above(i))
        bound[i] = 3 * norm
        total += lat.weight(i) * norm
    return total.bit_length() + 2


def _chain_sums(lat):
    """The chain sum over the proper flats in formal pole variables, read
    off ``lat``, a lattice of flats or a ``TypeQuotient``.

    With v_a = t/(q^a - t) for each delta a of a proper flat, the chain
    recurrence W(I) = v_dI * sum_{J > I} W(J) chi_[I,J](q) becomes, after
    writing chi_[I,J] = sum_{I<=K<=J} mu(I,K) q^(rk J - rk K) and swapping
    the sums, W(I) = v_dI * S(I) with the recurrence of the module
    docstring, which reads no chi and no mu.  S(I) maps exponent tuples x
    over the sorted deltas to integer q-polynomials; W(I) is S(I) re-keyed
    (x_dI + 1) over the same polynomials.  Returns (deltas, sums) with
    sum_{I != top} W(I) q^(rk I - m) = sum_x sums[x](q) prod v_a^x_a, each
    sums[x] a dict {e: c} of its nonzero coefficients; at t = q^m,
    v_a = 1/(q^(a-m) - 1), which is how ``b_mu`` reads it.

    Each polynomial is packed into one int, its value at q = 2^width with
    signed coefficients (Kronecker substitution), so a pair (I, J) costs
    one shift-add-subtract per tuple of W(J) and one subtraction per tuple
    of S(J).  The running sums are kept times q^m, so every shift is by a
    rank, and are unpacked once at the end by balanced digits, which is
    exact as ``_slot_width`` bounds every coefficient.  An up-edge of
    multiplicity N adds N times its terms and a node of weight c adds c
    times its W to the sums.  The walk charges the W and S entries it
    merges as it goes, so a refusal is a lower bound on its cost: over the
    lattice K5 1,041 steps, K7 195,476, K8 3,277,355; over the types K7
    1,030, K8 4,591, K10 113,147."""
    m = lat.arrangement.m
    ranks = lat.ranks
    proper = range(lat.top)
    deltas = sorted({lat.delta(i) for i in proper})
    width = _slot_width(lat)
    S, W = {lat.top: {}}, {lat.top: {(0,) * len(deltas): 1}}
    packed = {}
    steps = 0
    for i in reversed(proper):      # node indices extend the order
        acc = S[i] = {}
        get = acc.get
        for j, n in lat.above(i):
            shift = (ranks[j] - ranks[i]) * width
            w, s = W[j], S[j]
            if n != 1:
                w = {x: n * p for x, p in w.items()}
                s = {x: n * p for x, p in s.items()}
            for x, p in w.items():
                acc[x] = get(x, 0) + (p << shift) - p
            for x, p in s.items():
                acc[x] = get(x, 0) - p
            steps += len(w) + len(s)
        _charge_running("chain walk", steps)
        k = deltas.index(lat.delta(i))
        w = W[i] = {x[:k] + (x[k] + 1,) + x[k + 1:]: p
                    for x, p in acc.items()}
        c = lat.weight(i)
        if c != 1:
            w = {x: c * p for x, p in w.items()}
        shift = ranks[i] * width
        for x, p in w.items():
            packed[x] = packed.get(x, 0) + (p << shift)
    half, mask = 1 << (width - 1), (1 << width) - 1
    sums = {}
    for x, v in packed.items():
        poly = sums[x] = {}
        e = -m
        while v:
            c = ((v + half) & mask) - half
            if c:
                poly[e] = c
            v = (v - c) >> width
            e += 1
    return deltas, sums


def igusa_chain(arrangement: Arrangement, lat) -> IgusaZeta:
    """Resummed chain formula via one pass over ``lat``, the lattice of
    flats or the ``chain_poset`` of the arrangement: the terms
    sums[x](q) t^|x| / prod (q^a - t)^x_a of ``_chain_sums`` are cleared
    by ``_clear`` to num / E, and the value is reduced once as
    (t (q^m - 1) E + q^m (t - 1) num) / (t (q^m - t) E), a reduction that
    charges its trial divisions as it makes them."""
    _require_essential(arrangement)
    m = arrangement.m
    deltas, sums = _chain_sums(lat)
    num, den = _clear(sums, deltas)
    total = _b2_mul(_b2_expand(den), {(m, 1): 1, (0, 1): -1})
    _b2_add_into(total, _b2_mul(num, {(m, 1): 1, (m, 0): -1}))
    value = BiRational(total, (0, 1), den + [(m, 1)])
    _check_pole_set(value, lat)
    return IgusaZeta(arrangement, lat, value)


def igusa_recursion(arrangement: Arrangement, lat: FlatLattice) -> IgusaZeta:
    """Localization recursion; an independent derivation of the same value.

    For the arrangement attached to a flat F (its hyperplanes in their own
    span) the auxiliary series satisfies J'(empty) = 0 and

      J'(F) = q^(-rk F) * sum_{J < F} q^(rk J - rk F) chi_[J,F](q)
               * t/(q^dJ - t) * (q^(rk J) J'(J)|_{s -> s + dJ - rk J} + 1),

    with dJ = |F| - |J| + rk J, and the zeta function is

      I = (q^m-1)/(q^m-t) + q^(2m) (t-1)/(t (q^m-t)) * J'(top).

    The lattice of F's localization is the order ideal [empty, F] of
    ``lat`` (``checks.lattice_invariants`` checks it), so the recursion
    reads nothing else.  Before each addition to a sum it charges the
    numerator terms of both summands to a running count.
    """
    _require_essential(arrangement)
    m = arrangement.m
    jprime = {}
    steps = 0
    for i in range(len(lat)):       # flat indices extend the order
        flat, rk_i = lat.flats[i], lat.ranks[i]
        acc = BiRational.zero()
        # the flats J < F; F is the largest index of its ideal
        for j in lat.indices(lat.down[i])[:-1]:
            rk_j = lat.ranks[j]
            d_j = len(flat) - len(lat.flats[j]) + rk_j
            chi = lat.char_poly_interval(j, i)
            inner = jprime[j].shift_s(d_j - rk_j).times_unit(rk_j, 0) + 1
            term = (BiRational.from_q_poly(chi)
                    * BiRational({(0, 1): 1}, den=[(d_j, 1)])
                    * inner).times_unit(rk_j - rk_i, 0)
            steps += len(acc.num) + len(term.num)
            _charge_running("localization recursion", steps)
            acc = acc + term
        jprime[i] = acc.times_unit(-rk_i, 0)
    value = (BiRational({(m, 0): 1, (0, 0): -1}, den=[(m, 1)])
             + BiRational({(2 * m, 1): 1, (2 * m, 0): -1}, (0, 1), [(m, 1)])
             * jprime[lat.top])
    _check_pole_set(value, lat)
    return IgusaZeta(arrangement, lat, value)


# ---------------------------------------------------------------------------
# pole structure
# ---------------------------------------------------------------------------

class LevelSet:
    """The chain data of one candidate pole -delta that the order criterion
    reads: the longest chain length inside its level set, and the sum of
    weight * mu(., top) over the tops of the longest chains."""

    __slots__ = ("length", "criterion")

    def __init__(self, length, criterion):
        self.length, self.criterion = length, criterion


def level_sets(lat) -> dict:
    """The ``LevelSet`` of each group of nodes of ``lat``, a lattice of
    flats or a ``TypeQuotient``, by eps = -delta, in one pass in index
    order, so all that lies below a node is known when it is reached.  No
    outside node may lie above one member and below another, and each
    member must lie above exactly one minimal flat of its group.

    On types this decides what it decides on flats, because S_k acts
    transitively on the flats of one type: a flat of type mu lies above a
    flat of type lambda exactly when every one does, N(lambda, mu) > 0.
    So comparability, minimality, chain length and lying between (pick b,
    then h < b, then a < h) are read off types, and one flat of type mu
    lies above N(lambda, mu) w(lambda) / w(mu) flats of type lambda."""
    deltas = [lat.delta(i) for i in range(len(lat))]
    below = [0] * len(lat)          # bit d: some node of delta d lies below
    depth = [0] * len(lat)
    cover = [0] * len(lat)          # N w(a) over the minimal members a below
    levels = {}
    for a, d in enumerate(deltas):
        minimal = not below[a] >> d & 1
        if not minimal and cover[a] != lat.weight(a):
            raise InvariantError("member contains more than one minimal flat")
        for j, n in lat.above(a):
            if deltas[j] == d:
                depth[j] = max(depth[j], depth[a] + 1)
                if minimal:
                    cover[j] += n * lat.weight(a)
            elif below[a] >> deltas[j] & 1:
                raise InvariantError("level set is not interval-closed")
            below[j] |= 1 << d
        lv = levels.setdefault(-d, LevelSet(0, 0))
        if depth[a] > lv.length:
            lv.length, lv.criterion = depth[a], 0
        if depth[a] == lv.length:
            lv.criterion += lat.weight(a) * lat.mobius_top(a)
    return levels


class PoleEntry:
    __slots__ = ("eps", "predicted_bound", "criterion", "actual_order",
                 "distinguished", "criterion_inconclusive")

    def __init__(self, eps, predicted_bound, criterion, actual_order,
                 distinguished, criterion_inconclusive):
        self.eps = eps
        self.predicted_bound = predicted_bound
        self.criterion = criterion
        self.actual_order = actual_order
        self.distinguished = distinguished
        self.criterion_inconclusive = criterion_inconclusive

    def to_json(self):
        return {
            "eps": self.eps,
            "predicted_order_bound": self.predicted_bound,
            "criterion": str(self.criterion),
            "actual_order": self.actual_order,
            "distinguished": sorted(self.distinguished),
            "criterion_inconclusive": self.criterion_inconclusive,
        }


class PoleReport:
    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = entries

    def entry(self, eps) -> PoleEntry:
        return next(e for e in self.entries if e.eps == eps)

    def to_json(self):
        return {"poles": [e.to_json() for e in self.entries]}


def pole_report(zeta: IgusaZeta, arrangement: Arrangement,
                lat) -> PoleReport:
    """Compare the reduced denominator against the lattice predictions.

    The criterion is sufficient only: a nonzero criterion forces the full
    order; a zero criterion decides nothing and is flagged inconclusive
    when the actual order falls short of the bound.
    """
    m = arrangement.m
    n = arrangement.n
    levels = level_sets(lat)
    orders = zeta.value.pole_orders()
    entries = []
    candidates = sorted(levels, reverse=True)
    second = max((e for e in candidates if e != -m), default=None)
    for eps in candidates:
        lv = levels[eps]
        bound = lv.length + 1
        actual = orders.get(-eps, 0)
        if actual > bound:
            raise InvariantError(
                f"pole order {actual} at {eps} exceeds bound {bound}")
        distinguished = set()
        if eps == -m:
            distinguished.add("-m")
        if eps == -n:
            distinguished.add("-n")
        if second is not None and eps == second:
            distinguished.add("second-largest")
        if eps != -m and lv.criterion != 0 and actual != bound:
            raise InvariantError(
                f"nonzero criterion at {eps} but order {actual} < {bound}")
        if distinguished and actual != bound:
            raise InvariantError(
                f"distinguished candidate {eps} has order {actual}, "
                f"expected {bound}")
        inconclusive = (eps != -m and lv.criterion == 0)
        entries.append(PoleEntry(eps, bound, lv.criterion, actual,
                                 distinguished, inconclusive))
    return PoleReport(entries)


def functional_equation_check(zeta: IgusaZeta) -> bool:
    """Degree-2 homogeneity: inverting both variables multiplies by t^2."""
    inverted = zeta.value.invert_vars()
    return inverted == zeta.value.times_unit(0, 2)
