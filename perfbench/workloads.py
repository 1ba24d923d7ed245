"""Seeded inputs and job lists for the three workloads.

A job is one ``amzeta.cli.main(argv)`` call (exactly what ``amz <cmd> FILE``
does) or, where no subcommand exists, one public function named in
``worker.CALLS``.  Every job carries a ``check`` that ``checks.py`` applies
to its output after the timed pass.  Exactly one job per workload is the
frontier job; the ladder is every other job.

Only this module decides what a workload contains.  It runs in the set-up
process, which imports ``amzeta`` to build the fixture arrangements; the
random arrangements are drawn from ``random.Random(seed)`` and filtered by
the rank and flat counts computed here, never by amzeta code, so the same
seed always yields the same input files.
"""

from __future__ import annotations

import json
import os
import random

from amzeta import reference
from amzeta.arrangement import Arrangement, graphic_arrangement
from amzeta.quiver_varieties import Quiver

WORKLOADS = ("lattice", "zeta", "quiver")


def complete_graph(k: int) -> Quiver:
    return Quiver(k, [(i, j) for i in range(1, k + 1)
                      for j in range(i + 1, k + 1)])


def k4_minus_edge() -> Quiver:
    return Quiver(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])


def theta_graph() -> Quiver:
    """Two vertices joined by three parallel edges."""
    return Quiver(2, [(1, 2), (1, 2), (2, 1)])


# ---------------------------------------------------------------------------
# seeded random arrangements
# ---------------------------------------------------------------------------

def _reduce(basis, row):
    """``row`` reduced by an integer echelon basis of (pivot, row) pairs;
    all zero exactly when ``row`` lies in the span of the basis."""
    row = list(row)
    for c, b in basis:
        if row[c]:
            row = [b[c] * x - row[c] * y for x, y in zip(row, b)]
    return row


def _extend(basis, row):
    row = _reduce(basis, row)
    c = next((i for i, a in enumerate(row) if a), None)
    return basis if c is None else basis + [(c, row)]


def rank(rows) -> int:
    """Rank over Q, computed here so that drawing inputs and checking
    outputs do not run the code under test."""
    basis = []
    for row in rows:
        basis = _extend(basis, row)
    return len(basis)


def flat_count(rows, limit=None) -> int:
    """Number of flats, the empty one and the whole set included: each flat
    is closed with one more hyperplane until no new flat appears.  Counting
    stops once it passes ``limit``."""
    n = len(rows)
    seen, layer = {frozenset()}, [frozenset()]
    while layer:
        nxt = []
        for flat in layer:
            basis = []
            for i in flat:
                basis = _extend(basis, rows[i])
            done = set(flat)
            for h in range(n):
                if h in done:
                    continue
                span = _extend(basis, rows[h])
                cover = flat | frozenset(
                    j for j in range(n) if j not in flat
                    and not any(_reduce(span, rows[j])))
                done |= cover
                if cover not in seen:
                    seen.add(cover)
                    nxt.append(cover)
            if limit is not None and len(seen) > limit:
                return len(seen)
        layer = nxt
    return len(seen)


def random_arrangement(rng, dim: int, n: int, bound: int, flats=None):
    """n nonzero normals in Z^dim with entries in [-bound, bound], drawn
    until the arrangement is essential and coloop-free.

    ``flats=(lo, hi)`` also requires the flat count to lie in that window.
    The zeta kernels' cost grows with the lattice, so the window keeps one
    seed's ladder comparable to another's.
    """
    while True:
        rows = []
        while len(rows) < n:
            row = tuple(rng.randint(-bound, bound) for _ in range(dim))
            if any(row):
                rows.append(row)
        if rank(rows) != dim:
            continue
        if any(rank(rows[:i] + rows[i + 1:]) != dim for i in range(n)):
            continue
        if flats is not None:
            if not flats[0] <= flat_count(rows, flats[1]) <= flats[1]:
                continue
        return rows


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------

class _Builder:
    def __init__(self, directory: str):
        self.directory = directory
        self.jobs = []

    def arr(self, name: str, arrangement) -> str:
        return self._write(name, arrangement.to_json())

    def quiver(self, name: str, quiver: Quiver) -> str:
        return self._write(name, quiver.to_json())

    def _write(self, name, payload) -> str:
        path = name + ".json"
        with open(os.path.join(self.directory, path), "w") as handle:
            json.dump(payload, handle, sort_keys=True)
        return path

    def cli(self, job_id, argv, check=None, frontier=False, seeded=False,
            runs=2):
        """``runs``: how many times a frontier job runs in each pass."""
        job = {"id": job_id, "argv": list(argv), "check": check,
               "frontier": frontier, "seeded": seeded}
        if frontier:
            job["runs"] = runs
        self.jobs.append(job)

    def call(self, job_id, fn, args, check=None, seeded=False):
        self.jobs.append({"id": job_id, "call": [fn] + list(args),
                          "check": check, "frontier": False,
                          "seeded": seeded})


def k7_minus_c5():
    """K7 without the edges of the 5-cycle 1-2-3-4-5: rank 6, 16 edges."""
    cycle = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    return Quiver(7, [e for e in complete_graph(7).edges if e not in cycle])


def _lattice(b: _Builder, rng):
    # hypertoric K7 takes about 10 s, too long to run several times a run;
    # K7 minus a 5-cycle keeps seven vertices and rank 6 at about 2.4 s
    b.arr("K7-C5", graphic_arrangement(k7_minus_c5()))
    b.cli("hypertoric K7-C5", ["hypertoric", "K7-C5.json"], frontier=True)
    # K4 and K5 are inputs of the certification routes of _certify
    for k in (4, 5, 6):
        b.arr(f"K{k}", graphic_arrangement(complete_graph(k)))
    inputs = ["K6"]
    for dim, n in ((4, 10), (5, 11)):
        name = f"rand-r{dim}n{n}"
        b.arr(name, Arrangement(random_arrangement(rng, dim, n, 2)))
        inputs.append(name)
    for name in inputs:
        seeded = name.startswith("rand")
        check = {"kind": "lattice_family", "input": name + ".json"}
        for cmd in ("lattice", "chi", "hypertoric"):
            b.cli(f"{cmd} {name}", [cmd, name + ".json"], check, seeded=seeded)


def _zeta(b: _Builder, rng):
    # igusa K7 takes about 35 s, too long to run several times a run
    b.arr("K6", graphic_arrangement(complete_graph(6)))
    b.cli("igusa K6", ["igusa", "K6.json"], frontier=True)
    for n in (1, 2, 3, 5):
        path = b.arr(f"origins{n}", reference.n_origins(n))
        if n != 3:
            b.cli(f"igusa origins{n}", ["igusa", path],
                  {"kind": "zeta", "ref": ["zeta_n_origins", n]})
    b.cli("bmu origins3", ["bmu", "origins3.json"],
          {"kind": "bmu", "ref": ["bmu_n_origins", 3]})
    fixtures = [
        ("triangle", reference.triangle(), ["zeta_triangle"],
         ["bmu_triangle"], ["EULERIAN", 3],
         ("igusa", "poles", "bmu", "bprime", "b_mu_via_residue")),
        ("six", reference.six_normals_rank3(), ["zeta_six_normals"],
         ["bmu_six_normals"], ["SIX_NORMALS_BPRIME"],
         ("igusa", "bmu", "bprime")),
        ("K4", graphic_arrangement(complete_graph(4)), None, None, None,
         ("igusa", "bmu", "bprime")),
        ("K5", graphic_arrangement(complete_graph(5)), None, None, None,
         ("igusa", "poles")),
    ]
    for name, arrangement, zref, bref, pref, cmds in fixtures:
        path = b.arr(name, arrangement)
        checks = {"igusa": {"kind": "zeta", "ref": zref},
                  "poles": {"kind": "poles"},
                  "bmu": {"kind": "bmu", "ref": bref},
                  "bprime": {"kind": "bprime", "ref": pref}}
        for cmd in cmds:
            if cmd == "b_mu_via_residue":
                b.call(f"{cmd} {name}", cmd, [path],
                       {"kind": "bmu", "same_as": f"bmu {name}"})
            else:
                b.cli(f"{cmd} {name}", [cmd, path], checks[cmd])
    path = b.arr("cycle5", graphic_arrangement(reference.cycle_quiver(5)))
    b.cli("bprime cycle5", ["bprime", path],
          {"kind": "bprime", "ref": ["EULERIAN", 5]})
    draws = [("rand-r3n13", 3, 13, 2, (47, 53), ("igusa", "bprime")),
             ("rand-r4n10", 4, 10, 1, (72, 78), ("igusa",))]
    for name, dim, n, bound, window, cmds in draws:
        path = b.arr(name, Arrangement(
            random_arrangement(rng, dim, n, bound, window)))
        for cmd in cmds:
            b.cli(f"{cmd} {name}", [cmd, path],
                  {"kind": {"igusa": "zeta"}.get(cmd, cmd)}, seeded=True)


def _quiver(b: _Builder, rng):
    # quiver-limit C9 takes about 10 s, too long to run several times a run;
    # C8 (about 3 s) runs once a pass, so that a run holds four passes or more
    b.quiver("C8", reference.cycle_quiver(8))
    b.cli("quiver-limit C8", ["quiver-limit", "C8.json"],
          {"kind": "cycle_limit", "k": 8}, frontier=True, runs=1)
    graphs = [(f"C{k}", reference.cycle_quiver(k)) for k in (5, 6)]
    graphs += [("K4q", complete_graph(4)), ("K4-e", k4_minus_edge()),
               ("theta", theta_graph())]
    for name, quiver in graphs:
        path = b.quiver(name, quiver)
        cycle = int(name[1:]) if name.startswith("C") else None
        if name in ("C5", "C6", "K4-e", "theta"):
            b.cli(f"quiver-limit {name}", ["quiver-limit", path],
                  {"kind": "cycle_limit", "k": cycle} if cycle else None)
        if name in ("C5", "K4q"):
            b.cli(f"check-lastone {name}", ["check-lastone", path],
                  {"kind": "bridge", "k": cycle} if cycle
                  else {"kind": "bridge"})
        if name == "K4q":
            b.cli(f"quiver-indec {name}",
                  ["quiver-indec", path, "--alpha", "2"])
    b.quiver("jordan", reference.jordan_quiver())
    b.quiver("A3", Quiver(3, [(1, 2), (2, 3)]))
    b.cli("nakajima jordan d8",
          ["nakajima", "jordan.json", "--w", "1", "--depth", "8"],
          {"kind": "jordan", "depth": 8})
    b.cli("nakajima A3 d4", ["nakajima", "A3.json", "--w", "1,0,0",
                             "--depth", "4"])
    # rank-2 orders follow the closed family of reference.odr_rank2_expected
    for d in (2, 3, 4):
        k = rng.randint(2 * d, 2 * d + 3)
        orders = [k - 2 * (d - 1)] + [2] * (d - 1)
        b.cli(f"odr n2 d{d}", ["odr", "--n", "2", "--orders",
                               ",".join(map(str, orders))],
              {"kind": "odr2", "d": d, "k": k}, seeded=True)
    for n in (3, 10):
        orders = [rng.randint(2, 3) for _ in range(rng.randint(1, 3))]
        b.cli(f"odr n{n}", ["odr", "--n", str(n), "--orders",
                            ",".join(map(str, orders))], seeded=True)


def _certify(b: _Builder, seed: int):
    """The independent routes a maintainer runs to certify results: the
    congruence oracle, the localization recursion, fiber and complement
    counts, grouped brute force and the verify suites.  Their many tiny
    lattices are the opposite shape from the frontier's one large one."""
    fixtures = [("origins3", reference.n_origins(3)),
                ("triangle", reference.triangle()),
                ("six", reference.six_normals_rank3())]
    for name, arrangement in fixtures:
        b.arr(name, arrangement)
    for name, zref in (("K5", None), ("triangle", ["zeta_triangle"])):
        b.cli(f"igusa --method recursion {name}",
              ["igusa", "--method", "recursion", name + ".json"],
              {"kind": "zeta", "ref": zref})
    refs = {"origins3": (["zeta_n_origins", 3], ["bmu_n_origins", 3]),
            "triangle": (["zeta_triangle"], ["bmu_triangle"]),
            "six": (["zeta_six_normals"], ["bmu_six_normals"]),
            "K4": (None, None)}
    # ROADMAP (p, alpha) pairs; n = 6 normals (six, K4): every ROADMAP pair
    # is refused by the budget, so depth 1 and p = 3 carry these fixtures
    pairs = {"origins3": ((5, 3),), "triangle": ((5, 2), (5, 3)),
             "six": ((5, 1),), "K4": ((3, 2),)}
    for name, (zref, bref) in refs.items():
        for p, alpha in pairs[name]:
            b.cli(f"oracle {name} p{p} a{alpha}",
                  ["oracle", name + ".json", "--p", str(p),
                   "--alpha", str(alpha)],
                  {"kind": "oracle", "alpha": alpha, "zeta": zref,
                   "bmu": bref})
    b.call("count_moment_fiber triangle p5", "count_moment_fiber",
           ["triangle.json", 5], {"kind": "fiber", "p": 5})
    b.call("count_complement_Fq K4 p7", "count_complement_Fq",
           ["K4.json", 7], {"kind": "complement", "p": 7})
    path = b.quiver("theta", theta_graph())
    b.cli("quiver-indec --p theta",
          ["quiver-indec", path, "--alpha", "4", "--p", "3"])
    b.cli("verify paper", ["verify", "--suite", "paper"], {"kind": "verify"})
    b.cli("verify oracle p7 a2",
          ["verify", "--suite", "oracle", "--p", "7", "--alpha", "2"],
          {"kind": "verify"})
    b.cli("verify properties", ["verify", "--suite", "properties",
                                "--seed", str(seed)],
          {"kind": "verify"}, seeded=True)


def build(workload: str, seed: int, directory: str):
    """Write the workload's input files into ``directory`` and return its
    job list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    b = _Builder(directory)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "lattice":
        _lattice(b, rng)
        _certify(b, seed)
    elif workload == "zeta":
        _zeta(b, rng)
    else:
        _quiver(b, rng)
    frontier = [job for job in b.jobs if job["frontier"]]
    if len(frontier) != 1:
        raise AssertionError("a workload has exactly one frontier job")
    ids = [job["id"] for job in b.jobs]
    if len(set(ids)) != len(ids):
        raise AssertionError("job ids must be unique")
    return b.jobs
