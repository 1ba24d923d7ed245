"""Output checks, applied to a finished pass outside its timed region.

Every job is compared with the exit code and stdout sha256 recorded in
``expected.json`` for its exact input (``job_key``).  Seeded inputs are
recorded for the seeds listed there; on another seed a seeded job has no
record and is judged by the checks below alone.  Beyond the record, a job
may name a ``check``:

* closed forms from ``amzeta.reference`` (origin family, triangle and
  six-normal zeta functions, B_mu, Eulerian numerators, the rank-2 open de
  Rham family, the Jordan product expansion), and Eulerian polynomials
  computed here for the cycle limits;
* independent recomputation here: flats re-verified by exact rank and the
  covering property, Mobius values, chi and the hypertoric class recounted
  from them; B_mu recovered numerically from the residue of the zeta
  output;
* a second route inside amzeta: a zeta function without a closed form
  against the route the job did not take (chain sum or localization
  recursion), B' rebuilt from the residue of that zeta function,
  congruence counts and limits of ``oracle`` against the t-expansion and
  B_mu of the closed form or of the second route, and fiber and complement
  counts against the class and chi.

Every check applies to seeded and fixed inputs alike, so a seeded job on a
seed without a record is still judged against an independent value.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

from workloads import rank

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "expected.json")) as _handle:
    EXPECTED = json.load(_handle)
with open(os.path.join(HERE, "provenance.json")) as _handle:
    _provenance = json.load(_handle)
# known defects: a job whose output differs from the record still passes
# when it exits 0 and shows the fields of a fixed output
KNOWN_DEFECTS = dict(_provenance["known_failures"],
                     **_provenance["known_defects_not_failures"])


def job_key(job: dict, directory: str) -> str:
    """Job id plus a digest of its command and input files."""
    spec = job.get("argv") or job["call"]
    digest = hashlib.sha256(json.dumps(spec).encode())
    for token in spec:
        if isinstance(token, str) and token.endswith(".json"):
            with open(os.path.join(directory, token), "rb") as handle:
                digest.update(handle.read())
    return f"{job['id']} {digest.hexdigest()[:16]}"


# ---------------------------------------------------------------------------
# polynomials as {exponent: int}
# ---------------------------------------------------------------------------

def _poly(obj) -> dict:
    coeffs = obj["coeffs"] if "coeffs" in obj else obj
    return {int(e): int(c) for e, c in coeffs.items() if int(c)}


def _mul(a: dict, b: dict) -> dict:
    out = {}
    for e, c in a.items():
        for f, d in b.items():
            out[e + f] = out.get(e + f, 0) + c * d
    return {e: c for e, c in out.items() if c}


def _pow(a: dict, k: int) -> dict:
    out = {0: 1}
    for _ in range(k):
        out = _mul(out, a)
    return out


def _eval(a: dict, x) -> Fraction:
    return sum((Fraction(x) ** e * c for e, c in a.items()), Fraction(0))


def _div_by_x_minus_1(a: dict):
    """Exact quotient by (x - 1), or None."""
    if not a:
        return {}
    lo, hi = min(a), max(a)
    out, carry = {}, 0
    for e in range(hi, lo - 1, -1):
        carry += a.get(e, 0)
        if e > lo:
            out[e - 1] = carry
    if carry:
        return None
    return {e: c for e, c in out.items() if c}


def eulerian(n: int) -> dict:
    """Eulerian polynomial sum_k A(n, k) q^k by the standard recurrence."""
    row = [1]
    for size in range(2, n + 1):
        row = [(k + 1) * (row[k] if k < len(row) else 0)
               + (size - k) * (row[k - 1] if k >= 1 else 0)
               for k in range(size)]
    return {k: c for k, c in enumerate(row) if c}


# ---------------------------------------------------------------------------
# individual checks; each returns an error string or None
# ---------------------------------------------------------------------------

def _reference(ref):
    """``[name, *args]``: a reference function called with args, a table
    indexed by its one arg, or a constant."""
    from amzeta import reference
    value = getattr(reference, ref[0])
    if callable(value):
        return value(*ref[1:])
    return value[ref[1]] if len(ref) > 1 else value


def _as_json(value):
    return json.loads(json.dumps(value.to_json()))


def lattice_family(rows, lat, chi, hyp) -> str | None:
    n, m = len(rows), len(rows[0])
    flats = [frozenset(i - 1 for i in f) for f in lat["flats"]]
    ranks = lat["ranks"]
    if len(set(flats)) != len(flats) or frozenset() not in flats:
        return "flat list has repeats or lacks the empty flat"
    by_rank = {}
    for flat, r in zip(flats, ranks):
        sub = [rows[i] for i in sorted(flat)]
        if rank(sub) != r:
            return f"flat {sorted(flat)} has rank {rank(sub)}, listed {r}"
        if any(rank(sub + [rows[j]]) == r for j in range(n)
               if j not in flat):
            return f"flat {sorted(flat)} is not closed"
        by_rank.setdefault(r, []).append(flat)
    everything = frozenset(range(n))
    for flat, r in zip(flats, ranks):
        # each hyperplane outside a flat lies in exactly one cover of it,
        # so a missing flat leaves some hyperplane uncovered
        covered = set()
        for cover in by_rank.get(r + 1, ()):
            if flat < cover:
                covered |= cover - flat
        if flat != everything and covered != everything - flat:
            return f"covers of {sorted(flat)} miss hyperplanes"
    if lat["deltas"] != [n - len(f) + r for f, r in zip(flats, ranks)]:
        return "deltas differ from n - |F| + rank F"
    order = sorted(range(len(flats)), key=lambda i: len(flats[i]))
    mu_top, mu_bottom = {}, {}
    for i in reversed(order):
        mu_top[i] = 1 if flats[i] == everything else -sum(
            mu_top[j] for j in mu_top if flats[i] < flats[j])
    for i in order:
        mu_bottom[i] = 1 if not flats[i] else -sum(
            mu_bottom[j] for j in mu_bottom if flats[j] < flats[i])
    if [int(x) for x in lat["mobius_to_top"]] != [
            mu_top[i] for i in range(len(flats))]:
        return "mobius_to_top differs from the recount"
    expect_chi = {}
    for i, r in enumerate(ranks):
        expect_chi[m - r] = expect_chi.get(m - r, 0) + mu_bottom[i]
    if _poly(chi) != {e: c for e, c in expect_chi.items() if c}:
        return "chi differs from the Mobius recount"
    acc = {}
    for i, flat in enumerate(flats):
        acc[len(flat)] = acc.get(len(flat), 0) + mu_top[i]
    acc = {e: c for e, c in acc.items() if c}
    for _ in range(m):
        acc = _div_by_x_minus_1(acc)
        if acc is None:
            return "(L-1)^m does not divide the recounted flat sum"
    expect_class = {e + n - m: c for e, c in acc.items()}
    if _poly(hyp["class"]) != expect_class:
        return "hypertoric class differs from the recount"
    return None


def residue_matches(zeta, bmu, m, q=7) -> str | None:
    """B_mu = q^m/(q^m - 1) * [(q^m - t)/t * I](t = q^m), evaluated at q."""
    den = {a: mu for a, mu in zeta["den"]}
    if den.get(m) != 1:
        return None
    q = Fraction(q)
    t = q ** m
    num = sum((q ** eq * t ** et * int(c) for eq, et, c in zeta["num"]),
              Fraction(0))
    value = num / (q ** zeta["unit"][0] * t ** (zeta["unit"][1] + 1))
    for a, mu in den.items():
        if a != m:
            value /= (q ** a - t) ** mu
    value *= q ** m / (q ** m - 1)
    got = _eval(_poly(bmu["num"]), q) / _eval(_poly(bmu["den"]), q)
    return None if got == value else "B_mu differs from the zeta residue"


_SECOND_ROUTE = {}


def second_route(job, path, directory):
    """Zeta function of an input file by the route ``job`` did not take:
    the chain sum for a recursion job, the localization recursion
    otherwise; kept per file content for the passes of a run."""
    from amzeta.arrangement import Arrangement, build_lattice
    from amzeta.igusa import igusa_chain, igusa_recursion
    chain = "recursion" in job.get("argv", ())
    with open(os.path.join(directory, path)) as handle:
        text = handle.read()
    if (text, chain) not in _SECOND_ROUTE:
        arr = Arrangement.from_json(json.loads(text))
        compute = igusa_chain if chain else igusa_recursion
        _SECOND_ROUTE[text, chain] = compute(arr, build_lattice(arr))
    return _SECOND_ROUTE[text, chain]


def _normals(directory, path):
    with open(os.path.join(directory, path)) as handle:
        return [tuple(r) for r in json.load(handle)["normals"]]


def oracle_matches(out, spec, job, directory) -> str | None:
    """Depth-alpha counts against the t-expansion of the zeta function and
    the printed limit against B_mu at p."""
    from amzeta.igusa import IgusaZeta
    from amzeta.padic_oracle import series_counts_from_zeta
    from amzeta.residues import b_mu_via_residue
    path = job["argv"][1]
    rows = _normals(directory, path)
    n, m = len(rows), len(rows[0])
    p, counts = out["p"], out["counts"]
    if [c["alpha"] for c in counts] != list(range(1, spec["alpha"] + 1)):
        return "oracle depths differ from --alpha"
    if spec["zeta"]:
        zeta = IgusaZeta(None, None, _reference(spec["zeta"]))
    else:
        zeta = second_route(job, path, directory)
    got = [Fraction(int(c["count"]), p ** (2 * n * c["alpha"]))
           for c in counts]
    if got != series_counts_from_zeta(zeta, p, spec["alpha"]):
        return "congruence counts differ from the zeta function's series"
    normalized = [Fraction(int(c["count"]), p ** (c["alpha"] * (2 * n - m)))
                  for c in counts]
    if [Fraction(c["normalized"]) for c in counts] != normalized:
        return "normalized counts differ from count / p^(alpha (2n - m))"
    coloop_free = all(rank(rows[:i] + rows[i + 1:]) == m for i in range(n))
    if out["converges"] is not coloop_free:
        return "converges differs from coloop-freeness"
    if coloop_free:
        limit = (_reference(spec["bmu"]) if spec["bmu"]
                 else b_mu_via_residue(zeta, m)).evaluate(p)
        if Fraction(out["limit"]) != limit:
            return "limit differs from B_mu at p"
        if [Fraction(d) for d in out["distances"]] != [
                abs(v - limit) for v in normalized]:
            return "distances differ from |normalized - limit|"
    return None


def bprime_matches(job, poly, directory) -> str | None:
    """B' = q^m B_mu prod_eps [a]_q^(length + 1) over the level sets
    eps != -m with a = -eps - m, where B_mu is the residue of the
    second-route zeta function rather than the chain sum B' is built on."""
    from amzeta.exact_algebra import LaurentPoly, RationalUni
    from amzeta.igusa import level_sets
    from amzeta.residues import b_mu_via_residue
    path = job["argv"][-1]
    m = len(_normals(directory, path)[0])
    zeta = second_route(job, path, directory)
    value = b_mu_via_residue(zeta, m) * RationalUni.from_laurent(
        LaurentPoly.monomial("q", m))
    qm1 = RationalUni.from_laurent(LaurentPoly("q", {1: 1, 0: -1}))
    for eps, level in level_sets(zeta.lattice).items():
        if eps != -m:
            factor = RationalUni.from_laurent(
                LaurentPoly("q", {-eps - m: 1, 0: -1})) / qm1
            value = value * factor ** (level.length + 1)
    expect = {e: c for e, c in value.as_laurent().items()}
    return None if poly == expect else \
        "B' differs from q^m B_mu (residue) times its q-integer factors"


def _check(job, out, outputs, directory) -> str | None:
    spec = job.get("check")
    if not spec:
        return None
    kind = spec["kind"]
    if kind == "lattice_family":
        if not job["id"].startswith("lattice "):
            return None
        name = job["id"].split(" ", 1)[1]
        rows = _normals(directory, spec["input"])
        return lattice_family(rows, out, outputs[f"chi {name}"],
                              outputs[f"hypertoric {name}"])
    if kind == "zeta":
        if spec.get("ref"):
            return None if out == _as_json(_reference(spec["ref"])) else \
                f"zeta differs from reference.{spec['ref'][0]}"
        from amzeta.exact_algebra import BiRational
        other = second_route(job, job["argv"][-1], directory)
        return None if BiRational.from_json(out).cross_equal(other.value) \
            else "zeta differs from the other route's value"
    if kind == "poles":
        return None if out.get("functional_equation") is True else \
            "functional equation fails"
    if kind == "bmu":
        if spec.get("ref") and out != _as_json(_reference(spec["ref"])):
            return f"B_mu differs from reference.{spec['ref'][0]}"
        if spec.get("same_as") and out != outputs.get(spec["same_as"]):
            return f"differs from {spec['same_as']}"
        name = job["id"].split(" ", 1)[1]
        zeta = outputs.get(f"igusa {name}")
        if not spec.get("ref") and not spec.get("same_as") and zeta:
            m = len(_normals(directory, name + ".json")[0])
            return residue_matches(zeta, out, m)
        return None
    if kind == "bprime":
        poly = _poly(out["poly"])
        deg = max(poly)
        if out["palindromic"] is not True or any(
                poly.get(e, 0) != poly.get(deg - e, 0) for e in poly):
            return "B' is not palindromic"
        if spec.get("ref"):
            return None if poly == _poly(_as_json(_reference(spec["ref"]))) \
                else f"B' differs from reference.{spec['ref'][0]}"
        return bprime_matches(job, poly, directory)
    if kind == "cycle_limit":
        k = spec["k"]
        lhs = _mul(_poly(out["num"]), _pow({1: 1, 0: -1}, k - 1))
        if lhs != _mul(eulerian(k), _poly(out["den"])):
            return f"limit differs from Eulerian({k})/(q-1)^{k - 1}"
        return None
    if kind == "bridge":
        rhs = _poly(out["rhs"])
        equal = _poly(out["lhs"]["num"]) == _mul(rhs, _poly(out["lhs"]["den"]))
        if out["equal"] is not equal or out["status"] != (
                "observed" if equal else "violated"):
            return "bridge status disagrees with its two sides"
        if "k" in spec:
            if rhs != eulerian(spec["k"]):
                return "B' of the cycle differs from its Eulerian polynomial"
            if not equal:
                return "bridge reported violated on a cycle"
        return None
    if kind == "jordan":
        from amzeta import reference
        series = reference.hilbert_series_coefficients(spec["depth"])
        for n, coeff in enumerate(series):
            expect = {e + n: c for e, c in _poly(_as_json(coeff)).items()}
            if _poly(out["classes"].get(str(n), {"coeffs": {}})) != expect:
                return f"Jordan class at {n} differs from L^n * product"
        return None
    if kind == "odr2":
        from amzeta import reference
        expect = reference.odr_rank2_expected(spec["d"], spec["k"])
        return None if out["class"] == _as_json(expect) else \
            "differs from reference.odr_rank2_expected"
    if kind == "oracle":
        return oracle_matches(out, spec, job, directory)
    if kind == "verify":
        return None if out["failed"] == 0 else f"{out['failed']} checks fail"
    if kind in ("fiber", "complement"):
        from amzeta.arrangement import Arrangement, build_lattice
        from amzeta.hypertoric import hypertoric_class
        path = job["call"][1]
        with open(os.path.join(directory, path)) as handle:
            arr = Arrangement.from_json(json.load(handle))
        lat = build_lattice(arr)
        p = spec["p"]
        if kind == "fiber":
            expect = (p - 1) ** arr.m * hypertoric_class(
                arr, lat).value.evaluate(p)
        else:
            expect = lat.char_poly().evaluate(p)
        return None if int(out["count"]) == expect else \
            f"count differs from the {kind} formula"
    raise KeyError(f"unknown check kind {kind!r}")


def judge(jobs, results, directory):
    """Set ``failed``, ``incorrect`` and ``why`` on every result of a pass."""
    from amzeta.errors import AmzError
    outputs = {}
    for job, res in zip(jobs, results):
        if res.get("rc") == 0 and res.get("stdout"):
            try:
                outputs[job["id"]] = json.loads(res["stdout"])
            except ValueError:
                pass
    for job, res in zip(jobs, results):
        why = []
        incorrect = False
        if res.get("skipped"):
            why.append("not started before the run deadline")
        elif res.get("timeout"):
            why.append("ran past the per-job cap")
        elif res.get("error"):
            why.append("raised: " + res["error"].strip().splitlines()[-1])
            incorrect = True
        else:
            if res["rc"] != 0:
                why.append(f"exit {res['rc']}: "
                           + res["stderr_tail"].strip()[-160:])
            expected = EXPECTED.get(job_key(job, directory))
            known = KNOWN_DEFECTS.get(job["id"])
            matches = expected is not None and expected == {
                "rc": res["rc"], "sha256": res["sha256"]}
            if expected is None and not job["seeded"]:
                why.append("no recorded output for a fixed input")
                incorrect = True
            elif expected is not None and not matches:
                out = outputs.get(job["id"], {})
                fixed = known is not None and res["rc"] == 0 and all(
                    out.get(k) == v for k, v in known["fixed_when"].items())
                if not fixed:
                    why.append("output differs from the recorded output")
                    incorrect = True
            if res["rc"] == 0 and job["id"] in outputs:
                try:
                    err = _check(job, outputs[job["id"]], outputs, directory)
                except (KeyError, TypeError, ValueError, ArithmeticError,
                        AmzError) as exc:
                    err = f"check could not read the output: {exc!r}"
                if err:
                    why.append(err)
                    incorrect = True
            elif res["rc"] == 0:
                why.append("stdout is not JSON")
                incorrect = True
        res["failed"] = bool(why)
        res["incorrect"] = incorrect
        res["why"] = "; ".join(why)
