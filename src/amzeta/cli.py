"""Command-line front end.

One subcommand per computation; JSON on stdout (deterministic: sorted
keys, coefficients as decimal strings), human-oriented notes on stderr.
Every stage charges its steps to the one --budget, 10^9 by default.
Exit codes: 0 ok, 1 parse error, 2 precondition violation, 3 budget
exceeded, 4 internal invariant violation / failed verification.

Only ``errors`` and ``arrangement`` are imported at module level; each
handler imports its own layer when called, as every call is a fresh
process that compiles what it imports: ``amz igusa`` loads no quiver or
oracle layer, and only ``verify`` loads the whole package.  ``main`` sets
``errors.BUDGET`` from --budget for the length of one call and restores it
however the call ends, so in-process callers see their own value after.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import errors
from .arrangement import (Arrangement, _charge_unimodular, build_lattice,
                          max_abs_minor, structural_flags, unimodular)
from .errors import (
    DEFAULT_BUDGET,
    PRIME_TEST_BOUND,
    AmzError,
    BudgetExceededError,
    InvariantError,
    ParseError,
    is_prime,
    parse_int,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _prime(text):
    """argparse type of every --p: the oracles count over F_p."""
    p = int(text)
    try:
        if is_prime(p):
            return p
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text} is not below {PRIME_TEST_BOUND}, the bound of the "
            "deterministic primality test") from None
    raise argparse.ArgumentTypeError(f"{text} is not prime")


def _load_json(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _arrangement(args) -> Arrangement:
    return Arrangement.from_json(_load_json(args.input))


def _lattice(args):
    """The arrangement of ``args.input`` and its lattice of flats."""
    arr = _arrangement(args)
    return arr, build_lattice(arr)


def _poset(args):
    """The arrangement of ``args.input`` and the poset its chain sums walk."""
    from .igusa import chain_poset
    arr = _arrangement(args)
    return arr, chain_poset(arr)


def _quiver(args):
    from .quiver_varieties import Quiver
    return Quiver.from_json(_load_json(args.input))


def _emit(payload):
    print(json.dumps(payload, sort_keys=True, indent=2))


def _show(value, fmt, payload=None):
    """Print an exact value in the --format asked for; JSON is ``payload``
    when one is given, else the value's own."""
    if fmt == "plain":
        print(value.to_str())
    elif fmt == "latex":
        print(value.to_latex())
    else:
        _emit(value.to_json() if payload is None else payload)


def _flat_json(flat):
    return sorted(i + 1 for i in flat)


def _parse_flat(text, n):
    if text in ("empty", ""):
        return frozenset()
    if text == "all":
        return frozenset(range(n))
    try:
        indices = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad flat spec {text!r}") from exc
    if any(not 1 <= i <= n for i in indices):
        raise ParseError(f"flat indices out of range in {text!r}")
    return frozenset(i - 1 for i in indices)


def _int_list(text, option):
    return [parse_int(x, option) for x in text.split(",")]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_lattice(args):
    arr, lat = _lattice(args)
    # both minor scans are charged before either runs
    _charge_unimodular(arr)
    flags = {**structural_flags(arr),
             "max_abs_minor": max_abs_minor(arr),
             "unimodular": unimodular(arr)}
    _emit({
        "flats": [_flat_json(f) for f in lat.flats],
        "ranks": list(lat.ranks),
        "deltas": [lat.delta(i) for i in range(len(lat.flats))],
        "mobius_to_top": [str(lat.mobius(i, lat.top))
                          for i in range(len(lat.flats))],
        "flags": flags,
    })


def cmd_chi(args):
    _show(_lattice(args)[1].char_poly(), args.format)


def cmd_mobius(args):
    arr, lat = _lattice(args)
    lower = _parse_flat(args.lower, arr.n)
    upper = _parse_flat(args.upper, arr.n)
    _emit({"lower": _flat_json(lower), "upper": _flat_json(upper),
           "mobius": str(lat.mobius(lat.flat_index(lower),
                                    lat.flat_index(upper)))})


def cmd_hypertoric(args):
    from .hypertoric import e_polynomial, hypertoric_class
    cls = hypertoric_class(*_lattice(args))
    payload = {"class": cls.value.to_json(), "formal": cls.formal,
               "unimodular": cls.unimodular}
    if cls.value.is_polynomial():
        payload["e_polynomial"] = e_polynomial(cls).to_json()
    _emit(payload)


def cmd_nakajima(args):
    from .quiver_varieties import nakajima_gf
    gf = nakajima_gf(_quiver(args), _int_list(args.w, "--w"), args.depth)
    _emit({"classes": {",".join(map(str, v)): cls.to_json()
                       for v, cls in gf.classes.items()}})


def cmd_odr(args):
    from .open_derham import OdrInput, odr_class
    cls = odr_class(OdrInput(args.n, _int_list(args.orders, "--orders")))
    _emit({"class": cls.value.to_json(),
           "dimension": cls.input.dimension(),
           "positive_coeffs_observed": cls.positive_coeffs})


def cmd_igusa(args):
    from .igusa import igusa_chain, igusa_recursion
    zeta = (igusa_recursion(*_lattice(args)) if args.method == "recursion"
            else igusa_chain(*_poset(args)))
    _show(zeta.value, args.format)


def cmd_poles(args):
    from .igusa import functional_equation_check, igusa_chain, pole_report
    arr, poset = _poset(args)
    zeta = igusa_chain(arr, poset)
    payload = pole_report(zeta, arr, poset).to_json()
    payload["functional_equation"] = functional_equation_check(zeta)
    _emit(payload)


def cmd_bmu(args):
    from .residues import b_mu
    _show(b_mu(*_poset(args)), args.format)


def cmd_bprime(args):
    from .residues import b_prime
    data = b_prime(*_poset(args))
    _show(data.b_prime, args.format, data.to_json())


def cmd_quiver_indec(args):
    from .quiver_reps import a_gamma_alpha, brute_force_indec
    quiver = _quiver(args)
    poly = a_gamma_alpha(quiver, args.alpha)
    payload = {"poly": poly.to_json(), "alpha": args.alpha}
    if args.p is not None:
        count = brute_force_indec(quiver, args.p, args.alpha)
        payload["brute_force"] = {"p": args.p, "count": str(count)}
        if count != poly.evaluate(args.p):
            raise InvariantError("brute force disagrees with the polynomial")
    _emit(payload)


def cmd_quiver_limit(args):
    from .quiver_reps import a_gamma_limit
    _show(a_gamma_limit(_quiver(args)), args.format)


def cmd_check_lastone(args):
    from .quiver_reps import check_lastone
    report = check_lastone(_quiver(args))
    _emit({
        "equal": report.equal,
        "lhs": report.lhs.to_json(),
        "rhs": report.rhs.to_json(),
        "status": "observed" if report.equal else "violated",
    })


def cmd_oracle(args):
    from .igusa import chain_poset
    from .padic_oracle import depth_counts, limit_probe
    arr = _arrangement(args)
    # the depth and the prime are checked before the poset is built
    counts = depth_counts(arr, args.p, args.alpha)
    probe = limit_probe(arr, chain_poset(arr), counts)
    payload = {
        "p": args.p,
        "counts": [{"alpha": c.alpha, "count": str(c.count),
                    "normalized": str(c.normalized)} for c in counts],
        "converges": probe.converges,
    }
    if probe.converges:
        payload["limit"] = str(probe.limit)
        payload["distances"] = [str(d) for d in probe.distances]
    _emit(payload)


def cmd_verify(args):
    from .checks import DEFAULT_SEED, SUITES
    if args.suite not in SUITES:
        raise ParseError(f"--suite: {args.suite!r} is not in {list(SUITES)}")
    args.seed = DEFAULT_SEED if args.seed is None else args.seed
    checks, conjectures = SUITES[args.suite](args)
    lines, conjecture_lines = [], []
    failed = refused = 0

    def record(out, kind, name, start, status, **fields):
        # stdout's entry, and on stderr a status line with the CPU time
        out.append({kind: name, "status": status, **fields})
        ms = (time.process_time() - start) * 1000
        note = (f": {fields['detail']}" if "detail" in fields
                else f" ({fields['cases']} cases)" if "cases" in fields
                else "")
        print(f"{status:9} {ms:8.1f} ms  {name}{note}", file=sys.stderr)

    for name, fn in checks:
        start = time.process_time()
        try:
            fn()
            record(lines, "check", name, start, "ok")
        except BudgetExceededError as exc:
            refused += 1
            record(lines, "check", name, start, "REFUSED", detail=str(exc))
        except AmzError as exc:
            failed += 1
            record(lines, "check", name, start, "FAIL", detail=str(exc))
    for name, fn in conjectures:
        start = time.process_time()
        try:
            seen, violated = fn()
        except BudgetExceededError as exc:
            refused += 1
            record(conjecture_lines, "conjecture", name, start, "REFUSED",
                   detail=str(exc))
            continue
        record(conjecture_lines, "conjecture", name, start,
               "VIOLATED" if violated else "observed", cases=seen,
               violations=violated)
    _emit({"suite": args.suite, "checks": lines,
           "conjectures": conjecture_lines,
           "failed": failed})
    return 4 if failed else 3 if refused else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    # the docstring's last paragraph, the import rule, is for developers
    parser = _Parser(prog="amz", description=__doc__.rsplit("\n\n", 1)[0])
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="work budget in steps, which every stage of "
                             "the call charges (default 10^9)")
    sub = parser.add_subparsers(dest="command", required=True)

    with_format = []

    def add(name, fn, help, input=True, formats=None):
        """A subcommand reading the file ``input`` unless told otherwise,
        with ``--format`` over ``formats`` when given."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=fn)
        if input:
            p.add_argument("input")
        if formats:
            with_format.append((p, formats))
        return p

    add("lattice", cmd_lattice, "flats, ranks, Mobius data")

    add("chi", cmd_chi, "characteristic polynomial", formats=["json", "plain"])

    p = add("mobius", cmd_mobius, "Mobius value between two flats")
    p.add_argument("--lower", default="empty",
                   help="comma list of 1-based indices, 'empty' or 'all'")
    p.add_argument("--upper", default="all")

    add("hypertoric", cmd_hypertoric, "class of the arrangement")

    p = add("nakajima", cmd_nakajima, "quiver-variety classes")
    p.add_argument("--w", required=True, help="comma list framing vector")
    p.add_argument("--depth", type=int, default=5)

    p = add("odr", cmd_odr, "class for prescribed pole orders", input=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--orders", required=True, help="comma list, each >= 2")

    p = add("igusa", cmd_igusa, "zeta function of the moment map",
            formats=["json", "latex", "plain"])
    p.add_argument("--method", choices=["chain", "recursion"],
                   default="chain")

    add("poles", cmd_poles, "pole orders and criteria")

    add("bmu", cmd_bmu, "normalized limit of solution counts",
        formats=["json", "plain"])

    add("bprime", cmd_bprime, "cleared numerator polynomial",
        formats=["json", "plain"])

    p = add("quiver-indec", cmd_quiver_indec,
            "indecomposable class count polynomial at fixed depth")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--p", type=_prime)

    add("quiver-limit", cmd_quiver_limit,
        "normalized limit of indecomposable counts", formats=["json", "plain"])

    add("check-lastone", cmd_check_lastone,
        "compare graph counts against the arrangement numerator")

    p = add("oracle", cmd_oracle, "congruence counts modulo p^alpha")
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument("--alpha", type=int, required=True)

    p = add("verify", cmd_verify, "run a verification suite", input=False)
    p.add_argument("--suite", required=True,
                   help="paper: transcribed reference values; oracle: "
                        "series vs brute-force counts; properties: "
                        "invariants on random arrangements")
    p.add_argument("--p", type=_prime)
    p.add_argument("--alpha", type=int)
    p.add_argument("--seed", type=int)

    # after each subcommand's own options, where the help has always shown it
    for p, choices in with_format:
        p.add_argument("--format", choices=choices, default="json")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    budget = errors.BUDGET          # restored however the call ends
    try:
        args = parser.parse_args(argv)
        errors.BUDGET = args.budget
        result = args.handler(args)
        return int(result) if result is not None else 0
    except AmzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        return 0
    finally:
        errors.BUDGET = budget


if __name__ == "__main__":
    sys.exit(main())
