"""Outside-in tracer for the amzeta modules, installed in traced jobs only.

It wraps every public module-level function of each layer module, plus a
fixed list of public class methods, from outside the package:

* modules use from-imports, so a wrapped function is rebound in every
  ``amzeta.*`` namespace that bound the original (``build_lattice`` lives
  in ``arrangement``, ``igusa``, ``quiver_reps`` and ``cli``);
* class methods are patched on the class itself.

Each wrapped call is a span.  Spans nest on one stack; a span's self time
is its duration minus that of its child spans, credited to the span's
module, so ``<module>.self_s`` is the module's span time minus the child
spans of other modules.  Inclusive ``_s`` metrics count only the outermost
call of a function or of a group of methods (``GROUPS``), so nested calls
are not counted twice.  Spans of at least
``SPAN_MIN_S`` are kept in memory and written once, when the job ends.

Peak memory of three calls is the growth of the resident set during the
call, sampled from /proc/self/statm at span boundaries at most every 2 ms.
tracemalloc is not used: it slows ``igusa_chain`` about sixfold.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time

MODULES = ("cli", "arrangement", "exact_algebra", "igusa", "residues",
           "hypertoric", "quiver_varieties", "quiver_reps", "padic_oracle",
           "open_derham")

CLASS_METHODS = {
    "exact_algebra": {"BiRational": ("__init__", "__add__", "__mul__"),
                      "RationalUni": ("__init__", "__add__", "__mul__"),
                      "LaurentPoly": ("__mul__",)},
    "arrangement": {"FlatLattice": ("mobius", "between",
                                    "char_poly_interval"),
                    "Arrangement": ("rank_of",)},
}

# parse_s: argument parsing and decoding the input object
PARSE = ("cli.build_parser", "cli._Parser.parse_args",
         "arrangement.Arrangement.from_json",
         "quiver_varieties.Quiver.from_json")

# methods whose inclusive time is taken as one group: a call counts only
# when no method of its group is already running, so __add__ calling
# __init__ is not counted twice
GROUPS = {
    "exact_algebra.BiRational.__init__": "exact_algebra.BiRational",
    "exact_algebra.BiRational.__add__": "exact_algebra.BiRational",
    "exact_algebra.BiRational.__mul__": "exact_algebra.BiRational",
    "exact_algebra.RationalUni.__init__": "exact_algebra.RationalUni",
    "exact_algebra.RationalUni.__add__": "exact_algebra.RationalUni",
    "exact_algebra.RationalUni.__mul__": "exact_algebra.RationalUni",
}
GROUPS.update({key: "cli.parse" for key in PARSE})

PEAK_WATCH = ("arrangement.build_lattice", "igusa.igusa_chain",
              "residues.b_prime")

SPAN_MIN_S = 1e-3
_SAMPLE_EVERY_S = 2e-3
_PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def _rss_bytes() -> int:
    try:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * _PAGE
    except OSError:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _num_terms(value) -> int:
    """Numerator terms of a top-level result (zeta value, B_mu, limit,
    class or cleared numerator)."""
    for attr in ("value", "b_prime"):
        if hasattr(value, attr) and not hasattr(value, "items"):
            value = getattr(value, attr)
    num = getattr(value, "num", value)
    if isinstance(num, dict):
        return len(num)
    return sum(1 for _ in num.items())


class Tracer:
    def __init__(self):
        self.calls = {}          # key -> call count
        self.incl = {}           # group -> inclusive s of outermost calls
        self.depth = {}          # group -> current nesting depth
        self.self_s = {m: 0.0 for m in MODULES}
        self.errors = {m: 0 for m in MODULES}
        self.stack = []          # [module, start, child_seconds, span_id]
        self.spans = []          # (id, parent_id, key, start, end)
        self.next_id = 0
        self.counters = {"birational_offered": 0, "birational_cancelled": 0,
                         "gcd_nontrivial": 0, "flats": 0,
                         "result_num_terms": 0, "budget_refusals": 0,
                         "budget_charged": 0, "budget_work": 0}
        self.peaks = {}          # key -> max resident growth in bytes
        self.watch = []          # [key, rss_at_entry, rss_max]
        self.last_sample = 0.0
        self.lattices = []
        self.t_origin = time.perf_counter()

    # -- installation -------------------------------------------------------

    def install(self):
        from amzeta import errors
        self._budget_error = errors.BudgetExceededError
        mods = {name: importlib.import_module(f"amzeta.{name}")
                for name in MODULES}
        replaced = {}
        for name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    replaced[id(obj)] = (obj, self._wrap(
                        name, f"{name}.{attr}", obj))
        # rebind in every amzeta namespace that imported the original
        import amzeta
        for attr in dir(amzeta):
            mod = getattr(amzeta, attr)
            if not inspect.ismodule(mod):
                continue
            for key, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, key, hit[1])
        # a method the package no longer has is skipped; its metrics read 0
        for modname, classes in CLASS_METHODS.items():
            for clsname, methods in classes.items():
                cls = getattr(mods[modname], clsname, None)
                for meth in methods:
                    if cls is not None and meth in vars(cls):
                        setattr(cls, meth, self._wrap(
                            modname, f"{modname}.{clsname}.{meth}",
                            vars(cls)[meth]))
        parser_cls = getattr(mods["cli"], "_Parser", None)
        if parser_cls is not None:
            parser_cls.parse_args = self._wrap(
                "cli", "cli._Parser.parse_args", parser_cls.parse_args)
        for modname, clsname in (("arrangement", "Arrangement"),
                                 ("quiver_varieties", "Quiver")):
            cls = getattr(mods[modname], clsname, None)
            if cls is not None and "from_json" in vars(cls):
                cls.from_json = classmethod(self._wrap(
                    modname, f"{modname}.{clsname}.from_json",
                    vars(cls)["from_json"].__func__))

    def _wrap(self, module, key, fn):
        hook = _HOOKS.get(key)
        watch = key in PEAK_WATCH
        tracer = self
        calls, incl, depth = self.calls, self.incl, self.depth
        self_s, stack = self.self_s, self.stack
        group = GROUPS.get(key, key)
        calls[key] = 0
        incl[group] = 0.0
        depth[group] = 0
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            if tracer.watch and t0 - tracer.last_sample > _SAMPLE_EVERY_S:
                tracer._sample(t0)
            sid = tracer.next_id
            tracer.next_id = sid + 1
            frame = [module, t0, 0.0, sid]
            stack.append(frame)
            d = depth[group]
            depth[group] = d + 1
            if watch and d == 0:
                rss = _rss_bytes()
                tracer.watch.append([key, rss, rss])
            failed = None
            try:
                if hook is not None:
                    result = hook(tracer, fn, args, kwargs)
                else:
                    result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                failed = exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[module] += dur - frame[2]
                parent = None
                if stack:
                    parent = stack[-1]
                    parent[2] += dur
                calls[key] += 1
                depth[group] = d
                if d == 0:
                    incl[group] += dur
                if watch and d == 0:
                    tracer._sample(t1)
                    wkey, rss0, rss_max = tracer.watch.pop()
                    grown = rss_max - rss0
                    if grown > tracer.peaks.get(wkey, 0):
                        tracer.peaks[wkey] = grown
                if dur >= SPAN_MIN_S:
                    tracer.spans.append(
                        (sid, parent[3] if parent else None, key,
                         t0 - tracer.t_origin, t1 - tracer.t_origin))
                if failed is not None and (parent is None
                                           or parent[0] != module):
                    tracer.errors[module] += 1
                    if (module == "padic_oracle" and isinstance(
                            failed, tracer._budget_error)):
                        tracer.counters["budget_refusals"] += 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _sample(self, now):
        self.last_sample = now
        rss = _rss_bytes()
        for entry in self.watch:
            if rss > entry[2]:
                entry[2] = rss

    # -- results ------------------------------------------------------------

    def finish(self, output_bytes: int) -> dict:
        """Counters of this job; spans are returned for the parent to
        write.  The bookkeeping below runs after the job and is untimed."""
        self.stack.clear()
        pairs = 0
        for lat in self.lattices:
            # flats above each flat, through the unwrapped public between()
            between = getattr(type(lat).between, "__wrapped__",
                              type(lat).between)
            for i in range(len(lat.flats)):
                pairs += len(between(lat, i, lat.top))
        self.lattices.clear()
        return {"calls": {k: v for k, v in self.calls.items() if v},
                "incl": {k: v for k, v in self.incl.items() if v},
                "self_s": self.self_s, "errors": self.errors,
                "counters": dict(self.counters, comparable_pairs=pairs,
                                 output_bytes=output_bytes),
                "peaks": self.peaks, "spans": self.spans}


# -- hooks: counts taken at the boundary of one call ---------------------------

def _birational_init(tracer, fn, args, kwargs):
    den = args[3] if len(args) > 3 else kwargs.get("den", ())
    offered = sum(int(mu) for _, mu in den) if isinstance(
        den, (list, tuple)) else 0
    result = fn(*args, **kwargs)
    kept = sum(mu for _, mu in args[0].den)
    tracer.counters["birational_offered"] += offered
    tracer.counters["birational_cancelled"] += max(offered - kept, 0)
    return result


def _poly_gcd(tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)
    if result != {0: 1}:
        tracer.counters["gcd_nontrivial"] += 1
    return result


def _build_lattice(tracer, fn, args, kwargs):
    lat = fn(*args, **kwargs)
    tracer.counters["flats"] += len(lat.flats)
    tracer.lattices.append(lat)
    return lat


def _result(tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)
    tracer.counters["result_num_terms"] += _num_terms(result)
    return result


def _count_solutions(tracer, fn, args, kwargs):
    """Budget charged (mod^n * mod^m) against the n * mod^(m+1) steps the
    convolution performs, both computed from the inputs."""
    arr, p, alpha = args[:3]
    method = kwargs.get("method", args[4] if len(args) > 4 else
                        "convolution")
    if method == "convolution":
        mod = p ** alpha
        tracer.counters["budget_charged"] += mod ** arr.n * mod ** arr.m
        tracer.counters["budget_work"] += arr.n * mod ** (arr.m + 1)
    return fn(*args, **kwargs)


_HOOKS = {
    "exact_algebra.BiRational.__init__": _birational_init,
    "exact_algebra.poly_gcd": _poly_gcd,
    "arrangement.build_lattice": _build_lattice,
    "padic_oracle.count_solutions_mod": _count_solutions,
}
for _key in ("igusa.igusa_chain", "igusa.igusa_recursion", "residues.b_mu",
             "residues.b_prime", "quiver_reps.a_gamma_limit",
             "quiver_reps.a_gamma_alpha", "hypertoric.hypertoric_class"):
    _HOOKS[_key] = _result


# -- per-layer metrics --------------------------------------------------------

def _incl(key):
    return ("incl", key)


def _calls(key):
    return ("calls", key)


# name -> (unit, better, source); a source is a key into the aggregated
# trace or a function of it
METRICS = {
    "arrangement.build_lattice_s": ("s", "lower",
                                    _incl("arrangement.build_lattice")),
    "arrangement.build_lattice_calls": ("count", "lower",
                                        _calls("arrangement.build_lattice")),
    "arrangement.flats": ("count", "lower", ("counter", "flats")),
    "arrangement.comparable_pairs": ("count", "lower",
                                     ("counter", "comparable_pairs")),
    "arrangement.rank_calls": ("count", "lower",
                               _calls("arrangement.Arrangement.rank_of")),
    "arrangement.rank_calls_per_flat": ("ratio", "lower", (
        "ratio", _calls("arrangement.Arrangement.rank_of"),
        ("counter", "flats"))),
    "arrangement.structural_flags_s": ("s", "lower", _incl(
        "arrangement.structural_flags")),
    "arrangement.minor_dets": ("count", "lower",
                               _calls("arrangement.int_det")),
    "arrangement.mobius_s": ("s", "lower",
                             _incl("arrangement.FlatLattice.mobius")),
    "arrangement.between_calls": ("count", "lower",
                                  _calls("arrangement.FlatLattice.between")),
    "arrangement.char_poly_interval_calls": ("count", "lower", _calls(
        "arrangement.FlatLattice.char_poly_interval")),
    "arrangement.char_poly_interval_s": ("s", "lower", _incl(
        "arrangement.FlatLattice.char_poly_interval")),
    "arrangement.localization_calls": ("count", "lower",
                                       _calls("arrangement.localization")),
    "arrangement.count_complement_s": ("s", "lower", _incl(
        "arrangement.count_complement_Fq")),
    "arrangement.build_lattice_peak_mb": ("MB", "lower", (
        "peak", "arrangement.build_lattice")),
    "exact_algebra.birational_new": ("count", "lower", _calls(
        "exact_algebra.BiRational.__init__")),
    "exact_algebra.birational_s": ("s", "lower",
                                   _incl("exact_algebra.BiRational")),
    "exact_algebra.birational_cancel_ratio": ("ratio", "higher", (
        "ratio", ("counter", "birational_cancelled"),
        ("counter", "birational_offered"))),
    "exact_algebra.rational_uni_new": ("count", "lower", _calls(
        "exact_algebra.RationalUni.__init__")),
    "exact_algebra.rational_uni_s": ("s", "lower",
                                     _incl("exact_algebra.RationalUni")),
    "exact_algebra.poly_gcd_calls": ("count", "lower",
                                     _calls("exact_algebra.poly_gcd")),
    "exact_algebra.gcd_nontrivial_ratio": ("ratio", "higher", (
        "ratio", ("counter", "gcd_nontrivial"),
        _calls("exact_algebra.poly_gcd"))),
    "exact_algebra.laurent_mul_calls": ("count", "lower", _calls(
        "exact_algebra.LaurentPoly.__mul__")),
    "exact_algebra.laurent_s": ("s", "lower", _incl(
        "exact_algebra.LaurentPoly.__mul__")),
    "exact_algebra.series_div_s": ("s", "lower",
                                   _incl("exact_algebra.series_div")),
    "exact_algebra.result_num_terms": ("count", "lower",
                                       ("counter", "result_num_terms")),
    "igusa.chain_s": ("s", "lower", _incl("igusa.igusa_chain")),
    "igusa.recursion_s": ("s", "lower", _incl("igusa.igusa_recursion")),
    "igusa.level_sets_s": ("s", "lower", _incl("igusa.level_sets")),
    "igusa.pole_report_s": ("s", "lower", _incl("igusa.pole_report")),
    "igusa.functional_equation_s": ("s", "lower", _incl(
        "igusa.functional_equation_check")),
    "igusa.chain_peak_mb": ("MB", "lower", ("peak", "igusa.igusa_chain")),
    "residues.b_mu_s": ("s", "lower", _incl("residues.b_mu")),
    "residues.b_mu_via_residue_s": ("s", "lower", _incl(
        "residues.b_mu_via_residue")),
    "residues.b_prime_s": ("s", "lower", _incl("residues.b_prime")),
    "residues.b_prime_peak_mb": ("MB", "lower", ("peak", "residues.b_prime")),
    "hypertoric.class_s": ("s", "lower", _incl("hypertoric.hypertoric_class")),
    "hypertoric.fiber_count_s": ("s", "lower", _incl(
        "hypertoric.count_moment_fiber")),
    "hypertoric.find_generic_xi_s": ("s", "lower", _incl(
        "hypertoric.find_generic_xi")),
    "hypertoric.xi_tries": ("count", "lower",
                            _calls("hypertoric.xi_is_generic")),
    "quiver_reps.a_gamma_limit_s": ("s", "lower", _incl(
        "quiver_reps.a_gamma_limit")),
    "quiver_reps.a_gamma_alpha_s": ("s", "lower", _incl(
        "quiver_reps.a_gamma_alpha")),
    "quiver_reps.check_lastone_s": ("s", "lower", _incl(
        "quiver_reps.check_lastone")),
    "quiver_reps.brute_force_s": ("s", "lower", _incl(
        "quiver_reps.brute_force_indec")),
    "quiver_reps.components_calls": ("count", "lower",
                                     _calls("quiver_reps.components")),
    "quiver_varieties.nakajima_gf_s": ("s", "lower", _incl(
        "quiver_varieties.nakajima_gf")),
    "quiver_varieties.hua_term_calls": ("count", "lower", _calls(
        "quiver_varieties.hua_term")),
    "quiver_varieties.hua_term_s": ("s", "lower", _incl(
        "quiver_varieties.hua_term")),
    "padic_oracle.count_solutions_s": ("s", "lower", _incl(
        "padic_oracle.count_solutions_mod")),
    "padic_oracle.product_table_s": ("s", "lower", _incl(
        "padic_oracle.product_count_table")),
    "padic_oracle.poincare_check_s": ("s", "lower", _incl(
        "padic_oracle.poincare_check")),
    "padic_oracle.limit_probe_s": ("s", "lower", _incl(
        "padic_oracle.limit_probe")),
    "padic_oracle.budget_refusals": ("count", "lower",
                                     ("counter", "budget_refusals")),
    "padic_oracle.budget_charged_over_work": ("ratio", "lower", (
        "ratio", ("counter", "budget_charged"), ("counter", "budget_work"))),
    "open_derham.odr_class_s": ("s", "lower", _incl("open_derham.odr_class")),
    "cli.parse_s": ("s", "lower", _incl("cli.parse")),
    "cli.output_bytes": ("bytes", "lower", ("counter", "output_bytes")),
}
for _module in MODULES:
    METRICS[f"{_module}.self_s"] = ("s", "lower", ("self_s", _module))
    METRICS[f"{_module}.errors"] = ("count", "lower", ("errors", _module))
METRICS["trace.overhead_ratio"] = ("ratio", "lower", None)


def merge(reports) -> dict:
    """Sum the traces of the jobs of one pass."""
    total = {"calls": {}, "incl": {}, "self_s": {}, "errors": {},
             "counters": {}, "peaks": {}}
    for rep in reports:
        for part in ("calls", "incl", "self_s", "errors", "counters"):
            bucket = total[part]
            for key, value in rep[part].items():
                bucket[key] = bucket.get(key, 0) + value
        for key, value in rep["peaks"].items():
            total["peaks"][key] = max(total["peaks"].get(key, 0), value)
    return total


def _value(agg, source):
    kind, arg = source
    if kind in ("incl", "calls", "self_s", "errors"):
        return agg[kind].get(arg, 0)
    if kind == "counter":
        return agg["counters"].get(arg, 0)
    if kind == "peak":
        return agg["peaks"].get(arg, 0) / 1e6
    raise KeyError(kind)


def layer_metrics(agg, overhead_ratio) -> dict:
    out = {}
    for name, (unit, _, source) in METRICS.items():
        if source is None:
            value = overhead_ratio
        elif source[0] == "ratio":
            den = _value(agg, source[2])
            value = _value(agg, source[1]) / den if den else 0.0
        else:
            value = _value(agg, source)
        out[name] = {"value": value, "unit": unit}
    return out
