import argparse
import json
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import amzeta
from amzeta.arrangement import Arrangement
from amzeta.cli import build_parser, main
from amzeta.reference import (
    complete_quiver,
    cycle_quiver,
    jordan_quiver,
    n_origins,
    six_normals_rank3,
    triangle,
)


@pytest.fixture()
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(triangle().to_json()))
    return str(path)


@pytest.fixture()
def six_file(tmp_path):
    path = tmp_path / "six.json"
    path.write_text(json.dumps(six_normals_rank3().to_json()))
    return str(path)


@pytest.fixture()
def atilde3_file(tmp_path):
    # graphic arrangement of the 4-cycle
    from amzeta.arrangement import graphic_arrangement
    arr = graphic_arrangement(cycle_quiver(4))
    path = tmp_path / "atilde3.json"
    path.write_text(json.dumps(arr.to_json()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_igusa_json_and_roundtrip(capsys, triangle_file):
    code, out, _ = run(capsys, "igusa", triangle_file)
    assert code == 0
    from amzeta.exact_algebra import BiRational
    from amzeta.reference import zeta_triangle
    assert BiRational.from_json(json.loads(out)) == zeta_triangle()


def test_igusa_latex(capsys, triangle_file):
    code, out, _ = run(capsys, "igusa", triangle_file, "--format", "latex")
    assert code == 0
    assert "q^{s+2}" in out and "q^{s+3}" in out and "\\frac" in out


def test_igusa_determinism(capsys, triangle_file):
    _, out1, _ = run(capsys, "igusa", triangle_file)
    _, out2, _ = run(capsys, "igusa", triangle_file)
    assert out1 == out2


def test_bprime_atilde3(capsys, atilde3_file):
    code, out, _ = run(capsys, "bprime", atilde3_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["poly"] == {"3": "1", "2": "11", "1": "11", "0": "1"}
    assert payload["palindromic"] is True


def test_chi_plain(capsys, triangle_file):
    code, out, _ = run(capsys, "chi", triangle_file, "--format", "plain")
    assert code == 0
    assert out.strip() == "q^2 - 3*q + 2"


def test_chi_json_roundtrip(capsys, triangle_file):
    from amzeta.exact_algebra import LaurentPoly
    code, out, _ = run(capsys, "chi", triangle_file)
    assert code == 0
    assert LaurentPoly.from_json(json.loads(out)) == LaurentPoly(
        "q", {2: 1, 1: -3, 0: 2})


def test_bmu_json_roundtrip(capsys, triangle_file):
    from amzeta.exact_algebra import RationalUni
    from amzeta.reference import bmu_triangle
    code, out, _ = run(capsys, "bmu", triangle_file)
    assert code == 0
    assert RationalUni.from_json(json.loads(out)) == bmu_triangle()


def test_lattice_listing(capsys, triangle_file):
    code, out, _ = run(capsys, "lattice", triangle_file)
    payload = json.loads(out)
    assert code == 0
    assert payload["flats"] == [[], [1], [2], [3], [1, 2, 3]]
    assert payload["mobius_to_top"] == ["2", "-1", "-1", "-1", "1"]


def test_mobius_subcommand(capsys, triangle_file):
    code, out, _ = run(capsys, "mobius", triangle_file,
                       "--lower", "empty", "--upper", "all")
    assert code == 0
    assert json.loads(out)["mobius"] == "2"


def test_mobius_reads_flats_as_hyperplane_sets(capsys, triangle_file):
    # --lower and --upper are the one place a set of hyperplanes becomes a
    # flat index; a set that is not closed, or an incomparable pair, exits 2
    code, out, _ = run(capsys, "mobius", triangle_file,
                       "--lower", "1", "--upper", "all")
    assert code == 0 and json.loads(out)["mobius"] == "-1"
    for lower, upper, message in [
            ("1,2", "all", "error: [0, 1] is not a flat"),
            ("1", "2", "error: mobius on incomparable flats")]:
        code, out, err = run(capsys, "mobius", triangle_file,
                             "--lower", lower, "--upper", upper)
        assert (code, out, err.splitlines()) == (2, "", [message])


def test_hypertoric_subcommand(capsys, triangle_file):
    code, out, _ = run(capsys, "hypertoric", triangle_file)
    payload = json.loads(out)
    assert code == 0
    assert payload["class"]["coeffs"] == {"2": "1", "1": "2"}
    assert payload["formal"] is False


def test_odr_subcommand(capsys):
    code, out, _ = run(capsys, "odr", "--n", "2", "--orders", "2,2")
    assert code == 0
    assert json.loads(out)["class"]["coeffs"] == {"2": "1", "1": "2"}


def test_nakajima_subcommand(capsys, tmp_path):
    from amzeta.reference import jordan_quiver
    path = tmp_path / "jordan.json"
    path.write_text(json.dumps(jordan_quiver().to_json()))
    code, out, _ = run(capsys, "nakajima", str(path), "--w", "1",
                       "--depth", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"]["1"]["coeffs"] == {"2": "1"}
    assert payload["classes"]["2"]["coeffs"] == {"4": "1", "3": "1"}


def test_failed_division_is_one_error_line(monkeypatch, capsys, tmp_path):
    # a P(2) that P(1) does not divide breaks hua_term's exact division at
    # the partition (2); amz reports an invariant violation, exit 4, with
    # one error line naming the multipartition and no traceback
    from amzeta import quiver_varieties
    from amzeta.reference import jordan_quiver
    real = quiver_varieties.q_factorial
    monkeypatch.setattr(quiver_varieties, "q_factorial",
                        lambda n: real(n) + (n == 2))
    path = tmp_path / "jordan.json"
    path.write_text(json.dumps(jordan_quiver().to_json()))
    try:
        code, out, err = run(capsys, "nakajima", str(path), "--w", "1",
                             "--depth", "2")
    finally:
        # no Gaussian binomial built from the broken P(n) outlives the test
        quiver_varieties.gaussian_binomial.cache_clear()
    assert code == 4
    assert out == ""
    assert err.splitlines() == [
        "error: centralizer factor does not divide the summand of "
        "multipartition [[2]]"]


def test_quiver_commands(capsys, tmp_path):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(cycle_quiver(3).to_json()))
    code, out, _ = run(capsys, "quiver-indec", str(path), "--alpha", "1",
                       "--p", "3")
    assert code == 0
    assert json.loads(out)["brute_force"]["count"] == "5"
    code, out, _ = run(capsys, "quiver-limit", str(path), "--format", "plain")
    assert code == 0
    assert "q^2 + 4*q + 1" in out
    code, out, _ = run(capsys, "check-lastone", str(path))
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_oracle_subcommand(capsys, tmp_path):
    path = tmp_path / "origin.json"
    path.write_text(json.dumps(n_origins(1).to_json()))
    code, out, _ = run(capsys, "oracle", str(path), "--p", "5",
                       "--alpha", "2")
    payload = json.loads(out)
    assert code == 0
    assert [c["count"] for c in payload["counts"]] == ["9", "65"]
    assert payload["converges"] is False


def test_oracle_triangle_counts_each_depth_once(capsys, triangle_file,
                                               monkeypatch):
    # one character sum walks the 186 orbit representatives of depths 1-3
    # at p = 5 once, and its Horner pass yields the count of every depth
    from fractions import Fraction
    from amzeta import padic_oracle
    from amzeta.igusa import IgusaZeta
    from amzeta.reference import zeta_triangle
    walks = []
    count = padic_oracle._character_count

    def counted(normals, p, alpha, *args):
        walks.append(alpha)
        return count(normals, p, alpha, *args)
    monkeypatch.setattr(padic_oracle, "_character_count", counted)
    code, out, _ = run(capsys, "oracle", triangle_file, "--p", "5",
                       "--alpha", "3")
    assert code == 0
    assert walks == [3]
    payload = json.loads(out)
    expected = padic_oracle.series_counts_from_zeta(
        IgusaZeta(triangle(), None, zeta_triangle()), 5, 3)
    n = triangle().n
    assert [Fraction(int(c["count"]), 5 ** (2 * n * c["alpha"]))
            for c in payload["counts"]] == expected
    assert payload["converges"] is True
    code, out, _ = run(capsys, "oracle", triangle_file, "--p", "5",
                       "--alpha", "0")
    assert code == 2 and out == ""


def test_quiver_walks_draw_on_the_budget(capsys, tmp_path):
    from amzeta.exact_algebra import RationalUni
    from amzeta.reference import a_limit_cycle
    c5 = tmp_path / "c5.json"
    c5.write_text(json.dumps(cycle_quiver(5).to_json()))
    c8 = tmp_path / "c8.json"
    c8.write_text(json.dumps(cycle_quiver(8).to_json()))
    code, out, _ = run(capsys, "quiver-limit", str(c8))
    assert code == 0
    assert RationalUni.from_json(json.loads(out)) == a_limit_cycle(8)
    for argv in (["quiver-limit", str(c5)], ["check-lastone", str(c5)],
                 ["quiver-indec", str(c5), "--alpha", "2"]):
        code, out, err = run(capsys, "--budget", "100", *argv)
        assert code == 3 and out == ""
        assert "budget allows 100" in err


def test_recursion_charges_its_localization_lattices(capsys, tmp_path,
                                                      monkeypatch):
    # K5 (n = 10, m = 4): 52 flats cost 40 steps each, 2,080 in all; the
    # localization lattices cost |F| * rk F for each of the #[empty, F]
    # flats, 5,190 summed over the flats F
    from amzeta.arrangement import graphic_arrangement
    k5 = tmp_path / "k5.json"
    k5.write_text(json.dumps(
        graphic_arrangement(complete_quiver(5)).to_json()))
    argv = ("igusa", "--method", "recursion", str(k5))
    code, out, err = run(capsys, "--budget", "5189", *argv)
    assert code == 3 and out == ""
    assert "localization lattices needs 5190 steps, budget allows 5189" in err
    # the chain route walks K5's 7 partition types; its largest charge is
    # the zeta reduction, 8,096 steps
    code, chain, _ = run(capsys, "--budget", "8096", "igusa", str(k5))
    assert code == 0 and chain
    # the environment has no say: only --budget sets the budget
    monkeypatch.setenv("AMZ_BUDGET", "100")
    code, out, _ = run(capsys, "--budget", "5190", *argv)
    assert code == 0 and out == chain


def test_exit_code_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "igusa", str(bad))
    assert code == 1 and "error" in err


@pytest.mark.parametrize("normals", [[[1, "a"]], [[1.5, 0]], ["12", "01"]])
def test_arrangement_json_entries_must_be_integers(capsys, tmp_path, normals):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"normals": normals}))
    code, out, err = run(capsys, "chi", str(path))
    assert code == 1 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("quiver", [{"vertices": 1.5, "edges": []},
                                    {"vertices": 2, "edges": [[1, 2.7]]},
                                    {"vertices": 2,
                                     "edges": ["12", "21", "12"]}])
def test_quiver_json_entries_must_be_integers(capsys, tmp_path, quiver):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(quiver))
    code, out, err = run(capsys, "nakajima", str(path), "--w", "1,0")
    assert code == 1 and out == "" and err.startswith("error:")


def test_nakajima_framing_must_be_integers(capsys, tmp_path):
    path = tmp_path / "jordan.json"
    path.write_text(json.dumps({"vertices": 1, "edges": [[1, 1]]}))
    code, out, err = run(capsys, "nakajima", str(path), "--w", "a")
    assert code == 1 and out == "" and err.startswith("error:")


def test_odr_orders_must_be_integers(capsys):
    code, out, err = run(capsys, "odr", "--n", "2", "--orders", "2,x")
    assert code == 1 and out == "" and err.startswith("error:")


def test_exit_code_precondition(capsys, tmp_path):
    path = tmp_path / "nonessential.json"
    path.write_text(json.dumps({"normals": [[1, 0]]}))
    code, _, err = run(capsys, "igusa", str(path))
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["oracle", "k8", "--p", "3", "--alpha", "0"],
    ["oracle", "triangle", "--p", "5", "--alpha", "-1"],
    ["verify", "--suite", "oracle", "--alpha", "0"],
    ["verify", "--suite", "oracle", "--alpha", "-1"],
])
def test_depth_below_one_is_refused_before_any_work(capsys, tmp_path,
                                                    monkeypatch, argv):
    from amzeta import arrangement, checks, cli, padic_oracle
    from amzeta.arrangement import graphic_arrangement

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the depth was checked")
    for module, name in [(cli, "build_lattice"), (checks, "build_lattice"),
                         (arrangement, "structural_flags"),
                         (arrangement, "max_abs_minor"),
                         (padic_oracle, "_character_count")]:
        monkeypatch.setattr(module, name, refuse)
    inputs = {"triangle": triangle(),
              "k8": graphic_arrangement(complete_quiver(8))}
    if argv[1] in inputs:
        path = tmp_path / argv[1]
        path.write_text(json.dumps(inputs[argv[1]].to_json()))
        argv = [argv[0], str(path), *argv[2:]]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: depth must be >= 1\n"


def test_exit_code_budget(capsys, triangle_file):
    code, _, _ = run(capsys, "--budget", "1", "oracle", triangle_file,
                     "--p", "5", "--alpha", "1")
    assert code == 3


@pytest.mark.parametrize("argv", [["lattice"],
                                  ["oracle", "--p", "5", "--alpha", "1"]],
                         ids=["lattice", "oracle"])
def test_budget_refusal_says_what_it_needs(capsys, triangle_file, argv):
    code, out, err = run(capsys, "--budget", "1", argv[0], triangle_file,
                         *argv[1:])
    assert code == 3 and out == ""
    assert "needs" in err and "budget allows 1" in err


def test_minor_scans_draw_on_the_budget(capsys, six_file, monkeypatch):
    # six normals in rank 3: the lattice costs 15 flats * 18 = 270 steps,
    # the maximal minors C(6, 3) * 3^3 = 540, the Laplace walk over the
    # minors of every size 6 * 3 * 1 + 15 * 3 * 2 + 20 * 1 * 3 = 168
    from amzeta import arrangement
    monkeypatch.setattr(arrangement, "_FLAGS_CACHE", {})
    for argv, needs in ((["--budget", "539", "hypertoric", six_file],
                         "unimodular needs 540 steps"),
                        (["--budget", "539", "lattice", six_file],
                         "unimodular needs 540 steps"),
                        (["--budget", "167", "oracle", six_file, "--p", "5",
                          "--alpha", "1"], "max_abs_minor needs 168 steps")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert needs in err and "budget allows" in err
    code, out, _ = run(capsys, "--budget", "540", "lattice", six_file)
    assert code == 0 and json.loads(out)["flags"]["max_abs_minor"] == 2


def test_the_budget_is_one_value_that_main_restores(capsys, triangle_file,
                                                    monkeypatch):
    import importlib
    import inspect
    from amzeta import cli, errors
    # no function, private ones and methods included, takes a budget
    takers = []
    for name in sorted(ALL_MODULES):
        module = importlib.import_module(f"amzeta.{name}")
        members = [(fname, fn) for fname, fn in vars(module).items()
                   if getattr(fn, "__module__", None) == module.__name__]
        for fname, obj in list(members):
            if inspect.isclass(obj):
                members += [(f"{fname}.{key}", fn)
                            for key, fn in vars(obj).items()]
        for fname, fn in members:
            fn = getattr(fn, "__func__", fn)
            if (inspect.isfunction(fn)
                    and "budget" in inspect.signature(fn).parameters):
                takers.append(f"{name}.{fname}")
    assert takers == []
    assert errors.DEFAULT_BUDGET == build_parser().parse_args(
        ["lattice", "x.json"]).budget == 10 ** 9
    # main sets the budget for one call and restores what it found: after
    # an exit 0, an exit 3 and an exception that escapes
    monkeypatch.setattr(errors, "BUDGET", 12345)
    assert run(capsys, "--budget", "100000", "chi", triangle_file)[0] == 0
    assert errors.BUDGET == 12345
    assert run(capsys, "--budget", "1", "chi", triangle_file)[0] == 3
    assert errors.BUDGET == 12345
    seen = []

    def crash(args):
        seen.append(errors.BUDGET)
        raise RuntimeError("handler crashed")
    monkeypatch.setattr(cli, "cmd_chi", crash)
    with pytest.raises(RuntimeError, match="handler crashed"):
        main(["--budget", "7", "chi", triangle_file])
    assert seen == [7] and errors.BUDGET == 12345


# (stage, argv, refusal, steps): each input is refused first at its stage,
# whose charge is steps; the triangle / six normals / 5-cycle / K7 - e
# lattices cost 30 / 270 / 540 / 99,000 steps, and the 64 flats of the
# coordinate arrangement of rank 6 cost 2,304, its one maximal minor 216
# and the walk over its minors of every size sum_k C(6, k)^2 k = 2,772.
# A stage that charges as it goes (the lattice, the chain walk, the
# partition types) knows only a lower bound when it stops, and says "at
# least"; a charge one step short stops it at its last step, so the bound
# is its exact charge.  igusa and
# bmu walk K7 (a braid arrangement) over its 15 partition types, 15^2
# charged, and build no lattice
BUDGET_STAGES = [
    ("lattice of flats", ["igusa", "six"],
     "lattice of flats needs at least", 270),
    ("chain walk", ["igusa", "k7e"], "chain walk needs at least", 241046),
    ("partition types", ["bmu", "k7"], "partition types needs at least",
     225),
    ("type walk", ["igusa", "k7"], "chain walk needs at least", 1030),
    # the entries merged by the Horner clear of the 15 types' chain sums
    ("denominator clear", ["igusa", "k7"],
     "denominator clear needs at least", 16582),
    # the trial divisions of the one reduction: sum (mu + 1) = 23 factor
    # trials over the 624 terms, of t-degree 14, of the cleared total
    ("zeta reduction", ["igusa", "k7"], "zeta reduction needs", 229632),
    ("localization lattices", ["igusa", "triangle", "--method", "recursion"],
     "localization lattices needs", 36),
    ("unimodular", ["hypertoric", "six"], "unimodular needs", 540),
    ("max_abs_minor", ["lattice", "coords6"], "max_abs_minor needs", 2772),
    ("prime guard", ["oracle", "six", "--p", "5", "--alpha", "1"],
     "max_abs_minor needs", 168),
    ("character sum", ["oracle", "triangle", "--p", "5", "--alpha", "3"],
     "character sum needs", 558),
    ("quiver-limit walk", ["quiver-limit", "c5"], "normalized limit needs",
     243),
    ("quiver-indec walk", ["quiver-indec", "c5", "--alpha", "2"],
     "depth polynomial needs", 320),
    ("quiver-indec brute force",
     ["quiver-indec", "c5", "--alpha", "3", "--p", "3"],
     "valuation pattern enumeration needs", 1024),
    ("check-lastone walk", ["check-lastone", "c5"], "normalized limit needs",
     243),
    ("check-lastone lattice", ["check-lastone", "c5"],
     "lattice of flats needs at least", 540),
    # one loop at depth 5: 2 (p(0) + ... + p(5)) multipartitions
    ("nakajima terms", ["nakajima", "jordan", "--w", "1", "--depth", "5"],
     "Nakajima partition sums needs", 38),
    # rank 2, three poles: p(2) terms of 2^2 * 2 + 1 coefficients
    ("odr terms", ["odr", "--n", "2", "--orders", "2,2,2"],
     "open de Rham sum needs", 18),
]


@pytest.mark.parametrize("stage, argv, refusal, steps", BUDGET_STAGES,
                         ids=[case[0] for case in BUDGET_STAGES])
def test_budget_reaches_every_stage(capsys, tmp_path, monkeypatch, stage,
                                    argv, refusal, steps):
    from amzeta import arrangement
    from amzeta.arrangement import graphic_arrangement
    monkeypatch.setattr(arrangement, "_FLAGS_CACHE", {})
    k7 = graphic_arrangement(complete_quiver(7))
    inputs = {"triangle": triangle().to_json(),
              "six": six_normals_rank3().to_json(),
              "c5": cycle_quiver(5).to_json(),
              "jordan": jordan_quiver().to_json(),
              "k7": k7.to_json(),
              "k7e": Arrangement(k7.normals[:-1]).to_json(),
              "coords6": Arrangement([[int(i == j) for j in range(6)]
                                      for i in range(6)]).to_json()}
    if argv[1] in inputs:
        path = tmp_path / argv[1]
        path.write_text(json.dumps(inputs[argv[1]]))
        argv = [argv[0], str(path), *argv[2:]]
    code, out, err = run(capsys, "--budget", str(steps - 1), *argv)
    assert code == 3 and out == ""
    assert f"error: {refusal} {steps} steps, budget allows {steps - 1}" in err
    # one step more and the stage runs
    _, _, err = run(capsys, "--budget", str(steps), *argv)
    assert refusal not in err


def test_lattice_charges_both_minor_scans_first(capsys, tmp_path,
                                                monkeypatch):
    # the coordinate arrangement of rank 6 charges its walk 2,772 steps,
    # more than its unimodularity scan's 216: one step short of the walk
    # is refused before either scan runs
    from amzeta import arrangement

    def refuse(*args):
        raise AssertionError("a minor scan ran past the budget")
    monkeypatch.setattr(arrangement, "_FLAGS_CACHE", {})
    monkeypatch.setattr(arrangement, "int_det", refuse)
    monkeypatch.setattr(arrangement, "_minors", refuse)
    path = tmp_path / "coords6"
    path.write_text(json.dumps(Arrangement(
        [[int(i == j) for j in range(6)] for i in range(6)]).to_json()))
    code, out, err = run(capsys, "--budget", "2771", "lattice", str(path))
    assert code == 3 and out == ""
    assert "max_abs_minor needs 2772 steps, budget allows 2771" in err


# sha256 of the stdout of every --format path on the fixtures: a change to
# the printers must not move a byte of it
STDOUT_SHA256 = [
    ("chi", "triangle", "json",
     "25de2bef88229bfc36041c49928606f51164c16ae240ab1bcd350e4cf68da236"),
    ("chi", "triangle", "plain",
     "3ab0e9d9522ec2bb173ebff6125328539974bc92cc9d981acfd4378fa249b01b"),
    ("igusa", "triangle", "json",
     "00da8666a886ee0e6dc6917f9b994a22dfcb89824808b12695c4babefcc7f6d2"),
    ("igusa", "triangle", "plain",
     "81d628ad71864d82f1f1eb121852795731bb2f3f9b6d2d03d200bbe32a97a09d"),
    ("igusa", "triangle", "latex",
     "fb1c706a40f67fc23885315e137ec98998847b0e43b59f7a0ed2f79d74da7524"),
    ("bmu", "triangle", "json",
     "f3d61953420c1344425b7bbbe16d5763bcf7c0e1b1adcd3d8a6132925b42fb62"),
    ("bmu", "triangle", "plain",
     "7fe91b1f91864b41c59594bb93f98f237cbc24a0821a160ec938d919f88037f6"),
    ("bprime", "triangle", "json",
     "26ad7e5c7507c2f3afc2b940a8656a5250c68a102996eb43212aabf8d363faa8"),
    ("bprime", "triangle", "plain",
     "795412d95d3327c0faad4efecefed72c7a299d0d7d07ca084b58ec43e2ad1c18"),
    ("chi", "six", "json",
     "76be8370aaa2e00c89e530d63831a848663265901d5b0fe3632b75ce223879be"),
    ("chi", "six", "plain",
     "0c944e0e512360fe192260c0fc1c6205f4a47da54ce785844f8482efd3c68e7f"),
    ("igusa", "six", "json",
     "1a4f0fa3691a8a500744acfd0834f988bc9746e37571b1cca2f0726fae7f1ac6"),
    ("igusa", "six", "plain",
     "34f539afa7d2c883af74a5c3f5012319968eddded167a7d2ec8bda884b27ebde"),
    ("igusa", "six", "latex",
     "6ba96fe2c88fc241d8bb8fc2ec11b249c29f3924335577e6ae2eaf9fa04f9289"),
    ("bmu", "six", "json",
     "24f4909cc63106eedf6b66f2ba9726d637a5688f39f3baba4dce9f1ebf4e7d09"),
    ("bmu", "six", "plain",
     "5977717f313eecc8f3e92f87f4ac5f2fa0a2485a4313507a92d97c099696a3fe"),
    ("bprime", "six", "json",
     "1ce3ce3075a4fc1b4c1d96cc7b4ca9b3a25e3d0348dad22da0640e7be5b4fbd8"),
    ("bprime", "six", "plain",
     "072520f37d4823c1ba6a1f2656671effb70b3646e0ddd2f82df88bfb895dfbe7"),
    ("chi", "k5", "json",
     "85833aceed8c74633872e74d6a11ac1764b0166c560225477b17dc8fb724891f"),
    ("chi", "k5", "plain",
     "1f330dee050873103aa9690ad00f2ef02505214bf919a10491aa2cb98d9db256"),
    ("igusa", "k5", "json",
     "0004a6612910fbd6554fa3db03b4596b2146a0798eed6c9422d44dc7a17433f0"),
    ("igusa", "k5", "plain",
     "f8e264ab3276d11b6b55918a33e8d05ea6f0071def51c7622ad52ad00d1021e7"),
    ("igusa", "k5", "latex",
     "2754ccf978ed9fdbcdfefe40693e58c276d499e29b7bd6dbc362ec2d1cf5d36f"),
    ("bmu", "k5", "json",
     "5e6c73d8afbac47a4642c4fdbac47c15d3f6263858b7f51d9e6cf71e8eb77af2"),
    ("bmu", "k5", "plain",
     "e0a92a232ce21d437cb02814675173df7c93833f53c40001789d17032e13e8b8"),
    ("bprime", "k5", "json",
     "340e8176c360317da8b82da3e66705f69a4bc8acc37058bf48c9553d782c1040"),
    ("bprime", "k5", "plain",
     "2a257e02cfbdcdafdd00f684a2f19ebcb8db9f7de176c0b22efa460ee8003656"),
    ("quiver-limit", "c5", "json",
     "def360c749f82cc5e851af987ffa98ef7e5fd8644bac97e635b7f30bb8c7c507"),
    ("quiver-limit", "c5", "plain",
     "bc63d1446ffec3c7d285e5649e6696a83a4eaf2cba7418aaf99a29037ab0f759"),
    ("quiver-limit", "theta", "json",
     "5b8789aa59a93978e42636283011b24dc6a34cbb25c4f9c437478d7b8fc59c48"),
    ("quiver-limit", "theta", "plain",
     "81d372501a34f8c2bb995380fc8ea2d05f70359085ec05531a3d91fa7aa2e145"),
    ("quiver-limit", "k4", "json",
     "3da2fd800d43e5cb42fb9e92cd921136486c6262ea23e462cbfbc2c556984115"),
    ("quiver-limit", "k4", "plain",
     "bbdce2c234cdd8b94ddba109f56b6a03578b6eaf0446de72e869f920cd2da272"),
]


@pytest.mark.parametrize("command, name, fmt, digest", STDOUT_SHA256,
                         ids=["-".join(case[:3]) for case in STDOUT_SHA256])
def test_formatted_stdout_is_pinned(capsys, tmp_path, command, name, fmt,
                                    digest):
    import hashlib
    from amzeta.arrangement import graphic_arrangement
    from amzeta.reference import theta_quiver
    inputs = {"triangle": triangle(), "six": six_normals_rank3(),
              "k5": graphic_arrangement(complete_quiver(5)),
              "c5": cycle_quiver(5), "theta": theta_quiver(),
              "k4": complete_quiver(4)}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(inputs[name].to_json()))
    code, out, _ = run(capsys, command, str(path), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_unknown_option_rejected(capsys, triangle_file):
    code, _, _ = run(capsys, "igusa", triangle_file, "--bogus")
    assert code == 1
    code, _, _ = run(capsys, "--threads", "2", "igusa", triangle_file)
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["oracle", "triangle.json", "--alpha", "2"],
    ["quiver-indec", "cycle3.json", "--alpha", "1"],
    ["verify", "--suite", "oracle"],
])
def test_non_prime_p_rejected(capsys, tmp_path, argv):
    (tmp_path / "triangle.json").write_text(json.dumps(triangle().to_json()))
    (tmp_path / "cycle3.json").write_text(json.dumps(
        cycle_quiver(3).to_json()))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run(capsys, *argv, "--p", "4")
    assert code == 1 and out == "" and "4 is not prime" in err


def test_primality_test_agrees_with_trial_division():
    from math import isqrt
    from amzeta.errors import PRIME_TEST_BOUND, is_prime
    trial = [n for n in range(2, 10 ** 5)
             if all(n % d for d in range(2, isqrt(n) + 1))]
    assert [n for n in range(-2, 10 ** 5) if is_prime(n)] == trial
    # strong pseudoprimes to the first 9 and the first 12 prime bases
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert is_prime(10 ** 20 + 39) and is_prime(2 ** 61 - 1)
    with pytest.raises(ValueError):
        is_prime(PRIME_TEST_BOUND)


def test_large_p_parses_at_once_and_the_test_bound_is_refused(
        capsys, triangle_file):
    # a prime near 10^20 is accepted at parse time and refused by the
    # oracle's charge, not stalled on; psi_13 and above are parse errors
    code, out, err = run(capsys, "oracle", triangle_file, "--p",
                         str(10 ** 20 + 39), "--alpha", "1")
    assert code == 3 and out == "" and "budget allows" in err
    for p in ("3317044064679887385961981", str(10 ** 30 + 57)):
        code, out, err = run(capsys, "oracle", triangle_file, "--p", p,
                             "--alpha", "1")
        assert code == 1 and out == ""
        assert "not below 3317044064679887385961981" in err


def test_verify_paper_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "paper")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert all(c["status"] == "ok" for c in payload["checks"])


def test_verify_oracle_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "oracle",
                       "--p", "5", "--alpha", "2")
    assert code == 0
    assert json.loads(out)["failed"] == 0


def test_verify_oracle_suite_p7(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "oracle",
                       "--p", "7", "--alpha", "2")
    assert code == 0
    assert json.loads(out)["failed"] == 0


def test_verify_oracle_suite_depth_one(capsys):
    # the limit probe has a single distance at alpha = 1
    code, out, _ = run(capsys, "verify", "--suite", "oracle",
                       "--p", "5", "--alpha", "1")
    assert code == 0
    assert json.loads(out)["failed"] == 0


def test_verify_honours_the_budget(capsys):
    # every check of the paper suite is refused at one step, its lattices,
    # walks and partition sums alike, each shows its refusal, and the call
    # exits 3
    code, out, _ = run(capsys, "--budget", "1", "verify", "--suite", "paper")
    assert code == 3
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert all(c["status"] == "REFUSED" and "needs" in c["detail"]
               and "budget allows 1" in c["detail"]
               for c in payload["checks"])
    # one step short of the first rank-2 class, p(2) (2^2 + 1) = 10 steps,
    # after the rank-1 class's 2: the odr check passes the budget on
    code, out, _ = run(capsys, "--budget", "9", "verify", "--suite", "paper")
    details = {c["check"]: c.get("detail") for c in json.loads(out)["checks"]}
    assert details["open de Rham rank-2 family"] == (
        "open de Rham sum needs 10 steps, budget allows 9")
    code, out, _ = run(capsys, "--budget", "1", "verify", "--suite",
                       "properties")
    assert code == 3
    payload = json.loads(out)
    assert all(c["status"] == "REFUSED" for c in payload["checks"])
    assert all(c["status"] == "REFUSED" for c in payload["conjectures"])


def test_verify_properties_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "properties")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert [c["status"] for c in payload["checks"]] == ["ok"] * 20
    assert [c["status"] for c in payload["conjectures"]] == ["observed"] * 2


def test_verify_prints_each_checks_cpu_time_on_stderr(capsys):
    # one stderr line per check and conjecture, in the stdout order: its
    # status, its CPU time in ms, its name
    for argv in (["verify", "--suite", "properties"],
                 ["--budget", "1", "verify", "--suite", "paper"]):
        _, out, err = run(capsys, *argv)
        payload = json.loads(out)
        entries = payload["checks"] + payload["conjectures"]
        lines = err.splitlines()
        assert len(lines) == len(entries)
        for line, entry in zip(lines, entries):
            match = re.fullmatch(r"(\S+) +(\d+\.\d) ms  (.+)", line)
            assert match and match[1] == entry["status"]
            assert match[3].startswith(entry.get("check")
                                       or entry["conjecture"])


def test_verify_fails_under_optimize():
    # a wrong reference value must fail the check even when python -O
    # strips assert statements
    script = (
        "import sys\n"
        "from amzeta import cli, reference\n"
        "assert False, 'assert statements are not stripped'\n"
        "reference.a_limit_cycle = lambda k: reference.EULERIAN[k]\n"
        "sys.exit(cli.main(['verify', '--suite', 'paper']))\n")
    src = os.path.dirname(os.path.dirname(amzeta.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["failed"] == 1
    failed = [c for c in payload["checks"] if c["status"] == "FAIL"]
    assert failed == [{"check": "indecomposable count limits",
                       "status": "FAIL", "detail": "limit of the 3-cycle"}]


# Each subcommand once in a fresh interpreter, with the amzeta modules it
# loaded: pytest has imported every module already, so only a new process
# shows a handler's missing import, an import cycle, or a layer loaded that
# the call does not run.  Only verify loads the whole package.
BASE_MODULES = {"arrangement", "cli", "errors", "exact_algebra"}
ALL_MODULES = {name for _, name, _ in pkgutil.iter_modules(amzeta.__path__)}
QUIVER = {"quiver_reps", "quiver_varieties"}
FRESH_CALLS = [
    (["lattice", "tri.json"], 0, set()),
    (["chi", "tri.json"], 0, set()),
    (["mobius", "tri.json"], 0, set()),
    (["hypertoric", "tri.json"], 0, {"hypertoric"}),
    (["nakajima", "c3.json", "--w", "1,0,0", "--depth", "1"], 0,
     {"quiver_varieties"}),
    (["odr", "--n", "2", "--orders", "2,2"], 0,
     {"open_derham", "quiver_varieties"}),
    (["igusa", "tri.json"], 0, {"igusa"}),
    (["poles", "tri.json"], 0, {"igusa"}),
    (["bmu", "tri.json"], 0, {"igusa", "residues"}),
    (["bprime", "tri.json"], 0, {"igusa", "residues"}),
    (["quiver-indec", "c3.json", "--alpha", "1", "--p", "3"], 0, QUIVER),
    (["quiver-limit", "c3.json"], 0, QUIVER),
    (["check-lastone", "c3.json"], 0, QUIVER | {"igusa", "residues"}),
    (["oracle", "tri.json", "--p", "5", "--alpha", "1"], 0,
     {"igusa", "padic_oracle", "residues"}),
    (["verify", "--suite", "paper"], 0, ALL_MODULES),
    (["verify", "--suite", "nope"], 1, ALL_MODULES),
]
# the calls that evaluate nothing at a rational point load no fractions
NO_FRACTIONS = {"lattice", "chi", "mobius", "hypertoric", "igusa", "poles",
                "bmu", "bprime", "nakajima", "quiver-limit", "check-lastone"}
_CHILD = (
    "import json, sys\n"
    "from amzeta.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps(sorted(m[7:] for m in sys.modules\n"
    "                        if m.startswith('amzeta.'))), file=sys.stderr)\n"
    "print(json.dumps('fractions' in sys.modules), file=sys.stderr)\n"
    "sys.exit(code)\n")


def test_fresh_calls_cover_every_subcommand():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv, _, _ in FRESH_CALLS} == set(sub.choices)


@pytest.mark.parametrize("argv, code, layers", FRESH_CALLS,
                         ids=[" ".join(c[0][:3]) for c in FRESH_CALLS])
def test_fresh_call_loads_only_its_layers(tmp_path, argv, code, layers):
    (tmp_path / "tri.json").write_text(json.dumps(triangle().to_json()))
    (tmp_path / "c3.json").write_text(json.dumps(cycle_quiver(3).to_json()))
    src = os.path.dirname(os.path.dirname(amzeta.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env,
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    *_, loaded, fractions = proc.stderr.splitlines()
    assert set(json.loads(loaded)) == BASE_MODULES | layers
    if argv[0] in NO_FRACTIONS:
        assert not json.loads(fractions)
