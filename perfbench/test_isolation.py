"""Job isolation and tracer checks for the benchmark itself.

    python3 -m pytest -q perfbench/test_isolation.py

Takes about half a minute: the frontier test runs ``hypertoric K7-C5``
four times.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402


@pytest.fixture(scope="module")
def lattice_jobs():
    scratch = os.path.join(run.ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="test-", dir=scratch)
    try:
        _, jobs = run.setup("lattice", 1, directory)
        yield directory, {job["id"]: job for job in jobs}
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _job(directory, job, trace=False):
    args = ["job", directory, json.dumps(job)] + (["--trace"] if trace
                                                   else [])
    cpu, _, out, timed_out = run._spawn(args, timeout=run.FRONTIER_CAP_S)
    assert not timed_out
    return cpu, json.loads(out)


def test_frontier_repeats_agree(lattice_jobs):
    """A second run of the frontier job must not reuse the first one's
    structural-flags cache: both do the full minor enumeration (about half
    of the job), so the second is not faster by more than the bound."""
    directory, jobs = lattice_jobs
    job = jobs["hypertoric K7-C5"]
    _, traced1 = _job(directory, job, trace=True)
    _, traced2 = _job(directory, job, trace=True)
    calls1, calls2 = traced1["trace"]["calls"], traced2["trace"]["calls"]
    assert calls1["arrangement.int_det"] > 0
    assert calls1 == calls2
    first, rep1 = _job(directory, job)
    second, rep2 = _job(directory, job)
    assert rep1["rc"] == rep2["rc"] == 0
    assert rep1["sha256"] == rep2["sha256"] == traced1["sha256"]
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        bound = {m["name"]: m["bound"] for m in
                 json.load(handle)["end_to_end"]}["frontier_s"]
    assert second >= (1 - bound) * first


def test_warm_flags_cache_is_refused(lattice_jobs):
    import worker
    from amzeta import arrangement
    directory, jobs = lattice_jobs
    arrangement._FLAGS_CACHE[((1,),)] = {}
    try:
        with pytest.raises(AssertionError):
            worker.run_job(jobs["chi K6"])
    finally:
        arrangement._FLAGS_CACHE.clear()


def test_untraced_job_installs_no_wrapper(lattice_jobs):
    import worker
    from amzeta import arrangement, cli, igusa
    directory, jobs = lattice_jobs
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        report = worker.run_job(jobs["chi K6"])
    finally:
        os.chdir(cwd)
    assert report["rc"] == 0 and "trace" not in report
    for fn in (cli.build_lattice, igusa.build_lattice,
               arrangement.FlatLattice.mobius, cli.main):
        assert not hasattr(fn, "__wrapped__")


def test_trace_counts_repeat_and_reach_every_namespace(lattice_jobs):
    directory, jobs = lattice_jobs
    _, rep1 = _job(directory, jobs["hypertoric K6"], trace=True)
    _, rep2 = _job(directory, jobs["hypertoric K6"], trace=True)
    _, plain = _job(directory, jobs["hypertoric K6"])
    assert rep1["sha256"] == rep2["sha256"] == plain["sha256"]
    t1, t2 = rep1["trace"], rep2["trace"]
    assert t1["calls"] == t2["calls"] and t1["counters"] == t2["counters"]
    calls = t1["calls"]
    # build_lattice is reached through cli's from-import
    assert calls["arrangement.build_lattice"] == 1
    assert calls["arrangement.structural_flags"] >= 1
    assert calls["arrangement.int_det"] > 0
    assert calls["hypertoric.hypertoric_class"] == 1
    assert t1["counters"]["flats"] == 203
    assert t1["counters"]["comparable_pairs"] > 203
    assert sum(t1["self_s"].values()) <= t1["incl"]["cli.main"] * 1.01
