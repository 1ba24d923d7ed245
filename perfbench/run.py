"""amzeta benchmark: closed-loop passes over a workload's job ladder.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 42 --trace 0

Run it from the root of a checkout.  One client runs the workload's jobs
one at a time, each in a fresh ``perfbench/worker.py`` process, and starts
the next only when the previous has exited, so at most two processes
exist.  A pass runs every ladder job once and the frontier job ``runs``
times (see ``workloads.py``), spread through the pass.  Passes repeat while another fits in
``--seconds`` (at least MIN_PASSES).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes one
untraced pass and one traced pass and prints the per-layer metrics of the
traced pass, with ``trace.overhead_ratio`` the ratio of their wall times.
Outputs are checked after each pass, outside the timed region.  The last
line of stdout is the result object; spans of a traced pass are written to
``.perfbench/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

# a set-up runs SETUP_FIRST times before the first pass and once before
# each later pass; setup_s is the median of them
SETUP_FIRST = 3
# the host's speed drifts by a third over tens of seconds, so a run takes
# the median of several passes
MIN_PASSES = 3
# a failed or refused job is charged its cap in frontier_s / ladder_s
FRONTIER_CAP_S = 120.0
LADDER_CAP_S = 15.0
# no job starts, and a running job is stopped, past this point of a run,
# so that the run ends within 180 s; the rest is charged its cap
RUN_DEADLINE_S = 160.0


def _median(values):
    return statistics.median(values) if values else 0.0


def _source_digest() -> str:
    """Digest of the package sources measured (the checkout may not be a
    git repository)."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "amzeta")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + handle.read())
    return digest.hexdigest()[:16]


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class WorkerError(RuntimeError):
    """A worker process died instead of reporting."""


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _spawn(args, timeout):
    """Run one worker process to completion; returns (cpu seconds, wall
    seconds, stdout, timed_out).

    The time charged to a job is the CPU time (user + system) of its
    process, start-up and import included.  Jobs are single-threaded and
    run alone, so this is their latency without the time the host gives
    to other tenants, which on a shared machine spreads wall time several
    times more widely."""
    cpu0, start = _children_cpu(), time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, time.perf_counter() - start, None, True
    except BaseException:
        # interrupted (SIGTERM is turned into SystemExit by main): the job
        # must not outlive the benchmark
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: "
                          + err.decode()[-400:])
    return _children_cpu() - cpu0, wall, out.decode(), False


def setup(workload, seed, directory, repeats=1):
    """Seeded input generation, input files and the amzeta import, done
    ``repeats`` times in fresh processes; returns (CPU seconds of each,
    jobs)."""
    times = []
    for _ in range(repeats):
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        cpu, _, _, _ = _spawn(["setup", workload, str(seed), directory],
                              timeout=120)
        times.append(cpu)
    with open(os.path.join(directory, "jobs.json")) as handle:
        return times, json.load(handle)


def run_job(job, directory, trace, run_start):
    cap = FRONTIER_CAP_S if job["frontier"] else LADDER_CAP_S
    left = RUN_DEADLINE_S - (time.perf_counter() - run_start)
    if left <= 0:
        return {"latency": cap, "skipped": True}
    args = ["job", directory, json.dumps(job)]
    if trace:
        args.append("--trace")
    try:
        cpu, wall, out, timed_out = _spawn(args, timeout=min(cap, left))
    except WorkerError as exc:
        return {"latency": cap, "error": str(exc)}
    if timed_out:
        return {"latency": cap, "wall": wall, "timeout": True}
    report = json.loads(out)
    report["latency"], report["wall"] = cpu, wall
    return report


def _combine(runs):
    """One report for the runs of a frontier job in a pass."""
    failed = [r for r in runs if "rc" not in r]
    if failed:
        return failed[0]
    report = dict(runs[0], latencies=[r["latency"] for r in runs])
    if any((r["rc"], r["sha256"]) != (report["rc"], report["sha256"])
           for r in runs):
        report["error"] = "runs of the frontier job gave different outputs"
    return report


def run_pass(jobs, directory, trace, run_start):
    """One pass: the frontier job ``runs`` times at evenly spaced points,
    the first before the ladder; returns the reports in job order and the
    pass's wall seconds."""
    fi = next(i for i, job in enumerate(jobs) if job["frontier"])
    ladder = [i for i in range(len(jobs)) if i != fi]
    count = jobs[fi]["runs"]
    marks = [round(len(ladder) * j / count) for j in range(count)]
    results = [None] * len(jobs)
    runs = []
    pass_start = time.perf_counter()
    for pos in range(len(ladder) + 1):
        runs += [run_job(jobs[fi], directory, trace, run_start)
                 for mark in marks if mark == pos]
        if pos < len(ladder):
            i = ladder[pos]
            results[i] = run_job(jobs[i], directory, trace, run_start)
    results[fi] = _combine(runs)
    return results, time.perf_counter() - pass_start


def _samples(job, res):
    """Latencies of one job in one pass; a failed job is charged its cap."""
    if res["failed"]:
        return [FRONTIER_CAP_S if job["frontier"] else LADDER_CAP_S]
    return res.get("latencies", [res["latency"]])


def timing_metrics(jobs, passes):
    """frontier_s: mean over every run of the frontier job in the run;
    ladder_s: median over the passes of the summed latency of the other
    jobs; peak_rss_mb: median over the passes of the highest ru_maxrss of
    any job process.

    A pass sum already averages the host's speed over the whole pass; a
    frontier run samples one moment of it, and the mean over the run's
    frontier runs averages those moments where a median would take the
    speed of whichever phase held most of them."""
    frontier, ladder = [], []
    for results in passes:
        ladder.append(0.0)
        for job, res in zip(jobs, results):
            if job["frontier"]:
                frontier += _samples(job, res)
            else:
                ladder[-1] += _samples(job, res)[0]
    peak = _median([max(res.get("maxrss_kb", 0) for res in results)
                    for results in passes])
    return statistics.fmean(frontier), _median(ladder), peak / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run_start = time.perf_counter()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "amzeta", "cli.py")):
        print("error: no amzeta sources under src/amzeta in this checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".perfbench")
    directory = os.path.join(
        out_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_times, jobs = setup(args.workload, args.seed, directory,
                                  SETUP_FIRST)
        import checks

        passes = []          # (results, wall seconds), untraced
        while True:
            results, wall = run_pass(jobs, directory, False, run_start)
            checks.judge(jobs, results, directory)
            passes.append((results, wall))
            longest = max(w for _, w in passes)
            if args.trace or len(passes) >= MIN_PASSES and \
                    time.perf_counter() - run_start + longest > args.seconds:
                break
            more, _ = setup(args.workload, args.seed, directory)
            setup_times += more
        traced = None
        if args.trace:
            traced = run_pass(jobs, directory, True, run_start)
            checks.judge(jobs, traced[0], directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    every_pass = [results for results, _ in passes]
    if traced:
        every_pass.append(traced[0])
    judged = [(job, res) for results in every_pass
              for job, res in zip(jobs, results)]
    attempted = len(judged)
    failed = sum(1 for _, res in judged if res["failed"])
    correct = not any(res["incorrect"] for _, res in judged)
    failures = sorted({(job["id"], res["why"]) for job, res in judged
                       if res["failed"]})
    print(json.dumps({"provenance": {
        "workload": args.workload, "seed": args.seed,
        "git_sha": _git_sha(), "source_digest": _source_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "jobs_per_pass": len(jobs),
        "pass_wall_s": [wall for _, wall in passes],
        "traced_pass_wall_s": traced[1] if traced else None,
        "error_rate": failed / attempted,
        "latency_s": {job["id"]: [x for results, _ in passes
                                  for x in _samples(job, results[i])]
                      for i, job in enumerate(jobs)},
        "failures": [{"job": j, "cause": why} for j, why in failures]}}))

    if args.trace:
        import tracer
        reports = [res["trace"] for res in traced[0] if "trace" in res]
        overhead = traced[1] / _median([wall for _, wall in passes])
        metrics = tracer.layer_metrics(tracer.merge(reports), overhead)
        os.makedirs(out_dir, exist_ok=True)
        spans = [{"job": job["id"], "spans": res["trace"]["spans"]}
                 for job, res in zip(jobs, traced[0]) if "trace" in res]
        with open(os.path.join(out_dir, f"trace-{args.workload}-"
                               f"{args.seed}.json"), "w") as handle:
            json.dump(spans, handle)
    else:
        frontier, ladder, peak = timing_metrics(
            jobs, [results for results, _ in passes])
        metrics = {
            "setup_s": {"value": _median(setup_times), "unit": "s"},
            "frontier_s": {"value": frontier, "unit": "s"},
            "ladder_s": {"value": ladder, "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
            "success_rate": {"value": 1.0 - failed / attempted,
                             "unit": "ratio"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
