"""Child process of the benchmark: one set-up or one job per process.

    python3 perfbench/worker.py setup WORKLOAD SEED DIR
    python3 perfbench/worker.py job DIR JOB_JSON [--trace]

``setup`` imports amzeta, writes the workload's inputs into DIR and the job
list to DIR/jobs.json.  ``job`` runs one job with DIR as working directory,
so each job pays what a fresh ``amz`` invocation pays: interpreter start,
import, a cold ``_FLAGS_CACHE``.  The job's stdout and stderr are captured;
the worker's own stdout carries a single JSON report for the parent.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def _load_arrangement(path):
    from amzeta.arrangement import Arrangement
    with open(path) as handle:
        return Arrangement.from_json(json.load(handle))


def _call_b_mu_via_residue(path):
    from amzeta.arrangement import build_lattice
    from amzeta.igusa import igusa_chain
    from amzeta.residues import b_mu_via_residue
    arr = _load_arrangement(path)
    zeta = igusa_chain(arr, build_lattice(arr))
    return b_mu_via_residue(zeta, arr.m).to_json()


def _call_count_moment_fiber(path, p):
    from amzeta.arrangement import build_lattice
    from amzeta.hypertoric import count_moment_fiber, find_generic_xi
    arr = _load_arrangement(path)
    lat = build_lattice(arr)
    xi = find_generic_xi(arr, lat, p)
    return {"p": p, "xi": list(xi),
            "count": str(count_moment_fiber(arr, lat, p, xi))}


def _call_count_complement_Fq(path, p):
    from amzeta.arrangement import count_complement_Fq
    return {"p": p, "count": str(count_complement_Fq(
        _load_arrangement(path), p))}


# public functions that have no subcommand; output formatted as amz does
CALLS = {
    "b_mu_via_residue": _call_b_mu_via_residue,
    "count_moment_fiber": _call_count_moment_fiber,
    "count_complement_Fq": _call_count_complement_Fq,
}


def run_job(job: dict, tracer=None) -> dict:
    from amzeta import arrangement, cli
    from amzeta.errors import AmzError
    if getattr(arrangement, "_FLAGS_CACHE", None):
        raise AssertionError("a job must start with a cold _FLAGS_CACHE")
    out, err = io.StringIO(), io.StringIO()
    report = {"rc": None, "error": None}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if "argv" in job:
                report["rc"] = cli.main(job["argv"])
            else:
                name, *args = job["call"]
                try:
                    payload = CALLS[name](*args)
                except AmzError as exc:
                    # the same mapping amz applies to a failed subcommand
                    print(f"error: {exc}", file=sys.stderr)
                    report["rc"] = exc.exit_code
                else:
                    print(json.dumps(payload, sort_keys=True, indent=2))
                    report["rc"] = 0
        except Exception:  # the job raised past amz's own handler
            report["error"] = traceback.format_exc(limit=4)
    text = out.getvalue()
    report["stdout"] = text
    report["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    report["stderr_tail"] = err.getvalue()[-400:]
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report["trace"] = tracer.finish(len(text.encode()))
    return report


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        import workloads
        workload, seed, directory = argv[1], int(argv[2]), argv[3]
        jobs = workloads.build(workload, seed, directory)
        with open(os.path.join(directory, "jobs.json"), "w") as handle:
            json.dump(jobs, handle)
        return 0
    if mode == "job":
        directory, job = argv[1], json.loads(argv[2])
        tracer = None
        if "--trace" in argv[3:]:
            import tracer as tracer_module
            tracer = tracer_module.Tracer()
            tracer.install()
        os.chdir(directory)
        report = run_job(job, tracer)
        sys.stdout.write(json.dumps(report))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
