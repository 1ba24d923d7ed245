"""Record the exit code and stdout sha256 of every job of one pass.

    python3 perfbench/record.py --workload zeta --seed 1 [--seed 2 ...]

Writes into perfbench/expected.json, keyed by job id and input digest.
Run it only at a commit whose outputs are the reference; a job whose
recorded outcome already exists and differs is reported, not overwritten.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))

import checks  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    args = parser.parse_args()
    path = os.path.join(run.HERE, "expected.json")
    with open(path) as handle:
        expected = json.load(handle)
    conflicts = 0
    for seed in args.seed:
        directory = os.path.join(run.ROOT, ".perfbench",
                                 f"record-{args.workload}-{seed}")
        try:
            _, jobs = run.setup(args.workload, seed, directory)
            results, _ = run.run_pass(jobs, directory, False,
                                      time.perf_counter())
            for job, res in zip(jobs, results):
                if res.get("timeout") or res.get("error"):
                    print(f"not recorded: {job['id']}", file=sys.stderr)
                    continue
                key = checks.job_key(job, directory)
                entry = {"rc": res["rc"], "sha256": res["sha256"]}
                if key in expected and expected[key] != entry:
                    conflicts += 1
                    print(f"differs from record: {key}", file=sys.stderr)
                    continue
                expected[key] = entry
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    with open(path, "w") as handle:
        json.dump(expected, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 1 if conflicts else 0


if __name__ == "__main__":
    sys.exit(main())
