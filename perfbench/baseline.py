"""Stage times of the ROADMAP baseline rows, read from traced-run span files.

    python3 perfbench/baseline.py .perfbench/trace-zeta-1.json [...]

Prints one line per (job, stage) for the jobs whose inputs are baseline
rows: the summed duration of the stage's outermost spans in that job.
Times come from a traced pass, so they carry the tracer's overhead.
"""

from __future__ import annotations

import json
import sys

STAGES = {
    "arrangement.build_lattice": "lattice",
    "arrangement.structural_flags": "flags",
    "igusa.igusa_chain": "igusa_chain",
    "residues.b_prime": "b_prime",
    "quiver_varieties.nakajima_gf": "nakajima_gf",
    "quiver_reps.a_gamma_limit": "a_gamma_limit",
}

JOBS = ("lattice K6", "igusa K6", "bprime rand-r3n13")


def stage_times(spans):
    """Outermost span time per stage key (nested same-key spans once)."""
    by_id = {sid: (parent, key) for sid, parent, key, _, _ in spans}
    out = {}
    for sid, parent, key, start, end in spans:
        if key not in STAGES:
            continue
        up = parent
        while up is not None and by_id[up][1] != key:
            up = by_id[up][0]
        if up is None:
            out[STAGES[key]] = out.get(STAGES[key], 0.0) + end - start
    return out


def main(paths) -> int:
    for path in paths:
        with open(path) as handle:
            jobs = json.load(handle)
        for entry in jobs:
            if entry["job"] in JOBS:
                for stage, seconds in sorted(
                        stage_times(entry["spans"]).items()):
                    print(f"{entry['job']:24} {stage:14} {seconds:8.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
