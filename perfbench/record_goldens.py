"""Record the golden reports of the CLI workloads into goldens.json.

    python3 perfbench/record_goldens.py

Run from the root of a checkout whose reports are known to be right.  For
each CLI job it stores the exit code and the sha256 of the report at every
workload seed in GOLDEN_SEEDS, the seeds the benchmark is run at.  For jobs
whose input file does not depend on the workload seed it also stores the
sha256 of the report without its ``seed`` key, which must be the same at
every recorded seed: those answers must not depend on the CLI seed, so any
seed is checked against it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads as wl

CLI_WORKLOADS = ("fan-probe", "coeff-growth", "wide-fan")
SEED_FREE_INPUTS = ("fan-probe", "wide-fan")
GOLDEN_SEEDS = range(11)


def run_jobs(name: str, seed: int, root: str) -> dict:
    """Exit code and stdout of each job of the workload, run once."""
    workload = wl.WORKLOADS[name](seed)
    work = run.work_dir(root, "goldens")
    try:
        bench = run.Bench(workload, seed, 0, False, root, work)
        bench.write_inputs()
        out = {}
        for job in workload.jobs:
            p = bench.run_cli(job, job.name, os.path.join(work, f"{job.name}.cal"))
            if p.code != job.exit_code:
                raise SystemExit(f"{name}/{job.name}: exit {p.code}, expected {job.exit_code}")
            out[f"{name}/{job.name}"] = (p.code, p.stdout)
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    root = os.getcwd()
    jobs = {}
    for name in CLI_WORKLOADS:
        for seed in GOLDEN_SEEDS:
            for key, (code, stdout) in run_jobs(name, seed, root).items():
                entry = jobs.setdefault(key, {"exit": code, "stdout_sha256": {}})
                entry["stdout_sha256"][str(seed)] = run.sha256(stdout)
                if name in SEED_FREE_INPUTS:
                    digest = run.normalized_digest(json.loads(stdout))
                    if entry.setdefault("normalized_sha256", digest) != digest:
                        raise SystemExit(f"{key}: report depends on the CLI seed")
            print(name, seed, flush=True)
    with open(run.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump({"jobs": jobs}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
