"""Measure the benchmark's spread and write perfbench/baseline.json.

    python3 perfbench/baseline.py

Run from the root of a checkout.  For each workload of BENCHMARK.json it
runs ``perfbench/run.py`` once per seed (seeds 1..10, untraced) and reports
each end-to-end metric's median, quartiles (``statistics.quantiles(n=4)``)
and spread, the distance between the quartiles as a share of the median,
next to the metric's bound from BENCHMARK.json.  It adds one traced run per
workload (seed 1), the fan-probe jobs timed one by one five times each at
workload seed 0, and an environment block: nproc, Python, platform, CPU
model, git commit.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import run
import workloads as wl

ROOT = os.getcwd()
SPEC = os.path.join(ROOT, "BENCHMARK.json")
OUT = os.path.join(run.HERE, "baseline.json")
SEEDS = list(range(1, 11))
JOB_REPEATS = 5


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{done.stderr}")
    return result


def spread_row(values: list, bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    row = {"median": statistics.median(values), "q1": q1, "q3": q3,
           "spread": (q3 - q1) / statistics.median(values), "values": values}
    if bound is not None:
        row["bound"] = bound
    return row


def job_rows() -> dict:
    """Each fan-probe job (the baseline table) timed alone, JOB_REPEATS
    times, in reference-host seconds like ``wall_s``."""
    workload = wl.fan_probe(0)
    work = run.work_dir(ROOT, "baseline")
    rows = {}
    try:
        b = run.Bench(workload, 0, 0, False, ROOT, work)
        b.write_inputs()
        for job in workload.jobs:
            walls, rss = [], 0.0
            for i in range(JOB_REPEATS):
                tag = f"{job.name}-{i}"
                cal_out = os.path.join(work, f"{tag}.cal")
                p = b.run_cli(job, tag, cal_out)
                if p.code != job.exit_code:
                    raise SystemExit(f"{job.name}: exit {p.code}")
                walls.append(run.scaled_time(p, run.read_json(cal_out)))
                rss = max(rss, p.rss_mb)
            rows["gentrop " + " ".join(job.argv[:-2])] = dict(
                spread_row(walls, None), unit="s", exit=job.exit_code, peak_rss_mb=rss)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return rows


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "cpu_model": cpu, "git_commit": commit}


def main() -> int:
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"environment": dict(environment(), workload_seeds=SEEDS, run_seconds=seconds),
           "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        values: dict = {}
        attempted = 0
        for seed in SEEDS:
            result = bench(name, seed, seconds, 0)
            attempted += result["attempted"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        traced = bench(name, SEEDS[0], seconds, 1)
        out["workloads"][name] = {
            "attempted": attempted,
            "end_to_end": {k: spread_row(v, bounds[k]) for k, v in values.items()},
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for k, row in out["workloads"][name]["end_to_end"].items():
            print(f"  {k:14s} median {row['median']:10.4f} spread {row['spread']:.3f} "
                  f"(bound {row['bound']})", flush=True)
    out["jobs"] = job_rows()
    for k, row in out["jobs"].items():
        print(f"  {k:50s} median {row['median']:.3f}s spread {row['spread']:.3f}", flush=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
