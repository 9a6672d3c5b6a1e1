"""Self-tests of the benchmark: determinism, seeding, tracing coverage and
agreement between BENCHMARK.json and the metrics run.py prints.

Each workload runs in a reduced form (a few small jobs), once untraced and
once traced per run, so these tests take tens of seconds, not minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import calibrate
import run
import workloads as wl

ROOT = os.path.dirname(run.HERE)
SEED = 5
STARTUP_S = 1.0  # generous bound on one traced child's time outside any span


def _layer_counts(metrics: dict) -> dict:
    """The per-layer metrics that must repeat exactly: everything but times."""
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] in ("count", "bits") or k == "groebner.buchberger.hit_ratio"}


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_reduced_run_is_deterministic(name):
    first = run.run_workload(name, SEED, 0, True, ROOT, reduced=True)
    second = run.run_workload(name, SEED, 0, True, ROOT, reduced=True)
    for result in (first, second):
        assert result["correct"], result["failures"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(run.PER_LAYER)
    assert first["outputs"] == second["outputs"]
    m = first["metrics"]
    assert all(v["value"] >= 0 for k, v in m.items() if k.endswith(".self_s"))
    # outside the spans a traced child only starts, imports and exits
    workload = wl.WORKLOADS[name](SEED, True)
    children = 1 if workload.sweep is not None else len(workload.jobs)
    assert m["other.self_s"]["value"] <= STARTUP_S * children
    counts = _layer_counts(m)
    assert counts == _layer_counts(second["metrics"])
    assert any(counts.values())


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_seed_changes_inputs(name):
    def inputs(seed):
        w = wl.WORKLOADS[name](seed)
        return w.files, [job.argv for job in w.jobs], w.sweep

    assert inputs(SEED) == inputs(SEED)
    assert inputs(SEED) != inputs(SEED + 1)


def test_tracer_sees_every_buchberger_run(tmp_path):
    """Every computed basis is built by ``buchberger``, so the traced run
    count must equal the number of GroebnerBasis objects created, although
    most calls reach ``buchberger`` through names imported by other modules."""
    (tmp_path / "fam.ideal").write_text(wl.FAMILY_IDEAL, encoding="utf-8")
    trace_out = tmp_path / "trace.json"
    code = (
        "import sys, gentrop.groebner as g\n"
        "built = []\n"
        "init = g.GroebnerBasis.__init__\n"
        "def counting(self, *a):\n"
        "    built.append(1)\n"
        "    init(self, *a)\n"
        "g.GroebnerBasis.__init__ = counting\n"
        f"sys.path.insert(0, {run.HERE!r})\n"
        "import child\n"
        "child.cli(sys.argv[1], sys.argv[2:])\n"
        "print(len(built), file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-c", code, str(trace_out), "verify", "fam.ideal", "--target", "Wnmt"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    built = int(done.stderr.strip().splitlines()[-1])
    counts = json.loads(trace_out.read_text(encoding="utf-8"))["counts"]
    runs = sum(counts.get(f"groebner.buchberger.{k}.runs", 0) for k in ("grevlex", "weighted"))
    assert runs == built > 0


def test_sampler_scales_by_slices_during_the_work():
    with calibrate.Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 1.0:
            pass
    record = sampler.finish()
    assert len(record["slices"]) >= calibrate.MIN_DURING and record["after"] == []
    assert record["paused"] == sum(record["slices"]) > 0
    factors = [calibrate.REFERENCE_SLICE_S / t for t in record["slices"]]
    assert min(factors) <= calibrate.scale(record) <= max(factors)
    # work too short for the slices to sample it is scaled by later ones
    with calibrate.Sampler() as sampler:
        pass
    record = sampler.finish()
    assert record["slices"] == [] and len(record["after"]) == calibrate.AFTER


def test_benchmark_json_matches_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert spec["run_seconds"] == wl.RUN_SECONDS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_a_tree_without_the_package(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "wide-fan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
