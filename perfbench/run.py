"""gentrop benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package under test is imported from
``src/`` there, and working files go to ``.perfbench_work/`` there.  The
runner is one process running a closed loop with one client: every job (a
CLI process, or one child answering tropical-sweep queries) starts after the
previous one has ended, and no threads are used.

A run writes the workload's generated ideal files, measures set-up (a fresh
interpreter importing gentrop and parsing those files), then runs a fixed
schedule of rounds: round r runs every job whose repeat count exceeds r, or
one tropical-sweep pass.  The repeat counts come from ``workloads.py``,
scaled by ``--seconds`` over ``workloads.RUN_SECONDS``, so how much a run
does never depends on how fast the code is.  One set-up probe follows every
round.  Every job output is checked.  With ``--trace 1`` the run is one
untraced round and one traced round of every job, and the per-layer
metrics come from the traced one.  A run still going after RUN_LIMIT_S
seconds is cut off, and the samples it did not take count as failed.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

End-to-end metrics (``--trace 0``).  Every measured time is scaled to
reference-host speed by the calibration slices its own process ran during
and after the measured work (see ``calibrate.py``): the host's speed drifts
by up to half for tens of seconds at a time, and the scaling takes that out.

    wall_s        time to finish the workload's job list, set-up excluded:
                  the sum over CLI jobs of each job's median time from spawn
                  to the end of ``main``, or on tropical-sweep the median
                  time of a pass of all queries; calibration slices excluded
    setup_s       median time from spawn of a fresh interpreter to the end
                  of importing gentrop and parsing the workload's ideal files
    peak_rss_mb   largest resident set of any job process (its own rusage)

A failed query (wrong report, wrong exit code, crash or timeout) counts in
``failed``; ``failed / attempted`` is the failure fraction.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import BUCHBERGER_KINDS, MODULES  # noqa: E402

GOLDENS = os.path.join(HERE, "goldens.json")
SETUP_PROBES = 3  # before the first round; one more follows every round
JOB_TIMEOUT_S = 120.0
RUN_LIMIT_S = 170.0  # every job is cut off so the whole run ends before this

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer_metrics() -> dict:
    """Name -> unit of every metric a traced run reports."""
    out = {"cli.parse_ideal_file.calls": "count", "cli.parse_ideal_file.s": "s"}
    timed = [
        "poly.parse_polynomial", "poly.initial_form",
        "groebner.saturate", "groebner.contains_monomial", "groebner.initial_ideal",
        "generic.apply_transform", "generic.random_transform", "generic.gin",
        "generic.cone_constancy", "generic.adjacent_distinct", "generic.tropical_member",
        "invariants.dimension", "invariants.hilbert", "invariants.minimalize",
        "invariants.is_strongly_stable", "fans.interior_points",
        "tropmult.intrinsic_multiplicity", "tropmult.topdim_monomial_free",
    ]
    for name in timed:
        out[f"{name}.calls"] = "count"
        out[f"{name}.s"] = "s"
    for kind in BUCHBERGER_KINDS:
        for what, unit in (("runs", "count"), ("hits", "count"), ("s", "s")):
            out[f"groebner.buchberger.{kind}.{what}"] = unit
    out.update({
        "groebner.buchberger.hit_ratio": "ratio",
        "groebner.basis_len.max": "count",
        "groebner.basis_degree.max": "count",
        "groebner.coeff_bits.max": "bits",
        "generic.apply_transform.distinct": "count",
        "generic.escalations": "count",
        "generic.failures": "count",
        "fans.cones.enumerated": "count",
        "fans.enumerate.s": "s",
    })
    for module in MODULES + ("other",):
        out[f"{module}.self_s"] = "s"
    out["trace.wall_s"] = "s"
    out["trace.overhead_frac"] = "ratio"
    return out


PER_LAYER = _per_layer_metrics()


class Proc:
    """Outcome of one child process: exit code (None on timeout),
    ``perf_counter`` reading at spawn, wall seconds from spawn to reap, peak
    RSS from its own rusage, and output."""

    def __init__(self, code, start, wall, rss_mb, stdout: bytes, stderr: bytes):
        self.code, self.start, self.wall, self.rss_mb = code, start, wall, rss_mb
        self.stdout, self.stderr = stdout, stderr


class Bench:
    def __init__(self, workload: wl.Workload, seed: int, seconds: float, trace: bool,
                 root: str, work: str):
        self.w, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.root, self.work = root, work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures: list = []   # one line per failed job or query
        self.outputs: dict = {}    # job name -> stdout sha256 of its first run
        self.latencies: dict = {}  # job name or "sweep" -> scaled untraced seconds
        self.peak_rss_mb = 0.0
        self.goldens = {}
        if os.path.exists(GOLDENS):
            with open(GOLDENS, encoding="utf-8") as fh:
                self.goldens = json.load(fh)["jobs"]

    # -- processes ----------------------------------------------------------

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def spawn(self, cmd: list, tag: str) -> Proc:
        out_path = os.path.join(self.work, f"{tag}.out")
        err_path = os.path.join(self.work, f"{tag}.err")
        timeout = min(JOB_TIMEOUT_S, self.remaining())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.work)
            finished = []
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    finished = select.select([pidfd], [], [], max(timeout, 0.0))[0]
                finally:
                    os.close(pidfd)
            finally:
                if not finished:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
        code = proc.returncode if finished else None
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return Proc(code, start, wall, usage.ru_maxrss / 1024.0, stdout, stderr)

    def fail(self, what: str, proc: Proc | None = None) -> None:
        detail = ""
        if proc is not None and proc.stderr:
            detail = ": " + proc.stderr.decode("utf-8", "replace").strip().splitlines()[-1]
        self.failures.append(what + detail)

    # -- set-up ---------------------------------------------------------------

    def write_inputs(self) -> None:
        for name, text in self.w.files.items():
            with open(os.path.join(self.work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        if self.w.sweep is not None:
            spec = dict(self.w.sweep, files=[os.path.join(self.work, f) for f in self.w.sweep["files"]])
            with open(os.path.join(self.work, "sweep.json"), "w", encoding="utf-8") as fh:
                json.dump(spec, fh)

    def measure_setup(self, times: list, probes: int) -> None:
        """Append the scaled times of ``probes`` fresh set-up processes."""
        for _ in range(probes):
            tag = f"setup{len(times)}"
            cal_out = os.path.join(self.work, f"{tag}.cal")
            p = self.spawn([sys.executable, os.path.join(HERE, "child.py"), "setup", cal_out,
                            *sorted(self.w.files)], tag)
            if p.code != 0:
                raise RuntimeError("set-up failed: " + p.stderr.decode("utf-8", "replace"))
            times.append(scaled_time(p, read_json(cal_out)))

    # -- one pass -----------------------------------------------------------

    def run_cli(self, job: wl.Job, tag: str, out: str, traced: bool = False) -> Proc:
        """Run one CLI job, ``gentrop.cli.main(argv)`` in a fresh interpreter.
        Untraced, the child writes its calibration to ``out``; traced, it runs
        under the tracer and writes its spans to ``out``."""
        mode = "cli" if traced else "job"
        return self.spawn([sys.executable, os.path.join(HERE, "child.py"), mode, out,
                           *job.argv], tag)

    def cli_pass(self, traced: bool, jobs: list, index: int) -> dict:
        wall = 0.0
        summaries = []
        for job in jobs:
            tag = f"{job.name}-{index}"
            out = os.path.join(self.work, f"{tag}.{'trace' if traced else 'cal'}")
            p = self.run_cli(job, tag, out, traced)
            wall += p.wall
            self.attempted += 1
            if not self.check_job(job, p):
                continue
            if traced:
                with open(out, encoding="utf-8") as fh:
                    summaries.append((p.wall, json.load(fh)))
            else:
                cal = read_json(out)
                wall -= calibrate.overhead(cal)
                self.latencies.setdefault(job.name, []).append(scaled_time(p, cal))
                self.peak_rss_mb = max(self.peak_rss_mb, p.rss_mb)
        return {"wall": wall, "summaries": summaries}

    def check_job(self, job: wl.Job, p: Proc) -> bool:
        where = f"{self.w.name}/{job.name}"
        if p.code is None:
            self.fail(f"{where}: timed out")
            return False
        if p.code != job.exit_code:
            self.fail(f"{where}: exit {p.code}, expected {job.exit_code}", p)
            return False
        digest = sha256(p.stdout)
        if digest != self.outputs.setdefault(job.name, digest):
            self.fail(f"{where}: report differs from the first run of this job")
            return False
        golden = self.goldens.get(where, {})
        want = golden.get("stdout_sha256", {}).get(str(self.seed))
        if want is not None and digest != want:
            self.fail(f"{where}: report differs from the golden report")
            return False
        try:
            report = json.loads(p.stdout)
        except ValueError:
            self.fail(f"{where}: report is not JSON")
            return False
        if "normalized_sha256" in golden and normalized_digest(report) != golden["normalized_sha256"]:
            self.fail(f"{where}: report differs from the golden report")
            return False
        for key, value in job.expect.items():
            if report.get(key) != value:
                self.fail(f"{where}: {key} is {report.get(key)!r}, expected {value!r}")
                return False
        return True

    def sweep_pass(self, traced: bool, jobs: list, index: int) -> dict:
        out = os.path.join(self.work, f"sweep-{index}.result")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "sweep",
               os.path.join(self.work, "sweep.json"), out]
        if traced:
            cmd.append(os.path.join(self.work, f"sweep-{index}.trace"))
        p = self.spawn(cmd, f"sweep-{index}")
        queries = self.w.sweep["queries"]
        self.attempted += len(queries)
        wall = p.wall
        summaries = []
        if p.code != 0:
            self.fail(f"tropical-sweep: child {'timed out' if p.code is None else f'exit {p.code}'}", p)
            for _ in queries[1:]:
                self.failures.append("tropical-sweep: query not answered")
        elif traced:
            self.check_sweep(out)
            with open(cmd[-1], encoding="utf-8") as fh:
                summaries.append((p.wall, json.load(fh)))
        else:
            cal = self.check_sweep(out)["cal"]
            wall -= calibrate.overhead(cal)
            self.latencies.setdefault("sweep", []).append(cal["seconds"] * calibrate.scale(cal))
            self.peak_rss_mb = max(self.peak_rss_mb, p.rss_mb)
        return {"wall": wall, "summaries": summaries}

    def check_sweep(self, out: str) -> dict:
        """Check a pass's answers; return the child's result."""
        with open(out, encoding="utf-8") as fh:
            res = json.load(fh)
        for (k, w), got in zip(self.w.sweep["queries"], res["answers"]):
            want = wl.sweep_expected(w, res["n"][k], res["dims"][k])
            if got != want:
                self.fail(f"tropical-sweep: ideal {k} weight {w}: member {got}, expected {want}")
        digest = sha256(json.dumps(res["answers"]).encode())
        if digest != self.outputs.setdefault("sweep", digest):
            self.fail("tropical-sweep: answers differ from the first pass")
        return res

    # -- the run --------------------------------------------------------------

    def rounds(self) -> list:
        """(traced, jobs) of each round, fixed before the run starts."""
        if self.trace:
            return [(False, self.w.jobs), (True, self.w.jobs)]
        if self.w.sweep is not None:
            return [(False, [])] * samples(self.w.passes, self.seconds)
        counts = [samples(job.repeats, self.seconds) for job in self.w.jobs]
        return [(False, [job for job, c in zip(self.w.jobs, counts) if c > r])
                for r in range(max(counts))]

    def run(self) -> dict:
        self.write_inputs()
        setup = []
        self.measure_setup(setup, SETUP_PROBES)
        one_pass = self.sweep_pass if self.w.sweep is not None else self.cli_pass
        passes = {False: [], True: []}
        plan = self.rounds()
        for index, (traced, jobs) in enumerate(plan):
            if self.remaining() <= 0:
                self.cut_off(plan[index:])
                break
            passes[traced].append(one_pass(traced, jobs, index))
            if self.remaining() > 0:
                self.measure_setup(setup, 1)
        if self.trace:
            metrics = self.layer_metrics(passes)
        else:
            metrics = self.end_to_end(statistics.median(setup))
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
            "failures": self.failures,
            "outputs": self.outputs,
        }

    def cut_off(self, rounds: list) -> None:
        """Count the samples of rounds the run limit left out as failed."""
        if self.w.sweep is not None:
            left = len(rounds) * len(self.w.sweep["queries"])
        else:
            left = sum(len(jobs) for _, jobs in rounds)
        self.attempted += left
        self.failures += [f"{self.w.name}: run cut off after {RUN_LIMIT_S:.0f} s"] * left

    def end_to_end(self, setup_s: float) -> dict:
        """Every sample of a job (or sweep pass) repeats the same work with
        the same result; its time is the median of its scaled samples."""
        return {
            "wall_s": sum(statistics.median(times) for times in self.latencies.values()),
            "setup_s": setup_s,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def layer_metrics(self, passes: dict) -> dict:
        out = {name: 0 for name in PER_LAYER}
        if not passes[True] or not passes[True][0]["summaries"]:
            return out
        summaries = passes[True][0]["summaries"]
        wall = sum(w for w, _ in summaries)
        covered = 0.0
        for _, s in summaries:
            covered += s["covered_s"]
            for name, calls in s["calls"].items():
                key = f"{name}.calls"
                if key in out:
                    out[key] += calls
            for name, secs in s["seconds"].items():
                key = f"{name}.s"
                if key in out:
                    out[key] += secs
            for module, secs in s["self_s"].items():
                out[f"{module}.self_s"] += secs
            for key, value in s["counts"].items():
                if key.endswith(".max"):
                    out[key] = max(out[key], value)
                else:
                    out[key] += value
        hits = sum(out[f"groebner.buchberger.{k}.hits"] for k in BUCHBERGER_KINDS)
        runs = sum(out[f"groebner.buchberger.{k}.runs"] for k in BUCHBERGER_KINDS)
        out["groebner.buchberger.hit_ratio"] = hits / (hits + runs) if hits + runs else 0.0
        out["other.self_s"] = wall - covered
        out["trace.wall_s"] = wall
        out["trace.overhead_frac"] = passes[True][0]["wall"] / passes[False][0]["wall"] - 1.0
        return out


def samples(repeats: int, seconds: float) -> int:
    """Samples of a job in a run of ``seconds``: its repeat count for a run
    of RUN_SECONDS, scaled, and at least one."""
    return max(1, round(repeats * seconds / wl.RUN_SECONDS))


def unit_of(name: str) -> str:
    return END_TO_END.get(name) or PER_LAYER[name]


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def scaled_time(p: Proc, cal: dict) -> float:
    """Reference-host seconds from a child's spawn to the end of its
    measured work, less its calibration slices; ``cal`` is the child's
    calibration record."""
    return (cal["end"] - p.start - cal["paused"]) * calibrate.scale(cal)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def normalized_digest(report: dict) -> str:
    """sha256 of a report without its ``seed`` key."""
    rest = {k: v for k, v in report.items() if k != "seed"}
    return sha256((json.dumps(rest, sort_keys=True, indent=2) + "\n").encode())


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str,
                 reduced: bool = False) -> dict:
    """Generate the workload's inputs, run it and return the result object."""
    src = os.path.join(root, "src", "gentrop", "cli.py")
    if not os.path.isfile(src):
        raise FileNotFoundError(f"no package source at {src}; run from a gentrop checkout")
    workload = wl.WORKLOADS[name](seed, reduced)
    work = work_dir(root, name)
    try:
        return Bench(workload, seed, seconds, trace, root, work).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is using it


def work_dir(root: str, prefix: str) -> str:
    """A fresh working directory under ``root/.perfbench_work``."""
    base = os.path.join(root, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{prefix}-", dir=base)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gentrop benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through the ``finally`` blocks, which kill and reap a running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), os.getcwd())
    except (FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in result.pop("failures"):
        print(line, file=sys.stderr)
    del result["outputs"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
