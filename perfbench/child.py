"""Child-process entry points of the benchmark; run with ``src`` on PYTHONPATH.

    child.py setup CAL_OUT FILE...     import gentrop and parse the ideal files
    child.py job CAL_OUT ARGV...       ``gentrop.cli.main(ARGV)``, untraced
    child.py cli TRACE_OUT ARGV...     traced ``gentrop.cli.main(ARGV)``
    child.py sweep SPEC OUT [TRACE_OUT]
                                       tropical_member queries, one process

The untraced modes time host-speed calibration slices during and after
the measured work (see ``calibrate.py``).  ``setup`` and ``job`` write to
CAL_OUT the ``perf_counter`` reading at the end of the measured work, which
the parent compares with its own reading at spawn (both read the system-wide
monotonic clock), and the slice record.
"""

from __future__ import annotations

import json
import sys
import time

from calibrate import Sampler


def _requested_bound(argv: list) -> int:
    if "--bound" in argv:
        return int(argv[argv.index("--bound") + 1])
    return 1000


def _write_calibration(cal_out: str, end: float, sampler) -> None:
    with open(cal_out, "w", encoding="utf-8") as fh:
        json.dump(dict(sampler.finish(), end=end), fh)


def setup(cal_out: str, files: list) -> int:
    with Sampler() as sampler:
        import gentrop  # noqa: F401
        from gentrop.cli import parse_ideal_file

        for path in files:
            with open(path, encoding="utf-8") as fh:
                parse_ideal_file(fh.read())
        end = time.perf_counter()
    _write_calibration(cal_out, end, sampler)
    return 0


def job(cal_out: str, argv: list) -> int:
    with Sampler() as sampler:
        from gentrop.cli import main

        code = main(argv)
        end = time.perf_counter()
    sys.stdout.flush()
    _write_calibration(cal_out, end, sampler)
    return code


def cli(trace_out: str, argv: list) -> int:
    from tracing import Tracer

    tracer = Tracer(_requested_bound(argv))
    tracer.install()
    from gentrop.cli import main

    try:
        code = main(argv)
    finally:
        sys.stdout.flush()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return code


def sweep(spec_path: str, out_path: str, trace_out: str | None) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if trace_out:
        from tracing import Tracer

        tracer = Tracer(spec["policy"]["bound"])
        tracer.install()
    from gentrop.cli import parse_ideal_file
    from gentrop.generic import GenericityPolicy, tropical_member
    from gentrop.groebner import Ideal
    from gentrop.invariants import dimension

    ideals = []
    for path in spec["files"]:
        with open(path, encoding="utf-8") as fh:
            n, polys = parse_ideal_file(fh.read())
        ideals.append(Ideal(n, polys))
    policy = GenericityPolicy(**spec["policy"])
    answers = []
    if tracer is not None:
        for k, w in spec["queries"]:
            answers.append(tropical_member(ideals[k], tuple(w), policy))
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
        cal = {}
    else:
        with Sampler() as sampler:
            start = time.perf_counter()
            for k, w in spec["queries"]:
                answers.append(tropical_member(ideals[k], tuple(w), policy))
            end = time.perf_counter()
        cal = dict(sampler.finish(), seconds=end - start - sampler.paused)
    # dimensions for the correctness check, after the timed loop
    dims = [dimension(I) for I in ideals]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"answers": answers, "cal": cal, "dims": dims, "n": [I.n for I in ideals]}, fh)
    return 0


def main(argv: list) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return setup(rest[0], rest[1:])
    if mode == "job":
        return job(rest[0], rest[1:])
    if mode == "cli":
        return cli(rest[0], rest[1:])
    if mode == "sweep":
        return sweep(rest[0], rest[1], rest[2] if len(rest) > 2 else None)
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
