"""Seeded inputs and result checks for the four benchmark workloads.

Everything the program sees is generated here from the workload seed: the
ideal files, the CLI ``--seed`` values and the tropical-sweep query grid.
How often each job runs is fixed here too, never by measured speed: the
repeat counts are sized so that one run of ``RUN_SECONDS`` seconds takes
about that long on a 2-vCPU host.  Short jobs get several samples, the
longest job of a workload one.  The generators use only the standard library, so the benchmark can build its
inputs before the package under test is imported.

``dense_form`` draws the same random stream as the helper of the same name
in ``tests/cases.py``; it is copied here so the benchmark inputs stay fixed
when the test helpers change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from math import prod

RUN_SECONDS = 20  # the run length the repeat counts are sized for

# expected exit codes of the CLI (see gentrop.cli)
EXIT_OK = 0
EXIT_PROBE_FAILED = 1

SPLIT_IDEAL = "ring 5\nx1^2\nx1*x2\nx1*x3^2\nx1*x3*x4\n"
FAMILY_IDEAL = "ring 5\nx1\nx2^2\nx2*x3\nx2*x4\n"  # stable_depth_family(5, 3, 1)


def quadric_ideal(n: int) -> str:
    return f"ring {n}\nx1*x2 + x3*x4\n"


# -- polynomial text ------------------------------------------------------


def _term_text(e, c: int) -> str:
    factors = [f"x{i + 1}^{v}" if v > 1 else f"x{i + 1}" for i, v in enumerate(e) if v]
    body = "*".join(factors) if factors else "1"
    if abs(c) != 1:
        body = f"{abs(c)}*{body}"
    return ("-" if c < 0 else "+") + body


def poly_text(terms: dict) -> str:
    """Ideal-file text of an integer polynomial {exponents: coeff}."""
    text = "".join(_term_text(e, c) for e, c in sorted(terms.items(), reverse=True) if c)
    return text[1:] if text.startswith("+") else text


def ideal_text(n: int, polys) -> str:
    return "\n".join([f"ring {n}"] + [poly_text(p) for p in polys]) + "\n"


def dense_form(n: int, degree: int, seed: int) -> dict:
    """Dense homogeneous form with nonzero coefficients in [-5, 5]."""
    rng = random.Random(f"dense:{n}:{degree}:{seed}")
    terms = {}
    for e in product(range(degree + 1), repeat=n):
        if sum(e) == degree:
            c = 0
            while c == 0:
                c = rng.randint(-5, 5)
            terms[e] = c
    return terms


# -- workload specs ---------------------------------------------------------


@dataclass
class Job:
    """One CLI invocation ``gentrop <argv>``, its file names relative to the
    run's working directory, what its report must say, and how many times it
    runs in a run of RUN_SECONDS."""

    name: str
    argv: list
    exit_code: int
    repeats: int
    expect: dict = field(default_factory=dict)  # report keys with known values


@dataclass
class Workload:
    name: str
    files: dict                                  # file name -> text
    jobs: list = field(default_factory=list)     # CLI workloads
    sweep: dict | None = None                    # library-call workload
    passes: int = 1                              # sweep passes in a run of RUN_SECONDS


def _cli_seed(rng: random.Random) -> str:
    return str(rng.randrange(10**6))


def fan_probe(seed: int, reduced: bool = False) -> Workload:
    """The baseline table: many small weight-refined Buchberger runs.  The
    10 s split Wnmt job runs once, the three jobs of about 1 s three times."""
    rng = random.Random(f"fan-probe:{seed}")
    s = [_cli_seed(rng) for _ in range(4)]
    jobs = [
        Job("analyze-split", ["analyze", "split.ideal", "--seed", s[0]], EXIT_OK, 3),
        Job("wnmt-split", ["verify", "split.ideal", "--target", "Wnmt", "--seed", s[1]],
            EXIT_PROBE_FAILED, 1, {"passed": False}),
        Job("wnmt-family", ["verify", "fam.ideal", "--target", "Wnmt", "--seed", s[2]],
            EXIT_OK, 3, {"passed": True}),
        Job("mult-family", ["verify", "fam.ideal", "--target", "multiplicity", "--seed", s[3]],
            EXIT_OK, 3, {"passed": True}),
    ]
    if reduced:
        jobs = [jobs[0], jobs[3]]
    return Workload("fan-probe", {"split.ideal": SPLIT_IDEAL, "fam.ideal": FAMILY_IDEAL}, jobs)


# (variables, generator degrees): dense complete intersections of about
# 2.8 s, 1.5 s and 1 s, each run three times
COEFF_SHAPES = [(5, (2, 3)), (5, (2, 2, 2)), (4, (3, 3))]
COEFF_REPEATS = 3


def coeff_growth(seed: int, reduced: bool = False) -> Workload:
    """Dense complete intersections: few runs with large coefficients."""
    rng = random.Random(f"coeff-growth:{seed}")
    files, jobs = {}, []
    for k, (n, degrees) in enumerate(COEFF_SHAPES):
        polys = [dense_form(n, d, rng.randrange(10**6)) for d in degrees]
        fname = f"ci{k}.ideal"
        files[fname] = ideal_text(n, polys)
        m = n - len(degrees)
        # a complete intersection is Cohen-Macaulay of degree prod(degrees)
        expect = {"dimension": m, "depth": m, "cm_class": "CM",
                  "multiplicity": prod(degrees)}
        jobs.append(Job(f"ci{k}", ["analyze", fname, "--seed", _cli_seed(rng)], EXIT_OK,
                        COEFF_REPEATS, expect))
    if reduced:  # the smallest job alone
        jobs = jobs[2:]
        files = {"ci2.ideal": files["ci2.ideal"]}
    return Workload("coeff-growth", files, jobs)


# (variables, repeats) of the wide-fan quadrics: jobs of about 2.4 s and
# 7 s.  Below 11 variables fan enumeration no longer dominates the job.
WIDE_SIZES = [(10, 4), (11, 1)]


def wide_fan(seed: int, reduced: bool = False) -> Workload:
    """One quadric in many variables: fan enumeration, trivial Buchberger."""
    rng = random.Random(f"wide-fan:{seed}")
    sizes = [(7, 1)] if reduced else WIDE_SIZES
    files, jobs = {}, []
    for n, repeats in sizes:
        fname = f"q{n}.ideal"
        files[fname] = quadric_ideal(n)
        jobs.append(Job(f"wnm-q{n}", ["verify", fname, "--target", "Wnm", "--seed", _cli_seed(rng)],
                        EXIT_OK, repeats, {"passed": True}))
    return Workload("wide-fan", files, jobs)


SWEEP_IDEALS = 12   # pairs of dense quadrics, alternately in 3 and 4 variables
SWEEP_QUERIES = 16  # per ideal
SWEEP_PASSES = 3    # of about 6 s each


def grid_point(rng: random.Random, n: int, ties: int) -> tuple:
    """A point of [-3, 3]^n whose minimum is attained exactly ``ties`` times."""
    low = rng.randint(-3, 2)
    w = [low] * ties + [rng.randint(low + 1, 3) for _ in range(n - ties)]
    rng.shuffle(w)
    return tuple(w)


def tropical_sweep(seed: int, reduced: bool = False) -> Workload:
    """``tropical_member`` queries in one long-lived process.

    Each ideal is generated by two dense quadrics, a complete intersection
    of dimension n-2 (sparse random ideals made the cost of a pass vary by
    half between seeds).  Half the points of each ideal have their minimum
    attained at least three times, which puts them on the (n-2)-skeleton,
    the generic tropical variety; the other half have it attained once or
    twice, off the skeleton."""
    rng = random.Random(f"tropical-sweep:{seed}")
    count, per = (2, 10) if reduced else (SWEEP_IDEALS, SWEEP_QUERIES)
    files, queries = {}, []
    for k in range(count):
        n = 3 + k % 2
        files[f"sweep{k}.ideal"] = ideal_text(n, [dense_form(n, 2, rng.randrange(10**6))
                                                  for _ in range(2)])
        for q in range(per):
            ties = rng.randint(3, n) if q % 2 == 0 else rng.randint(1, 2)
            queries.append((k, grid_point(rng, n, ties)))
    rng.shuffle(queries)
    sweep = {"files": sorted(files, key=lambda f: int(f[5:-6])), "queries": queries,
             "policy": {"samples": 2, "bound": 1000, "seed": rng.randrange(10**6)}}
    return Workload("tropical-sweep", files, sweep=sweep, passes=SWEEP_PASSES)


WORKLOADS = {
    "fan-probe": fan_probe,
    "coeff-growth": coeff_growth,
    "wide-fan": wide_fan,
    "tropical-sweep": tropical_sweep,
}


def sweep_expected(w, n: int, m: int) -> bool:
    """Acceptance criterion 2: w lies in the generic tropical variety of an
    m-dimensional ideal iff its minimum is attained at least n-m+1 times."""
    return list(w).count(min(w)) >= n - m + 1
