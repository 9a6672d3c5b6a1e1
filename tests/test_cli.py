import json
import random
import sys
import time
from itertools import combinations
from math import comb
from types import SimpleNamespace

import pytest

from gentrop import fans
from gentrop.cli import (
    EXIT_DEGREE_CAP,
    EXIT_GENERICITY,
    EXIT_INTERNAL,
    EXIT_NOT_GRADED,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PROBE_FAILED,
    cmd_tropical,
    main,
    parse_ideal_file,
)
from gentrop.generic import GenericityPolicy, transformed
from gentrop.groebner import Ideal, contains_monomial, initial_ideal
from gentrop.poly import MAX_DIGITS, ParseError

from cases import (
    P,
    counting_cone_hits,
    counting_engine,
    counting_engine_variables,
    counting_hilbert_numerators,
    counting_normal_forms,
    counting_spairs,
    dense_form,
    random_graded_ideal,
)

FAMILY_531 = """\
ring 5
# strongly stable, dimension 3, depth 1
x1
x2^2
x2*x3
x2*x4
"""

SPLIT = """\
ring 5
x1^2
x1*x2
x1*x3^2
x1*x3*x4
"""

QUADRIC = """\
ring 4
x1*x2 + x3*x4
"""

PRODUCT_FAMILY_2 = """\
ring 4
x1*x1 + x1*x2
x2*x1 + x2*x2
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_parse_ideal_file_roundtrip():
    n, polys = parse_ideal_file(FAMILY_531)
    assert n == 5 and len(polys) == 4
    text = "\n".join([f"ring {n}"] + [str(p) for p in polys]) + "\n"
    n2, polys2 = parse_ideal_file(text)
    assert n2 == n and polys2 == polys


def test_parse_ideal_file_errors():
    for bad in ["", "ring x\nx1", "x1\nx2", "ring 2\n", "ring 2\nx3", "ring 0\nx1"]:
        with pytest.raises(ParseError):
            parse_ideal_file(bad)


def test_analyze_family(tmp_path, capsys):
    path = write(tmp_path, "fam.ideal", FAMILY_531)
    code, report = run(capsys, "analyze", path)
    assert code == EXIT_OK
    assert report["n"] == 5
    assert report["dimension"] == 3
    assert report["depth"] == 1
    assert report["cm_class"] == "neither"
    assert report["multiplicity"] == 1
    assert sorted(report["gin"]) == ["x1", "x2*x3", "x2*x4", "x2^2"]
    assert any(p["kind"] == "separating_witness" and p["result"] for p in report["probes"])


def test_analyze_split_ideal(tmp_path, capsys):
    path = write(tmp_path, "split.ideal", SPLIT)
    code, report = run(capsys, "analyze", path)
    assert code == EXIT_OK
    assert report["dimension"] == 4
    assert report["depth"] == 1
    assert report["cm_class"] == "neither"


def test_analyze_quadric_cm(tmp_path, capsys):
    path = write(tmp_path, "q.ideal", QUADRIC)
    code, report = run(capsys, "analyze", path)
    assert code == EXIT_OK
    assert report["cm_class"] == "CM"
    assert report["multiplicity"] == 2


def test_analyze_deterministic_bytes(tmp_path, capsys):
    path = write(tmp_path, "fam.ideal", FAMILY_531)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["analyze", path, "--seed", "7", "--json", str(out1)]) == EXIT_OK
    capsys.readouterr()
    assert main(["analyze", path, "--seed", "7", "--json", str(out2)]) == EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_tropical_identity_and_generic(tmp_path, capsys):
    path = write(tmp_path, "prod.ideal", PRODUCT_FAMILY_2)
    code, report = run(
        capsys, "tropical", path, "--omega", "0,0,1,1", "--identity"
    )
    assert code == EXIT_OK and report["member"] is True
    code, report = run(
        capsys, "tropical", path, "--omega", "0,1,0,1", "--identity"
    )
    assert code == EXIT_OK and report["member"] is False
    code, report = run(capsys, "tropical", path, "--omega", "0,1,2,3")
    assert code == EXIT_OK and report["member"] is False
    assert report["initial_ideal"]


RATIONAL_PAIR = """\
ring 4
2*x1^2 - 3/2*x2*x3 + 5*x4^2
3*x1*x2 + 7/3*x3^2 - x2*x4
"""

# (omega, --identity) -> (member, initial_ideal) of ``gentrop tropical`` on
# RATIONAL_PAIR at the default seed; ``tropical`` is the one report that
# prints the generators of a derived ideal
TROPICAL_PINS = {
    ("0,0,0,1", False): (True, [
        "x1*x2 + 16923213669335/45711504846109*x2^2 - 23272794714990/45711504846109*x1*x3 - 60980002443496/45711504846109*x2*x3 - 43262939696404/45711504846109*x3^2",
        "x1^2 + 2388296879634/45711504846109*x2^2 - 29603625358156/45711504846109*x1*x3 + 51244086374962/45711504846109*x2*x3 + 62072577881532/45711504846109*x3^2",
        "x2^3 + 39755555423384250659700194923258406600792/18081999648263856302129618915635488936079*x2^2*x3 + 146106342659139590222347174058620667643784/18081999648263856302129618915635488936079*x1*x3^2 + 105164688790603166439514094918624508413572/18081999648263856302129618915635488936079*x2*x3^2 - 21023712328631450867173719421906608864480/18081999648263856302129618915635488936079*x3^3",
    ]),
    ("0,0,0,1", True): (True, [
        "x1*x2 + 7/9*x3^2",
        "x1^2 - 3/4*x2*x3",
        "x2^2*x3 + 28/27*x1*x3^2",
    ]),
    ("5,0,5,5", False): (False, [
        "x1*x2 - 11078753324563/1194148439817*x2*x3 - 6080517579625/1194148439817*x2*x4",
        "x1^4 - 1558988144250253829580244102/395567805285303588785586331*x1^3*x3 + 3261234363098659259215514576/395567805285303588785586331*x1^2*x3^2 - 3402311719492218353920919840/395567805285303588785586331*x1*x3^3 + 1397248470451045875190684192/395567805285303588785586331*x3^4 + 1772806803251018892221391384/395567805285303588785586331*x1^3*x4 - 3622151694168409470114352370/395567805285303588785586331*x1^2*x3*x4 + 4194374696340793341390934432/395567805285303588785586331*x1*x3^2*x4 - 1915169121263372716004761984/395567805285303588785586331*x3^3*x4 + 3696789606545162110330448654/395567805285303588785586331*x1^2*x4^2 - 3534088161820424860589612794/395567805285303588785586331*x1*x3*x4^2 + 1806754252158935147121674984/395567805285303588785586331*x3^2*x4^2 + 3883400140883890729986064464/395567805285303588785586331*x1*x4^3 - 1220898314431065108606703406/395567805285303588785586331*x3*x4^3 + 1693331174384135187283986991/395567805285303588785586331*x4^4",
        "x2*x3^2 + 2979940020936996397329679259299265850220/1984219571188190463027042630841813887491*x2*x3*x4 + 1120365529232251377290248742927863501256/1984219571188190463027042630841813887491*x2*x4^2",
        "x2^2",
    ]),
    ("5,0,5,5", True): (False, [
        "x1*x2 - 1/3*x2*x4",
        "x1^3 + 7/12*x3^3 - 1/3*x1^2*x4 + 5/2*x1*x4^2 - 5/6*x4^3",
        "x2*x3",
    ]),
    ("3,1,0,2", False): (False, [
        "x2*x3",
        "x2^3",
        "x3^2",
    ]),
    ("3,1,0,2", True): (False, [
        "x2*x3",
        "x2^2*x4 - 70/9*x3*x4^2",
        "x3^2",
    ]),
    ("0,0,1,1", False): (False, [
        "x1*x2 + 16923213669335/45711504846109*x2^2",
        "x1^2 + 2388296879634/45711504846109*x2^2",
        "x2^3",
    ]),
    ("0,0,1,1", True): (False, [
        "x1*x2",
        "x1^2",
        "x2^2*x3",
    ]),
    ("1/2,0,5,-1", False): (False, [
        "x2*x4",
        "x2^3 - 26038302674766132179687195024607331954374/1421617815771077404493293898225218273897*x1^2*x4",
        "x4^2",
    ]),
    ("1/2,0,5,-1", True): (False, [
        "x1^2*x2",
        "x2*x4",
        "x4^2",
    ]),
}



@pytest.mark.parametrize("omega, identity", list(TROPICAL_PINS))
def test_tropical_reports_are_pinned(tmp_path, capsys, omega, identity):
    path = write(tmp_path, "pair.ideal", RATIONAL_PAIR)
    argv = ["tropical", path, "--omega", omega] + ["--identity"] * identity
    code, report = run(capsys, *argv)
    assert code == EXIT_OK
    assert (report["member"], report["initial_ideal"]) == TROPICAL_PINS[omega, identity]


def test_a_tropical_job_pins_its_engine_runs(tmp_path, capsys, monkeypatch):
    # ``tropical`` checks that its ideal is not zero-dimensional on the
    # first transformed ideal, which has the ideal's Hilbert series and
    # whose grevlex basis the answer needs anyway, so it makes no run on the
    # ideal itself.  On RATIONAL_PAIR at omega (5, 0, 5, 5) the job makes 3
    # engine runs, and 2 under --identity (4 and 3 when the check ran the
    # ideal's grevlex basis): the grevlex certificate answers, and no
    # containment test is made.  At the member omega (0, 0, 0, 1) each draw
    # tests in_omega(gI), which its trace certifies, so the job makes 2
    # runs (6 when each test walked its saturation); under --identity x3
    # divides a grevlex lead of in_omega(I), so the test walks, in 3 runs in
    # 4 variables (4, 2 of them in 3 variables, when a run on the ideal
    # restricted to x_i = 0 could certify a step).  The reports are pinned
    # above
    path = write(tmp_path, "pair.ideal", RATIONAL_PAIR)
    for omega, identity, want in (("5,0,5,5", False, 3), ("5,0,5,5", True, 2),
                                  ("0,0,0,1", False, 2), ("0,0,0,1", True, 3)):
        runs = counting_engine_variables(monkeypatch)
        code, report = run(capsys, "tropical", path, "--omega", omega, *["--identity"] * identity)
        assert code == EXIT_OK and report["member"] is (omega == "0,0,0,1")
        assert runs == [4] * want


def test_tropical_rejects_bad_omega(tmp_path, capsys):
    path = write(tmp_path, "prod.ideal", PRODUCT_FAMILY_2)
    for omega in ("0,1", "0,a,1,2", "0,1/0,1,2"):
        assert main(["tropical", path, "--omega", omega]) == EXIT_PARSE
    # as parse_polynomial does, the message names the zero denominator and
    # the entry, not the Fraction that raised
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == "error: zero denominator in omega entry '1/0'"
    # Fraction() also reads other scripts' digits and "_" between digits
    for omega in ("\u0663,1,2,3", "0,1_0,1,2", "0,1,\uff12,3"):
        assert main(["tropical", path, "--omega", omega]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: bad omega entry: ")


def test_tropical_prints_the_initial_ideal_of_the_agreeing_draws(tmp_path, capsys):
    # at --bound 1 the two draws of seed 2 disagree on omega = (1, 2, 1) for
    # (x1^2), and the bound-100 draws agree that omega is a member.  The
    # report prints in_omega of the first bound-100 transform, which holds
    # no monomial, where the first bound-1 transform's in_omega is (x3^2)
    path = write(tmp_path, "sq.ideal", "ring 3\nx1^2\n")
    argv = ["tropical", path, "--omega", "1,2,1", "--bound", "1", "--seed", "2"]
    code, report = run(capsys, *argv)
    assert code == EXIT_OK and report["member"] is True
    I = Ideal(3, [P("x1^2", 3)])
    base = GenericityPolicy(bound=1, seed=2)
    assert [str(g) for g in initial_ideal(transformed(I, base)[0], (1, 2, 1)).generators] == ["x3^2"]
    J = initial_ideal(transformed(I, GenericityPolicy(bound=100, seed=2))[0], (1, 2, 1))
    assert report["initial_ideal"] == sorted(str(g) for g in J.generators)
    assert not contains_monomial(J)


def test_tropical_prints_an_initial_ideal_that_matches_member():
    # 200 queries at --bound 1 on random sparse ideals in 3 and 4 variables,
    # weights in [-2, 2]^n and policy seeds 0-19: the printed initial ideal
    # contains a monomial iff member is false.  When member was answered at
    # the sorted weight and the ideal printed at omega, 6 of them did not
    rng = random.Random("tropical-scan")
    mismatches = []
    for _ in range(200):
        n = rng.choice((3, 4))
        I = random_graded_ideal(n, rng.randrange(10**6), gens=rng.choice((1, 2)),
                                max_degree=rng.choice((2, 3)), terms_per_gen=rng.choice((2, 3)))
        omega = ",".join(str(rng.randint(-2, 2)) for _ in range(n))
        pol = GenericityPolicy(bound=1, seed=rng.randrange(20))
        _, report = cmd_tropical(I, pol, SimpleNamespace(omega=omega))
        J = Ideal(n, [P(g, n) for g in report["initial_ideal"]])
        if contains_monomial(J) == report["member"]:
            mismatches.append((I.forms, omega, pol.seed))
    assert not mismatches


def test_tropical_prints_a_coefficient_past_the_int_str_limit(tmp_path, capsys):
    # 4,200-digit inputs pass the parse limit, and in_omega of the first
    # transformed ideal has coefficients of about 16,800 digits, past the
    # 4,300 digits CPython's str() prints of an int
    text = (f"ring 3\n{'7' * 4200}*x1^2 + 3*x1*x2 + x2^2 + x3^2\n"
            f"x1*x2 + {'3' * 4199}1*x2^2 + 5*x1*x3\n")
    path = write(tmp_path, "long.ideal", text)
    code, report = run(capsys, "tropical", path, "--omega", "0,0,1")
    assert code == EXIT_OK
    n, polys = parse_ideal_file(text)
    J = initial_ideal(transformed(Ideal(n, polys), GenericityPolicy())[0], (0, 0, 1))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = {str(abs(c)) for g in J.generators for _, c in g.terms}
    finally:
        sys.set_int_max_str_digits(limit)
    assert max(map(len, want)) > MAX_DIGITS
    assert all(any(w in g for g in report["initial_ideal"]) for w in want)


def test_verify_wnm_quadric(tmp_path, capsys):
    path = write(tmp_path, "q.ideal", QUADRIC)
    code, report = run(capsys, "verify", path, "--target", "Wnm")
    assert code == EXIT_OK
    assert report["passed"] is True
    assert len(report["probes"]) == 6
    split = write(tmp_path, "split.ideal", SPLIT)
    code, report = run(capsys, "verify", split, "--target", "Wnm")
    assert code == EXIT_PROBE_FAILED and report["passed"] is False


def test_points_changes_only_the_policy_field(tmp_path, capsys, monkeypatch):
    # no probe reads --points: 100000 gives the default report but for
    # policy.points, with the same engine runs, and no interior point
    # sequence longer than one is asked for
    counts = []
    interior_points = fans.interior_points
    monkeypatch.setattr(fans, "interior_points",
                        lambda c, gap, count: counts.append(count) or interior_points(c, gap, count))
    runs = counting_engine(monkeypatch)
    split, fam = write(tmp_path, "split.ideal", SPLIT), write(tmp_path, "fam.ideal", FAMILY_531)
    q = write(tmp_path, "q.ideal", QUADRIC)
    for argv in (["verify", split, "--target", "Wnm"], ["verify", fam, "--target", "Wnmt"],
                 ["analyze", q], ["analyze", split]):
        reports = []
        for points in ([], ["--points", "100000"]):
            runs.clear()
            code, report = run(capsys, *argv, *points)
            reports.append((code, report.pop("policy").pop("points"), report, len(runs)))
        (code, three, report, n_runs), many = reports
        assert many == (code, 100000, report, n_runs) and three == 3 and n_runs > 0
    assert counts and set(counts) == {1}


def test_identity_wnm_fails_the_cones_a_linear_form_splits(tmp_path, capsys):
    # under --identity, 8 x1 + 5 x5 splits the skeleton cones with min-set
    # {2,3}, {2,4} and {3,4}, each along w1 = w5 (see test_generic): Wnm
    # fails exactly those, and the CM classification that analyze finds is
    # contradicted by a split cone.  The sampled point tests of the
    # interior points passed all ten cones
    path = write(tmp_path, "lin.ideal", "ring 5\n8*x1 + 5*x5\n")
    code, report = run(capsys, "verify", path, "--target", "Wnm", "--identity")
    assert code == EXIT_PROBE_FAILED and len(report["probes"]) == 10
    failed = [p["cone"]["min"] for p in report["probes"] if not p["result"]]
    assert failed == [[2, 3], [2, 4], [3, 4]]
    assert main(["analyze", path, "--identity"]) == EXIT_GENERICITY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: CM classification contradicted by split cone {'min': [2, 3], 'middle': [], 'top': []}\n")


def test_verify_wnmt_family_passes_split_fails(tmp_path, capsys):
    fam = write(tmp_path, "fam.ideal", FAMILY_531)
    code, report = run(capsys, "verify", fam, "--target", "Wnmt")
    assert code == EXIT_OK and report["passed"] is True
    kinds = {p["kind"] for p in report["probes"]}
    assert kinds == {"cone_constancy", "adjacent_pair_distinct"}

    split = write(tmp_path, "split.ideal", SPLIT)
    code, report = run(capsys, "verify", split, "--target", "Wnmt")
    assert code == EXIT_PROBE_FAILED
    assert report["passed"] is False
    assert any(
        p["kind"] == "cone_constancy" and not p["result"] for p in report["probes"]
    )


def _fan_probe_seed(job: int) -> str:
    """The --seed of the fan-probe benchmark's CLI job ``job`` at workload
    seed 1."""
    rng = random.Random("fan-probe:1")
    return [str(rng.randrange(10**6)) for _ in range(4)][job]


def test_split_wnmt_bounds_s_pair_normal_forms(tmp_path, capsys, monkeypatch):
    # the split Wnmt job of the fan-probe benchmark at workload seed 1 makes
    # 7 engine runs: its 30 refinement cones form one orbit and its 30
    # adjacent pairs three, so it probes one cone and three pairs (61 runs
    # when every cone and pair was probed).  Every run but the first, the
    # cold grevlex run on the input ideal, has the Hilbert series of the
    # input as its target (the transformed ideals take it over) and stops
    # once its leads have it.  So the job forms 6 s-pair normal forms, those
    # of the first run, and makes 46 engine divisions (338 when every cone
    # and pair was probed; 40 when a run entered the cached grevlex basis of
    # its ideal in place of its forms, whose elements need less reduction
    # on entry)
    seed = _fan_probe_seed(1)
    split = write(tmp_path, "split.ideal", SPLIT)
    runs = counting_engine(monkeypatch)
    spairs = counting_spairs(monkeypatch)
    divisions = counting_normal_forms(monkeypatch)
    code, _ = run(capsys, "verify", split, "--target", "Wnmt", "--seed", seed)
    assert code == EXIT_PROBE_FAILED
    assert len(runs) == 7 and len(spairs) == 6
    assert len(divisions) == 46


def test_family_wnmt_bounds_engine_runs(tmp_path, capsys, monkeypatch):
    # the family Wnmt job of the fan-probe benchmark at workload seed 1: its
    # 20 refinement cones form one orbit and its 10 adjacent pairs one, so
    # it makes 5 engine runs (31 when every cone and pair was probed) and 2
    # Hilbert numerators (16; 3 when the numerator read from a cached basis
    # did not consult the memo of Hilbert checks)
    fam = write(tmp_path, "fam.ideal", FAMILY_531)
    runs = counting_engine(monkeypatch)
    numerators = counting_hilbert_numerators(monkeypatch)
    code, report = run(capsys, "verify", fam, "--target", "Wnmt", "--seed", _fan_probe_seed(2))
    assert code == EXIT_OK and report["passed"] is True
    assert len(runs) == 5 and len(numerators) == 2


def test_family_multiplicity_bounds_engine_runs(tmp_path, capsys, monkeypatch):
    # the family multiplicity job of the fan-probe benchmark at workload
    # seed 1 probes one of its 20 refinement cones, which form one orbit: it
    # makes 11 engine runs, all in 5 variables, 3 Hilbert numerators and 15
    # Groebner-cone lookups (151, 96 and 243 when every cone was probed; 8
    # numerators when the numerator read from a cached basis did not
    # consult the memo of Hilbert checks).  Every saturation step takes its
    # basis through ``buchberger`` (13 lookups when a step that a cached
    # basis certified looked up no order).  Six of the runs are saturation
    # steps that no cached basis serves (two in 5 variables and four in 4,
    # with 4 numerators and 9 lookups in all, when a run on the ideal
    # restricted to x_i = 0 could certify such a step)
    fam = write(tmp_path, "fam.ideal", FAMILY_531)
    runs = counting_engine_variables(monkeypatch)
    numerators = counting_hilbert_numerators(monkeypatch)
    lookups = counting_cone_hits(monkeypatch)
    code, report = run(capsys, "verify", fam, "--target", "multiplicity",
                       "--seed", _fan_probe_seed(3))
    assert code == EXIT_OK and report["passed"] is True
    assert runs == [5] * 11 and len(numerators) == 3 and len(lookups) == 15


def test_analyze_jobs_pin_their_engine_runs(tmp_path, capsys, monkeypatch):
    # at workload seed 1, the analyze-split job of the fan-probe benchmark
    # makes 3 engine runs, the grevlex runs of the input and of its two
    # transforms (5 while its separating witness read a second gin, under a
    # swapped order; its depth is intermediate, so it probes no cone), and
    # the ci0 job of coeff-growth, a dense quadric and cubic in 5 variables,
    # makes 3: its 10 skeleton cones form one orbit, which the grevlex basis
    # of each transformed ideal certifies (13 when every cone was probed)
    rng = random.Random("coeff-growth:1")
    a, b, ci0_seed = (rng.randrange(10**6) for _ in range(3))
    ci0 = f"ring 5\n{dense_form(5, 2, a)}\n{dense_form(5, 3, b)}\n"
    for text, seed, want in ((SPLIT, _fan_probe_seed(0), 3), (ci0, str(ci0_seed), 3)):
        path = write(tmp_path, "job.ideal", text)
        runs = counting_engine(monkeypatch)
        code, _ = run(capsys, "analyze", path, "--seed", seed)
        assert code == EXIT_OK and len(runs) == want


def _stanley_reisner(n: int, non_faces) -> str:
    """The ideal file of the Stanley-Reisner ideal of a simplicial complex
    on n vertices, from the digit strings of its minimal non-faces."""
    return "".join([f"ring {n}\n"] + ["*".join(f"x{v}" for v in f) + "\n" for f in non_faces])


# name: (vertices, minimal non-faces, (dimension, depth, cm_class,
# multiplicity), whether to verify depth recovery)
STANLEY_REISNER = {
    # the bowtie: two triangles 123 and 345 glued at a vertex
    "bowtie": (5, ("14", "15", "24", "25"), (3, 2, "almostCM", 2), False),
    # two tetrahedra 1234 and 4567 glued at a vertex
    "two-tetrahedra": (7, [f"{i}{j}" for i in "123" for j in "567"], (4, 2, "neither", 2), True),
    # the join of two triangle boundaries
    "join-of-triangles": (6, ("123", "456"), (4, 4, "CM", 9), False),
    # a triangulated disk
    "disk": (6, ("14", "25", "36", "123"), (3, 3, "CM", 7), False),
    # the 6-vertex real projective plane, facets 124, 126, 135, 136, 145,
    # 234, 235, 256, 346 and 456: Cohen-Macaulay in characteristic 0
    "rp2": (6, ("123", "125", "134", "146", "156", "236", "245", "246", "345", "356"),
            (3, 3, "CM", 10), False),
}


@pytest.mark.parametrize("name", STANLEY_REISNER)
def test_stanley_reisner_complexes(tmp_path, capsys, name):
    # dimension, depth, CM class and multiplicity of k[Delta], each derived
    # by hand from the complex: the largest face size, Hochster's formula
    # (Reisner's criterion for CM) and the number of faces of largest size.
    # The multiplicity check saturates each probed initial ideal
    n, non_faces, want, depth_recovery = STANLEY_REISNER[name]
    path = write(tmp_path, "sr.ideal", _stanley_reisner(n, non_faces))
    code, report = run(capsys, "analyze", path, "--seed", "1")
    assert code == EXIT_OK
    assert (report["dimension"], report["depth"], report["cm_class"],
            report["multiplicity"]) == want
    code, report = run(capsys, "verify", path, "--target", "multiplicity", "--seed", "1")
    assert code == EXIT_OK and report["passed"] is True
    if depth_recovery:
        code, report = run(capsys, "verify", path, "--target", "depth-recovery", "--seed", "1")
        assert code == EXIT_OK and report["passed"] is True


@pytest.mark.parametrize("name", STANLEY_REISNER)
def test_the_topological_oracle_derives_the_pinned_complexes(name):
    # the hand-derived invariants of each pinned complex, from its facets
    # (the vertex sets containing no minimal non-face, maximal among them)
    # by Hochster's formula in ``oracles.stanley_reisner``
    from oracles import stanley_reisner

    n, non_faces, want, _ = STANLEY_REISNER[name]
    faces = [set(S) for k in range(n + 1) for S in combinations(range(1, n + 1), k)
             if not any(set(map(int, f)) <= set(S) for f in non_faces)]
    facets = [F for F in faces if not any(F < G for G in faces)]
    assert stanley_reisner(facets) == want


def test_verify_depth_recovery(tmp_path, capsys):
    fam = write(tmp_path, "fam.ideal", FAMILY_531)
    code, report = run(capsys, "verify", fam, "--target", "depth-recovery")
    assert code == EXIT_OK and report["passed"] is True


def test_depth_recovery_bounds_engine_runs(tmp_path, capsys, monkeypatch):
    # one ladder point serves every step and one reduced basis per
    # transformed ideal decides each ray at it, so the job makes at most 3
    # engine runs (5 when each step took a gin under a moved order and
    # point-tested a moved point)
    fam = write(tmp_path, "fam.ideal", FAMILY_531)
    runs = counting_engine(monkeypatch)
    code, report = run(capsys, "verify", fam, "--target", "depth-recovery", "--seed", "3")
    assert code == EXIT_OK and report["passed"] is True
    assert 0 < len(runs) <= 3


def test_verify_multiplicity_quadric(tmp_path, capsys):
    path = write(tmp_path, "q.ideal", QUADRIC)
    code, report = run(capsys, "verify", path, "--target", "multiplicity")
    assert code == EXIT_OK and report["passed"] is True
    assert all(p["evidence"] == "exact" for p in report["probes"])


def test_exit_codes(tmp_path, capsys):
    bad = write(tmp_path, "bad.ideal", "ring two\nx1\n")
    assert main(["analyze", bad]) == EXIT_PARSE
    capsys.readouterr()
    # a superscript two is a digit to str.isdigit but not to int(), and a
    # fullwidth three is one to str.isdecimal and int() but not ASCII
    for header in ("\u00b2", "\uff13"):
        bad = write(tmp_path, "bad.ideal", f"ring {header}\nx1\n")
        assert main(["analyze", bad]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: bad header ")
    # Arabic-Indic digits in a coefficient, an index or an exponent
    for text in ("\u0663*x1^2 + x2*x3", "x\u0661^2 + x2*x3", "x1^\u0662 + x2*x3"):
        bad = write(tmp_path, "bad.ideal", f"ring 3\n{text}\n")
        assert main(["analyze", bad]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: bad factor ")
    for text, why in (("x1+", "cannot tokenize"), ("1/0*x1", "zero denominator")):
        bad = write(tmp_path, "bad.ideal", f"ring 2\n{text}\n")
        assert main(["analyze", bad]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {why} ") and captured.err.count("\n") == 1

    # a number too long to print is refused before it is built, also where
    # building it would take seconds (1e10000000)
    big = "1" * 5001
    files = [f"ring 2\n{big}*x1\n", f"ring 2\n1/{big}*x1\n", f"ring 2\nx1^{big}\n",
             f"ring {big}\nx1\n"]
    q4 = write(tmp_path, "q4.ideal", "ring 4\nx1*x2 + x3*x4\n")
    argvs = [["analyze", write(tmp_path, "big.ideal", text)] for text in files]
    argvs += [["tropical", q4, f"--omega={e},0,0,1"] for e in ("1e100000", "1e10000000")]
    for argv in argvs:
        start = time.perf_counter()
        assert main(argv) == EXIT_PARSE
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    # bytes that are not UTF-8 are bad input, not an engine fault
    latin = tmp_path / "latin.ideal"
    latin.write_bytes(b"ring 2\nx1*x2 \xff\n")
    assert main(["analyze", str(latin)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {latin}: not UTF-8 ")
    assert captured.err.count("\n") == 1

    nongraded = write(tmp_path, "ng.ideal", "ring 2\nx1 + x2^2\n")
    assert main(["analyze", nongraded]) == EXIT_NOT_GRADED
    capsys.readouterr()

    missing = str(tmp_path / "missing.ideal")
    assert main(["analyze", missing]) == EXIT_PARSE
    capsys.readouterr()

    q = write(tmp_path, "q.ideal", QUADRIC)
    assert main(["analyze", q, "--degree-cap", "1"]) == EXIT_DEGREE_CAP
    capsys.readouterr()

    # the CM quadric has depth = dim, outside what these targets probe
    for target in ("Wnmt", "depth-recovery"):
        assert main(["verify", q, "--target", target]) == EXIT_PARSE
        assert "needs 0 < depth < dim-1" in capsys.readouterr().err

    # a cap below 1 binds no graded computation: a bad argument, not an abort
    for cap in ("0", "-1"):
        assert main(["analyze", q, "--degree-cap", cap]) == EXIT_PARSE
        assert f"degree cap {cap} is below 1" in capsys.readouterr().err
    # also before the file is read: a missing file is not what is reported
    assert main(["analyze", missing, "--degree-cap", "0"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: degree cap 0 is below 1\n"

    # numeric flags are checked before the file is read, on every command,
    # also where the input would never use them (the non-CM family makes no
    # constancy probe in analyze)
    fam = write(tmp_path, "fam.ideal", FAMILY_531)
    for flag, least, value in (("--points", 2, "0"), ("--points", 2, "1"),
                               ("--samples", 2, "1"), ("--bound", 1, "0"), ("--bound", 1, "-5")):
        for argv in (["analyze", fam], ["tropical", fam, "--omega", "0,0,1,1,2"],
                     ["verify", fam, "--target", "Wnmt"], ["analyze", missing]):
            assert main(argv + [flag, value]) == EXIT_PARSE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {flag} must be at least {least}\n"

    # an unreadable path is a usage error with one line, not a traceback
    assert main(["analyze", str(tmp_path)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    # so is a --json path that cannot be written, also an empty one, which
    # must not skip the report it asks for
    nowhere = str(tmp_path / "no-such-dir" / "r.json")
    for argv in (["--json", nowhere], ["--json", ""], ["--json="]):
        assert main(["analyze", fam, *argv]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


# an input of 3,000 characters, in a flag, a command or the ideal file, is
# quoted by its first 20 at most
LONG_INPUT_ERRORS = [
    (["verify", "{f}", "--target", "X" * 3000],
     f"--target must be one of Wnm, Wnmt, depth-recovery, multiplicity, got '{'X' * 20}'\n",
     FAMILY_531),
    (["analyze", "{f}", "--" + "x" * 3000], f"analyze takes no flag --{'x' * 18}\n", FAMILY_531),
    (["b" * 3000, "{f}"],
     f"expected a command, one of analyze, tropical, verify; got '{'b' * 20}'\n", FAMILY_531),
    (["analyze", "{f}"], f"bad factor '{'y' * 20}' in '{'y' * 20}'\n", "ring 3\n" + "y" * 3000),
    (["analyze", "{f}"], f"bad header 'ring {'n' * 15}'; expected 'ring <n>'\n",
     "ring " + "n" * 3000 + "\nx1\n"),
    (["analyze", "{f}"], f"variable x{'9' * 20} out of range 1..3\n", "ring 3\nx" + "9" * 3000),
    (["analyze", "{f}"], "cannot tokenize 'x1+x1+x1+x1+x1+x1+x1'\n",
     "ring 3\n" + "+".join(["x1"] * 1000) + "+"),
    (["tropical", "{f}", "--omega", "1,2,3,4," + "z" * 3000],
     f"bad omega entry: '{'z' * 20}': not a number\n", FAMILY_531),
]


@pytest.mark.parametrize("argv, message, text", [(argv, message, FAMILY_531) for argv, message in [
    (["analyze", "{f}", "--bogus", "1"], "analyze takes no flag --bogus"),
    (["analyze", "{f}", "--deg", "3"], "analyze takes no flag --deg"),
    (["analyze", "{f}", "--omega", "1,2"], "analyze takes no flag --omega"),
    (["tropical", "{f}", "--target", "Wnm", "--omega", "0,0,1,1,2"],
     "tropical takes no flag --target"),
    (["verify", "{f}"], "verify requires --target"),
    (["tropical", "{f}"], "tropical requires --omega"),
    (["verify", "{f}", "--target", "bogus"], "--target must be one of "),
    (["analyze", "{f}", "--seed", "x"], "--seed expects an integer, got 'x'"),
    (["analyze", "{f}", "--seed", "3_000"], "--seed expects an integer, got '3_000'"),
    (["analyze", "{f}", "--seed", "\u0663"], "--seed expects an integer, got '\u0663'"),
    (["analyze", "{f}", "--bound=+5"], "--bound expects an integer, got '+5'"),
    (["analyze", "{f}", "--seed", "7" * 5000], f"--seed expects an integer, got '{'7' * 20}'\n"),
    (["analyze", "{f}", "--seed"], "--seed expects a value"),
    (["analyze", "{f}", "--identity=1"], "--identity takes no value"),
    (["analyze"], "analyze takes one file, got 0"),
    (["analyze", "{f}", "{f}"], "analyze takes one file, got 2"),
    ([], "expected a command"),
    (["bogus", "{f}"], "expected a command"),
    (["--seed", "1", "analyze", "{f}"], "expected a command"),
]] + LONG_INPUT_ERRORS, ids=[
    "unknown-flag", "abbreviated-flag", "foreign-flag", "foreign-target", "no-target",
    "no-omega", "bad-target", "bad-int", "underscore-int", "arabic-int", "plus-int",
    "long-int", "no-value", "switch-value", "no-file",
    "two-files", "no-command", "bad-command", "flag-before-command",
    "long-target", "long-flag", "long-command", "long-factor", "long-header", "long-variable",
    "long-untokenizable", "long-omega"])
def test_usage_errors_exit_2_with_one_line(tmp_path, capsys, argv, message, text):
    # a bad command line, or a bad ideal file, is a UsageError inside main:
    # no SystemExit, no usage text, one error line and no report
    fam = write(tmp_path, "fam.ideal", text)
    assert main([a.format(f=fam) for a in argv]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


def test_flag_values_may_be_negative_or_follow_an_equals_sign(tmp_path, capsys):
    fam = write(tmp_path, "fam.ideal", FAMILY_531)
    # a negative value reaches the range check, not the parser
    for argv in (["--bound", "-5"], ["--bound=-5"]):
        assert main(["analyze", fam] + argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: --bound must be at least 1\n"
    reports = []
    for argv in (["--omega", "-1,0,0,1,2"], ["--omega=-1,0,0,1,2"]):
        assert main(["tropical", fam] + argv) == EXIT_OK
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["omega"] == ["-1", "0", "0", "1", "2"]
    # flags may come before the file, and the last of a repeated flag wins
    assert main(["analyze", "--seed=3", fam, "--seed", "7"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["seed"] == 7


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["verify", "f.ideal", "-h"],
                                  ["analyze", "--help", "--bogus"]])
def test_help_prints_the_usage_and_exits_0(capsys, argv):
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("usage: gentrop <command> <file> [flags]\n")
    for word in ("analyze", "tropical", "verify", "--degree-cap", "--omega", "depth-recovery"):
        assert word in captured.out


def test_degree_cap_binds_the_depth_gin(tmp_path, capsys):
    # the generators and their grevlex basis stay within the cap, but the gin
    # that depth reads has generators x1*x2^3 and x2^5 above it, and its
    # Buchberger runs reach degree 7
    path = write(tmp_path, "cubes.ideal", "ring 3\nx1^3\nx2^3\n")
    assert main(["analyze", path, "--degree-cap", "3"]) == EXIT_DEGREE_CAP
    capsys.readouterr()
    assert main(["analyze", path, "--degree-cap", "7"]) == EXIT_OK
    capsys.readouterr()


def test_degree_cap_binds_the_transformed_ideals(tmp_path, capsys):
    # the input's own basis stays within cap 3; tropical and verify abort
    # on the bases of its transformed ideals, which inherit the cap
    path = write(tmp_path, "cubes.ideal", "ring 3\nx1^3\nx2^3\n")
    for argv in (["tropical", path, "--omega", "0,1,2"], ["verify", path, "--target", "Wnm"]):
        assert main(argv + ["--degree-cap", "3"]) == EXIT_DEGREE_CAP
        capsys.readouterr()
        assert main(argv + ["--degree-cap", "7"]) == EXIT_OK
        capsys.readouterr()


def test_analyze_cross_validates_within_the_cone_budget(tmp_path, capsys):
    # (x1, x2) in 12 variables is CM of dimension 10: its 10-skeleton has
    # C(12, 3) = 220 maximal cones, more than the budget.  With or without
    # --identity, the seed draws the same cones that Wnm verifies.
    path = write(tmp_path, "plane.ideal", "ring 12\nx1\nx2\n")
    for extra in ([], ["--identity"]):
        code, a = run(capsys, "analyze", path, "--seed", "5", *extra)
        assert code == EXIT_OK and a["cm_class"] == "CM"
        assert len(a["probes"]) == 200
        _, v = run(capsys, "verify", path, "--seed", "5", "--target", "Wnm", *extra)
        assert [p["cone"] for p in a["probes"]] == [p["cone"] for p in v["probes"]]


def test_exit_code_genericity(tmp_path, capsys):
    # with the identity transform the "generic" initial ideal of (x2) is
    # (x2), which is not strongly stable: a certain genericity failure
    path = write(tmp_path, "line.ideal", "ring 2\nx2\n")
    assert main(["analyze", path, "--identity"]) == EXIT_GENERICITY
    capsys.readouterr()


@pytest.mark.parametrize("argv, text, message", [
    (["analyze"], "ring 2\n0\n", "the zero ideal is not supported"),
    (["analyze"], "ring 2\n1\n", "dimension of the zero ring is undefined"),
    (["analyze"], "ring 1\nx1\n", "classification requires positive dimension"),
    (["tropical", "--omega", "0,1"], "ring 2\nx1\nx2\n", "zero-dimensional ideals"),
    (["verify", "--target", "Wnm"], "ring 2\nx1\nx2\n", "need 0 < m <= n"),
], ids=["zero-ideal", "unit-ideal", "analyze-dim-0", "tropical-dim-0", "wnm-dim-0"])
def test_exit_code_unsupported_ideal(tmp_path, capsys, argv, text, message):
    # a well-formed file whose ideal the command does not support is a usage
    # error, raised by the library's own guard
    path = write(tmp_path, "u.ideal", text)
    assert main(argv[:1] + [path] + argv[1:]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


def _bare_value_error(*args):
    raise ValueError("an engine bug")


@pytest.mark.parametrize("target, broken, message", [
    ("gentrop.generic._det_int", lambda rows: 0, "invertible transform"),
    ("gentrop.invariants.cancel_one_minus_t", lambda q, d: (q, d), "multiplicity must be positive"),
    ("gentrop.groebner._buchberger_dicts", _bare_value_error, "an engine bug"),
], ids=["transform-draw", "hilbert", "engine-value-error"])
def test_exit_code_internal(tmp_path, capsys, monkeypatch, target, broken, message):
    # a broken engine invariant, or a bare ValueError from the engine, is
    # neither a failed probe nor a usage error: it exits with its own code
    # and a one-line message, no traceback
    monkeypatch.setattr(target, broken)
    path = write(tmp_path, "q.ideal", QUADRIC)
    assert main(["analyze", path]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ") and message in captured.err
    assert captured.err.count("\n") == 1


def test_budget_sampling_deterministic():
    from gentrop.fans import budget

    cones = list(range(500))
    a = budget(cones, 3)
    b = budget(cones, 3)
    assert a == b and len(a) == 200
    assert budget(list(range(10)), 3) == list(range(10))


def test_budget_picks_the_same_cones_by_index():
    from gentrop.fans import budget, maximal_cones, refinement_maximal_cones
    from oracles import listed_cones

    for seed in (0, 3):
        assert budget(maximal_cones(12, 6), seed) == budget(listed_cones(12, 6), seed)
        assert budget(refinement_maximal_cones(10, 6, 2), seed) == budget(
            listed_cones(10, 6, 2), seed
        )


def test_budget_samples_a_huge_fan_without_listing_it():
    from gentrop.fans import CONE_BUDGET, budget, maximal_cones, refinement_maximal_cones

    cones = maximal_cones(30, 15)  # C(30, 16), about 1.45e8 cones
    assert len(cones) == comb(30, 16)
    picked = budget(cones, 7)
    assert picked == budget(cones, 7)
    assert len(set(picked)) == CONE_BUDGET
    assert all(len(c.min_set) == 16 for c in picked)
    refinement = refinement_maximal_cones(30, 15, 5)
    assert len(budget(refinement, 7)) == CONE_BUDGET
