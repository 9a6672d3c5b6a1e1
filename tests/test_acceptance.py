"""Acceptance suite: one test per criterion, one pass/fail line each.

All algebraic assertions are exact (rational arithmetic, zero tolerance);
"sampled" criteria are finite evidence suites whose individual checks are
exact equalities.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import gentrop as gt
from gentrop.cli import EXIT_PROBE_FAILED, main
from gentrop.fans import ConeId
from gentrop.groebner import Ideal, buchberger
from gentrop.poly import GREVLEX, Polynomial, initial_form

import oracles
from cases import (
    codim2_complete_intersection,
    dense_form,
    policy,
    product_family,
    random_graded_ideal,
    smooth_quadric4,
    split_fan_ideal,
    stable_depth_family,
)

POLICY = policy(seed=0)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_depth_dimension_regression():
    t0 = time.time()
    checks = []
    for n, m, t in [(5, 3, 1), (6, 4, 1), (6, 4, 2)]:
        I = stable_depth_family(n, m, t)
        checks.append(gt.dimension(I) == m)
        checks.append(gt.depth(I, POLICY) == t)
    S = split_fan_ideal()
    checks.append(gt.dimension(S) == 4)
    checks.append(gt.depth(S, POLICY) == 1)
    elapsed = time.time() - t0
    checks.append(elapsed < 60)
    report(1, all(checks), f"depth/dimension regression in {elapsed:.1f}s")


def test_criterion_02_tropical_set_description():
    mismatches = 0
    total = 0
    for n, seed in [(3, 0), (3, 5), (4, 1)]:
        I = random_graded_ideal(n, seed)
        m = gt.dimension(I)
        assert m > 0
        rng = random.Random(f"grid:{n}:{seed}")
        for _ in range(200):
            w = tuple(rng.randint(-3, 3) for _ in range(n))
            want = w.count(min(w)) >= n - m + 1
            got = gt.tropical_member(I, w, POLICY)
            total += 1
            mismatches += want != got
    report(2, mismatches == 0, f"{total} grid points, {mismatches} mismatches")


def test_criterion_03_cm_fan_equality():
    ok = True
    dims = {smooth_quadric4(): 3, codim2_complete_intersection(): 2}
    for I, m_want in dims.items():
        m = gt.dimension(I)
        ok = ok and m == m_want
        for cone in gt.maximal_cones(I.n, m):
            ok = ok and gt.cone_constancy(I, cone, POLICY)
    report(3, ok, "quadric and codim-2 complete intersection")


def test_criterion_04_non_cm_separation(tmp_path):
    w, v, distinct_split = gt.separating_witness(split_fan_ideal(), POLICY)
    _, _, distinct_family = gt.separating_witness(
        stable_depth_family(5, 3, 1), POLICY
    )
    path = tmp_path / "split.ideal"
    path.write_text(
        "ring 5\nx1^2\nx1*x2\nx1*x3^2\nx1*x3*x4\n", encoding="utf-8"
    )
    code = main(["verify", str(path), "--target", "Wnmt"])
    report(
        4,
        distinct_split and distinct_family and code == EXIT_PROBE_FAILED,
        f"witnesses distinct; verify exit {code}",
    )


def test_criterion_05_refinement_fan_equality():
    fam = stable_depth_family(5, 3, 1)
    cones = gt.refinement_maximal_cones(5, 3, 1)
    constancy = [gt.cone_constancy(fam, c, POLICY) for c in cones]
    from gentrop.generic import adjacent_distinct

    pairs = gt.adjacent_pairs(5, 3, 1)
    distinct = [adjacent_distinct(fam, a, b, POLICY) for a, b in pairs[:5]]
    ok = all(constancy) and len(cones) == 20 and sum(distinct) >= 3 and all(distinct)
    report(5, ok, f"20 cones constant, {len(distinct)} adjacent pairs distinct")


def test_criterion_06_depth_recovery():
    vals = (
        gt.recover_depth(split_fan_ideal(), POLICY),
        gt.recover_depth(stable_depth_family(5, 3, 1), POLICY),
        gt.recover_depth(stable_depth_family(6, 4, 2), POLICY),
    )
    report(6, vals == (1, 1, 2), f"recovered depths {vals}")


def test_criterion_07_multiplicity_theorem():
    ok = True
    details = []
    quadric = Ideal(4, [dense_form(4, 2, seed=3)])
    cubic = Ideal(3, [dense_form(3, 3, seed=4)])
    for I, cones, expect in [
        (quadric, gt.maximal_cones(4, 3), 2),
        (cubic, gt.maximal_cones(3, 2), 3),
        (stable_depth_family(5, 3, 1), gt.refinement_maximal_cones(5, 3, 1), None),
    ]:
        m_ideal = gt.multiplicity(I)
        if expect is not None:
            ok = ok and m_ideal == expect
        for cone in cones:
            rep = gt.intrinsic_multiplicity(I, cone, POLICY)
            ok = ok and rep.matches
        details.append(f"m={m_ideal} over {len(cones)} cones")
    report(7, ok, "; ".join(details))


def test_criterion_08_non_generic_counterexamples():
    n = 4
    idp = gt.identity_policy(n)
    ok = True
    rng = random.Random("criterion8")
    for k in (1, 2, 3, 4):
        I = product_family(n, k)
        for _ in range(25):
            w = tuple(rng.randint(-2, 2) for _ in range(n))
            want = w[0] == w[1]
            ok = ok and gt.tropical_member(I, w, idp) == want
    x = [None] + [Polynomial.variable(n, i) for i in range(1, n + 1)]
    ell = x[1] + x[2]
    for k in (1, 2, 3):
        factors = [(x[i], 1) for i in range(1, k + 1)] + [(ell, 1)]
        f_k = ell
        for i in range(1, k + 1):
            f_k = f_k * x[i]
        mc = gt.hypersurface_mc(factors, (0,) * n, of=f_k)
        ok = ok and mc == 1
        ok = ok and gt.multiplicity(Ideal(n, [f_k])) == k + 1
    report(8, ok, "single-cone tropical variety and cone multiplicity 1 vs k+1")


def test_criterion_09_combinatorial_counts():
    ok = len(gt.refinement_maximal_cones(5, 4, 1)) == 30
    ok = ok and len(gt.maximal_cones(5, 4)) == 10
    for n in range(3, 7):
        for m in range(2, n):
            for t in range(1, m - 1):
                brute = {
                    (frozenset(p[: n - m + 1]), frozenset(p[n - t:]))
                    for p in permutations(range(1, n + 1))
                }
                got = gt.refinement_maximal_cones(n, m, t)
                ok = ok and len(got) == len(brute) == comb(n, n - m + 1) * comb(m - 1, t)
                ok = ok and {(c.min_set, c.top) for c in got} == brute
    report(9, ok, "30 and 10 maximal cones; brute-force refinement counts")


def test_criterion_10_newton_polytope():
    ok = True
    for n in (3, 4):
        for t in (2, 3):
            f = dense_form(n, t, seed=10 * n + t)
            I = Ideal(n, [f])
            g = gt.random_transform(n, POLICY, 0)
            gf = gt.apply_transform(I, g).generators[0]
            np_ = gt.newton_polytope(gf)
            want = {
                tuple(t if j == i else 0 for j in range(n)) for i in range(n)
            }
            ok = ok and set(np_.vertices) == want
            for i, j in combinations(range(n), 2):
                ei = tuple(t if r == i else 0 for r in range(n))
                ej = tuple(t if r == j else 0 for r in range(n))
                ok = ok and gt.edge_lattice_length(ei, ej) == t
                cone = ConeId(n, {i + 1, j + 1})
                rep = gt.intrinsic_multiplicity(I, cone, POLICY)
                ok = ok and rep.m_saturated == t and rep.matches
    report(10, ok, "vertices t*e_i; edge lengths equal cone multiplicities")


def test_criterion_11_engine_property_suites():
    ok = True
    rng = random.Random("criterion11")
    # reduced-basis uniqueness under generator shuffles
    for seed in range(3):
        I = random_graded_ideal(3, seed, gens=3)
        ref = buchberger(I).elements
        for _ in range(3):
            gens = list(I.generators)
            rng.shuffle(gens)
            gens[0] = gens[0] * Fraction(rng.randint(1, 7))
            ok = ok and buchberger(Ideal(3, gens)).elements == ref

    # membership-oracle equivalence up to degree 6
    for seed in range(3):
        I = random_graded_ideal(3, seed)
        gb = buchberger(I)
        for d in range(1, 7):
            mons = oracles.monomials_of_degree(3, d)
            f = Polynomial(
                3, {e: rng.randint(-3, 3) for e in rng.sample(mons, min(4, len(mons)))}
            )
            if not f:
                continue
            ok = ok and (
                gt.normal_form(f, gb.elements).is_zero()
                == oracles.member_homogeneous(f, I.generators, 3)
            )

    # Hilbert reconstruction against exhaustive counts up to degree 8
    from itertools import product as iproduct

    exps = [e for e in iproduct(range(4), repeat=3) if 0 < sum(e) <= 4]
    for _ in range(6):
        M = gt.minimalize(3, rng.sample(exps, 3))
        h = gt.hilbert(M)
        ok = ok and oracles.series_expansion(
            h.numerator, h.dim, 8
        ) == oracles.standard_monomial_counts(M.generators, 3, 8)

    # weighted initial ideals: invariance under positive scaling and shifts
    for seed in range(3):
        I = random_graded_ideal(3, seed)
        w = tuple(rng.randint(-3, 3) for _ in range(3))
        lam, c = rng.randint(1, 4), rng.randint(-4, 4)
        w2 = tuple(lam * x + c for x in w)
        ok = ok and (
            gt.initial_ideal(I, w).generators == gt.initial_ideal(I, w2).generators
        )

    # equal initial forms on the refined basis force equal initial ideals
    for seed in range(4):
        I = random_graded_ideal(3, seed)
        w = tuple(rng.randint(0, 2) for _ in range(3))
        w2 = tuple(2 * x for x in w)
        gb = buchberger(I, GREVLEX.refine(w))
        if all(initial_form(w, g) == initial_form(w2, g) for g in gb):
            ok = ok and (
                gt.initial_ideal(I, w).generators
                == gt.initial_ideal(I, w2).generators
            )
    report(11, ok, "uniqueness, membership, Hilbert, weight invariance")
