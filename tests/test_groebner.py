import inspect
import json
import math
import random
import re
import signal
import textwrap
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from operator import le, mul

import pytest

from gentrop import generic
from gentrop.fans import budget, interior_point, refinement_maximal_cones
from gentrop.generic import gap_degree, identity_policy, transformed, tropical_member
from gentrop.groebner import (
    DEFAULT_DEGREE_CAP,
    DegreeCapExceeded,
    Ideal,
    NotGradedError,
    buchberger,
    contains_monomial,
    hilbert_numerator,
    ideal_equal,
    initial_ideal,
    is_unit_ideal,
    normal_form,
    saturate,
)
from gentrop.poly import GREVLEX, OrderSpec, Polynomial, initial_form, normalize_weight

import oracles
from cases import (
    P, counting_cone_hits, counting_engine, counting_normal_forms, counting_orders,
    counting_spairs, counting_trace_checks, counting_walks, dense_form,
    ideal, policy, product_family,
    random_graded_ideal, seeded_ideals, split_fan_ideal, stable_depth_family,
    stanley_reisner_draw, stanley_reisner_ideal,
)


def gens_of(I):
    return [str(g) for g in I.generators]


def test_normal_form_examples():
    assert normal_form(P("x1^2", 2), [P("x1 + x2", 2)]) == P("x2^2", 2)
    I = ideal(2, "x1 + x2", "x1^2")
    gb = buchberger(I)
    for g in I.generators:
        assert normal_form(g, gb.elements).is_zero()
    assert normal_form(P("x3", 3), [P("x1", 3), P("x2", 3)]) == P("x3", 3)


def test_normal_form_membership_matches_oracle():
    rng = random.Random(2)
    for seed in range(6):
        I = random_graded_ideal(3, seed)
        gb = buchberger(I)
        for d in range(1, 7):
            for _ in range(5):
                mons = oracles.monomials_of_degree(3, d)
                f = Polynomial(3, {e: rng.randint(-3, 3) for e in rng.sample(mons, min(4, len(mons)))})
                if not f:
                    continue
                nf_zero = normal_form(f, gb.elements).is_zero()
                assert nf_zero == oracles.member_homogeneous(f, I.generators, 3)


def test_buchberger_examples():
    I = ideal(2, "x1 + x2", "x1^2")
    assert [str(g) for g in buchberger(I)] == ["x1 + x2", "x2^2"]
    M = ideal(2, "x1^2", "x2^3")
    assert sorted(str(g) for g in buchberger(M)) == ["x1^2", "x2^3"]
    principal = ideal(3, "2*x1^2 + 4*x2*x3")
    assert [str(g) for g in buchberger(principal)] == ["x1^2 + 2*x2*x3"]


def test_reduced_basis_is_reduced_and_unique_under_shuffles():
    rng = random.Random(4)
    for seed in range(5):
        I = random_graded_ideal(3, seed, gens=3)
        reference = buchberger(I).elements
        # reduced: monic, and no term divisible by another leading monomial
        leads = [g.terms[0][0] for g in reference]
        for i, g in enumerate(reference):
            assert g.terms[0][1] == 1
            for e, _ in g.terms:
                for j, lm in enumerate(leads):
                    if i != j:
                        assert not all(a <= b for a, b in zip(lm, e))
        for _ in range(4):
            gens = list(I.generators)
            rng.shuffle(gens)
            lam = Fraction(rng.randint(1, 5))
            gens[0] = gens[0] * lam
            assert buchberger(Ideal(3, gens)).elements == reference


def test_basis_idempotence():
    for seed in range(4):
        I = random_graded_ideal(3, seed)
        gb = buchberger(I)
        again = buchberger(Ideal(3, list(gb.elements)))
        assert again.elements == gb.elements


def test_membership_is_order_independent():
    rng = random.Random(9)
    orders = [GREVLEX, GREVLEX.refine((0, 1, 2)), GREVLEX.refine((2, 0, 1))]
    for seed in range(4):
        I = random_graded_ideal(3, seed)
        bases = [buchberger(I, o).elements for o in orders]
        for d in range(1, 5):
            mons = oracles.monomials_of_degree(3, d)
            f = Polynomial(3, {e: rng.randint(-2, 2) for e in rng.sample(mons, min(3, len(mons)))})
            if not f:
                continue
            results = {normal_form(f, b, o).is_zero() for b, o in zip(bases, orders)}
            assert len(results) == 1


def test_ideal_equal_examples():
    assert ideal_equal(ideal(2, "x1 + x2"), ideal(2, "2*x1 + 2*x2"))
    assert not ideal_equal(ideal(2, "x1"), ideal(2, "x2"))
    assert ideal_equal(ideal(2, "x1 + x2", "x1^2"), ideal(2, "x1 + x2", "x2^2"))
    # initial_ideal caches the basis refined by (0, 1, 0), whose tail lists
    # x1*x3 before x2^2; grevlex reuses that basis, and a fresh equal ideal
    # runs the engine, whose tail lists x2^2 first
    for w in [(0, 1, 0), (1, 0, 0), (0, 0, 1), (2, 1, 0)]:
        I = ideal(3, "x1^2 + x2^2 + x1*x3")
        initial_ideal(I, w)
        assert ideal_equal(I, ideal(3, "x1^2 + x2^2 + x1*x3"))
        assert ideal_equal(ideal(3, "x1^2 + x2^2 + x1*x3"), I)
        assert not ideal_equal(I, ideal(3, "x1^2 + x2^2 - x1*x3"))


def test_initial_ideal_examples():
    J = initial_ideal(ideal(3, "x1 + x2 + x3"), (0, 0, 1))
    assert ideal_equal(J, ideal(3, "x1 + x2"))
    I = random_graded_ideal(3, 1)
    assert ideal_equal(initial_ideal(I, (0, 0, 0)), I)
    fam = ideal(4, "x1^2 + x1*x2", "x1*x2 + x2^2")
    J = initial_ideal(fam, (0, 0, 1, 1))
    assert ideal_equal(J, ideal(4, "x1^2 + x1*x2", "x1*x2 + x2^2"))
    assert not contains_monomial(J)


def test_initial_ideal_generators_are_its_reduced_basis():
    # the construction promises: generators = reduced basis of the result
    for seed in range(4):
        I = random_graded_ideal(3, seed)
        J = initial_ideal(I, (0, 1, 3))
        assert sorted(buchberger(J).elements, key=lambda p: p.terms) == sorted(
            J.generators, key=lambda p: p.terms
        )


def test_initial_forms_of_members_lie_in_initial_ideal():
    # the weighted initial ideal contains the initial form of every member,
    # not only of the basis elements
    rng = random.Random(19)
    for seed in range(3):
        I = random_graded_ideal(3, seed)
        w = tuple(rng.randint(0, 3) for _ in range(3))
        J = initial_ideal(I, w)
        jb = buchberger(J).elements
        for _ in range(10):
            f = Polynomial.zero(3)
            for g in I.generators:
                shift = tuple(rng.randint(0, 2) for _ in range(3))
                f = f + Polynomial.monomial(3, shift, rng.randint(-3, 3)) * g
            if not f:
                continue
            assert normal_form(initial_form(w, f), jb).is_zero()


def test_initial_ideal_invariance_under_scaling_and_shift():
    rng = random.Random(13)
    for seed in range(4):
        I = random_graded_ideal(3, seed)
        w = tuple(rng.randint(-3, 3) for _ in range(3))
        lam = rng.randint(1, 4)
        c = rng.randint(-5, 5)
        w2 = tuple(lam * x + c for x in w)
        # a fresh parent, so no basis cached on I is read
        assert initial_ideal(I, w).generators == initial_ideal(Ideal(3, I.generators), w2).generators


def test_equivalent_weights_give_equal_initial_ideals():
    # a scaled, shifted or Fraction weight gives the initial ideal of w:
    # equal forms, the generators a fresh parent computes and the parent's
    # cap.  Each call builds a distinct Ideal that holds the grevlex basis
    # read from its forms
    ideals = [random_graded_ideal(n, seed, gens=2 + seed % 2) for n in (3, 4) for seed in range(2)]
    for seed in range(2):
        ideals.append(Ideal(3, [dense_form(3, 2, seed), dense_form(3, 3, seed)], degree_cap=30))
        ideals.append(Ideal(4, [dense_form(4, 2, seed), dense_form(4, 2, seed + 1)], degree_cap=30))
    rng = random.Random(41)
    shared = 0
    for I in ideals:
        n = I.n
        by_forms: dict = {}
        for w in product(range(3), repeat=n):
            J = initial_ideal(I, w)
            assert J.degree_cap == I.degree_cap
            lam, c = rng.randint(2, 5), rng.randint(-4, 4)
            for v in (w, tuple(lam * x for x in w), tuple(x + c for x in w),
                      tuple(Fraction(lam * x + c, 3) for x in w)):
                K = initial_ideal(I, v)
                assert K is not J and K.forms == J.forms
                assert K.gb_cache[GREVLEX].forms == J.gb_cache[GREVLEX].forms
            fresh = initial_ideal(Ideal(n, I.generators, I.degree_cap), w)
            assert J.generators == fresh.generators
            by_forms.setdefault(J.forms, (J, set()))[1].add(normalize_weight(w, n))
        # weights of one open Groebner cone give equal forms, and different
        # initial ideals have different generators
        shared += any(len(found) > 1 for _, found in by_forms.values())
        assert len({J.generators for J, _ in by_forms.values()}) == len(by_forms) > 1
        # a parent whose bases were dropped recomputes one and builds the
        # same forms
        I.gb_cache.clear()
        J = initial_ideal(I, (2,) * (n - 1) + (3,))
        assert J.forms == initial_ideal(I, (0,) * (n - 1) + (1,)).forms
        # containment on an initial ideal is that of a fresh ideal with the
        # same generators
        for J, _ in by_forms.values():
            assert contains_monomial(J) == contains_monomial(Ideal(n, J.generators, I.degree_cap))
    assert shared


def test_weighted_bases_are_cached_under_the_normalized_order(monkeypatch):
    # shifts and positive multiples of a weight, and weights that normalize
    # to zero, are one order: one engine run and one cache entry, with the
    # elements ascending under the order they are cached under.  A weight
    # that normalizes to zero, or the order spelled out anew, is the key
    # GREVLEX: a cache hit with no Groebner-cone lookup
    runs = counting_engine(monkeypatch)
    for weights, want in [
        ([(2, 2, 2), (5, 5, 5), (0, 0, 0), None], GREVLEX),
        ([(0, 1, 2), (3, 5, 7), (-2, 0, 2), (Fraction(1, 2), 1, Fraction(3, 2))],
         GREVLEX.refine((0, 1, 2))),
    ]:
        I = Ideal(3, [dense_form(3, 2, 0), dense_form(3, 2, 1)])
        before = len(runs)
        first = buchberger(I, GREVLEX if weights[0] is None else GREVLEX.refine(weights[0]))
        lookups = counting_cone_hits(monkeypatch)
        got = [buchberger(I, OrderSpec() if w is None else GREVLEX.refine(w)) for w in weights]
        assert len(runs) == before + 1 and not lookups
        assert list(I.gb_cache) == [want]
        assert all(gb is first for gb in got) and first.order == want
        key = want.key_function(3, I.degree_cap)
        leads = [key(e) for e in first.leads]
        assert leads == sorted(leads) and len(set(leads)) == len(leads)


def test_refined_order_initial_forms_give_same_ideal():
    # if two weights give identical initial forms on the refined basis, the
    # weighted initial ideals agree
    rng = random.Random(17)
    hits = 0
    for seed in range(8):
        I = random_graded_ideal(3, seed)
        w = tuple(rng.randint(0, 3) for _ in range(3))
        w2 = tuple(rng.randint(0, 3) for _ in range(3))
        gb = buchberger(I, GREVLEX.refine(w))
        if all(initial_form(w, g) == initial_form(w2, g) for g in gb):
            hits += 1
            assert initial_ideal(I, w).generators == initial_ideal(I, w2).generators
    # the premise must actually trigger (scaled copies always do)
    I = random_graded_ideal(3, 0)
    w = (1, 2, 0)
    w2 = (2, 4, 0)
    gb = buchberger(I, GREVLEX.refine(w))
    assert all(initial_form(w, g) == initial_form(w2, g) for g in gb)
    assert initial_ideal(I, w).generators == initial_ideal(I, w2).generators
    assert hits >= 0


def test_saturate_examples():
    assert gens_of(saturate(ideal(2, "x1*x2"), P("x1", 2))) == ["x2"]
    fam = ideal(4, "x1^2 + x1*x2", "x2*x1 + x2^2")
    sat = saturate(fam, P("x1*x2*x3*x4", 4))
    assert gens_of(sat) == ["x1 + x2"]
    collapse = saturate(ideal(2, "x1^2", "x1*x2"), P("x1*x2", 2))
    assert is_unit_ideal(collapse)


def _mult_family_initial_ideals() -> list:
    """The ideals that the family multiplicity job of the fan-probe
    benchmark saturates at workload seeds 1-3: in_w(gI) for both draws gI
    of the strongly stable family (x1, x2^2, x2*x3, x2*x4) in 5 variables,
    w the interior point of the one refinement cone the job probes."""
    I = stable_depth_family(5, 3, 1)
    out = []
    for seed in (1, 2, 3):
        rng = random.Random(f"fan-probe:{seed}")
        pol = policy(seed=[rng.randrange(10**6) for _ in range(4)][3])
        w = interior_point(budget(refinement_maximal_cones(5, 3, 1), pol.seed)[0],
                           gap_degree(I, pol) + 1)
        out += [initial_ideal(gI, w) for gI in transformed(I, pol)]
    return out


def test_saturate_matches_linear_algebra_oracle():
    # (I, f, p): the oracle's colon slices are stable from f^p on, and f^p
    # multiplies each generator of the saturation into I
    cases = [
        (ideal(2, "x1*x2"), P("x1", 2), 2),
        (ideal(3, "x1^2 + x1*x2", "x2*x1 + x2^2"), P("x1*x2*x3", 3), 2),
        (random_graded_ideal(3, 2), P("x1*x2*x3", 3), 2),
    ]
    # seeded ideals of the auxiliary-variable comparison: a sparse one, its
    # copy with monomial factors, and a dense one
    seeded = _saturation_ideals()
    cases += [
        (seeded[0], P("x1*x2*x3", 3), 2),
        (seeded[1], P("x1^2*x3", 3), 2),
        (seeded[12], P("x1*x2*x3", 3), 2),
    ]
    # the initial ideals that the family multiplicity job saturates by the
    # product of the variables, holding their grevlex bases as in the job:
    # each walk runs its steps for x4, x2 and x1 in 5 variables, the last
    # two of which a run on the ideal restricted to x_i = 0 used to certify
    # (the oracle takes ~1 s per case)
    cases += [(J, P("x1*x2*x3*x4*x5", 5), 1) for J in _mult_family_initial_ideals()]
    for I, f, p in cases:
        S = saturate(I, f)
        for g in S.generators:
            # exactness: a fixed power of f multiplies g into I
            assert oracles.member_homogeneous(g * f**p, I.generators, I.n)
        for d in range(0, 5):
            got = oracles.slice_dimension(S.generators, I.n, d)
            want = oracles.saturation_slice(I.generators, f, I.n, d, stable_power=p)
            assert got == want, (d, gens_of(S))


def test_saturate_rejects_zero():
    with pytest.raises(ValueError):
        saturate(ideal(2, "x1"), Polynomial.zero(2))
    for f in ("x1 + x2", "x1 - x1*x2", "2*x1^2 + x2^2"):
        with pytest.raises(ValueError, match="monomial"):
            saturate(ideal(2, "x1*x2"), P(f, 2))
    # a constant is a monomial: saturating by it changes nothing
    assert gens_of(saturate(ideal(2, "x1*x2"), P("3", 2))) == ["x1*x2"]


def _aux_saturation(I, f, cap=40):
    """Reference (I : f^infinity) by an auxiliary variable y: the y-free
    elements of the reduced basis of I + (1 - y*f) under a block order,
    grevlex on y first and then grevlex on x1..xn, as monic polynomials in
    ascending grevlex order, computed under degree cap ``cap``."""
    from gentrop.groebner import _buchberger_dicts, _monic

    n = I.n
    # integer key: y in a field above grevlex on x1..xn, whose fields of b
    # bits are exact for x-degree up to ``bound``
    bound = 3 * cap
    b = bound.bit_length() + 1
    v = [(1 << (b * n)) - (1 << (b * i)) for i in range(n)] + [1 << (b * (n + 1))]

    def block_key(e):
        if sum(e[:n]) > bound:
            raise AssertionError(f"x-degree of {e} exceeds the key's bound {bound}")
        return sum(map(mul, v, e))

    # the engine takes integer polynomials: the forms of I, and 1 - y*x^e
    # for the monomial f = c*x^e, whose coefficient c does not matter
    lifted = [{e + (0,): c for e, c in form} for form in I.forms]
    ((e, _),) = f.terms
    aux = {e + (1,): -1, (0,) * (n + 1): 1}
    forms = _buchberger_dicts(lifted + [aux], block_key, cap)
    return [
        Polynomial(n, {e[:-1]: c for e, c in _monic(f).items()})
        for f in forms
        if all(e[n] == 0 for e, _ in f)
    ]


def _aux_contains_monomial(I):
    """Reference monomial test: the saturation by x1*...*xn is the unit ideal."""
    return _aux_saturation(I, Polynomial.monomial(I.n, (1,) * I.n)) == [Polynomial.one(I.n)]


def _saturation_ideals():
    """Seeded sparse and dense ideals in 3 and 4 variables, each followed by
    a copy whose generators carry monomial factors, so that saturating has
    something to remove."""
    base = [random_graded_ideal(n, seed, gens=2 + seed % 2) for n in (3, 4) for seed in range(3)]
    for seed in range(2):
        base.append(Ideal(3, [dense_form(3, 2, seed), dense_form(3, 2, seed + 1)]))
        base.append(Ideal(4, [dense_form(4, 2, seed), dense_form(4, 2, seed + 1)]))
    out = []
    for k, I in enumerate(base):
        n = I.n
        factors = [Polynomial.variable(n, 1 + (k + j) % n) ** (1 + j % 2) for j in range(len(I.generators))]
        out += [I, Ideal(n, [m * g for m, g in zip(factors, I.generators)])]
    return out


def test_saturate_matches_auxiliary_variable_reference():
    # saturation by Bayer-Stillman steps must return exactly the generators
    # of the auxiliary-variable elimination it replaced
    moved = units = 0
    for I in _saturation_ideals():
        n = I.n
        fs = [Polynomial.monomial(n, (1,) * n), Polynomial.variable(n, 2), P("x1^2*x3", n)]
        for f in fs:
            got = list(saturate(I, f).generators)
            assert got == _aux_saturation(I, f), (I, f)
            units += got == [Polynomial.one(n)]
            moved += not ideal_equal(Ideal(n, got), I)
        assert contains_monomial(I) == _aux_contains_monomial(I)
    assert moved and units
    # at the edge of one-byte exponent fields: the pair of x1^126*x2 - x2^127
    # and 1 - y*x2 has degree 128, which cap 127 refuses and cap 128 admits
    I, f = ideal(2, "x1^126*x2 - x2^127", degree_cap=128), P("x2", 2)
    with pytest.raises(DegreeCapExceeded, match="^s-pair degree exceeds cap 127$"):
        _aux_saturation(I, f, cap=127)
    assert _aux_saturation(I, f, cap=128) == list(saturate(I, f).generators) == [P("x1^126 - x2^126", 2)]


def test_contains_monomial_examples_and_oracle():
    assert not contains_monomial(ideal(2, "x1 + x2"))
    assert contains_monomial(ideal(2, "x1^2", "x1*x2", "x2^2"))
    fam = ideal(3, "x1^2 + x1*x2", "x2*x1 + x2^2")
    assert not contains_monomial(fam)
    for seed in range(5):
        I = random_graded_ideal(3, seed)
        found_low = oracles.monomial_in_ideal_upto(I.generators, 3, 6)
        has = contains_monomial(I)
        if found_low:
            assert has
        if not has:
            assert not found_low


def _sweep_initial_ideals(monkeypatch) -> list:
    """The initial ideals of the transformed ideals in a small tropical
    sweep, one per distinct forms of each transformed ideal: six pairs of
    dense quadrics, alternately in 3 and 4 variables, 16 grid queries each.
    Those the sweep built keep the bases their membership tests cached.  A
    query that the grevlex certificate answers builds no initial ideal, so
    the initial ideals at the sorted weights of all the queries are built
    after the sweep too, and the ideals with a monomial come from there."""
    built = []

    def building(gI, w):
        built.append((gI, J := initial_ideal(gI, w)))
        return J

    monkeypatch.setattr(generic, "initial_ideal", building)
    rng = random.Random("walk-sweep")
    out = []
    for n in (3, 4) * 3:
        I = Ideal(n, [dense_form(n, 2, rng.randrange(10**6)) for _ in range(2)])
        weights = []
        for q in range(16):
            ties = rng.randint(3, n) if q % 2 == 0 else rng.randint(1, 2)
            low = rng.randint(-3, 2)
            w = [low] * ties + [rng.randint(low + 1, 3) for _ in range(n - ties)]
            rng.shuffle(w)
            tropical_member(I, tuple(w), policy())
            weights.append(tuple(sorted(w)))
        for gI in transformed(I, policy()):
            kept = {J.forms: J for g, J in reversed(built) if g is gI}
            for w in weights:
                J = initial_ideal(gI, w)
                kept.setdefault(J.forms, J)
            out += kept.values()
        del built[:]
    return out


def _fresh(I: Ideal) -> Ideal:
    """A copy of I with nothing cached and its numerator unknown."""
    return Ideal(I.n, map(dict, I.forms), I.degree_cap)


def _with_numerator(I: Ideal) -> Ideal:
    """A copy of I with no basis but its Hilbert numerator known, as a
    transformed ideal has it, so its saturation steps run with a target."""
    J = _fresh(I)
    J.numerator = hilbert_numerator(I.n, buchberger(_fresh(I)).leads)
    return J


def _has_monomial(gb) -> bool:
    return any(len(f) == 1 for f in gb.forms)


# ideals on which a held basis used to certify no saturation step: J
# inside (x3), where x3 is a zero divisor; a monomial ideal; n = 1; n = 2
REFUSING = [ideal(3, "x1*x3", "x2*x3 + x3^2"), ideal(3, "x1*x2", "x3^2"),
            ideal(1, "x1^3"), ideal(2, "x1*x2"), ideal(2, "x1^2 + x2^2")]


def test_the_saturation_walk_matches_one_basis_per_variable(monkeypatch):
    # the walk that takes cached bases and stops at the unit ideal against
    # the walk that runs one basis per variable: equal reduced grevlex
    # bases for ``saturate`` and equal answers for ``contains_monomial``.  The
    # package side walks three copies of each ideal: fresh, after its
    # grevlex basis was cached, and with only its Hilbert numerator known,
    # so that its runs have a target; the reference walks a fresh copy each
    # time.  The cases: x1 a zero divisor, x4 in no generator, the unit
    # ideal, three ideals whose grevlex bases hold no monomial though they
    # contain one, the ideals of REFUSING, the sparse and dense seeded
    # ideals, and the initial ideals of a sweep, walked again with
    # the bases the sweep cached, some with a monomial and some without
    late = [random_graded_ideal(3, seed, gens=3, terms_per_gen=3) for seed in (7, 18, 48)]
    for I in late:
        assert not _has_monomial(buchberger(_fresh(I)))
    plain = [ideal(3, "x1*x2", "x1*x3"), ideal(4, "x1*x2 - x3^2", "x1^2 + x2*x3"),
             Ideal(3, [{(0, 0, 0): 1}]), *late, *REFUSING, *seeded_ideals(2, 1)]
    cases = [J for I in plain for J in (_fresh(I), _fresh(I), _with_numerator(I))]
    for J in cases[1::3]:
        buchberger(J)
    swept = _sweep_initial_ideals(monkeypatch)
    for J in swept:
        J.has_monomial = None
    changed, contains = 0, {}
    for J in cases + swept:
        n = J.n
        want = is_unit_ideal(oracles.bayer_stillman_saturation(_fresh(J), (1,) * n))
        contains[id(J)] = contains_monomial(J)
        assert contains[id(J)] == want, J
        for m in [(1,) * n, ((0, 1) + (0,) * n)[:n], ((2, 0, 1) + (0,) * n)[:n]]:
            want = oracles.bayer_stillman_saturation(_fresh(J), m)
            got = saturate(J, Polynomial.monomial(n, m))
            assert buchberger(got).forms == buchberger(want).forms, (J, m)
            changed += got.forms != buchberger(_fresh(J)).forms
    assert changed and len(swept) > 60
    assert 0 < sum(contains[id(J)] for J in swept) < len(swept)
    # a step that divides builds an ideal whose numerator is unknown: the x4
    # step of (x1x4, x2x4) divides to (x1, x2), whose x3 step then runs
    J = _with_numerator(ideal(4, "x1*x4", "x2*x4"))
    assert sorted(gens_of(saturate(J, P("x3*x4", 4)))) == ["x1", "x2"]


def test_a_step_after_a_division_runs_in_natural_order(monkeypatch):
    # a step that divides builds an ideal with no cached basis, so the next
    # step runs: under grevlex refined by its variable's unit weight, which
    # ranks as grevlex with that variable last and the others in natural
    # order.  Each walk, to the saturation by x^m, answers as the
    # walk that runs one basis per variable.  In 18 steps the walks ask for
    # a basis of an ideal that a division built, and they make 75 engine
    # runs in all (39 and 96 when a held basis could certify a step and the
    # walk went on past the unit ideal.  With those walks run again, each
    # stopping at the first basis with a monomial, the test counted 46 and
    # 163; 40 and 166 when, too, a run on the ideal restricted to x_i = 0
    # could certify a step; 164 when, too, such a step put the next
    # variable to saturate just before its own)
    from gentrop.groebner import _saturation

    cases = [ideal(3, "x1*x2", "x1*x3"), ideal(4, "x1*x4", "x2*x4"),
             *[random_graded_ideal(3, seed, gens=3, terms_per_gen=3) for seed in range(1, 9)],
             *seeded_ideals(3, 2)]
    walks = []
    for I in cases:
        n = I.n
        for m in [(1,) * n, ((1, 0, 2) + (1,) * n)[:n]]:
            want = oracles.bayer_stillman_saturation(_fresh(I), m)
            walks.append((I, m, buchberger(want).forms))
    runs, orders = counting_engine(monkeypatch), counting_orders(monkeypatch)
    after = walked = 0
    for I, m, want in walks:
        J = _fresh(I)
        orders.clear()
        before = len(runs)
        got = _saturation(J, m)
        walked += len(runs) - before
        for K, order in orders:
            if K is not J:
                assert order == GREVLEX or sorted(order.weight) == [0] * (I.n - 1) + [1], (I, m)
                after += 1
        assert buchberger(got).forms == want, (I, m)
    assert (after, walked) == (18, 75)


def test_the_walk_stops_at_the_unit_ideal(monkeypatch):
    # the x3 step of (x3^2, x1*x2) divides x3^2 to 1, so the walk stops
    # there with the unit ideal after 1 engine run (2 without the exit: the
    # x2 step runs, and a cone hit serves the x1 step)
    from gentrop.groebner import _saturation

    runs = counting_engine(monkeypatch)
    J = _saturation(ideal(3, "x3^2", "x1*x2"), (1, 1, 1))
    assert len(runs) == 1 and is_unit_ideal(J)


def test_contains_monomial_memoizes_its_answer(monkeypatch):
    # two weights in different orbits, (0, 0, 1, 2) and (0, 0, 1, 3), give
    # equal initial ideals of each transformed quadric, each built fresh.
    # The first containment test of one held J asks the trace check, which
    # shows J monomial-free, and the memo in ``J.has_monomial`` answers the
    # second with no trace check, walk or engine run
    I = Ideal(4, [dense_form(4, 2, 0)])
    assert tropical_member(I, (0, 0, 1, 2), policy())
    traces, walks = counting_trace_checks(monkeypatch), counting_walks(monkeypatch)
    runs = counting_engine(monkeypatch)
    for gI in transformed(I, policy()):
        J = initial_ideal(gI, (0, 0, 1, 2))
        assert J.forms == initial_ideal(gI, (0, 0, 1, 3)).forms and J.has_monomial is None
        del traces[:]
        assert not contains_monomial(J) and traces and J.has_monomial is False
        del traces[:], walks[:], runs[:]
        assert not contains_monomial(J) and not (traces or walks or runs)


def _trace_cases() -> list:
    """Ideals that hold their reduced grevlex basis: each draw of seeded
    sparse ideals in 3-5 variables, dense complete intersections in 3-5 and
    Stanley-Reisner ideals on 4-6 vertices, under a sampled and the
    identity policy, and its initial ideals at the normalized weights of
    [-1, 1]^n (every sixth in 5 variables, every twentieth in 6)."""
    ideals = [random_graded_ideal(3, seed) for seed in range(8)]
    ideals += [random_graded_ideal(n, seed, max_degree=2) for n in (4, 5) for seed in range(4)]
    ideals += [Ideal(n, [dense_form(n, 2, seed + i) for i in range(k)])
               for n in (3, 4, 5) for k in (1, 2) for seed in range(2)]
    ideals += [stanley_reisner_ideal(n, facets) for n, facets in stanley_reisner_draw()[:9]]
    out = []
    for I in ideals:
        n = I.n
        grid = sorted({normalize_weight(w, n) for w in product(range(-1, 2), repeat=n)})
        grid = grid[1:][::{5: 6, 6: 20}.get(n, 1)]  # the zero weight first, dropped
        for pol in (policy(), identity_policy(n)):
            for gI in transformed(I, pol):
                buchberger(gI)
                out += [gI, *(initial_ideal(gI, w) for w in grid)]
    return out


def test_the_trace_check_agrees_with_the_walk(monkeypatch):
    # ``_trace_certifies`` against the walk of ``contains_monomial`` on a
    # fresh copy, which holds no basis and so walks.  The check only ever
    # certifies that an ideal holds no monomial, and it makes no engine
    # run: of the 3,462 cases it certifies 202 of the 738 monomial-free
    # ones, and none that holds a monomial.  Without its test that
    # x_{n-d+1}, ..., x_n divide no grevlex lead (and dropping the
    # restrictions that vanish, so that it answers where it would raise)
    # it certifies some that do: two initial ideals of a sampled draw of
    # the Stanley-Reisner ideal (x1, x2*x5, x3*x5), each of which holds x4
    from gentrop import groebner

    source = textwrap.dedent(inspect.getsource(groebner._trace_certifies))
    test = " or any(any(f[0][0][k - 1:]) for f in gb.forms)"
    restrict = "mons)\n                for f in gb.forms]"
    assert source.count(test) == 1 and source.count(restrict) == 1
    kept = restrict[:-1] + " if any(not any(e[k:]) for e, _ in f)]"
    namespace = dict(vars(groebner))
    exec(source.replace(test, "").replace(restrict, kept), namespace)
    mutant = namespace["_trace_certifies"]
    cases = _trace_cases()
    with monkeypatch.context() as patched:
        def forbidden(*args):
            raise AssertionError("the trace check ran the engine")

        patched.setattr(groebner, "_buchberger_dicts", forbidden)
        checked = [(groebner._trace_certifies(J), mutant(J)) for J in cases]
    free = certified = wrong = 0
    for J, (got, mutated) in zip(cases, checked):
        has = contains_monomial(_fresh(J))
        assert not (got and has), J
        free += not has
        certified += got
        wrong += mutated and has
    assert (len(cases), free, certified, wrong) == (3462, 738, 202, 2)


def test_a_trace_check_over_the_cap_walks(monkeypatch):
    # two quadrics with coprime leads in 3 variables are their own reduced
    # grevlex basis, which cap 3 admits; the trace check takes normal forms
    # of degree j0 + n - d = 4, so under cap 3 it certifies nothing and the
    # walk runs, which goes over the cap too and leaves the memo unset.
    # Under cap 4 the check answers with no engine run and no walk
    gens = ("x1^2 + x2*x3 + x3^2", "x2^2 + x1*x3")
    walks = counting_walks(monkeypatch)
    J = ideal(3, *gens, degree_cap=3)
    assert [str(g) for g in buchberger(J)] == ["x2^2 + x1*x3", "x1^2 + x2*x3 + x3^2"]
    with pytest.raises(DegreeCapExceeded):
        contains_monomial(J)
    assert len(walks) == 1 and J.has_monomial is None
    J = ideal(3, *gens, degree_cap=4)
    buchberger(J)
    runs = counting_engine(monkeypatch)
    assert not contains_monomial(J) and not runs and len(walks) == 1
    assert not contains_monomial(_fresh(J))


def test_graded_validation_and_errors():
    with pytest.raises(NotGradedError):
        Ideal(2, [P("x1 + x2^2", 2)])
    with pytest.raises(ValueError):
        Ideal(2, [Polynomial.zero(2)])
    with pytest.raises(DegreeCapExceeded):
        # artificial cap of 1 cannot even hold the generators
        buchberger(ideal(2, "x1^2 + x2^2", degree_cap=1))
    for cap in (0, -1):
        with pytest.raises(ValueError, match="below 1"):
            ideal(2, "x1", degree_cap=cap)
    # a cap that is not an int would fail only at the first run
    with pytest.raises(ValueError, match="not an int"):
        Ideal(3, [P("x1*x2", 3)], degree_cap=2.5)
    # a zero f is its own remainder; a zero divisor is refused
    zero = Polynomial.zero(2)
    assert normal_form(zero, [P("x1", 2)]) is zero
    with pytest.raises(ValueError, match="zero polynomial in divisor list"):
        normal_form(P("x1", 2), [P("x2", 2), zero])
    # a second ideal, a saturating monomial or a weight in another number
    # of variables
    with pytest.raises(ValueError, match="variable counts differ"):
        ideal_equal(ideal(2, "x1"), ideal(3, "x1"))
    with pytest.raises(ValueError, match="variable counts differ"):
        saturate(ideal(2, "x1"), P("x1", 3))
    gb = buchberger(ideal(2, "x1*x2 + x2^2"))
    for test in (gb.has_monomial_initial_form, gb.cell_contains):
        with pytest.raises(ValueError, match="weight length"):
            test((0, 1, 2))


def test_ideal_stores_primitive_integer_forms():
    # rational and non-monic generators are kept as primitive integer forms
    # (content 1, positive grevlex leading coefficient); ``generators`` reads
    # them back as their monic multiples, in input order
    I = ideal(3, "-3/2*x3^2 + 6*x1*x2", "4*x1 - 2/3*x2 + 8/3*x3", "-x2^3")
    assert I.forms == (
        (((1, 1, 0), 4), ((0, 0, 2), -1)),
        (((1, 0, 0), 6), ((0, 1, 0), -1), ((0, 0, 1), 4)),
        (((0, 3, 0), 1),),
    )
    assert gens_of(I) == ["x1*x2 - 1/4*x3^2", "x1 - 1/6*x2 + 2/3*x3", "x2^3"]
    # scalar multiples of a generator, and integer dicts, give equal keys
    same = [
        ideal(3, "x1*x2 - 1/4*x3^2", "-12*x1 + 2*x2 - 8*x3", "7*x2^3"),
        Ideal(3, [{(0, 0, 2): 1, (1, 1, 0): -4}, {(0, 1, 0): 5, (1, 0, 0): -30, (0, 0, 1): -20},
                  {(0, 3, 0): -2}]),
    ]
    for J in same:
        assert J.key() == I.key() and J.forms == I.forms and gens_of(J) == gens_of(I)
    assert ideal(3, "-x2^3", "x1*x2 - 1/4*x3^2").key() != ideal(3, "x1*x2 - 1/4*x3^2", "-x2^3").key()
    assert Ideal(2, [{(1, 0): 2}], degree_cap=7).degree_cap == 7
    with pytest.raises(NotGradedError):
        Ideal(2, [{(1, 0): 1, (0, 2): 1}])
    with pytest.raises(ValueError, match="zero ideal"):
        Ideal(2, [{}, Polynomial.zero(2)])
    with pytest.raises(ValueError, match="variable count"):
        Ideal(2, [P("x1", 3)])
    # integer dicts are checked as Polynomial checks its terms
    for bad in [{(1, 0, 0): 1}, {(1,): 1}, {(2, -1): 1}, {(1.0, 0): 1}, {(1, 0): 1, "x2": 1}]:
        with pytest.raises(ValueError, match="bad exponent vector"):
            Ideal(2, [bad])
    for bad in [{(1, 0): 0.5}, {(1, 0): Fraction(1, 2)}, {(1, 0): 1, (0, 1): 0}]:
        with pytest.raises(ValueError, match="not a nonzero int"):
            Ideal(2, [bad])


@pytest.mark.parametrize("gens, cap", [
    (("x1", "x1^5"), 3),
    (("x1*x2", "x1^4*x2"), 3),
    (("x1^2 + x2^2", "x1^5 + x1^3*x2^2"), 4),
])
def test_a_redundant_generator_above_the_cap_raises(gens, cap):
    # the second generator is a multiple of the first, so it reduces to zero
    # without making a term of a new monomial, but the cap binds it too
    for order in (GREVLEX, GREVLEX.refine((0, 1)), GREVLEX.refine((1, 0))):
        with pytest.raises(DegreeCapExceeded, match=f"exceeds cap {cap}"):
            buchberger(ideal(2, *gens, degree_cap=cap), order)


def test_a_generator_that_reduces_to_zero_forms_no_pair():
    # x1*x2^2 reduces to zero by x1, so its pair with x2^3 (lcm degree 4)
    # is never formed and the cap of 3 is met
    for order in (GREVLEX, GREVLEX.refine((0, 1)), GREVLEX.refine((1, 0))):
        gb = buchberger(ideal(2, "x1", "x2^3", "x1*x2^2", degree_cap=3), order)
        assert sorted(str(g) for g in gb) == ["x1", "x2^3"]


def test_derived_ideals_carry_the_parent_cap():
    from gentrop.groebner import _saturation

    I = ideal(3, "x1^2 - x2*x3", "x1*x3", degree_cap=9)
    gI = transformed(I, policy())
    derived = [
        *gI,
        *transformed(I, identity_policy(3)),
        initial_ideal(I, (0, 1, 2)),
        initial_ideal(I, (0, 0, 0)),
        initial_ideal(gI[0], (0, 1, 2)),
        saturate(I, P("x3", 3)),
        saturate(I, P("x1*x2*x3", 3)),
        _saturation(I, (1, 1, 1)),
    ]
    assert [J.degree_cap for J in derived] == [9] * len(derived)
    # the last saturation step is a new ideal, whose bases run under its cap
    assert derived[-1] is not I
    # every derived ideal shares the memo of Hilbert checks of its root; an
    # ideal built from generators starts its own
    assert all(J.hilbert_memo is I.hilbert_memo for J in derived)
    assert ideal(3, "x1^2 - x2*x3", "x1*x3", degree_cap=9).hilbert_memo is not I.hilbert_memo
    # transforms and initial ideals have the Hilbert series of I and share
    # its holder of the numerator, so one read from any one's basis is
    # known to all; a saturation step that divides and a saturation have
    # series of their own, and so holders of their own
    assert all(J.series is I.series for J in derived[:6])
    assert all(J.series is not I.series for J in derived[6:])
    assert I.numerator == (1, 0, -2, 0, 1)
    # a walk whose steps divide nothing keeps J itself, and its runs leave
    # J's holder as it was.  J is walked directly: ``contains_monomial``
    # answers it from its trace
    J = initial_ideal(transformed(I, policy(seed=1))[1], (0, 0, 0))
    assert _saturation(J, (1, 1, 1)) is J
    assert J.series is I.series and I.numerator == (1, 0, -2, 0, 1)


def _derived_cases() -> list:
    """(ideal, weights) pairs for the differential tests of derived ideals:
    seeded sparse and dense ideals, sparse ideals in 5 variables, strongly
    stable families of intermediate depth, a product family and the split
    ideal, each with the zero weight and five seeded weights with ties."""
    ideals = [*seeded_ideals(3, 2), *(random_graded_ideal(5, seed) for seed in range(2)),
              stable_depth_family(5, 3, 1), stable_depth_family(6, 4, 2), product_family(5, 3),
              split_fan_ideal()]
    out = []
    for idx, I in enumerate(ideals):
        rng = random.Random(f"derived:{idx}")
        weights = [tuple(rng.randint(-1, 2) for _ in range(I.n)) for _ in range(5)]
        out.append((I, [(0,) * I.n] + weights))
    return out


def test_seeded_initial_bases_match_a_grevlex_run():
    # the initial forms of the reduced basis under grevlex refined by w are
    # the reduced grevlex basis of J = in_w(I) (Sturmfels 1996, "Groebner
    # Bases and Convex Polytopes", Prop. 1.8 and Cor. 1.9), so J caches the
    # basis read from its forms.  For every distinct J of each ideal and of
    # its transforms, that basis must be the forms a targetless grevlex
    # run from J's forms returns, form for form.
    from gentrop.groebner import _buchberger_dicts

    checked = 0
    for I, weights in _derived_cases():
        for parent in (I, *transformed(I, policy())):
            for J in {J.forms: J for J in (initial_ideal(parent, w) for w in weights)}.values():
                key = GREVLEX.key_function(J.n, J.degree_cap)
                run = _buchberger_dicts(map(dict, J.forms), key, J.degree_cap)
                assert list(J.gb_cache[GREVLEX].forms) == run, (I, J)
                checked += 1
    assert checked > 200  # 239 here


def test_the_derive_path_matches_the_checking_constructor(monkeypatch):
    # transforms, initial ideals, saturation steps and saturations are built
    # without the constructor's checks and without its rational
    # normalization.  Their generators must pass those checks (exponent
    # vectors, nonzero int coefficients, homogeneity, a nonzero ideal), and
    # give the forms the checking constructor gives them.
    derive, made = Ideal._derive, []

    def checked(self, gens):
        gens = list(gens)
        J = derive(self, gens)
        assert J.forms == Ideal(self.n, gens, self.degree_cap).forms
        made.append(J)
        return J

    monkeypatch.setattr(Ideal, "_derive", checked)
    for I, weights in _derived_cases():
        every = Polynomial.monomial(I.n, (1,) * I.n, 1)
        for parent in (I, *transformed(I, policy())):
            for w in weights:
                contains_monomial(initial_ideal(parent, w))
            saturate(parent, every)
    # 393 here: 32 transforms, 264 initial ideals, 49 saturation steps and
    # 48 saturations
    assert len(made) > 300


def test_gb_cache_hits():
    I = ideal(2, "x1 + x2", "x1^2")
    assert I.degree_cap == 40
    a = buchberger(I)
    assert I.gb_cache[GREVLEX] is a
    assert buchberger(I) is a


def test_gb_cache_honours_a_smaller_cap():
    # the basis holds x2^3, so a cap-2 ideal must raise although an equal
    # cap-40 ideal was computed
    buchberger(ideal(2, "x1^2 + x2^2", "x1*x2"))
    J = ideal(2, "x1^2 + x2^2", "x1*x2", degree_cap=2)
    with pytest.raises(DegreeCapExceeded):
        buchberger(J)
    assert not J.gb_cache


def test_cone_reuse_honours_a_smaller_cap():
    # weight (0, 1) keeps every lead of the grevlex basis, which holds x2^3:
    # the basis of a cap-40 ideal serves the weighted order, but an equal
    # cap-2 ideal must raise; its s-pairs reach degree 4, so a cap-4 ideal
    # computes its grevlex basis and serves the weighted order from it
    order = GREVLEX.refine((0, 1))
    I = ideal(2, "x1^2 + x2^2", "x1*x2")
    assert set(buchberger(I, order).leads) == set(buchberger(I).leads)
    J = ideal(2, "x1^2 + x2^2", "x1*x2", degree_cap=2)
    with pytest.raises(DegreeCapExceeded):
        buchberger(J, order)
    assert not J.gb_cache
    K = ideal(2, "x1^2 + x2^2", "x1*x2", degree_cap=4)
    grevlex = buchberger(K)
    gb = buchberger(K, order)
    assert K.gb_cache[order] is gb
    assert sorted(gb.forms) == sorted(grevlex.forms)


def test_cone_reuse_matches_a_fresh_run(monkeypatch):
    # a graded ideal's cached bases serve every order whose Groebner cone
    # contains one of them; what is served must be what a fresh Ideal
    # computes.  Weights include zero, constant, tied and negative vectors.
    runs = counting_engine(monkeypatch)
    rng = random.Random(37)
    ideals = [random_graded_ideal(n, seed, gens=2 + seed % 2) for n in (3, 4) for seed in range(4)]
    for seed in range(2):
        ideals.append(Ideal(3, [dense_form(3, 2, seed), dense_form(3, 3, seed)]))
        ideals.append(Ideal(4, [dense_form(4, 2, seed), dense_form(4, 2, seed + 1)]))
    hits = misses = 0
    for I in ideals:
        n = I.n
        buchberger(I)
        for _ in range(3):
            buchberger(I, GREVLEX.refine(tuple(rng.randint(0, 3) for _ in range(n))))
        probes = [(0,) * n, (2,) * n, (1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,)]
        probes += [tuple(rng.randint(-2, 3) for _ in range(n)) for _ in range(8)]
        for w in probes:
            order = GREVLEX.refine(w)
            fresh = Ideal(n, I.generators)
            want = buchberger(fresh, order)
            before = len(runs)
            got = buchberger(I, order)
            if len(runs) == before:
                hits += 1
            else:
                misses += 1
            # bases are cached under the normalized order
            wn = normalize_weight(w, n)
            assert got.order == (GREVLEX.refine(wn) if any(wn) else GREVLEX)
            assert got.elements == want.elements and got.leads == want.leads
            assert initial_ideal(I, w).generators == initial_ideal(Ideal(n, I.generators), w).generators
    assert hits and misses


def test_any_cached_basis_serves_an_order_in_its_groebner_cone(monkeypatch):
    # a pair of dense quadrics caches its grevlex basis, then a basis at
    # weight (1, 0, 2), then six more with other leads.  The order refined
    # by (1, 0, 3) lies in the Groebner cone of the (1, 0, 2) basis alone,
    # so that basis serves it with no engine run, although six bases were
    # cached after it (one run when only the grevlex basis and the six
    # newest were asked), and the forms are those of a fresh ideal's run
    gens = [dense_form(3, 2, 0), dense_form(3, 2, 1)]
    I = Ideal(3, gens)
    buchberger(I)
    for w in [(1, 0, 2), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 2, 0)]:
        buchberger(I, GREVLEX.refine(w))
    order = GREVLEX.refine((1, 0, 3))
    want = buchberger(Ideal(3, gens), order)
    leads = [set(gb.leads) for gb in I.gb_cache.values()]
    assert len(leads) == 8 and all(a != b for i, a in enumerate(leads) for b in leads[:i])
    assert [set(want.leads) == L for L in leads] == [False, True] + [False] * 6
    runs = counting_engine(monkeypatch)
    assert buchberger(I, order).forms == want.forms
    assert not runs


def test_a_run_does_not_depend_on_the_bases_its_ideal_holds(monkeypatch):
    # a run enters its ideal's forms, whatever bases the ideal holds: for
    # every order that no held basis serves, an ideal whose reduced grevlex
    # basis is cached (warm) and a copy with nothing cached that knows the
    # same Hilbert numerator (cold) give equal forms, terms in the same
    # order, and make the same engine divisions.  A run that entered the
    # held grevlex basis in place of the forms divided less
    runs = counting_engine(monkeypatch)
    divisions = counting_normal_forms(monkeypatch)
    compared = 0
    for I in seeded_ideals(4, 2):
        n = I.n
        orders = [GREVLEX.refine(w) for w in product(range(3), repeat=n)]
        orders += [GREVLEX.refine(tuple(4**k for k in range(n))),
                   GREVLEX.refine(tuple(4**k for k in reversed(range(n))))]
        for order in orders:
            warm = _fresh(I)
            buchberger(warm, GREVLEX)
            cold = _with_numerator(I)
            before = len(runs), len(divisions)
            got = buchberger(warm, order)
            if len(runs) == before[0]:
                continue  # served by the held basis (``_cone_hit``)
            warm_divisions = len(divisions) - before[1]
            before = len(divisions)
            assert buchberger(cold, order).forms == got.forms, (I, order)
            assert len(divisions) - before == warm_divisions, (I, order)
            compared += 1
    assert compared > 100


def test_cone_reuse_bounds_engine_runs_on_a_wide_quadric(tmp_path, monkeypatch, capsys):
    # every weighted basis of one quadric is the quadric itself, so the
    # grevlex basis serves every order of a Wnm probe: the job makes 3
    # engine runs, the grevlex runs of the input and of its two transforms
    from gentrop.cli import main

    runs = counting_engine(monkeypatch)
    path = tmp_path / "q10.ideal"
    path.write_text("ring 10\nx1*x2 + x3*x4\n", encoding="utf-8")
    assert main(["verify", str(path), "--target", "Wnm"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    assert len(runs) == 3


def _is_unit_by_elements(I):
    gb = buchberger(I).elements
    return len(gb) == 1 and gb[0].degree == 0


def _contains_monomial_by_elements(I):
    if any(g.is_monomial() for g in I.generators + buchberger(I).elements):
        return True
    return _is_unit_by_elements(saturate(I, Polynomial.monomial(I.n, (1,) * I.n)))


def test_reducer_reads_match_element_computations():
    # leads, weighted initial ideals and the monomial tests are read from the
    # basis's integer forms; the element-based computations they replaced
    # are the reference.  Weights include zero, constant, tied and rational
    # vectors.
    rng = random.Random(23)
    ideals = [random_graded_ideal(n, seed, gens=2 + seed % 2) for n in (3, 4) for seed in range(3)]
    for seed in range(2):
        ideals.append(Ideal(3, [dense_form(3, 2, seed), dense_form(3, 3, seed)]))
        ideals.append(Ideal(4, [dense_form(4, 2, seed), dense_form(4, 2, seed + 1)]))
    monomial_seen = set()
    certified = set()
    for I in ideals:
        n = I.n
        weights = [(0,) * n, (3,) * n, (1,) + (0,) * (n - 1)]
        weights += [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(2)]
        weights.append(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)))
        plain = buchberger(I)
        for w in weights:
            wn = normalize_weight(w, n)
            certificate = plain.has_monomial_initial_form(wn)
            assert certificate == any(initial_form(wn, g).is_monomial() for g in plain.elements)
            certified.add(certificate)
            refined = GREVLEX.refine(wn) if any(wn) else GREVLEX
            gb = buchberger(I, refined)
            key = refined.key_function(n, I.degree_cap)
            assert gb.leads == tuple(max((e for e, _ in g.terms), key=key) for g in gb.elements)
            J = initial_ideal(I, w)
            want = sorted((initial_form(wn, g) for g in gb.elements), key=lambda p: p.terms)
            assert list(J.generators) == want
            has = contains_monomial(J)
            assert has == _contains_monomial_by_elements(J) == _aux_contains_monomial(J)
            monomial_seen.add(has)
            sat = saturate(J, Polynomial.monomial(n, (1,) * n))
            assert is_unit_ideal(sat) == _is_unit_by_elements(sat) == has
        assert contains_monomial(I) == _contains_monomial_by_elements(I)
    assert monomial_seen == certified == {False, True}


def _engine_at_smallest_cap(I, order, warm=False, cap=None):
    """The basis of I under ``order`` from a copy of I with the smallest
    degree cap the run fits, and that cap, or under ``cap`` if given.
    ``warm`` computes the copy's grevlex basis first, under the same cap, so
    the run has a target."""
    smallest = cap is None
    cap = max(g.degree for g in I.generators) if smallest else cap
    while True:
        J = Ideal(I.n, I.generators, cap)
        try:
            if warm:
                buchberger(J)
            return buchberger(J, order), cap
        except DegreeCapExceeded:
            if not smallest:
                raise
            cap += 1


def _check_against_the_reference_engine(warm):
    """Compare the engine with the reference Buchberger on seeded ideals and
    orders; returns how many runs used the smallest cap the reference basis
    fits.  Each run is repeated under cap 200, whose exponent fields take two
    bytes, and under cap 2^64, beyond the widest fields.  Binomial ideals
    with an exponent at their smallest cap join the seeded ones: 127, the
    most a one-byte field holds, and 200."""
    ideals = [random_graded_ideal(n, seed, gens=2 + seed % 2) for n in (3, 4) for seed in range(4)]
    for seed in range(2):
        ideals.append(Ideal(3, [dense_form(3, 2, seed), dense_form(3, 2, seed + 1)]))
        ideals.append(Ideal(4, [dense_form(4, 2, seed), dense_form(4, 2, seed + 1)]))
    ideals += [ideal(4, f"x1^{top} - x2^{top}", "x3*x4 - x4^2") for top in (127, 200)]
    at_cap = 0
    for idx, I in enumerate(ideals):
        n = I.n
        rng = random.Random(f"reference:{idx}")
        weights = [(0,) * n, (2,) * n, (1,) * (n - 1) + (0,), (10**9,) + (0,) * (n - 1)]
        weights.append(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)))
        weights.append(tuple(rng.sample(range(n), n)))
        weights.append(tuple(rng.randint(0, 4) for _ in range(n)))
        orders = [GREVLEX] + [GREVLEX.refine(w) for w in weights]
        for order in orders:
            gb, cap = _engine_at_smallest_cap(I, order, warm)
            want = oracles.reference_groebner(I.generators, order, n)
            # the engine ranks leads of different degrees by the normalized
            # weight, so the two lists may differ in order
            want = sorted(want, key=lambda p: p.terms)
            assert sorted(gb.elements, key=lambda p: p.terms) == want, (I, order)
            at_cap += max(g.degree for g in want) == cap
            for wide in (200, 2**64):
                gb, _ = _engine_at_smallest_cap(I, order, warm, wide)
                assert sorted(gb.elements, key=lambda p: p.terms) == want, (I, order, wide)
    return at_cap


@contextmanager
def _time_budget(seconds: float, what: str):
    """Raise ``TimeoutError(what)`` inside the block once ``seconds`` of wall
    time have passed, so a computation that never ends fails its test in
    place of hanging the suite."""

    def timed_out(*_):
        raise TimeoutError(what)

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_buchberger_matches_the_reference_engine():
    # an independent textbook Buchberger (every pair, no criterion, tuple
    # keys from each order's definition, Fraction arithmetic) must return
    # the same reduced basis under grevlex and its weight refinements, with
    # zero, tied, permuted, negative and large weights.  Each run
    # uses the smallest cap it fits, so the integer key works at its bound.
    # The comparison takes a second or two; a broken divisibility test on
    # packed monomials makes a run push elements without end, and the
    # budget fails it in place of hanging
    with _time_budget(60, "the engine runs did not end"):
        assert _check_against_the_reference_engine(warm=False)


def test_buchberger_with_a_warm_cache_matches_the_reference_engine(monkeypatch):
    # the same comparison with each copy's grevlex basis computed first, so
    # the other orders' runs take the Hilbert numerator read from it as
    # their target.  Each such run is repeated without the target: it must
    # return the same forms, or raise the same cap error, after forming
    # at least as many s-pairs; some runs must have stopped early.  The run
    # with the target reads and fills the ideal's memo of Hilbert checks, so
    # a memo hit must not change its result either.
    from gentrop import groebner

    engine = groebner._buchberger_dicts
    spairs, saved = counting_spairs(monkeypatch), []

    def both_ways(gens, key, cap, target=None, memo=None):
        if target is None:
            return engine(gens, key, cap, None, memo)
        gens = list(gens)
        start = len(spairs)
        try:
            plain = engine(gens, key, cap)
        except DegreeCapExceeded as e:
            with pytest.raises(DegreeCapExceeded, match=re.escape(str(e))):
                engine(gens, key, cap, target, memo)
            raise
        mid = len(spairs)
        assert engine(gens, key, cap, target, memo) == plain
        saved.append(2 * mid - start - len(spairs))
        return plain

    monkeypatch.setattr(groebner, "_buchberger_dicts", both_ways)
    with _time_budget(60, "the engine runs did not end"):
        assert _check_against_the_reference_engine(warm=True)
    assert min(saved) >= 0 and sum(saved) > 0


def test_cached_basis_generates_the_same_ideal():
    # mutual reduction: generators vanish against the basis, and every basis
    # element is a member by the independent linear-algebra oracle
    for seed in range(3):
        I = random_graded_ideal(3, seed)
        gb = buchberger(I)
        for g in I.generators:
            assert normal_form(g, gb.elements).is_zero()
        for b in gb.elements:
            assert oracles.member_homogeneous(b, I.generators, 3)


def _certify(gens, order):
    """Check from the basis alone that the basis ``buchberger`` computes
    for the ideal of ``gens`` (dicts) under ``order``, with no basis cached,
    is the reduced Groebner basis of that ideal, if it lies in it: every
    s-pair and every generator reduces to zero, and the basis is reduced.
    Its forms must keep the invariants of ``Ideal.forms``: content 1, a
    positive leading coefficient and terms strictly descending under the
    basis's order, and the forms ascend by lead.  Returns the basis as monic
    dicts."""
    from gentrop.groebner import _monic, _Monomials, _nf_dict, _reducer, _spair_poly

    n = len(next(iter(gens[0])))
    gb = buchberger(Ideal(n, gens), order)
    # s-pairs of basis elements reach twice the engine's cap of 40
    key = gb.order.key_function(n, 80)
    basis = gb.forms
    leads = [f[0][0] for f in basis]
    assert leads == sorted(leads, key=key)
    for i, f in enumerate(basis):
        terms = [e for e, _ in f]
        lm, lc = f[0]
        # lm leads; the element is primitive and leaves the engine monic
        assert max(terms, key=key) == lm
        assert all(key(a) > key(b) for a, b in zip(terms, terms[1:]))
        assert lc > 0 and math.gcd(*(c for _, c in f)) == 1
        assert _monic(f)[lm] == 1
        for e in terms:
            for j, lmj in enumerate(leads):
                assert i == j or not all(a <= b for a, b in zip(lmj, e))
    # the divisions run on the basis as a run holds it
    mons = _Monomials(n, 80, key)
    reds = [_reducer(mons.poly(f), mons) for f in basis]
    for i in range(len(basis)):
        for j in range(i):
            assert _nf_dict(_spair_poly(reds[i], reds[j], mons), reds, mons, 80)[0] == {}
    for g in gens:
        assert _nf_dict(mons.poly(g.items()), reds, mons, 80)[0] == {}
    return [_monic(f) for f in basis]


def test_seeded_groebner_certificates():
    # pair pruning must not lose an s-pair: certify bases of seeded sparse
    # and dense ideals under every order kind the package uses, including
    # grevlex refined by the unit weight e_i, which saturation steps use,
    # and check membership of the bases with the linear-algebra oracle
    ideals = [random_graded_ideal(n, seed, gens=2 + seed % 3) for n in (3, 4) for seed in range(3)]
    for seed in range(3):
        ideals.append(Ideal(3, [dense_form(3, 2, seed), dense_form(3, 3, seed)]))
        ideals.append(Ideal(4, [dense_form(4, 2, seed), dense_form(4, 2, seed + 1)]))
    for idx, I in enumerate(ideals):
        n = I.n
        rng = random.Random(f"certify:{idx}")
        orders = [GREVLEX, GREVLEX.refine(tuple(rng.sample(range(n), n)))]
        orders += [GREVLEX.refine(tuple(rng.randint(0, 4) for _ in range(n))) for _ in range(2)]
        orders += [GREVLEX.refine([int(k == i) for k in range(n)]) for i in range(n - 1)]
        gens = [dict(f) for f in I.forms]
        graded = [Polynomial(n, g) for o in orders for g in _certify(gens, o)]
        assert oracles.members_homogeneous(graded, I.generators, n)


def test_a_hilbert_target_changes_no_basis(monkeypatch):
    # with the ideal's Hilbert numerator as target the engine must return
    # the forms it returns without one, under every order kind the
    # package uses, and form fewer s-pair normal forms in all
    from gentrop.groebner import _buchberger_dicts, hilbert_numerator

    spairs = counting_spairs(monkeypatch)
    ideals = seeded_ideals(4, 3)
    plain_pairs = target_pairs = 0
    for idx, I in enumerate(ideals):
        n = I.n
        target = hilbert_numerator(n, buchberger(I).leads)
        rng = random.Random(f"target:{idx}")
        orders = [GREVLEX, GREVLEX.refine(tuple(4**k for k in range(n))),
                  GREVLEX.refine(tuple(rng.sample(range(n), n)))]
        orders += [GREVLEX.refine(tuple(rng.randint(0, 4) for _ in range(n))) for _ in range(4)]
        gens = [dict(f) for f in I.forms]
        for order in orders:
            key = order.key_function(n, 40)
            start = len(spairs)
            plain = _buchberger_dicts(gens, key, 40)
            mid = len(spairs)
            assert _buchberger_dicts(gens, key, 40, target) == plain, (I, order)
            plain_pairs += mid - start
            target_pairs += len(spairs) - mid
    assert target_pairs < plain_pairs


def test_pair_criteria_bound_the_s_pairs_of_cold_runs(monkeypatch):
    # runs on ideals with no cached basis have no Hilbert target and rely on
    # the pair criteria alone.  On 40 seeded ideals, under grevlex and four
    # weight refinements each and in the steps of one saturation of a fresh
    # copy, the criteria M and F and the coprimality rule leave 2,203 s-pair
    # normal forms: 2,282 without the coprimality rule, 2,626 without F,
    # 3,396 without M
    from gentrop.groebner import _buchberger_dicts, _saturation

    spairs = counting_spairs(monkeypatch)
    for idx, I in enumerate(seeded_ideals(12, 8)):
        n = I.n
        rng = random.Random(f"cold:{idx}")
        orders = [GREVLEX, GREVLEX.refine(tuple(rng.sample(range(n), n)))]
        orders += [GREVLEX.refine(tuple(rng.randint(0, 4) for _ in range(n))) for _ in range(3)]
        for order in orders:
            _buchberger_dicts([dict(f) for f in I.forms], order.key_function(n, 40), 40)
        _saturation(Ideal(n, map(dict, I.forms)), (1,) * n)
    assert len(spairs) <= 2240


def test_a_warm_cache_keeps_the_s_pair_cap():
    from gentrop.groebner import _buchberger_dicts

    # under cap 4 the grevlex basis of this ideal fits (its largest element
    # has degree 3) and gives the ideal a Hilbert target, but the run refined
    # by (0, 2, 3), which ranks x1*x3^2 above x2^2*x3 as lex does, forms a
    # pair of degree 5 and must still raise.  So must that run of
    # an initial ideal that took its numerator from its parent and whose one
    # cached basis is the grevlex basis read from its forms.
    order = GREVLEX.refine((0, 2, 3))
    I = ideal(3, "x1*x2 + x3^2", "x1^2 + x2*x3", degree_cap=4)
    assert max(g.degree for g in buchberger(I)) == 3
    with pytest.raises(DegreeCapExceeded, match="s-pair degree exceeds cap 4"):
        buchberger(I, order)
    assert I.numerator == (1, 0, -2, 0, 1)
    J = initial_ideal(I, (2, 1, 0))
    assert gens_of(J) == ["x3^2", "x2*x3", "x1*x2^2 - x1^2*x3"]
    assert J.numerator == I.numerator and list(J.gb_cache) == [GREVLEX]
    seeded = J.gb_cache[GREVLEX].forms
    assert sorted(seeded) == sorted(J.forms)
    assert list(seeded) == _buchberger_dicts(map(dict, J.forms), GREVLEX.key_function(3, 4), 4)
    with pytest.raises(DegreeCapExceeded, match="s-pair degree exceeds cap 4"):
        buchberger(J, order)


def _reference_division(f, G, key):
    """Textbook division over Fraction: terms in descending order, each
    divided by the first divisor in ascending leading-monomial order whose
    lead divides it."""
    divisors = sorted(
        (dict(g.terms) for g in G), key=lambda d: key(max(d, key=key))
    )
    divisors = [(max(d, key=key), d) for d in divisors]
    p, r = dict(f.terms), {}
    while p:
        e = max(p, key=key)
        c = p.pop(e)
        for lm, d in divisors:
            if all(a <= b for a, b in zip(lm, e)):
                q = c / d[lm]
                for e2, c2 in d.items():
                    if e2 != lm:
                        ee = tuple(a - b + x for a, b, x in zip(e, lm, e2))
                        v = p.get(ee, Fraction(0)) - q * c2
                        if v:
                            p[ee] = v
                        else:
                            p.pop(ee, None)
                break
        else:
            r[e] = c
    return Polynomial(f.n, r)


def test_rational_inputs_match_fraction_division():
    # non-primitive rational coefficients and negative leading coefficients:
    # the integer engine must return the remainder of exact rational division
    gens = [
        P("-3/4*x1^2 + 6*x1*x2 + 1/2*x2^2", 3),
        P("-2*x1*x2 + 1/3*x2*x3 - 6*x3^2", 3),
        P("-1/2*x1^2 - 3/4*x3^2 + 6*x2*x3", 3),
    ]
    fs = [
        P("1/2*x1^3 - 3/4*x1*x2*x3 + 6*x3^3", 3),
        P("-6*x1^2*x2 + 1/2*x2^3 - 3/4*x1*x3^2", 3),
        P("-3/4*x1^4 + x2^2*x3^2 + 1/2*x1*x3^3", 3),
    ]
    orders = [GREVLEX] + [GREVLEX.refine(w) for w in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
    for order in orders:
        key = order.key_function(3, DEFAULT_DEGREE_CAP)
        # a non-Groebner divisor list
        for f in fs:
            got = normal_form(f, gens, order)
            assert got == _reference_division(f, gens, key)
            assert got.n == 3 and all(isinstance(c, Fraction) for _, c in got.terms)
        I = Ideal(3, gens)
        gb = buchberger(I, order).elements
        assert oracles.members_homogeneous(gb, gens, 3)
        for g in gb:
            lm = max((e for e, _ in g.terms), key=key)
            assert g.coefficient(lm) == 1
            # reduced: no term of an element lies in another's leading ideal
            others = [h for h in gb if h != g]
            assert _reference_division(g, others, key) == g
        # Groebner: generators and s-pairs divide to zero
        for g in gens:
            assert not _reference_division(g, gb, key)
        for i, a in enumerate(gb):
            for b in gb[:i]:
                la = max((e for e, _ in a.terms), key=key)
                lb = max((e for e, _ in b.terms), key=key)
                lcm = tuple(map(max, la, lb))
                s = (a * Polynomial.monomial(3, tuple(x - y for x, y in zip(lcm, la)))
                     - b * Polynomial.monomial(3, tuple(x - y for x, y in zip(lcm, lb))))
                assert not _reference_division(s, gb, key)
        for f in fs:
            assert normal_form(f, gb, order) == _reference_division(f, gb, key)


def test_normal_form_follows_the_given_weight():
    # a weight is not shift-normalized: under (1, 2) the divisor's lead is
    # x2 (weight 2 < 3), while its normalization (0, 1) would make it x1^3
    order = GREVLEX.refine((1, 2))
    got = normal_form(P("x2", 2), [P("x1^3 + x2", 2)], order)
    assert got == P("-x1^3", 2)
    assert got == _reference_division(P("x2", 2), [P("x1^3 + x2", 2)], order.key_function(2, DEFAULT_DEGREE_CAP))
    # seeded non-homogeneous divisors under a negative weight (a well-order,
    # since every variable then outranks 1) and its shifts by constants
    rng = random.Random(31)
    mons = [e for e in product(range(4), repeat=3) if sum(e) <= 3]

    def poly(terms):
        return Polynomial(3, {
            e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            for e in rng.sample(mons, terms)
        })

    changed = 0
    for _ in range(30):
        G = [poly(rng.randint(2, 3)) for _ in range(rng.randint(1, 3))]
        f = poly(4)
        w = tuple(Fraction(-rng.randint(1, 9), rng.randint(1, 2)) for _ in range(3))
        remainders = set()
        for shift in (0, Fraction(-1, 2), -3):
            order = GREVLEX.refine(tuple(x + shift for x in w))
            got = normal_form(f, G, order)
            assert got == _reference_division(f, G, order.key_function(3, DEFAULT_DEGREE_CAP))
            remainders.add(got)
        changed += len(remainders) > 1
    assert changed


def test_degree_cap_fires_mid_reduction():
    # non-homogeneous divisor: reducing x1 by x1 - 1/6*x2^3 raises the
    # degree, so the cap aborts inside the reduction, not at a lead.  The
    # weight (0, 1) ranks x1 above every power of x2
    order = GREVLEX.refine((0, 1))
    divisor = [P("-2*x1 + 1/3*x2^3", 2)]
    with pytest.raises(DegreeCapExceeded, match="^degree 6 exceeds cap 5 during reduction$"):
        normal_form(P("x1^2", 2), divisor, order, degree_cap=5)
    assert normal_form(P("x1^2", 2), divisor, order, degree_cap=6) == P("1/36*x2^6", 2)
    # the same at the edge of one-byte exponent fields (cap 127), of
    # two-byte ones (128) and beyond the widest (2^64): x1^2 reduces to
    # x2^128 through x1*x2^64
    divisor = [P("-2*x1 + 1/3*x2^64", 2)]
    with pytest.raises(DegreeCapExceeded, match="^degree 128 exceeds cap 127 during reduction$"):
        normal_form(P("x1^2", 2), divisor, order, degree_cap=127)
    for cap in (128, 2**64):
        assert normal_form(P("x1^2", 2), divisor, order, degree_cap=cap) == P("1/36*x2^128", 2)


def test_normal_form_ranks_input_terms_above_the_cap():
    # input terms are never cap-checked, so the key must be exact on them:
    # sized for a cap of 1 alone, it would rank x1^5*x3 above x2^6 and
    # leave the remainder -x2^6
    f = P("x2^6 + 2*x1^5*x3", 3)
    got = normal_form(f, [P("x2^6 + x1^5*x3", 3)], GREVLEX, degree_cap=1)
    assert got == P("x1^5*x3", 3)
    # inputs too wide for one-byte exponent fields widen them
    f = P("x2^130 + 2*x1^129*x3", 3)
    got = normal_form(f, [P("x2^130 + x1^129*x3", 3)], GREVLEX, degree_cap=1)
    assert got == P("x1^129*x3", 3)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("bound", [127, 128, 32767, 32768, 2**31, 2**63])
def test_packed_monomials_match_their_exponent_tuples(bound, n):
    # at each boundary of the 8-, 16-, 32- and 64-bit fields, and beyond
    # the widest, every packed operation the division kernel uses must
    # agree with the same operation on exponent tuples, for monomials of
    # total degree up to the bound, the bound itself included
    from gentrop.groebner import _Monomials

    rng = random.Random(f"packed:{bound}:{n}")
    key = GREVLEX.refine(tuple(rng.randint(-3, 3) for _ in range(n))).key_function(n, bound)
    mons = _Monomials(n, bound, key)
    guard, shift, mask = mons.guard, mons.shift, mons.mask
    full = (1 << mons.width) - 1

    def below(e):
        return tuple(rng.randint(0, x) for x in e)

    def vector():
        d = rng.choice((bound, bound - 1, rng.randint(0, bound)))
        cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
        return tuple(b - a for a, b in zip([0, *cuts], [*cuts, d]))

    vectors = [tuple(bound * (i == j) for i in range(n)) for j in range(n)]
    vectors += [vector() for _ in range(60)]
    for e in vectors:
        t = mons.index(e)
        assert mons.unpack(t) == e
        assert (t >> shift) & full == sum(e) == (t & mask) >> shift
    pairs = [(a, b) for a in vectors[:20] for b in vectors[:20]]
    pairs += [(below(b), b) for b in vectors]
    for a, b in pairs:
        ta, tb = mons.index(a), mons.index(b)
        pa, pb = ta & mask, tb & mask
        assert ((((pb | guard) - pa) & guard) == guard) == all(map(le, a, b)), (a, b)
        m = tuple(map(max, a, b))
        assert mons.lcm(pa, pb) == mons.index(m) & mask, (a, b)
        assert mons.unpack(mons.lcm(pa, pb)) == m and mons.lcm(pa, pb) >> shift == sum(m)
        assert (ta < tb) == (key(a) > key(b)), (a, b)


def test_a_division_by_broken_reducers_raises_in_place_of_looping():
    # reducers whose tails outrank their leads, x1 -> x2 and x2 -> x1, break
    # the invariant that bounds a division: each step brings back the term
    # the other removed.  The division must raise within a second, at one
    # step more than the C(1 + 2 - 1, 1) = 2 monomials of degree 1
    from gentrop.groebner import _Monomials, _nf_dict

    mons = _Monomials(2, 4, GREVLEX.key_function(2, 4))
    x1, x2 = mons.index((1, 0)), mons.index((0, 1))
    broken = [(x1, x1 & mons.mask, 1, ((x2, -1),)), (x2, x2 & mons.mask, 1, ((x1, -1),))]
    with _time_budget(1.0, "the division did not end"):
        with pytest.raises(RuntimeError, match="more steps than its monomials allow"):
            _nf_dict({x1: 1}, broken, mons, 4)
    # valid reducers end within the bound: x1 - x2 with its true lead
    lead, tail = min(x1, x2), max(x1, x2)
    valid = [(lead, lead & mons.mask, 1, ((tail, -1),))]
    assert _nf_dict({x1: 1, x2: 1}, valid, mons, 4) == ({tail: 2}, 1)
