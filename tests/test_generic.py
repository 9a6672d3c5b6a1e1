import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb
from types import SimpleNamespace

import pytest

from gentrop import cli, generic, groebner, invariants
from gentrop.fans import (
    ConeId,
    interior_point,
    interior_points,
    maximal_cones,
    refinement_maximal_cones,
)
from gentrop.generic import (
    ALMOST_CM,
    CM,
    DEPTH_ZERO,
    NEITHER,
    GenericityFailure,
    GenericityPolicy,
    Transform,
    adjacent_distinct,
    apply_transform,
    classify_cm,
    cone_constancy,
    constancy_probes,
    gap_degree,
    gin,
    identity_policy,
    random_transform,
    ray_constancy,
    recover_depth,
    separating_witness,
    transformed,
    tropical_member,
)
from gentrop.groebner import (
    DegreeCapExceeded, Ideal, buchberger, contains_monomial, hilbert_numerator, initial_ideal,
    saturate,
)
from gentrop.invariants import dimension, hilbert, minimalize, monomial_ideal_of, multiplicity
from gentrop.poly import GREVLEX, Polynomial, normalize_weight

from oracles import (
    borel_moves,
    expanded_transform,
    initial_ideal_forms,
    minimal_generators,
    monomials_of_degree,
    moved_point_ray_constancy,
    moved_point_recover_depth,
    sampled_cone_constancy,
    standard_monomial_invariants,
    stanley_reisner,
    strongly_stable_ideals,
)

from cases import (
    codim2_complete_intersection,
    counting_cone_hits,
    counting_engine,
    counting_engine_inputs,
    counting_engine_variables,
    counting_gins,
    counting_hilbert_numerators,
    counting_initial_ideals,
    counting_normal_forms,
    counting_resorts,
    counting_spairs,
    dense_form,
    ideal,
    P,
    policy,
    product_family,
    random_graded_ideal,
    seeded_ideals,
    smooth_quadric4,
    split_fan_ideal,
    stable_depth_family,
    stanley_reisner_draw,
    stanley_reisner_ideal,
)


def test_random_transform_deterministic_and_invertible():
    pol = policy(seed=5)
    a = random_transform(3, pol, 0)
    b = random_transform(3, pol, 0)
    assert a == b
    c = random_transform(3, pol, 1)
    assert c != a
    from gentrop.generic import _det_int

    assert _det_int(a.matrix) != 0
    assert all(abs(x) <= pol.bound for row in a.matrix for x in row)


def test_random_transform_resamples_singular_draws(monkeypatch):
    # the seeded stream draws the zero matrix first
    class ZeroThenReal(random.Random):
        calls = 0

        def randint(self, a, b):
            ZeroThenReal.calls += 1
            if ZeroThenReal.calls <= 9:
                return 0
            return super().randint(a, b)

    monkeypatch.setattr(generic, "random", SimpleNamespace(Random=ZeroThenReal))
    t = random_transform(3, policy(), 0)
    from gentrop.generic import _det_int

    assert _det_int(t.matrix) != 0
    assert ZeroThenReal.calls > 9


def test_policy_validation():
    with pytest.raises(ValueError):
        GenericityPolicy(samples=1)
    with pytest.raises(ValueError):
        GenericityPolicy(bound=0)
    # a policy of injected transforms keeps any bound, but draws none under
    # a bound below 1
    injected = GenericityPolicy(transforms=(Transform.identity(3),), bound=0)
    with pytest.raises(ValueError, match="bound must be at least 1"):
        random_transform(3, injected, 0)
    # a count that is not an int would fail only at first use, inside
    # ``range`` or ``randrange``
    for bad in ({"samples": 2.0}, {"bound": 10.5}, {"bound": "10"}):
        with pytest.raises(ValueError, match="must be ints"):
            GenericityPolicy(**bad)
    # injected transforms may be a single one, but not none, and each must
    # be a Transform: a nested list would fail unhashable at first use
    identity_policy(3)
    with pytest.raises(ValueError):
        GenericityPolicy(transforms=())
    with pytest.raises(ValueError):
        GenericityPolicy(transforms=[[[1, 0], [0, 1]]])


def test_apply_transform_examples():
    I = ideal(2, "x1")
    assert apply_transform(I, Transform.identity(2)).generators == I.generators
    swap = Transform(((0, 1), (1, 0)))
    assert [str(g) for g in apply_transform(I, swap).generators] == ["x2"]
    tri = Transform(((1, 0), (2, 1)))
    assert [str(g) for g in apply_transform(I, tri).generators] == ["x1 + 2*x2"]
    with pytest.raises(ValueError, match="transform size"):
        apply_transform(I, Transform.identity(3))


def _sparse_transform(n: int, rng: random.Random) -> Transform:
    """A seeded invertible transform with entries in [-1000, 1000], about a
    third of them zero."""
    while True:
        try:
            return Transform([[rng.choice((0, rng.randint(-1000, 1000), rng.randint(-1000, 1000)))
                               for _ in range(n)] for _ in range(n)])
        except ValueError:
            pass


def _expands_like_the_oracle(I: Ideal, g: Transform) -> bool:
    return apply_transform(I, g).forms == Ideal(I.n, expanded_transform(I, g.matrix)).forms


@pytest.mark.parametrize("seed", range(4))
def test_apply_transform_matches_polynomial_expansion(seed):
    # dense forms of every degree 1..8 in 2..6 variables, two per ideal, so
    # the packing width comes from the larger degree; the term count is kept
    # small enough for the Polynomial oracle
    rng = random.Random(f"apply-transform:{seed}")
    checked = 0
    for n in range(2, 7):
        for d in range(1, 9):
            if comb(n + d - 1, d) > 60:
                continue
            other = rng.randint(1, d)
            I = Ideal(n, [dense_form(n, d, seed), dense_form(n, other, seed + 1)])
            assert _expands_like_the_oracle(I, _sparse_transform(n, rng)), (n, d)
            checked += 1
    assert checked == 27


def _inverse(rows) -> list:
    """The inverse of an invertible square matrix, by Gauss-Jordan over Q."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if m[i][k])
        m[k], m[pivot] = m[pivot], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                m[i] = [a - m[i][k] * b for a, b in zip(m[i], m[k])]
    return [row[n:] for row in m]


def test_apply_transform_cancels_terms():
    # (x1 + x2)^2 - (x1 - x2)^2 = 4 x1 x2: both squares cancel
    I = ideal(2, "x1^2 - x2^2")
    g = Transform(((1, 1), (1, -1)))
    assert apply_transform(I, g).forms == ((((1, 1), 1),),)
    assert _expands_like_the_oracle(I, g)
    # the image under g^-1 of a sparse form h is dense; under g every term
    # outside h cancels again
    rng = random.Random("apply-transform:cancel")
    for n in range(2, 6):
        for d in (2, 3, 5):
            g = _sparse_transform(n, rng)
            h = Polynomial(n, {rng.choice(monomials_of_degree(n, d)): rng.randint(1, 9)
                               for _ in range(2)})
            f = expanded_transform(Ideal(n, [h]), _inverse(g.matrix))[0]
            assert len(f.terms) > len(h.terms)
            assert apply_transform(Ideal(n, [f]), g).forms == Ideal(n, [h]).forms
            assert _expands_like_the_oracle(Ideal(n, [f]), g)


@pytest.mark.parametrize("d", [1, 3, 4, 7, 8, 15, 16])
def test_apply_transform_at_the_packing_width_edges(d):
    # the exponent fields are just wide enough for degree d: the image of a
    # pure power puts d into one field, which one bit less could not hold;
    # a lower-degree generator shares the width
    rng = random.Random(f"apply-transform:edge:{d}")
    for n in (2, 3):
        g = _sparse_transform(n, rng)
        dense = dense_form(n, d if n == 2 else min(d, 4), 0)
        for gens in ([f"x1^{d}"], [f"x{n}^{d}", "x1"], [f"x1^{d - 1}*x{n}"], [f"x2^{d}"]):
            I = Ideal(n, [P(text, n) for text in gens] + [dense])
            assert _expands_like_the_oracle(I, g), (n, gens)


def test_transform_preserves_invariants():
    pol = policy(seed=2)
    I = random_graded_ideal(3, 1)
    m = dimension(I)
    h = hilbert(monomial_ideal_of(I))
    for i in range(20):
        g = random_transform(3, GenericityPolicy(samples=2, bound=50, seed=100 + i), i)
        gI = apply_transform(I, g)
        assert dimension(gI) == m
        assert hilbert(monomial_ideal_of(gI)) == h


def test_a_transform_takes_over_the_hilbert_series(monkeypatch):
    # an invertible change of coordinates keeps the Hilbert series, so once
    # I has a cached basis gI takes its numerator, which must equal the one
    # a cold grevlex run on an uncached copy of gI gives.  A fresh I has no
    # numerator to hand over: building gI must not run the engine.
    runs = counting_engine(monkeypatch)
    for idx, I in enumerate(seeded_ideals(4, 2)):
        n = I.n
        gs = [Transform.identity(n)] + [
            random_transform(n, GenericityPolicy(bound=bound, seed=idx), i)
            for i, bound in enumerate((1, 3, 1000))
        ]
        before = len(runs)
        assert all(apply_transform(I, g).numerator is None for g in gs)
        assert len(runs) == before
        buchberger(I)
        for g in gs:
            gI = apply_transform(I, g)
            cold = Ideal(n, map(dict, gI.forms))
            assert gI.numerator == I.numerator == hilbert_numerator(n, buchberger(cold).leads)
    # a singular map need not keep the series, so it is no transform;
    # neither is a matrix that is not square, nor one with an entry that is
    # not an int, which ``apply_transform`` could not expand
    for matrix in (((1, 1), (0, 0)), (), ((1, 0),), ((1, 0, 0), (0, 1, 0)),
                   [[1.5]], [[Fraction(1, 2)]], [["a"]]):
        with pytest.raises(ValueError):
            Transform(matrix)


def test_gin_of_strongly_stable_is_itself():
    pol = policy()
    for I in [split_fan_ideal(), stable_depth_family(5, 3, 1)]:
        G = gin(I, pol)
        want = minimalize(I.n, [g.terms[0][0] for g in I.generators])
        assert set(G.generators) == set(want.generators)


@pytest.mark.parametrize("n, count", [(1, 3), (2, 14), (3, 64), (4, 350)])
def test_every_strongly_stable_ideal_is_its_own_gin(n, count):
    # every strongly stable ideal in n <= 4 variables generated in degrees
    # at most 3: in characteristic 0 it is Borel-fixed, so it is its own
    # generic initial ideal (Galligo 1974; Bayer and Stillman 1987), its
    # depth is n minus the largest index of a variable in a minimal
    # generator (Eliahou and Kervaire 1990), and its dimension and
    # multiplicity come from counting standard monomials
    pol = policy()
    ideals = strongly_stable_ideals(n, 3)
    assert len(set(ideals)) == len(ideals) == count
    for gens in ideals:
        assert all(minimal_generators([*gens, *borel_moves(g)]) == gens for g in gens), gens
        J = Ideal(n, [{e: 1} for e in gens])
        assert sorted(gin(J, pol).generators) == list(gens), gens
        last = max(i + 1 for g in gens for i, e in enumerate(g) if e)
        assert generic.depth(J, pol) == n - last, gens
        assert (dimension(J), multiplicity(J)) == standard_monomial_invariants(gens, n), gens


def test_gin_of_principal_is_power_of_first_variable():
    pol = policy()
    for n, d in [(3, 2), (4, 2), (3, 3)]:
        f = "+".join(f"x{i}^{d}" for i in range(1, n + 1))
        G = gin(ideal(n, f), pol)
        want = tuple([d] + [0] * (n - 1))
        assert G.generators == (want,)


def test_gin_agreement_failure_raises():
    I = ideal(2, "x1")
    hostile = GenericityPolicy(
        transforms=(Transform.identity(2), Transform(((0, 1), (1, 0))))
    )
    with pytest.raises(GenericityFailure):
        gin(I, hostile)


def test_gin_escalation_rescues_degenerate_small_bounds():
    # with entries in [-2, 2] both draws can agree on a non-stable leading
    # ideal; bound escalation must recover the true gin instead of failing
    fam = stable_depth_family(5, 3, 1)
    for seed in range(12):
        pol = GenericityPolicy(samples=2, bound=2, seed=seed)
        G = gin(fam, pol)
        assert set(G.generators) == {
            (1, 0, 0, 0, 0),
            (0, 2, 0, 0, 0),
            (0, 1, 1, 0, 0),
            (0, 1, 0, 1, 0),
        }


def test_gin_injected_nonstable_raises_without_escalation():
    # injected transforms disable escalation, so agreed non-generic output
    # surfaces as a genericity failure
    I = ideal(2, "x2")
    with pytest.raises(GenericityFailure):
        gin(I, identity_policy(2))


def test_gin_honours_the_cap_after_an_equal_ideal_was_computed():
    # the gin's Buchberger runs reach degree 7; a run under the default cap
    # on an equal ideal must not serve a later call on a cap-3 ideal
    gin(ideal(3, "x1^3", "x2^3"))
    with pytest.raises(DegreeCapExceeded):
        gin(ideal(3, "x1^3", "x2^3", degree_cap=3))


def test_tropical_member_identity_family():
    n = 4
    idp = identity_policy(n)
    for k in (1, 2, 3, 4):
        I = product_family(n, k)
        assert tropical_member(I, (0, 0, 1, 1), idp)
        assert tropical_member(I, (1, 1, 0, 2), idp)
        assert not tropical_member(I, (0, 1, 0, 1), idp)
        assert not tropical_member(I, (0, 1, 1, 1), idp)


def test_tropical_member_generic_set_description(monkeypatch):
    pol = policy(seed=3)
    I = product_family(4, 2)
    m = dimension(I)
    assert m == 3
    # membership iff the minimum repeats at least n-m+1 = 2 times
    assert tropical_member(I, (0, 0, 1, 2), pol)
    assert tropical_member(I, (0, 1, 0, 2), pol)
    assert not tropical_member(I, (0, 1, 2, 3), pol)
    rng = random.Random(4)
    for _ in range(15):
        w = tuple(rng.randint(-2, 2) for _ in range(4))
        want = w.count(min(w)) >= 2
        assert tropical_member(I, w, pol) == want
    # answers are memoized per policy and normalized weight: a repeat, a
    # shift or a positive multiple of a weight asked before runs no engine,
    # divides nothing and reads no dimension
    runs, divisions, dims = counting_engine(monkeypatch), counting_normal_forms(monkeypatch), []
    monkeypatch.setattr(generic, "dimension", lambda J: dims.append(J))
    for w, want in [((0, 0, 1, 2), True), ((3, 3, 4, 5), True), ((0, 2, 0, 4), True),
                    ((0, 1, 2, 3), False), ((-1, 1, 3, 5), False)]:
        assert tropical_member(I, w, pol) == want
    assert not runs and not divisions and not dims


def test_tropical_member_at_zero_weight():
    # the zero weight attains its minimum n times, so it always belongs
    pol = policy()
    for I in [smooth_quadric4(), product_family(4, 2), stable_depth_family(5, 3, 1)]:
        assert tropical_member(I, (0,) * I.n, pol)


def _tropical_sweep_at_seed_1() -> tuple:
    """(ideals, queries, policy) of the tropical-sweep pass at workload
    seed 1: 12 pairs of dense quadrics, alternately in 3 and 4 variables,
    16 grid queries each, half of them with the minimum attained at least
    three times."""
    rng = random.Random("tropical-sweep:1")
    ideals, queries = [], []
    for k in range(12):
        n = 3 + k % 2
        ideals.append(Ideal(n, [dense_form(n, 2, rng.randrange(10**6)) for _ in range(2)]))
        for q in range(16):
            ties = rng.randint(3, n) if q % 2 == 0 else rng.randint(1, 2)
            low = rng.randint(-3, 2)
            w = [low] * ties + [rng.randint(low + 1, 3) for _ in range(n - ties)]
            rng.shuffle(w)
            queries.append((k, tuple(w)))
    rng.shuffle(queries)
    return ideals, queries, policy(seed=rng.randrange(10**6))


def test_tropical_sweep_bounds_engine_runs(monkeypatch):
    # the tropical-sweep pass at workload seed 1, its dimensions computed
    # first.  A query is answered once per permutation orbit of its
    # normalized weight, at the sorted weight: the 192 queries, at 105
    # normalized weights, compute 77 answers.  Each of the 30 containment
    # tests the pass makes is answered by the trace of its Cohen-Macaulay
    # ideal, read off the held grevlex basis, so the pass makes 24 runs, 12
    # on ideals in 3 variables and 12 in 4, and walks no saturation (84
    # runs in n variables when every containment test walked its
    # saturation; 24 and 60 in one variable fewer when, too, a run on the
    # ideal restricted to x_i = 0 could certify a step; 182 when each
    # normalized weight was computed at itself).  Runs on the transformed
    # ideals and their initial ideals take over the Hilbert series of the
    # ideal and stop once their leads have it, so the pass forms 24 s-pair
    # normal forms (84 when every test walked).  Each query reads the
    # dimension of its ideal from the memoized Hilbert numerator, so the
    # pass lists no minimal leads and solves no least cover.  Each
    # Groebner-cone lookup asks every cached basis once, oldest first, until
    # one serves, so the pass re-sorts 12 of them (102 when every test
    # walked, 156 when, too, every step took a basis; 448 when each
    # normalized weight was computed at itself).  Measured per normalized
    # weight: 662 runs when every query built its initial ideal afresh;
    # 206 s-pairs when the transformed ideals started without the series,
    # 602 when every run reduced all its pairs; 192 lead lists and covers
    # when every query read its leads.
    ideals, queries, pol = _tropical_sweep_at_seed_1()
    dims = [dimension(I) for I in ideals]
    runs = counting_engine_variables(monkeypatch)
    spairs = counting_spairs(monkeypatch)
    resorts = counting_resorts(monkeypatch)

    def forbidden(*args):
        raise AssertionError("a tropical query read the leads of its ideal")

    monkeypatch.setattr("gentrop.invariants.minimalize", forbidden)
    monkeypatch.setattr("gentrop.invariants.monomial_dimension", forbidden)
    for k, w in queries:
        want = w.count(min(w)) >= ideals[k].n - dims[k] + 1
        assert tropical_member(ideals[k], w, pol) == want
    assert sorted(runs) == [3] * 12 + [4] * 12
    assert len(spairs) == 24
    assert len(resorts) == 12


def test_a_tropical_sweep_makes_no_run_on_its_ideals(monkeypatch):
    # the same pass as the benchmark times it, with no dimension computed
    # first.  A query checks that its ideal I is not zero-dimensional on the
    # first transformed ideal, which has I's Hilbert series and needs its
    # grevlex basis anyway, so no engine run enters the forms of an input
    # ideal (12 runs, one per ideal, when the check ran I's grevlex basis).
    # The numerator read from that basis is shared with I and the other
    # draw, so the second draw's first run has a target, and dimension(I)
    # after the pass makes no run either: the run on I is gone, not moved
    # into a later call.  The pass makes 24 runs, 36 s-pairs and 228
    # divisions, 120 of them the normal forms of the 30 trace checks (60
    # more runs, on ideals restricted to x_i = 0, and 318 divisions when
    # each containment test walked its saturation; 72 such runs, 46 s-pairs
    # and 406 divisions when the check ran I's basis and each zero-weight
    # query walked a new in_0(gI))
    ideals, queries, pol = _tropical_sweep_at_seed_1()
    entered = counting_engine_inputs(monkeypatch)
    spairs = counting_spairs(monkeypatch)
    divisions = counting_normal_forms(monkeypatch)
    answers = [tropical_member(ideals[k], w, pol) for k, w in queries]
    assert len(entered) == 24
    assert len(spairs) == 36 and len(divisions) == 228
    forms = {frozenset(frozenset(f) for f in I.forms) for I in ideals}
    assert not forms & set(entered)
    del entered[:]
    dims = [dimension(I) for I in ideals]
    assert not entered and dims == [I.n - 2 for I in ideals]
    for (k, w), member in zip(queries, answers):
        assert member == (w.count(min(w)) >= 3)


def test_a_membership_scan_in_five_variables_pins_its_runs(monkeypatch):
    # 4 pairs of dense quadrics in 5 variables, policy seed k for ideal k,
    # 30 grid queries each, half with the minimum attained 3 to 5 times and
    # half once or twice.  Answered once per permutation orbit, at the
    # sorted weight, the scan makes 12 engine runs, all in 5 variables:
    # every containment test is answered by the trace of its Cohen-Macaulay
    # ideal (56 runs when each walked its saturation; 12 and 44 in 4
    # variables when, too, a run on the ideal restricted to x_i = 0 could
    # certify a step).  Injected as explicit transforms, the same draws
    # answer each normalized weight at itself: each transformed ideal ends
    # with 15 to 19 cached bases, and a new query's order is often in the
    # Groebner cone of one cached long before.  Each of the scan's 128
    # initial ideals is built fresh, so equal ones are tested apart: the
    # trace check declines 112 of its 134 containment tests (94 with a
    # trailing variable in a grevlex lead at an unsorted weight, 18 with a
    # zero trace), which walk their saturations: each step takes its basis
    # through ``buchberger``, served from a cached basis or run in 5
    # variables.  So that scan makes 166 runs, all in 5 variables, forms 170
    # s-pairs and, asking the cached bases oldest first, re-sorts 1066 of
    # them.  When equal initial ideals of a draw were one interned object,
    # it made 104 containment tests, 82 declined, and 138 runs, 142 s-pairs
    # and 954 re-sorts (746 when a step that a cached basis certified asked
    # no order; 66 runs in 5 variables and 72 in 4, 70 s-pairs and 638
    # re-sorts when, too, a run on the restriction could certify a step).
    # Then, without the trace check it made 170 runs and re-sorted 1302
    # (826 with certified steps); without the walk's stop at the unit ideal,
    # 184 runs, as without the stop at the first basis with a monomial that
    # it replaced.  Before certified steps it made 186 runs (196 when a
    # lookup asked only the grevlex basis and the six newest, 214 without
    # interning) and re-sorted 1132 (1214 newest first)
    def scan(injected: bool) -> tuple:
        rng = random.Random(5)
        runs, resorts = counting_engine_variables(monkeypatch), counting_resorts(monkeypatch)
        spairs = counting_spairs(monkeypatch)
        for k in range(4):
            I = Ideal(5, [dense_form(5, 2, rng.randrange(10**6)) for _ in range(2)])
            m = dimension(I)
            pol = policy(seed=k)
            if injected:
                pol = GenericityPolicy(transforms=[random_transform(5, pol, i) for i in range(2)])
            for q in range(30):
                ties = rng.randint(3, 5) if q % 2 == 0 else rng.randint(1, 2)
                low = rng.randint(-3, 2)
                w = [low] * ties + [rng.randint(low + 1, 3) for _ in range(5 - ties)]
                rng.shuffle(w)
                assert tropical_member(I, tuple(w), pol) == (w.count(low) >= 5 - m + 1)
        return runs.count(5), runs.count(4), len(runs), len(resorts), len(spairs)

    assert scan(injected=False)[:3] == (12, 0, 12)
    assert scan(injected=True) == (166, 0, 166, 1066, 170)


def test_membership_answers_flow_between_a_draw_and_its_initial_ideals(monkeypatch):
    # ``_member_at`` answers for one transformed ideal gI from what gI and
    # its initial ideals know: the zero weight walks gI itself, a
    # monomial-free in_w(gI) memoizes that gI holds no monomial, and a gI
    # known to hold one answers False at every weight.  Asked at every
    # normalized weight of the grid [-1, 1]^n, the zero weight first or
    # last, each draw must answer as the containment test of in_w on a
    # fresh copy of gI, which shares no memo with it.  The last ideal is
    # injected through the identity: it holds a monomial that no element of
    # its grevlex basis is, so only a walk finds it, and with the zero
    # weight first each later weight answers False from ``has_monomial``
    # without building an initial ideal.  The second seeded ideal is
    # zero-dimensional, so its draws hold a monomial too; the third, sparse
    # in 4 variables, is left out for time (0.9 s).
    from gentrop.generic import _member_at

    held = ideal(3, "x1*x3 - x2*x3 - x3^2", "x1*x2 - x2^2 + x3^2")
    assert contains_monomial(Ideal(3, map(dict, held.forms)))
    assert not any(len(f) == 1 for f in buchberger(held).forms)
    sparse = seeded_ideals(2, 1)
    cases = [(I, policy()) for I in (*sparse[:2], *sparse[3:], smooth_quadric4(), product_family(4, 2))]
    cases.append((held, identity_policy(3)))
    built = counting_initial_ideals(monkeypatch)
    for I, pol in cases:
        n = I.n
        grid = sorted({normalize_weight(w, n) for w in product(range(-1, 2), repeat=n)})
        grid.remove((0,) * n)
        wants = [[not contains_monomial(initial_ideal(Ideal(n, map(dict, gI.forms)), wn))
                  for wn in [(0,) * n] + grid] for gI in transformed(I, pol)]
        for zero_first in (True, False):
            weights = [(0,) * n] + grid if zero_first else grid + [(0,) * n]
            for gI, want in zip(transformed(Ideal(n, map(dict, I.forms)), pol), wants):
                del built[:]
                answers = [_member_at(gI, wn) for wn in weights]
                assert answers == (want if zero_first else want[1:] + want[:1])
                # a draw is known monomial-free once one in_w(gI) is
                assert (gI.has_monomial is False) == any(answers)
                if I is held:
                    assert gI.has_monomial is True
                    assert bool(built) != zero_first


def _small_sweep() -> tuple:
    """(ideals, queries): two pairs of dense quadrics, in 3 and 4
    variables, 10 grid queries each."""
    rng = random.Random("small-sweep")
    ideals, queries = [], []
    for n in (3, 4):
        ideals.append(Ideal(n, [dense_form(n, 2, rng.randrange(10**6)) for _ in range(2)]))
        for q in range(10):
            ties = rng.randint(3, n) if q % 2 == 0 else rng.randint(1, 2)
            low = rng.randint(-3, 2)
            w = [low] * ties + [rng.randint(low + 1, 3) for _ in range(n - ties)]
            rng.shuffle(w)
            queries.append((len(ideals) - 1, tuple(w)))
    return ideals, queries


def test_a_small_sweep_bounds_runs_and_hilbert_checks(monkeypatch):
    # each new initial ideal J caches the reduced grevlex basis read from
    # its forms, so the saturation steps of its membership test skip J's
    # grevlex run: the sweep makes at most 24 engine runs (32 when every J
    # ran one).  Every ideal derived from an input ideal shares its holder
    # of the Hilbert numerator, so most runs have a target, and the sweep
    # computes at most 11 Hilbert numerators (8 in this sweep; 2 while
    # derived ideals shared a memo of Hilbert checks).
    ideals, queries = _small_sweep()
    dims = [dimension(I) for I in ideals]
    runs = counting_engine(monkeypatch)
    numerators = counting_hilbert_numerators(monkeypatch)
    for k, w in queries:
        want = w.count(min(w)) >= ideals[k].n - dims[k] + 1
        assert tropical_member(ideals[k], w, policy()) == want
    assert 0 < len(runs) <= 24
    assert 0 < len(numerators) <= 11


def test_an_ideal_that_holds_a_basis_knows_its_series(tmp_path, capsys, monkeypatch):
    # ``buchberger`` records the Hilbert numerator with the first basis it
    # stores, by a run or a cone hit, so every ideal it returns a basis for
    # knows its series at once: in a small sweep, in an in-process
    # multiplicity job and on a fresh ideal.  A saturation holds the
    # grevlex basis of the last ideal of its walk, so it shares that
    # ideal's series.  Wrapped wherever the package calls ``buchberger``.
    known = []
    engine = groebner.buchberger

    def checked(I, *args):
        gb = engine(I, *args)
        known.append(I.numerator is not None)
        return gb

    for module in (groebner, generic, invariants):
        monkeypatch.setattr(module, "buchberger", checked)
    ideals, queries = _small_sweep()
    for k, w in queries:
        tropical_member(ideals[k], w, policy())
    path = tmp_path / "fam.ideal"
    path.write_text("ring 5\nx1\nx2^2\nx2*x3\nx2*x4\n")
    assert cli.main(["verify", str(path), "--target", "multiplicity", "--seed", "1"]) == 0
    assert '"passed": true' in capsys.readouterr().out
    buchberger(ideal(3, "x1*x2 - x3^2"))
    assert len(known) > 20 and all(known)
    S = saturate(ideal(4, "x1^2 + x1*x2", "x2*x1 + x2^2"), P("x1*x2*x3*x4", 4))
    assert list(S.gb_cache) == [GREVLEX] and S.numerator == (1, -1)


def test_tropical_member_rejects_dim_zero():
    # a query that raises is not memoized, so it raises again
    I = ideal(2, "x1", "x2")
    for _ in range(2):
        with pytest.raises(ValueError):
            tropical_member(I, (0, 0), policy())
    assert not I.members


def test_cone_constancy_cm_and_family():
    pol = policy()
    q = smooth_quadric4()
    for cone in maximal_cones(4, 3):
        assert cone_constancy(q, cone, pol)
    fam = stable_depth_family(5, 3, 1)
    for cone in refinement_maximal_cones(5, 3, 1)[:6]:
        assert cone_constancy(fam, cone, pol)


def test_cone_constancy_detects_split():
    pol = policy()
    split = split_fan_ideal()
    results = [
        cone_constancy(split, cone, pol)
        for cone in refinement_maximal_cones(5, 4, 1)[:4]
    ]
    assert not all(results)


def test_exact_constancy_implies_the_sampled_oracle():
    # cone constancy answers from the open-cone certificate alone.  The
    # point tests at 3 sampled interior points, its former fallback, are the
    # reference: every exact True must be a sampled True, on every cone of
    # the differential cases under a sampled policy and under one injected
    # bound-2 draw (a draw whose generic initial ideal is not strongly
    # stable fails, and is skipped)
    answers = {True: 0, False: 0}
    for name, I, cones in _differential_cases():
        draw = random_transform(I.n, GenericityPolicy(bound=2), 0)
        for pol in (policy(seed=3), GenericityPolicy(transforms=(draw,))):
            for cone in cones:
                try:
                    exact = cone_constancy(I, cone, pol)
                except GenericityFailure:
                    continue
                assert not exact or sampled_cone_constancy(I, cone, 3, pol), (name, cone, pol)
                answers[exact] += 1
    assert answers[True] > 250 and answers[False] > 200


def test_the_certificate_finds_a_split_the_sampled_points_miss():
    # under the identity, in_w(8 x1 + 5 x5) is (x1) where w1 < w5 and (x5)
    # where w1 > w5, so the skeleton cones with min-set {2,3}, {2,4} and
    # {3,4}, which hold both, split.  Their 3 sampled interior points all
    # have w1 < w5, so the point tests passed them
    I = ideal(5, "8*x1 + 5*x5")
    pol = identity_policy(5)
    cones = list(maximal_cones(5, dimension(I)))
    split = [sorted(c.min_set) for c in cones if not cone_constancy(I, c, pol)]
    assert split == [[2, 3], [2, 4], [3, 4]]
    assert all(sampled_cone_constancy(I, c, 3, pol) for c in cones)
    cone = ConeId(5, {2, 3})
    w, v = (1, 0, 0, 3, 7), (7, 0, 0, 3, 1)
    assert _in_open_cone(w, cone) and _in_open_cone(v, cone)
    assert [str(g) for g in initial_ideal(I, w).generators] == ["x1"]
    assert [str(g) for g in initial_ideal(I, v).generators] == ["x5"]


def test_split_cones_divide_along_middle_order():
    # for the split-fan ideal, sampled evidence that each refinement cone
    # divides exactly along the ordering of its two middle coordinates:
    # fixed arrangement = constant initial ideal, swapped arrangement = a
    # different one
    pol = policy()
    split = split_fan_ideal()
    g = apply_transform(split, random_transform(5, pol, 0))
    from gentrop.generic import gap_degree
    from gentrop.fans import interior_points

    gap = gap_degree(split, pol) + 1
    for cone in refinement_maximal_cones(5, 4, 1)[:5]:
        p = interior_points(cone, gap, 4)
        ins = [initial_ideal(g, w).generators for w in p]
        assert ins[0] == ins[2] and ins[1] == ins[3]
        assert ins[0] != ins[1]


def _differential_cases():
    """(name, ideal, cones) for the cell-test differential test: the
    maximal cones of the m-skeleton and of its t-refinements."""
    ideals = [(f"random{n}:{seed}", random_graded_ideal(n, seed, gens=2 + seed % 2))
              for n in (3, 4) for seed in range(5)]
    ideals += [("stable5", stable_depth_family(5, 3, 1)), ("stable6", stable_depth_family(6, 4, 2)),
               ("product4:2", product_family(4, 2)), ("product5:2", product_family(5, 2)),
               ("split", split_fan_ideal())]
    for name, I in ideals:
        m = dimension(I)
        if m == 0:
            continue
        cones = list(maximal_cones(I.n, m))
        if m < I.n:
            for t in range(1, m - 1):
                cones += list(refinement_maximal_cones(I.n, m, t))
        yield name, I, cones


def test_cell_test_matches_initial_ideal_forms():
    # the point form of GroebnerBasis.cell_contains against the fan probes'
    # earlier comparison of weighted initial ideals, on every ordered pair
    # of 8 sampled interior points per cone and transform; the open-cone
    # form must only certify cones where all 8 points agree, and never a
    # cone of the split ideal's depth-1 refinement, all of which split
    pol = policy(seed=3)
    pairs, certified, split_cones = {True: 0, False: 0}, 0, 0
    for name, I, cones in _differential_cases():
        gap = gap_degree(I, pol) + 1
        for cone in cones:
            points = list(interior_points(cone, gap, 8))
            for gI in transformed(I, pol):
                want = initial_ideal_forms(gI, points)
                bases = [buchberger(gI, GREVLEX.refine(w)) for w in points]
                for i, gb in enumerate(bases):
                    for j, v in enumerate(points):
                        if i != j:
                            same = want[i] == want[j]
                            assert gb.cell_contains(v) == same, (name, cone, i, j)
                            pairs[same] += 1
                holds = bases[0].cell_contains(cone=(cone.min_set, cone.middle, cone.top))
                if holds:
                    assert all(J == want[0] for J in want), (name, cone)
                    certified += 1
                if name == "split" and len(cone.top) == 1:
                    assert not holds and any(J != want[0] for J in want), cone
                    split_cones += 1
    assert min(pairs.values()) > 1000 and certified > 100 and split_cones == 2 * 30
    # the cone form certifies a whole open cone from a basis at any weight:
    # a basis at (0, 0, 1, 2) certifies two cones that do not hold its
    # weight, and their 8 sampled points agree
    q = smooth_quadric4()
    gb = buchberger(q, GREVLEX.refine((0, 0, 1, 2)))
    assert gb.cell_contains(cone=({1, 2}, (), ())) and gb.cell_contains(cone=({1, 2}, {3}, {4}))
    outside = 0
    for sets in (({1, 3}, (), ()), ({1, 2}, {4}, {3}), ({1}, {2, 3}, {4})):
        if gb.cell_contains(cone=sets):
            want = initial_ideal_forms(q, list(interior_points(ConeId(4, *sets), 2, 8)))
            assert all(J == want[0] for J in want), sets
            outside += 1
    assert outside == 2


def _in_open_cone(w, cone: ConeId) -> bool:
    """Whether the weight w lies in the open cone."""
    low = min(w)
    if any((w[i - 1] == low) != (i in cone.min_set) for i in range(1, cone.n + 1)):
        return False
    if not cone.middle or not cone.top:
        return True
    return max(w[i - 1] for i in cone.middle) < min(w[i - 1] for i in cone.top)


def test_cached_bases_certify_cones_exactly():
    # the open-cone form of GroebnerBasis.cell_contains asked of bases at
    # other weights, as a cone probe asks the bases gI already holds: each
    # transformed ideal caches its grevlex basis and the basis at the first
    # interior point of every cone, and every cached basis is asked about
    # every cone.  Each True must see the cone's 8 sampled points agree
    # in their initial ideals' forms, and the basis at the cone's first
    # point must certify the cone too.  730 of the 1,358 Trues come from a
    # basis whose weight lies outside the cone
    pol = policy(seed=3)
    trues = outside = 0
    for name, I, cones in _differential_cases():
        gap = gap_degree(I, pol) + 1
        points = {cone: list(interior_points(cone, gap, 8)) for cone in cones}
        for gI in transformed(I, pol):
            first = {cone: buchberger(gI, GREVLEX.refine(points[cone][0])) for cone in cones}
            bases = list(gI.gb_cache.values())
            for cone in cones:
                sets = (cone.min_set, cone.middle, cone.top)
                checked = False
                for gb in bases:
                    if not gb.cell_contains(cone=sets):
                        continue
                    if not checked:
                        want = initial_ideal_forms(gI, points[cone])
                        assert all(J == want[0] for J in want), (name, cone)
                        assert first[cone].cell_contains(cone=sets), (name, cone)
                        checked = True
                    trues += 1
                    outside += not _in_open_cone(gb.order.weight or (0,) * I.n, cone)
    assert trues > 1000 and outside > 500


def test_a_cone_certified_by_an_older_cached_basis_makes_no_engine_run(monkeypatch):
    # under one injected transform, gI caches its grevlex basis (for the
    # generic initial ideal behind the gap factor), then a basis at weight
    # (0, 1, 0, 1), which certifies the open cone with min-set {1, 3, 4},
    # then six bases with other leads that do not.  The constancy probe's
    # basis at the cone's first interior point is served from the older
    # basis, its leads, with no engine run (one run when only the newest
    # basis was asked: the grevlex basis and the six newest cannot serve
    # that point)
    I = random_graded_ideal(4, 0, gens=2)
    pol = GenericityPolicy(transforms=(random_transform(4, GenericityPolicy(bound=5), 0),))
    cone = ConeId(4, {1, 3, 4})
    sets = (cone.min_set, cone.middle, cone.top)
    gap_degree(I, pol)
    (gI,) = transformed(I, pol)
    weights = [(0, 1, 0, 1), (0, 0, 0, 1), (0, 1, 1, 1), (0, 1, 1, 2), (0, 1, 2, 1),
               (1, 0, 0, 0), (1, 0, 1, 0)]
    for w in weights:
        buchberger(gI, GREVLEX.refine(w))
    older = buchberger(gI, GREVLEX.refine(weights[0]))
    assert [gb.cell_contains(cone=sets) for gb in gI.gb_cache.values()] == [False, True] + [False] * 6
    runs = counting_engine(monkeypatch)
    assert cone_constancy(I, cone, pol)
    assert not runs
    served = buchberger(gI, GREVLEX.refine(interior_point(cone, gap_degree(I, pol) + 1)))
    assert served is not older and set(served.leads) == set(older.leads)


def test_buchberger_serves_the_cones_held_bases_certify(monkeypatch):
    # cone_constancy asks buchberger for the basis at the cone's first
    # interior point w; it no longer scans the bases gI holds for one that
    # certifies the cone.  Over the differential cases at seed 3, probed in
    # order, a held basis certifies 312 of the 696 (gI, cone) pairs, and 298
    # of them are served by the Groebner-cone lookup with no engine run.
    # The other 14 each run once, and every certifying basis there was
    # computed at a weight off the cone's span (not constant on its
    # min-set) and ties a term with its lead at w that grevlex ranks first;
    # the basis at w certifies the cone too, so the answer is the one the
    # scan gave.  This is a measured property of these cases, not a
    # theorem: the sequence makes 301 engine runs, with or without the scan
    pol = policy(seed=3)
    runs = counting_engine(monkeypatch)
    pairs = held = ran = 0
    for name, I, cones in _differential_cases():
        gap = gap_degree(I, pol) + 1
        key = GREVLEX.key_function(I.n, I.degree_cap)
        for cone in cones:
            w = interior_point(cone, gap)
            sets = (cone.min_set, cone.middle, cone.top)
            answers = []
            for gI in transformed(I, pol):
                pairs += 1
                certifying = [gb for gb in gI.gb_cache.values() if gb.cell_contains(cone=sets)]
                before = len(runs)
                gb = buchberger(gI, GREVLEX.refine(w))
                answers.append(gb.cell_contains(cone=sets))
                if not certifying:
                    continue
                held += 1
                if len(runs) == before:
                    continue
                ran += 1
                assert gb.cell_contains(cone=sets), (name, cone)
                for old in certifying:
                    u = old.order.weight or (0,) * I.n
                    assert len({u[i - 1] for i in cone.min_set}) > 1, (name, cone, u)
                    assert any(sum(a * (x - y) for a, x, y in zip(w, e, f[0][0])) == 0
                               and key(e) > key(f[0][0]) for f in old.forms for e, _ in f[1:])
            assert cone_constancy(I, cone, pol) == answers[0] == answers[-1], (name, cone)
    assert (pairs, held, ran, len(runs)) == (696, 312, 14, 301)


def test_probe_results_do_not_depend_on_cache_history():
    # a cone probe may read its answer off a basis cached for an earlier
    # cone, so constancy probes in forward, reversed and shuffled cone
    # order, each on a fresh ideal, must give every cone the result that a
    # fresh ideal gives for that cone alone
    pol = policy(seed=5)
    rng = random.Random("probe-order")
    makers = [split_fan_ideal, lambda: stable_depth_family(5, 3, 1), lambda: product_family(5, 2)]
    makers += [lambda n=n, s=s: random_graded_ideal(n, s, gens=2 + s % 2)
               for n in (3, 4) for s in range(3)]
    results = set()
    for make in makers:
        I = make()
        n, m = I.n, dimension(I)
        if m == 0:
            continue
        cones = list(maximal_cones(n, m))
        if 2 < m < n:
            cones += list(refinement_maximal_cones(n, m, 1))
        alone = {cone: cone_constancy(make(), cone, pol) for cone in cones}
        shuffled = rng.sample(cones, len(cones))
        for order in (cones, cones[::-1], shuffled):
            probes = list(constancy_probes(make(), order, pol))
            assert [p.cone for p in probes] == order
            assert {p.cone: p.result for p in probes} == alone, I
        results.update(alone.values())
    assert results == {True, False}


def test_wide_fan_probes_build_one_basis_per_lead_set(monkeypatch):
    # the reduced wide-fan job, verify --target Wnm on one quadric in 7
    # variables at workload seed 1: no probe builds an initial ideal, the
    # 21 cones form one orbit, so the generic initial ideal behind the gap
    # factor is read off each of the two transforms once, and a cone that a
    # basis gI already holds certifies computes no basis, so each
    # transformed ideal caches at most one weighted basis per lead set (one
    # per probed cone, 21, when every probe computed its own)
    def no_initial_ideal(*args):
        raise AssertionError("a fan probe built an initial ideal")

    monkeypatch.setattr(groebner, "initial_ideal", no_initial_ideal)
    monkeypatch.setattr(generic, "initial_ideal", no_initial_ideal)
    pol = policy(seed=random.Random("wide-fan:1").randrange(10**6))
    I = ideal(7, "x1*x2 + x3*x4")
    gin_reads = counting_gins(monkeypatch)
    probes = list(constancy_probes(I, maximal_cones(7, dimension(I)), pol))
    assert len(probes) == 21 and all(p.result for p in probes)
    assert len(gin_reads) == 2
    for gI in transformed(I, pol):
        leads = [frozenset(gb.leads) for order, gb in gI.gb_cache.items() if order.weight is not None]
        assert len(set(leads)) == len(leads) < len(probes)


def test_wide_fan_verify_pins_its_work(monkeypatch, tmp_path, capsys):
    # in-process `verify q10.ideal --target Wnm` at workload seed 1: the 45
    # skeleton cones form one orbit, so one cone is probed, and the grevlex
    # basis of each transformed ideal certifies it.  The job makes 5
    # Groebner-cone lookups, two of them the probe's, one per transform for
    # its basis at the cone's first interior point, which the grevlex basis
    # serves; 3 engine runs, the grevlex runs of the input and of its two
    # transforms (19 runs when every cone was probed, 93 lookups when every
    # probe computed its basis); and one generic initial ideal, read off
    # each of the policy's two transforms
    path = tmp_path / "q10.ideal"
    path.write_text("ring 10\nx1*x2 + x3*x4\n")
    seed = random.Random("wide-fan:1").randrange(10**6)
    runs = counting_engine(monkeypatch)
    lookups = counting_cone_hits(monkeypatch)
    gin_reads = counting_gins(monkeypatch)
    assert cli.main(["verify", str(path), "--target", "Wnm", "--seed", str(seed)]) == 0
    assert '"passed": true' in capsys.readouterr().out
    assert len(runs) == 3 and len(lookups) == 5 and len(gin_reads) == 2


def test_separating_witness():
    pol = policy()
    for I in [split_fan_ideal(), stable_depth_family(5, 3, 1)]:
        w, v, distinct = separating_witness(I, pol)
        assert distinct
        # both points live in the same open skeleton cone
        n, m = I.n, dimension(I)
        assert sorted(w) == sorted(v)
        assert frozenset(i + 1 for i, x in enumerate(w) if x == 0) == frozenset(
            range(1, n - m + 2)
        )
    w, v, distinct = separating_witness(smooth_quadric4(), pol)
    assert not distinct
    # the witnesses at policy seeds 0-3, as recorded when a second gin, under
    # grevlex with the two swapped variables exchanged, widened the gap
    pins = [
        (split_fan_ideal, ((0, 0, 1, 5, 21), (0, 0, 1, 21, 5))),
        (lambda: stable_depth_family(5, 3, 1), ((0, 0, 0, 1, 4), (0, 0, 0, 4, 1))),
        (lambda: stable_depth_family(6, 4, 2), ((0, 0, 0, 1, 4, 13), (0, 0, 0, 4, 1, 13))),
    ]
    for make, (w, v) in pins:
        for seed in range(4):
            assert separating_witness(make(), policy(seed)) == (w, v, True), seed
    # the construction needs positive depth and dimension at least 3
    with pytest.raises(ValueError, match="positive depth"):
        separating_witness(product_family(4, 4), pol)
    with pytest.raises(ValueError, match="dimension at least 3"):
        separating_witness(ideal(3, "x1*x2"), pol)


def test_classify_cm_labels():
    pol = policy()
    assert classify_cm(smooth_quadric4(), pol).label == CM
    assert classify_cm(codim2_complete_intersection(), pol).label == CM
    assert classify_cm(stable_depth_family(5, 3, 1), pol).label == NEITHER
    assert classify_cm(product_family(4, 4), pol).label == DEPTH_ZERO
    # union of a plane and a line: depth dim-1
    assert classify_cm(ideal(3, "x1*x2", "x1*x3"), pol).label == ALMOST_CM
    with pytest.raises(ValueError, match="positive dimension"):
        classify_cm(ideal(2, "x1^2", "x2"), pol)


def test_classify_probes_recorded():
    pol = policy()
    res = classify_cm(smooth_quadric4(), pol)
    assert len(res.probes) == len(maximal_cones(4, 3))
    assert all(p.evidence == "sampled" and p.result for p in res.probes)
    res = classify_cm(stable_depth_family(5, 3, 1), pol)
    assert [p.kind for p in res.probes] == ["separating_witness"]
    assert res.probes[0].evidence == "exact"


def test_ray_constancy_directions():
    pol = policy()
    fam = stable_depth_family(5, 3, 1)  # n=5, m=3, t=1
    n, m, t = 5, 3, 1
    base = ConeId(n, frozenset(range(1, n - m + 2)))
    from gentrop.generic import gap_degree

    c = gap_degree(fam, pol)
    w = interior_point(base, c + 1)
    assert ray_constancy(fam, w, range(n - t + 1, n + 1), pol)
    assert not ray_constancy(fam, w, range(n - t, n + 1), pol)
    # hypersurfaces: a single top direction never leaves the cone
    q = smooth_quadric4()
    wq = interior_point(ConeId(4, {1, 2}), gap_degree(q, pol) + 1)
    assert ray_constancy(q, wq, [4], pol)


def test_recover_depth():
    pol = policy()
    assert recover_depth(stable_depth_family(5, 3, 1), pol) == 1
    assert recover_depth(stable_depth_family(6, 4, 2), pol) == 2
    assert recover_depth(split_fan_ideal(), pol) == 1
    with pytest.raises(ValueError):
        recover_depth(smooth_quadric4(), pol)


def _ray_cases():
    """(name, ideal) for the ray differential test: the split ideal, stable
    and product families of intermediate depth, and seeded random ideals."""
    yield "split", split_fan_ideal()
    for n, m, t in ((5, 3, 1), (6, 4, 1), (6, 4, 2), (7, 5, 2), (7, 5, 3)):
        yield f"stable{n}:{m}:{t}", stable_depth_family(n, m, t)
    for n, k in ((5, 3), (6, 3)):
        yield f"product{n}:{k}", product_family(n, k)
    for n in (3, 4):
        for seed in range(4):
            yield f"random{n}:{seed}", random_graded_ideal(n, seed, gens=2 + seed % 2)


def test_ray_form_matches_the_moved_point_probe():
    # ray_constancy, which asks the reduced basis at w whether the whole
    # ray w + s e_j stays in its Groebner cell, against the earlier probe
    # that point-tests one point pushed past gap_degree * max(w) + 1: every
    # direction at the ladder point of every maximal skeleton cone, and
    # recover_depth against the per-step probe on every ideal of
    # intermediate depth, at three policy seeds
    triples, leaving, depths = 0, 0, []
    for seed in (0, 1, 2):
        pol = policy(seed=seed)
        for name, I in _ray_cases():
            m = dimension(I)
            if m == 0:
                continue
            w_gap = gap_degree(I, pol) + 1
            for cone in maximal_cones(I.n, m):
                w = interior_point(cone, w_gap)
                for j in range(1, I.n + 1):
                    got = ray_constancy(I, w, [j], pol)
                    assert got == moved_point_ray_constancy(I, w, [j], pol), (seed, name, w, j)
                    triples += 1
                    leaving += not got
            t = generic.depth(I, pol)
            if 0 < t < m - 1:
                got = recover_depth(I, pol)
                assert got == moved_point_recover_depth(I, pol) == t, (seed, name)
                depths.append(got)
    assert triples > 2000 and 100 < leaving < triples - 100
    assert len(depths) == 3 * 8


def test_depth_recovery_reads_rays_off_one_basis(monkeypatch):
    # the ray form has no gap parameter and builds no point off w: every
    # cell test recover_depth makes is a ray test on a basis at the one
    # ladder point, and the gin is read through gap_degree
    import inspect

    assert "c_gap" not in inspect.signature(ray_constancy).parameters
    tests, gin_policies = [], []
    cell_contains = groebner.GroebnerBasis.cell_contains

    def recording_cell_contains(gb, *args, **kwargs):
        tests.append((gb.order, args, kwargs))
        return cell_contains(gb, *args, **kwargs)

    def recording_gin(I, policy=GenericityPolicy()):
        gin_policies.append(policy)
        return gin(I, policy)

    monkeypatch.setattr(groebner.GroebnerBasis, "cell_contains", recording_cell_contains)
    monkeypatch.setattr(generic, "gin", recording_gin)
    pol = policy()
    I = stable_depth_family(6, 4, 2)
    assert recover_depth(I, pol) == 2
    assert gin_policies and set(gin_policies) == {pol}
    assert tests and all(not args and set(kwargs) == {"ray"} for _, args, kwargs in tests)
    w = normalize_weight(interior_point(ConeId(6, {1, 2, 3}), gap_degree(I, pol) + 1), 6)
    assert {order for order, _, _ in tests} == {GREVLEX.refine(w)}
    # a direction outside 1..n is refused by both forms
    for bad in (0, 7):
        with pytest.raises(ValueError):
            ray_constancy(I, w, [bad], pol)
        with pytest.raises(ValueError):
            buchberger(I, GREVLEX.refine(w)).cell_contains(ray=bad)


def test_adjacent_cones_have_distinct_initial_ideals():
    pol = policy()
    fam = stable_depth_family(5, 3, 1)
    from gentrop.fans import adjacent_pairs

    for a, b in adjacent_pairs(5, 3, 1)[:5]:
        assert adjacent_distinct(fam, a, b, pol)


def test_refined_basis_matches_plain_basis_for_cm():
    # for CM ideals, the reduced basis is unchanged by refining with a
    # weight from a maximal skeleton cone over the leading min-set
    pol = policy()
    q = smooth_quadric4()
    g = apply_transform(q, random_transform(4, pol, 0))
    w = (0, 0, 1, 2)
    plain = buchberger(g, GREVLEX).elements
    refined = buchberger(g, GREVLEX.refine(w)).elements
    assert plain == refined


def test_boundary_points_split_adjacent_cones():
    # a point with a tie at the split position is on a fan boundary: its
    # initial ideal differs from both adjacent interiors
    pol = policy()
    fam = stable_depth_family(5, 3, 1)
    g = apply_transform(fam, random_transform(5, pol, 0))
    c1 = ConeId(5, {1, 2, 3}, {4}, {5})
    c2 = ConeId(5, {1, 2, 3}, {5}, {4})
    from gentrop.generic import gap_degree

    gap = gap_degree(fam, pol) + 1
    boundary = (0, 0, 0, 1, 1)
    J0 = initial_ideal(g, boundary).generators
    J1 = initial_ideal(g, interior_point(c1, gap)).generators
    J2 = initial_ideal(g, interior_point(c2, gap)).generators
    assert J0 != J1 and J0 != J2 and J1 != J2


def test_determinism_across_fresh_objects():
    pol = policy(seed=9)
    a = gin(stable_depth_family(5, 3, 1), pol)
    b = gin(stable_depth_family(5, 3, 1), pol)
    assert a == b
    w1 = separating_witness(stable_depth_family(5, 3, 1), pol)
    w2 = separating_witness(stable_depth_family(5, 3, 1), pol)
    assert w1 == w2


def test_stanley_reisner_rings_match_the_topological_oracle():
    # dimension, depth, CM class and multiplicity of k[Delta] against
    # ``oracles.stanley_reisner``, which reads them off the complex by
    # Hochster's formula, for the seeded draw of 200 complexes.  Each
    # complex is analyzed at policy seeds 0 and 1.  The draw holds each
    # class the package labels a Stanley-Reisner ring with (its depth is
    # never 0)
    labels = {}
    for n, facets in stanley_reisner_draw():
        want = stanley_reisner(facets)
        labels[want[2]] = labels.get(want[2], 0) + 1
        for seed in (0, 1):
            I, pol = stanley_reisner_ideal(n, facets), policy(seed)
            got = (dimension(I), generic.depth(I, pol), classify_cm(I, pol).label, multiplicity(I))
            assert got == want, (n, facets, seed)
    assert labels == {CM: 127, ALMOST_CM: 46, NEITHER: 27}


def test_stanley_reisner_rings_pass_the_verify_probes():
    # the ``verify`` targets on the seeded draw at policy seed 0, with the
    # dimension and depth of ``oracles.stanley_reisner``: Wnm passes on the
    # 173 CM and almost-CM complexes; on the 27 with 0 < depth < dim - 1,
    # ``recover_depth`` gives the oracle's depth and Wnmt passes on all but
    # complex 17; multiplicity passes on all 200.  Complex 17, n = 6 and
    # I = x1 (x2, x3 x5, x4 x5, x4 x6, x5 x6) of dimension 5 and depth 2,
    # is a known failure, kept in the draw: each of its 90 refinement cones
    # fails its constancy probe at policy seeds 0-3, and its 200 adjacent
    # pairs are distinct.  The split ideal x1 (x1, x2, x3^2, x3 x4) fails
    # all 30 of its cones the same way
    counts, wnmt_failures = Counter(), []
    for k, (n, facets) in enumerate(stanley_reisner_draw()):
        m, t = stanley_reisner(facets)[:2]
        I, pol = stanley_reisner_ideal(n, facets), policy()
        fan = "Wnm" if t >= m - 1 else "Wnmt"
        if fan == "Wnmt":
            assert recover_depth(I, pol) == t, (n, facets)
        for target in (fan, "multiplicity"):
            _, report = cli.cmd_verify(I, pol, SimpleNamespace(target=target))
            counts[target] += 1
            if target == "Wnmt" and not report["passed"]:
                wnmt_failures.append(k)
                probes = Counter((p["kind"], p["result"]) for p in report["probes"])
                assert probes == {("cone_constancy", False): 90,
                                  ("adjacent_pair_distinct", True): 200}, (n, facets)
            else:
                assert report["passed"], (target, n, facets)
    assert counts == {"Wnm": 173, "Wnmt": 27, "multiplicity": 200} and wnmt_failures == [17]


def test_stanley_reisner_tropical_varieties_are_the_oracle_skeleta():
    # the generic tropical variety of an m-dimensional ideal in n variables
    # is W_{n,m}, the weights whose minimum is attained at least n-m+1
    # times.  On each complex of the seeded draw, with m from
    # ``oracles.stanley_reisner``, ``tropical_member`` must say so at three
    # grid weights of [-2, 2]^n: the minimum attained n-m+1 times (in
    # W_{n,m}), n-m times (outside it) and a drawn number of times
    rng = random.Random("stanley-reisner:tropical")
    for n, facets in stanley_reisner_draw():
        m = stanley_reisner(facets)[0]
        I = stanley_reisner_ideal(n, facets)
        for ties in (n - m + 1, n - m, rng.randint(1, n)):
            low = rng.randint(-2, 1)
            w = [low] * ties + [rng.randint(low + 1, 2) for _ in range(n - ties)]
            rng.shuffle(w)
            assert tropical_member(I, tuple(w), policy()) == (ties >= n - m + 1), (n, facets, w)
