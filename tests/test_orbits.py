"""One fan probe per symmetry orbit, and one tropical-membership answer per
permutation orbit of weights: the orbit paths against the per-cone loops and
the per-weight oracle, the permutation identity behind them, the orbit keys,
and the work they save."""

import random
from argparse import Namespace
from itertools import permutations

import pytest

from gentrop import cli, generic, tropmult
from gentrop.fans import (
    ConeId,
    adjacent_pairs,
    cone_orbit_key,
    maximal_cones,
    pair_orbit_key,
    refinement_maximal_cones,
)
from gentrop.generic import (
    CM,
    ALMOST_CM,
    GenericityFailure,
    GenericityPolicy,
    Transform,
    adjacent_distinct,
    cone_constancy,
    constancy_probes,
    gap_degree,
    identity_policy,
    random_transform,
    transformed,
    tropical_member,
)
from gentrop.groebner import Ideal
from gentrop.invariants import dimension
from gentrop.tropmult import intrinsic_multiplicity

from cases import (
    counting_engine,
    dense_form,
    ideal,
    policy,
    product_family,
    random_graded_ideal,
    split_fan_ideal,
    stable_depth_family,
)
from oracles import per_cone_constancy, per_cone_multiplicity, per_pair_distinct, per_weight_member


def coeff_growth_smallest(seed: int = 1) -> Ideal:
    """ci2 of the coeff-growth benchmark at workload ``seed``: two dense
    cubics in 4 variables.  Its forms take the 8th and 9th draws of the
    workload's stream (ci0 takes 2 forms and a CLI seed, ci1 3 and one)."""
    rng = random.Random(f"coeff-growth:{seed}")
    draws = [rng.randrange(10**6) for _ in range(9)]
    return Ideal(4, [dense_form(4, 3, draws[7]), dense_form(4, 3, draws[8])])


CASES = {
    "split": split_fan_ideal,
    "family": lambda: stable_depth_family(5, 3, 1),
    "quadric7": lambda: ideal(7, "x1*x2 + x3*x4"),
    "ci2": coeff_growth_smallest,
}


def as_json(probes) -> list:
    return [{"kind": p.kind, "cone": p.cone.to_json() if p.cone is not None else None,
             "result": p.result, "evidence": p.evidence, "detail": p.detail} for p in probes]


@pytest.mark.parametrize("name", sorted(CASES))
def test_orbit_probes_match_the_per_cone_oracle(name):
    # at policy seeds 0-5, the probe lists of analyze and of verify Wnm,
    # Wnmt and multiplicity, which probe one cone or pair per orbit, equal
    # those of the per-cone loops on a fresh copy of the ideal
    make = CASES[name]
    for seed in range(6):
        pol = policy(seed=seed)
        I, fresh = make(), make()
        n, m = I.n, dimension(I)
        t = generic.depth(I, pol)
        refined = 0 < t < m - 1

        _, report = cli.cmd_analyze(I, pol, Namespace(points=3))
        if report["cm_class"] in (CM, ALMOST_CM):
            assert report["probes"] == as_json(per_cone_constancy(fresh, maximal_cones(n, m), 3, pol))
        else:
            assert [p["kind"] for p in report["probes"]] == ["separating_witness"]

        def verify(target):
            return cli.cmd_verify(I, pol, Namespace(target=target, points=3))[1]["probes"]

        assert verify("Wnm") == as_json(per_cone_constancy(fresh, maximal_cones(n, m), 3, pol))
        if refined:
            want = per_cone_constancy(fresh, refinement_maximal_cones(n, m, t), 3, pol)
            want += per_pair_distinct(fresh, adjacent_pairs(n, m, t), pol)
            assert verify("Wnmt") == as_json(want)
        cones = refinement_maximal_cones(n, m, t) if refined else maximal_cones(n, m)
        assert verify("multiplicity") == as_json(per_cone_multiplicity(fresh, cones, pol))


def increasing_on(blocks, onto) -> dict:
    """The permutation of 1..n that maps each of ``blocks`` onto the
    matching block of ``onto`` in increasing order."""
    s = {}
    for a, b in zip(blocks, onto):
        s.update(zip(sorted(a), sorted(b)))
    return s


def cone_blocks(c: ConeId) -> list:
    """min-set, middle, top and, for a skeleton cone, the rest."""
    return [c.min_set, c.middle, c.top, set(range(1, c.n + 1)) - c.min_set - c.middle - c.top]


def pair_blocks(c: ConeId) -> list:
    """The min-set and its complement."""
    return [c.min_set, set(range(1, c.n + 1)) - c.min_set]


def moved(c: ConeId, s: dict) -> ConeId:
    return ConeId(c.n, [s[i] for i in c.min_set], [s[i] for i in c.middle], [s[i] for i in c.top])


def permuted(g: Transform, s: dict) -> Transform:
    """P_s^T g, for P_s the matrix of the substitution x_i -> x_{s(i)}: so
    in_{s w}(g I) is the image under that substitution of in_w((P_s^T g) I)."""
    return Transform([g.matrix[s[i] - 1] for i in range(1, g.n + 1)])


def outcome(probe):
    try:
        return probe()
    except GenericityFailure:
        return GenericityFailure


# (ideal, bound and seed of two injected draws): small entries, so the
# draws are not generic and the answers vary along an orbit, while the
# generic initial ideal, which sets the gap, is valid for every permuted
# pair of draws
IDENTITY_CASES = [
    (lambda: stable_depth_family(5, 3, 1), 3, 51),
    (lambda: ideal(5, "x1*x2 + x3*x4", "x1*x5 - x2*x3 + x4^2"), 3, 8),
]


@pytest.mark.parametrize("make, bound, seed", IDENTITY_CASES)
def test_a_permuted_cone_is_the_cone_under_permuted_transforms(make, bound, seed):
    # for s increasing on each block of C, cone_constancy and
    # intrinsic_multiplicity at s C under injected (g1, g2) equal their
    # values at C under (P_s^T g1, P_s^T g2), on every cone of both fans
    I = make()
    n, m = I.n, dimension(I)
    gs = tuple(random_transform(n, GenericityPolicy(bound=bound, seed=seed), i) for i in range(2))
    pol = GenericityPolicy(transforms=gs)
    seen = set()
    for cones in (list(maximal_cones(n, m)), list(refinement_maximal_cones(n, m, 1))):
        c = cones[0]
        for d in cones:
            s = increasing_on(cone_blocks(c), cone_blocks(d))
            assert moved(c, s) == d
            permuted_pol = GenericityPolicy(transforms=tuple(permuted(g, s) for g in gs))
            assert gap_degree(I, permuted_pol) == gap_degree(I, pol)
            here = outcome(lambda: cone_constancy(I, d, 3, pol))
            assert here == outcome(lambda: cone_constancy(I, c, 3, permuted_pol)), d
            here_m = outcome(lambda: intrinsic_multiplicity(I, d, pol)[1:])
            assert here_m == outcome(lambda: intrinsic_multiplicity(I, c, permuted_pol)[1:]), d
            seen.add((here, here_m))
    # the draws are not generic: the answers vary along an orbit
    assert len(seen) > 1


def test_a_permuted_pair_is_the_pair_under_permuted_transforms():
    # for pairs with one orbit key, adjacent_distinct at (s c1, s c2)
    # under injected draws equals its value at (c1, c2) under the permuted
    # draws, for s increasing on the min-set and on its complement
    I = stable_depth_family(5, 3, 1)
    n, m = I.n, dimension(I)
    gs = tuple(random_transform(n, GenericityPolicy(bound=3, seed=7), i) for i in range(2))
    pol = GenericityPolicy(transforms=gs)
    firsts = {}
    seen = set()
    for d1, d2 in adjacent_pairs(n, m, 1):
        c1, c2 = firsts.setdefault(pair_orbit_key((d1, d2)), (d1, d2))
        s = increasing_on(pair_blocks(c1), pair_blocks(d1))
        assert (moved(c1, s), moved(c2, s)) == (d1, d2)
        permuted_pol = GenericityPolicy(transforms=tuple(permuted(g, s) for g in gs))
        here = outcome(lambda: adjacent_distinct(I, d1, d2, pol))
        assert here == outcome(lambda: adjacent_distinct(I, c1, c2, permuted_pol)), (d1, d2)
        seen.add(here)
    # the 10 pairs form one orbit, and the answers vary along it
    assert len(firsts) == 1 and len(seen) > 1


def test_pair_keys_tell_patterns_apart():
    # t = 2 (n = 7, m = 5): along the complement (4, 5, 6, 7) of the
    # min-set {1, 2, 3}, the pairs of tops ({4, 5}, {4, 6}) and
    # ({4, 5}, {5, 6}) share one coordinate each, but no permutation
    # increasing on every block maps one pair onto the other
    n, m, t = 7, 5, 2
    a = frozenset({1, 2, 3})
    rest = frozenset({4, 5, 6, 7})

    def cone(top):
        return ConeId(n, a, rest - top, top)

    p = (cone({4, 5}), cone({4, 6}))
    q = (cone({4, 5}), cone({5, 6}))
    assert len(p[0].top & p[1].top) == len(q[0].top & q[1].top) == 1
    assert pair_orbit_key(p) != pair_orbit_key(q)
    # both are adjacent pairs of the fan, and the keys count its orbits:
    # one per pair of distinct tops among the C(4, 2) = 6
    pairs = list(adjacent_pairs(n, m, t))
    assert p in pairs and q in pairs
    assert len({pair_orbit_key(pair) for pair in pairs}) == 15
    assert {cone_orbit_key(c) for c in refinement_maximal_cones(n, m, t)} == {(3, 2, 2)}
    assert {cone_orbit_key(c) for c in maximal_cones(n, m)} == {(3, 0, 0)}


def counting_calls(monkeypatch, module, name, *also) -> list:
    """Record each call of ``module.name``, also where ``also`` imported it."""
    calls = []
    f = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return f(*args)

    for mod in (module, *also):
        monkeypatch.setattr(mod, name, counting)
    return calls


def test_injected_transforms_probe_every_cone(monkeypatch):
    # the orbit argument needs generic transforms: under injected ones
    # every cone and every pair is probed on its own, as by the per-cone
    # loops; under sampled ones, one cone or pair per orbit
    I = stable_depth_family(5, 3, 1)
    pol = GenericityPolicy(transforms=(random_transform(5, policy(), 0),))
    constancy = counting_calls(monkeypatch, generic, "cone_constancy")
    pairs = counting_calls(monkeypatch, generic, "adjacent_distinct", cli)
    mults = counting_calls(monkeypatch, tropmult, "intrinsic_multiplicity", cli)
    assert len(list(constancy_probes(I, maximal_cones(5, 3), 3, pol))) == len(constancy) == 10
    cli.cmd_verify(I, pol, Namespace(target="Wnmt", points=3))
    assert len(constancy) == 10 + 20 and len(pairs) == 10
    cli.cmd_verify(I, pol, Namespace(target="multiplicity", points=3))
    assert len(mults) == 20
    for calls in (constancy, pairs, mults):
        calls.clear()
    I = stable_depth_family(5, 3, 1)
    assert len(list(constancy_probes(I, maximal_cones(5, 3), 3, policy()))) == 10
    cli.cmd_verify(I, policy(), Namespace(target="Wnmt", points=3))
    cli.cmd_verify(I, policy(), Namespace(target="multiplicity", points=3))
    assert (len(constancy), len(pairs), len(mults)) == (2, 1, 1)


def fresh_copy(I: Ideal) -> Ideal:
    """An equal ideal that shares no memo with I."""
    return Ideal(I.n, map(dict, I.forms), I.degree_cap)


def moved_weight(w, s: dict) -> tuple:
    """s w: the entry of w at coordinate i moves to coordinate s(i)."""
    out = [None] * len(w)
    for i, x in enumerate(w, 1):
        out[s[i] - 1] = x
    return tuple(out)


def test_a_permuted_weight_is_the_weight_under_permuted_transforms():
    # membership of s w under an injected draw g equals membership of w
    # under P_s^T g, for every permutation s; the draw is not generic, so
    # the answers vary along the orbit
    I = ideal(5, "x1*x2 + x3*x4", "x1*x5 - x2*x3 + x4^2")
    g = random_transform(5, GenericityPolicy(bound=1, seed=0), 0)
    pol = GenericityPolicy(transforms=(g,))
    w = (0, 0, 1, 2, 3)
    seen = set()
    for perm in permutations(range(1, 6)):
        s = dict(zip(range(1, 6), perm))
        here = tropical_member(I, moved_weight(w, s), pol)
        assert here == tropical_member(I, w, GenericityPolicy(transforms=(permuted(g, s),))), perm
        seen.add(here)
    assert seen == {False, True}


# seeded ideals in 3, 4 and 5 variables
MEMBER_CASES = [
    lambda: random_graded_ideal(3, 0),
    lambda: random_graded_ideal(4, 1),
    lambda: Ideal(5, [dense_form(5, 2, 11), dense_form(5, 2, 12)]),
]


@pytest.mark.parametrize("make", MEMBER_CASES)
def test_point_queries_match_the_per_weight_oracle(make):
    # at policy seeds 0-5, every permutation of three seeded weights gets
    # the answer of the per-weight oracle on a fresh copy of the ideal, and
    # the one acceptance criterion 2 gives: the minimum attained at least
    # n - m + 1 times
    I = make()
    n, m = I.n, dimension(I)
    fresh = fresh_copy(I)
    rng = random.Random(f"orbit-member:{n}")
    weights = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(3)]
    weights[0] = (0,) * (n - m + 1) + tuple(range(1, m))
    for seed in range(6):
        pol = policy(seed=seed)
        for w in weights:
            for v in set(permutations(w)):
                want = v.count(min(v)) >= n - m + 1
                assert tropical_member(I, v, pol) == per_weight_member(fresh, v, pol) == want, v


def initial_weights(calls: list, I: Ideal, pol) -> set:
    """The weights at which the transformed ideals of I built initial
    ideals, read from the recorded ``initial_ideal`` calls."""
    index = {id(gI): k for k, gI in enumerate(transformed(I, pol))}
    return {(index[id(gI)], w) for gI, w in calls if id(gI) in index}


def test_point_query_answers_do_not_depend_on_the_history(monkeypatch):
    # a shuffled list of queries and its reverse, each on its own copy of
    # the ideal, give the same answers, the same memo keys, and build their
    # initial ideals at the same weights; on a third copy, a query at a
    # permutation of an answered weight makes no engine run
    I = Ideal(4, [dense_form(4, 2, 3), dense_form(4, 2, 4)])
    rng = random.Random("orbit-history")
    queries = [tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(12)]
    queries += [tuple(rng.sample(w, 4)) for w in queries]
    rng.shuffle(queries)
    pol = policy(seed=2)
    A, B = fresh_copy(I), fresh_copy(I)
    built = counting_calls(monkeypatch, generic, "initial_ideal")
    forward = [tropical_member(A, w, pol) for w in queries]
    backward = [tropical_member(B, w, pol) for w in reversed(queries)]
    assert forward == backward[::-1]
    assert set(A.members) == set(B.members)
    assert initial_weights(built, A, pol) == initial_weights(built, B, pol) != set()
    for w, member in ((0, 0, 0, 1), True), ((0, 1, 2, 3), False):
        C = fresh_copy(I)
        assert tropical_member(C, w, pol) == member
        runs = counting_engine(monkeypatch)
        for v in permutations(w):
            assert tropical_member(C, v, pol) == member
        assert not runs


def test_injected_transforms_answer_every_weight_on_its_own(monkeypatch):
    # identity answers differ along an orbit, so under injected transforms
    # w and a permutation of w each make their own engine run and keep
    # their own answers
    I = product_family(4, 2)
    idp = identity_policy(4)
    runs = counting_engine(monkeypatch)
    assert not tropical_member(I, (0, 1, 1, 2), idp)
    first = len(runs)
    assert tropical_member(I, (1, 1, 0, 2), idp)
    assert first > 0 and len(runs) > first
    runs.clear()
    assert not tropical_member(I, (0, 1, 1, 2), idp)
    assert tropical_member(I, (1, 1, 0, 2), idp)
    assert not runs
    assert set(I.members) == {(idp, (0, 1, 1, 2)), (idp, (1, 1, 0, 2))}
