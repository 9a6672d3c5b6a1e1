"""Metamorphic report suite: rewriting an ideal's presentation in ways that
keep the ideal, or move it by a coordinate change, must keep every
invariant the reports print.

Each of 12 seeded ideals is compared with four variants of itself: its
coordinates permuted, its generators shuffled and rescaled, one redundant
generator added, and an integer change of coordinates with determinant +-1.
Dimension, depth, multiplicity, the CM label and the generic initial ideal
do not depend on coordinates, and neither does the generic tropical variety;
a weight is permuted along with the coordinates of a permuted ideal.
"""

import random

import pytest

from gentrop.fans import interior_point, maximal_cones
from gentrop.generic import Transform, _det_int, apply_transform, classify_cm, depth, gin, tropical_member
from gentrop.groebner import Ideal
from gentrop.invariants import dimension, multiplicity
from gentrop.poly import Polynomial

from cases import policy, product_family, random_graded_ideal, split_fan_ideal, stable_depth_family

IDEALS = {
    "split": split_fan_ideal,
    "stable-5-3-1": lambda: stable_depth_family(5, 3, 1),
    "stable-6-4-2": lambda: stable_depth_family(6, 4, 2),
    "product-5-2": lambda: product_family(5, 2),
    **{
        f"random-{n}-{seed}": (lambda n=n, seed=seed: random_graded_ideal(n, seed))
        for n in (4, 5)
        for seed in range(4)
    },
}


def _permuted(I, rng):
    """I with x_i renamed x_{perm[i]}, and the map it applies to a weight."""
    perm = list(range(I.n))
    rng.shuffle(perm)

    def move(e):
        out = [0] * I.n
        for i, x in enumerate(e):
            out[perm[i]] = x
        return tuple(out)

    gens = [Polynomial(I.n, [(move(e), c) for e, c in g.terms]) for g in I.generators]
    return Ideal(I.n, gens), move


def _shuffled_and_scaled(I, rng):
    gens = [g * rng.choice([-3, -2, -1, 2, 5, 7]) for g in I.generators]
    rng.shuffle(gens)
    return Ideal(I.n, gens)


def _with_redundant_generator(I, rng):
    """I with one more generator: an integer combination of generators of
    one degree if two share it, else a variable times a generator."""
    gens = list(I.generators)
    by_degree = {}
    for g in gens:
        by_degree.setdefault(g.degree, []).append(g)
    same = next((gs for gs in by_degree.values() if len(gs) > 1), None)
    if same is not None:
        extra = sum((g * rng.choice([-2, -1, 1, 3]) for g in same), Polynomial.zero(I.n))
    else:
        extra = Polynomial.variable(I.n, rng.randrange(I.n) + 1) * rng.choice(gens)
    assert extra
    gens.insert(rng.randrange(len(gens) + 1), extra)
    return Ideal(I.n, gens)


def _unimodular(n, rng):
    """A seeded integer matrix with entries in [-2, 2] and determinant +-1."""
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if abs(_det_int(rows)) == 1:
            return rows


def _changed_coordinates(I, rng):
    # a fresh ideal of the images, so nothing memoized on I is shared
    J = apply_transform(I, Transform(_unimodular(I.n, rng)))
    return Ideal(I.n, J.generators)


def _report(I, pol, weights):
    return {
        "dimension": dimension(I),
        "depth": depth(I, pol),
        "multiplicity": multiplicity(I),
        "label": classify_cm(I, pol).label,
        "gin": sorted(gin(I, pol).generators),
        "tropical": [tropical_member(I, w, pol) for w in weights],
    }


@pytest.mark.parametrize("name", sorted(IDEALS))
def test_presentation_and_coordinates_keep_the_report(name):
    I = IDEALS[name]()
    rng = random.Random(f"metamorphic:{name}")
    pol = policy()
    # a point of each skeleton next to the variety's dimension, and one at random
    m = dimension(I)
    weights = [interior_point(rng.choice(maximal_cones(I.n, k)), 2) for k in (m, m + 1)]
    weights.append(tuple(rng.randrange(3) for _ in range(I.n)))
    want = _report(I, pol, weights)
    P, move = _permuted(I, rng)
    assert _report(P, pol, [move(w) for w in weights]) == want, "permuted"
    for variant in (_shuffled_and_scaled, _with_redundant_generator, _changed_coordinates):
        assert _report(variant(I, rng), pol, weights) == want, variant.__name__
