import random
from fractions import Fraction
from itertools import product
from operator import mul

import pytest

from gentrop.poly import (
    GREVLEX,
    OrderSpec,
    ParseError,
    Polynomial,
    format_polynomial,
    initial_form,
    initial_terms,
    normalize_weight,
    parse_polynomial,
)

import oracles
from cases import P


def lead(order, f):
    """The exponents of the term of f that ranks highest under ``order``."""
    key = order.key_function(f.n, f.degree)
    return max((e for e, _ in f.terms), key=key)


def test_compare_grevlex_examples():
    # x2^2 vs x1*x3: rightmost difference decides
    key = GREVLEX.key_function(3, 2)
    assert key((0, 2, 0)) > key((1, 0, 1))
    assert GREVLEX.key_function(2, 2)((1, 1)) == GREVLEX.key_function(2, 2)((1, 1))
    # weight refinement: smaller weight ranks higher
    refined = GREVLEX.refine((0, 0, 1)).key_function(3, 1)
    assert refined((0, 1, 0)) > refined((0, 0, 1))


def test_compare_is_strict_total_and_multiplicative():
    rng = random.Random(1)
    orders = [
        GREVLEX,
        GREVLEX.refine((0, 1, 0)),
        GREVLEX.refine((-2, Fraction(1, 3), 5)),
        GREVLEX.refine((1, 0, 2)),
    ]
    for order in orders:
        key = order.key_function(3, 8)
        for _ in range(200):
            a = tuple(rng.randint(0, 4) for _ in range(3))
            b = tuple(rng.randint(0, 4) for _ in range(3))
            c = tuple(rng.randint(0, 4) for _ in range(3))
            # strict: equal keys only for equal monomials
            assert (key(a) == key(b)) == (a == b)
            if key(a) > key(b) and key(b) > key(c):
                assert key(a) > key(c)
            shift = tuple(x + y for x, y in zip(a, c))
            shift2 = tuple(x + y for x, y in zip(b, c))
            assert (key(shift) > key(shift2)) == (key(a) > key(b))


def _vector(rng, n, d):
    """A seeded exponent vector of total degree d."""
    cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))


def test_integer_key_ranks_like_the_tuple_definition():
    # the integer key must rank every pair of exponent vectors within its
    # degree bound exactly as the order's tuple definition does, also at
    # total degree exactly the bound and at field-width boundaries
    rng = random.Random(41)
    for n in range(1, 5):
        weights = [
            (0,) * n, (3,) * n, tuple(range(n)), tuple(-x for x in range(n)),
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)),
            (10**15,) + tuple(rng.randint(-10**12, 10**12) for _ in range(n - 1)),
            tuple(rng.choice((-1, 0, 1)) * Fraction(10**9, 7) for _ in range(n)),
        ]
        for order in [GREVLEX] + [GREVLEX.refine(w) for w in weights]:
            ref = oracles.order_key(order, n)
            for bound in (0, 1, 7, 8, 40):
                key = order.key_function(n, bound)
                vecs = [_vector(rng, n, bound) for _ in range(5)]
                vecs += [_vector(rng, n, rng.randint(0, bound)) for _ in range(5)]
                vecs += [(bound,) + (0,) * (n - 1), (0,) * (n - 1) + (bound,)]
                ranked = [(key(a), ref(a), a) for a in vecs]
                assert all(type(k) is int for k, _, _ in ranked)
                for ka, ta, a in ranked:
                    for kb, tb, b in ranked:
                        assert (ka > kb) == (ta > tb) and (ka == kb) == (a == b), (
                            order, bound, a, b)


def test_terms_are_sorted_by_the_grevlex_definition():
    rng = random.Random(43)
    for n in range(1, 5):
        ref = oracles.order_key(GREVLEX, n)
        for _ in range(20):
            f = Polynomial(n, {_vector(rng, n, rng.randint(0, 9)): rng.randint(-3, 3) for _ in range(6)})
            exps = [e for e, _ in f.terms]
            assert exps == sorted(exps, key=ref, reverse=True)


def test_initial_form_examples():
    f = P("x1 + x2 + x3", 3)
    assert initial_form((0, 0, 1), f) == P("x1 + x2", 3)
    assert initial_form((0, 0, 0), f) == f
    g = P("x1^2 + x1*x2", 4)
    assert initial_form((0, 0, 1, 1), g) == g
    with pytest.raises(ValueError):
        initial_form((0, 0, 0), Polynomial.zero(3))


def test_initial_form_scaling_and_shift_invariance():
    rng = random.Random(3)
    mons = [e for e in product(range(4), repeat=3) if sum(e) == 3]
    for _ in range(50):
        f = Polynomial(3, {e: rng.randint(-3, 3) for e in rng.sample(mons, 4)})
        if not f:
            continue
        w = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        lam = Fraction(rng.randint(1, 5))
        c = Fraction(rng.randint(-4, 4))
        w2 = tuple(lam * x + c for x in w)
        assert initial_form(w, f) == initial_form(w2, f)


def test_initial_form_fraction_weights_match_scaled_integers():
    rng = random.Random(7)
    mons = [e for e in product(range(5), repeat=3) if sum(e) == 4]
    for _ in range(50):
        f = Polynomial(3, {e: rng.randint(1, 3) for e in rng.sample(mons, 5)})
        den = rng.randint(2, 6)
        # the first entry is an int in ``mixed``, the others mostly Fractions
        ints = (den * rng.randint(0, 3),) + tuple(rng.randint(0, 3 * den) for _ in range(2))
        fracs = tuple(Fraction(x, den) for x in ints)
        mixed = tuple(x // den if x % den == 0 else Fraction(x, den) for x in ints)
        want = initial_form(ints, f)
        assert initial_form(fracs, f) == want
        assert initial_form(mixed, f) == want
        assert initial_terms(fracs, f.terms) == want.terms
        assert initial_terms(ints, f.terms) == want.terms
        for e, _ in f.terms:
            assert sum(map(mul, mixed, e)) * den == sum(map(mul, ints, e))


def test_initial_form_length_mismatch():
    f = P("x1 + x2 + x3", 3)
    with pytest.raises(ValueError):
        initial_form((0, 1), f)
    with pytest.raises(ValueError):
        initial_form((0, 1, Fraction(1, 2), 0), f)


def test_leading_term_examples():
    f = P("x1 + x2", 2)
    assert lead(GREVLEX, f) == (1, 0)
    refined = GREVLEX.refine((1, 0))
    assert lead(refined, f) == (0, 1)
    g = P("5*x1^2 + x1*x2", 2)
    assert lead(GREVLEX, g) == (2, 0)


def test_leading_term_lies_in_initial_form():
    rng = random.Random(5)
    mons = [e for e in product(range(4), repeat=3) if sum(e) == 3]
    for _ in range(50):
        f = Polynomial(3, {e: rng.randint(-3, 3) for e in rng.sample(mons, 5)})
        if not f:
            continue
        w = tuple(rng.randint(0, 3) for _ in range(3))
        lm = lead(GREVLEX.refine(w), f)
        assert lm in {e for e, _ in initial_form(w, f).terms}


def test_arithmetic_examples():
    f, g = P("x1 + x2", 2), P("x1 - x2", 2)
    assert f * g == P("x1^2 - x2^2", 2)
    assert f + (-1) * f == Polynomial.zero(2)
    assert -g == P("x2 - x1", 2) and -Polynomial.zero(2) == Polynomial.zero(2)
    assert f**2 == P("x1^2 + 2*x1*x2 + x2^2", 2)


def test_ring_axioms_random():
    rng = random.Random(7)
    mons = [e for e in product(range(3), repeat=2)]

    def rand_poly():
        return Polynomial(2, {e: rng.randint(-3, 3) for e in rng.sample(mons, 3)})

    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


def test_normalize_weight():
    assert normalize_weight((Fraction(1, 2), Fraction(3, 2), Fraction(1, 2)), 3) == (0, 1, 0)
    assert normalize_weight((-1, 0, 1), 3) == (0, 1, 2)
    assert normalize_weight((2, 2), 2) == (0, 0)
    assert normalize_weight((0, 0, 0), 3) == (0, 0, 0)
    assert normalize_weight((0.5, 1.5, 0.25), 3) == (1, 5, 0)
    assert normalize_weight((Fraction(2, 3), 0.5, 2), 3) == (1, 0, 9)
    assert normalize_weight((1.5, 1.5), 2) == (0, 0)
    with pytest.raises(ValueError):
        normalize_weight((1, 2), 3)


def test_parse_and_format_roundtrip():
    texts = [
        "2*x1^2*x3 - 1/3*x2^3",
        "x1 + x2 + x3",
        "-x1^4",
        "5",
        "x1*x1*x2",
    ]
    for t in texts:
        f = parse_polynomial(t, 3)
        assert parse_polynomial(format_polynomial(f), 3) == f


def test_parse_roundtrip_random():
    rng = random.Random(11)
    mons = [e for e in product(range(4), repeat=3)]
    for _ in range(50):
        f = Polynomial(
            3,
            {
                e: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for e in rng.sample(mons, 5)
            },
        )
        assert parse_polynomial(format_polynomial(f), 3) == f


def test_parse_errors():
    for bad in ["", "x0", "x4", "x1^", "1//2", "y1", "x1**2", "2x1"]:
        with pytest.raises(ParseError):
            parse_polynomial(bad, 3)
    # the tokenizer leaves no empty term, and every factor of a term is a
    # coefficient, a variable or an error
    for bad in ["x1+", "+", "--x1"]:
        with pytest.raises(ParseError, match="^cannot tokenize "):
            parse_polynomial(bad, 3)
    for bad in ["*", "x1**x2", "2*", "*x1"]:
        with pytest.raises(ParseError, match="^bad factor '' in "):
            parse_polynomial(bad, 3)
    with pytest.raises(ParseError, match="zero denominator"):
        parse_polynomial("1/0*x1", 3)


def test_polynomial_invariants():
    f = P("x1 + x1 + x2 - x2", 2)
    assert f == P("2*x1", 2)
    assert Polynomial(2, {(1, 0): Fraction(0)}).is_zero()
    # repeated exponents in a term list are summed, and may cancel
    assert Polynomial(2, [((1, 0), 2), ((0, 1), 1), ((1, 0), 3)]) == P("5*x1 + x2", 2)
    assert Polynomial(2, [((1, 0), 2), ((1, 0), -2)]).is_zero()
    assert P("x1^2 + x2^2", 2).is_homogeneous()
    assert not P("x1^2 + x2", 2).is_homogeneous()
    assert P("x1*x2", 2).degree == 2
    assert Polynomial.zero(2).degree is None
    assert format_polynomial(Polynomial.zero(2)) == "0"
    assert repr(P("x1 - 2*x2", 2)) == "Polynomial(2, 'x1 - 2*x2')"
    with pytest.raises(ValueError, match="at least one variable"):
        Polynomial(0)
    with pytest.raises(ValueError, match="out of range"):
        Polynomial.variable(2, 3)
    with pytest.raises(ValueError, match="negative power"):
        P("x1", 2) ** -1
    for op in ("__add__", "__sub__", "__mul__"):
        with pytest.raises(ValueError, match="variable counts differ"):
            getattr(P("x1", 2), op)(P("x1", 3))


def test_order_spec_validation():
    # every order is grevlex, refined by at most a weight
    assert OrderSpec._fields == ("weight",) and GREVLEX == OrderSpec()
    with pytest.raises(ValueError):
        GREVLEX.refine((1, 2)).key_function(3, 1)
