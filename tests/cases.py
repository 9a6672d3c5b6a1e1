"""Shared ideals and helpers for the test suite."""

from __future__ import annotations

import random
from itertools import combinations, product

from gentrop import generic, groebner
from gentrop.groebner import DEFAULT_DEGREE_CAP, Ideal
from gentrop.generic import GenericityPolicy, identity_policy
from gentrop.poly import Polynomial, parse_polynomial


def P(text: str, n: int) -> Polynomial:
    return parse_polynomial(text, n)


def ideal(n: int, *gens: str, degree_cap: int = DEFAULT_DEGREE_CAP) -> Ideal:
    return Ideal(n, [parse_polynomial(g, n) for g in gens], degree_cap)


def policy(seed: int = 0, samples: int = 2, bound: int = 1000) -> GenericityPolicy:
    return GenericityPolicy(samples=samples, bound=bound, seed=seed)


def stable_depth_family(n: int, m: int, t: int) -> Ideal:
    """Strongly stable ideal with dimension m and depth t (0 < t < m-1):
    variables x1..x_{n-m-1}, then x_{n-m} times x_{n-m}..x_{n-t}."""
    if not 0 < t < m - 1 < n - 1:
        raise AssertionError(f"need 0 < t < m - 1 < n - 1, got n={n}, m={m}, t={t}")
    gens = [f"x{i}" for i in range(1, n - m)]
    gens.append(f"x{n - m}^2")
    gens += [f"x{n - m}*x{j}" for j in range(n - m + 1, n - t + 1)]
    return ideal(n, *gens)


def split_fan_ideal() -> Ideal:
    """Strongly stable, dim 4, depth 1 in 5 variables; its generic tropical
    fan strictly refines the depth-1 refinement fan (every maximal cone
    splits in two)."""
    return ideal(5, "x1^2", "x1*x2", "x1*x3^2", "x1*x3*x4")


def product_family(n: int, k: int) -> Ideal:
    """(x_i * (x1 + x2) : i <= k): dimension n-1, depth n-k, with a tropical
    variety that is a single cone independent of k."""
    return Ideal(n, [P(f"x{i}*x1 + x{i}*x2", n) for i in range(1, k + 1)])


def smooth_quadric4() -> Ideal:
    return ideal(4, "x1*x2 + x3*x4")


def codim2_complete_intersection() -> Ideal:
    return ideal(4, "x1^2 + x2^2 + x3^2 + x4^2", "x1*x2 + x3*x4")


def dense_form(n: int, degree: int, seed: int) -> Polynomial:
    """Seeded dense homogeneous form with small nonzero integer coefficients."""
    rng = random.Random(f"dense:{n}:{degree}:{seed}")
    terms = {}
    for e in product(range(degree + 1), repeat=n):
        if sum(e) == degree:
            c = 0
            while c == 0:
                c = rng.randint(-5, 5)
            terms[e] = c
    return Polynomial(n, terms)


def random_graded_ideal(n: int, seed: int, gens: int = 2, max_degree: int = 3,
                        terms_per_gen: int = 4) -> Ideal:
    """Seeded sparse random homogeneous ideal for property tests."""
    rng = random.Random(f"ideal:{n}:{seed}")
    out = []
    for _ in range(gens):
        d = rng.randint(2, max_degree)
        mons = [e for e in product(range(d + 1), repeat=n) if sum(e) == d]
        chosen = rng.sample(mons, min(terms_per_gen, len(mons)))
        poly = Polynomial(n, {e: rng.randint(-4, 4) or 1 for e in chosen})
        if poly:
            out.append(poly)
    if not out:
        out = [P("x1^2", n)]
    return Ideal(n, out)


def seeded_ideals(sparse: int, dense: int) -> list:
    """Seeded ideals in 3 and 4 variables: ``sparse`` random_graded_ideals of
    each size, then ``dense`` pairs of dense forms of each size."""
    out = [random_graded_ideal(n, seed, gens=2 + seed % 3)
           for n in (3, 4) for seed in range(sparse)]
    for seed in range(dense):
        out.append(Ideal(3, [dense_form(3, 2, seed), dense_form(3, 3, seed)]))
        out.append(Ideal(4, [dense_form(4, 2, seed), dense_form(4, 2, seed + 1)]))
    return out


def stanley_reisner_ideal(n: int, facets) -> Ideal:
    """The Stanley-Reisner ideal of the simplicial complex on n vertices
    with these facets (vertex sets): one squarefree monomial per minimal
    non-face, a vertex set in no facet each of whose subsets one smaller is
    in one."""
    facets = [set(F) for F in facets]

    def face(S) -> bool:
        return any(set(S) <= F for F in facets)

    non_faces = [S for k in range(1, n + 1) for S in combinations(range(1, n + 1), k)
                 if not face(S) and all(face(S[:i] + S[i + 1:]) for i in range(k))]
    return Ideal(n, [{tuple(int(v in S) for v in range(1, n + 1)): 1} for S in non_faces])


def stanley_reisner_draw() -> list:
    """(n, facets) of 200 seeded complexes on 4-6 vertices: two to five
    facets each, all of one size (pure) or of sizes drawn apart, so some
    vertices lie in no face."""
    rng = random.Random("stanley-reisner")
    draw = []
    for _ in range(200):
        n = rng.randint(4, 6)
        size = rng.randint(2, n - 2) if rng.random() < 0.5 else None
        draw.append((n, [rng.sample(range(1, n + 1), size or rng.randint(1, n - 1))
                         for _ in range(rng.randint(2, 5))]))
    return draw


def _counting(monkeypatch, name: str, module=groebner, record=None) -> list:
    """Patch the function ``<module>.<name>`` (an engine function by
    default) to record each call, as ``record(args)`` (a list of the
    arguments, which it may rewrite) or as 1; returns the record."""
    calls = []
    f = getattr(module, name)

    def counting(*args):
        args = list(args)
        calls.append(1 if record is None else record(args))
        return f(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def counting_engine(monkeypatch) -> list:
    """Record each Buchberger engine run."""
    return _counting(monkeypatch, "_buchberger_dicts")


def counting_engine_variables(monkeypatch) -> list:
    """Record the variable count of each Buchberger engine run: n for a run
    on an ideal in n variables."""
    def variables(args):
        args[0] = gens = list(args[0])
        return len(next(iter(gens[0])))

    return _counting(monkeypatch, "_buchberger_dicts", record=variables)


def counting_engine_inputs(monkeypatch) -> list:
    """Record the polynomials each Buchberger engine run enters, as a
    frozenset of their term sets, comparable with an ideal's forms."""
    def inputs(args):
        args[0] = gens = list(args[0])
        return frozenset(frozenset(g.items()) for g in gens)

    return _counting(monkeypatch, "_buchberger_dicts", record=inputs)


def counting_walks(monkeypatch) -> list:
    """Record each saturation walk (``_saturation``), which
    ``contains_monomial`` takes when the trace check certifies nothing."""
    return _counting(monkeypatch, "_saturation")


def counting_trace_checks(monkeypatch) -> list:
    """Record each trace check (``_trace_certifies``) that
    ``contains_monomial`` asks before it walks a saturation."""
    return _counting(monkeypatch, "_trace_certifies")


def counting_orders(monkeypatch) -> list:
    """Record the (ideal, order) of each ``buchberger`` call inside the
    engine, order None for the default."""
    return _counting(monkeypatch, "buchberger",
                     record=lambda args: (args[0], args[1] if len(args) > 1 else None))


def counting_spairs(monkeypatch) -> list:
    """Record each s-pair normal form a run forms."""
    return _counting(monkeypatch, "_spair_poly")


def counting_normal_forms(monkeypatch) -> list:
    """Record each engine division (``_nf_dict``): generator entries,
    s-pairs and tail reductions."""
    return _counting(monkeypatch, "_nf_dict")


def counting_cone_hits(monkeypatch) -> list:
    """Record each Groebner-cone lookup (``_cone_hit``): every basis that a
    new order asks of the cache before it runs or reuses one."""
    return _counting(monkeypatch, "_cone_hit")


def counting_resorts(monkeypatch) -> list:
    """Record each cached basis a Groebner-cone lookup asks (``_resorted``):
    one call per candidate tried."""
    return _counting(monkeypatch, "_resorted")


def counting_gins(monkeypatch) -> list:
    """Record each leading-monomial ideal ``generic.gin`` reads off a
    transformed ideal: one per transform each time it is called."""
    return _counting(monkeypatch, "monomial_ideal_of", generic)


def counting_initial_ideals(monkeypatch) -> list:
    """Record each weighted initial ideal ``generic`` builds (its calls of
    ``initial_ideal``)."""
    return _counting(monkeypatch, "initial_ideal", generic)


def counting_hilbert_numerators(monkeypatch) -> list:
    """Record each Hilbert numerator the engine computes: the Hilbert checks
    of runs with a target and the numerators read from cached leads."""
    return _counting(monkeypatch, "hilbert_numerator")


IDENTITY = identity_policy
