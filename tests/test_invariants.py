import os
import random
import subprocess
import sys
import textwrap
from itertools import product

import pytest

from gentrop.invariants import (
    HilbertData,
    depth_of_stable,
    dimension,
    hilbert,
    is_strongly_stable,
    minimalize,
    monomial_dimension,
    monomial_ideal_of,
    multiplicity,
)
from gentrop.generic import depth
from gentrop.poly import GREVLEX, LEX, OrderSpec
from gentrop.groebner import hilbert_numerator, initial_ideal
import gentrop

import oracles
from cases import (
    ideal,
    policy,
    product_family,
    random_graded_ideal,
    seeded_ideals,
    split_fan_ideal,
    stable_depth_family,
)


def M(n, *gens):
    return minimalize(n, gens)


def test_minimalize_examples():
    assert M(2, (1, 0), (2, 0)).generators == ((1, 0),)
    incomparable = M(3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
    assert set(incomparable.generators) == {(1, 1, 0), (0, 1, 1), (1, 0, 1)}
    assert M(2, (2, 0), (2, 1)).generators == ((2, 0),)
    with pytest.raises(ValueError, match="empty generator list"):
        minimalize(2, [])


def test_monomial_ideal_of_examples():
    def gens(I):
        return sorted(str(p) for p in monomial_ideal_of(I).polynomials())

    assert gens(ideal(2, "x1 + x2")) == ["x1"]
    assert gens(ideal(2, "x1 + x2", "x1^2")) == ["x1", "x2^2"]
    assert gens(ideal(3, "x1*x2", "x3^2")) == ["x1*x2", "x3^2"]


def test_monomial_dimension_examples():
    n, m = 6, 2
    coords = M(n, *[tuple(1 if j == i else 0 for j in range(n)) for i in range(n - m)])
    assert monomial_dimension(coords) == m
    split = M(5, (2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 0, 2, 0, 0), (1, 0, 1, 1, 0))
    assert monomial_dimension(split) == 4
    assert monomial_dimension(M(2, (1, 1))) == 1
    # the coordinate ideal (x1..x20), the matching (x1*x2, x3*x4, .., x19*x20)
    # and the path (x1*x2, x2*x3, .., x20*x21) in 22 variables
    def mono(*idx):
        return tuple(int(i in idx) for i in range(22))

    assert monomial_dimension(M(22, *[mono(i) for i in range(20)])) == 2
    assert monomial_dimension(M(22, *[mono(2 * i, 2 * i + 1) for i in range(10)])) == 12
    assert monomial_dimension(M(22, *[mono(i, i + 1) for i in range(20)])) == 12
    with pytest.raises(ValueError):
        monomial_dimension(M(2, (0, 0)))


def test_dimension_examples():
    assert dimension(ideal(4, "x1 + x2", "x3^2")) == 2
    assert dimension(stable_depth_family(5, 3, 1)) == 3
    assert dimension(stable_depth_family(6, 4, 1)) == 4
    assert dimension(stable_depth_family(6, 4, 2)) == 4
    assert dimension(ideal(3, "x1^3 + x2^3 + x3^3")) == 2


def test_dimension_reads_the_hilbert_numerator():
    # the pole order of the memoized Hilbert series agrees with the least
    # cover of the grevlex leads, on seeded ideals and on weighted initial
    # ideals, which take the numerator over from their parent
    rng = random.Random(11)
    for I in seeded_ideals(12, 6):
        assert dimension(I) == monomial_dimension(monomial_ideal_of(I))
        J = initial_ideal(I, tuple(rng.randint(0, 3) for _ in range(I.n)))
        assert J.numerator is not None
        assert dimension(J) == monomial_dimension(monomial_ideal_of(J)) == dimension(I)
    with pytest.raises(ValueError, match="zero ring"):
        dimension(ideal(3, "x1*x2", "x3^2", "7"))


def test_hilbert_examples():
    # principal power: numerator 1 + t + ... + t^{d-1}
    h = hilbert(M(4, (3, 0, 0, 0)))
    assert h == HilbertData((1, 1, 1), 3, 3)
    # coordinate hyperplane ideal
    h = hilbert(M(3, (1, 0, 0), (0, 1, 0)))
    assert h == HilbertData((1,), 1, 1)
    # the square of the irrelevant ideal of two variables inside three
    h = hilbert(M(3, (2, 0, 0), (1, 1, 0), (0, 2, 0)))
    assert h == HilbertData((1, 2), 1, 3)


def test_hilbert_reconstructs_counts():
    rng = random.Random(21)
    exps = [e for e in product(range(4), repeat=4) if 0 < sum(e) <= 4]
    inputs = [minimalize(4, rng.sample(exps, rng.randint(1, 4))) for _ in range(12)]
    rng = random.Random(23)
    exps = [e for e in product(range(3), repeat=4) if 0 < sum(e) <= 4]
    inputs += [minimalize(4, rng.sample(exps, 3)) for _ in range(10)]
    for Mi in inputs:
        h = hilbert(Mi)
        want = oracles.standard_monomial_counts(Mi.generators, 4, 8)
        got = oracles.series_expansion(h.numerator, h.dim, 8)
        assert got == want
        assert sum(h.numerator) != 0
        assert h.dim == monomial_dimension(Mi)


def test_hilbert_numerator_matches_standard_monomial_counts():
    # seeded monomial ideals, given by redundant generating sets with
    # repeats as Buchberger's leads can be, the unit ideal and the zero
    # ideal among them.  The lcm of the generators has degree at most 8, so
    # the numerator does too, and the counts of degrees 0..8 determine it.
    rng = random.Random("hilbert-numerator")
    cases = [(3, []), (3, [(0, 0, 0), (1, 0, 0)])]
    for n, top in ((2, 4), (3, 2), (4, 2), (5, 1)):
        for _ in range(12):
            gens = [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(rng.randint(1, 6))]
            gens = [e for e in gens if any(e)] or [(top,) + (0,) * (n - 1)]
            gens += [tuple(min(top, x + rng.randint(0, 1)) for x in gens[0]), gens[-1]]
            cases.append((n, gens))
    for n, gens in cases:
        q = hilbert_numerator(n, gens)
        assert len(q) <= 9 and (q == (0,) or q[-1])
        assert list(q) + [0] * (9 - len(q)) == oracles.numerator_prefix(gens, n, 8), (n, gens)
    assert hilbert_numerator(3, []) == (1,)
    assert hilbert_numerator(3, [(0, 0, 0), (1, 0, 0)]) == (0,)


def test_multiplicity_examples():
    # hypersurface x1*...*xk*(x1+x2): multiplicity equals the degree k+1
    n = 4
    for k in range(0, 3):
        mono = "*".join(f"x{i}" for i in range(1, k + 1))
        text = f"{mono}*x1 + {mono}*x2" if k else "x1 + x2"
        assert multiplicity(ideal(n, text)) == k + 1
    # the non-principal product family keeps only the hyperplane component
    # in top dimension once k >= 2
    n = 4
    assert multiplicity(product_family(n, 1)) == 2
    for k in (2, 3, 4):
        assert multiplicity(product_family(n, k)) == 1
    assert multiplicity(ideal(3, "x1", "x2")) == 1
    assert multiplicity(ideal(3, "x1 + x2", "x1^2")) == 2


def test_multiplicity_order_invariance():
    for seed in range(4):
        I = random_graded_ideal(3, seed)
        h1 = hilbert(monomial_ideal_of(I, GREVLEX))
        h2 = hilbert(monomial_ideal_of(I, LEX))
        h3 = hilbert(monomial_ideal_of(I, OrderSpec("grevlex", (3, 1, 2))))
        assert h1.multiplicity == h2.multiplicity == h3.multiplicity
        assert h1.dim == h2.dim == h3.dim


def test_is_strongly_stable_examples():
    assert is_strongly_stable(M(2, (2, 0), (1, 1)))
    assert not is_strongly_stable(M(2, (0, 1)))
    assert is_strongly_stable(M(5, (2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 0, 2, 0, 0), (1, 0, 1, 1, 0)))
    # stability depends on the ordering
    assert is_strongly_stable(M(2, (0, 1)), perm=(2, 1))
    for perm in ((1, 1), (1,), (0, 1)):
        with pytest.raises(ValueError, match="permutation"):
            is_strongly_stable(M(2, (0, 1)), perm=perm)


def test_depth_of_stable_examples():
    fam = stable_depth_family(5, 3, 1)
    Mf = minimalize(5, [g.terms[0][0] for g in fam.generators])
    assert depth_of_stable(Mf) == 1
    assert depth_of_stable(M(5, (2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 0, 2, 0, 0), (1, 0, 1, 1, 0))) == 1
    assert depth_of_stable(M(4, (1, 0, 0, 0))) == 3
    with pytest.raises(ValueError):
        depth_of_stable(M(2, (0, 1)))


def test_depth_examples():
    pol = policy()
    # strongly stable ideals equal their own gin
    fam = stable_depth_family(5, 3, 1)
    assert depth(fam, pol) == 1
    # principal ideals are Cohen-Macaulay: depth n-1
    assert depth(ideal(3, "x1^2 + x2*x3 + x3^2"), pol) == 2
    assert depth(stable_depth_family(6, 4, 2), pol) == 2
    # the product family has depth n-k
    n = 4
    for k in (1, 2, 4):
        assert depth(product_family(n, k), pol) == n - k


def test_depth_bounded_by_dimension():
    rng = random.Random(31)
    exps = [e for e in product(range(3), repeat=4) if 0 < sum(e) <= 3]
    for _ in range(20):
        Mi = minimalize(4, rng.sample(exps, rng.randint(1, 3)))
        if is_strongly_stable(Mi):
            assert depth_of_stable(Mi) <= monomial_dimension(Mi)
    fam = minimalize(5, [(0, 2, 0, 0, 0), (0, 1, 1, 0, 0), (0, 1, 0, 1, 0), (1, 0, 0, 0, 0)])
    assert depth_of_stable(fam) <= monomial_dimension(fam)


def test_dimension_rejects_unit_ideal():
    with pytest.raises(ValueError):
        dimension(ideal(2, "5"))
    with pytest.raises(ValueError):
        multiplicity(ideal(2, "1"))


def test_gin_structure_constraints():
    # structure of the grevlex gin when depth and dimension are known:
    # generators live in the first n-t variables, one is divisible by
    # x_{n-t}, all are divisible by one of x_1..x_{n-m}, and a pure power
    # of x_{n-m} appears
    from gentrop.generic import gin

    pol = policy()
    for I, m_want, t_want in [
        (split_fan_ideal(), 4, 1),
        (stable_depth_family(5, 3, 1), 3, 1),
        (stable_depth_family(6, 4, 2), 4, 2),
    ]:
        n = I.n
        G = gin(I, GREVLEX, pol)
        m = dimension(I)
        assert m == m_want
        t = depth_of_stable(G)
        assert t == t_want
        for g in G.generators:
            assert any(g[i] > 0 for i in range(n - m)), g
            assert all(g[i] == 0 for i in range(n - t, n)), g
        assert any(g[n - t - 1] > 0 for g in G.generators)
        assert any(
            g[n - m - 1] > 0 and sum(g) == g[n - m - 1] for g in G.generators
        )


def test_invariant_checks_survive_optimize():
    # forced mismatches must raise under python -O, which strips asserts
    script = textwrap.dedent(
        """
        import sys
        import pytest
        from gentrop import invariants as inv

        M = inv.minimalize(2, [(1, 0)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inv, "monomial_dimension", lambda M: 0)
            with pytest.raises(RuntimeError, match="Hilbert dimension"):
                inv.hilbert(M)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inv, "monomial_dimension", lambda M: 2)
            mp.setattr(inv, "cancel_one_minus_t", lambda q, d: (q, d))
            with pytest.raises(RuntimeError, match="multiplicity"):
                inv.hilbert(M)
        print("checked", sys.flags.optimize)
        """
    )
    # src goes first on the caller's PYTHONPATH, which may be what provides pytest
    src = os.path.dirname(os.path.dirname(gentrop.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["checked", "1"]
