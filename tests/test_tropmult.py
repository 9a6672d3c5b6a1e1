import json
import random
from fractions import Fraction

import pytest

from gentrop.fans import interior_points, maximal_cones, refinement_maximal_cones
from gentrop.generic import apply_transform, gap_degree, identity_policy, random_transform, transformed
from gentrop.groebner import Ideal, initial_ideal, is_unit_ideal, saturate
from gentrop.invariants import dimension, multiplicity
from gentrop.poly import Polynomial, UsageError
from gentrop.tropmult import (
    _in_convex_hull,
    edge_lattice_length,
    hypersurface_mc,
    intrinsic_multiplicity,
    newton_polytope,
    topdim_monomial_free,
)

from cases import (
    P,
    counting_engine,
    dense_form,
    ideal,
    policy,
    random_graded_ideal,
    smooth_quadric4,
    split_fan_ideal,
    stable_depth_family,
)


def test_topdim_monomial_free_examples():
    assert topdim_monomial_free(ideal(3, "x1 + x2"))
    assert not topdim_monomial_free(ideal(3, "x1"))
    assert not topdim_monomial_free(ideal(3, "x1*x2"))
    # (x1 + x2) * (x1, x3): only the lower-dimensional prime (x1, x3) holds
    # a monomial
    assert topdim_monomial_free(ideal(3, "x1^2 + x1*x2", "x1*x3 + x2*x3"))
    assert not topdim_monomial_free(ideal(3, "x1*x3", "x2*x3"))
    with pytest.raises(UsageError, match="zero ring"):
        topdim_monomial_free(ideal(3, "x1 + x2", "1"))


def _free_by_hyperplane_cuts(J: Ideal, m: int) -> bool:
    """Reference: a top-dimensional prime holding a monomial holds a
    variable, so it exists iff some coordinate hyperplane cut keeps
    dimension m."""
    for k in range(1, J.n + 1):
        Jk = Ideal(J.n, list(J.generators) + [Polynomial.variable(J.n, k)])
        if not is_unit_ideal(Jk) and dimension(Jk) >= m:
            return False
    return True


def test_topdim_monomial_free_matches_hyperplane_cuts():
    ideals = []
    for n in (3, 4):
        for seed in range(8):
            ideals.append(random_graded_ideal(n, seed, gens=2 + seed % 2))
        for seed in range(2):
            ideals.append(Ideal(n, [dense_form(n, 2, seed), dense_form(n, 3, seed)]))
    for I in list(ideals):
        for mono in ((1,), (1, 1)):
            f = Polynomial.monomial(I.n, mono + (0,) * (I.n - len(mono)))
            ideals.append(Ideal(I.n, [g * f for g in I.generators]))
    for I, fan in ((stable_depth_family(5, 3, 1), (5, 3, 1)), (split_fan_ideal(), (5, 4, 1))):
        for pol in (policy(), identity_policy(5)):
            gap = gap_degree(I, pol) + 1
            for cone in refinement_maximal_cones(*fan)[:4]:
                for w in interior_points(cone, gap, 2):
                    ideals += [initial_ideal(gI, w) for gI in transformed(I, pol)]
    outcomes = []
    for J in ideals:
        outcomes.append(topdim_monomial_free(J))
        assert outcomes[-1] == _free_by_hyperplane_cuts(J, dimension(J)), J.generators
    assert True in outcomes and False in outcomes


def test_multiplicity_probe_bounds_engine_runs(tmp_path, monkeypatch, capsys):
    # each cone reads monomial-freeness off the saturation it computes
    # anyway and builds no per-variable ideal: 191 runs at this seed
    from gentrop.cli import main

    runs = counting_engine(monkeypatch)
    path = tmp_path / "fam.ideal"
    path.write_text("ring 5\nx1\nx2^2\nx2*x3\nx2*x4\n", encoding="utf-8")
    assert main(["verify", str(path), "--target", "multiplicity", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    assert 0 < len(runs) <= 200


def test_intrinsic_multiplicity_quadric():
    pol = policy()
    q = smooth_quadric4()
    for cone in maximal_cones(4, 3):
        rep = intrinsic_multiplicity(q, cone, pol)
        assert rep.dim_initial == rep.dim_saturated == 3
        # the initial ideal shares the ideal's Hilbert series, so matching
        # dimension and multiplicity is monomial-freeness: no field holds it
        assert rep._fields == ("cone", "dim_initial", "dim_saturated", "m_saturated", "m_ideal")
        assert rep.m_saturated == rep.m_ideal == 2
        assert rep.matches


def test_intrinsic_multiplicity_family():
    pol = policy()
    fam = stable_depth_family(5, 3, 1)
    m_ideal = multiplicity(fam)
    for cone in refinement_maximal_cones(5, 3, 1)[:5]:
        rep = intrinsic_multiplicity(fam, cone, pol)
        assert rep.matches
        assert rep.m_saturated == m_ideal


def test_intrinsic_multiplicity_on_split_fan():
    # the probe point of a refinement cone is interior to some cone of the
    # finer tropical fan, so the multiplicity theorem holds even when the
    # refinement cone itself splits
    from cases import split_fan_ideal

    pol = policy()
    split = split_fan_ideal()
    for cone in refinement_maximal_cones(5, 4, 1)[:6]:
        rep = intrinsic_multiplicity(split, cone, pol)
        assert rep.matches and rep.m_saturated == 1


def test_saturation_idempotent_on_reports():
    pol = policy()
    q = smooth_quadric4()
    g = apply_transform(q, random_transform(4, pol, 0))
    from gentrop.groebner import initial_ideal
    from gentrop.fans import interior_point

    cone = maximal_cones(4, 3)[0]
    J = initial_ideal(g, interior_point(cone, 3))
    prod = Polynomial.monomial(4, (1, 1, 1, 1))
    S1 = saturate(J, prod)
    S2 = saturate(S1, prod)
    assert S1.generators == S2.generators


def test_hypersurface_mc_examples():
    n = 4
    x = [None] + [Polynomial.variable(n, i) for i in range(1, n + 1)]
    ell = x[1] + x[2]
    for k in (1, 2, 3):
        factors = [(x[i], 1) for i in range(1, k + 1)] + [(ell, 1)]
        assert hypersurface_mc(factors, (0,) * n) == 1
    assert hypersurface_mc([(ell, 3)], (0,) * n) == 3
    assert hypersurface_mc([(x[1], 2), (x[2], 1)], (0,) * n) == 0


def test_hypersurface_mc_validation():
    n = 3
    x1 = Polynomial.variable(n, 1)
    x2 = Polynomial.variable(n, 2)
    # x1 + x2 is not an initial form for a weight separating x1 from x2
    with pytest.raises(ValueError):
        hypersurface_mc([(x1 + x2, 1)], (0, 1, 0))
    # mismatched target polynomial
    with pytest.raises(ValueError):
        hypersurface_mc([(x1, 1)], (0, 0, 0), of=x1 + x2)
    # matching up to a scalar is accepted
    f = 5 * (x1 + x2) * (x1 + x2)
    assert hypersurface_mc([(x1 + x2, 2)], (0, 0, 0), of=f) == 2
    with pytest.raises(ValueError, match="empty factorization"):
        hypersurface_mc([], (0, 0, 0))
    for factors in ([(Polynomial.zero(n), 1)], [(x1, 0)], [(x1, 1), (x2, -1)]):
        with pytest.raises(ValueError, match="nonzero with positive exponents"):
            hypersurface_mc(factors, (0, 0, 0))


def test_hypersurface_mc_monomial_free_factor_increments():
    n = 3
    x1 = Polynomial.variable(n, 1)
    x2 = Polynomial.variable(n, 2)
    base = [(x1, 2), (x2, 3)]
    assert hypersurface_mc(base, (0, 0, 0)) == 0
    for e in (1, 2, 4):
        assert hypersurface_mc(base + [(x1 + x2, e)], (0, 0, 0)) == e


def test_in_convex_hull_exact():
    pts = [(0, 0), (2, 0), (0, 2)]
    assert _in_convex_hull((1, 1), pts)
    assert _in_convex_hull((0, 0), pts)
    assert not _in_convex_hull((2, 2), pts)
    assert not _in_convex_hull((-1, 0), pts)
    rng = random.Random(5)
    for _ in range(30):
        lam = [Fraction(rng.randint(0, 5)) for _ in pts]
        s = sum(lam)
        if s == 0:
            continue
        lam = [x / s for x in lam]
        q = tuple(sum(l * Fraction(p[i]) for l, p in zip(lam, pts)) for i in range(2))
        assert _in_convex_hull(q, pts)


def test_newton_polytope_examples():
    assert newton_polytope(P("x1*x2", 2)).vertices == ((1, 1),)
    assert newton_polytope(P("x1^2 + x1*x2 + x2^2", 2)).vertices == ((0, 2), (2, 0))
    f = P("x1^3 + x1^2*x2 + x1*x2*x3 + x3^3", 3)
    assert set(newton_polytope(f).vertices) == {(3, 0, 0), (2, 1, 0), (1, 1, 1), (0, 0, 3)}
    with pytest.raises(ValueError, match="zero polynomial"):
        newton_polytope(Polynomial.zero(2))
    assert newton_polytope(P("x8", 8)).vertices == ((0,) * 7 + (1,),)
    with pytest.raises(ValueError, match="at most 8 variables"):
        newton_polytope(P("x9", 9))


def test_newton_polytope_of_generic_form_is_scaled_simplex():
    pol = policy()
    for n, d in [(3, 2), (3, 3), (4, 2)]:
        f = dense_form(n, d, seed=1)
        g = random_transform(n, pol, 0)
        I = apply_transform(Ideal(n, [f]), g)
        got = newton_polytope(I.generators[0])
        want = {tuple(d if j == i else 0 for j in range(n)) for i in range(n)}
        assert set(got.vertices) == want


def test_edge_lattice_length():
    assert edge_lattice_length((3, 0), (0, 3)) == 3
    assert edge_lattice_length((1, 0), (0, 1)) == 1
    assert edge_lattice_length((0, 0), (2, 4)) == 2
    with pytest.raises(ValueError):
        edge_lattice_length((1, 1), (1, 1))
