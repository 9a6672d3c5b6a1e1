"""Intrinsic multiplicities of maximal tropical cones, Newton polytopes and
lattice lengths.

The multiplicity of a cone is the multiplicity of the saturation S of its
weighted initial ideal J by the product of all variables.  S drops exactly
the associated primes of J that contain a variable and keeps the
localizations at the others, so by the associativity formula S is proper
with the dimension and multiplicity of J iff no top-dimensional minimal
prime of J contains a monomial.  e(S) is then the sum of localization
lengths over those primes when they are linear, which holds generically;
the report records that assumption via the monomial-freeness check rather
than verifying linearity (no primary decomposition here).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd

from .fans import ConeId, interior_point
from .generic import GenericityPolicy, agreed, gap_degree
from .groebner import Ideal, initial_ideal, is_unit_ideal, saturate
from .invariants import dimension, multiplicity
from .poly import Polynomial, initial_form


class MultiplicityReport(namedtuple(
    "MultiplicityReport",
    "cone dim_initial dim_saturated m_saturated m_ideal",
)):
    """Per-cone multiplicity evidence at a ConeId.

    ``matches`` certifies the multiplicity theorem at this cone: the
    saturation kept the dimension and the multiplicity.  The initial ideal
    has the Hilbert series of the ideal, so its dimension is
    ``dim_initial`` and its multiplicity ``m_ideal``, and a match also shows
    its top-dimensional primes monomial-free (``topdim_monomial_free``)."""

    __slots__ = ()

    @property
    def matches(self) -> bool:
        return self.dim_saturated == self.dim_initial and self.m_saturated == self.m_ideal


def _saturation_invariants(J: Ideal) -> tuple:
    """(dimension, multiplicity) of the saturation of J by the product of
    the variables, or (-1, 0) when that saturation is the unit ideal."""
    S = saturate(J, Polynomial.monomial(J.n, (1,) * J.n))
    if is_unit_ideal(S):
        return (-1, 0)
    return (dimension(S), multiplicity(S))


def topdim_monomial_free(J: Ideal, m: int) -> bool:
    """Whether no top-dimensional minimal prime of J contains a monomial:
    whether its saturation by the product of the variables is proper with
    the dimension and multiplicity of J, which the associativity formula
    makes equivalent (see the module docstring).  ``m`` must be
    ``dimension(J)``; any other value, and the unit ideal, raise
    ``ValueError``."""
    if dimension(J) != m:
        raise ValueError(f"m = {m} is not the dimension of the quotient by J")
    return _saturation_invariants(J) == (m, multiplicity(J))


def intrinsic_multiplicity(
    I: Ideal,
    cone: ConeId,
    policy: GenericityPolicy = GenericityPolicy(),
) -> MultiplicityReport:
    """Multiplicity evidence for one maximal cone of the sampled generic
    tropical fan, computed at the cone's canonical interior point."""
    m_ideal = multiplicity(I)
    gap = gap_degree(I, policy) + 1
    w = interior_point(cone, gap)

    def compute(gI: Ideal) -> tuple:
        J = initial_ideal(gI, w)
        return (dimension(J), *_saturation_invariants(J))

    dim_initial, dim_saturated, m_sat = agreed(I, policy, compute, "intrinsic multiplicity")
    return MultiplicityReport(cone, dim_initial, dim_saturated, m_sat, m_ideal)


def hypersurface_mc(factors: Sequence, w, of: Polynomial | None = None) -> int:
    """Cone multiplicity of a principal ideal from a supplied irreducible
    factorization of the weighted initial form: the sum of exponents over the
    factors that are not single monomials.

    ``factors`` lists (polynomial, exponent) pairs.  Their product must be a
    weighted initial form (all terms of minimal weight); when ``of`` is given
    the product must additionally equal the initial form of ``of`` up to a
    scalar.  Factorization itself is out of scope for this package.
    """
    if not factors:
        raise ValueError("empty factorization")
    n = factors[0][0].n
    product = Polynomial.one(n)
    for f, e in factors:
        if not f or e < 1:
            raise ValueError("factors must be nonzero with positive exponents")
        product = product * f**e
    if initial_form(w, product) != product:
        raise ValueError("factor product is not a weighted initial form")
    if of is not None:
        target = initial_form(w, of)
        ratio = target.terms[0][1] / product.terms[0][1]
        if product * ratio != target:
            raise ValueError("factors do not multiply to the initial form")
    return sum(e for f, e in factors if not f.is_monomial())


class NewtonPolytope(namedtuple("NewtonPolytope", "n vertices")):
    """Convex-hull vertices of the exponent set of a polynomial."""

    __slots__ = ()


def _in_convex_hull(point, points) -> bool:
    """Exact rational feasibility of point = convex combination of points,
    by a phase-one simplex with Bland's rule."""
    k = len(points)
    if k == 0:
        return False
    d = len(point)
    rows = []
    rhs = []
    for r in range(d):
        rows.append([Fraction(p[r]) for p in points])
        rhs.append(Fraction(point[r]))
    rows.append([Fraction(1)] * k)
    rhs.append(Fraction(1))
    m = d + 1
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    # tableau with artificial basis; minimize the sum of artificials
    tab = [rows[i] + [Fraction(1 if j == i else 0) for j in range(m)] + [rhs[i]] for i in range(m)]
    ncols = k + m
    basis = [k + i for i in range(m)]
    z = [Fraction(0)] * ncols
    for j in range(ncols):
        cost = Fraction(1) if j >= k else Fraction(0)
        z[j] = cost - sum(tab[i][j] for i in range(m))
    while True:
        enter = next((j for j in range(ncols) if z[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            raise AssertionError("phase-one simplex cannot be unbounded")
        _, row = best
        piv = tab[row][enter]
        tab[row] = [x / piv for x in tab[row]]
        for i in range(m):
            if i != row and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[row])]
        f = z[enter]
        if f:
            z = [a - f * b for a, b in zip(z, tab[row][:-1])]
        basis[row] = enter
    value = sum(tab[i][-1] for i in range(m) if basis[i] >= k)
    return value == 0


def newton_polytope(f: Polynomial) -> NewtonPolytope:
    """Extreme points of the exponent set of f (exact, dimensions up to 8)."""
    if not f:
        raise ValueError("Newton polytope of the zero polynomial")
    if f.n > 8:
        raise ValueError("Newton polytopes are supported for at most 8 variables")
    pts = sorted({e for e, _ in f.terms})
    verts = []
    for i, p in enumerate(pts):
        others = [q for j, q in enumerate(pts) if j != i]
        if not _in_convex_hull(p, others):
            verts.append(p)
    return NewtonPolytope(f.n, tuple(verts))


def edge_lattice_length(a: Iterable, b: Iterable) -> int:
    """Number of lattice points on the segment [a, b] minus one: the gcd of
    the absolute coordinate differences."""
    a = tuple(a)
    b = tuple(b)
    if a == b:
        raise ValueError("segment endpoints coincide")
    g = 0
    for x, y in zip(a, b):
        g = gcd(g, abs(x - y))
    return g
