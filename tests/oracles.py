"""Independent brute-force oracles used to validate the engine.

Everything here is exact linear algebra (sparse Gaussian elimination over
the rationals) or exhaustive enumeration, deliberately sharing no code
with the division/Buchberger path it checks.  The
exceptions are the fan probes' earlier forms, kept as references for the
exact forms that replaced them: ``initial_ideal_forms``, the comparison of
weighted initial ideals that the Groebner-cell point test replaced, and
``moved_point_ray_constancy`` and ``moved_point_recover_depth``, which
approximate a coordinate ray by one far point, where the ray form of the
cell test decides the whole ray; ``sampled_cone_constancy``, which
point-tests a few sampled interior points of a cone, where the open-cone
certificate decides the whole cone; and the per-cone probe loops
(``per_cone_constancy``, ``per_pair_distinct``, ``per_cone_multiplicity``),
which probe every budgeted cone or pair on its own where the package probes
one per symmetry orbit; ``per_weight_member``, which answers each
normalized weight at itself where the package answers one weight per
permutation orbit; and ``bayer_stillman_saturation``, the saturation walk
that runs every step, where the package stops at the first unit ideal.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations

from gentrop.fans import ConeId, budget, interior_point, interior_points
from gentrop.generic import (
    ProbeResult,
    adjacent_distinct,
    agreed,
    cone_constancy,
    gap_degree,
)
from gentrop.groebner import Ideal, buchberger, contains_monomial, initial_ideal
from gentrop.invariants import dimension
from gentrop.poly import GREVLEX, Polynomial, normalize_weight
from gentrop.tropmult import intrinsic_multiplicity


def initial_ideal_forms(I: Ideal, points) -> list:
    """The forms of the weighted initial ideal of I at each of ``points``,
    each from its own reduced basis, of a fresh copy of I so that no basis
    cached on I is read.  Two initial ideals of I are equal iff their forms
    agree, so in_v(I) = in_w(I) iff the entries of v and w are equal."""
    J = Ideal(I.n, map(dict, I.forms), I.degree_cap)
    return [initial_ideal(J, w).forms for w in points]


def moved_point_ray_constancy(I: Ideal, w, directions, policy) -> bool:
    """Whether pushing w far along each coordinate direction in
    ``directions`` (1-based) leaves the weighted initial ideal unchanged:
    the coordinate moves strictly beyond ``gap_degree`` times the current
    maximum, and the moved points are point-tested against the reduced
    basis at w, agreed across transforms."""
    w = tuple(Fraction(x) for x in w)
    target = gap_degree(I, policy) * max(w) + 1
    moved = []
    for j in sorted(set(directions)):
        if not 1 <= j <= I.n:
            raise ValueError(f"direction {j} out of range")
        v = list(w)
        v[j - 1] = max(target, w[j - 1] + 1)
        moved.append(tuple(v))

    def compute(gI: Ideal) -> bool:
        gb = buchberger(gI, GREVLEX.refine(w))
        return all(gb.cell_contains(v) for v in moved)

    return agreed(I, policy, compute, "ray constancy")


def moved_point_recover_depth(I: Ideal, policy) -> int:
    """Depth recovery with one ladder point, whose gap factor must cover the
    grevlex gin and, per step t, the gin under grevlex with x_{n-t} moved
    last, which in generic coordinates is the permuted grevlex gin, of the
    same largest degree (see ``generic.separating_witness``); so the factor
    is ``gap_degree``'s.  Rays are probed by ``moved_point_ray_constancy``."""
    n = I.n
    m = dimension(I)
    w = interior_point(ConeId(n, frozenset(range(1, n - m + 2))), gap_degree(I, policy) + 1)
    for t in range(1, m - 1):
        p = n - t
        stays = moved_point_ray_constancy(I, w, range(p + 1, n + 1), policy)
        if stays and not moved_point_ray_constancy(I, w, [p], policy):
            return t
    raise ValueError("depth recovery applies only to ideals with 0 < depth < dim-1")


def sampled_cone_constancy(I: Ideal, cone: ConeId, samples: int, policy) -> bool:
    """Cone constancy from ``samples`` sampled interior points: the reduced
    basis at the first point certifies the open cone, or else every other
    point lies in its Groebner cell, agreed across transforms.  A True is
    evidence only, since the points can miss a wall inside the cone."""
    gap = gap_degree(I, policy) + 1
    points = interior_points(cone, gap, samples)
    sets = (cone.min_set, cone.middle, cone.top)

    def compute(gI: Ideal) -> bool:
        gb = buchberger(gI, GREVLEX.refine(points[0]))
        return gb.cell_contains(cone=sets) or all(gb.cell_contains(v) for v in points[1:])

    return agreed(I, policy, compute, "cone constancy")


def per_cone_constancy(I: Ideal, cones, policy) -> list:
    """The constancy probes of ``cones`` with ``cone_constancy`` run at
    every budgeted cone."""
    return [ProbeResult("cone_constancy", cone, cone_constancy(I, cone, policy), "sampled")
            for cone in budget(cones, policy.seed)]


def per_pair_distinct(I: Ideal, pairs, policy) -> list:
    """The adjacent-pair probes of ``verify --target Wnmt`` with
    ``adjacent_distinct`` run at every budgeted pair."""
    return [ProbeResult("adjacent_pair_distinct", c1, adjacent_distinct(I, c1, c2, policy),
                        "exact", f"versus {c2.to_json()}")
            for c1, c2 in budget(pairs, policy.seed)]


def per_cone_multiplicity(I: Ideal, cones, policy) -> list:
    """The probes of ``verify --target multiplicity`` with
    ``intrinsic_multiplicity`` run at every budgeted cone."""
    out = []
    for cone in budget(cones, policy.seed):
        rep = intrinsic_multiplicity(I, cone, policy)
        detail = (f"dim {rep.dim_initial}->{rep.dim_saturated}, "
                  f"m_sat {rep.m_saturated}, m_ideal {rep.m_ideal}")
        out.append(ProbeResult("multiplicity_matches", cone, rep.matches, "exact", detail))
    return out


def per_weight_member(I: Ideal, w, policy) -> bool:
    """Tropical membership of w keyed and computed per normalized weight:
    whether in_w(gI) contains no monomial, agreed across the transforms,
    memoized in ``I.members`` under the policy and the normalized weight
    itself."""
    wn = normalize_weight(w, I.n)
    member = I.members.get((policy, wn))
    if member is None:
        def compute(gI: Ideal) -> bool:
            return not contains_monomial(initial_ideal(gI, wn))

        member = I.members[policy, wn] = agreed(I, policy, compute, "tropical membership")
    return member


def bayer_stillman_saturation(I: Ideal, m):
    """(I : (x^m)^infinity) by one reduced basis per variable x_i of x^m,
    x_n first, each under grevlex refined by the unit weight e_i, dividing
    every element by the largest power of x_i that divides it (Bayer and
    Stillman 1987).  No step is skipped."""
    n = I.n
    J = I
    for i in reversed(range(n)):
        if not m[i]:
            continue
        gb = buchberger(J, GREVLEX.refine([int(k == i) for k in range(n)]))
        if any(f[0][0][i] for f in gb.forms):
            J = Ideal(n, [{e[:i] + (e[i] - f[0][0][i],) + e[i + 1:]: c for e, c in f}
                          for f in gb.forms], I.degree_cap)
    return J


def expanded_transform(I: Ideal, matrix) -> list:
    """The images of the forms of I under the coordinate change ``matrix``,
    which maps x_i to the linear form l_i = sum_j matrix[j][i] x_j of its
    column i: each term c x^e is expanded as c l_1^e_1 ... l_n^e_n in
    ``Polynomial`` arithmetic, and the terms are summed."""
    n = I.n
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    columns = [Polynomial(n, {units[j]: row[i] for j, row in enumerate(matrix)})
               for i in range(n)]
    images = []
    for f in I.forms:
        image = Polynomial.zero(n)
        for e, c in f:
            term = Polynomial.constant(n, c)
            for linear, k in zip(columns, e):
                term = term * linear**k
            image = image + term
        images.append(image)
    return images


def listed_cones(n: int, m: int, t: int | None = None) -> list:
    """Every maximal cone of the m-skeleton, or of its t-refinement, listed
    eagerly by ``itertools.combinations``: the min-sets of size n-m+1 in its
    order, and under each the tops of size t among the other coordinates."""
    out = []
    for a in combinations(range(1, n + 1), n - m + 1):
        if t is None:
            out.append(ConeId(n, a))
            continue
        rest = [i for i in range(1, n + 1) if i not in a]
        for top in combinations(rest, t):
            out.append(ConeId(n, a, set(rest) - set(top), top))
    return out


def monomials_of_degree(n: int, d: int) -> list:
    """All exponent vectors of total degree d, in a fixed order."""
    if n == 1:
        return [(d,)]
    out = []
    for first in range(d + 1):
        out.extend((first,) + rest for rest in monomials_of_degree(n - 1, d - first))
    return out


def monomials_up_to(n: int, d: int) -> list:
    out = []
    for k in range(d + 1):
        out.extend(monomials_of_degree(n, k))
    return out


def _reduce(row: dict, pivots: dict) -> dict:
    """``row`` ({key: coefficient}) less the multiples of ``pivots`` (see
    ``_add``) that clear its largest key while a pivot has that key: empty
    iff the row lies in the span of the pivots."""
    r = dict(row)
    while r:
        top = max(r)
        p = pivots.get(top)
        if p is None:
            break
        c = r[top]
        for k, v in p.items():
            x = r.get(k, 0) - c * v
            if x:
                r[k] = x
            else:
                r.pop(k, None)
    return r


def _add(row: dict, pivots: dict) -> bool:
    """Whether ``row`` lies outside the span of ``pivots``, a sparse echelon
    basis over Q that maps the largest key of each of its rows to that row
    scaled to 1 there; if so, the row, reduced, joins them.  So
    ``len(pivots)`` is the rank of the rows added."""
    r = _reduce(row, pivots)
    if r:
        top = max(r)
        c = Fraction(r[top])
        pivots[top] = {k: v / c for k, v in r.items()}
    return bool(r)


def degree_span(generators, n: int, d: int) -> dict:
    """Echelon basis (see ``_add``) of the degree-d slice of the ideal the
    homogeneous ``generators`` generate: the span of all monomial multiples
    of degree d, as {exponents: coefficient} rows."""
    pivots: dict = {}
    for g in generators:
        dg = g.degree
        if dg is None or dg > d:
            continue
        for shift in monomials_of_degree(n, d - dg):
            _add(dict((g * Polynomial.monomial(n, shift)).terms), pivots)
    return pivots


def member_homogeneous(f: Polynomial, generators, n: int) -> bool:
    """Exact ideal membership for homogeneous f against homogeneous
    generators, by linear algebra in the degree slice."""
    return members_homogeneous([f], generators, n)


def members_homogeneous(fs, generators, n: int) -> bool:
    """member_homogeneous for every f in ``fs``, one slice per degree."""
    by_degree: dict = {}
    for f in fs:
        if f:
            by_degree.setdefault(f.degree, []).append(f)
    for d, group in by_degree.items():
        span = degree_span(generators, n, d)
        if any(_reduce(dict(f.terms), span) for f in group):
            return False
    return True


def slice_dimension(generators, n: int, d: int) -> int:
    return len(degree_span(generators, n, d))


def colon_power_slice(generators, f: Polynomial, power: int, n: int, d: int) -> int:
    """Dimension of the degree-d slice of (I : f^power), where I is generated
    by homogeneous ``generators``: solve g * f^power in I for unknown g."""
    fp = f**power
    span = degree_span(generators, n, d + fp.degree)
    # the lambda with lambda * f^power in the span B of the generator
    # multiples form a space of dimension k - (rank [A | B] - rank B), where
    # A holds the k rows lambda * f^power, and the rows of A that join B's
    # echelon basis one by one count rank [A | B] - rank B
    lams = monomials_of_degree(n, d)
    return len(lams) - sum(_add(dict((fp * Polynomial.monomial(n, lam)).terms), span)
                           for lam in lams)


def saturation_slice(generators, f: Polynomial, n: int, d: int, stable_power: int = 4) -> int:
    """Dimension of the degree-d slice of (I : f^infinity), with a
    stabilization check on the exponent."""
    a = colon_power_slice(generators, f, stable_power, n, d)
    b = colon_power_slice(generators, f, stable_power + 1, n, d)
    if a != b:
        raise AssertionError("saturation oracle has not stabilized; raise stable_power")
    return a


def monomial_in_ideal_upto(generators, n: int, d: int) -> bool:
    """Exhaustive search for a monomial of degree <= d in the ideal."""
    for e in monomials_up_to(n, d):
        if sum(e) == 0:
            continue
        if member_homogeneous(Polynomial.monomial(n, e), generators, n):
            return True
    return False


def standard_monomial_counts(min_gens, n: int, upto: int) -> list:
    """Counts per degree of monomials outside the monomial ideal; any
    generating set gives the same counts."""
    counts = []
    for d in range(upto + 1):
        c = 0
        for e in monomials_of_degree(n, d):
            if not any(all(a <= b for a, b in zip(g, e)) for g in min_gens):
                c += 1
        counts.append(c)
    return counts


def numerator_prefix(gens, n: int, upto: int) -> list:
    """Coefficients of t^0..t^upto of the Hilbert series numerator of S/M
    over (1-t)^n, M generated by the exponent vectors ``gens``: the brute
    force counts of standard monomials per degree, times (1-t)^n."""
    coeffs = standard_monomial_counts(gens, n, upto)
    for _ in range(n):
        coeffs = [c - (coeffs[k - 1] if k else 0) for k, c in enumerate(coeffs)]
    return coeffs


def series_expansion(numerator, dim: int, upto: int) -> list:
    """Coefficients of numerator / (1-t)^dim up to degree ``upto``."""
    inv = [1] * (upto + 1)
    for _ in range(dim - 1):
        acc = 0
        nxt = []
        for k in range(upto + 1):
            acc += inv[k]
            nxt.append(acc)
        inv = nxt
    if dim == 0:
        inv = [1] + [0] * upto
    out = []
    for k in range(upto + 1):
        s = 0
        for j, q in enumerate(numerator):
            if j <= k:
                s += q * inv[k - j]
        out.append(s)
    return out


def order_key(order, n: int):
    """Tuple key of ``order`` written from its definition: bigger key ranks
    higher.  Grevlex compares total degree, then the negated exponents from
    x_n back; a weight ranks smaller w . e higher and breaks ties by
    grevlex."""
    def grevlex(e):
        return (sum(e), tuple(-x for x in reversed(e)))

    if order.weight is None:
        return grevlex
    w = tuple(Fraction(x) for x in order.weight)
    return lambda e: (-sum(x * y for x, y in zip(w, e)), grevlex(e))


def reference_groebner(generators, order, n: int) -> list:
    """Reduced Groebner basis of the ideal the homogeneous ``generators``
    generate, by textbook Buchberger over Fraction: every pair is reduced,
    lowest lcm degree first, with no criterion, on dicts ranked by
    ``order_key``.  Returns monic Polynomials in ascending order of leading
    monomial."""
    key = cache(order_key(order, n))

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    def monic(p):
        """(lead, p / its leading coefficient)."""
        lm = max(p, key=key)
        c = p[lm]
        return lm, {e: x / c for e, x in p.items()}

    def reduce(p, basis):
        p, r = dict(p), {}
        while p:
            e = max(p, key=key)
            c = p.pop(e)
            hit = next(((lm, g) for lm, g in basis if divides(lm, e)), None)
            if hit is None:
                r[e] = c
                continue
            lm, g = hit
            for e2, c2 in g.items():
                if e2 != lm:
                    ee = tuple(a - b + x for a, b, x in zip(e, lm, e2))
                    v = p.get(ee, Fraction(0)) - c * c2
                    if v:
                        p[ee] = v
                    else:
                        p.pop(ee, None)
        return r

    def spoly(f, g):
        m = tuple(map(max, f[0], g[0]))
        out: dict = {}
        for (lh, h), sign in ((f, 1), (g, -1)):
            for e, c in h.items():
                ee = tuple(a - b + x for a, b, x in zip(m, lh, e))
                out[ee] = out.get(ee, Fraction(0)) + sign * c
        return {e: c for e, c in out.items() if c}

    basis = [monic({e: Fraction(c) for e, c in g.terms}) for g in generators if g]
    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}
    while pairs:
        i, j = min(pairs, key=lambda p: (sum(map(max, basis[p[0]][0], basis[p[1]][0])), p))
        pairs.remove((i, j))
        r = reduce(spoly(basis[i], basis[j]), basis)
        if r:
            pairs.update((k, len(basis)) for k in range(len(basis)))
            basis.append(monic(r))
    # minimal: drop an element whose lead another lead divides (of equal
    # leads, keep the first); weighted orders need not rank a divisor lower
    kept = [
        (lm, g) for i, (lm, g) in enumerate(basis)
        if not any(
            j != i and divides(lj, lm) and (lj != lm or j < i)
            for j, (lj, _) in enumerate(basis)
        )
    ]
    kept.sort(key=lambda t: key(t[0]))
    # reduced: each tail reduced by the other elements
    out = []
    for lm, g in kept:
        others = [t for t in kept if t[0] != lm]
        tail = reduce({e: c for e, c in g.items() if e != lm}, others)
        tail[lm] = Fraction(1)
        out.append(Polynomial(n, tail))
    return out


def _faces(facets) -> set:
    """Every face of the simplicial complex with these facets, each a sorted
    tuple of vertices, the empty face included."""
    out = set()
    for F in facets:
        F = tuple(sorted(F))
        for k in range(len(F) + 1):
            out.update(combinations(F, k))
    return out


def _reduced_homology(faces) -> dict:
    """The nonzero ranks of the reduced homology over Q of the complex with
    these faces (the empty face included), by degree j >= -1: the number of
    faces of size j + 1, less the ranks of the boundary maps out of and into
    that degree, each the rank of its +-1 matrix (see ``_add``)."""
    by_degree: dict = {}
    for F in faces:
        by_degree.setdefault(len(F) - 1, []).append(F)

    def boundary_rank(j: int) -> int:
        if j not in by_degree or j - 1 not in by_degree:
            return 0
        index = {F: k for k, F in enumerate(by_degree[j - 1])}
        pivots: dict = {}
        for F in by_degree[j]:
            _add({index[F[:k] + F[k + 1:]]: (-1) ** k for k in range(len(F))}, pivots)
        return len(pivots)

    ranks = {j: len(fs) - boundary_rank(j) - boundary_rank(j + 1) for j, fs in by_degree.items()}
    return {j: r for j, r in ranks.items() if r}


def stanley_reisner(facets) -> tuple:
    """(dimension, depth, cm_class, multiplicity) of the Stanley-Reisner ring
    k[Delta] over Q, for the simplicial complex Delta with these facets
    (vertex sets), read from the complex alone.  The dimension is the
    largest face size and the multiplicity the number of faces of that
    size.  The depth is Hochster's formula, the least |F| + 1 + j over faces
    F and degrees j with reduced H_j(lk F; Q) nonzero (Hochster 1977; Bruns
    and Herzog 1993, 5.3), where lk F is the set of faces G disjoint from F
    with G + F a face; a facet's link is the empty complex, whose H_-1 is Q.
    The class compares the depth with the dimension, as the package labels
    it: CM when equal (Reisner's criterion), almostCM one below, depthZero
    at 0, neither otherwise."""
    faces = _faces(facets)
    dim = max(map(len, faces))
    multiplicity = sum(len(F) == dim for F in faces)
    depth = min(
        len(F) + 1 + j
        for F in faces
        for j in _reduced_homology({G for G in faces if not set(G) & set(F)
                                    and tuple(sorted(G + F)) in faces})
    )
    if depth == dim:
        label = "CM"
    elif depth == dim - 1:
        label = "almostCM"
    elif depth == 0:
        label = "depthZero"
    else:
        label = "neither"
    return dim, depth, label, multiplicity
