"""Randomized genericity: coordinate transformations, generic initial ideals,
tropical membership, fan-structure probes, Cohen-Macaulay classification and
depth recovery.

Genericity is certified probabilistically: a fixed number of independently
drawn coordinate changes must agree on the computed value.  Disagreement
triggers bound escalation (twice, by a factor of 100) and then a
``GenericityFailure``.  Explicit transform injection (including the identity)
is available as a testing hook for reproducing non-generic behaviour.

Fan-structure probes compare weighted initial ideals without building them.
Per transformed ideal gI, one reduced basis at the first weight w of a probe
decides whether a second weight v (``_same_initial``), or a whole coordinate
ray w + s e_j (s >= 0), has the initial ideal in_w(gI): it must lie in the
Groebner cell of that basis (``GroebnerBasis.cell_contains``), so no basis
off w is computed.  A cone-constancy probe asks the reduced basis at the
cone's first interior point whether it certifies that in_v(gI) is constant
on the whole open cone.  That point lies in the open cone, so its basis
certifies the cone iff in_v(gI) is constant on it, and the probe makes no
point test; ``buchberger`` serves that basis from a cached one whose
Groebner cone holds the point.  Every probe is exact, though constancy
probes are labelled ``sampled`` (see ``ProbeResult``).  The generic
initial ideal, which gives the gap factor of the probes' interior points
(``gap_degree``), is memoized on the ideal, so it is computed once per
policy.

A fan probe reads its cones off the lazy fan sequences of ``fans`` and runs
once per symmetry orbit of the cones, or of the adjacent pairs, it visits
(``per_orbit``).  For a permutation matrix P_s of the coordinates,
in_{s w}(gI) is the permuted in_w((P_s^T g) I), and every answer a probe
gives is read off the initial ideals at the points it reads and the open
cones that hold them.  A permutation s that maps each block of a cone C
increasing onto the block of s C maps every point the probe reads at C onto
the one it reads at s C (``fans.cone_orbit_key``, ``fans.pair_orbit_key``).
So the probe of s C under g is, exactly, the probe of C under P_s^T g: the
per-cone results of a fan were one cone probed under as many structured
transforms as the orbit has cones.  For generic g, P_s^T g is generic too, so
every cone of an orbit has the representative's answer, and each entry of a
probe list now carries the probe of its orbit's first cone.  Injected
transforms, such as the identity, are not generic; under them every cone is
probed on its own.

A tropical-membership query is answered once per permutation orbit of its
normalized weight, at the sorted weight.  As above, in_{s w}(gI) is the
permuted in_w((P_s^T g) I), and permuting the variables does not change
whether an ideal contains a monomial, so the membership of s w under g is
that of w under P_s^T g, which is generic when g is; agreement across the
draws still certifies every answer computed.  The sorted weight, unlike
the first one asked, makes an answer independent of earlier queries and
shares Groebner cones far more often.  Under injected transforms answers
differ along an orbit, so each normalized weight is answered, and its
answer memoized, on its own.
``tropical_report``, behind ``gentrop tropical``, answers at the normalized
weight itself and returns the initial ideal of a draw that agreed on that
answer, so the two never contradict each other.  Neither makes a run on the
ideal I itself: the zero-dimension check reads the Hilbert series of the
first draw, which I and the other draws share (``apply_transform``).  Per
draw gI, containment answers flow between gI and its initial ideals
(``_member_at``): the zero weight asks gI itself, and a monomial in gI, or
none in some in_w(gI), is memoized on gI.  Each such ideal holds its grevlex
basis, so in generic coordinates a trace mostly shows a Cohen-Macaulay one
monomial-free with no run (``groebner.contains_monomial``); the saturation
walk is the fallback.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence

from .fans import (
    ConeId,
    budget,
    cone_orbit_key,
    interior_point,
    maximal_cones,
)
from .groebner import (
    Ideal,
    buchberger,
    contains_monomial,
    initial_ideal,
)
from .invariants import (
    MonomialIdeal,
    depth_of_stable,
    dimension,
    is_strongly_stable,
    monomial_ideal_of,
)
from .poly import GREVLEX, UsageError, normalize_weight

CM = "CM"
ALMOST_CM = "almostCM"
NEITHER = "neither"
DEPTH_ZERO = "depthZero"


class GenericityFailure(RuntimeError):
    """Independent coordinate changes disagreed, or evidence contradicted a
    classification, after all escalations."""


class Transform(namedtuple("Transform", "matrix")):
    """An invertible linear coordinate change with exact integer entries,
    immutable and hashable; a singular or non-square matrix, or an entry
    that is not an int, raises ``ValueError``.

    Acts on polynomials by substituting each variable with the linear form
    given by the corresponding matrix column: x_i maps to sum_j m[j][i] x_j.
    """

    __slots__ = ()

    def __new__(cls, matrix):
        rows = tuple(tuple(row) for row in matrix)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("a transform needs a nonempty square matrix")
        if not all(isinstance(x, int) for row in rows for x in row):
            raise ValueError("a transform needs integer entries")
        if _det_int(rows) == 0:
            raise ValueError("a transform needs an invertible matrix")
        return super().__new__(cls, rows)

    @property
    def n(self) -> int:
        return len(self.matrix)

    @classmethod
    def identity(cls, n: int) -> "Transform":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


class GenericityPolicy(namedtuple("GenericityPolicy", "samples bound seed transforms")):
    """Immutable and hashable sampling policy: ``samples`` independent
    transforms with entries in [-bound, bound] must agree.  ``transforms``
    injects explicit transforms instead (testing hook; disables sampling and
    escalation)."""

    __slots__ = ()

    def __new__(cls, samples: int = 2, bound: int = 1000, seed: int = 0,
                transforms: tuple | None = None):
        if not isinstance(samples, int) or not isinstance(bound, int):
            raise ValueError("samples and bound must be ints")
        if transforms is not None:
            transforms = tuple(transforms)
            if not transforms or not all(isinstance(g, Transform) for g in transforms):
                raise ValueError("injected transforms must be a nonempty sequence of Transform")
        elif samples < 2:
            raise ValueError("agreement requires at least two samples")
        elif bound < 1:
            raise ValueError("bound must be at least 1")
        return super().__new__(cls, samples, bound, seed, transforms)


def identity_policy(n: int) -> GenericityPolicy:
    """Policy evaluating everything through the identity transform."""
    return GenericityPolicy(transforms=(Transform.identity(n),))


def _det_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def random_transform(
    n: int, policy: GenericityPolicy, index: int, rng: random.Random | None = None
) -> Transform:
    """Deterministic invertible transform number ``index`` under the policy.

    Entries are i.i.d. uniform integers in [-bound, bound]; singular draws are
    resampled (at most 100 attempts).  ``rng`` overrides the seeded stream for
    adversarial tests.
    """
    if policy.bound < 1:
        raise ValueError("bound must be at least 1")
    if rng is None:
        rng = random.Random(f"{policy.seed}:{policy.bound}:{index}")
    for _ in range(100):
        rows = tuple(
            tuple(rng.randint(-policy.bound, policy.bound) for _ in range(n))
            for _ in range(n)
        )
        try:
            return Transform(rows)
        except ValueError:
            pass
    raise RuntimeError("could not draw an invertible transform in 100 attempts")


def apply_transform(I: Ideal, g: Transform) -> Ideal:
    """The ideal generated by the images of the generators under g, derived
    from I: it has the degree cap of I and shares its memo of Hilbert checks
    (see ``groebner.Ideal``).  A transform is invertible, so it keeps the
    Hilbert series, and gI shares I's holder of the Hilbert numerator
    (``Ideal.series``).  So the numerator that ``groebner.buchberger``
    records with the first basis of one draw gI, or of I, is known to I and
    to every other draw, whose first run then has a target.

    Images of the integer forms are expanded over the integers on packed
    monomials: the exponent of x_j sits in bits [w j, w (j+1)) of an int,
    with w the bit length of the largest degree d of a form.  Every
    monomial of an image of a form has the form's degree, so no exponent
    exceeds d < 2**w, and the product of two monomials is the sum of their
    ints.  The image of each monomial of the forms is built once, keyed by
    its exponent vector, and each distinct monomial of the results is
    unpacked once."""
    if g.n != I.n:
        raise ValueError("transform size does not match the ambient ring")
    n = I.n
    w = max((sum(f[0][0]) for f in I.forms), default=0).bit_length()
    shifts = [w * j for j in range(n)]
    mask = (1 << w) - 1
    # x_i maps to the linear form of column i
    columns = [[(1 << s, row[i]) for s, row in zip(shifts, g.matrix) if row[i]]
               for i in range(n)]
    images = {(0,) * n: {0: 1}}

    def image(e: tuple) -> dict:
        """The image of x^e, packed: the image of x^e / x_i times the image
        of x_i, for the first variable x_i that divides x^e."""
        p = images.get(e)
        if p is None:
            i = 0
            while not e[i]:
                i += 1
            p = images[e] = {}
            for e1, c1 in image(e[:i] + (e[i] - 1,) + e[i + 1:]).items():
                for e2, c2 in columns[i]:
                    p[e1 + e2] = p.get(e1 + e2, 0) + c1 * c2
        return p

    unpacked: dict = {}
    gens = []
    for f in I.forms:
        acc: dict = {}
        for exps, c in f:
            for e, v in image(exps).items():
                acc[e] = acc.get(e, 0) + c * v
        out = {}
        for e, v in acc.items():
            if v:
                t = unpacked.get(e)
                if t is None:
                    t = unpacked[e] = tuple(e >> s & mask for s in shifts)
                out[t] = v
        gens.append(out)
    J = I._derive(gens)
    J.series = I.series
    return J


def transformed(I: Ideal, policy: GenericityPolicy) -> tuple:
    """The ideals gI for the policy's transforms (the injected ones, or
    ``samples`` seeded draws), memoized in ``I.images`` by the policy, so
    every computation under the policy reuses the same gI and its cached
    bases."""
    images = I.images.get(policy)
    if images is None:
        if policy.transforms is not None:
            gs = policy.transforms
        else:
            gs = [random_transform(I.n, policy, i) for i in range(policy.samples)]
        images = I.images[policy] = tuple(apply_transform(I, g) for g in gs)
    return images


def agreed(
    I: Ideal,
    policy: GenericityPolicy,
    compute: Callable,
    what: str,
    valid: Callable | None = None,
):
    """Evaluate ``compute`` on each transformed ideal and demand agreement,
    escalating the entry bound twice before giving up.

    ``valid`` vets the agreed value: transforms can agree while all being
    non-generic (small entry bounds), so a failed validity check escalates
    exactly like disagreement does."""
    return _agreement(I, policy, compute, what, valid)[0]


def _agreement(I: Ideal, policy: GenericityPolicy, compute: Callable, what: str,
               valid: Callable | None = None) -> tuple:
    """(value, draws) for ``agreed``: the agreed value and the transformed
    ideals that agreed on it.  The policies are asked in turn: the policy,
    then, under sampled transforms, the policy with its entry bound times
    100 and 10,000."""
    reason = "independent transforms disagree"
    for scale in (1, 100, 10_000) if policy.transforms is None else (1,):
        images = transformed(I, policy._replace(bound=policy.bound * scale))
        values = [compute(gI) for gI in images]
        if all(v == values[0] for v in values[1:]):
            if valid is None or valid(values[0]):
                return values[0], images
            reason = "agreed value failed the genericity validity check"
    raise GenericityFailure(f"{what}: {reason}")


def gin(I: Ideal, policy: GenericityPolicy = GenericityPolicy()) -> MonomialIdeal:
    """The generic initial ideal for grevlex: the common leading-monomial
    ideal of the transformed ideal across agreeing transforms.  The result
    must be strongly stable (Bayer and Stillman 1987); a violation is
    treated as a genericity failure.  Memoized in ``I.gins`` by the
    policy."""
    M = I.gins.get(policy)
    if M is None:
        M = I.gins[policy] = agreed(I, policy, monomial_ideal_of, "generic initial ideal",
                                    valid=is_strongly_stable)
    return M


def depth(I: Ideal, policy: GenericityPolicy) -> int:
    """Depth of S/I via the generic initial ideal for the graded reverse
    lexicographic order, where the two agree."""
    return depth_of_stable(gin(I, policy))


def tropical_member(
    I: Ideal,
    w,
    policy: GenericityPolicy = GenericityPolicy(),
) -> bool:
    """Whether w lies in the tropical variety of the generic transform of I:
    the weighted initial ideal contains no monomial.  The agreed answer is
    computed and memoized in ``I.members`` at the policy and the normalized
    weight, sorted under sampled transforms (see the module docstring), so a
    repeated query, or one by a shift, a positive multiple or, if sorted, a
    permutation of w, computes nothing; a query that raises is not
    memoized.  A zero-dimensional I raises ``UsageError``: the check reads
    the dimension of the first draw gI, which has I's Hilbert series and
    whose grevlex basis ``_member_at`` needs anyway, so no run is made on I;
    the numerator recorded with it is shared with I and the other draws (see
    ``apply_transform``)."""
    wn = normalize_weight(w, I.n)
    if policy.transforms is None:
        wn = tuple(sorted(wn))
    member = I.members.get((policy, wn))
    if member is not None:
        return member
    _check_positive_dimension(I, policy)
    member = I.members[policy, wn] = agreed(
        I, policy, lambda gI: _member_at(gI, wn), "tropical membership")
    return member


def _check_positive_dimension(I: Ideal, policy: GenericityPolicy) -> None:
    """Raise ``UsageError`` if I is zero-dimensional, read off the first
    transformed ideal of the policy, which has I's Hilbert series."""
    if dimension(transformed(I, policy)[0]) == 0:
        raise UsageError("zero-dimensional ideals have empty tropical variety")


def _member_at(gI: Ideal, wn) -> bool:
    """Whether in_wn(gI) contains no monomial, for one transformed ideal.

    A monomial m has in_w(m) = m, so if gI contains one, so does every
    in_w(gI): once gI is known to contain one (``gI.has_monomial``, set by
    the containment test of gI) every weight answers False, and a
    monomial-free in_w(gI) shows that gI is monomial-free, which is
    memoized on gI.  At the zero weight in_0(gI) = gI, so gI itself is
    tested and no initial ideal is built."""
    if gI.has_monomial:
        return False
    # cheap certificate: a single-term initial form of a basis element
    # already exhibits a monomial inside the weighted initial ideal
    if buchberger(gI, GREVLEX).has_monomial_initial_form(wn):
        return False
    if contains_monomial(initial_ideal(gI, wn) if any(wn) else gI):
        return False
    gI.has_monomial = False
    return True


def tropical_report(I: Ideal, w, policy: GenericityPolicy = GenericityPolicy()) -> tuple:
    """(member, J) for ``gentrop tropical``: whether in_w(gI) contains no
    monomial, agreed across the draws at the normalized w itself, and J =
    in_w(gI) for the first draw gI of the policy whose draws agreed (the
    base policy's, or an escalated one's, see ``agreed``).  So J contains
    a monomial iff ``member`` is false.  ``tropical_member`` answers at the
    sorted weight, where a non-generic draw can answer otherwise than at
    w; this answer is not memoized.  Raises ``UsageError`` for a
    zero-dimensional ideal, read off the first draw as in
    ``tropical_member``, so no run is made on I."""
    _check_positive_dimension(I, policy)
    wn = normalize_weight(w, I.n)
    member, images = _agreement(I, policy, lambda gI: _member_at(gI, wn), "tropical membership")
    return member, initial_ideal(images[0], w)


def gap_degree(I: Ideal, policy: GenericityPolicy) -> int:
    """The largest degree of a minimal generator of the grevlex generic
    initial ideal of I; fan probes take one more as the gap factor of their
    ladder interior points."""
    return gin(I, policy).max_degree()


def _same_initial(I: Ideal, w, v, policy: GenericityPolicy, what: str) -> bool:
    """Whether in_w(gI) = in_v(gI) for the transformed ideals, agreed across
    transforms: v must lie in the Groebner cell of the reduced basis of gI
    under grevlex refined by w (``GroebnerBasis.cell_contains``)."""

    def compute(gI: Ideal) -> bool:
        return buchberger(gI, GREVLEX.refine(w)).cell_contains(v)

    return agreed(I, policy, compute, what)


def cone_constancy(
    I: Ideal,
    cone: ConeId,
    policy: GenericityPolicy = GenericityPolicy(),
) -> bool:
    """Whether the weighted initial ideal in_v(gI) is constant on the open
    cone, agreed across transforms.

    Per gI, the reduced basis at the cone's first interior point w is asked
    whether it certifies the whole open cone
    (``GroebnerBasis.cell_contains`` with ``cone``).  w lies in the open
    cone, so that basis certifies the cone iff in_v(gI) is constant on it,
    and the answer is exact.  ``buchberger`` serves the basis from any
    cached basis whose Groebner cone holds w, so a cone that a cached
    basis certifies makes no engine run, unless that basis was computed
    at a weight off the cone's span and breaks a tie on the span
    otherwise than grevlex refined by w.  One run then gives the same
    answer.  No benchmark CLI job has been seen to make that run; the
    tests' differential cases make it for 14 of 312 such (gI, cone) pairs
    at one seed.  Its report entry is labelled ``sampled`` (see
    ``ProbeResult``).  The answer at a permuted cone s C is the answer at
    C under the permuted transforms (see the module docstring), which is
    how ``constancy_probes`` hands one answer to a whole orbit."""
    w = interior_point(cone, gap_degree(I, policy) + 1)
    sets = (cone.min_set, cone.middle, cone.top)

    def compute(gI: Ideal) -> bool:
        return buchberger(gI, GREVLEX.refine(w)).cell_contains(cone=sets)

    return agreed(I, policy, compute, "cone constancy")


def adjacent_distinct(
    I: Ideal,
    c1: ConeId,
    c2: ConeId,
    policy: GenericityPolicy = GenericityPolicy(),
) -> bool:
    """Exact witness that two cones carry different weighted initial ideals,
    evaluated at their canonical interior points."""
    gap = gap_degree(I, policy) + 1
    w1 = interior_point(c1, gap)
    w2 = interior_point(c2, gap)
    return not _same_initial(I, w1, w2, policy, "adjacent cone separation")


def _swap_coords(w: Sequence, a: int, b: int) -> tuple:
    out = list(w)
    out[a - 1], out[b - 1] = out[b - 1], out[a - 1]
    return tuple(out)


def separating_witness(
    I: Ideal,
    policy: GenericityPolicy = GenericityPolicy(),
) -> tuple:
    """Two weight vectors in one maximal skeleton cone whose initial ideals
    are compared exactly; returns (w, v, distinct).

    The construction swaps the two ladder rungs around the depth position,
    so for 0 < depth < dim-1 the initial ideals provably differ, while for
    Cohen-Macaulay and almost-Cohen-Macaulay ideals the analogous pair (the
    first two rungs above the minimum) yields equal initial ideals.

    The ladder's gap factor must cover the grevlex gin and the gin under
    grevlex with x_p and x_{p+1} swapped.  For the permutation matrix P of
    the swap, the initial ideal of gI under the swapped order is the
    swapped grevlex initial ideal of (P^-1 g) I, and P^-1 g is generic when
    g is (Eisenbud 1995, "Commutative Algebra", sec. 15.9).  So the second
    gin is the swapped grevlex gin, of the same largest degree, and
    ``gap_degree`` gives the factor.
    """
    n = I.n
    m = dimension(I)
    t = depth(I, policy)
    if t == 0:
        raise ValueError("witness construction requires positive depth")
    if m < 3:
        raise ValueError("witness construction requires dimension at least 3")
    p = n - t if t < m - 1 else n - m + 2
    base_cone = ConeId(n, frozenset(range(1, n - m + 2)))
    w = interior_point(base_cone, gap_degree(I, policy) + 1)
    v = _swap_coords(w, p, p + 1)
    distinct = not _same_initial(I, w, v, policy, "separating witness")
    return w, v, distinct


class ProbeResult(namedtuple("ProbeResult", "kind cone result evidence detail", defaults=("",))):
    """One verification probe: what was tested, where (a ConeId or None), and
    with which kind of evidence.  Every probe is exact, but cone constancy
    is still labelled ``sampled``, after the point tests it once made:
    every recorded report holds the label in its bytes, so relabelling it
    ``exact`` waits for the benchmark's goldens to be re-recorded."""

    __slots__ = ()


class ClassifyResult(namedtuple("ClassifyResult", "label probes")):
    __slots__ = ()


def per_orbit(items: Sequence, key: Callable, probe: Callable, policy: GenericityPolicy):
    """(item, probe(item)) for each item of ``budget(items, policy.seed)``,
    in that order, yielded one at a time.  Under sampled transforms the
    probe runs at the first item of each orbit ``key`` and later items with
    that key take its result, which is theirs too (see the module
    docstring); under injected transforms it runs at every item."""
    results: dict = {}
    for item in budget(items, policy.seed):
        k = key(item) if policy.transforms is None else item
        if k not in results:
            results[k] = probe(item)
        yield item, results[k]


def constancy_probes(
    I: Ideal,
    cones: Sequence,
    policy: GenericityPolicy,
) -> Iterable[ProbeResult]:
    """One constancy entry per cone of ``cones`` (all of them, or
    ``CONE_BUDGET`` drawn with the policy seed when there are more), in
    index order, yielded one at a time so that a caller can stop at the
    first split cone.  ``cone_constancy`` runs once per orbit of cones
    (``per_orbit``); under injected transforms, once per cone.  Each
    answer is exact, though labelled ``sampled`` (see ``ProbeResult``)."""
    probes = per_orbit(cones, cone_orbit_key,
                       lambda cone: cone_constancy(I, cone, policy), policy)
    for cone, ok in probes:
        yield ProbeResult("cone_constancy", cone, ok, "sampled")


def classify_cm(
    I: Ideal,
    policy: GenericityPolicy = GenericityPolicy(),
) -> ClassifyResult:
    """Depth-based Cohen-Macaulay classification, cross-validated against the
    fan structure: CM/almost-CM ideals must show constant initial ideals on
    the maximal skeleton cones (all of them, or ``CONE_BUDGET`` drawn with
    the policy seed when there are more), and intermediate depth must
    produce a separating witness."""
    m = dimension(I)
    if m == 0:
        raise UsageError("classification requires positive dimension")
    t = depth(I, policy)
    if t == m:
        label = CM
    elif t == m - 1:
        label = ALMOST_CM
    elif t == 0:
        label = DEPTH_ZERO
    else:
        label = NEITHER
    probes = []
    if label in (CM, ALMOST_CM):
        for probe in constancy_probes(I, maximal_cones(I.n, m), policy):
            probes.append(probe)
            if not probe.result:
                raise GenericityFailure(
                    f"{label} classification contradicted by split cone {probe.cone.to_json()}"
                )
    elif label == NEITHER:
        w, v, distinct = separating_witness(I, policy)
        probes.append(
            ProbeResult(
                "separating_witness",
                None,
                distinct,
                "exact",
                f"w={list(w)} v={list(v)}",
            )
        )
        if not distinct:
            raise GenericityFailure(
                "intermediate depth but no separating witness found"
            )
    return ClassifyResult(label, tuple(probes))


def ray_constancy(
    I: Ideal,
    w,
    directions: Iterable[int],
    policy: GenericityPolicy = GenericityPolicy(),
) -> bool:
    """Whether, for each coordinate direction j in ``directions`` (1-based;
    one outside 1..n raises ``ValueError``), the weighted initial ideal is
    in_w all along the ray w + s e_j, s >= 0, agreed across transforms.
    Per gI one reduced basis, under grevlex refined by w, decides every ray
    (``GroebnerBasis.cell_contains`` with ``ray``), so the answer holds for
    every step length."""
    directions = list(directions)

    def compute(gI: Ideal) -> bool:
        gb = buchberger(gI, GREVLEX.refine(w))
        return all([gb.cell_contains(ray=j) for j in directions])

    return agreed(I, policy, compute, "ray constancy")


def recover_depth(
    I: Ideal,
    policy: GenericityPolicy = GenericityPolicy(),
) -> int:
    """Recover the depth from the fan structure alone: the least t for which
    the top t coordinate rays stay inside the cone of one ladder point (gap
    factor from ``gap_degree``) while the ray in direction n-t leaves it.
    Valid for 0 < depth < dim-1."""
    n, m = I.n, dimension(I)
    w = interior_point(ConeId(n, range(1, n - m + 2)), gap_degree(I, policy) + 1)
    for t in range(1, m - 1):
        p = n - t
        stays = ray_constancy(I, w, range(p + 1, n + 1), policy)
        if stays and not ray_constancy(I, w, [p], policy):
            return t
    raise ValueError("depth recovery applies only to ideals with 0 < depth < dim-1")
