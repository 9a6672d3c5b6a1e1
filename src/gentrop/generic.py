"""Randomized genericity: coordinate transformations, generic initial ideals,
tropical membership, fan-structure probes, Cohen-Macaulay classification and
depth recovery.

Genericity is certified probabilistically: a fixed number of independently
drawn coordinate changes must agree on the computed value.  Disagreement
triggers bound escalation (twice, by a factor of 100) and then a
``GenericityFailure``.  Explicit transform injection (including the identity)
is available as a testing hook for reproducing non-generic behaviour.

Fan-structure statements (constancy of initial ideals on cone interiors,
failures across adjacent cones) are established by finite sampling and are
reported as sampled evidence; depth, dimension, multiplicity and witness
inequalities are exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import add
from typing import Callable, Iterable, Sequence

from .fans import ConeId, ConeSequence, budget, interior_point, interior_points
from .groebner import (
    Ideal,
    buchberger,
    contains_monomial,
    initial_ideal,
    known_numerator,
)
from .invariants import (
    MonomialIdeal,
    depth,
    dimension,
    is_strongly_stable,
    monomial_ideal_of,
)
from .poly import GREVLEX, OrderSpec, normalize_weight

CM = "CM"
ALMOST_CM = "almostCM"
NEITHER = "neither"
DEPTH_ZERO = "depthZero"


class GenericityFailure(RuntimeError):
    """Independent coordinate changes disagreed, or evidence contradicted a
    classification, after all escalations."""


@dataclass(frozen=True)
class Transform:
    """An invertible linear coordinate change with exact integer entries.

    Acts on polynomials by substituting each variable with the linear form
    given by the corresponding matrix column: x_i maps to sum_j m[j][i] x_j.
    """

    matrix: tuple

    def __post_init__(self):
        object.__setattr__(self, "matrix", tuple(tuple(row) for row in self.matrix))

    @property
    def n(self) -> int:
        return len(self.matrix)

    @classmethod
    def identity(cls, n: int) -> "Transform":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


@dataclass(frozen=True)
class GenericityPolicy:
    """Sampling policy: ``samples`` independent transforms with entries in
    [-bound, bound] must agree.  ``transforms`` injects explicit transforms
    instead (testing hook; disables sampling and escalation)."""

    samples: int = 2
    bound: int = 1000
    seed: int = 0
    transforms: tuple | None = None

    def __post_init__(self):
        if self.transforms is not None:
            object.__setattr__(self, "transforms", tuple(self.transforms))
        elif self.samples < 2:
            raise ValueError("agreement requires at least two samples")
        if self.transforms is None and self.bound < 1:
            raise ValueError("bound must be at least 1")


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
        if _det_int(rows) != 0:
            return Transform(rows)
    raise RuntimeError("could not draw an invertible transform in 100 attempts")


def apply_transform(I: Ideal, g: Transform) -> Ideal:
    """The ideal generated by the images of the generators under g, with the
    degree cap of I.  Images of the integer forms are expanded over the
    integers.  An invertible g keeps the Hilbert series, so gI takes the
    numerator of I if known (``groebner.known_numerator``)."""
    if g.n != I.n:
        raise ValueError("transform size does not match the ambient ring")
    n = I.n
    one = (0,) * n
    units = [one[:i] + (1,) + one[i + 1:] for i in range(n)]
    # x_i maps to the linear form of column i
    images = {
        units[i]: {units[j]: row[i] for j, row in enumerate(g.matrix) if row[i]}
        for i in range(n)
    }
    images[one] = {one: 1}

    def image(e: tuple) -> dict:
        """The image of the monomial x^e: the image of x^e / x_i times the
        image of x_i, for the first variable x_i that divides x^e."""
        p = images.get(e)
        if p is None:
            i = next(k for k, x in enumerate(e) if x)
            p = images[e] = {}
            for e1, c1 in image(e[:i] + (e[i] - 1,) + e[i + 1:]).items():
                for e2, c2 in images[units[i]].items():
                    ee = tuple(map(add, e1, e2))
                    p[ee] = p.get(ee, 0) + c1 * c2
        return p

    gens = []
    for f in I.forms:
        acc: dict = {}
        for exps, c in f:
            for e, v in image(exps).items():
                acc[e] = acc.get(e, 0) + c * v
        gens.append({e: v for e, v in acc.items() if v})
    J = Ideal(n, gens, I.degree_cap)
    if _det_int(g.matrix):
        J.numerator = known_numerator(I)
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
    reason = "independent transforms disagree"
    for escalation in range(3):
        pol = policy if escalation == 0 else replace(policy, bound=policy.bound * 100**escalation)
        values = [compute(gI) for gI in transformed(I, pol)]
        if all(v == values[0] for v in values[1:]):
            if valid is None or valid(values[0]):
                return values[0]
            reason = "agreed value failed the genericity validity check"
        if policy.transforms is not None:
            break
    raise GenericityFailure(f"{what}: {reason}")


def _variable_priority(order: OrderSpec, n: int) -> tuple:
    """Variables sorted most significant first under the order (1-based)."""
    key = order.key_function(n, 1)

    def unit(i: int) -> tuple:
        e = [0] * n
        e[i - 1] = 1
        return tuple(e)

    return tuple(sorted(range(1, n + 1), key=lambda i: key(unit(i)), reverse=True))


def gin(
    I: Ideal,
    order: OrderSpec = GREVLEX,
    policy: GenericityPolicy = GenericityPolicy(),
) -> MonomialIdeal:
    """The generic initial ideal: the common leading-monomial ideal of the
    transformed ideal across agreeing transforms.  The result must be
    strongly stable for the order's variable priority; a violation is
    treated as a genericity failure."""
    priority = _variable_priority(order, I.n)

    def compute(gI: Ideal) -> MonomialIdeal:
        return monomial_ideal_of(gI, order)

    def stable(M: MonomialIdeal) -> bool:
        return is_strongly_stable(M, priority)

    return agreed(I, policy, compute, "generic initial ideal", valid=stable)


def tropical_member(
    I: Ideal,
    w,
    policy: GenericityPolicy = GenericityPolicy(),
) -> bool:
    """Whether w lies in the tropical variety of the generic transform of I:
    the weighted initial ideal contains no monomial."""
    m = dimension(I)
    if m == 0:
        raise ValueError("zero-dimensional ideals have empty tropical variety")
    wn = normalize_weight(w, I.n)

    def compute(gI: Ideal) -> bool:
        # cheap certificate: a single-term initial form of a basis element
        # already exhibits a monomial inside the weighted initial ideal
        if buchberger(gI, GREVLEX).has_monomial_initial_form(wn):
            return False
        J = initial_ideal(gI, wn)
        return not contains_monomial(J)

    return agreed(I, policy, compute, "tropical membership")


def gap_degree(I: Ideal, policy: GenericityPolicy) -> int:
    """The largest degree of a minimal generator of the grevlex generic
    initial ideal of I; fan probes take one more as the gap factor of their
    ladder interior points."""
    return gin(I, GREVLEX, policy).max_degree()


def _same_initial(I: Ideal, points: Sequence, policy: GenericityPolicy, what: str) -> bool:
    """Whether the transformed ideals' grevlex-refined initial ideals at
    ``points`` all coincide, agreed across transforms; stops at the first
    point that differs from the first.  Equal initial ideals of one ideal
    are one interned ``Ideal`` (see ``initial_ideal``)."""

    def compute(gI: Ideal) -> bool:
        first = initial_ideal(gI, points[0])
        return all(initial_ideal(gI, w) is first for w in points[1:])

    return agreed(I, policy, compute, what)


def cone_constancy(
    I: Ideal,
    cone: ConeId,
    samples: int = 3,
    policy: GenericityPolicy = GenericityPolicy(),
) -> bool:
    """Sampled evidence that the open cone lies inside a single cone of the
    generic tropical fan: the weighted initial ideals at ``samples`` interior
    points (varying ladder values and within-block arrangements) coincide."""
    if samples < 2:
        raise ValueError("constancy needs at least two interior points")
    gap = gap_degree(I, policy) + 1
    pts = interior_points(cone, gap, samples)
    return _same_initial(I, pts, policy, "cone constancy")


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
    return not _same_initial(I, (w1, w2), policy, "adjacent cone separation")


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
    """
    n = I.n
    m = dimension(I)
    t = depth(I, policy)
    if t == 0:
        raise ValueError("witness construction requires positive depth")
    if m < 3:
        raise ValueError("witness construction requires dimension at least 3")
    p = n - t if t < m - 1 else n - m + 2
    perm = list(range(1, n + 1))
    perm[p - 1], perm[p] = perm[p], perm[p - 1]
    swapped = OrderSpec("grevlex", tuple(perm))
    c = max(
        gin(I, GREVLEX, policy).max_degree(),
        gin(I, swapped, policy).max_degree(),
    )
    base_cone = ConeId(n, frozenset(range(1, n - m + 2)))
    w = interior_point(base_cone, c + 1)
    v = _swap_coords(w, p, p + 1)
    distinct = not _same_initial(I, (w, v), policy, "separating witness")
    return w, v, distinct


@dataclass(frozen=True)
class ProbeResult:
    """One verification probe: what was tested, where, and with which kind of
    evidence (exact inequality versus sampled constancy)."""

    kind: str
    cone: ConeId | None
    result: bool
    evidence: str
    detail: str = ""


@dataclass(frozen=True)
class ClassifyResult:
    label: str
    probes: tuple


def classify_cm(
    I: Ideal,
    policy: GenericityPolicy = GenericityPolicy(),
    points: int = 3,
) -> ClassifyResult:
    """Depth-based Cohen-Macaulay classification, cross-validated against the
    fan structure: CM/almost-CM ideals must show constant initial ideals on
    the maximal skeleton cones (all of them, or ``CONE_BUDGET`` drawn with
    the policy seed when there are more), and intermediate depth must
    produce a separating witness."""
    m = dimension(I)
    if m == 0:
        raise ValueError("classification requires positive dimension")
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
        for cone in budget(ConeSequence(I.n, m), policy.seed):
            ok = cone_constancy(I, cone, points, policy)
            probes.append(
                ProbeResult("cone_constancy", cone, ok, "sampled")
            )
            if not ok:
                raise GenericityFailure(
                    f"{label} classification contradicted by split cone {cone.to_json()}"
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
    c_gap: int | None = None,
) -> bool:
    """Whether pushing w far along each coordinate direction in ``directions``
    (1-based) leaves the weighted initial ideal unchanged.

    The probe moves the coordinate strictly beyond c times the current
    maximum, the threshold above which staying in the same fan cone is
    equivalent to genuine ray containment."""
    w = tuple(Fraction(x) for x in w)
    if c_gap is None:
        c_gap = gap_degree(I, policy)
    mx = max(w)
    target = c_gap * mx + 1
    moved = []
    for j in sorted(set(directions)):
        if not 1 <= j <= I.n:
            raise ValueError(f"direction {j} out of range")
        w2 = list(w)
        w2[j - 1] = max(target, w[j - 1] + 1)
        moved.append(tuple(w2))
    return _same_initial(I, [w] + moved, policy, "ray constancy")


def recover_depth(
    I: Ideal,
    policy: GenericityPolicy = GenericityPolicy(),
) -> int:
    """Recover the depth from the fan structure alone: the least t for which
    the top t coordinate rays stay inside the cone of the ladder point while
    the ray in direction n-t leaves it.  Valid for 0 < depth < dim-1."""
    n = I.n
    m = dimension(I)
    c0 = gin(I, GREVLEX, policy).max_degree()
    base_cone = ConeId(n, frozenset(range(1, n - m + 2)))
    for t in range(1, m - 1):
        p = n - t
        perm = tuple(list(range(1, p)) + list(range(p + 1, n + 1)) + [p])
        moved_last = OrderSpec("grevlex", perm)
        ct = max(c0, gin(I, moved_last, policy).max_degree())
        w = interior_point(base_cone, ct + 1)
        stays = ray_constancy(I, w, range(n - t + 1, n + 1), policy, ct)
        leaves = not ray_constancy(I, w, [p], policy, ct)
        if stays and leaves:
            return t
    raise ValueError(
        "depth recovery applies only to ideals with 0 < depth < dim-1"
    )
