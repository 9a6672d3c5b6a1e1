"""Buchberger engine: normal forms, reduced Groebner bases, weighted initial
ideals, elimination, saturation and the monomial-containment test.

All arithmetic is exact.  Basis elements are kept monic.  S-pairs are pruned
by the Gebauer-Moeller criteria (B, M and F, which includes the coprimality
criterion) and taken from a heap by the normal strategy (smallest lcm degree
first).  Every sort and tie-break is fixed, so identical inputs produce
bit-identical output.  A degree cap (default 40) aborts runaway computations
with ``DegreeCapExceeded`` instead of hanging.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Sequence

from .poly import (
    GREVLEX,
    OrderSpec,
    Polynomial,
    initial_form,
    normalize_weight,
)

DEFAULT_DEGREE_CAP = 40


class DegreeCapExceeded(RuntimeError):
    """A Groebner computation produced a polynomial above the degree cap."""


class NotGradedError(ValueError):
    """An ideal constructor received a non-homogeneous generator."""


class Ideal:
    """A nonzero ideal given by generators, with memos of its reduced bases
    and of its generic transforms.

    Generators must be homogeneous in the standard grading unless
    ``graded=False`` (used internally while eliminating the auxiliary
    saturation variable).  The ideal is the only place results are cached.
    ``gb_cache`` maps an OrderSpec to (reduced basis, degree cap it was
    computed under); the cap only aborts a run and never steers it, so an
    entry is served to any cap at least that large, and a smaller cap
    recomputes.  ``images`` maps a frozen GenericityPolicy to the tuple of
    transformed ideals (see ``generic.transformed``).
    """

    __slots__ = ("n", "generators", "graded", "gb_cache", "images")

    def __init__(self, n: int, generators: Iterable[Polynomial], graded: bool = True):
        gens = tuple(g for g in generators if g)
        if not gens:
            raise ValueError("the zero ideal is not supported")
        for g in gens:
            if g.n != n:
                raise ValueError("generator has wrong ambient variable count")
            if graded and not g.is_homogeneous():
                raise NotGradedError(f"non-homogeneous generator: {g}")
        self.n = n
        self.generators = gens
        self.graded = graded
        self.gb_cache: dict = {}
        self.images: dict = {}

    def key(self) -> tuple:
        """Hashable identity of the presented ideal (ambient + generators)."""
        return (self.n, self.generators)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"Ideal({self.n}; {gens})"


class GroebnerBasis:
    """A reduced Groebner basis: monic elements sorted by leading monomial."""

    __slots__ = ("order", "elements")

    def __init__(self, order: OrderSpec, elements: Sequence[Polynomial]):
        self.order = order
        self.elements = tuple(elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.order == other.order
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.order, self.elements))

    def __repr__(self):
        return f"GroebnerBasis({self.order}, [{', '.join(str(g) for g in self.elements)}])"


# -- dict-level engine ----------------------------------------------------
#
# Inside the engine a polynomial is a dict {exponents: Fraction}; a reducer
# is (leading exponents, tail) for a monic element, where the tail lists the
# non-leading terms.

class _Rev:
    """Inverts comparison so heapq acts as a max-heap on order keys."""

    __slots__ = ("k",)

    def __init__(self, k):
        self.k = k

    def __lt__(self, other):
        return other.k < self.k


def _divides(a, b) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _lcm(a, b) -> tuple:
    return tuple(map(max, a, b))


def _lead(d: dict, key: Callable) -> tuple:
    return max(d, key=key)


def _monic(d: dict, lm) -> dict:
    lc = d[lm]
    if lc == 1:
        return d
    return {e: c / lc for e, c in d.items()}


def _nf_dict(f: dict, reducers, key: Callable, cap: int) -> dict:
    """Remainder of f on division by monic reducers; no term of the result is
    divisible by any reducer's leading monomial."""
    coeffs = dict(f)
    heap = [(_Rev(key(e)), e) for e in coeffs]
    heapify(heap)
    remainder: dict = {}
    while heap:
        _, e = heappop(heap)
        c = coeffs.get(e)
        if not c:
            continue
        hit = None
        for lm, tail in reducers:
            if _divides(lm, e):
                hit = (lm, tail)
                break
        if hit is None:
            remainder[e] = c
            del coeffs[e]
            continue
        lm, tail = hit
        shift = tuple(a - b for a, b in zip(e, lm))
        del coeffs[e]
        for e2, c2 in tail:
            ee = tuple(a + b for a, b in zip(shift, e2))
            prev = coeffs.get(ee)
            if prev is None:
                if sum(ee) > cap:
                    raise DegreeCapExceeded(
                        f"degree {sum(ee)} exceeds cap {cap} during reduction"
                    )
                coeffs[ee] = -c * c2
                heappush(heap, (_Rev(key(ee)), ee))
            else:
                nv = prev - c * c2
                if nv:
                    coeffs[ee] = nv
                else:
                    del coeffs[ee]
    return remainder


def _spair_poly(fi: dict, lmi, fj: dict, lmj) -> dict:
    lcm = _lcm(lmi, lmj)
    si = tuple(a - b for a, b in zip(lcm, lmi))
    sj = tuple(a - b for a, b in zip(lcm, lmj))
    acc: dict = {}
    for e, c in fi.items():
        acc[tuple(a + b for a, b in zip(si, e))] = c
    for e, c in fj.items():
        ee = tuple(a + b for a, b in zip(sj, e))
        nv = acc.get(ee, Fraction(0)) - c
        if nv:
            acc[ee] = nv
        elif ee in acc:
            del acc[ee]
    return acc


def _buchberger_dicts(gens: list, key: Callable, cap: int) -> list:
    """Reduced Groebner basis of the ideal generated by ``gens`` (dicts).

    Returns monic dicts sorted ascending by leading-monomial key.
    """
    basis: list = []      # (lm, tail, full dict)
    reducers: list = []   # (lm, tail) view of basis
    active: set = set()   # indices whose lead no later lead divides
    live: dict = {}       # pending pair (i, j) -> lcm; other heap entries are stale
    heap: list = []       # (deg lcm, lcm, i, j): the normal strategy

    def push(d: dict):
        """Append d to the basis and update the pairs (Gebauer-Moeller)."""
        lm = _lead(d, key)
        if sum(lm) > cap:
            raise DegreeCapExceeded(f"basis degree {sum(lm)} exceeds cap {cap}")
        d = _monic(d, lm)
        tail = tuple((e, c) for e, c in d.items() if e != lm)
        k = len(basis)
        # B: drop an old pair (i, j) whose lcm the new lead divides, unless
        # the pair of i or of j with the new element has the same lcm
        for (i, j), lcm in list(live.items()):
            if (
                _divides(lm, lcm)
                and _lcm(basis[i][0], lm) != lcm
                and _lcm(basis[j][0], lm) != lcm
            ):
                del live[(i, j)]
        # new pairs by lcm; None marks an lcm shared with a coprime pair.  The
        # cap sees every non-coprime pair, also those the criteria drop.
        by_lcm: dict = {}
        for j, (lmj, _, _) in enumerate(basis):
            lcm = _lcm(lm, lmj)
            coprime = all(a == 0 or b == 0 for a, b in zip(lm, lmj))
            if not coprime and sum(lcm) > cap:
                raise DegreeCapExceeded(f"s-pair degree exceeds cap {cap}")
            if j in active:
                by_lcm[lcm] = None if coprime else by_lcm.get(lcm, j)
        # M and F: keep one pair per lcm that no other new lcm strictly
        # divides, and none for an lcm with a coprime pair
        for lcm, j in by_lcm.items():
            if j is None or any(o != lcm and _divides(o, lcm) for o in by_lcm):
                continue
            live[(k, j)] = lcm
            heappush(heap, (sum(lcm), lcm, k, j))
        active.difference_update([j for j in active if _divides(lm, basis[j][0])])
        active.add(k)
        basis.append((lm, tail, d))
        reducers.append((lm, tail))

    for d in gens:
        if d:
            push(dict(d))

    while heap:
        _, _, i, j = heappop(heap)
        if (i, j) not in live:
            continue  # dropped by the B criterion
        del live[(i, j)]
        s = _spair_poly(basis[i][2], basis[i][0], basis[j][2], basis[j][0])
        r = _nf_dict(s, reducers, key, cap)
        if r:
            push(r)

    # minimalize: drop elements whose lead is strictly divisible by another
    # lead (weighted orders are not well-orders across degrees, so key order
    # says nothing about divisibility; check all pairs)
    order_idx = sorted(range(len(basis)), key=lambda i: key(basis[i][0]))
    kept: list = []
    for rank, i in enumerate(order_idx):
        lm = basis[i][0]
        drop = False
        for other_rank, j in enumerate(order_idx):
            if i == j:
                continue
            lm_j = basis[j][0]
            if _divides(lm_j, lm) and (lm_j != lm or other_rank < rank):
                drop = True
                break
        if not drop:
            kept.append(basis[i])

    # tail-reduce each kept element against the others
    out = []
    for idx, (lm, _tail, d) in enumerate(kept):
        others = [(k_lm, k_tail) for j, (k_lm, k_tail, _) in enumerate(kept) if j != idx]
        r = _nf_dict(d, others, key, cap)
        rlm = _lead(r, key)
        out.append(_monic(r, rlm))
    out.sort(key=lambda d: key(_lead(d, key)))
    return out


def _order_key(order: OrderSpec, n: int) -> Callable:
    if order.weight is not None:
        order = order.refine(normalize_weight(order.weight, n))
    return order.key_function(n)


def _block_key(n_total: int, drop: tuple) -> Callable:
    """Elimination order: grevlex on the dropped block first, then grevlex
    on the remaining variables."""
    rest = tuple(i for i in range(n_total) if i not in drop)
    drop_rev = tuple(reversed(drop))
    rest_rev = tuple(reversed(rest))

    def key(e):
        return (
            sum(e[i] for i in drop),
            tuple(-e[i] for i in drop_rev),
            sum(e[i] for i in rest),
            tuple(-e[i] for i in rest_rev),
        )

    return key


def _to_dict(f: Polynomial) -> dict:
    return dict(f.terms)


def _to_poly(n: int, d: dict) -> Polynomial:
    return Polynomial(n, d)


# -- public operations ----------------------------------------------------


def normal_form(
    f: Polynomial,
    G: Sequence[Polynomial],
    order: OrderSpec = GREVLEX,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> Polynomial:
    """Remainder of f on division by G: f minus the remainder lies in (G) and
    no term of the remainder is divisible by a leading monomial of G.

    Divisors are scanned in ascending leading-monomial order, which fixes the
    result for non-Groebner G.
    """
    if not f:
        return f
    key = _order_key(order, f.n)
    prepared = []
    for g in G:
        if not g:
            raise ValueError("zero polynomial in divisor list")
        d = _to_dict(g)
        lm = _lead(d, key)
        d = _monic(d, lm)
        prepared.append((lm, tuple((e, c) for e, c in d.items() if e != lm)))
    prepared.sort(key=lambda r: key(r[0]))
    return _to_poly(f.n, _nf_dict(_to_dict(f), prepared, key, degree_cap))


def buchberger(
    I: Ideal, order: OrderSpec = GREVLEX, degree_cap: int = DEFAULT_DEGREE_CAP
) -> GroebnerBasis:
    """The reduced Groebner basis of I, memoized in ``I.gb_cache`` with the
    cap it was computed under and served to any cap at least that large."""
    hit = I.gb_cache.get(order)
    if hit is not None and hit[1] <= degree_cap:
        return hit[0]
    key = _order_key(order, I.n)
    dicts = _buchberger_dicts([_to_dict(g) for g in I.generators], key, degree_cap)
    gb = GroebnerBasis(order, [_to_poly(I.n, d) for d in dicts])
    I.gb_cache[order] = (gb, degree_cap)
    return gb


def leading_ideal(
    I: Ideal, order: OrderSpec = GREVLEX, degree_cap: int = DEFAULT_DEGREE_CAP
) -> Ideal:
    """The monomial ideal of leading monomials of the reduced basis."""
    gb = buchberger(I, order, degree_cap)
    key = _order_key(order, I.n)
    gens = []
    for g in gb:
        lm = max((e for e, _ in g.terms), key=key)
        gens.append(Polynomial.monomial(I.n, lm))
    return Ideal(I.n, gens, graded=I.graded)


def initial_ideal(
    I: Ideal,
    w,
    order: OrderSpec = GREVLEX,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> Ideal:
    """The initial ideal of a graded I for weight w (minimal-weight forms).

    Generators are the initial forms of the reduced basis with respect to the
    w-refined order; they constitute the reduced Groebner basis of the result
    with respect to the unrefined base order, so two initial ideals computed
    here with the same base order are equal iff their generator tuples agree.
    """
    if not I.graded:
        raise NotGradedError("initial ideals require a graded ideal")
    wn = normalize_weight(w, I.n)
    # a weight that normalizes to zero refines nothing: reuse the plain basis
    refined = order if not any(wn) else order.refine(wn)
    gb = buchberger(I, refined, degree_cap)
    gens = [initial_form(wn, g) for g in gb]
    gens.sort(key=lambda p: p.terms)
    return Ideal(I.n, gens)


def ideal_equal(
    I: Ideal, J: Ideal, order: OrderSpec = GREVLEX,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> bool:
    """Equality via uniqueness of the reduced Groebner basis."""
    if I.n != J.n:
        raise ValueError("ambient variable counts differ")
    return (
        buchberger(I, order, degree_cap).elements
        == buchberger(J, order, degree_cap).elements
    )


def _eliminate_dicts(gens: list, n_total: int, drop: tuple, cap: int) -> list:
    key = _block_key(n_total, drop)
    out = _buchberger_dicts(gens, key, cap)
    kept = []
    for d in out:
        if all(all(e[i] == 0 for i in drop) for e in d):
            kept.append(d)
    return kept


def eliminate(
    I: Ideal, drop, degree_cap: int = DEFAULT_DEGREE_CAP
) -> Ideal:
    """Generators of I intersected with the subring omitting the ``drop``
    variables (1-based indices), via a block order with the dropped block
    first.  The result is presented in the same ambient ring."""
    drop = tuple(sorted(set(drop)))
    if not drop:
        return I
    if any(not 1 <= i <= I.n for i in drop) or len(drop) >= I.n:
        raise ValueError("drop must be a proper subset of the variables")
    drop0 = tuple(i - 1 for i in drop)
    dicts = _eliminate_dicts([_to_dict(g) for g in I.generators], I.n, drop0, degree_cap)
    if not dicts:
        raise ValueError("elimination ideal is zero")
    return Ideal(I.n, [_to_poly(I.n, d) for d in dicts], graded=I.graded)


def saturate(
    I: Ideal, f: Polynomial, degree_cap: int = DEFAULT_DEGREE_CAP
) -> Ideal:
    """The saturation (I : f^infinity).

    Computed by adjoining an auxiliary variable y, forming I + (1 - y*f) and
    eliminating y; the auxiliary ideal is the one non-graded computation in
    the package, and the result is re-verified homogeneous.
    """
    if not f:
        raise ValueError("cannot saturate by the zero polynomial")
    if f.n != I.n:
        raise ValueError("ambient variable counts differ")
    n1 = I.n + 1
    lifted = [{e + (0,): c for e, c in g.terms} for g in I.generators]
    aux = {(0,) * n1: Fraction(1)}
    for e, c in f.terms:
        ee = e + (1,)
        aux[ee] = aux.get(ee, Fraction(0)) - c
    lifted.append(aux)
    dicts = _eliminate_dicts(lifted, n1, (I.n,), degree_cap)
    if not dicts:
        raise ValueError("saturation is zero, which cannot happen for I != (0)")
    gens = [_to_poly(I.n, {e[:-1]: c for e, c in d.items()}) for d in dicts]
    return Ideal(I.n, gens, graded=True)


def is_unit_ideal(I: Ideal, degree_cap: int = DEFAULT_DEGREE_CAP) -> bool:
    """True iff I = (1)."""
    if any(g.is_monomial() and g.degree == 0 for g in I.generators):
        return True
    gb = buchberger(I, GREVLEX, degree_cap)
    return len(gb) == 1 and gb.elements[0].degree == 0


def contains_monomial(I: Ideal, degree_cap: int = DEFAULT_DEGREE_CAP) -> bool:
    """True iff I contains some monomial, i.e. saturating by the product of
    all variables gives the unit ideal."""
    for g in I.generators:
        if g.is_monomial():
            return True
    gb = buchberger(I, GREVLEX, degree_cap)
    for g in gb:
        if g.is_monomial():
            return True
    if is_unit_ideal(I, degree_cap):
        return True
    prod = Polynomial.monomial(I.n, (1,) * I.n)
    return is_unit_ideal(saturate(I, prod, degree_cap), degree_cap)
