"""Buchberger engine: normal forms, reduced Groebner bases, weighted initial
ideals, monomial saturation and the monomial-containment test, all of
graded ideals.

All arithmetic is exact.  The engine reduces fraction-free over the
integers: an ``Ideal`` keeps its generators, and a ``GroebnerBasis`` its
elements, as primitive integer polynomials (content 1, positive leading
coefficient).  Leads, weighted initial ideals and derived ideals are read
from them, and monic Fraction ``Polynomial``s are built only when first
read.  The remainders of ``normal_form`` are exact over the rationals.
Generators enter a run reduced by the basis so far, as s-polynomials do.
A run on an ideal whose reduced grevlex basis is cached enters that basis in
place of the generators: it generates the same ideal and is inter-reduced
already, and the reduced basis under the run's order is unique, so the
result is the same, with fewer divisions and pairs.  The degree cap still
bounds every element pushed and every pair formed.
S-pairs are pruned when formed, by the Gebauer-Moeller criteria M and F
(with the coprimality criterion), and taken from a heap by the normal
strategy (smallest lcm degree first).  A run whose ideal has a known
Hilbert series (``known_numerator``) stops, in place of the criterion B,
as soon as the leads of its basis have that series: they then generate
the initial ideal, so every pending pair would reduce to zero (Traverso
1996, "Hilbert functions and the Buchberger algorithm").  Every sort and
tie-break is fixed, so identical inputs produce bit-identical output.
Each ``Ideal`` carries a degree cap (default 40) that aborts runaway
computations on it with ``DegreeCapExceeded`` instead of hanging.  An
ideal the engine derives from its own forms inherits what its parent knows:
its cap, its memo of Hilbert checks and, for an initial ideal, its reduced
grevlex basis, which is its forms (Sturmfels 1996, "Groebner Bases and
Convex Polytopes", Prop. 1.8 and Cor. 1.9).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain, islice
from math import gcd, lcm
from operator import add, sub

from .poly import (
    GREVLEX,
    OrderSpec,
    Polynomial,
    UsageError,
    check_exponents,
    initial_terms,
    normalize_weight,
)

DEFAULT_DEGREE_CAP = 40
# how many of the newest cached bases an ideal tries, after its
# grevlex basis, before running Buchberger for a new order
_CONE_WINDOW = 6


class DegreeCapExceeded(RuntimeError):
    """A Groebner computation produced a polynomial above the degree cap."""


class NotGradedError(ValueError):
    """An ideal constructor received a non-homogeneous generator."""


class Ideal:
    """A nonzero graded ideal given by generators, with the degree cap of
    every computation on it and memos of its reduced bases, of its generic
    transforms and of its generic initial ideals.

    Generators are homogeneous ``Polynomial``s or integer dicts
    {exponents: int}.  ``forms`` holds them as primitive integer forms
    ((exponents, int) terms in grevlex order, content 1, positive leading coefficient), so
    scalar multiples give equal ``key()``s; ``generators`` are their monic
    ``Polynomial``s, in input order, built when first read.  Every Groebner
    computation on the ideal runs under ``degree_cap``.  Every ideal derived
    from it (transformed, initial, saturated) is built by ``_derive``
    without the constructor's checks, inherits the cap, so one cap bounds a
    whole analysis, and shares ``hilbert_memo``, which maps the minimal
    leads of a Hilbert check to its numerator (see ``_buchberger_dicts``).
    The ideal is the only place results are cached, and every entry was
    computed under its one cap.  ``gb_cache`` maps an OrderSpec to the
    reduced basis; a cached basis also serves any order whose Groebner cone
    contains it (see ``buchberger``), so the cap bounds every computation
    performed, not the runs a reused basis skips.  ``images`` maps an
    immutable and hashable GenericityPolicy to the tuple of transformed
    ideals (see ``generic.transformed``), and ``gins`` maps an (OrderSpec,
    policy) pair to the generic initial ideal (see ``generic.gin``).
    ``initials`` interns the weighted initial ideals (see
    ``initial_ideal``): it maps a normalized weight, and the forms of an
    initial ideal, to one shared ``Ideal``, so equal initial ideals share
    their cached bases.  ``numerator`` memoizes the numerator of the Hilbert
    series of S/I (see ``hilbert_numerator``), which every Buchberger run on
    the ideal takes as the target that ends it.  It is read from the leads
    of any cached basis, or handed down by the parent of an initial ideal or
    of an invertible transform (``generic.apply_transform``), which has the
    same series; until then it is None.
    """

    __slots__ = (
        "n", "forms", "degree_cap", "hilbert_memo", "gb_cache", "images", "gins",
        "initials", "numerator", "_gens",
    )

    def __init__(
        self, n: int, generators: Iterable,
        degree_cap: int = DEFAULT_DEGREE_CAP,
    ):
        if degree_cap < 1:
            raise ValueError(f"degree cap {degree_cap} is below 1")
        gens = []
        for g in generators:
            if isinstance(g, Polynomial):
                if g.n != n:
                    raise ValueError("generator has wrong ambient variable count")
                g = dict(g.terms)
            else:
                for e, c in g.items():
                    check_exponents(e, n)
                    if not isinstance(c, int) or not c:
                        raise ValueError(f"coefficient {c!r} is not a nonzero int")
            if not g:
                continue
            degree = sum(next(iter(g)))
            if any(sum(e) != degree for e in g):
                raise NotGradedError(f"non-homogeneous generator: {Polynomial(n, g)}")
            gens.append(_primitive(g))
        if not gens:
            raise UsageError("the zero ideal is not supported")
        self.n, self.degree_cap, self.hilbert_memo = n, degree_cap, {}
        self._set_forms(gens)

    def _derive(self, gens: Iterable[dict]) -> Ideal:
        """The ideal of ``gens``, nonzero homogeneous integer dicts the engine
        derived from this ideal's forms, built without the constructor's
        checks; it inherits the cap and shares the memo of Hilbert checks."""
        J = Ideal.__new__(Ideal)
        J.n, J.degree_cap, J.hilbert_memo = self.n, self.degree_cap, self.hilbert_memo
        J._set_forms(list(gens))
        return J

    def _set_forms(self, gens: list) -> None:
        """Store integer dicts as primitive forms sorted by one grevlex key."""
        top = max(self.degree_cap, *(sum(next(iter(g))) for g in gens))
        key = GREVLEX.key_function(self.n, top)
        forms = []
        for g in gens:
            terms = sorted(g.items(), key=lambda t: key(t[0]), reverse=True)
            c = gcd(*g.values()) if terms[0][1] > 0 else -gcd(*g.values())
            forms.append(tuple(terms) if c == 1 else tuple((e, v // c) for e, v in terms))
        self.forms = tuple(forms)
        self.gb_cache: dict = {}
        self.images: dict = {}
        self.gins: dict = {}
        self.initials: dict = {}
        self.numerator = None
        self._gens = None

    @property
    def generators(self) -> tuple:
        if self._gens is None:
            self._gens = tuple(
                Polynomial(self.n, _monic((f[0][0], f[0][1], f[1:]))) for f in self.forms
            )
        return self._gens

    def key(self) -> tuple:
        """Hashable identity of the presented ideal (ambient + forms)."""
        return (self.n, self.forms)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"Ideal({self.n}; {gens})"


class GroebnerBasis:
    """A reduced Groebner basis, held as the engine's primitive integer
    reducers in ascending order of leading monomial.

    ``leads`` are the leading exponent vectors; ``elements`` are the monic
    Fraction polynomials, built the first time they are read."""

    __slots__ = ("order", "n", "_reducers", "_elements")

    def __init__(self, order: OrderSpec, n: int, reducers: Sequence[tuple]):
        self.order = order
        self.n = n
        self._reducers = tuple(reducers)
        self._elements = None

    @property
    def leads(self) -> tuple:
        return tuple(r[0] for r in self._reducers)

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            self._elements = tuple(Polynomial(self.n, _monic(r)) for r in self._reducers)
        return self._elements

    def has_monomial_initial_form(self, w) -> bool:
        """Whether some element's w-initial form (its terms of minimal
        w-weight) is a single term, which puts a monomial in the weighted
        initial ideal.  ``w`` holds ints or Fractions, so weights are exact."""
        if len(w) != self.n:
            raise ValueError("weight length does not match variable count")
        return any(
            len(initial_terms(w, ((lm, lc),) + tail)) == 1 for lm, lc, tail in self._reducers
        )

    def cell_contains(self, v=None, cone=None, ray=None) -> bool:
        """Whether the Groebner cell of the basis's weight w (the weights v
        with in_v(I) = in_w(I); w = 0 for an order without weight) contains
        the point ``v``, or given ``ray`` (1-based j) the ray w + s e_j,
        s >= 0; given ``cone``, whether the basis certifies that in_v(I) is
        constant on a whole open cone, which need not hold w.  No basis at
        any other weight is computed.

        The basis G is reduced under an order refined by w, so in_v(I) =
        in_w(I) iff in_v(g) = in_w(g) for every g in G (Sturmfels 1996,
        "Groebner Bases and Convex Polytopes", Prop. 2.3; Mora and Robbiano
        1988, "The Groebner fan of an ideal").  The point form asks that of
        each reducer's terms of least weight; ``v`` holds ints or Fractions.
        The ray form adds s e_j to the weight of each term e, so it asks that
        each reducer's initial terms share the lead's x_j exponent and that
        no term have a smaller one.

        ``cone`` is (min_set, middle, top), the 1-based index sets of a
        ``fans.ConeId``: the minimum on the min-set A, every top value above
        every middle value, and for a skeleton cone (no middle, no top) every
        coordinate outside A in the middle M.  Let e0 be a reducer's lead and
        c = e - e0 outside A for a tail term e.  The closed cone, shifted to
        a zero minimum, is spanned by e_t for t in the top T and by
        (chi_S, 1_T) for S within M, so v . c >= 0 on it iff c_t >= 0 on T
        and sum_M min(c_m, 0) + sum_T c_t >= 0.  The cone form asks that of
        every tail term: every element then keeps its lead e0 under v refined
        by the basis's order, for each v of the closed cone, so G is a
        Groebner basis there too and in_v(I) is generated by the in_v(g).
        Each in_v(g) is e0 and the terms with c = 0 at every v of the open
        cone, since v . c >= 0 on the cone and vanishing at one interior
        point vanishes on all of it.  So a True says in_v(I) is constant on
        the open cone, whatever w the basis was computed at.  A False is
        exact when the open cone holds w: some v of the open cone then ranks
        the failing term above e0, so in_v(I) != in_w(I).  The walk stops at
        the first failing term."""
        w = self.order.weight or (0,) * self.n
        if ray is not None:
            if not 1 <= ray <= self.n:
                raise ValueError(f"direction {ray} out of range")
            j = ray - 1
            return all(
                all(e[j] >= lm[j] for e, _ in tail)
                and all(e[j] == lm[j] for e, _ in initial_terms(w, ((lm, lc),) + tail))
                for lm, lc, tail in self._reducers)
        if cone is None:
            if len(v) != self.n:
                raise ValueError("weight length does not match variable count")
            return all(
                initial_terms(v, terms) == initial_terms(w, terms)
                for terms in (((lm, lc),) + tail for lm, lc, tail in self._reducers)
            )
        low_set, middle, top = cone
        if not middle and not top:
            middle = set(range(1, self.n + 1)) - set(low_set)
        middle = [i - 1 for i in sorted(middle)]
        top = [i - 1 for i in sorted(top)]
        for lm, _, tail in self._reducers:
            for e, _ in tail:
                s = 0
                for i in top:
                    c = e[i] - lm[i]
                    if c < 0:
                        return False
                    s += c
                for i in middle:
                    c = e[i] - lm[i]
                    if c < 0:
                        s += c
                if s < 0:
                    return False
        return True

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self._reducers)

    def __repr__(self):
        return f"GroebnerBasis({self.order}, [{', '.join(str(g) for g in self.elements)}])"


# -- dict-level engine ----------------------------------------------------
#
# Inside the engine a polynomial is a dict {exponents: int}.  A basis element
# is kept primitive (content 1, positive leading coefficient) as a reducer
# (leading exponents, leading coefficient, tail), where the tail lists the
# non-leading terms in descending order of the basis's order.  Every engine
# polynomial is a nonzero rational multiple of the monic one, so leads, pair
# decisions and reduced bases are those of division over the rationals;
# ``_primitive`` and ``_monic`` convert at the boundary, where ``Ideal`` and
# ``normal_form`` meet ``Polynomial``s.

def divides(a, b) -> bool:
    """Whether the monomial with exponent vector ``a`` divides that of ``b``."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _lcm(a, b) -> tuple:
    return tuple(map(max, a, b))


def _primitive(d: dict, lm=None) -> dict:
    """The integer multiple of d (int or Fraction values) with content 1 and,
    if its leading exponents lm are given, a positive leading coefficient."""
    den = lcm(*(c.denominator for c in d.values()))
    ints = {e: c.numerator * (den // c.denominator) for e, c in d.items()}
    g = gcd(*ints.values())
    if lm is not None and ints[lm] < 0:
        g = -g
    if g == 1:
        return ints
    return {e: c // g for e, c in ints.items()}


def _poly(r: tuple) -> dict:
    """The integer polynomial of a reducer, as {exponents: int}."""
    d = dict(r[2])
    d[r[0]] = r[1]
    return d


def _reducer(d: dict, lm) -> tuple:
    """The reducer (lm, lc, tail) of the primitive multiple of the integer
    polynomial d, whose leading exponents are lm; d may be consumed."""
    g = gcd(*d.values())
    if d[lm] < 0:
        g = -g
    if g != 1:
        d = {e: c // g for e, c in d.items()}
    lc = d.pop(lm)
    return lm, lc, tuple(d.items())


def _monic(r: tuple) -> dict:
    """The monic rational polynomial of a reducer, as {exponents: Fraction}."""
    lm, lc, tail = r
    out = {e: Fraction(c, lc) for e, c in tail}
    out[lm] = Fraction(1)
    return out


def _nf_dict(f: dict, reducers, key: Callable, cap: int) -> tuple:
    """Division of the integer polynomial f by ``reducers``, fraction-free.

    Returns (R, lead, scale): R is congruent to scale * f modulo the
    reducers and no term of R is divisible by a reducer's leading monomial;
    lead is R's leading monomial (None when R is zero).  ``key`` is an
    integer order key exact on f's terms and on every term up to ``cap``."""
    coeffs = dict(f)
    # a min-heap on -key pops terms in descending order
    heap = [(-key(e), e) for e in coeffs]
    heapify(heap)
    remainder: dict = {}
    lead = None
    scale = 1
    while heap:
        _, e = heappop(heap)
        c = coeffs.pop(e, 0)
        if not c:
            continue
        for r in reducers:
            if divides(r[0], e):
                break
        else:
            # terms leave the heap in descending order, so the first one
            # kept is the leading monomial of the remainder
            if lead is None:
                lead = e
            remainder[e] = c
            continue
        lm, lc, tail = r
        if lc != 1:
            g = gcd(lc, c)
            a = lc // g
            c //= g
            if a != 1:
                scale *= a
                for k in coeffs:
                    coeffs[k] *= a
                for k in remainder:
                    remainder[k] *= a
        shift = tuple(map(sub, e, lm))
        for e2, c2 in tail:
            ee = tuple(map(add, shift, e2))
            prev = coeffs.get(ee)
            if prev is None:
                if sum(ee) > cap:
                    raise DegreeCapExceeded(
                        f"degree {sum(ee)} exceeds cap {cap} during reduction"
                    )
                coeffs[ee] = -c * c2
                heappush(heap, (-key(ee), ee))
            else:
                nv = prev - c * c2
                if nv:
                    coeffs[ee] = nv
                else:
                    del coeffs[ee]
    return remainder, lead, scale


def _spair_poly(ri: tuple, rj: tuple) -> dict:
    """The s-polynomial of two reducers, scaled to integer coefficients; the
    leading terms cancel, so only the tails contribute."""
    lmi, lci, taili = ri
    lmj, lcj, tailj = rj
    g = gcd(lci, lcj)
    mi, mj = lcj // g, lci // g
    lcm = _lcm(lmi, lmj)
    si = tuple(map(sub, lcm, lmi))
    sj = tuple(map(sub, lcm, lmj))
    acc: dict = {}
    for e, c in taili:
        acc[tuple(map(add, si, e))] = mi * c
    for e, c in tailj:
        ee = tuple(map(add, sj, e))
        nv = acc.get(ee, 0) - mj * c
        if nv:
            acc[ee] = nv
        elif ee in acc:
            del acc[ee]
    return acc


def _buchberger_dicts(gens: Iterable[dict], key: Callable, cap: int, target=None,
                      memo: dict | None = None) -> list:
    """Reduced Groebner basis of the ideal generated by ``gens``, primitive
    integer polynomials {exponents: int}.

    Each generator is checked against ``cap``, then enters the basis as its
    normal form by the basis built so far, as an s-polynomial does.  So no
    lead divides a later one, and ``active``, the elements whose lead no
    later lead divides, is the minimal basis.  A new element pairs with the
    active ones that the criteria M and F keep (Gebauer and Moeller 1988),
    and no pending pair is dropped later.
    ``target``, if given, is the Hilbert numerator of the ideal (see
    ``hilbert_numerator``).  The leads of the basis generate an ideal inside
    the initial ideal, with the same series only if the two are equal; so
    once the leads of ``active`` reach the target the basis is Groebner and
    the pending pairs are skipped.  ``memo``, if given, maps the frozenset
    of minimal leads of a check to its numerator; the check reads it before
    computing one and adds what it computes.  Returns the primitive reducers
    (lm, lc, tail) of the minimal basis, tail-reduced and sorted ascending
    by the key of the leading monomial.
    """
    basis: list = []      # reducers (lm, lc, tail)
    active: set = set()   # indices whose lead no later lead divides
    heap: list = []       # pending pairs (deg lcm, lcm, i, j): the normal strategy

    def push(red: tuple):
        """Append the reducer red to the basis and add its pairs with the
        active elements that the criteria M and F keep."""
        lm = red[0]
        if sum(lm) > cap:
            raise DegreeCapExceeded(f"basis degree {sum(lm)} exceeds cap {cap}")
        k = len(basis)
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
            if j is None or any(o != lcm and divides(o, lcm) for o in by_lcm):
                continue
            heappush(heap, (sum(lcm), lcm, k, j))
        active.difference_update([j for j in active if divides(lm, basis[j][0])])
        active.add(k)
        basis.append(red)

    for d in gens:
        # the cap binds a generator that reduces to zero too
        degree = max(map(sum, d))
        if degree > cap:
            raise DegreeCapExceeded(f"generator degree {degree} exceeds cap {cap}")
        r, lm, _ = _nf_dict(d, basis, key, cap)
        if r:
            push(_reducer(r, lm))

    checked = 0  # basis size at the last comparison with the target
    memo = {} if memo is None else memo
    while heap:
        _, _, i, j = heappop(heap)
        if target is not None and checked < len(basis):
            checked = len(basis)
            # the leads of ``active`` are the minimal ones: no lead divides a later one
            leads = frozenset(basis[k][0] for k in active)
            q = memo.get(leads)
            if q is None:
                q = memo[leads] = hilbert_numerator(len(basis[0][0]), leads)
            if q == target:
                break
        r, lm, _ = _nf_dict(_spair_poly(basis[i], basis[j]), basis, key, cap)
        if r:
            push(_reducer(r, lm))

    kept = [basis[i] for i in sorted(active, key=lambda i: key(basis[i][0]))]
    # tail-reduce each kept element against the others; no other lead
    # divides its lead, so the order of ``kept`` is the order of the output
    out = []
    for idx, r in enumerate(kept):
        others = kept[:idx] + kept[idx + 1:]
        if any(divides(o[0], e) for e, _ in r[2] for o in others):
            red, rlm, _ = _nf_dict(_poly(r), others, key, cap)
            r = _reducer(red, rlm)
        out.append(r)
    return out


# -- Hilbert series -------------------------------------------------------


def minimal_monomials(gens) -> frozenset:
    """The divisibility-minimal elements of the exponent vectors ``gens``."""
    kept: list = []
    for e in sorted(set(gens), key=sum):
        if not any(divides(k, e) for k in kept):
            kept.append(e)
    return frozenset(kept)


def hilbert_numerator(n: int, leads: Iterable) -> tuple:
    """The numerator Q of the Hilbert series Q(t) / (1-t)^n of S/M, where M
    is the monomial ideal generated by the exponent vectors ``leads`` (any
    generating set), as its coefficients from t^0 up, without trailing
    zeros: (1,) for M = 0 and (0,) for M = S.

    The leads of a reduced Groebner basis of a graded ideal I give the
    series of S/I.  Splits on a pivot variable p, the one that divides the
    most minimal generators that are not pure powers (the first of those
    that tie): a monomial outside M either avoids p, so lies outside
    M + (p), or is p times a monomial outside M : p, one degree lower."""
    memo: dict = {}

    def num(gens: frozenset) -> tuple:
        q = memo.get(gens)
        if q is not None:
            return q
        mixed = [e for e in gens if sum(map(bool, e)) > 1]
        if not mixed:
            # pure powers x_i^d: the product of the factors 1 - t^d
            # (d = 0, the unit ideal, gives 0)
            out = [1]
            for e in gens:
                d = sum(e)
                out = list(map(sub, out + [0] * d, [0] * d + out))
        else:
            counts = [sum(1 for e in mixed if e[i]) for i in range(n)]
            p = counts.index(max(counts))
            unit = tuple(int(i == p) for i in range(n))
            out = list(num(frozenset([e for e in gens if not e[p]] + [unit])))
            colon = num(minimal_monomials(e[:p] + (max(e[p] - 1, 0),) + e[p + 1:] for e in gens))
            out += [0] * (len(colon) + 1 - len(out))
            for k, c in enumerate(colon, 1):
                out[k] += c
        while len(out) > 1 and not out[-1]:
            out.pop()
        q = memo[gens] = tuple(out)
        return q

    return num(minimal_monomials(leads))


# -- public operations ----------------------------------------------------


def normal_form(
    f: Polynomial,
    G: Sequence[Polynomial],
    order: OrderSpec = GREVLEX,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> Polynomial:
    """Remainder of f on division by G: f minus the remainder lies in (G) and
    no term of the remainder is divisible by a leading monomial of G.

    Leads and terms are ranked by ``order`` as given: its weight is not
    normalized, since shifting a weight changes leads of non-homogeneous
    polynomials.  Divisors are scanned in ascending leading-monomial order,
    which fixes the result for non-Groebner G.  The remainder is exact:
    division runs on integer multiples of f and G, and the result is scaled
    back.  ``degree_cap`` aborts a division whose terms outgrow it.
    """
    if not f:
        return f
    if not all(G):
        raise ValueError("zero polynomial in divisor list")
    # input terms are never cap-checked, so the key must also cover them
    key = order.key_function(f.n, max([degree_cap, f.degree] + [g.degree for g in G]))
    prepared = []
    for g in G:
        d = _primitive(dict(g.terms))
        prepared.append(_reducer(d, max(d, key=key)))
    prepared.sort(key=lambda r: key(r[0]))
    F = _primitive(dict(f.terms))
    R, _, scale = _nf_dict(F, prepared, key, degree_cap)
    e0, c0 = f.terms[0]
    ratio = c0 / (F[e0] * scale)  # f = F * c0 / F[e0]
    return Polynomial(f.n, {e: c * ratio for e, c in R.items()})


def _resorted(reducers, key: Callable):
    """If every reducer's lead outranks each of its tail terms under
    ``key``, the reducers listed as a run under ``key`` lists them: by
    ascending lead, each tail descending.  Else None, from the first term
    that outranks its lead."""
    out = []
    for lm, lc, tail in reducers:
        k = key(lm)
        keyed = []
        for t in tail:
            x = key(t[0])
            if x > k:
                return None
            keyed.append((x, t))
        keyed.sort(reverse=True)
        out.append((k, (lm, lc, tuple(t for _, t in keyed))))
    out.sort()
    return [r for _, r in out]


def _cone_hit(I: Ideal, key: Callable):
    """The reducers of a cached basis of I that is the reduced basis under
    ``key`` too, listed as a run under ``key`` lists them, or None.

    If every element of a reduced basis keeps its lead under a new order,
    the new initial ideal contains the old one; both have the Hilbert
    function of I, so they are equal, and the basis is the new reduced basis
    (the new order lies in its Groebner cone).  Candidates are the grevlex
    basis, then the newest ``_CONE_WINDOW`` entries."""
    entries = islice(reversed(I.gb_cache.values()), _CONE_WINDOW)
    grevlex = I.gb_cache.get(GREVLEX)
    if grevlex is not None:
        entries = chain((grevlex,), entries)
    for gb in entries:
        reds = _resorted(gb._reducers, key)
        if reds is not None:
            return reds
    return None


def known_numerator(I: Ideal):
    """The Hilbert numerator of I: ``I.numerator``, read from the leads of a
    cached basis if unset; None while I has neither.  Ideals with the same
    series (initial ideals, invertible transforms) take it over."""
    if I.numerator is None and I.gb_cache:
        I.numerator = hilbert_numerator(I.n, next(iter(I.gb_cache.values())).leads)
    return I.numerator


def buchberger(I: Ideal, order: OrderSpec = GREVLEX) -> GroebnerBasis:
    """The reduced Groebner basis of I, computed under ``I.degree_cap`` and
    memoized in ``I.gb_cache``.

    A weight is normalized (``normalize_weight``), which for a graded ideal
    changes no lead, and one that normalizes to zero is dropped; the basis
    is cached, ordered and returned under the normalized order.  A cached
    basis whose Groebner cone contains the new order (every element keeps
    its lead) is served before any run, its reducers and their tails
    re-sorted by the new order, so a basis does not depend on the cache
    history of I.  The cap bounds every computation performed: a reused
    basis skips a run that might have aborted.  A run enters the reducers
    of I's cached grevlex basis, when there is one, and I's forms
    otherwise: both generate I, so the reduced basis is the same, and the
    cached basis is inter-reduced already, so its elements reduce little on
    entry and form few pairs.  ``I.degree_cap`` still bounds every element
    pushed and every pair formed.  A run takes the Hilbert numerator of I,
    when known, as its target (see ``_buchberger_dicts``)."""
    if order.weight is not None:
        wn = normalize_weight(order.weight, I.n)
        order = OrderSpec(order.base, order.perm, wn if any(wn) else None)
    hit = I.gb_cache.get(order)
    if hit is not None:
        return hit
    key = order.key_function(I.n, I.degree_cap)
    reds = _cone_hit(I, key)
    if reds is None:
        grevlex = I.gb_cache.get(GREVLEX)
        gens = map(dict, I.forms) if grevlex is None else map(_poly, grevlex._reducers)
        reds = _buchberger_dicts(gens, key, I.degree_cap, known_numerator(I), I.hilbert_memo)
    gb = I.gb_cache[order] = GroebnerBasis(order, I.n, reds)
    return gb


def initial_ideal(I: Ideal, w) -> Ideal:
    """The initial ideal of I for weight w (minimal-weight forms).

    Generators are the initial forms of the reduced basis with respect to the
    w-refined grevlex order, read from its reducers by ``initial_terms``.  They
    constitute the reduced grevlex basis of the result (Sturmfels 1996, Prop.
    1.8 and Cor. 1.9), so J carries it, read from its forms.  Taken in the order
    of their leads, two initial ideals computed here are equal iff their
    ``forms`` agree.

    Results are interned in ``I.initials`` by their forms: every weight with
    the same initial ideal gets the same ``Ideal``, so later computations on
    it (a saturation, say) reuse its cached bases, and equal initial ideals
    of I are one object.  A weight seen before, up to shift and positive
    scaling, reads no basis of I.  J takes the Hilbert numerator of I, which
    is its own, so its first run already has a target.
    """
    wn = normalize_weight(w, I.n)
    J = I.initials.get(wn)
    if J is not None:
        return J
    J = I._derive(
        dict(initial_terms(wn, ((lm, lc),) + tail))
        for lm, lc, tail in sorted(buchberger(I, GREVLEX.refine(wn))._reducers)
    )
    J = I.initials[wn] = I.initials.setdefault(J.forms, J)
    if GREVLEX not in J.gb_cache:
        key = GREVLEX.key_function(J.n, J.degree_cap)
        J.gb_cache[GREVLEX] = GroebnerBasis(GREVLEX, J.n, sorted(
            ((f[0][0], f[0][1], f[1:]) for f in J.forms), key=lambda r: key(r[0])))
    J.numerator = known_numerator(I)
    return J


def ideal_equal(I: Ideal, J: Ideal, order: OrderSpec = GREVLEX) -> bool:
    """Equality via uniqueness of the reduced Groebner basis."""
    if I.n != J.n:
        raise ValueError("ambient variable counts differ")
    return buchberger(I, order).elements == buchberger(J, order).elements


def _saturation(I: Ideal, m: tuple, stop=None) -> Ideal | None:
    """(I : (x^m)^infinity) for an exponent vector m, saturating by one
    variable at a time (Bayer and Stillman 1987); None as soon as ``stop``
    holds for a step's basis.

    For each variable x_i of x^m, x_n first, a step takes the reduced basis
    of the ideal saturated so far under grevlex with x_i last (GREVLEX
    itself for x_n).  A homogeneous polynomial is divisible by a power of
    x_i iff its lead under that order is, so dividing every element by the
    largest power of x_i that divides it generates the saturation by x_i.
    A step that divides nothing keeps the ideal and its cached bases."""
    n = I.n
    J = I
    for i in reversed(range(n)):
        if not m[i]:
            continue
        order = GREVLEX if i == n - 1 else OrderSpec(
            "grevlex", tuple(k for k in range(1, n + 1) if k != i + 1) + (i + 1,)
        )
        gb = buchberger(J, order)
        if stop is not None and stop(gb):
            return None
        if any(lm[i] for lm, _, _ in gb._reducers):
            J = J._derive(
                {e[:i] + (e[i] - r[0][i],) + e[i + 1:]: c for e, c in _poly(r).items()}
                for r in gb._reducers
            )
    return J


def saturate(I: Ideal, f: Polynomial) -> Ideal:
    """The saturation (I : f^infinity) by a nonzero monomial f, generated by
    its reduced grevlex basis, which the result keeps in its cache; any
    other f raises ``ValueError``.  See ``_saturation``."""
    if f.n != I.n:
        raise ValueError("ambient variable counts differ")
    if not f.is_monomial():
        raise ValueError("can only saturate by a nonzero monomial")
    J = _saturation(I, f.terms[0][0])
    gb = buchberger(J, GREVLEX)
    S = J._derive(map(_poly, gb._reducers))
    S.gb_cache[GREVLEX] = J.gb_cache[GREVLEX]
    return S


def is_unit_ideal(I: Ideal) -> bool:
    """True iff I = (1): a graded ideal contains 1 iff one of its
    generators is a nonzero constant."""
    return any(not any(f[0][0]) for f in I.forms)


def contains_monomial(I: Ideal) -> bool:
    """True iff I contains some monomial, i.e. saturating by the product of
    all variables gives the unit ideal.

    Walks the steps of that saturation and stops at the first basis with a
    monomial element.  If the saturation is the unit ideal, the ideal the
    step for x_1 starts from holds a power of x_1, the least monomial of its
    degree under grevlex with x_1 last, so that step's basis has an element
    x_1^k; no further basis is needed."""
    return _saturation(
        I, (1,) * I.n, lambda gb: any(not tail for _, _, tail in gb._reducers)
    ) is None
