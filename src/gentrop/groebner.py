"""Buchberger engine: normal forms, reduced Groebner bases, weighted initial
ideals, monomial saturation and the monomial-containment test, all of
graded ideals.

All arithmetic is exact.  The engine reduces fraction-free over the
integers: an ``Ideal`` keeps its generators, and a ``GroebnerBasis`` its
elements, in one layout, as ``forms``: primitive integer polynomials
(content 1, positive leading coefficient), each a tuple of (exponents,
int) terms, lead first.  Leads, weighted initial ideals and derived ideals
are read from them, and monic Fraction ``Polynomial``s are built only when
first read.  The remainders of ``normal_form`` are exact over the rationals.
Inside a run a monomial is one int (``_Monomials``): fields sized by the
degree cap and the input degrees, and a linear order key above them.
Generators enter a run reduced by the basis so far, as s-polynomials do.
A run enters its ideal's own forms, whatever bases the ideal holds (see
``buchberger``).  The degree cap bounds every element pushed and every pair
formed.
S-pairs are pruned when formed, by the Gebauer-Moeller criteria M and F
(with the coprimality criterion), and taken from a heap by the normal
strategy (smallest lcm degree first).  ``buchberger`` records an ideal's
Hilbert series with its first basis, and a run whose ideal knows it stops,
in place of the criterion B, as soon as the leads of its basis have that
series: they then generate the initial ideal, so every pending pair would
reduce to zero (Traverso 1996, "Hilbert functions and the Buchberger
algorithm").  The monomial-containment test first asks an ideal that
holds its grevlex basis and Hilbert series whether that basis shows it
Cohen-Macaulay, its last d variables regular; if so, a nonzero trace of
one multiplication map, read off D normal forms, shows it monomial-free
with no run (``_trace_certifies``).  Any other ideal falls back to its
saturation by the product of all variables.  Saturation by a monomial
takes one variable at a time (Bayer and Stillman 1987), each step one
basis through ``buchberger`` (see ``_saturation``).  Every sort and
tie-break is fixed, so identical inputs produce bit-identical output.
Each ``Ideal`` carries a degree cap (default 40) that aborts runaway
computations on it with ``DegreeCapExceeded`` instead of hanging.  An
ideal the engine derives from its own forms inherits what its parent knows:
its cap, its memo of Hilbert checks and, for an initial ideal, its reduced
grevlex basis, which is its forms (Sturmfels 1996, "Groebner Bases and
Convex Polytopes", Prop. 1.8 and Cor. 1.9).  Each ``initial_ideal`` call
builds a fresh ideal.  An initial ideal and an invertible transform share
their parent's holder of the Hilbert numerator (``Ideal.series``), and a
saturation shares that of the last ideal of its walk, so a numerator
recorded with any one's basis ends the runs of all.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from heapq import heappop, heappush
from itertools import accumulate
from math import comb, gcd, lcm
from operator import mul, sub

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
    leads of a Hilbert check to its numerator (see ``_memo_numerator``).
    The ideal is the only place results are cached, and every entry was
    computed under its one cap.  ``gb_cache`` maps an OrderSpec to the
    reduced basis; a cached basis also serves any order whose Groebner cone
    contains it (see ``buchberger``), so the cap bounds every computation
    performed, not the runs a reused basis skips.  ``images`` maps an
    immutable and hashable GenericityPolicy to the tuple of transformed
    ideals (see ``generic.transformed``), ``gins`` maps a policy to the
    grevlex generic initial ideal (see ``generic.gin``), and
    ``members`` maps a (policy, weight) pair to the answer of
    ``generic.tropical_member``, with the sorted normalized weight under
    sampled transforms and the normalized weight itself under injected
    ones.  Weighted initial ideals are not memoized.  ``numerator``
    memoizes the numerator of the Hilbert series of S/I (see
    ``hilbert_numerator``), which every Buchberger run on the ideal takes
    as the target that ends it; ``buchberger`` sets it with the first basis
    it stores, and until then it is None.  It is held in ``series``, a
    one-item list that the ideals of one Hilbert series share: an
    invertible transform (``generic.apply_transform``) and an initial ideal
    take over their parent's, and a saturation that of the last ideal of
    its walk, so a numerator recorded with a basis of one of them is known
    to all.  A saturation step that divides gets a list of its own.
    ``has_monomial`` memoizes the answer of ``contains_monomial``, None
    until one is known.
    """

    __slots__ = (
        "n", "forms", "degree_cap", "hilbert_memo", "gb_cache", "images", "gins",
        "members", "series", "has_monomial", "_gens",
    )

    def __init__(
        self, n: int, generators: Iterable,
        degree_cap: int = DEFAULT_DEGREE_CAP,
    ):
        if not isinstance(degree_cap, int):
            raise ValueError(f"degree cap {degree_cap!r} is not an int")
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
        self.members: dict = {}
        self.series = [None]
        self.has_monomial = None
        self._gens = None

    @property
    def numerator(self):
        return self.series[0]

    @numerator.setter
    def numerator(self, q) -> None:
        self.series[0] = q

    @property
    def generators(self) -> tuple:
        if self._gens is None:
            self._gens = tuple(Polynomial(self.n, _monic(f)) for f in self.forms)
        return self._gens

    def key(self) -> tuple:
        """Hashable identity of the presented ideal (ambient + forms)."""
        return (self.n, self.forms)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"Ideal({self.n}; {gens})"


class GroebnerBasis:
    """A reduced Groebner basis, held as primitive integer forms in
    ascending order of leading monomial.

    ``forms`` has the layout of ``Ideal.forms``: each element is a tuple of
    (exponents, int) terms with content 1, its terms in descending order of
    the basis's order, so its lead, with a positive coefficient, comes
    first.  ``leads`` are the leading exponent vectors; ``elements`` are the
    monic Fraction polynomials, built the first time they are read."""

    __slots__ = ("order", "n", "forms", "_elements")

    def __init__(self, order: OrderSpec, n: int, forms: Sequence[tuple]):
        self.order = order
        self.n = n
        self.forms = tuple(forms)
        self._elements = None

    @property
    def leads(self) -> tuple:
        return tuple(f[0][0] for f in self.forms)

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            self._elements = tuple(Polynomial(self.n, _monic(f)) for f in self.forms)
        return self._elements

    def has_monomial_initial_form(self, w) -> bool:
        """Whether some element's w-initial form (its terms of minimal
        w-weight) is a single term, which puts a monomial in the weighted
        initial ideal.  ``w`` holds ints or Fractions, so weights are exact."""
        if len(w) != self.n:
            raise ValueError("weight length does not match variable count")
        return any(len(initial_terms(w, f)) == 1 for f in self.forms)

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
        each form's terms of least weight; ``v`` holds ints or Fractions.
        The ray form adds s e_j to the weight of each term e, so it asks that
        each form's initial terms share the lead's x_j exponent and that no
        term have a smaller one.

        ``cone`` is (min_set, middle, top), the 1-based index sets of a
        ``fans.ConeId``: the minimum on the min-set A, every top value above
        every middle value, and for a skeleton cone (no middle, no top) every
        coordinate outside A in the middle M.  Let e0 be a form's lead and
        c = e - e0 outside A for a term e.  The closed cone, shifted to
        a zero minimum, is spanned by e_t for t in the top T and by
        (chi_S, 1_T) for S within M, so v . c >= 0 on it iff c_t >= 0 on T
        and sum_M min(c_m, 0) + sum_T c_t >= 0.  The cone form asks that of
        every term (the lead has c = 0): every element then keeps its lead
        e0 under v refined by the basis's order, for each v of the closed
        cone, so G is a Groebner basis there too and in_v(I) is generated by
        the in_v(g).
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
                all(e[j] >= f[0][0][j] for e, _ in f)
                and all(e[j] == f[0][0][j] for e, _ in initial_terms(w, f))
                for f in self.forms)
        if cone is None:
            if len(v) != self.n:
                raise ValueError("weight length does not match variable count")
            return all(initial_terms(v, f) == initial_terms(w, f) for f in self.forms)
        low_set, middle, top = cone
        if not middle and not top:
            middle = set(range(1, self.n + 1)) - set(low_set)
        middle = [i - 1 for i in sorted(middle)]
        top = [i - 1 for i in sorted(top)]
        for f in self.forms:
            lm = f[0][0]
            for e, _ in f:
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
        return len(self.forms)

    def __repr__(self):
        return f"GroebnerBasis({self.order}, [{', '.join(str(g) for g in self.elements)}])"


# -- dict-level engine ----------------------------------------------------
#
# At its boundary the engine takes a polynomial as a dict {exponents: int}
# and returns a basis element as a form, the layout of ``Ideal.forms``: a
# tuple of (exponents, int) terms in descending order of the basis's
# order, content 1 and a positive leading coefficient.  Every engine
# polynomial is a nonzero rational multiple of the monic one, so leads,
# pair decisions and reduced bases are those of division over the
# rationals; ``_primitive`` and ``_monic`` convert at the boundary, where
# ``Ideal`` and ``normal_form`` meet ``Polynomial``s.  Inside a run a
# polynomial is a dict {index: int} (see ``_Monomials``), and a reducer is
# (lead index, packed lead, lc, tail of (index, int)); no reducer leaves
# a run.

def divides(a, b) -> bool:
    """Whether the monomial with exponent vector ``a`` divides that of ``b``."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _primitive(d: dict) -> dict:
    """The integer multiple of d (int or Fraction values) with content 1 and
    the signs of d; callers that need a positive lead fix the sign."""
    den = lcm(*(c.denominator for c in d.values()))
    ints = {e: c.numerator * (den // c.denominator) for e, c in d.items()}
    g = gcd(*ints.values())
    if g == 1:
        return ints
    return {e: c // g for e, c in ints.items()}


class _Monomials:
    """How one run writes a monomial as one int, its index: minus the order
    key, above the exponents x_1 .. x_n and the total degree packed into
    fields of ``width`` bits (the degree highest, x_n lowest).  The width is
    the smallest of 8, 16, 32 and 64 bits whose top bit, a guard bit, no
    degree up to ``bound`` reaches (else one bit more than the bound takes).
    With G the guard bits, a divides b iff ((b | G) - a) & G == G.  ``key``
    must be linear, a dot product as ``OrderSpec.key_function`` is, so the
    index is one dot product too (read off ``key`` at the unit vectors): a
    product or quotient of monomials, key included, is one int sum or
    difference, and a min-heap of indices pops terms in descending order.
    A product of two terms within the bound still fits its fields, as it
    does those of ``key_function``, so a new term's degree field can be
    checked against the cap.  Packed monomials compare as (degree,
    exponents) do; ``lcm`` keeps the larger field and sums the degree."""

    __slots__ = ("width", "guard", "shift", "mask", "index", "unpack", "lcm")

    def __init__(self, n: int, bound: int, key: Callable):
        for width, code in ((8, "B"), (16, "H"), (32, "I"), (64, "Q")):
            if bound < 1 << (width - 1):
                fields = struct.Struct(f">{n + 1}{code}")
                break
        else:
            width, fields = bound.bit_length() + 1, None
        shift, full = width * n, (1 << width) - 1
        mask, low = (1 << (shift + width)) - 1, (1 << shift) - 1
        ones = low // full  # a 1 in each exponent field
        guard = (mask // full) << (width - 1)
        # x_i's field, the degree field, and minus x_i's key above them
        vector = [(1 << width * (n - 1 - i)) + (1 << shift)
                  - (key((0,) * i + (1,) + (0,) * (n - 1 - i)) << shift + width)
                  for i in range(n)]
        self.index = lambda e: sum(map(mul, vector, e))
        if fields is not None:
            self.unpack = lambda t: fields.unpack((t & mask).to_bytes(fields.size, "big"))[1:]
        else:
            shifts = range(width * (n - 1), -1, -width)
            self.unpack = lambda t: tuple((t >> s) & full for s in shifts)

        def lcm(p: int, q: int) -> int:
            # full fields where p's exponent is at least q's
            m = ((((p | guard) - q) & guard) >> (width - 1)) * full
            x = ((p & m) | (q & ~m)) & low
            return x | ((x * ones >> (shift - width)) & full) << shift

        self.lcm = lcm
        self.width, self.guard, self.shift, self.mask = width, guard, shift, mask

    def poly(self, terms) -> dict:
        """The polynomial {index: coefficient} of (exponents, coefficient) terms."""
        index = self.index
        return {index(e): c for e, c in terms}


def _reducer(d: dict, mons: _Monomials) -> tuple:
    """The run's reducer of the primitive multiple of the integer polynomial
    d ({index: int}, tail terms in descending order); d may be consumed."""
    t0 = min(d)
    g = gcd(*d.values())
    if d[t0] < 0:
        g = -g
    if g != 1:
        d = {t: c // g for t, c in d.items()}
    lc = d.pop(t0)
    return t0, t0 & mons.mask, lc, tuple(d.items())


def _monic(f: tuple) -> dict:
    """The monic rational polynomial of a form, as {exponents: Fraction}."""
    lc = f[0][1]
    return {e: Fraction(c, lc) for e, c in f}


def _nf_dict(f: dict, reducers, mons: _Monomials, cap: int, steps: int | None = None) -> tuple:
    """Division of the integer polynomial f ({index: int}) by the run's
    ``reducers``, fraction-free.

    Returns (R, scale): R, in the same form, is congruent to scale * f modulo
    the reducers, no term of R is divisible by a reducer's leading monomial,
    and R lists its terms in descending order.  A term the division makes is
    checked against ``cap``; the terms of f are not.

    The division takes at most ``steps`` reduction steps, by default the
    number C(d+n-1, n-1) of monomials of the degree d of f's first term, and
    raises ``RuntimeError`` at one more.  Proof of the default for f and
    reducers homogeneous, as in a run: a reducer's lead is its least index,
    so a step that reduces the popped term t makes only terms of index
    t - lead + u > t, each of degree d.  Terms therefore pop in strictly
    ascending index, no monomial pops twice with a nonzero coefficient, and
    each step pops a distinct monomial of degree d.  More steps than that
    mean a broken packing or order invariant, which would otherwise loop
    forever.  For other input the caller passes its own count."""
    guard, shift, mask = mons.guard, mons.shift, mons.mask
    full = (1 << mons.width) - 1
    coeffs = dict(f)
    heap = sorted(f)  # a sorted list is a heap
    if steps is None and heap:
        n = shift // mons.width
        steps = comb(((heap[0] >> shift) & full) + n - 1, n - 1)
    remainder: dict = {}
    scale = 1
    while heap:
        t = heappop(heap)
        c = coeffs.pop(t, 0)
        if not c:
            continue
        tg = (t & mask) | guard
        for r in reducers:
            if (tg - r[1]) & guard == guard:
                break
        else:
            remainder[t] = c
            continue
        steps -= 1
        if steps < 0:
            raise RuntimeError("a division took more steps than its monomials allow: "
                               "broken reducers or monomial packing")
        lt, _, lc, tail = r
        if lc != 1:
            g = gcd(lc, c)
            a = lc // g
            c //= g
            if a != 1:
                scale *= a
                for x in coeffs:
                    coeffs[x] *= a
                for x in remainder:
                    remainder[x] *= a
        s = t - lt
        for u, uc in tail:
            u += s
            prev = coeffs.get(u)
            if prev is None:
                if (u >> shift) & full > cap:
                    raise DegreeCapExceeded(
                        f"degree {(u >> shift) & full} exceeds cap {cap} during reduction"
                    )
                coeffs[u] = -c * uc
                heappush(heap, u)
            else:
                nv = prev - c * uc
                if nv:
                    coeffs[u] = nv
                else:
                    del coeffs[u]
    return remainder, scale


def _spair_poly(ri: tuple, rj: tuple, mons: _Monomials) -> dict:
    """The s-polynomial of two reducers of a run, scaled to integer
    coefficients; the leading terms cancel, so only the tails contribute."""
    ti, pi, lci, taili = ri
    tj, pj, lcj, tailj = rj
    g = gcd(lci, lcj)
    mi, mj = lcj // g, lci // g
    t = mons.index(mons.unpack(mons.lcm(pi, pj)))
    si, sj = t - ti, t - tj
    acc: dict = {}
    for u, c in taili:
        acc[si + u] = mi * c
    for u, c in tailj:
        u += sj
        nv = acc.get(u, 0) - mj * c
        if nv:
            acc[u] = nv
        else:
            del acc[u]
    return acc


def _buchberger_dicts(gens: Iterable[dict], key: Callable, cap: int, target=None,
                      memo: dict | None = None) -> list:
    """Reduced Groebner basis of the ideal generated by ``gens``, primitive
    integer polynomials {exponents: int}.  ``key`` is an integer order key,
    a dot product (see ``_Monomials``), exact on terms of degree up to
    ``cap``; the packed fields fit ``cap`` and the input degrees.

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
    computing one and adds what it computes.  Returns the forms of the
    minimal basis (see ``GroebnerBasis``), tail-reduced and sorted ascending
    by the key of the leading monomial.
    """
    gens = [(max(map(sum, d)), d.items()) for d in gens]
    if not gens:
        return []
    n = len(next(iter(gens[0][1]))[0])
    mons = _Monomials(n, max([cap, *(d for d, _ in gens)]), key)
    guard, shift, lcm_of, unpack = mons.guard, mons.shift, mons.lcm, mons.unpack
    basis: list = []      # the run's reducers
    active: set = set()   # indices whose lead no later lead divides
    heap: list = []       # pending pairs (lcm, i, j): the normal strategy, as
                          # packed monomials rank by degree first

    def push(red: tuple):
        """Append the reducer red to the basis and add its pairs with the
        active elements that the criteria M and F keep."""
        p = red[1]
        degree = p >> shift
        if degree > cap:
            raise DegreeCapExceeded(f"basis degree {degree} exceeds cap {cap}")
        k = len(basis)
        # new pairs by lcm; None marks an lcm shared with a coprime pair.  The
        # cap sees every non-coprime pair, also those the criteria drop.
        by_lcm: dict = {}
        for j, rj in enumerate(basis):
            q = rj[1]
            lcm = lcm_of(p, q)
            coprime = lcm >> shift == degree + (q >> shift)
            if not coprime and lcm >> shift > cap:
                raise DegreeCapExceeded(f"s-pair degree exceeds cap {cap}")
            if j in active:
                by_lcm[lcm] = None if coprime else by_lcm.get(lcm, j)
        # M and F: keep one pair per lcm that no other new lcm strictly
        # divides, and none for an lcm with a coprime pair
        for lcm, j in by_lcm.items():
            lg = lcm | guard
            if j is None or any(o != lcm and (lg - o) & guard == guard for o in by_lcm):
                continue
            heappush(heap, (lcm, k, j))
        active.difference_update(
            [j for j in active if ((basis[j][1] | guard) - p) & guard == guard])
        active.add(k)
        basis.append(red)

    for degree, terms in gens:
        # the cap binds a generator that reduces to zero too
        if degree > cap:
            raise DegreeCapExceeded(f"generator degree {degree} exceeds cap {cap}")
        r, _ = _nf_dict(mons.poly(terms), basis, mons, cap)
        if r:
            push(_reducer(r, mons))

    checked = 0  # basis size at the last comparison with the target
    memo = {} if memo is None else memo
    while heap:
        _, i, j = heappop(heap)
        if target is not None and checked < len(basis):
            checked = len(basis)
            # the leads of ``active`` are the minimal ones: no lead divides a later one
            leads = frozenset(unpack(basis[k][1]) for k in active)
            if _memo_numerator(memo, n, leads) == target:
                break
        r, _ = _nf_dict(_spair_poly(basis[i], basis[j], mons), basis, mons, cap)
        if r:
            push(_reducer(r, mons))

    kept = sorted((basis[i] for i in active), reverse=True)
    # tail-reduce each kept element against the others; no other lead
    # divides its lead, so the order of ``kept`` is the order of the output
    mask = mons.mask
    out = []
    for idx, r in enumerate(kept):
        others = kept[:idx] + kept[idx + 1:]
        if any((((u & mask) | guard) - o[1]) & guard == guard for u, _ in r[3] for o in others):
            f = dict(r[3])
            f[r[0]] = r[2]
            red, _ = _nf_dict(f, others, mons, cap)
            r = _reducer(red, mons)
        out.append(r)
    return [((unpack(t), lc), *[(unpack(u), c) for u, c in tail]) for t, _, lc, tail in out]


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


def cancel_one_minus_t(q: tuple, d: int) -> tuple:
    """(Q, d) for the series q(t) / (1-t)^d with every common factor 1 - t
    cancelled.  A nonzero q without trailing zeros has 1 - t as a factor iff
    q(1) = 0, and the quotient's coefficients are q's partial sums."""
    while any(q) and not sum(q):
        q = tuple(accumulate(q))[:-1]
        d -= 1
    return q, d


def _memo_numerator(memo: dict, n: int, leads: frozenset) -> tuple:
    """The Hilbert numerator of the minimal exponent vectors ``leads`` in n
    variables, read from ``memo`` (see ``Ideal.hilbert_memo``) or computed
    and added to it."""
    q = memo.get(leads)
    if q is None:
        q = memo[leads] = hilbert_numerator(n, leads)
    return q


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
    # input terms are never cap-checked, so the key and the packing must
    # also cover them
    bound = max([degree_cap, f.degree] + [g.degree for g in G])
    mons = _Monomials(f.n, bound, order.key_function(f.n, bound))
    # ascending leads, in input order among equal ones
    prepared = sorted((_reducer(mons.poly(_primitive(dict(g.terms)).items()), mons) for g in G),
                      key=lambda r: r[0], reverse=True)
    F = _primitive(dict(f.terms))
    # every term has degree at most ``bound``: one step per such monomial
    R, scale = _nf_dict(mons.poly(F.items()), prepared, mons, degree_cap, comb(bound + f.n, f.n))
    e0, c0 = f.terms[0]
    ratio = c0 / (F[e0] * scale)  # f = F * c0 / F[e0]
    return Polynomial(f.n, {mons.unpack(t): c * ratio for t, c in R.items()})


def _resorted(forms, key: Callable):
    """If every form's lead outranks each of its other terms under ``key``,
    the forms listed as a run under ``key`` lists them: by ascending lead,
    each form's terms descending.  Else None, from the first term that
    outranks its lead."""
    out = []
    for f in forms:
        k = key(f[0][0])
        keyed = []
        for t in f:
            x = key(t[0])
            if x > k:
                return None
            keyed.append((x, t))
        keyed.sort(reverse=True)
        out.append((k, tuple([t for _, t in keyed])))
    out.sort()
    return [f for _, f in out]


def _cone_hit(I: Ideal, key: Callable):
    """The forms of a cached basis of I that is the reduced basis under
    ``key`` too, listed as a run under ``key`` lists them, or None.

    If every element of a reduced basis keeps its lead under a new order,
    the new initial ideal contains the old one; both have the Hilbert
    function of I, so they are equal, and the basis is the new reduced basis
    (the new order lies in its Groebner cone).  That holds for every cached
    basis, so each is asked once, in insertion order."""
    for gb in I.gb_cache.values():
        forms = _resorted(gb.forms, key)
        if forms is not None:
            return forms
    return None


def buchberger(I: Ideal, order: OrderSpec = GREVLEX) -> GroebnerBasis:
    """The reduced Groebner basis of I, computed under ``I.degree_cap`` and
    memoized in ``I.gb_cache``.

    A weight is normalized (``normalize_weight``), which for a graded ideal
    changes no lead, and one that normalizes to zero is dropped; the basis
    is cached, ordered and returned under the normalized order.  A cached
    basis whose Groebner cone contains the new order (every element keeps
    its lead) is served before any run, its forms and their terms re-sorted
    by the new order, so a basis does not depend on the cache history of I.
    The cap bounds every computation performed: a reused basis skips a run
    that might have aborted.  A run enters I's forms, whatever bases I
    holds: entering its held grevlex basis changed no run and no s-pair on
    the workloads, saved only a few entry divisions, and cost more when that
    basis has large coefficients.  ``I.degree_cap`` bounds every element
    pushed and every pair formed.  A run takes the Hilbert numerator of I,
    when known, as its target (see ``_buchberger_dicts``); the first basis
    stored, by a run or a cone hit, sets it from its leads."""
    if order.weight is not None:
        wn = normalize_weight(order.weight, I.n)
        order = OrderSpec(wn if any(wn) else None)
    hit = I.gb_cache.get(order)
    if hit is not None:
        return hit
    key = order.key_function(I.n, I.degree_cap)
    forms = _cone_hit(I, key)
    if forms is None:
        forms = _buchberger_dicts(map(dict, I.forms), key, I.degree_cap, I.numerator,
                                  I.hilbert_memo)
    gb = I.gb_cache[order] = GroebnerBasis(order, I.n, forms)
    if I.numerator is None:
        I.numerator = _memo_numerator(I.hilbert_memo, I.n, frozenset(gb.leads))
    return gb


def initial_ideal(I: Ideal, w) -> Ideal:
    """The initial ideal of I for weight w (minimal-weight forms).

    Generators are the initial forms of the reduced basis with respect to the
    w-refined grevlex order, read from its forms by ``initial_terms``.  They
    constitute the reduced grevlex basis of the result (Sturmfels 1996, Prop.
    1.8 and Cor. 1.9), so J carries it, read from its forms.  Taken in the order
    of their leads, two initial ideals computed here are equal iff their
    ``forms`` agree.

    Each call builds a fresh ``Ideal`` and memoizes nothing on I: a sampled
    tropical-membership query is answered at its sorted weight, so each
    draw builds each initial ideal once.  J has the Hilbert series of I and
    shares I's ``series``, which ``buchberger`` filled with I's basis, so
    J's first run already has a target.
    """
    wn = normalize_weight(w, I.n)
    J = I._derive(
        dict(initial_terms(wn, f)) for f in sorted(buchberger(I, GREVLEX.refine(wn)).forms)
    )
    key = GREVLEX.key_function(J.n, J.degree_cap)
    J.gb_cache[GREVLEX] = GroebnerBasis(
        GREVLEX, J.n, sorted(J.forms, key=lambda f: key(f[0][0])))
    J.series = I.series
    return J


def ideal_equal(I: Ideal, J: Ideal, order: OrderSpec = GREVLEX) -> bool:
    """Equality via uniqueness of the reduced Groebner basis, compared as
    its forms: a primitive form with a positive lead is unique per monic
    polynomial."""
    if I.n != J.n:
        raise ValueError("ambient variable counts differ")
    return buchberger(I, order).forms == buchberger(J, order).forms


def _saturation(I: Ideal, m: tuple) -> Ideal:
    """(I : (x^m)^infinity) for an exponent vector m, saturating by one
    variable at a time (Bayer and Stillman 1987).

    The steps take the variables x_i of x^m from x_n down, each on the ideal
    J saturated so far, and stop as soon as J is the unit ideal.  A step
    takes J's reduced basis under grevlex refined by the unit weight e_i
    (GREVLEX itself for x_n, whose basis J may already hold) through
    ``buchberger``.  On homogeneous polynomials that order ranks terms by
    the least power of x_i first and breaks ties by grevlex, as grevlex does
    for x_n.  So a homogeneous polynomial is divisible by a power of x_i iff
    its lead is, and dividing every element by the largest power of x_i that
    divides it generates the saturation by x_i.  A step that divides
    nothing keeps J and its cached bases.  A step that divides builds a new
    ideal, with no cached basis and no known numerator."""
    n = I.n
    J = I
    for i in (k for k in reversed(range(n)) if m[k]):
        if is_unit_ideal(J):
            break
        step = GREVLEX.refine([int(k == i) for k in range(n)]) if i < n - 1 else GREVLEX
        gb = buchberger(J, step)
        if any(f[0][0][i] for f in gb.forms):
            J = J._derive(
                {e[:i] + (e[i] - f[0][0][i],) + e[i + 1:]: c for e, c in f} for f in gb.forms
            )
    return J


def saturate(I: Ideal, f: Polynomial) -> Ideal:
    """The saturation (I : f^infinity) by a nonzero monomial f, generated by
    its reduced grevlex basis, which the result keeps in its cache; any
    other f raises ``ValueError``.  The saturation takes one variable of f
    at a time (see ``_saturation``); the runs made depend on the bases I
    holds, and the result does not.  It shares the Hilbert series, and the
    holder of it, of the last ideal of the walk."""
    if f.n != I.n:
        raise ValueError("ambient variable counts differ")
    if not f.is_monomial():
        raise ValueError("can only saturate by a nonzero monomial")
    J = _saturation(I, f.terms[0][0])
    gb = buchberger(J, GREVLEX)
    S = J._derive(map(dict, gb.forms))
    S.gb_cache[GREVLEX] = gb
    S.series = J.series
    return S


def is_unit_ideal(I: Ideal) -> bool:
    """True iff I = (1): a graded ideal contains 1 iff one of its
    generators is a nonzero constant."""
    return any(not any(f[0][0]) for f in I.forms)


def _trace_certifies(J: Ideal) -> bool:
    """Whether J's held reduced grevlex basis G and Hilbert series Q(t) /
    (1-t)^d, fully cancelled, show that J holds no monomial, with no run.

    It asks that x_{n-d+1}, ..., x_n divide no lead of G.  Let j0 = deg Q,
    D = Q(1), k = n - d + 1, y = x_k and u = x_1 ... x_{n-d}.
    1. For grevlex, in(J : x_n) = in(J) : x_n and in(J + x_n) = in(J) + x_n
       (Bayer and Stillman 1987), and x_n divides no lead; so, inductively,
       x_n, ..., x_{n-d+1} is a regular sequence on S/J, which is then
       Cohen-Macaulay.
    2. Graded regular sequences permute, so each of those variables is a
       nonzerodivisor on S/J, and J holds a monomial iff u lies in rad(J).
    3. G restricted to x_{k+1} = ... = x_n = 0 is a grevlex Groebner basis,
       with G's leads, of the image J'' of J in the ring S'' of x_1, ...,
       x_k.  The leads lie in x_1, ..., x_{n-d}, so S''/J'' is
       one-dimensional Cohen-Macaulay of multiplicity D, y is regular on
       it, and y Std_j = Std_{j+1} for j >= j0, where Std_j are the D
       standard monomials of degree j.
    4. So {b / y^j0 : b in Std_j0} is a basis of the degree-0 part A of
       (S''/J'')_y, and the sum over b of the coefficient of y^(n-d) b in
       NF(u b) is the trace of multiplication by u / y^(n-d) on A.
    5. u in rad(J) puts u in rad(J''), so u / y^(n-d) is nilpotent on A
       and the trace is 0 (Cox, Little and O'Shea, "Using Algebraic
       Geometry", ch. 2 sec. 4).  A nonzero trace thus certifies J.
    Anything else, or normal forms of degree j0 + n - d above the cap,
    certifies nothing."""
    gb = J.gb_cache.get(GREVLEX)
    if gb is None or J.numerator == (0,):
        return False
    Q, d = cancel_one_minus_t(J.numerator, J.n)
    k, j0, cap = J.n - d + 1, len(Q) - 1, J.degree_cap
    if d < 1 or j0 + k - 1 > cap or any(any(f[0][0][k - 1:]) for f in gb.forms):
        return False
    mons = _Monomials(k, cap, GREVLEX.key_function(k, cap))
    reducers = [_reducer(mons.poly((e[:k], c) for e, c in f if not any(e[k:])), mons)
                for f in gb.forms]
    # Std_j0: y^j x^e for the standard x^e of degree j0 - j in x_1, ...,
    # x_{n-d}, an order ideal, listed degree by degree
    leads = [f[0][0][:k - 1] for f in gb.forms]
    layer, std = {(0,) * (k - 1)}, []
    for j in range(j0, -1, -1):
        std += [mons.index(e + (j,)) for e in layer]
        if j:
            layer = {e[:i] + (e[i] + 1,) + e[i + 1:] for e in layer for i in range(k - 1)}
            layer = {e for e in layer if not any(divides(a, e) for a in leads)}
    u, shift = mons.index((1,) * (k - 1) + (0,)), mons.index((0,) * (k - 1) + (k - 1,))
    num, den = 0, 1  # the trace, as num / den
    for b in std:
        r, scale = _nf_dict({b + u: 1}, reducers, mons, cap)
        num, den = num * scale + r.get(b + shift, 0) * den, den * scale
    return num != 0


def contains_monomial(I: Ideal) -> bool:
    """True iff I contains some monomial, i.e. saturating by the product of
    all variables gives the unit ideal.

    First asks ``_trace_certifies``, which makes no run; every ideal that it
    does not certify walks that saturation (``_saturation``), which stops
    at the first unit ideal.  The answer is memoized in ``I.has_monomial``,
    which a walk over the cap leaves unset; a set memo answers without a
    walk.  An initial ideal in_w(I) with no monomial shows that I has none,
    since in_w(m) = m for a monomial m, and ``generic.tropical_member`` sets
    the memo of a transformed ideal so."""
    if I.has_monomial is None:
        I.has_monomial = not _trace_certifies(I) and is_unit_ideal(_saturation(I, (1,) * I.n))
    return I.has_monomial
