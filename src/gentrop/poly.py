"""Exact multivariate polynomials over the rationals and the one family of
term orders the engine uses: grevlex, optionally refined by a weight.

Polynomials are immutable. Terms are stored in a fixed canonical order
(graded reverse lexicographic with x1 > ... > xn, leading term first),
which makes printing and hashing deterministic.

Weighted orders follow the minimal-weight-first convention: when an order
carries a weight vector, a term of *smaller* weight ranks *higher*, so the
leading term of the refined order is always one of the weight-minimal terms.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Callable, Iterable
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from operator import mul

Exponents = tuple
Weights = tuple


class UsageError(ValueError):
    """Input the program cannot run on: a bad flag, or an ideal outside
    what a command supports."""


class ParseError(UsageError):
    """Polynomial or ideal-file text that does not match the grammar."""


def _exact(w: Weights) -> tuple:
    """``w`` with every non-integer entry as a Fraction, so that dot
    products with exponent vectors are exact."""
    return tuple(x if isinstance(x, int) else Fraction(x) for x in w)


class OrderSpec(namedtuple("OrderSpec", "weight")):
    """A term order: grevlex (x1 > x2 > ... > xn), optionally refined by a
    weight vector.

    With a weight, comparison is by weight first (smaller weight ranks
    higher), ties broken by grevlex.  ``key_function`` ranks monomials of
    bounded degree by one integer key.
    """

    __slots__ = ()

    def __new__(cls, weight: Weights | None = None):
        return super().__new__(cls, None if weight is None else _exact(weight))

    def refine(self, w: Weights) -> "OrderSpec":
        """Grevlex refined by weight vector ``w``, in place of any weight
        this order has."""
        return OrderSpec(tuple(w))

    def key_function(self, n: int, degree_bound: int) -> Callable[[Exponents], int]:
        """Integer key: key(a) > key(b) iff monomial a outranks monomial b,
        exact for exponent vectors of total degree at most ``degree_bound``.

        The key is v . e for one integer vector v, the order's weight matrix
        collapsed into fields of B = degree_bound.bit_length() + 1 bits.
        Grevlex gives x_i (0-based i) v = 2^(Bn) - 2^(Bi), the total degree
        above reverse-lex digits.  A weight, scaled to integers by the lcm of
        its denominators, is subtracted times 2^(B(n+1)): a weight difference
        of 1 outweighs the whole grevlex range, so negative entries need no
        shift."""
        b = degree_bound.bit_length() + 1
        v = [(1 << (b * n)) - (1 << (b * i)) for i in range(n)]
        w = self.weight
        if w is not None:
            if len(w) != n:
                raise ValueError("weight length does not match variable count")
            den = lcm(*(x.denominator for x in w))
            v = [vi - (x.numerator * (den // x.denominator) << (b * (n + 1))) for vi, x in zip(v, w)]
        v = tuple(v)
        return lambda e: sum(map(mul, v, e))


GREVLEX = OrderSpec()


def normalize_weight(w: Weights, n: int) -> tuple:
    """Shift ``w`` so its minimum is 0 and scale to coprime integers.

    For graded ideals this changes neither weighted initial forms nor the
    refined order on monomials of equal degree, and it keeps all comparisons
    in exact integer arithmetic with nonnegative weights.
    """
    if len(w) != n:
        raise ValueError("weight length does not match variable count")
    w = _exact(w)
    den = lcm(*(x.denominator for x in w))
    ints = [x.numerator * (den // x.denominator) for x in w]
    mn = min(ints)
    g = gcd(*(v - mn for v in ints)) or 1
    return tuple((v - mn) // g for v in ints)


def check_exponents(e, n: int) -> None:
    """Raise ValueError unless e is a tuple of n non-negative ints."""
    if not isinstance(e, tuple) or len(e) != n or any(
        not isinstance(x, int) or x < 0 for x in e
    ):
        raise ValueError(f"bad exponent vector {e!r} for n={n}")


class Polynomial:
    """Immutable polynomial in n variables with Fraction coefficients.

    ``terms`` is a tuple of (exponents, coefficient) pairs with no zero
    coefficients and no repeated exponent vectors, sorted canonically
    (grevlex, leading first).  The zero polynomial has an empty term tuple.
    """

    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n: int, terms: Iterable = ()):
        if n < 1:
            raise ValueError("need at least one variable")
        acc: dict = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exps, coeff in items:
            e = tuple(exps)
            check_exponents(e, n)
            c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if e in acc:
                acc[e] += c
            else:
                acc[e] = c
        kept = [(e, c) for e, c in acc.items() if c != 0]
        if len(kept) > 1:
            key = GREVLEX.key_function(n, max(sum(e) for e, _ in kept))
            kept.sort(key=lambda t: key(t[0]), reverse=True)
        self.n = n
        self.terms = tuple(kept)
        self._hash = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c) -> "Polynomial":
        return cls(n, [((0,) * n, Fraction(c))])

    @classmethod
    def one(cls, n: int) -> "Polynomial":
        return cls.constant(n, 1)

    @classmethod
    def variable(cls, n: int, i: int) -> "Polynomial":
        """The variable x_i (1-based)."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        e = [0] * n
        e[i - 1] = 1
        return cls(n, [(tuple(e), Fraction(1))])

    @classmethod
    def monomial(cls, n: int, exps: Exponents, coeff=1) -> "Polynomial":
        return cls(n, [(tuple(exps), Fraction(coeff))])

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_monomial(self) -> bool:
        """Exactly one term."""
        return len(self.terms) == 1

    @property
    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {sum(e) for e, _ in self.terms}
        return len(degs) == 1

    def coefficient(self, exps: Exponents) -> Fraction:
        e = tuple(exps)
        for ee, c in self.terms:
            if ee == e:
                return c
        return Fraction(0)

    # -- arithmetic -----------------------------------------------------

    def _acc(self) -> dict:
        return dict(self.terms)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("ambient variable counts differ")
        acc = self._acc()
        for e, c in other.terms:
            acc[e] = acc.get(e, Fraction(0)) + c
        return Polynomial(self.n, acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("ambient variable counts differ")
        acc = self._acc()
        for e, c in other.terms:
            acc[e] = acc.get(e, Fraction(0)) - c
        return Polynomial(self.n, acc)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n, [(e, -c) for e, c in self.terms])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.n != other.n:
                raise ValueError("ambient variable counts differ")
            acc: dict = {}
            for e1, c1 in self.terms:
                for e2, c2 in other.terms:
                    ee = tuple(a + b for a, b in zip(e1, e2))
                    acc[ee] = acc.get(ee, Fraction(0)) + c1 * c2
            return Polynomial(self.n, acc)
        if isinstance(other, (int, Fraction)):
            return Polynomial(self.n, [(e, c * other) for e, c in self.terms])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.one(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- identity -------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.terms))
        return self._hash

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.n}, {format_polynomial(self)!r})"


def initial_terms(w: Weights, terms: Iterable) -> tuple:
    """The (exponents, coefficient) pairs of ``terms`` whose w-weight is
    least, in their input order.  ``w`` holds ints or Fractions, so weights
    are exact."""
    low, kept = None, []
    for t in terms:
        x = sum(map(mul, w, t[0]))
        if low is None or x < low:
            low, kept = x, [t]
        elif x == low:
            kept.append(t)
    return tuple(kept)


def initial_form(w: Weights, f: Polynomial) -> Polynomial:
    """The sum of the terms of f whose w-weight is minimal."""
    if not f.terms:
        raise ValueError("initial form of the zero polynomial")
    if len(w) != f.n:
        raise ValueError("weight/exponent length mismatch")
    return Polynomial(f.n, initial_terms(_exact(w), f.terms))


# -- text format ---------------------------------------------------------

# the most digits a number of the input may have: CPython's default limit on
# int/str conversion, so that a report can print every number it was given
MAX_DIGITS = 4300


def parse_int(digits: str) -> int:
    """``int(digits)``; ParseError, before building it, for more than
    ``MAX_DIGITS`` digits."""
    if len(digits) > MAX_DIGITS:
        raise ParseError(f"number of {len(digits)} digits exceeds the limit of {MAX_DIGITS}")
    return int(digits)


_COEFF_RE = re.compile(r"^([0-9]+)(?:/([0-9]+))?$")
_VAR_RE = re.compile(r"^x([0-9]+)(?:\^([0-9]+))?$")


def parse_polynomial(text: str, n: int) -> Polynomial:
    """Parse the term syntax ``[coeff*]x<i>[^e][*x<j>[^e]]...`` joined by +/-.

    Coefficients are integers or a/b rationals; variables are x1..xn.
    """
    s = text.replace(" ", "").replace("\t", "")
    if not s:
        raise ParseError("empty polynomial")
    chunks = re.findall(r"[+-]?[^+-]+", s)
    if "".join(chunks) != s:
        raise ParseError(f"cannot tokenize {text[:20]!r}")
    acc: dict = {}
    for chunk in chunks:
        sign = 1
        body = chunk
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        coeff = Fraction(sign)
        exps = [0] * n
        saw_factor = False
        for factor in body.split("*"):
            m = _COEFF_RE.match(factor)
            if m and not saw_factor:
                num = parse_int(m.group(1))
                den = parse_int(m.group(2)) if m.group(2) else 1
                if den == 0:
                    raise ParseError(f"zero denominator in {text[:20]!r}")
                coeff *= Fraction(num, den)
                saw_factor = True
                continue
            m = _VAR_RE.match(factor)
            if not m:
                raise ParseError(f"bad factor {factor[:20]!r} in {text[:20]!r}")
            i = parse_int(m.group(1))
            if not 1 <= i <= n:
                raise ParseError(f"variable x{m.group(1)[:20]} out of range 1..{n}")
            e = parse_int(m.group(2)) if m.group(2) else 1
            exps[i - 1] += e
            saw_factor = True
        e = tuple(exps)
        acc[e] = acc.get(e, Fraction(0)) + coeff
    return Polynomial(n, acc)


def _format_term(e: Exponents, c: Fraction) -> str:
    factors = [
        f"x{i + 1}^{v}" if v > 1 else f"x{i + 1}"
        for i, v in enumerate(e)
        if v > 0
    ]
    # Decimal prints an int of any length; str refuses one of over 4,300 digits
    c = abs(c)
    digits = str(Decimal(c.numerator))
    if c.denominator != 1:
        digits += f"/{Decimal(c.denominator)}"
    if not factors:
        return digits
    if c == 1:
        return "*".join(factors)
    return digits + "*" + "*".join(factors)


def format_polynomial(f: Polynomial) -> str:
    """Canonical text form; ``parse_polynomial`` reads it back up to ``MAX_DIGITS``."""
    if not f.terms:
        return "0"
    parts = []
    for idx, (e, c) in enumerate(f.terms):
        body = _format_term(e, c)
        if idx == 0:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)
