"""Algebraic invariants: Krull dimension, Hilbert series, multiplicity,
strongly stable ideals and their depth (``generic.depth`` reads the depth of
an ideal off its generic initial ideal)."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .groebner import (
    Ideal, buchberger, cancel_one_minus_t, divides, hilbert_numerator, known_numerator,
    minimal_monomials,
)
from .poly import GREVLEX, OrderSpec, Polynomial, UsageError


class MonomialIdeal(namedtuple("MonomialIdeal", "n generators")):
    """A monomial ideal by its unique minimal generating set."""

    __slots__ = ()

    def contains_unit(self) -> bool:
        return any(sum(e) == 0 for e in self.generators)

    def max_degree(self) -> int:
        return max(sum(e) for e in self.generators)

    def member(self, exps) -> bool:
        """Monomial membership: divisibility by some minimal generator."""
        e = tuple(exps)
        return any(divides(g, e) for g in self.generators)

    def polynomials(self) -> list:
        return [Polynomial.monomial(self.n, e) for e in self.generators]

    def __str__(self):
        gens = ", ".join(str(p) for p in self.polynomials())
        return f"({gens})"


def minimalize(n: int, gens: Iterable) -> MonomialIdeal:
    """Keep only the divisibility-minimal exponent vectors."""
    kept = minimal_monomials(tuple(g) for g in gens)
    if not kept:
        raise ValueError("empty generator list")
    key = GREVLEX.key_function(n, max(map(sum, kept)))
    return MonomialIdeal(n, tuple(sorted(kept, key=key)))


def monomial_ideal_of(I: Ideal, order: OrderSpec = GREVLEX) -> MonomialIdeal:
    """The leading-monomial ideal of I as a MonomialIdeal, from the leads of
    its reduced basis."""
    return minimalize(I.n, buchberger(I, order).leads)


def _least_cover(supports: list) -> int:
    """The least number of variables meeting every set in ``supports``.
    Every cover meets the smallest set, so it is 1 plus the least cover, over
    each variable i of that set, of the sets that i misses."""
    if not supports:
        return 0
    smallest = min(supports, key=len)
    return 1 + min(_least_cover([s for s in supports if i not in s]) for i in smallest)


def monomial_dimension(M: MonomialIdeal) -> int:
    """Krull dimension of S/M: n minus the least number of variables meeting
    the support of every minimal generator."""
    if M.contains_unit():
        raise ValueError("dimension of the zero ring is undefined")
    return M.n - _least_cover([frozenset(i for i, e in enumerate(g) if e) for g in M.generators])


def _series(I: Ideal, what: str) -> tuple:
    """(Q, d) of the Hilbert series Q(t) / (1-t)^d of S/I, fully
    cancelled, from the numerator that I memoizes (``known_numerator``):
    one already known, read from a basis of I or of an ideal that shares
    I's series, makes no run; else it is read from I's grevlex basis.  The
    zero ring raises ``UsageError`` naming ``what``."""
    q = known_numerator(I)
    if q is None:
        buchberger(I, GREVLEX)
        q = known_numerator(I)
    if q == (0,):
        raise UsageError(f"{what} of the zero ring is undefined")
    return cancel_one_minus_t(q, I.n)


def dimension(I: Ideal) -> int:
    """Krull dimension of the coordinate ring S/I: the order of the pole at
    t = 1 of its Hilbert series (see ``_series``)."""
    return _series(I, "dimension")[1]


class HilbertData(namedtuple("HilbertData", "numerator dim multiplicity")):
    """Hilbert series numerator Q (fully cancelled), dimension d and
    multiplicity Q(1) of S/M, where the series is Q(t) / (1-t)^d."""

    __slots__ = ()


def hilbert(M: MonomialIdeal) -> HilbertData:
    """Hilbert series data of S/M for a proper nonzero monomial ideal."""
    if M.contains_unit():
        raise ValueError("Hilbert series of the zero ring is not supported")
    q, d = cancel_one_minus_t(hilbert_numerator(M.n, M.generators), M.n)
    mult = sum(q)
    if d != monomial_dimension(M):
        raise RuntimeError("Hilbert dimension disagrees with cover bound")
    if mult <= 0:
        raise RuntimeError("multiplicity must be positive")
    return HilbertData(q, d, mult)


def multiplicity(I: Ideal) -> int:
    """Multiplicity of S/I: the fully cancelled Hilbert numerator at t = 1
    (see ``_series``)."""
    mult = sum(_series(I, "multiplicity")[0])
    if mult <= 0:
        raise RuntimeError("multiplicity must be positive")
    return mult


def is_strongly_stable(M: MonomialIdeal, perm=None) -> bool:
    """Closure under Borel exchange moves x_j * u / x_k for j before k in the
    variable ordering (1-based ``perm``, identity by default)."""
    order = tuple(perm) if perm is not None else tuple(range(1, M.n + 1))
    if sorted(order) != list(range(1, M.n + 1)):
        raise ValueError("perm must be a permutation of 1..n")
    pos = [i - 1 for i in order]
    for g in M.generators:
        for kk in range(len(pos)):
            k = pos[kk]
            if g[k] == 0:
                continue
            for jj in range(kk):
                j = pos[jj]
                moved = list(g)
                moved[k] -= 1
                moved[j] += 1
                if not M.member(moved):
                    return False
    return True


def depth_of_stable(M: MonomialIdeal) -> int:
    """Depth of S/M for M strongly stable: n minus the largest index of a
    variable dividing a minimal generator."""
    if not is_strongly_stable(M):
        raise ValueError("ideal is not strongly stable")
    return M.n - max((i + 1 for g in M.generators for i, e in enumerate(g) if e), default=0)
