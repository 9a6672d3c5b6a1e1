"""Combinatorics of the min-set fan, its skeletons and their block
refinements.

A cone is described combinatorially: ``min_set`` lists the coordinates where
the minimum is attained; for a maximal cone of a refinement, ``middle`` and
``top`` split the remaining coordinates into a block strictly above the
minimum and a block strictly above everything in the middle.  All geometry
reduces to min-set and ordering patterns of the coordinates, so no polyhedral
machinery is needed.
"""

from __future__ import annotations

import random
import sys
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Sequence
from math import comb, factorial

from .poly import UsageError

# the most cones a fan probe visits; ``budget`` samples larger fans
CONE_BUDGET = 200


class ConeId(namedtuple("ConeId", "n min_set middle top")):
    """Combinatorial descriptor of a cone (1-based coordinate indices)."""

    __slots__ = ()

    def __new__(cls, n: int, min_set, middle=frozenset(), top=frozenset()):
        min_set, middle, top = frozenset(min_set), frozenset(middle), frozenset(top)
        allv = set(range(1, n + 1))
        if not min_set or not min_set <= allv:
            raise ValueError("min_set must be a nonempty subset of 1..n")
        if not (middle <= allv and top <= allv):
            raise ValueError("middle/top must be subsets of 1..n")
        if min_set & middle or min_set & top or middle & top:
            raise ValueError("min_set, middle and top must be pairwise disjoint")
        if (middle or top) and min_set | middle | top != allv:
            raise ValueError("refinement cones must partition all coordinates")
        return super().__new__(cls, n, min_set, middle, top)

    def is_refinement(self) -> bool:
        return bool(self.middle or self.top)

    def to_json(self) -> dict:
        return {
            "min": sorted(self.min_set),
            "middle": sorted(self.middle),
            "top": sorted(self.top),
        }


def _unrank_combination(items: Sequence, k: int, r: int) -> list:
    """The r-th k-subset of the sorted ``items`` in the order
    ``itertools.combinations`` yields them, each element found by bisection
    in O(log len(items)) steps: the subsets whose next element lies in
    items[lo:j] number C(size - lo, left + 1) - C(size - j, left + 1)."""
    size = len(items)
    out = []
    lo = 0
    for left in range(k - 1, -1, -1):
        total = comb(size - lo, left + 1)

        def before(j: int) -> int:
            return total - comb(size - j, left + 1)

        j = lo + bisect_right(range(lo, size - left), r, key=before) - 1
        r -= before(j)
        out.append(items[j])
        lo = j + 1
    return out


class _Sequence(Sequence):
    """A sequence of ``length`` items whose item i is ``unrank(i)``,
    computed when it is read; a slice is the list of its items."""

    def __init__(self, length: int, unrank):
        self._len, self._unrank = length, unrank

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return map(self._unrank, range(self._len))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._unrank(k) for k in range(*i.indices(self._len))]
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("sequence index out of range")
        return self._unrank(i)


def _cones(n: int, m: int, t: int | None = None) -> _Sequence:
    """The maximal cones of the m-skeleton, or of its t-refinement, in the
    order ``itertools.combinations`` lists their min-sets and then their
    tops, each unranked from its index when it is read: a caller that
    samples a few indices never lists a fan of C(n, n-m+1) * C(m-1, t) cones."""
    if t is None:
        if not 0 < m <= n:
            raise UsageError("need 0 < m <= n")
    elif not 0 < t < m - 1 < n - 1:
        raise ValueError("need 0 < t < m-1 < n-1")
    coords = range(1, n + 1)
    tops = 1 if t is None else comb(m - 1, t)

    def cone(i: int) -> ConeId:
        a_index, top_index = divmod(i, tops)
        a = _unrank_combination(coords, n - m + 1, a_index)
        if t is None:
            return ConeId(n, a)
        rest = [x for x in coords if x not in a]
        top = frozenset(_unrank_combination(rest, t, top_index))
        return ConeId(n, a, frozenset(rest) - top, top)

    return _Sequence(comb(n, n - m + 1) * tops, cone)


def maximal_cones(n: int, m: int) -> _Sequence:
    """The maximal cones of the m-skeleton: min-sets of size n-m+1."""
    return _cones(n, m)


def refinement_maximal_cones(n: int, m: int, t: int) -> _Sequence:
    """The maximal cones of the t-refinement of the m-skeleton."""
    return _cones(n, m, t)


def adjacent_pairs(n: int, m: int, t: int) -> _Sequence:
    """Unordered pairs of refinement cones sharing the same min-set but
    splitting middle/top differently: grouped by min-set in the order of
    ``refinement_maximal_cones``, and within a group the pairs (i, j),
    i < j, of its cones in lexicographic order.  A pair is unranked from
    its index when it is read."""
    cones = _cones(n, m, t)
    tops = comb(m - 1, t)
    per_group = tops * (tops - 1) // 2

    def pair(i: int) -> tuple:
        group, r = divmod(i, per_group)
        a, b = _unrank_combination(range(tops), 2, r)
        return cones[group * tops + a], cones[group * tops + b]

    return _Sequence(comb(n, n - m + 1) * per_group, pair)


def cone_orbit_key(c: ConeId) -> tuple:
    """(|min_set|, |middle|, |top|): cones with one key form one orbit of the
    coordinate permutations, and all cones of one fan (``maximal_cones``,
    ``refinement_maximal_cones``) have one key.  The permutation that maps
    each block of c onto the block of an equal-keyed cone in increasing
    order maps every point ``interior_points`` reads at c onto the one it
    reads there."""
    return len(c.min_set), len(c.middle), len(c.top)


def pair_orbit_key(pair: tuple) -> tuple:
    """The orbit key of a pair (c1, c2) of refinement cones with one
    min-set, as ``adjacent_pairs`` yields them: |min_set|, then, along the
    sorted complement of the min-set, whether each coordinate lies in the
    top of c1 and whether it lies in the top of c2.  For equal keys, the
    permutation that maps min-set onto min-set and complement onto
    complement in increasing order maps both cones onto the other pair's,
    in order, and with them both canonical interior points.  A count of the
    shared top coordinates would not do: ({1}, {3}) and ({2}, {3}) on the
    complement {1, 2, 3} share one, but no permutation increasing on every
    block maps one pair onto the other."""
    c1, c2 = pair
    rest = [i for i in range(1, c1.n + 1) if i not in c1.min_set]
    return len(c1.min_set), tuple((i in c1.top, i in c2.top) for i in rest)


def interior_point(c: ConeId, c_gap: int = 1) -> tuple:
    """The first of ``interior_points``: zero on the min-set, then the
    smallest integer ladder with gap factor ``c_gap`` across middle then top."""
    return interior_points(c, c_gap, 1)[0]


def _unrank_permutation(items: list, r: int) -> list:
    """The r-th arrangement of the sorted ``items`` in lexicographic order,
    the order ``itertools.permutations`` yields them (Lehmer code)."""
    items = list(items)
    out = []
    for k in range(len(items) - 1, -1, -1):
        d, r = divmod(r, factorial(k))
        out.append(items.pop(d))
    return out


def interior_points(c: ConeId, c_gap: int, count: int) -> _Sequence:
    """``count`` distinct interior points of the open cone, each computed
    when it is read.

    Sample q is zero on the min-set and climbs the smallest integer ladder
    1, g + 1, g(g + 1) + 1, ..., g = ``c_gap`` + q, across middle then top,
    its rungs permuted within each block; relative order inside a block is
    unconstrained in the open cone, so every assignment stays interior.
    Sampling both block orderings is what lets constancy probes detect a
    cone that the sampled tropical fan actually splits.

    Sample q takes, in each block, the arrangement whose lexicographic rank
    is the block's digit of q in the mixed radix of the block factorials;
    it is unranked directly, so memory stays linear in n.
    """
    if c_gap < 1:
        raise ValueError("gap factor must be at least 1")
    if count < 1:
        raise ValueError("need at least one point")
    if c.is_refinement():
        blocks = [sorted(c.middle), sorted(c.top)]
    else:
        blocks = [sorted(set(range(1, c.n + 1)) - c.min_set)]
    radices = [factorial(len(b)) for b in blocks]

    def point(q: int) -> tuple:
        arrangement = []
        idx = q
        for b, radix in zip(blocks, radices):
            arrangement.extend(_unrank_permutation(b, idx % radix))
            idx //= radix
        w = [0] * c.n
        v = 1
        for i in arrangement:
            w[i - 1] = v
            v = (c_gap + q) * v + 1
        return tuple(w)

    return _Sequence(count, point)


def budget(cones, seed: int) -> list:
    """Every item of the sequence ``cones``, or CONE_BUDGET of them drawn by
    index with the seed, in index order; only the drawn items are read.

    A fan sequence's length is read without ``len()``, which fails above
    ``sys.maxsize``.  A fan that large draws its indices as
    ``Random.sample`` does for a large population, one ``randrange`` at a
    time, skipping repeats."""
    size = cones._len if isinstance(cones, _Sequence) else len(cones)
    if size <= CONE_BUDGET:
        return list(cones)
    rng = random.Random(f"cone-budget:{seed}")
    if size <= sys.maxsize:
        idx = rng.sample(range(size), CONE_BUDGET)
    else:
        idx = set()
        while len(idx) < CONE_BUDGET:
            idx.add(rng.randrange(size))
    return [cones[i] for i in sorted(idx)]
