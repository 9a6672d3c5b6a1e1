import random
import tracemalloc
from itertools import permutations
from math import comb, factorial, prod

import pytest

from gentrop import fans
from gentrop.fans import (
    ConeId,
    CONE_BUDGET,
    adjacent_pairs,
    budget,
    interior_point,
    interior_points,
    maximal_cones,
    refinement_maximal_cones,
)

from oracles import listed_cones


def test_cone_id_validation():
    with pytest.raises(ValueError):
        ConeId(3, set())
    with pytest.raises(ValueError):
        ConeId(3, {1}, {1}, {2})
    with pytest.raises(ValueError):
        ConeId(3, {1, 4})
    with pytest.raises(ValueError, match="middle/top"):
        ConeId(3, {1}, {4}, {2, 3})
    with pytest.raises(ValueError, match="partition"):
        ConeId(4, {1}, {2}, {3})


def test_maximal_cone_counts():
    assert len(maximal_cones(5, 4)) == comb(5, 2) == 10
    assert len(maximal_cones(3, 3)) == 3
    assert len(maximal_cones(2, 1)) == 1
    for n in range(2, 7):
        for m in range(1, n + 1):
            assert len(maximal_cones(n, m)) == comb(n, n - m + 1)


def test_refinement_counts_against_bruteforce():
    assert len(refinement_maximal_cones(5, 4, 1)) == 30
    assert len(refinement_maximal_cones(5, 3, 1)) == comb(5, 3) * comb(2, 1) == 20
    with pytest.raises(ValueError):
        refinement_maximal_cones(5, 4, 3)  # t = m-1 is degenerate
    for n in range(3, 7):
        for m in range(2, n):
            for t in range(1, m - 1):
                want = {
                    (frozenset(p[: n - m + 1]), frozenset(p[n - t:]))
                    for p in permutations(range(1, n + 1))
                }
                got = {
                    (c.min_set, c.top) for c in refinement_maximal_cones(n, m, t)
                }
                assert got == want
                assert len(refinement_maximal_cones(n, m, t)) == comb(
                    n, n - m + 1
                ) * comb(m - 1, t)


def test_adjacent_pairs():
    pairs = adjacent_pairs(5, 4, 1)
    by_a = {}
    for a, b in pairs:
        assert a.min_set == b.min_set
        assert (a.middle, a.top) != (b.middle, b.top)
        by_a.setdefault(a.min_set, []).append((a, b))
    # three refinement cones over each min-set pair into three pairs
    assert all(len(v) == 3 for v in by_a.values())
    assert len(adjacent_pairs(5, 3, 1)) == comb(5, 3) * 1
    with pytest.raises(ValueError):
        adjacent_pairs(5, 4, 3)


def _listed_adjacent_pairs(n, m, t):
    """Reference: every pair, listed group by group from the whole fan."""
    groups = {}
    for c in listed_cones(n, m, t):
        groups.setdefault(c.min_set, []).append(c)
    out = []
    for a in sorted(groups, key=sorted):
        cones = groups[a]
        out.extend((cones[i], cones[j]) for i in range(len(cones)) for j in range(i + 1, len(cones)))
    return out


def test_adjacent_pairs_unrank_the_listed_pairs(monkeypatch):
    checked = 0
    for n in range(1, 8):
        for m in range(1, n):
            for t in range(1, m - 1):
                pairs = adjacent_pairs(n, m, t)
                assert len(pairs) == comb(n, n - m + 1) * comb(comb(m - 1, t), 2)
                want = _listed_adjacent_pairs(n, m, t)
                assert list(pairs) == want
                assert pairs[-1] == want[-1] and pairs[1:4] == want[1:4]
                checked += 1
    assert checked == 20
    # a fan too large to list: reading a pair unranks only that pair
    wide = adjacent_pairs(30, 25, 12)
    assert len(wide) == comb(30, 6) * comb(comb(24, 12), 2)
    a, b = wide[len(wide) - 1]
    assert a.min_set == b.min_set == frozenset(range(25, 31))
    with pytest.raises(IndexError):
        wide[len(wide)]
    # each cone of a drawn pair is found by bisection, not by a scan over
    # the C(24, 12) cones of its group (about 10^6 binomials mid-group)
    calls = []
    monkeypatch.setattr(fans, "comb", lambda *a: calls.append(a) or comb(*a))
    a, b = wide[len(wide) // 2]
    assert a.min_set == b.min_set and len(calls) < 1000
    assert len(budget(wide, 0)) == CONE_BUDGET


def test_interior_point_examples():
    c = ConeId(5, {1, 2, 3}, {4}, {5})
    assert interior_point(c, 3) == (0, 0, 0, 1, 4)
    diag = ConeId(4, frozenset(range(1, 5)))
    assert interior_point(diag) == (0, 0, 0, 0)
    assert interior_point(ConeId(3, {1, 2}), 1) == (0, 0, 1)


def test_interior_point_gap_condition():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(3, 6)
        m = rng.randint(2, n)
        gap = rng.randint(1, 5)
        cones = maximal_cones(n, m)
        c = cones[rng.randrange(len(cones))]
        w = interior_point(c, gap)
        vals = sorted(v for v in w if v > 0)
        prev = None
        for v in vals:
            if prev is not None:
                assert gap * prev < v
            prev = v


def _assert_in_open_cone(w, c):
    # the minimum is attained exactly on the min-set, and in a refinement
    # cone every middle value lies below every top value
    mn = min(w)
    assert {i + 1 for i, x in enumerate(w) if x == mn} == c.min_set
    if c.is_refinement():
        assert max(w[i - 1] for i in c.middle) < min(w[i - 1] for i in c.top)


def test_locate_interior_point_roundtrip():
    for n in range(2, 7):
        for m in range(1, n + 1):
            for c in maximal_cones(n, m):
                for gap in (1, 3):
                    _assert_in_open_cone(interior_point(c, gap), c)
        for m in range(2, n):
            for t in range(1, m - 1):
                for c in refinement_maximal_cones(n, m, t):
                    _assert_in_open_cone(interior_point(c, 2), c)


def test_interior_points_vary_and_stay_interior():
    c = ConeId(5, {1, 2}, {3, 4}, {5})
    pts = interior_points(c, 2, 4)
    assert len(set(pts)) == 4
    for w in pts:
        _assert_in_open_cone(w, c)
    # middle orderings must both occur so splits can be detected
    orders = {tuple(sorted({3, 4}, key=lambda i: w[i - 1])) for w in pts}
    assert orders == {(3, 4), (4, 3)}


def test_interior_points_need_a_positive_gap():
    # with gap 0 the ladder is 1, 1, 1, ..., which ties middle and top
    c = ConeId(5, {1, 2}, {3, 4}, {5})
    for count in (1, 2):
        with pytest.raises(ValueError):
            interior_points(c, 0, count)
    with pytest.raises(ValueError):
        interior_point(c, 0)
    with pytest.raises(ValueError, match="at least one point"):
        interior_points(c, 2, 0)


def test_skeleton_faces_are_faces_of_maximal_cones():
    # every lower-dimensional min-set cone extends to a maximal one by
    # enlarging the min-set
    n, m = 5, 3
    maximal = {c.min_set for c in maximal_cones(n, m)}
    for size in range(n - m + 1, n + 1):
        from itertools import combinations

        for a in combinations(range(1, n + 1), size):
            assert any(set(b) <= set(a) for b in maximal)


def _all_maximal_and_refinement_cones(max_n):
    for n in range(1, max_n + 1):
        for m in range(1, n + 1):
            yield from maximal_cones(n, m)
            for t in range(1, m - 1):
                if m < n:
                    yield from refinement_maximal_cones(n, m, t)


def _enumerated_interior_points(c, c_gap, count):
    # the arrangements listed with itertools.permutations, block by block
    blocks = [sorted(c.middle), sorted(c.top)] if c.is_refinement() else [
        sorted(set(range(1, c.n + 1)) - c.min_set)
    ]
    block_perms = [list(permutations(b)) for b in blocks if b]
    out = []
    for q in range(count):
        arrangement = []
        idx = q
        for perms in block_perms:
            arrangement.extend(perms[idx % len(perms)])
            idx //= len(perms)
        w = [0] * c.n
        v = 1
        for i in arrangement:
            w[i - 1] = v
            v = (c_gap + q) * v + 1
        out.append(tuple(w))
    return out


def test_interior_points_match_enumerated_arrangements():
    for c in _all_maximal_and_refinement_cones(7):
        free = [c.middle, c.top] if c.is_refinement() else [
            set(range(1, c.n + 1)) - c.min_set
        ]
        # two past the product of the block factorials, so the index wraps
        count = prod(factorial(len(b)) for b in free) + 2
        for gap in (1, 2, 3):
            assert list(interior_points(c, gap, count)) == _enumerated_interior_points(
                c, gap, count
            )


def test_interior_points_memory_stays_linear():
    c = maximal_cones(11, 10)[0]  # one block of 9 coordinates: 9! arrangements
    tracemalloc.start()
    try:
        interior_points(c, 2, 3)
        # points are computed when read: 10**5 of them cost nothing up front
        many = interior_points(c, 2, 10**5)
        assert len(many) == 10**5
        assert many[0] == interior_points(c, 2, 3)[0]
        assert many[-1] == many[10**5 - 1]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_cone_sequence_unranks_the_enumeration():
    # each fan is a lazy sequence: against an eager itertools.combinations
    # listing, the same cones in the same order, by iteration and by index
    for n in range(1, 8):
        for m in range(1, n + 1):
            seq, cones = maximal_cones(n, m), listed_cones(n, m)
            assert len(seq) == len(cones) and list(seq) == cones
            for t in range(1, m - 1):
                if m < n:
                    cones = listed_cones(n, m, t)
                    seq = refinement_maximal_cones(n, m, t)
                    assert len(seq) == len(cones)
                    assert [seq[i] for i in range(len(seq))] == cones
    seq = refinement_maximal_cones(6, 3, 1)
    cones = listed_cones(6, 3, 1)
    assert seq[-1] == cones[-1] and seq[-len(seq)] == cones[0]
    for part in (slice(1, 3), slice(None, None, -2), slice(-4, None), slice(5, 2)):
        assert seq[part] == cones[part]
    with pytest.raises(IndexError):
        seq[-len(seq) - 1]
    with pytest.raises(IndexError):
        seq[len(seq)]
    with pytest.raises(ValueError):
        maximal_cones(5, 6)
    with pytest.raises(ValueError):
        refinement_maximal_cones(5, 4, 3)
    # C(67, 34) cones, more than sys.maxsize: len() cannot report them, and
    # the budget still draws 200 distinct cones, listed in index order
    huge = budget(maximal_cones(67, 34), 0)
    assert len(set(huge)) == CONE_BUDGET
    ranks = [sorted(c.min_set) for c in huge]
    assert ranks == sorted(ranks)
