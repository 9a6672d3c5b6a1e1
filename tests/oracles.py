"""Independent brute-force oracles used to validate the engine.

Everything here is linear algebra or exhaustive enumeration over exact
rationals, deliberately sharing no code with the division/Buchberger path it
checks.
"""

from __future__ import annotations

from fractions import Fraction

from gentrop.poly import Polynomial


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


def _echelon(rows: list) -> list:
    """Reduced row echelon form over Fraction, dropping zero rows."""
    rows = [list(r) for r in rows]
    out = []
    cols = len(rows[0]) if rows else 0
    pivot_col = {}
    for row in rows:
        r = row[:]
        for c, pr in pivot_col.items():
            if r[c]:
                f = r[c]
                r = [a - f * b for a, b in zip(r, pr)]
        lead = next((c for c in range(cols) if r[c]), None)
        if lead is None:
            continue
        inv = r[lead]
        r = [a / inv for a in r]
        for c, pr in list(pivot_col.items()):
            if pr[lead]:
                f = pr[lead]
                pivot_col[c] = [a - f * b for a, b in zip(pr, r)]
        pivot_col[lead] = r
    for c in sorted(pivot_col):
        out.append(pivot_col[c])
    return out


def _in_rowspace(vec, echelon_rows) -> bool:
    r = list(vec)
    cols = len(r)
    for row in echelon_rows:
        lead = next(c for c in range(cols) if row[c])
        if r[lead]:
            f = r[lead]
            r = [a - f * b for a, b in zip(r, row)]
    return all(x == 0 for x in r)


def _coeff_vec(f: Polynomial, basis: list) -> list:
    index = {e: i for i, e in enumerate(basis)}
    v = [Fraction(0)] * len(basis)
    for e, c in f.terms:
        v[index[e]] = c
    return v


def degree_span(generators, n: int, d: int) -> list:
    """Echelon basis of the degree-d slice of the ideal the homogeneous
    ``generators`` generate: the span of all monomial multiples of degree d."""
    basis = monomials_of_degree(n, d)
    rows = []
    for g in generators:
        dg = g.degree
        if dg is None or dg > d:
            continue
        for shift in monomials_of_degree(n, d - dg):
            mult = g * Polynomial.monomial(n, shift)
            rows.append(_coeff_vec(mult, basis))
    return _echelon(rows)


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
        basis = monomials_of_degree(n, d)
        if not all(_in_rowspace(_coeff_vec(f, basis), span) for f in group):
            return False
    return True


def slice_dimension(generators, n: int, d: int) -> int:
    return len(degree_span(generators, n, d))


def colon_power_slice(generators, f: Polynomial, power: int, n: int, d: int) -> int:
    """Dimension of the degree-d slice of (I : f^power), where I is generated
    by homogeneous ``generators``: solve g * f^power in I for unknown g."""
    fp = f**power
    target_deg = d + fp.degree
    lam_basis = monomials_of_degree(n, d)
    big_basis = monomials_of_degree(n, target_deg)
    big_index = {e: i for i, e in enumerate(big_basis)}
    columns = []
    for lam in lam_basis:
        mult = fp * Polynomial.monomial(n, lam)
        columns.append(_coeff_vec(mult, big_basis))
    for g in generators:
        dg = g.degree
        if dg is None or dg > target_deg:
            continue
        for shift in monomials_of_degree(n, target_deg - dg):
            mult = g * Polynomial.monomial(n, shift)
            columns.append([-c for c in _coeff_vec(mult, big_basis)])
    # Null space of the column matrix; count solutions with free lambda part.
    rows = len(big_basis)
    ncols = len(columns)
    mat = [[columns[j][i] for j in range(ncols)] for i in range(rows)]
    ech = _echelon(mat)
    pivots = set()
    for row in ech:
        pivots.add(next(c for c in range(ncols) if row[c]))
    free_cols = [j for j in range(ncols) if j not in pivots]
    # Solutions projected to the lambda block: dimension equals the number of
    # free columns in the lambda block plus the rank of pivot-solved lambdas
    # expressed through free columns; enumerate a spanning set instead.
    sols = []
    k = len(lam_basis)
    for fc in free_cols:
        sol = [Fraction(0)] * ncols
        sol[fc] = Fraction(1)
        for row in reversed(ech):
            lead = next(c for c in range(ncols) if row[c])
            s = sum(row[c] * sol[c] for c in range(lead + 1, ncols))
            sol[lead] = -s
        sols.append(sol[:k])
    lam_span = _echelon([s for s in sols if any(s)])
    return len(lam_span)


def saturation_slice(generators, f: Polynomial, n: int, d: int, stable_power: int = 4) -> int:
    """Dimension of the degree-d slice of (I : f^infinity), with a
    stabilization check on the exponent."""
    a = colon_power_slice(generators, f, stable_power, n, d)
    b = colon_power_slice(generators, f, stable_power + 1, n, d)
    assert a == b, "saturation oracle has not stabilized; raise stable_power"
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
    """Counts per degree of monomials outside the monomial ideal."""
    counts = []
    for d in range(upto + 1):
        c = 0
        for e in monomials_of_degree(n, d):
            if not any(all(a <= b for a, b in zip(g, e)) for g in min_gens):
                c += 1
        counts.append(c)
    return counts


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
