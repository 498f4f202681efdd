"""Exact linear algebra over Fraction: rank, RREF, nullspaces, congruence, LDL^T.

Everything here is deterministic; pivots are chosen by position, never by size.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Matrix = list[list[Fraction]]


def to_fraction_matrix(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(a: Sequence[Sequence[Fraction]]) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def matmul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions differ")
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def common_denominator(fracs: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators; 1 for no values."""
    # A list, not a generator: star-args built from a generator strand resized tuples on CPython's free lists.
    return lcm(*[f.denominator for f in fracs])


def cleared(lists: Sequence[Iterable[Fraction]]) -> tuple[list[list[int]], int]:
    """Integer lists scaled by the lcm L of all their denominators, and L.

    Entries are Fractions or ints; this is the one place the package clears
    denominators.
    """
    scale = common_denominator(x for row in lists for x in row)
    return [[x.numerator * (scale // x.denominator) for x in row] for row in lists], scale


def exact_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over the rationals: the matrix is scaled to integers, which does
    not change the rank, and the integer rank is taken."""
    return integer_rank(cleared(rows)[0])


def integer_rank(m: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination; m is overwritten.

    Intermediate entries stay integral, so the only divisions are exact.
    Columns with no pivot below the current row are skipped, which leaves the
    Bareiss divisibility invariant intact.
    """
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    denom = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            for j in range(c + 1, ncols):
                m[i][j] = (p * m[i][j] - mic * m[r][j]) // denom
            m[i][c] = 0
        denom = p
        r += 1
        if r == nrows:
            break
    return r


def rref(rows: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; pivot columns are picked left to right.

    Returns the nonzero rows and the pivot column indices.
    """
    a = to_fraction_matrix(rows)
    if not a:
        return [], []
    nrows, ncols = len(a), len(a[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a[:r], pivots


def nullspace(rows: Sequence[Sequence], ncols: int) -> list[tuple[Fraction, ...]]:
    """Canonical rational basis of {x : Mx = 0}, one vector per free column."""
    if not rows:
        return [tuple(Fraction(int(i == j)) for i in range(ncols)) for j in range(ncols)]
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(tuple(v))
    return basis


def congruent_diagonalize(s: Sequence[Sequence]) -> tuple[Matrix, list[Fraction]]:
    """Rational P with P^T S P diagonal, by Lagrange's method.

    When every remaining diagonal entry vanishes but some off-diagonal entry
    S[k][j] does not, the basis change e_k <- e_k + e_j creates the pivot
    2*S[k][j]; this is the u = x + y half of the classical hyperbolic split
    and is enough for the elimination to proceed.
    """
    a = to_fraction_matrix(s)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix not square")
    for i in range(n):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix not symmetric")
    p = identity(n)

    def add_col(dst: int, src: int, f: Fraction) -> None:
        for i in range(n):
            a[i][dst] += f * a[i][src]
        for j in range(n):
            a[dst][j] += f * a[src][j]
        for i in range(n):
            p[i][dst] += f * p[i][src]

    def swap(i: int, j: int) -> None:
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]
        for r in range(n):
            p[r][i], p[r][j] = p[r][j], p[r][i]

    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if j is not None:
                swap(k, j)
            else:
                j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if j is None:
                    continue
                add_col(k, j, Fraction(1))
        d = a[k][k]
        for i in range(k + 1, n):
            if a[k][i] != 0:
                add_col(i, k, -a[k][i] / d)
    return p, [a[i][i] for i in range(n)]


def ldl(s: Sequence[Sequence]) -> tuple[Matrix, list[Fraction]]:
    """Exact LDL^T of a positive definite symmetric matrix.

    Raises ValueError when a pivot is not positive, i.e. when the input is
    not positive definite. Each row keeps its nonzero (k, L[i][k] * D[k])
    for the columns done so far, and both sums run over those alone, so an
    identity gram costs O(n^2) comparisons instead of O(n^3) products.
    """
    a = to_fraction_matrix(s)
    n = len(a)
    lower = identity(n)
    diag: list[Fraction] = []
    # L[i][j] * D[j] is the off-diagonal value that L[i][j] was divided from
    scaled: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
    for j in range(n):
        terms = scaled[j]
        d = a[j][j]
        if terms:
            d -= sum([lower[j][k] * ld for k, ld in terms])
        if d <= 0:
            raise ValueError("matrix is not positive definite")
        diag.append(d)
        for i in range(j + 1, n):
            off = a[i][j]
            if terms:
                row = lower[i]
                off -= sum([row[k] * ld for k, ld in terms])
            if off:
                lower[i][j] = off / d
                scaled[i].append((j, off))
    return lower, diag
