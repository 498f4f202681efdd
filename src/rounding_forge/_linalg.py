"""Exact linear algebra: rank, RREF, nullspaces, LDL^T and congruence.

Rank, RREF, nullspaces and LDL^T clear their input to integers once (with
`cleared`) and eliminate fraction-free, in the manner of Bareiss: every
intermediate entry is a minor of the cleared matrix, so the only divisions
are exact, and each Fraction of the result is formed once at the end.
Congruent diagonalization works on Fractions. Everything here is
deterministic; pivots are chosen by position, never by size.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Matrix = list[list[Fraction]]


def identity(n: int) -> Matrix:
    zero, one = Fraction(0), Fraction(1)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def common_denominator(fracs: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators; 1 for no values."""
    # A list, not a generator: star-args built from a generator strand resized tuples on CPython's free lists.
    return lcm(*[f.denominator for f in fracs])


def cleared(lists: Sequence[Iterable[Fraction]]) -> tuple[list[list[int]], int]:
    """Integer lists scaled by the lcm L of all their denominators, and L.

    Entries are Fractions or ints; the package clears matrices and vectors
    here, and a Poly keeps its own cleared form (see polycore).
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


def _integer_rref(m: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns the nonzero rows, the pivot columns (picked left to right) and d:
    every pivot ends equal to the last pivot d, so the rows are d times the
    reduced row echelon form. Each step replaces every other row i by
    (p * m[i] - m[i][c] * m[r]) / p', with p the new pivot and p' the one
    before; rows below the pivot hold minors (Sylvester's identity) and rows
    above hold d times their reduced entries (Cramer's rule), so every
    division is exact. A row that reaches zero stays zero and is dropped.
    """
    m = [row for row in m if any(row)]
    if not m:
        return [], [], 1
    ncols = len(m[0])
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        p = prow[c]
        for i, row in enumerate(m):
            mic = row[c]
            if i == r or not (mic or p != prev):
                continue
            if mic:
                m[i] = [(p * x - mic * y) // prev for x, y in zip(row, prow)]
            else:
                m[i] = [p * x // prev for x in row]
        pivots.append(c)
        prev = p
        r += 1
        m[r:] = [row for row in m[r:] if any(row)]
        if r == len(m):
            break
    return m[:r], pivots, prev


def rref(rows: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; pivot columns are picked left to right.

    Returns the nonzero rows and the pivot column indices. The rows are
    scaled to integers and reduced fraction-free; the reduced form is unique,
    so it does not depend on that route.
    """
    red, pivots, d = _integer_rref(cleared(rows)[0])
    return [[Fraction(x, d) for x in row] for row in red], pivots


def nullspace(rows: Sequence[Sequence], ncols: int) -> list[tuple[Fraction, ...]]:
    """Canonical rational basis of {x : Mx = 0}, one vector per free column."""
    zero, one = Fraction(0), Fraction(1)
    red, pivots, d = _integer_rref(cleared(rows)[0])
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [zero] * ncols
        v[f] = one
        for row, p in zip(red, pivots):
            if row[f]:
                v[p] = Fraction(-row[f], d)
        basis.append(tuple(v))
    return basis


def congruent_diagonalize(s: Sequence[Sequence]) -> tuple[Matrix, list[Fraction]]:
    """Rational P with P^T S P diagonal, by Lagrange's method.

    When every remaining diagonal entry vanishes but some off-diagonal entry
    S[k][j] does not, the basis change e_k <- e_k + e_j creates the pivot
    2*S[k][j]; this is the u = x + y half of the classical hyperbolic split
    and is enough for the elimination to proceed. S must be square and
    symmetric; both callers pass a QuadForm's matrix, which QuadForm checked.
    """
    a = [[Fraction(x) for x in row] for row in s]
    n = len(a)
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
    """Exact LDL^T of a positive definite symmetric matrix, by symmetric Bareiss.

    S is cleared once to A = c * S and eliminated without division, which
    leaves Delta_k, the k-th leading principal minor of A, as the k-th pivot:
    D_k = Delta_k / (c * Delta_(k-1)), and L[i][k] = a_ik / Delta_k for the
    entry a_ik of the pivot column. Raises ValueError at the first pivot that
    is not positive, i.e. when the input is not positive definite. Only the
    lower triangle is updated, and a row with a zero in the pivot column is
    left alone while the pivot repeats, so an identity gram costs O(n^2)
    comparisons.
    """
    a, scale = cleared(s)
    n = len(a)
    lower = identity(n)
    diag: list[Fraction] = []
    prev = 1
    for k in range(n):
        p = a[k][k]
        if p <= 0:
            raise ValueError("matrix is not positive definite")
        diag.append(Fraction(p, scale * prev))
        for i in range(k + 1, n):
            row = a[i]
            aik = row[k]
            if aik:
                lower[i][k] = Fraction(aik, p)
                row[k + 1:i + 1] = [(p * row[j] - aik * a[j][k]) // prev for j in range(k + 1, i + 1)]
            elif p != prev:
                row[k + 1:i + 1] = [p * x // prev for x in row[k + 1:i + 1]]
        prev = p
    return lower, diag
