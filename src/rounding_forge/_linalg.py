"""Exact linear algebra: rank, RREF, nullspaces, LDL^T and congruence.

Rank, RREF, nullspaces, LDL^T and congruent diagonalization clear their
input to integers once (with `cleared`) and eliminate fraction-free, in the
manner of Bareiss: every intermediate entry is a minor of the cleared
matrix, so the only divisions are exact, and each Fraction of the result is
formed once. LDL^T and congruent diagonalization share one symmetric
elimination. Everything here is deterministic; pivots are chosen by
position, never by size.
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
    here, and a Poly or a QuadForm keeps its own cleared form (see polycore).
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


def _symmetric_bareiss(s: Sequence[Sequence]) -> tuple[list[int], Matrix, list[Fraction]]:
    """(order, lower, diag) with S[order[i]][order[j]] = (L D L^T)[i][j]:
    symmetric Bareiss on A = c * S with Lagrange's pivot rules.

    The k-th pivot is a minor Delta_k of A, so D_k = Delta_k / (c * Delta_(k-1))
    and L[i][k] = a_ik / Delta_k. A zero pivot swaps with the first later
    nonzero diagonal entry; failing that, e_k <- e_k + e_j for the first
    nonzero a_kj makes the pivot 2 * a_kj, after which order and lower no
    longer describe S (only an indefinite S gets there); failing that, the
    row is zero and D_k = 0. Both changes are unimodular, so divisions stay
    exact and D is the diagonal of Lagrange's method. Only the lower
    triangle is updated, so the block is made symmetric before a swap or an
    addition; a row with a zero in the pivot column is left alone while the
    pivot repeats, so an identity costs O(n^2) comparisons.
    """
    a, scale = cleared(s)
    n = len(a)
    order = list(range(n))
    lower = identity(n)
    diag: list[Fraction] = []
    prev = 1
    for k in range(n):
        if not a[k][k]:
            for i in range(k, n):
                a[i][i + 1:] = [a[j][i] for j in range(i + 1, n)]
            j = next((j for j in range(k + 1, n) if a[j][j]), None)
            if j is not None:
                a[k], a[j] = a[j], a[k]
                for row in a[k:]:
                    row[k], row[j] = row[j], row[k]
                order[k], order[j] = order[j], order[k]
                lower[k][:k], lower[j][:k] = lower[j][:k], lower[k][:k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j]), None)
                if j is None:
                    diag.append(Fraction(0))
                    continue
                a[k] = [x + y for x, y in zip(a[k], a[j])]
                for row in a[k:]:
                    row[k] += row[j]
        p = a[k][k]
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
    return order, lower, diag


def congruent_diagonalize(s: Sequence[Sequence]) -> tuple[list[int], Matrix, list[Fraction]]:
    """(order, lower, diag) as above. S must be square and symmetric; both
    callers pass a QuadForm's integer rows, square and symmetric by construction."""
    return _symmetric_bareiss(s)


def ldl(s: Sequence[Sequence]) -> tuple[Matrix, list[Fraction]]:
    """Exact LDL^T of a positive definite symmetric matrix.

    Raises ValueError unless every pivot is positive, which by Sylvester's
    law of inertia is exactly when S is positive definite; then no pivot
    was swapped.
    """
    _, lower, diag = _symmetric_bareiss(s)
    if not all(d > 0 for d in diag):
        raise ValueError("matrix is not positive definite")
    return lower, diag
