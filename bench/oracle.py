"""Independent exact arithmetic for the benchmark's correctness checks.

Polynomials are plain {exponent tuple: Fraction} dicts, multiplied and added
by the few lines below, so no check leans on the package's own arithmetic.
Matrices are lists of Fraction rows; `rank` is plain Gaussian elimination.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Poly = dict  # {exponents: Fraction}, zero coefficients never stored


def unit(m: int, *indices: int) -> tuple[int, ...]:
    e = [0] * m
    for i in indices:
        e[i] += 1
    return tuple(e)


def linear(row: Sequence[Fraction]) -> Poly:
    m = len(row)
    return {unit(m, i): Fraction(c) for i, c in enumerate(row) if c}


def quadratic(mat: Sequence[Sequence[Fraction]]) -> Poly:
    """x^T M x for a symmetric M."""
    m = len(mat)
    out: Poly = {}
    for i in range(m):
        for j in range(i, m):
            c = mat[i][j] if i == j else 2 * mat[i][j]
            if c:
                out[unit(m, i, j)] = Fraction(c)
    return out


def constant(m: int, c) -> Poly:
    return {(0,) * m: Fraction(c)} if c else {}


def add(*polys: Poly) -> Poly:
    out: Poly = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def scale(p: Poly, c) -> Poly:
    return {e: v * c for e, v in p.items()} if c else {}


def mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def inner(us: Iterable[Poly], vs: Iterable[Poly]) -> Poly:
    return add(*(mul(u, v) for u, v in zip(us, vs)))


def homogenize(p: Poly, degree: int) -> Poly:
    """Append one variable that lifts every term to the given degree."""
    return {e + (degree - sum(e),): c for e, c in p.items()}


def rank(rows: Sequence[Sequence]) -> int:
    a = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]
