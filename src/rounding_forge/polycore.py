"""Exact rational polynomial layer: scalars, low-degree multivariate
polynomials, quadratic forms, polynomial maps, and the four exact operations
everything else is built on (inner products, exact division, linear rank,
form signatures).

A Poly stores integer numerators keyed by packed exponents, a QuadForm integer rows, each over
one reduced denominator; the kernels use only that form, and `terms` and `matrix` are built on first read.
A jet's matrices are cleared once for A and once for all B_i. A PolyMap keeps, from its first inner
product, a column form, each coordinate's integer coefficient per key, that inner_poly sums per key pair.

Degrees are capped at MAX_DEGREE = 8: a squared norm of a quadratic map has
degree 4, and squared norms of order-4 series truncations reach 8. The cap is
enforced at construction so a degree blow-up fails loudly at its source.
Exponents must be ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Mapping, Sequence

import numpy as np

from . import _linalg

Rational = Fraction
# The quartic norm identities need degree 4; squared norms of order-4 series
# truncations reach degree 8. Anything past that is a bug.
MAX_DEGREE = 8

Exponents = tuple[int, ...]
# Bits per variable in a packed exponent key: the field holds the sum of two
# capped exponents, so adding two keys never carries into the next variable.
# Above the variable fields sits the total degree, and x_m is the highest
# variable field, so integer order on keys is graded lexicographic order with
# x1 < x2 < ...: total degree first, then the later variables' exponents.
_FIELD_BITS = (2 * MAX_DEGREE).bit_length()
_FIELD_MASK = (1 << _FIELD_BITS) - 1


class CertificateError(Exception):
    """An exact identity the construction guarantees failed to hold.

    This signals a defect in the toolkit, not bad input; it is raised, never
    asserted, so it survives python -O.
    """


def as_rational(x) -> Fraction:
    """Coerce ints and strings like '3/4'; pass Fractions through; reject floats."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("refusing to coerce a float into the exact layer")
    return Fraction(x)


def _pack(exps: Exponents) -> int:
    key = sum(exps)
    for k in reversed(exps):
        key = (key << _FIELD_BITS) | k
    return key


def _unpack(key: int, num_vars: int) -> Exponents:
    return tuple([(key >> (_FIELD_BITS * i)) & _FIELD_MASK for i in range(num_vars)])


def _int_poly(num_vars: int, ints: dict[int, int], den: int) -> "Poly":
    """The Poly of numerators ints over den > 0, reduced by their common factor.

    Only this module's kernels build one, from packed keys of num_vars fields,
    nonzero numerators and degree within the cap."""
    g = gcd(den, *ints.values())
    if g != 1:
        ints = {k: c // g for k, c in ints.items()}
        den //= g
    poly = object.__new__(Poly)
    for name, value in zip(Poly.__slots__, (num_vars, ints, den, None)):
        object.__setattr__(poly, name, value)
    return poly


def _degree_cap_error(degree: int) -> ValueError:
    return ValueError(f"total degree {degree} exceeds cap {MAX_DEGREE}")


class Poly:
    """Polynomial with rational coefficients in variables x1..xm.

    Stored as packed exponent keys with integer numerators over one reduced
    positive denominator, so structural equality is equality of that form.
    `terms` maps each exponent tuple to its nonzero Fraction coefficient, in
    stored order. Instances are immutable; no method mutates self.
    """

    __slots__ = ("num_vars", "_ints", "_den", "_terms")

    def __init__(self, num_vars: int, terms: Mapping[Exponents, object] | None = None):
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            # type(), not isinstance(): bool is an int, and True is no exponent
            if any(type(e) is not int for e in exps):
                raise TypeError(f"exponents must be ints, got {exps!r}")
            if len(exps) != num_vars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {num_vars} variables")
            if sum(exps) > MAX_DEGREE:
                raise _degree_cap_error(sum(exps))
            c = as_rational(coeff)
            if c != 0:
                clean[exps] = c
        # the lcm of reduced denominators leaves the numerators no common factor with it
        den = lcm(*[c.denominator for c in clean.values()])
        ints = {_pack(e): c.numerator * (den // c.denominator) for e, c in clean.items()}
        for name, value in zip(Poly.__slots__, (num_vars, ints, den, clean)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        if self._terms is None:
            terms = {_unpack(k, self.num_vars): Fraction(c, self._den) for k, c in self._ints.items()}
            object.__setattr__(self, "_terms", terms)
        return self._terms

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero(num_vars: int) -> "Poly":
        return Poly(num_vars, {})

    @staticmethod
    def constant(num_vars: int, c) -> "Poly":
        return Poly(num_vars, {(0,) * num_vars: c})

    @staticmethod
    def variable(num_vars: int, i: int) -> "Poly":
        """The coordinate polynomial x_{i+1} (index is 0-based)."""
        if not 0 <= i < num_vars:
            raise ValueError("variable index out of range")
        exps = tuple(int(j == i) for j in range(num_vars))
        return Poly(num_vars, {exps: 1})

    @staticmethod
    def linear(coeffs: Sequence) -> "Poly":
        """Homogeneous linear polynomial with the given coefficient vector."""
        n = len(coeffs)
        ints, den = _linalg.cleared([[as_rational(c) for c in coeffs]])
        return _int_poly(n, {k: c for k, c in zip(_unit_keys(n), ints[0]) if c}, den)

    # ---- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._ints

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        return max(self._ints) >> (_FIELD_BITS * self.num_vars) if self._ints else -1

    def homogeneous_part(self, d: int) -> "Poly":
        top = _FIELD_BITS * self.num_vars
        return _int_poly(self.num_vars, {k: c for k, c in self._ints.items() if k >> top == d}, self._den)

    def is_homogeneous(self, d: int) -> bool:
        top = _FIELD_BITS * self.num_vars
        return all(k >> top == d for k in self._ints)

    def constant_term(self) -> Fraction:
        return Fraction(self._ints.get(0, 0), self._den)

    def leading(self) -> tuple[Exponents, Fraction]:
        if not self._ints:
            raise ValueError("zero polynomial has no leading term")
        k = max(self._ints)
        return _unpack(k, self.num_vars), Fraction(self._ints[k], self._den)

    # ---- arithmetic ----------------------------------------------------

    def _check_same_space(self, other: "Poly") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError("polynomials live in different variable spaces")

    def _combine(self, other, sign: int):
        """self + sign * other, termwise, for sign 1 or -1."""
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.num_vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_space(other)
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, sign * (den // other._den)
        out = {k: c * sa for k, c in self._ints.items()}
        for k, c in other._ints.items():
            out[k] = out.get(k, 0) + c * sb
        return _int_poly(self.num_vars, {k: c for k, c in out.items() if c}, den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _int_poly(self.num_vars, {k: -c for k, c in self._ints.items()}, self._den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            ints = {k: c * other.numerator for k, c in self._ints.items()} if other else {}
            return _int_poly(self.num_vars, ints, self._den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_space(other)
        return _sum_of_products(self.num_vars, [(self, other)])

    __rmul__ = __mul__

    # ---- evaluation and homogenization ----------------------------------

    def __call__(self, point: Sequence) -> Fraction:
        vals = [as_rational(x) for x in point]
        if len(vals) != self.num_vars:
            raise ValueError("point dimension mismatch")
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for v, k in zip(vals, e):
                if k:
                    term *= v**k
            total += term
        return total

    def eval_float(self, point: Sequence[float]) -> float:
        return _eval_floats([self], point)[0]

    def homogenize(self, total: int) -> "Poly":
        """Pad with a trailing variable so every term reaches the given degree."""
        if type(total) is not int:
            raise TypeError(f"degree must be an int, got {total!r}")
        if total < self.degree():
            raise ValueError("target degree below actual degree")
        if total > MAX_DEGREE and self._ints:
            raise _degree_cap_error(total)
        # the old degree field becomes the new variable's field, under the new degree
        top = _FIELD_BITS * self.num_vars
        head, low = total << (top + _FIELD_BITS), (1 << top) - 1
        ints = {head | ((total - (k >> top)) << top) | (k & low): c for k, c in self._ints.items()}
        return _int_poly(self.num_vars + 1, ints, self._den)

    # ---- dunderware ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.num_vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.num_vars == other.num_vars and self._den == other._den and self._ints == other._ints

    def __hash__(self):
        return hash((self.num_vars, self._den, frozenset(self._ints.items())))

    def __repr__(self):
        return f"Poly({self.num_vars}, {self})"

    def __str__(self):
        if not self._ints:
            return "0"
        bits = []
        for k in sorted(self._ints, reverse=True):
            c = Fraction(self._ints[k], self._den)
            mono = "*".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(_unpack(k, self.num_vars)) if e
            )
            if not mono:
                bits.append(f"{c}")
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}*{mono}")
        out = " + ".join(bits)
        return out.replace("+ -", "- ")


class _FloatForm:
    """Polys compiled once for float evaluation at many points.

    `slots` numbers the powers (v, k), x[v] ** k, that the compiled terms
    use; `powers(x)` is the table pw of those powers at a stack x of points,
    one row per slot and one column per point, with a trailing row of 1.0.
    `add(p)` turns p into rows: an array of float coefficients, one per term
    in stored order, and a matrix of slots, the slots of each term's nonzero
    exponents in variable order, padded with -1, the 1.0 row, up to the
    widest term of p (at least two). _eval_float_rows multiplies each
    coefficient by its slots and adds the terms from 0.0; multiplying by 1.0
    is exact, so the operations are those of a direct loop over the terms
    at each point."""

    __slots__ = ("slots",)

    def __init__(self):
        self.slots: dict[tuple[int, int], int] = {}

    def add(self, p: Poly) -> tuple[np.ndarray, np.ndarray]:
        """p's rows; a coefficient outside float range raises OverflowError."""
        # int / int rounds correctly, as float() of the Fraction does
        terms = [(c / p._den, [(v, k) for v, k in enumerate(_unpack(e, p.num_vars)) if k])
                 for e, c in p._ints.items()]
        width = max([2, *[len(factors) for _, factors in terms]])
        slots = np.full((len(terms), width), -1)
        for row, (_, factors) in zip(slots, terms):
            row[:len(factors)] = [self.slots.setdefault(factor, len(self.slots)) for factor in factors]
        return np.array([c for c, _ in terms]), slots

    def powers(self, x: np.ndarray) -> np.ndarray:
        """The power table of a (points, variables) stack x. A power k = 1 is x
        itself, and k >= 2 is Python's ** on each float: numpy's power is
        not the C library's pow, and differs from it in the last bit."""
        pw = np.empty((len(self.slots) + 1, len(x)))
        for row, (v, k) in zip(pw, self.slots):
            row[:] = x[:, v] if k == 1 else [c ** k for c in x[:, v].tolist()]
        pw[-1] = 1.0
        return pw


def _eval_float_rows(rows: tuple[np.ndarray, np.ndarray], pw: np.ndarray) -> np.ndarray:
    """The values of _FloatForm.add rows at each point of the power table pw.

    Each term is its coefficient times its slots, left to right. The terms
    are added by np.add.accumulate from a leading row of 0.0, which adds
    them one at a time in stored order, as a running total does (np.sum
    adds pairwise); the leading 0.0 turns a first term of -0.0 into 0.0, as
    0.0 + -0.0 does. Overflow to inf or nan raises no warning, as in Python
    floats."""
    coeffs, slots = rows
    terms = np.zeros((len(coeffs) + 1, pw.shape[1]))
    with np.errstate(all="ignore"):
        np.multiply(coeffs[:, np.newaxis], pw[slots[:, 0]], out=terms[1:])
        for column in slots.T[1:]:
            terms[1:] *= pw[column]
        return np.add.accumulate(terms)[-1]


def _eval_floats(polys: Sequence[Poly], point: Sequence[float]) -> list[float]:
    """The values of polys, which share their variables, at a point of floats,
    from one compiled form and a power table of that one point."""
    if polys and len(point) != polys[0].num_vars:
        raise ValueError("point dimension mismatch")
    form = _FloatForm()
    rows = [form.add(p) for p in polys]
    pw = form.powers(np.array([[float(v) for v in point]]))
    return [float(_eval_float_rows(r, pw)[0]) for r in rows]


def _unit_keys(num_vars: int) -> list[int]:
    """The packed keys of x1, ..., x_m; x_i * x_j has key unit[i] + unit[j]."""
    top = 1 << (_FIELD_BITS * num_vars)
    return [top + (1 << (_FIELD_BITS * i)) for i in range(num_vars)]


def _quadratic_polys(num_vars: int, coords: Sequence[Sequence[tuple[int, int, Rational | int]]]) -> list[Poly]:
    """One Poly per coordinate, with terms c * x_i * x_j for its (i, j, c) in
    the given order, built from packed keys: the monomials of a coordinate
    are distinct, and its rationals c nonzero. Each coordinate is cleared
    over the lcm of its own denominators, as the constructor clears it."""
    unit = _unit_keys(num_vars)
    polys = []
    for terms in coords:
        (ints,), den = _linalg.cleared([[c for _, _, c in terms]])
        polys.append(_int_poly(num_vars, {unit[i] + unit[j]: v for (i, j, _), v in zip(terms, ints)}, den))
    return polys


def _factors(key: int, num_vars: int) -> tuple[int, ...]:
    """The variable of each factor of the monomial with this key, in
    increasing order: the lowest set bit names the next nonzero field, so
    only the set fields are read, not all num_vars."""
    key &= (1 << (_FIELD_BITS * num_vars)) - 1  # drop the total degree
    out = []
    while key:
        i = ((key & -key).bit_length() - 1) // _FIELD_BITS
        e = (key >> (_FIELD_BITS * i)) & _FIELD_MASK
        out += [i] * e
        key ^= e << (_FIELD_BITS * i)
    return tuple(out)


def _quadratic_terms(polys: Sequence[Poly]) -> tuple[list[tuple[int, list, list]], int]:
    """Polys of degree at most 2 as integer numerators over one shared
    denominator, split by degree.

    Each Poly becomes (constant, linear, quadratic): its constant numerator,
    (i, c) for each term c*x_i and (i, j, c), i <= j, for each c*x_i*x_j.
    """
    den = lcm(*[p._den for p in polys])
    out = []
    for p in polys:
        scale = den // p._den
        const, linear, quad = 0, [], []
        for k, c in p._ints.items():
            c *= scale
            factors = _factors(k, p.num_vars)
            if not factors:
                const = c
            elif len(factors) == 1:
                linear.append((factors[0], c))
            else:
                i, j = factors  # a wider term fails to unpack
                quad.append((i, j, c))
        out.append((const, linear, quad))
    return out, den


def _sum_of_products(num_vars: int, pairs: Sequence[tuple[Poly, Poly]]) -> Poly:
    """The polynomial sum of a * b over the pairs.

    The multiply-adds run on the stored integer numerators, each pair scaled
    to the lcm of the pairs' denominators, and a monomial product is one
    addition of packed keys. The sum is reduced once, at the end.
    """
    den = lcm(*[a._den * b._den for a, b in pairs])
    acc: dict[int, int] = {}
    for a, b in pairs:
        scale = den // (a._den * b._den)
        right = b._ints.items()
        for k1, c1 in a._ints.items():
            c1 *= scale
            for k2, c2 in right:
                k = k1 + k2
                acc[k] = acc.get(k, 0) + c1 * c2
    out = {k: c for k, c in acc.items() if c}
    top = _FIELD_BITS * num_vars
    if out and max(out) >> top > MAX_DEGREE:
        raise _degree_cap_error(next(k >> top for k in out if k >> top > MAX_DEGREE))
    return _int_poly(num_vars, out, den)


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Multivariate division of f by the single divisor g.

    Uses graded lexicographic order with x1 < x2 < ... . A single divisor is
    its own Groebner basis, so the remainder vanishes exactly when g divides
    f as a polynomial.

    The division is fraction-free (Knuth, TAOCP vol. 2, 4.6.1) on the stored
    integer numerators: the working polynomial is scaled, as a whole, only
    when g's integer leading coefficient does not divide the working leading
    coefficient. Each quotient and remainder term records the scale it was
    found at, and is brought to the final scale at the end.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    f._check_same_space(g)
    glead, gcoeff = max(g._ints.items())
    g_rest = [(k, c) for k, c in g._ints.items() if k != glead]
    # A top bit in every variable field: (key | high) - glead borrows from no
    # neighbour, and the top bits all survive exactly when glead divides key.
    high = sum([1 << (_FIELD_BITS * (i + 1) - 1) for i in range(f.num_vars)])
    work = dict(f._ints)
    scale = 1
    quot: list[tuple[int, int, int]] = []
    rem: list[tuple[int, int, int]] = []
    while work:
        le = max(work)
        lc = work.pop(le)
        diff = (le | high) - glead
        if diff & high != high:
            rem.append((le, lc, scale))
            continue
        diff ^= high
        if lc % gcoeff:
            step = abs(gcoeff) // gcd(lc, gcoeff)
            scale *= step
            lc *= step
            work = {k: v * step for k, v in work.items()}
        c = lc // gcoeff
        quot.append((diff, c, scale))
        for k, v in g_rest:
            k += diff
            v = work.get(k, 0) - c * v
            if v:
                work[k] = v
            else:
                work.pop(k, None)
    # f = F/f_den and g = G/g_den, so q = Q * g_den/f_den and r = R/f_den; c found at scale s stands for c/s
    q = {k: c * (scale // s) * g._den for k, c, s in quot}
    r = {k: c * (scale // s) for k, c, s in rem}
    return _int_poly(f.num_vars, q, scale * f._den), _int_poly(f.num_vars, r, scale * f._den)


def divide_exact(f: Poly, g: Poly) -> Poly | None:
    """The polynomial h with f = g*h, or None when no such h exists."""
    q, r = poly_divmod(f, g)
    return q if r.is_zero() else None


def _symmetric_rows(rows: list[list[int]]) -> list[list[int]]:
    """The cleared rows, once checked to make a square, symmetric matrix."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix not square")
    if any(rows[i][j] != rows[j][i] for i in range(len(rows)) for j in range(i)):
        raise ValueError("matrix not symmetric")
    return rows


def _form_poly(rows: Sequence[Sequence[int]], den: int) -> Poly:
    """x^T S x for symmetric integer rows S over den, its terms in the order of S's upper triangle."""
    n, unit = len(rows), _unit_keys(len(rows))
    ints = {unit[i] + unit[j]: rows[i][j] if i == j else 2 * rows[i][j]
            for i in range(n) for j in range(i, n) if rows[i][j]}
    return _int_poly(n, ints, den)


def _store_form(form: "QuadForm", rows: Sequence[Sequence[int]], den: int) -> "QuadForm":
    """Store symmetric integer rows over den > 0 in form, reduced by their gcd; unchecked."""
    g = gcd(den, *[x for row in rows for x in row])
    object.__setattr__(form, "_ints", tuple([tuple([x // g for x in row]) for row in rows]))
    object.__setattr__(form, "_den", den // g)
    return form


@dataclass(frozen=True, init=False)
class QuadForm:
    """Homogeneous quadratic form of a symmetric rational matrix, stored as reduced integer
    rows over one denominator that `==` and `hash` compare; `matrix` is a Fraction view."""

    _ints: tuple[tuple[int, ...], ...]
    _den: int

    def __init__(self, matrix):
        rows, den = _linalg.cleared([[as_rational(x) for x in row] for row in matrix])
        _store_form(self, _symmetric_rows(rows), den)

    @cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple([tuple([Fraction(x, self._den) for x in row]) for row in self._ints])

    @property
    def dim(self) -> int:
        return len(self._ints)

    def _int_rows(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The integer rows over their denominator, as _linalg.cleared gives `matrix`: _linalg's input."""
        return self._ints, self._den

    @staticmethod
    def from_poly(p: Poly) -> "QuadForm":
        if not p.is_homogeneous(2):
            raise ValueError("not a homogeneous quadratic")
        n = p.num_vars
        # over 2 * den: c * x_i^2 gives S_ii = 2c, and c * x_i * x_j gives S_ij = S_ji = c
        rows = [[0] * n for _ in range(n)]
        for k, c in p._ints.items():
            i, j = _factors(k, n)
            rows[i][j] = rows[j][i] = 2 * c if i == j else c
        return _store_form(object.__new__(QuadForm), rows, 2 * p._den)

    def to_poly(self) -> Poly:
        return _form_poly(self._ints, self._den)

    def __call__(self, point: Sequence) -> Fraction:
        """x^T S x, exactly: the value of to_poly() at point, by Poly's one exact evaluator."""
        return self.to_poly()(point)

    def __neg__(self) -> "QuadForm":
        return _store_form(object.__new__(QuadForm), [[-x for x in row] for row in self._ints], self._den)

    def restricted(self, basis: Sequence[Sequence]) -> "QuadForm":
        """Pull the form back along the subspace spanned by the given vectors.

        The Gram matrix K S K^T of the basis rows K is computed on integers:
        K = K' / k is cleared once, S = S' / s is stored that way, and the
        result is K' S' K'^T over s k^2.
        """
        rows, k_den = _linalg.cleared([[as_rational(x) for x in v] for v in basis])
        if any(len(v) != self.dim for v in rows):
            raise ValueError("inner dimensions differ")
        # S is symmetric, so its rows are its columns
        ks = [[sum([x * y for x, y in zip(v, col)]) for col in self._ints] for v in rows]
        gram = [[sum([x * y for x, y in zip(u, w)]) for w in rows] for u in ks]
        return _store_form(object.__new__(QuadForm), gram, self._den * k_den * k_den)


class PolyMap:
    """Finite tuple of polynomials sharing a source space, degree at most 2.

    This is the shape of every map in the toolkit: linear parts, quadratic
    parts, numerators of fractional-quadratic maps, sphere maps.
    """

    __slots__ = ("source_dim", "target_dim", "coords", "_columns")

    def __init__(self, source_dim: int, coords: Sequence[Poly]):
        coords = tuple(coords)
        for c in coords:
            if c.num_vars != source_dim:
                raise ValueError("coordinate has wrong number of variables")
            if c.degree() > 2:
                raise ValueError("polynomial map coordinates are capped at degree 2")
        for name, value in zip(PolyMap.__slots__, (source_dim, len(coords), coords, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMap is immutable")

    # ---- constructors ----------------------------------------------------

    @staticmethod
    def from_linear_matrix(rows: Sequence[Sequence]) -> "PolyMap":
        """Map x -> Mx for an n x m coefficient matrix, its rows cleared together."""
        m = len(rows[0]) if rows else 0
        ints, den = _linalg.cleared([[as_rational(x) for x in row] for row in rows])
        if any(len(row) != m for row in ints):
            raise ValueError("coordinate has wrong number of variables")
        unit = _unit_keys(m)
        return PolyMap(m, [_int_poly(m, {k: c for k, c in zip(unit, row) if c}, den) for row in ints])

    @staticmethod
    def from_symmetric_matrices(matrices: Sequence[Sequence[Sequence]]) -> "PolyMap":
        """Map x -> (x^T S_1 x, ..., x^T S_n x), the rows of all S_i cleared
        together; each coordinate stores what QuadForm(S_i).to_poly() does."""
        if not matrices:
            raise ValueError("need at least one form")
        ints, den = _linalg.cleared([[as_rational(x) for x in row] for mat in matrices for row in mat])
        rows = iter(ints)
        return PolyMap(len(matrices[0]), [_form_poly(_symmetric_rows([next(rows) for _ in mat]), den)
                                          for mat in matrices])

    @staticmethod
    def zero(source_dim: int, target_dim: int) -> "PolyMap":
        return PolyMap(source_dim, [Poly.zero(source_dim)] * target_dim)

    @staticmethod
    def identity(n: int) -> "PolyMap":
        return PolyMap(n, [Poly.variable(n, i) for i in range(n)])

    # ---- structure -------------------------------------------------------

    def homogeneous_part(self, d: int) -> "PolyMap":
        return PolyMap(self.source_dim, [c.homogeneous_part(d) for c in self.coords])

    def is_linear(self) -> bool:
        return all(c.is_zero() or c.is_homogeneous(1) for c in self.coords)

    def linear_matrix(self) -> list[list[Fraction]]:
        """Coefficient matrix of a homogeneous linear map, rows = coordinates."""
        rows, den = self._linear_ints()
        return [[Fraction(x, den) for x in row] for row in rows]

    def _linear_ints(self) -> tuple[list[list[int]], int]:
        """The coefficient matrix of a homogeneous linear map as integer rows
        over one shared denominator, as _linalg.cleared gives it."""
        if not self.is_linear():
            raise ValueError("map is not homogeneous linear")
        keys = _unit_keys(self.source_dim)
        den = lcm(*[c._den for c in self.coords])
        return [[c._ints.get(k, 0) * (den // c._den) for k in keys] for c in self.coords], den

    def quadratic_forms(self) -> list[QuadForm]:
        return [QuadForm.from_poly(c) for c in self.coords]

    # ---- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "PolyMap") -> None:
        if self.source_dim != other.source_dim or self.target_dim != other.target_dim:
            raise ValueError("maps have different shapes")

    def __add__(self, other: "PolyMap") -> "PolyMap":
        self._check_compatible(other)
        return PolyMap(self.source_dim, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "PolyMap") -> "PolyMap":
        self._check_compatible(other)
        return PolyMap(self.source_dim, [a - b for a, b in zip(self.coords, other.coords)])

    def scaled(self, c) -> "PolyMap":
        c = as_rational(c)
        return PolyMap(self.source_dim, [c * p for p in self.coords])

    def times_poly(self, p: Poly) -> "PolyMap":
        """Coordinate-wise product; the degree cap still applies."""
        return PolyMap(self.source_dim, [p * c for c in self.coords])

    # ---- evaluation ---------------------------------------------------------

    def __call__(self, point: Sequence) -> tuple[Fraction, ...]:
        return tuple(c(point) for c in self.coords)

    def eval_float(self, point: Sequence[float]) -> list[float]:
        return _eval_floats(self.coords, point)

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.source_dim == other.source_dim and self.coords == other.coords

    def __hash__(self):
        return hash((self.source_dim, self.coords))

    def __repr__(self):
        body = ", ".join(str(c) for c in self.coords)
        return f"PolyMap(R^{self.source_dim} -> R^{self.target_dim}; {body})"


def _column_form(u: PolyMap) -> tuple[list[tuple[int, list[int]]], int]:
    """u's column form, built once into its slot: each key of its coordinates in order of first
    appearance, with its column of integer coefficients, one per coordinate, and their lcm denominator."""
    if u._columns is None:
        den, columns = lcm(*[c._den for c in u.coords]), {}
        for i, c in enumerate(u.coords):
            scale = den // c._den
            for k, x in c._ints.items():
                columns.setdefault(k, [0] * u.target_dim)[i] = x * scale
        object.__setattr__(u, "_columns", (list(columns.items()), den))
    return u._columns


def inner_poly(u: PolyMap, v: PolyMap) -> Poly:
    """Pointwise Euclidean inner product <U, V> as a polynomial.

    The sum over coordinates comes first: a key pair (s, t) of the column
    forms adds the dot product of their columns, one update per key pair, not
    one per coordinate and term pair. When u is v only the pairs s <= t are
    visited, s < t twice. Coordinates have degree at most 2, so no cap check.
    """
    if u.source_dim != v.source_dim or u.target_dim != v.target_dim:
        raise ValueError("maps have different shapes")
    (left, left_den), (right, right_den) = _column_form(u), _column_form(v)
    acc: dict[int, int] = {}
    if u is v:
        for i, (k1, c1) in enumerate(left):
            acc[k1 + k1] = acc.get(k1 + k1, 0) + sum(map(mul, c1, c1))
            for k2, c2 in left[i + 1:]:
                k = k1 + k2
                acc[k] = acc.get(k, 0) + 2 * sum(map(mul, c1, c2))
    else:
        for k1, c1 in left:
            for k2, c2 in right:
                k = k1 + k2
                acc[k] = acc.get(k, 0) + sum(map(mul, c1, c2))
    return _int_poly(u.source_dim, {k: c for k, c in acc.items() if c}, left_den * right_den)


def rank_linear(a: PolyMap) -> int:
    """Exact rank of a homogeneous linear map over the rationals."""
    return _linalg.exact_rank(a._linear_ints()[0])


def form_signature(q: QuadForm) -> tuple[int, int, int]:
    """Inertia (n_plus, n_minus, n_zero): the signs of the congruent diagonal."""
    _, _, diag = _linalg.congruent_diagonalize(q._ints)
    plus = sum(1 for d in diag if d > 0)
    minus = sum(1 for d in diag if d < 0)
    return plus, minus, len(diag) - plus - minus
