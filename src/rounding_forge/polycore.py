"""Exact rational polynomial layer: scalars, low-degree multivariate
polynomials, quadratic forms, polynomial maps, and the four exact operations
everything else is built on (inner products, exact division, linear rank,
form signatures).

Degrees are capped at MAX_DEGREE = 8: a squared norm of a quadratic map has
degree 4, and squared norms of order-4 series truncations reach 8. The cap is
enforced at construction so a degree blow-up fails loudly at its source.
Exponents must be ints.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Mapping, Sequence

from . import _linalg

Rational = Fraction
# The quartic norm identities need degree 4; squared norms of order-4 series
# truncations reach degree 8. Anything past that is a bug.
MAX_DEGREE = 8

Exponents = tuple[int, ...]
# Bits per variable in a packed exponent key: the field holds the sum of two
# capped exponents, so adding two keys never carries into the next variable.
# Above the variable fields sits the total degree, and x_m is the highest
# variable field, so integer order on keys is the grlex order of _grlex_key.
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


def _grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    # Graded lexicographic with x1 < x2 < ... : compare total degree, then
    # exponents of the later variables first.
    return (sum(exps), tuple(reversed(exps)))


def _trusted_poly(num_vars: int, terms: dict[Exponents, Fraction]) -> "Poly":
    """A Poly over terms that are already valid, built without re-checking.

    Only kernel output inside this module comes here: int exponent tuples of
    length num_vars, nonzero Fraction coefficients, degree within the cap.
    """
    poly = object.__new__(Poly)
    object.__setattr__(poly, "num_vars", num_vars)
    object.__setattr__(poly, "terms", terms)
    return poly


def _degree_cap_error(degree: int) -> ValueError:
    return ValueError(f"total degree {degree} exceeds cap {MAX_DEGREE}")


class Poly:
    """Polynomial with Fraction coefficients in variables x1..xm.

    Terms are kept in a dict from exponent tuple to nonzero coefficient, so
    structural equality is dict equality. Instances are immutable by
    convention; no method mutates self.
    """

    __slots__ = ("num_vars", "terms")

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
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

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
        return Poly(n, {tuple(int(j == i) for j in range(n)): c for i, c in enumerate(coeffs)})

    # ---- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        return max((sum(e) for e in self.terms), default=-1)

    def homogeneous_part(self, d: int) -> "Poly":
        return _trusted_poly(self.num_vars, {e: c for e, c in self.terms.items() if sum(e) == d})

    def is_homogeneous(self, d: int) -> bool:
        return all(sum(e) == d for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.num_vars, Fraction(0))

    def leading(self) -> tuple[Exponents, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    # ---- arithmetic ----------------------------------------------------

    def _check_same_space(self, other: "Poly") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError("polynomials live in different variable spaces")

    def _combine(self, other, op):
        """self op other, termwise, for op in (operator.add, operator.sub)."""
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.num_vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_space(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = op(out.get(e, 0), c)
        return _trusted_poly(self.num_vars, {e: c for e, c in out.items() if c})

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return _trusted_poly(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_rational(other)
            return _trusted_poly(self.num_vars, {e: c * v for e, v in self.terms.items()} if c else {})
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
        if len(point) != self.num_vars:
            raise ValueError("point dimension mismatch")
        return _eval_float_terms(_float_terms(self), [float(v) for v in point])

    def homogenize(self, total: int) -> "Poly":
        """Pad with a trailing variable so every term reaches the given degree."""
        if type(total) is not int:
            raise TypeError(f"degree must be an int, got {total!r}")
        if total < self.degree():
            raise ValueError("target degree below actual degree")
        if total > MAX_DEGREE and self.terms:
            raise _degree_cap_error(total)
        return _trusted_poly(self.num_vars + 1, {e + (total - sum(e),): c for e, c in self.terms.items()})

    # ---- dunderware ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.num_vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Poly({self.num_vars}, {self})"

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}" for i, k in enumerate(e) if k
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


_FloatTerms = list[tuple[float, list[tuple[int, int]]]]


def _float_terms(p: Poly) -> _FloatTerms:
    """p's terms as (float coefficient, [(variable, exponent), ...]), in
    p.terms order and with only the nonzero exponents, for
    _eval_float_terms. A coefficient outside float range raises
    OverflowError."""
    return [(float(c), [(v, k) for v, k in enumerate(e) if k]) for e, c in p.terms.items()]


def _eval_float_terms(terms: _FloatTerms, x: Sequence[float]) -> float:
    """Evaluate _float_terms output at a point of floats: each term is its
    coefficient times x[v] ** k in variable order, summed in term order."""
    total = 0.0
    for term, factors in terms:
        for v, k in factors:
            term *= x[v] ** k
        total += term
    return total


def _integer_terms(polys: Sequence[Poly], key: Callable[[Exponents], object]) -> tuple[list[list[tuple]], int]:
    """Terms as (key(exponents), integer numerator) over one shared denominator."""
    numerators, den = _linalg.cleared([p.terms.values() for p in polys])
    return [[(key(e), c) for e, c in zip(p.terms, row)] for p, row in zip(polys, numerators)], den


def _packed_terms(polys: Sequence[Poly], shifts: Sequence[int]) -> tuple[list[list[tuple[int, int]]], int]:
    """Terms as (packed exponents, integer numerator) over one shared denominator."""
    top = _FIELD_BITS * len(shifts)
    return _integer_terms(polys, lambda e: sum([k << s for k, s in zip(e, shifts)]) + (sum(e) << top))


def _factors(e: Exponents) -> tuple[int, ...]:
    return tuple([i for i, k in enumerate(e) for _ in range(k)])


def _factored_terms(polys: Sequence[Poly]) -> tuple[list[list[tuple[tuple[int, ...], int]]], int]:
    """Terms as (factor indices, integer numerator) over one shared denominator.

    The factor indices list one variable index per factor of the monomial,
    so x1^2*x3 has (0, 0, 2) and a constant has ().
    """
    return _integer_terms(polys, _factors)


def _unpack(key: int, shifts: Sequence[int]) -> Exponents:
    return tuple([(key >> s) & _FIELD_MASK for s in shifts])


def _sum_of_products(num_vars: int, pairs: Sequence[tuple[Poly, Poly]]) -> Poly:
    """The polynomial sum of a * b over the pairs.

    Each side is cleared to integer numerators over one denominator, so the
    multiply-adds run on ints and only the output terms pay for a gcd. An
    exponent tuple is packed into one int, a field per variable, so a
    monomial product is one integer addition.
    """
    shifts = [_FIELD_BITS * i for i in range(num_vars)]
    lefts, den_a = _packed_terms([a for a, _ in pairs], shifts)
    rights, den_b = _packed_terms([b for _, b in pairs], shifts)
    acc: dict[int, int] = {}
    for left, right in zip(lefts, rights):
        for k1, c1 in left:
            for k2, c2 in right:
                k = k1 + k2
                acc[k] = acc.get(k, 0) + c1 * c2
    den = den_a * den_b
    top = _FIELD_BITS * num_vars
    out = {}
    for k, c in acc.items():
        if c:
            if k >> top > MAX_DEGREE:
                raise _degree_cap_error(k >> top)
            out[_unpack(k, shifts)] = Fraction(c, den)
    return _trusted_poly(num_vars, out)


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Multivariate division of f by the single divisor g.

    Uses graded lexicographic order with x1 < x2 < ... . A single divisor is
    its own Groebner basis, so the remainder vanishes exactly when g divides
    f as a polynomial.

    The division is fraction-free (Knuth, TAOCP vol. 2, 4.6.1): f and g are
    cleared to integer numerators, and the working polynomial is scaled, as
    a whole, only when g's integer leading coefficient does not divide the
    working leading coefficient. Each quotient and remainder term records
    the scale it was found at and becomes one Fraction at the end.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    f._check_same_space(g)
    shifts = [_FIELD_BITS * i for i in range(f.num_vars)]
    (f_terms,), f_den = _packed_terms([f], shifts)
    (g_terms,), g_den = _packed_terms([g], shifts)
    glead, gcoeff = max(g_terms)
    g_rest = [(k, c) for k, c in g_terms if k != glead]
    # A top bit in every variable field: (key | high) - glead borrows from no
    # neighbour, and the top bits all survive exactly when glead divides key.
    high = sum([1 << (s + _FIELD_BITS - 1) for s in shifts])
    work = dict(f_terms)
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
    # f = F/f_den and g = G/g_den, so q = Q * g_den/f_den and r = R/f_den
    q = {_unpack(k, shifts): Fraction(c * g_den, s * f_den) for k, c, s in quot}
    r = {_unpack(k, shifts): Fraction(c, s * f_den) for k, c, s in rem}
    return _trusted_poly(f.num_vars, q), _trusted_poly(f.num_vars, r)


def divide_exact(f: Poly, g: Poly) -> Poly | None:
    """The polynomial h with f = g*h, or None when no such h exists."""
    q, r = poly_divmod(f, g)
    return q if r.is_zero() else None


@dataclass(frozen=True)
class QuadForm:
    """Homogeneous quadratic form given by its symmetric rational matrix."""

    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.matrix)
        rows = tuple(tuple(as_rational(x) for x in row) for row in self.matrix)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix not square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("matrix not symmetric")
        object.__setattr__(self, "matrix", rows)

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @staticmethod
    def from_poly(p: Poly) -> "QuadForm":
        if not p.is_homogeneous(2):
            raise ValueError("not a homogeneous quadratic")
        n = p.num_vars
        m = [[Fraction(0)] * n for _ in range(n)]
        for e, c in p.terms.items():
            i, j = _factors(e)
            if i == j:
                m[i][i] = c
            else:
                m[i][j] = m[j][i] = c / 2
        return QuadForm(tuple(tuple(row) for row in m))

    @staticmethod
    def zero(n: int) -> "QuadForm":
        return QuadForm(tuple((Fraction(0),) * n for _ in range(n)))

    @staticmethod
    def identity_form(n: int) -> "QuadForm":
        return QuadForm(tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    def to_poly(self) -> Poly:
        n = self.dim
        terms: dict[Exponents, Fraction] = {}
        for i in range(n):
            for j in range(i, n):
                c = self.matrix[i][j] if i == j else 2 * self.matrix[i][j]
                if c:
                    e = [0] * n
                    e[i] += 1
                    e[j] += 1
                    terms[tuple(e)] = c
        return _trusted_poly(n, terms)

    def __call__(self, point: Sequence) -> Fraction:
        v = [as_rational(x) for x in point]
        if len(v) != self.dim:
            raise ValueError("point dimension mismatch")
        return sum(v[i] * sum(self.matrix[i][j] * v[j] for j in range(self.dim)) for i in range(self.dim))

    def __neg__(self) -> "QuadForm":
        return QuadForm(tuple(tuple(-x for x in row) for row in self.matrix))

    def restricted(self, basis: Sequence[Sequence]) -> "QuadForm":
        """Pull the form back along the subspace spanned by the given vectors.

        The Gram matrix K S K^T of the basis rows K is computed on integers:
        S = S' / s and K = K' / k are cleared once, and each entry is one
        Fraction (K' S' K'^T)_ij / (s k^2).
        """
        rows, k_den = _linalg.cleared([[as_rational(x) for x in v] for v in basis])
        if any(len(v) != self.dim for v in rows):
            raise ValueError("inner dimensions differ")
        s, s_den = _linalg.cleared(self.matrix)
        den = s_den * k_den * k_den
        # S is symmetric, so its rows are its columns
        ks = [[sum([x * y for x, y in zip(v, col)]) for col in s] for v in rows]
        return QuadForm(tuple(tuple(Fraction(sum([x * y for x, y in zip(u, w)]), den) for w in rows) for u in ks))


class PolyMap:
    """Finite tuple of polynomials sharing a source space, degree at most 2.

    This is the shape of every map in the toolkit: linear parts, quadratic
    parts, numerators of fractional-quadratic maps, sphere maps.
    """

    __slots__ = ("source_dim", "target_dim", "coords")

    def __init__(self, source_dim: int, coords: Sequence[Poly]):
        coords = tuple(coords)
        for c in coords:
            if c.num_vars != source_dim:
                raise ValueError("coordinate has wrong number of variables")
            if c.degree() > 2:
                raise ValueError("polynomial map coordinates are capped at degree 2")
        object.__setattr__(self, "source_dim", source_dim)
        object.__setattr__(self, "target_dim", len(coords))
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMap is immutable")

    # ---- constructors ----------------------------------------------------

    @staticmethod
    def from_linear_matrix(rows: Sequence[Sequence]) -> "PolyMap":
        """Map x -> Mx for an n x m coefficient matrix."""
        m = len(rows[0]) if rows else 0
        return PolyMap(m, [Poly.linear([as_rational(x) for x in row]) for row in rows])

    @staticmethod
    def from_quadratic_forms(forms: Sequence[QuadForm]) -> "PolyMap":
        if not forms:
            raise ValueError("need at least one form")
        return PolyMap(forms[0].dim, [f.to_poly() for f in forms])

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
        if not self.is_linear():
            raise ValueError("map is not homogeneous linear")
        rows = []
        for c in self.coords:
            row = [Fraction(0)] * self.source_dim
            for e, coeff in c.terms.items():
                row[e.index(1)] = coeff
            rows.append(row)
        return rows

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
        return [c.eval_float(point) for c in self.coords]

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.source_dim == other.source_dim and self.coords == other.coords

    def __hash__(self):
        return hash((self.source_dim, self.coords))

    def __repr__(self):
        body = ", ".join(str(c) for c in self.coords)
        return f"PolyMap(R^{self.source_dim} -> R^{self.target_dim}; {body})"


def inner_poly(u: PolyMap, v: PolyMap) -> Poly:
    """Pointwise Euclidean inner product <U, V> as a polynomial."""
    if u.source_dim != v.source_dim or u.target_dim != v.target_dim:
        raise ValueError("maps have different shapes")
    return _sum_of_products(u.source_dim, list(zip(u.coords, v.coords)))


def rank_linear(a: PolyMap) -> int:
    """Exact rank of a homogeneous linear map over the rationals."""
    return _linalg.exact_rank(a.linear_matrix())


def form_signature(q: QuadForm) -> tuple[int, int, int]:
    """Inertia (n_plus, n_minus, n_zero) by Lagrange congruent diagonalization."""
    _, diag = _linalg.congruent_diagonalize(q.matrix)
    plus = sum(1 for d in diag if d > 0)
    minus = sum(1 for d in diag if d < 0)
    return plus, minus, len(diag) - plus - minus
