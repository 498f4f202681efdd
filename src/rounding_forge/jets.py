"""Validation of 2-jets that round lines to circles, and the canonical
fractional-quadratic representative.

A 2-jet (A, B) with A linear of rank at least 2 and B quadratic is accepted
when <A,B> and <B,B> are exactly divisible by <A,A>; the quotients p (linear)
and q (quadratic) drive everything downstream. The divisions are checked
exactly, not assumed, once: a RoundingJet performs them when it is built, so
every instance carries them. The canonical representative is
(A + B - 2pA) / (1 - 2p + q); its squared numerator norm factors as
(1 - 2p + q) * <A,A> by algebra on those two divisions alone.

Degeneracy means the quadratic form q - p^2 has a nontrivial real zero on the
kernel of A. The divisions make q - p^2 positive semidefinite, so such a zero
is always rational. Degenerate jets factor through a rational projection onto
a smaller source space, and the reduced jet is always nondegenerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import _linalg
from .polycore import (
    CertificateError,
    Poly,
    PolyMap,
    QuadForm,
    _eval_floats,
    _quadratic_terms,
    _sum_of_products,
    as_rational,
    divide_exact,
    inner_poly,
    poly_divmod,
    rank_linear,
)


class JetError(Exception):
    """Base class for rejections of mathematically meaningful input."""


class RankTooLow(JetError):
    def __init__(self, rank: int):
        super().__init__(f"linear part has rank {rank}, need at least 2")
        self.rank = rank


class NotDivisible(JetError):
    """One of the two divisibility conditions failed; carries the remainder."""

    def __init__(self, which: str, remainder: Poly):
        super().__init__(f"{which} is not divisible by <A,A>; remainder {remainder}")
        self.which = which
        self.remainder = remainder


class NotDegenerate(JetError):
    pass


@dataclass(frozen=True)
class Jet2:
    """A 2-jet at the origin: homogeneous linear and quadratic parts."""

    linear: PolyMap
    quad: PolyMap

    def __post_init__(self):
        if self.linear.source_dim != self.quad.source_dim:
            raise ValueError("linear and quadratic parts have different sources")
        if self.linear.target_dim != self.quad.target_dim:
            raise ValueError("linear and quadratic parts have different targets")
        if not self.linear.is_linear():
            raise ValueError("linear part is not homogeneous of degree 1")
        if not all(c.is_zero() or c.is_homogeneous(2) for c in self.quad.coords):
            raise ValueError("quadratic part is not homogeneous of degree 2")

    @property
    def source_dim(self) -> int:
        return self.linear.source_dim

    @property
    def target_dim(self) -> int:
        return self.linear.target_dim


@dataclass(frozen=True)
class RoundingJet:
    """A jet that rounds lines to circles, with its division witnesses.

    RoundingJet(jet) proves the rounding condition: it computes rank(A) and
    the exact quotients <A,B> = p * <A,A> and <B,B> = q * <A,A>, raising
    RankTooLow or NotDivisible when they do not exist. p, q, rank and the
    divisor norm_a = <A,A> are not constructor arguments, so every instance
    carries its proof.
    """

    jet: Jet2
    p: Poly = field(init=False)
    q: Poly = field(init=False)
    rank: int = field(init=False)
    norm_a: Poly = field(init=False)

    def __post_init__(self):
        a, b = self.jet.linear, self.jet.quad
        rank = rank_linear(a)
        if rank < 2:
            raise RankTooLow(rank)
        norm_a = inner_poly(a, a)
        p, rem = poly_divmod(inner_poly(a, b), norm_a)
        if not rem.is_zero():
            raise NotDivisible("<A,B>", rem)
        q, rem = poly_divmod(inner_poly(b, b), norm_a)
        if not rem.is_zero():
            raise NotDivisible("<B,B>", rem)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "norm_a", norm_a)

    @property
    def source_dim(self) -> int:
        return self.jet.source_dim

    @property
    def target_dim(self) -> int:
        return self.jet.target_dim


@dataclass(frozen=True)
class FracQuadMap:
    """Quadratic-over-quadratic map numer/denom on a common source space."""

    numer: PolyMap
    denom: Poly

    def __post_init__(self):
        if self.denom.num_vars != self.numer.source_dim:
            raise ValueError("denominator lives in a different variable space")
        if self.denom.degree() > 2:
            raise ValueError("denominator degree exceeds 2")

    @property
    def source_dim(self) -> int:
        return self.numer.source_dim

    @property
    def target_dim(self) -> int:
        return self.numer.target_dim

    @cached_property
    def _integer_form(self) -> tuple[list[tuple[int, list, list]], int]:
        """The numerators and then the denominator as integer terms over one
        shared denominator, split by degree (see polycore._quadratic_terms).

        Built on the map's first restriction to a line and kept with the map;
        most maps are never restricted, so the constructor does not build it.
        """
        return _quadratic_terms([*self.numer.coords, self.denom])

    @property
    def is_germ(self) -> bool:
        """Whether the map is defined at the origin."""
        return self.denom.constant_term() != 0

    def __call__(self, point: Sequence) -> tuple[Fraction, ...]:
        d = self.denom(point)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {tuple(point)}")
        return tuple(c / d for c in self.numer(point))

    def eval_float(self, point: Sequence[float]) -> list[float]:
        d, *values = _eval_floats([self.denom, *self.numer.coords], point)
        return [c / d for c in values]


def jet_from_matrices(linear_rows: Sequence[Sequence], quad_matrices: Sequence[Sequence[Sequence]]) -> Jet2:
    """Build a Jet2 from an n x m matrix and n symmetric m x m matrices, A
    cleared in one call and every B_i in another, with no QuadForm built."""
    return Jet2(PolyMap.from_linear_matrix(linear_rows), PolyMap.from_symmetric_matrices(quad_matrices))


def validate_jet(jet: Jet2) -> RoundingJet:
    """Decide whether a 2-jet can round lines to circles.

    Raises RankTooLow or NotDivisible; on success returns RoundingJet(jet),
    which carries the division witnesses.
    """
    return RoundingJet(jet)


def canonical_rounding(rj: RoundingJet) -> FracQuadMap:
    """The canonical representative N / D = (A + B - 2pA) / (1 - 2p + q).

    Nothing is expanded here: with N = (1 - 2p)A + B, the divisions that rj
    proved give |N|^2 = (1-2p)^2<A,A> + 2(1-2p)<A,B> + <B,B> = (1-2p+q)<A,A>,
    that is |N|^2 = D<A,A>.
    """
    a, b, m = rj.jet.linear, rj.jet.quad, rj.source_dim
    minus_two_p, one = -2 * rj.p, Poly.constant(m, 1)
    # each N_i is one kernel pass with the values and the stored term order of
    # A_i + B_i - 2p * A_i: the float oracle sums terms in stored order
    numer = PolyMap(m, [_sum_of_products(m, [(ai, one), (bi, one), (minus_two_p, ai)])
                        for ai, bi in zip(a.coords, b.coords)])
    denom = 1 + minus_two_p + rj.q
    return FracQuadMap(numer=numer, denom=denom)


def fracquad_jet(fq: FracQuadMap) -> Jet2:
    """The 2-jet at the origin of a fractional-quadratic germ."""
    c0 = fq.denom.constant_term()
    if c0 == 0:
        raise ValueError("map is not a germ at the origin")
    numer = fq.numer.scaled(1 / c0)
    denom = (1 / c0) * fq.denom
    if any(c.constant_term() != 0 for c in numer.coords):
        raise ValueError("map does not fix the origin")
    f1 = numer.homogeneous_part(1)
    f2 = numer.homogeneous_part(2)
    d1 = denom.homogeneous_part(1)
    return Jet2(linear=f1, quad=f2 - f1.times_poly(d1))


def is_degenerate(rj: RoundingJet) -> tuple[bool, tuple | None]:
    """Decide degeneracy exactly and, when degenerate, produce a witness.

    The test restricts q - p^2 to the kernel of A and diagonalizes it. Since
    <B - pA, B - pA> = (q - p^2)<A,A>, the form is positive semidefinite, so
    the jet is degenerate exactly when a pivot is zero; a negative pivot
    raises CertificateError. The witness x0 is the rational kernel vector of
    the first zero pivot: A(x0) = 0 and (q - p^2)(x0) = 0.
    """
    kernel = _linalg.nullspace(rj.jet.linear._linear_ints()[0], rj.source_dim)
    if not kernel:
        return False, None
    restricted = QuadForm.from_poly(rj.q - rj.p * rj.p).restricted(kernel)
    # the integer rows are den times the form: L and the signs of D are the same
    order, lower, diag = _linalg.congruent_diagonalize(restricted._int_rows()[0])
    if any(d < 0 for d in diag):
        raise CertificateError("q - p^2 is not positive semidefinite on ker A")
    if all(diag):
        return False, None
    zero = diag.index(0)
    # L^T v = e_zero by back-substitution; kernel[order[k]] weighted by v[k] is the witness
    v = [Fraction(0)] * zero + [Fraction(1)]
    for k in reversed(range(zero)):
        v[k] = -sum(lower[r][k] * v[r] for r in range(k + 1, zero + 1))
    return True, tuple(
        sum(c * kernel[j][i] for j, c in zip(order, v)) for i in range(rj.source_dim)
    )


def factor_degenerate(rj: RoundingJet) -> tuple[tuple[tuple[Fraction, ...], ...], RoundingJet]:
    """Factor a degenerate jet through a rational projection.

    Returns (pi, reduced) where pi is a full-rank k x m matrix whose kernel
    is ker A intersected with the radical of B - pA, and reduced is the
    validated jet on R^k with linear part Ap and quadratic part Bp such that
    Ap o pi = A and Bp o pi = B - pA. Both are checked as matrix identities:
    Ap pi = A, and pi^T (Bp)_i pi = (B - pA)_i for every form. The reduced
    jet is nondegenerate. B - pA is transform_jet(jet, 1, -p) and is not
    validated again: rj's divisions already give it p = 0 and q - p^2.
    """
    degenerate, _ = is_degenerate(rj)
    if not degenerate:
        raise NotDegenerate("jet is nondegenerate, nothing to factor")
    # A = a / den and each form's integer rows over its den: scaled rows keep the RREF
    a, den = rj.jet.linear._linear_ints()
    forms = (rj.jet.quad - rj.jet.linear.times_poly(rj.p)).quadratic_forms()
    rows = [f._int_rows() for f in forms]
    proj_rows, pivots = _linalg.rref([*a, *(row for s, _ in rows for row in s)])
    if len(pivots) == rj.source_dim:
        # the degeneracy witness lies in ker A and in the radical of B - pA
        raise CertificateError("ker A meets the radical of B - pA only in 0")
    proj = tuple(tuple(row) for row in proj_rows)
    # Restricting along the section x_i = y_j for i = pivots[j] (other x_i = 0)
    # selects the pivot columns of A and the pivot block of each form.
    red_a = [[row[i] for i in pivots] for row in a]
    red_b = [[[Fraction(s[i][j], d) for j in pivots] for i in pivots] for s, d in rows]
    reduced = RoundingJet(jet_from_matrices([[Fraction(x, den) for x in row] for row in red_a], red_b))
    cols = list(zip(*proj))
    if [[sum([x * y for x, y in zip(row, col)]) for col in cols] for row in red_a] != a:
        raise CertificateError("projection does not recover A")
    if any(g.restricted(cols) != f for g, f in zip(reduced.jet.quad.quadratic_forms(), forms)):
        raise CertificateError("projection does not recover B - pA")
    if is_degenerate(reduced)[0]:
        raise CertificateError("reduced jet is still degenerate")
    return proj, reduced


def parallel_factor(a: PolyMap, c: PolyMap) -> Poly | None:
    """The linear l with C = l * A coordinate-wise, when one exists.

    Requires rank(A) >= 2, which also makes l unique. l is the exact
    quotient C_i / A_i on the first nonzero coordinate A_i; the product l * A
    is then checked against C in full.
    """
    rank = rank_linear(a)
    if rank < 2:
        raise RankTooLow(rank)
    if a.source_dim != c.source_dim or a.target_dim != c.target_dim:
        raise ValueError("maps have different shapes")
    if not all(x.is_zero() or x.is_homogeneous(2) for x in c.coords):
        raise ValueError("C must be homogeneous quadratic")
    ai, ci = next((ai, ci) for ai, ci in zip(a.coords, c.coords) if not ai.is_zero())
    ell = divide_exact(ci, ai)
    return ell if ell is not None and a.times_poly(ell) == c else None


def transform_jet(jet: Jet2, lam, ell: Poly) -> Jet2:
    """Apply the reparametrization (A, B) -> (lam*A, lam^2*B + ell*A)."""
    lam = as_rational(lam)
    if lam == 0:
        raise ValueError("lam must be nonzero")
    if not (ell.is_zero() or ell.is_homogeneous(1)) or ell.num_vars != jet.source_dim:
        raise ValueError("ell must be a homogeneous linear polynomial on the source")
    return Jet2(
        linear=jet.linear.scaled(lam),
        quad=jet.quad.scaled(lam * lam) + jet.linear.times_poly(ell),
    )


def jets_equivalent(j1: Jet2, j2: Jet2) -> tuple[Fraction, Poly] | None:
    """Find (lam, ell) with A2 = lam*A1 and B2 = lam^2*B1 + ell*A1, if any."""
    if j1.source_dim != j2.source_dim or j1.target_dim != j2.target_dim:
        return None
    lam = None
    for c1, c2 in zip(j1.linear.coords, j2.linear.coords):
        if not c1.is_zero():
            e, coeff = c1.leading()
            lam = c2.terms.get(e, Fraction(0)) / coeff
            break
    if not lam:
        return None
    if j1.linear.scaled(lam) != j2.linear:
        return None
    ell = parallel_factor(j1.linear, j2.quad - j1.quad.scaled(lam * lam))
    if ell is None:
        return None
    return lam, ell


@dataclass(frozen=True)
class SeriesDegreeCheck:
    """Divisibility verdict for one homogeneous degree of the two products."""

    degree: int
    inner_ok: bool
    norm_ok: bool

    @property
    def ok(self) -> bool:
        return self.inner_ok and self.norm_ok


@dataclass(frozen=True)
class SeriesReport:
    order: int
    checks: tuple[SeriesDegreeCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def check_series_divisibility(phi: PolyMap | Sequence[Poly], order: int) -> SeriesReport:
    """Degreewise divisibility check for a polynomial truncation.

    phi, given as a PolyMap or a plain sequence of coordinate polynomials, is
    treated as the truncation at the given order of a germ fixing the origin.
    Homogeneous components of <A, phi> and <phi, phi> of degree up to
    order + 1 are unaffected by the discarded tail, so each is tested for
    exact divisibility by <A, A>.
    """
    coords = list(phi.coords) if isinstance(phi, PolyMap) else list(phi)
    if not coords:
        raise ValueError("phi has no coordinates")
    m = coords[0].num_vars
    # type(), not isinstance(): bool is an int, and True is no order
    if type(order) is not int:
        raise TypeError(f"order must be an int, got {order!r}")
    if not 1 <= order <= 4:
        raise ValueError("order must be between 1 and 4")
    if any(c.num_vars != m for c in coords):
        raise ValueError("coordinates live in different variable counts")
    if any(c.constant_term() != 0 for c in coords):
        raise ValueError("phi must fix the origin")
    truncated = [
        sum((c.homogeneous_part(d) for d in range(1, order + 1)), Poly.zero(m))
        for c in coords
    ]
    a_coords = [c.homogeneous_part(1) for c in truncated]
    rank = rank_linear(PolyMap(m, a_coords))
    if rank < 2:
        raise RankTooLow(rank)
    norm_a = _sum_of_products(m, [(c, c) for c in a_coords])
    mixed = _sum_of_products(m, list(zip(a_coords, truncated)))
    square = _sum_of_products(m, [(c, c) for c in truncated])
    checks = []
    for d in range(2, order + 2):
        inner_ok = divide_exact(mixed.homogeneous_part(d), norm_a) is not None
        norm_ok = divide_exact(square.homogeneous_part(d), norm_a) is not None
        checks.append(SeriesDegreeCheck(degree=d, inner_ok=inner_ok, norm_ok=norm_ok))
    return SeriesReport(order=order, checks=tuple(checks))
