"""Lifting a canonical rounding to a quadratic map between spheres.

A proved factorization |F|^2 = P * Q into quadratic forms gives the Hopf
construction f = (2F, P - Q), G = P + Q, and <f, f> = 4PQ + (P - Q)^2 =
(P + Q)^2 = G^2 by algebra alone. For a canonical rounding N / D the only
proof is canonical_rounding's |N|^2 = D<A,A>, which follows by algebra from
the two divisions the RoundingJet proved when it was built; homogenized with
an extra variable t it reads |N^h|^2 = D^h <A,A>, so the lift takes P = D^h
and Q = <A,A>. G is positive definite exactly when the jet is nondegenerate;
rescaling the source by the exact LDL^T factorization of G carries the unit
sphere of G onto the round unit sphere, and stereographic projection
recovers the original fractional map on the chart where the denominator
lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import _linalg
from .jets import FracQuadMap, NotDivisible, RoundingJet, canonical_rounding
from .polycore import (
    Poly,
    PolyMap,
    QuadForm,
    form_signature,
    inner_poly,
    poly_divmod,
)


class Degenerate(Exception):
    """The summed form is not positive definite, so no sphere lift exists."""

    def __init__(self, signature: tuple[int, int, int]):
        super().__init__(f"summed form has signature {signature}, not positive definite")
        self.signature = signature


class Q2NotQuadratic(Exception):
    """The norm quotient failed to be a homogeneous quadratic form."""


class PoleProximity(Exception):
    """Evaluation point too close to the stereographic pole or the cone tip."""


@dataclass(frozen=True)
class QuadSphereMap:
    """Quadratic map f with <f, f> = gram^2 for a positive definite gram.

    lower and diag are the exact LDL^T factors of gram's matrix; with
    u = sqrt(diag) * lower^T * x the map carries the unit sphere of gram to
    the Euclidean unit sphere of the target.
    """

    f: PolyMap
    gram: QuadForm
    lower: tuple[tuple[Fraction, ...], ...]
    diag: tuple[Fraction, ...]

    @property
    def source_dim(self) -> int:
        return self.f.source_dim

    @property
    def target_dim(self) -> int:
        return self.f.target_dim

    @staticmethod
    def checked(f: PolyMap, gram: QuadForm) -> "QuadSphereMap":
        """Validate <f, f> = gram^2 by expansion and factor the gram form.

        For (f, gram) pairs built outside the pipeline; sphere_lift and
        hopf_map inherit their proofs and go through hopf_construction. The
        gram form may be indefinite here, so Degenerate carries its full
        signature.
        """
        if gram.dim != f.source_dim:
            raise ValueError("gram form lives in a different space")
        gram_poly = gram.to_poly()
        if inner_poly(f, f) != gram_poly * gram_poly:
            raise ValueError("<f, f> is not the square of the gram form")
        return QuadSphereMap(f, gram, *_factor_gram(gram, form_signature))


def hopf_construction(numer: PolyMap, p: Poly, q: Poly) -> QuadSphereMap:
    """The sphere map f = (2 * numer, P - Q) over the gram form G = P + Q.

    <f, f> = 4PQ + (P - Q)^2 = G^2 holds by algebra alone once the caller has
    proved |numer|^2 = P * Q, so nothing is expanded here; G is factored by
    the one exact LDL^T, and Degenerate means G is not positive definite.
    The caller's Q is <A,A> or |y|^2: positive semidefinite and nonzero, so
    P = |numer|^2 / Q >= 0 wherever Q > 0, hence everywhere by continuity,
    and G is positive semidefinite. A degenerate G therefore has signature
    (r, 0, d - r), with r its rank.
    This and QuadSphereMap.checked are the only places a QuadSphereMap is built.
    """
    coords = [2 * c for c in numer.coords] + [p - q]
    gram = QuadForm.from_poly(p + q)
    factors = _factor_gram(gram, _semidefinite_signature)
    return QuadSphereMap(PolyMap(numer.source_dim, coords), gram, *factors)


def _semidefinite_signature(gram: QuadForm) -> tuple[int, int, int]:
    """Signature of a gram form known to be positive semidefinite, from its rank."""
    rank = _linalg.exact_rank(gram._int_rows()[0])
    return rank, 0, gram.dim - rank


def _factor_gram(
    gram: QuadForm, signature: Callable[[QuadForm], tuple[int, int, int]]
) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[Fraction, ...]]:
    """Exact LDL^T of gram; Degenerate(signature(gram)) when a pivot is not positive.
    Its integer rows are den times gram: the same L, and D divided by den once."""
    rows, den = gram._int_rows()
    try:
        lower, diag = _linalg.ldl(rows)
    except ValueError:
        raise Degenerate(signature(gram)) from None
    return tuple(tuple(row) for row in lower), tuple([d / den for d in diag])


def homogenize(fq: FracQuadMap) -> tuple[PolyMap, Poly]:
    """Homogenize a fractional-quadratic germ with denominator 1 at 0.

    Returns the homogeneous quadratic numerator and denominator on R^(m+1);
    the extra variable is appended last, and setting it to 1 recovers the
    original map.
    """
    if fq.denom.constant_term() != 1:
        raise ValueError("denominator must take the value 1 at the origin")
    numer = PolyMap(fq.source_dim + 1, [c.homogenize(2) for c in fq.numer.coords])
    return numer, fq.denom.homogenize(2)


def split_norm(numer: PolyMap, denom: Poly) -> tuple[QuadForm, QuadForm]:
    """Factor the squared numerator norm as Q1 * Q2 with Q1 the denominator.

    Both factors are normalized to take nonnegative values: when the
    quotient comes out negative semidefinite, both signs are flipped.
    """
    quotient, rem = poly_divmod(inner_poly(numer, numer), denom)
    if not rem.is_zero():
        raise NotDivisible("<F, F>", rem)
    if not quotient.is_homogeneous(2):
        raise Q2NotQuadratic(f"quotient {quotient} is not homogeneous quadratic")
    q1, q2 = QuadForm.from_poly(denom), QuadForm.from_poly(quotient)
    plus1, minus1, _ = form_signature(q1)
    plus2, minus2, _ = form_signature(q2)
    if minus1 == 0 and minus2 == 0:
        return q1, q2
    if plus1 == 0 and plus2 == 0:
        return -q1, -q2
    raise ValueError("norm factors are not semidefinite of a common sign")


def sphere_lift(rj: RoundingJet) -> QuadSphereMap:
    """Lift a validated jet to a quadratic map between spheres.

    The one identity used is canonical_rounding's |N|^2 = D<A,A>, which the
    RoundingJet's divisions imply; with
    P = D^h, Q = <A,A> it gives <f, f> = G^2. Raises Degenerate exactly
    when the jet is degenerate, i.e. when G is not positive definite.
    """
    numer, denom = homogenize(canonical_rounding(rj))
    return hopf_construction(numer, denom, rj.norm_a.homogenize(2))


def evaluate_factored(sm: QuadSphereMap, x: Sequence[float]) -> np.ndarray:
    """Evaluate the sphere route at a chart point: embed, project, map, chart.

    The point (x, 1) is radially scaled onto the gram unit sphere, pushed
    through f onto the round sphere, and projected stereographically onto the
    hyperplane of the first n coordinates. The projection is centered so the
    lift of the origin lands at 0, which places the pole at the point
    opposite f(origin lift); denominators below 1e-9 raise PoleProximity.
    The gram value and f are evaluated as polynomials by the one float
    evaluator, Poly.eval_float and PolyMap.eval_float.
    """
    point = [float(v) for v in x]
    if len(point) != sm.source_dim - 1:
        raise ValueError("expected a chart point with one fewer coordinate")
    point.append(1.0)
    g = sm.gram.to_poly().eval_float(point)
    if g < 1e-9:
        raise PoleProximity(f"gram value {g} at the embedded point is too small")
    image = np.array(sm.f.eval_float(point)) / g
    denom = 1.0 + image[-1]
    if abs(denom) < 1e-9:
        raise PoleProximity(f"stereographic denominator {denom} is too small")
    return image[:-1] / denom
