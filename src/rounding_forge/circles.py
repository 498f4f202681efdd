"""Do the images of lines actually land on circles?

Two independent routes answer that question. The exact route restricts a
fractional-quadratic map to a rational line and decides circle membership by
the rank of an integer coefficient matrix; no floats, no thresholds. The
numeric route samples points on random lines, runs an algebraic circle fit,
and measures residuals. The two must agree, and the test suite leans on that
redundancy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Sequence

import numpy as np

from . import _linalg
from .jets import FracQuadMap
from .polycore import Poly, _FloatForm, _eval_float_rows, as_rational

Coeffs = tuple[Fraction, ...]  # univariate polynomial, index = power of t


class DenominatorVanishesIdentically(Exception):
    """The chosen line lies inside the zero set of the denominator."""


def _trim(c: Sequence) -> tuple:
    out = list(c)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _integer_on_line(form: tuple[int, Sequence, Sequence], base: Sequence[int],
                     direction: Sequence[int], scale: int) -> list[int]:
    """The 3 integer coefficients of t -> scale^2 * p((base + t * direction) / scale).

    form is p's integer terms split by degree (see polycore._quadratic_terms):
    the constant c0, the linear terms (i, c) and the quadratic terms (i, j, c).
    Every term has degree at most 2: PolyMap caps its coordinates at degree
    2 and FracQuadMap caps its denominator at degree 2, and restrict_to_line
    passes only a FracQuadMap's terms. Each degree has a closed form:
    c0 adds scale^2*c0, c*x_i adds scale*c*b_i and scale*c*d_i, and
    c*x_i*x_j adds c*b_i*b_j, c*(b_i*d_j + d_i*b_j) and c*d_i*d_j.
    """
    const, linear, quad = form
    at_base = at_direction = 0
    for i, c in linear:
        at_base += c * base[i]
        at_direction += c * direction[i]
    acc0, acc1, acc2 = (const * scale + at_base) * scale, at_direction * scale, 0
    for i, j, c in quad:
        bi, bj, di, dj = base[i], base[j], direction[i], direction[j]
        acc0 += c * bi * bj
        acc1 += c * (bi * dj + di * bj)
        acc2 += c * di * dj
    return [acc0, acc1, acc2]


@dataclass(frozen=True)
class Line:
    """Affine rational line t -> base + t * direction."""

    base: tuple[Fraction, ...]
    direction: tuple[Fraction, ...]

    def __post_init__(self):
        base = tuple(as_rational(x) for x in self.base)
        direction = tuple(as_rational(x) for x in self.direction)
        if len(base) != len(direction):
            raise ValueError("base and direction dimensions differ")
        if not any(direction):
            raise ValueError("direction must be nonzero")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "direction", direction)

    @property
    def dim(self) -> int:
        return len(self.base)

    def at(self, t) -> tuple[Fraction, ...]:
        t = as_rational(t)
        return tuple(b + t * d for b, d in zip(self.base, self.direction))


def _sum_of_squares(polys: Sequence[Sequence[int]]) -> list[int]:
    """Coefficients of the sum of p^2 over trimmed integer coefficient lists.

    The top coefficient is a sum of squares of leading coefficients, so the
    result is trimmed too.
    """
    out = [0] * (2 * max((len(p) for p in polys), default=0) - 1)
    for p in polys:
        for i, x in enumerate(p):
            out[2 * i] += x * x
            x *= 2
            for j in range(i + 1, len(p)):
                out[i + j] += x * p[j]
    return out


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@dataclass(frozen=True, init=False)
class RationalCurve:
    """Image of a line under a fractional map, as univariate data.

    numerators holds one coefficient tuple per target coordinate, denominator
    the shared quadratic, and norm_numer the restricted squared norm of the
    numerator; all three are Fraction views, built on first read, of the one
    stored form: trimmed integer numerators and denominator over one positive
    scale, reduced by their common factor, so equal curves store equal forms.
    A given norm_numer is checked against the numerators, so an inconsistent
    hand-built curve is rejected immediately.
    """

    _int_numerators: tuple[tuple[int, ...], ...]
    _int_denominator: tuple[int, ...]
    _scale: int

    def __init__(self, numerators, denominator, norm_numer=None):
        numerators = [_trim([as_rational(c) for c in num]) for num in numerators]
        denominator = _trim([as_rational(c) for c in denominator])
        if not denominator:
            raise DenominatorVanishesIdentically("denominator is the zero polynomial")
        if any(len(num) > 5 for num in numerators):
            raise ValueError("numerator degree exceeds 4")
        if len(denominator) > 3:
            raise ValueError("denominator degree exceeds 2")
        given = None if norm_numer is None else _trim([as_rational(c) for c in norm_numer])
        (*numerators, denominator), scale = _linalg.cleared([*numerators, denominator])
        _store_curve(self, numerators, denominator, scale)
        if given is not None and given != self.norm_numer:
            raise ValueError("norm_numer disagrees with the numerators")

    @cached_property
    def numerators(self) -> tuple[Coeffs, ...]:
        return tuple([tuple([Fraction(x, self._scale) for x in num]) for num in self._int_numerators])

    @cached_property
    def denominator(self) -> Coeffs:
        return tuple([Fraction(x, self._scale) for x in self._int_denominator])

    @cached_property
    def norm_numer(self) -> Coeffs:
        return tuple([Fraction(x, self._scale ** 2) for x in _sum_of_squares(self._int_numerators)])


def _store_curve(curve: RationalCurve, numerators: Sequence, denominator: Sequence, scale: int) -> RationalCurve:
    """Store trimmed integer lists over scale > 0 in curve, reduced by their common
    factor, unchecked: only RationalCurve's constructor and restrict_to_line come here."""
    g = gcd(scale, *denominator, *(x for num in numerators for x in num))
    object.__setattr__(curve, "_int_numerators", tuple([tuple([x // g for x in num]) for num in numerators]))
    object.__setattr__(curve, "_int_denominator", tuple([x // g for x in denominator]))
    object.__setattr__(curve, "_scale", scale // g)
    return curve


def restrict_to_line(fq: FracQuadMap, line: Line) -> RationalCurve:
    """Restrict numerator, denominator, and numerator norm to a rational line.

    The map's integer form (numerators and denominator over one shared
    denominator, split by degree) is built once per map; the line is scaled
    to integers, and every coefficient is found in ints. Composing with the
    line is a ring homomorphism, so the norm restriction is the sum of the
    squared restricted numerators, not a restriction of the much larger
    multivariate norm polynomial."""
    if line.dim != fq.source_dim:
        raise ValueError("line lives in the wrong source space")
    forms, den = fq._integer_form
    (base, direction), scale = _linalg.cleared([line.base, line.direction])
    *numerators, denominator = [_trim(_integer_on_line(f, base, direction, scale)) for f in forms]
    if not denominator:
        raise DenominatorVanishesIdentically(f"denominator vanishes along {line}")
    return _store_curve(object.__new__(RationalCurve), numerators, denominator, den * scale * scale)


def circle_rank_exact(curve: RationalCurve) -> tuple[int, bool]:
    """Exact circle membership for a rational curve.

    Builds the coefficient matrix of t -> (d*f_1, ..., d*f_n, <f,f>, d^2),
    one row per power of t, and computes its rank over the rationals. The
    affine span of the curve points (y, <y,y>, 1) has dimension rank - 1, and
    the image lies on a circle (or line or point) exactly when rank <= 3.
    The columns come from the curve's integer coefficients; each is a
    nonzero multiple of the rational column, which leaves the rank alone.
    """
    numerators, d = curve._int_numerators, curve._int_denominator
    columns = [_int_mul(d, num) for num in numerators]
    columns.append(_sum_of_squares(numerators))
    columns.append(_sum_of_squares([d]))
    nrows = max(len(c) for c in columns)
    matrix = [[col[r] if r < len(col) else 0 for col in columns] for r in range(nrows)]
    rank = _linalg.integer_rank(matrix)
    return rank, rank <= 3


@dataclass(frozen=True)
class CircleFit:
    """Least-squares circle in a best-fit plane, with degradations.

    kind is "circle", "line", or "point". center and plane_basis are in the
    ambient space; residual is the worst distance from a sample to the fitted
    object, out-of-plane components included.
    """

    kind: str
    center: np.ndarray
    radius: float
    plane_basis: np.ndarray
    residual: float


def _max_distance(points: np.ndarray, fit: CircleFit) -> float:
    w = points - fit.center
    if fit.kind == "point":
        return float(np.max(np.linalg.norm(w, axis=1)))
    b1, b2 = fit.plane_basis
    if fit.kind == "line":
        along = w @ b1
        return float(np.max(np.linalg.norm(w - np.outer(along, b1), axis=1)))
    u, v = w @ b1, w @ b2
    out = w - np.outer(u, b1) - np.outer(v, b2)
    in_plane = np.hypot(u, v) - fit.radius
    return float(np.max(np.hypot(in_plane, np.linalg.norm(out, axis=1))))


def circle_fit(points: Sequence[Sequence[float]]) -> CircleFit:
    """Algebraic circle fit through points in R^n.

    The plane is the top-2 principal subspace of the centered samples; inside
    it the classical linearized fit solves the normal equations for center
    and radius. Nearly collinear or coincident samples degrade to a line or
    point fit rather than returning a meaningless huge circle. Samples that
    are not finite, or so large that their squared spread about the
    centroid overflows, raise ValueError.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 5:
        raise ValueError("need at least 5 points")
    with np.errstate(over="ignore", invalid="ignore"):
        centroid = pts.mean(axis=0)
        centered = pts - centroid
        # every square the fit takes is bounded by this sum
        spread = np.sum(centered * centered)
    if not np.isfinite(spread):
        raise ValueError("samples must be finite")
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    if vt.shape[0] < 2:
        vt = np.vstack([vt, np.zeros((2 - vt.shape[0], vt.shape[1]))])
        svals = np.append(svals, np.zeros(2 - svals.shape[0]))
    basis = vt[:2]
    scale = float(svals[0])

    def finish(kind: str, center: np.ndarray, radius: float) -> CircleFit:
        fit = CircleFit(kind=kind, center=center, radius=radius, plane_basis=basis, residual=0.0)
        return replace(fit, residual=_max_distance(pts, fit))

    sizes = np.linalg.norm(centered, axis=1)
    if scale < 1e-12 * max(1.0, float(np.max(sizes, initial=0.0))) or scale == 0.0:
        return finish("point", centroid, 0.0)
    if svals[1] < 1e-9 * scale:
        return finish("line", centroid, float("inf"))
    u = centered @ basis[0]
    v = centered @ basis[1]
    design = np.column_stack([2 * u, 2 * v, np.ones_like(u)])
    rhs = u * u + v * v
    (cu, cv, c), *_ = np.linalg.lstsq(design, rhs, rcond=None)
    r2 = c + cu * cu + cv * cv
    radius = float(np.sqrt(max(r2, 0.0)))
    if radius > 1e9 * scale:
        return finish("line", centroid, float("inf"))
    return finish("circle", centroid + cu * basis[0] + cv * basis[1], radius)


@dataclass(frozen=True)
class NumericReport:
    """Outcome of the sampling oracle; violations index the offending trials.

    ok needs at least one fitted trial: a run that skipped every line has
    checked nothing.
    """

    trials: int
    seed: int
    tol: float
    points_per_line: int
    max_residual: float
    violations: tuple[int, ...]
    skipped: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations and len(self.skipped) < self.trials


_GUARD = 1e-6  # reject parameters where |Q| < guard * (1 + |t|^2)
_POINTS_PER_LINE = 16


def _as_numeric_pair(fmap) -> tuple[list[Poly], Poly]:
    if isinstance(fmap, FracQuadMap):
        return list(fmap.numer.coords), fmap.denom
    numerators, denominator = fmap
    numerators = list(numerators)
    if not isinstance(denominator, Poly) or not all(isinstance(p, Poly) for p in numerators):
        raise TypeError("expected a FracQuadMap or (list of Poly, Poly)")
    if any(p.num_vars != denominator.num_vars for p in numerators):
        raise ValueError("point dimension mismatch")
    return numerators, denominator


def _compiled(form: _FloatForm, p: Poly, name: str) -> list[tuple]:
    try:
        return form.add(p)
    except OverflowError:
        raise ValueError(f"{name} has a coefficient outside float range") from None


def verify_rounding_numeric(fmap, trials: int = 100, seed: int = 0, tol: float = 1e-7) -> NumericReport:
    """Sample random lines, fit circles to their images, report violations.

    fmap is a FracQuadMap, or a raw (numerators, denominator) pair of exact
    polynomials so that deliberately broken maps (degree up to 4) can be fed
    to the oracle as controls. Half the lines pass through the origin. Lines
    where not enough parameters clear the denominator guard are skipped, not
    counted as violations.

    Q and every F[i] are compiled into one float form before the first
    trial; each sampled point builds one power table, from which Q and then
    each F[i] are evaluated with Poly.eval_float's exact operations. A
    coefficient outside float range raises ValueError naming its
    coordinate, Q or F[i].
    """
    numerators, denominator = _as_numeric_pair(fmap)
    m = denominator.num_vars
    form = _FloatForm()
    den_rows = _compiled(form, denominator, "Q")
    num_rows = [_compiled(form, p, f"F[{i}]") for i, p in enumerate(numerators)]
    powers = form.powers
    rng = random.Random(seed)
    violations: list[int] = []
    skipped: list[int] = []
    max_residual = 0.0
    for trial in range(trials):
        if trial % 2 == 0:
            base = [0.0] * m
        else:
            base = [rng.uniform(-1.0, 1.0) for _ in range(m)]
        direction = [rng.uniform(-1.0, 1.0) for _ in range(m)]
        while not any(abs(d) > 1e-3 for d in direction):
            direction = [rng.uniform(-1.0, 1.0) for _ in range(m)]
        pts = []
        for _ in range(60 * _POINTS_PER_LINE):
            t = rng.uniform(-2.0, 2.0)
            x = [b + t * d for b, d in zip(base, direction)]
            pw = powers(x)
            qv = _eval_float_rows(den_rows, pw)
            if abs(qv) < _GUARD * (1.0 + t * t):
                continue
            pts.append([_eval_float_rows(rows, pw) / qv for rows in num_rows])
            if len(pts) >= _POINTS_PER_LINE:
                break
        if len(pts) < _POINTS_PER_LINE:
            skipped.append(trial)
            continue
        fit = circle_fit(pts)
        max_residual = max(max_residual, fit.residual)
        if fit.residual > tol:
            violations.append(trial)
    return NumericReport(
        trials=trials,
        seed=seed,
        tol=tol,
        points_per_line=_POINTS_PER_LINE,
        max_residual=max_residual,
        violations=tuple(violations),
        skipped=tuple(skipped),
    )
