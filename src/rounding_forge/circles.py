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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, inf
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


def circle_fit(points: Sequence[Sequence[float]]) -> CircleFit:
    """Algebraic circle fit through points in R^n.

    The plane is the top-2 principal subspace of the centered samples; inside
    it the classical linearized fit solves the normal equations for center
    and radius. Nearly collinear or coincident samples degrade to a line or
    point fit rather than returning a meaningless huge circle. Samples that
    are not finite, or so large that their squared spread about the
    centroid overflows, raise ValueError. This is the stacked fit applied to
    a stack of one.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 5:
        raise ValueError("need at least 5 points")
    return _fit_stack(pts[np.newaxis])[0]


def _fit_stack(pts: np.ndarray) -> list[CircleFit]:
    """circle_fit of each sample set in a (k, p, n) stack, p >= 5.

    The centroids, the centering, the finite-spread check, the SVD, the
    point and line decisions and the residual arithmetic run once per stack:
    each is elementwise, reduces along one sample set's own axes, or (the
    SVD) factors each matrix on its own. The products with a basis vector
    (@) and the circle solve (lstsq) run once per fit, since a stacked
    product may add in another order. So every field has the bits of a fit
    of that sample set alone. Any non-finite sample set raises.
    """
    k, _, n = pts.shape
    with np.errstate(over="ignore", invalid="ignore"):
        centroids = pts.mean(axis=1)
        centered = pts - centroids[:, np.newaxis]
        # every square the fit takes is bounded by this sum
        spread = np.sum(centered * centered, axis=(1, 2))
    if not np.isfinite(spread).all():
        raise ValueError("samples must be finite")
    svals, vt = np.linalg.svd(centered, full_matrices=False)[1:]
    # the top two singular values and right singular vectors, zeros standing
    # in below n = 2; the rest of vt is dropped here
    top = min(n, 2)
    s2, basis = np.zeros((k, 2)), np.zeros((k, 2, n))
    s2[:, :top], basis[:, :top] = svals[:, :top], vt[:, :top]
    del svals, vt
    b1, b2, scales = basis[:, 0], basis[:, 1], s2[:, 0]
    sizes = np.max(np.linalg.norm(centered, axis=2), axis=1, initial=0.0)
    point = (scales < 1e-12 * np.maximum(1.0, sizes)) | (scales == 0.0)
    circle = ~point & ~(s2[:, 1] < 1e-9 * scales)
    centers = centroids.copy()
    radii = np.where(point, 0.0, np.inf)
    u, v = _dots(centered, b1, circle), _dots(centered, b2, circle)
    design = np.stack([2 * u, 2 * v, np.ones_like(u)], axis=2)
    rhs = u * u + v * v
    for j, i in enumerate(np.flatnonzero(circle)):
        (cu, cv, c), *_ = np.linalg.lstsq(design[j], rhs[j], rcond=None)
        r2 = c + cu * cu + cv * cv
        radius = float(np.sqrt(max(r2, 0.0)))
        if radius > 1e9 * scales[i]:
            circle[i] = False  # a line through the centroid
        else:
            radii[i] = radius
            centers[i] = centroids[i] + cu * b1[i] + cv * b2[i]
    residuals = _residuals(pts, centered, centers, radii, b1, b2, point, circle)
    return [CircleFit(kind="point" if point[i] else "circle" if circle[i] else "line", center=centers[i],
                      radius=float(radii[i]), plane_basis=basis[i], residual=float(residuals[i]))
            for i in range(k)]


def _residuals(pts: np.ndarray, centered: np.ndarray, centers: np.ndarray, radii: np.ndarray, b1: np.ndarray,
               b2: np.ndarray, point: np.ndarray, circle: np.ndarray) -> np.ndarray:
    """The worst distance from each sample set of a stack to its fitted object.

    One formula serves every kind of fit. With w = sample - center and u, v
    the components of w along b1 and b2, it subtracts u*b1 and v*b2 from w
    and adds hypot(u, v) - radius in the plane. A point fit takes u = 0, and
    a line fit takes v = 0 and the in-plane term 0; subtracting a zero and
    hypot(0, d) = d are exact, so each kind keeps the bits of its own
    formula. u and v are taken per fit with @. w is written over centered:
    the stack holds one copy of its samples less, and a point or line fit,
    centered at its centroid, gets the same bits back.
    """
    w = np.subtract(pts, centers[:, np.newaxis], out=centered)
    u, v = np.zeros(w.shape[:2]), np.zeros(w.shape[:2])
    u[~point], v[circle] = _dots(w, b1, ~point), _dots(w, b2, circle)
    w -= u[..., np.newaxis] * b1[:, np.newaxis]
    w -= v[..., np.newaxis] * b2[:, np.newaxis]
    # a line's radius is inf, so its in-plane term is -inf until zeroed
    in_plane = np.hypot(u, v) - radii[:, np.newaxis]
    in_plane[~circle] = 0.0
    return np.max(np.hypot(in_plane, np.linalg.norm(w, axis=2)), axis=1)


def _dots(w: np.ndarray, b: np.ndarray, fits: np.ndarray) -> np.ndarray:
    """w[i] @ b[i] for each selected fit i, as rows of one array."""
    return np.array([w[i] @ b[i] for i in np.flatnonzero(fits)]).reshape(-1, w.shape[1])


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
_FIT_BLOCK = 100  # trials sampled before their lines are fitted as one stack


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
    coordinate, Q or F[i]. Trials are sampled in order, _FIT_BLOCK at a
    time, and each block's lines are fitted as one stack, with the bits of
    circle_fit on each line alone. trials must be a positive int and tol
    positive and finite; a NaN tol would pass every line.
    """
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    if not 0 < tol < inf:
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
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
    for start in range(0, trials, _FIT_BLOCK):
        block = np.empty((min(_FIT_BLOCK, trials - start), _POINTS_PER_LINE, len(num_rows)))
        sampled: list[int] = []
        for trial in range(start, start + len(block)):
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
            else:
                block[len(sampled)] = pts
                sampled.append(trial)
        if not sampled:
            continue
        for trial, fit in zip(sampled, _fit_stack(block[:len(sampled)])):
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
