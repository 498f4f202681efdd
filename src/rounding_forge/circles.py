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
_MAX_PARAMETERS = 60 * _POINTS_PER_LINE  # parameters drawn on a line before it is skipped
_FIT_BLOCK = 100  # trials sampled before their lines are fitted as one stack


class _Draws:
    """The stream of rng.random() values, read at offsets from the start of
    the current fit block. A uniform(a, b) draw is a + (b - a) * random(), so
    each value the oracle samples is one value of this stream."""

    def __init__(self, seed: int):
        self.random = random.Random(seed).random
        self.values: list[float] = []

    def read(self, start: int, count: int) -> list[float]:
        missing = start + count - len(self.values)
        if missing > 0:
            self.values += [self.random() for _ in range(missing)]
        return self.values[start:start + count]

    def trim(self, end: int) -> None:
        """Drop the block's draws, up to end, where the next block's begin."""
        del self.values[:end]


def _line(draws: _Draws, start: int, trial: int, m: int) -> tuple[list[float], list[float], int]:
    """The base, the direction and the offset of the first parameter of the
    line whose draws begin at start. An even trial's line passes through the
    origin and draws no base; a direction with no entry above 1e-3 is drawn
    again."""
    base = [0.0] * m
    if trial % 2:
        base, start = [-1.0 + 2.0 * r for r in draws.read(start, m)], start + m
    direction = [-1.0 + 2.0 * r for r in draws.read(start, m)]
    while not any(abs(d) > 1e-3 for d in direction):
        start += m
        direction = [-1.0 + 2.0 * r for r in draws.read(start, m)]
    return base, direction, start + m


def _guarded(draws: _Draws, lines: list[tuple], count: int, powers, den_rows) -> tuple[np.ndarray, ...]:
    """Sample count parameters t on each line, from its parameter offset: the
    power table of the points base + t * direction, line by line, Q at them,
    and which of them clear the denominator guard (a NaN Q does)."""
    base, direction, first = zip(*lines)
    r = np.array(draws.read(first[0], first[-1] + count - first[0]))
    t = -2.0 + 4.0 * r[np.subtract(first, first[0])[:, np.newaxis] + np.arange(count)]
    x = np.array(base)[:, np.newaxis] + t[..., np.newaxis] * np.array(direction)[:, np.newaxis]
    pw = powers(x.reshape(-1, x.shape[2]))
    q = _eval_float_rows(den_rows, pw).reshape(t.shape)
    return pw, q, ~(np.abs(q) < _GUARD * (1.0 + t * t))


def _sample_block(draws: _Draws, trials: range, m: int, powers, den_rows) -> tuple[list[tuple], list[int], list[int]]:
    """Sample the lines of one fit block, reading draws from offset 0.

    Each line reads parameters until 16 clear the guard, at most 960 of them,
    so where the next line's draws begin is known once this line's guard
    outcomes are. The lines of a window are sampled together, each at its
    offset with 16 parameters; the first window holds the whole block. The
    first line that finds fewer than 16 points becomes a window of one,
    sampled again from its first parameter at 32, 64, ... up to 960
    parameters, and skipped if it still finds too few. The next window
    starts at that line's true end. After a window at 16 parameters it has
    2 * (lines the window finished) + 1 lines, and after a line sampled
    again it has one.

    Returns the power-table columns and Q values of each sampled line's 16
    points, in trial order, and the sampled and skipped trials. The block's
    draws are trimmed from the stream.
    """
    points, sampled, skipped = [], [], []
    start, trial, window, count = 0, trials.start, len(trials), _POINTS_PER_LINE
    while trial < trials.stop:
        lines = [_line(draws, start, trial, m)]
        for line_trial in range(trial + 1, min(trial + window, trials.stop)):
            lines.append(_line(draws, lines[-1][2] + count, line_trial, m))
        pw, q, ok = _guarded(draws, lines, count, powers, den_rows)
        accepted = np.cumsum(ok, axis=1)
        full = accepted[:, -1] >= _POINTS_PER_LINE
        done = len(lines) if full.all() else int(full.argmin())
        keep = np.flatnonzero(ok[:done] & (accepted[:done] <= _POINTS_PER_LINE))
        points.append((pw[:, keep], q.ravel()[keep]))
        sampled += range(trial, trial + done)
        trial += done
        if done:
            start = lines[done - 1][2] + int(np.argmax(accepted[done - 1] == _POINTS_PER_LINE)) + 1
        if done < len(lines) and count < _MAX_PARAMETERS:
            window, count = 1, min(2 * count, _MAX_PARAMETERS)
            continue
        if done < len(lines):
            skipped.append(trial)
            trial, start = trial + 1, lines[done][2] + count
        window, count = 2 * done + 1 if count == _POINTS_PER_LINE else 1, _POINTS_PER_LINE
    draws.trim(start)
    return points, sampled, skipped


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


def _compiled(form: _FloatForm, p: Poly, name: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        return form.add(p)
    except OverflowError:
        raise ValueError(f"{name} has a coefficient outside float range") from None


def verify_rounding_numeric(fmap, trials: int = 100, seed: int = 0, tol: float = 1e-7) -> NumericReport:
    """Sample random lines, fit circles to their images, report violations.

    fmap is a FracQuadMap, or a raw (numerators, denominator) pair of exact
    polynomials so that deliberately broken maps (degree up to 4) can be fed
    to the oracle as controls. The even trials' lines pass through the
    origin, so a map constant along those lines (cliff.pairing_to_rounding
    is one) fits them as points with residual 0, and they check nothing.
    Lines where not enough parameters clear the denominator guard are
    skipped, not counted as violations.

    The reports are those of a scalar loop that draws each line's base,
    direction and parameters from random.Random(seed) and evaluates one
    point at a time; this oracle gets the same bits a block of lines at a
    time. Every draw is one value of the stream of random() values, and each
    line reads its draws at a known offset, which _sample_block finds from
    the guard outcomes of the lines before it; a line that finds too few
    points is sampled again alone, at doubled counts, from the same cached
    draws. Q and every F[i] are compiled into one float form before the
    first trial, and evaluated by the one float evaluator on power tables of
    many points: Q at every sampled point, each F[i] once per block at the
    points that cleared the guard. A coefficient outside float range raises
    ValueError naming its coordinate, Q or F[i]. Trials are sampled in
    order, _FIT_BLOCK at a time, and each block's lines are fitted as one
    stack, with the bits of circle_fit on each line alone. trials must be a
    positive int, seed an int (None would seed from the OS, and the report
    could not be reproduced from its own fields) and tol positive and
    finite; a NaN tol would pass every line. A map of no variables has no
    lines, and raises ValueError.
    """
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    # type(), not isinstance(): bool is an int, and True is no seed
    if type(seed) is not int:
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 < tol < inf:
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    numerators, denominator = _as_numeric_pair(fmap)
    m = denominator.num_vars
    if m == 0:
        raise ValueError("a map of no variables has no lines to sample")
    form = _FloatForm()
    den_rows = _compiled(form, denominator, "Q")
    num_rows = [_compiled(form, p, f"F[{i}]") for i, p in enumerate(numerators)]
    draws = _Draws(seed)
    violations: list[int] = []
    skipped: list[int] = []
    max_residual = 0.0
    for start in range(0, trials, _FIT_BLOCK):
        block = range(start, min(start + _FIT_BLOCK, trials))
        points, sampled, block_skipped = _sample_block(draws, block, m, form.powers, den_rows)
        skipped += block_skipped
        if not sampled:
            continue
        pw = np.concatenate([p for p, _ in points], axis=1)
        q = np.concatenate([q for _, q in points])
        samples = np.empty((len(sampled), _POINTS_PER_LINE, len(num_rows)))
        with np.errstate(all="ignore"):
            for i, rows in enumerate(num_rows):
                samples[..., i] = (_eval_float_rows(rows, pw) / q).reshape(len(sampled), _POINTS_PER_LINE)
        for trial, fit in zip(sampled, _fit_stack(samples)):
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
