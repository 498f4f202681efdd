"""Line restriction, the exact rank-based circle test, least-squares circle
fitting, and the randomized sampling oracle."""

import dataclasses
import math
import random
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    circle_fit_reference,
    complex_square_jet,
    dict_inner,
    mixed_coeffs,
    mixed_polys,
    numeric_oracle_reference,
    quaternion_jet,
    random_valid_jet,
    reference_parameters_read,
)
from rounding_forge import circles, jets
from rounding_forge.circles import (
    DenominatorVanishesIdentically,
    Line,
    RationalCurve,
    circle_fit,
    circle_rank_exact,
    restrict_to_line,
    verify_rounding_numeric,
)
from rounding_forge.cliff import normed_pairing, pairing_to_rounding
from rounding_forge.jets import FracQuadMap, canonical_rounding, validate_jet
from rounding_forge.polycore import Poly, PolyMap
from rounding_forge.spheres import sphere_lift

F = Fraction


def mobius_map():
    return canonical_rounding(validate_jet(complex_square_jet()))


# ---------------------------------------------------------------------------
# univariate restriction


def affine_forms(num_vars: int):
    entries = st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(-3, 5)])
    return st.lists(entries, min_size=num_vars + 1, max_size=num_vars + 1).map(
        lambda c: Poly(num_vars, {tuple(int(j == i) for j in range(num_vars)): x
                                  for i, x in enumerate(c[1:])}) + c[0]
    )


@settings(max_examples=150, derandomize=True)
@given(
    affine_forms(3),
    affine_forms(3),
    st.lists(st.sampled_from([F(0), F(0), F(1), F(-1), F(2, 3)]), min_size=3, max_size=3),
    st.lists(st.sampled_from([F(0), F(0), F(1), F(-1), F(1, 2)]), min_size=3, max_size=3),
)
def test_restrict_rejects_exactly_the_lines_inside_the_pole_set(l1, l2, base, direction):
    assume(any(direction))
    denom = l1 * l2
    numer = PolyMap(3, [Poly.variable(3, 0) * Poly.variable(3, 1), l1, Poly.zero(3)])
    fq = FracQuadMap(numer=numer, denom=denom)
    line = Line(base=base, direction=direction)
    # the restricted denominator has degree at most 2: three values decide it
    vanishes = all(denom(line.at(t)) == 0 for t in (0, 1, -1))
    if vanishes:
        with pytest.raises(DenominatorVanishesIdentically):
            restrict_to_line(fq, line)
        return
    curve = restrict_to_line(fq, line)
    for t in (F(0), F(1), F(-1), F(2, 5)):
        point = line.at(t)
        assert sum(c * t ** k for k, c in enumerate(curve.denominator)) == denom(point)
        for num, coord in zip(curve.numerators, numer.coords):
            assert sum(c * t ** k for k, c in enumerate(num)) == coord(point)


# Lines for the integer kernels: zeros, and numerators over large primes, so
# the cleared line and its scale get big.
prime_entries = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-10**6, 10**6), st.sampled_from([1, 7, 65537, 1000003, 2**61 - 1])),
)


def lines_in(m: int):
    return st.tuples(st.lists(prime_entries, min_size=m, max_size=m),
                     st.lists(prime_entries, min_size=m, max_size=m).filter(any))


@st.composite
def fracquad_maps(draw):
    """Numerators of mixed degree, one linear-only and one zero coordinate,
    in a drawn order; the denominator may vanish on the line or everywhere."""
    m = draw(st.integers(1, 4))
    coords = [draw(mixed_polys(m, 2)) for _ in range(draw(st.integers(0, 3)))]
    coords.append(Poly.linear([draw(st.one_of(st.just(F(0)), mixed_coeffs)) for _ in range(m)]))
    coords.append(Poly.zero(m))
    order = draw(st.permutations(range(len(coords))))
    denom = draw(st.one_of(mixed_polys(m, 2).filter(lambda p: not p.is_zero()), mixed_polys(m, 2)))
    return FracQuadMap(numer=PolyMap(m, [coords[k] for k in order]), denom=denom)


def _at(coeffs, t):
    return sum(c * t ** k for k, c in enumerate(coeffs))


def _uni_dict(coeffs):
    return {(k,): c for k, c in enumerate(coeffs) if c}


@settings(max_examples=200, derandomize=True)
@given(fracquad_maps().flatmap(lambda fq: st.tuples(st.just(fq), lines_in(fq.source_dim))))
def test_restrict_to_line_matches_exact_evaluation(case):
    fq, (base, direction) = case
    line = Line(base=base, direction=direction)
    # the restricted denominator has degree at most 2: three values decide it
    if all(fq.denom(line.at(t)) == 0 for t in (0, 1, -1)):
        with pytest.raises(DenominatorVanishesIdentically):
            restrict_to_line(fq, line)
        return
    curve = restrict_to_line(fq, line)
    for coeffs in (*curve.numerators, curve.denominator, curve.norm_numer):
        assert all(type(c) is Fraction for c in coeffs)
        assert not coeffs or coeffs[-1] != 0
    for t in (F(0), F(1), F(-1), F(1, 2), F(-3, 7), F(5, 3)):
        point = line.at(t)
        values = fq.numer(point)
        assert tuple(_at(num, t) for num in curve.numerators) == values
        assert _at(curve.denominator, t) == fq.denom(point)
        assert _at(curve.norm_numer, t) == sum(v * v for v in values)
    # norm_numer is the sum of squares by the dict expansion
    numerators = [_uni_dict(num) for num in curve.numerators]
    assert dict_inner(numerators, numerators) == _uni_dict(curve.norm_numer)
    # and the public constructor accepts the curve and rebuilds it unchanged
    rebuilt = RationalCurve(curve.numerators, curve.denominator, curve.norm_numer)
    assert rebuilt == curve
    assert hash(rebuilt) == hash(curve)


def test_integer_form_is_built_lazily_and_once(monkeypatch):
    built = []
    quadratic_terms = jets._quadratic_terms

    def counting(polys):
        built.append(len(polys))
        return quadratic_terms(polys)

    monkeypatch.setattr(jets, "_quadratic_terms", counting)
    rj = validate_jet(quaternion_jet())
    fq = canonical_rounding(rj)
    sphere_lift(rj)
    assert built == []
    rng = random.Random(23)
    restricted = 0
    while restricted < 20:
        base = [F(rng.randint(-3, 3), rng.choice([1, 2, 65537])) for _ in range(7)]
        direction = [F(rng.randint(-3, 3), rng.choice([1, 3])) for _ in range(7)]
        if any(direction):
            circle_rank_exact(restrict_to_line(fq, Line(base=base, direction=direction)))
            restricted += 1
    # four numerators and the denominator, cleared together once for the map
    assert built == [5]
    # an equal map built again is a new map with its own form
    restrict_to_line(canonical_rounding(rj), Line(base=(0,) * 7, direction=(1,) + (0,) * 6))
    assert built == [5, 5]


def test_line_validation():
    with pytest.raises(ValueError):
        Line(base=(0, 0), direction=(0, 0))
    line = Line(base=(1, 0), direction=(0, "1/2"))
    assert line.at(2) == (F(1), F(1))


def test_restrict_frozen_real_axis():
    # the canonical complex-square germ on the real axis: (t - t^2) / (1 - t)^2
    curve = restrict_to_line(mobius_map(), Line(base=(0, 0), direction=(1, 0)))
    assert curve.numerators == ((F(0), F(1), F(-1)), ())
    assert curve.denominator == (F(1), F(-2), F(1))
    t = F(1, 2)
    assert tuple(_at(num, t) / _at(curve.denominator, t) for num in curve.numerators) == (F(1), F(0))


def test_restrict_frozen_imaginary_axis():
    # on the imaginary axis: (-t^2, t) / (1 + t^2)
    curve = restrict_to_line(mobius_map(), Line(base=(0, 0), direction=(0, 1)))
    assert curve.numerators == ((F(0), F(0), F(-1)), (F(0), F(1)))
    assert curve.denominator == (F(1), F(0), F(1))


def test_restrict_rejects_identically_vanishing_denominator():
    # |x|^2 vanishes on the whole line x = 0
    fq = pairing_to_rounding(normed_pairing(2, 2))
    line = Line(base=(0, 0, 1, 0), direction=(0, 0, 0, 1))
    with pytest.raises(DenominatorVanishesIdentically):
        restrict_to_line(fq, line)


def test_rational_curve_validates_consistency():
    with pytest.raises(ValueError):
        RationalCurve(numerators=((F(1),),), denominator=(F(1),), norm_numer=(F(2),))
    curve = RationalCurve(numerators=((F(0), F(1)),), denominator=(F(1),))
    assert curve.norm_numer == (F(0), F(0), F(1))


# ---------------------------------------------------------------------------
# exact circle membership


def test_circle_rank_on_restrictions():
    fq = mobius_map()
    rng = random.Random(19)
    for _ in range(25):
        base = [F(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(2)]
        direction = [F(rng.randint(-2, 2)) for _ in range(2)]
        if all(d == 0 for d in direction):
            continue
        curve = restrict_to_line(fq, Line(base=base, direction=direction))
        rank, in_circle = circle_rank_exact(curve)
        assert rank <= 3 and in_circle


def _sympy_columns(curve):
    # the columns d*f_i, <f,f> and d^2 of circle_rank_exact, in Fractions
    d = curve.denominator
    columns = [_mul(d, num) for num in curve.numerators] + [curve.norm_numer, _mul(d, d)]
    rows = max(len(c) for c in columns)
    return sympy.Matrix([[sympy.Rational(c[r].numerator, c[r].denominator) if r < len(c) else 0
                          for c in columns] for r in range(rows)])


# few distinct small values make low ranks common; mixed_coeffs adds large
# primes to the denominators
uni_coeffs = st.one_of(st.sampled_from([F(0), F(0), F(1), F(-1), F(1, 3)]), mixed_coeffs)
hand_built_curves = st.builds(
    lambda nums, den: RationalCurve(numerators=tuple(map(tuple, nums)), denominator=tuple(den)),
    st.lists(st.lists(uni_coeffs, max_size=5), max_size=4),
    st.lists(uni_coeffs, min_size=1, max_size=3).filter(any),
)


@st.composite
def restricted_curves(draw):
    fq = draw(st.sampled_from([mobius_map(), QUATERNION_MAP]))
    base, direction = draw(lines_in(fq.source_dim))
    try:
        return restrict_to_line(fq, Line(base=base, direction=direction))
    except DenominatorVanishesIdentically:
        return None


QUATERNION_MAP = canonical_rounding(validate_jet(quaternion_jet()))


@settings(max_examples=200, derandomize=True)
@given(st.one_of(hand_built_curves, restricted_curves()))
def test_circle_rank_matches_sympy(curve):
    assume(curve is not None)
    rank, in_circle = circle_rank_exact(curve)
    assert rank == _sympy_columns(curve).rank()
    assert in_circle == (rank <= 3)


def test_circle_rank_matches_sympy_on_quartic_numerators():
    curves = [
        # degree-4 numerators over one denominator: rank 5
        RationalCurve(numerators=((F(0), F(1), F(0), F(0), F(1, 7)), (F(1, 3), F(0), F(-2), F(0), F(5))),
                      denominator=(F(1), F(0), F(2, 65537))),
        # the unit circle's numerators times (1 + t)^2, which the denominator lacks
        RationalCurve(numerators=(_mul((F(1), F(2), F(1)), (F(0), F(2))),
                                  _mul((F(1), F(2), F(1)), (F(1), F(0), F(-1)))),
                      denominator=(F(1), F(0), F(1))),
    ]
    for curve in curves:
        assert circle_rank_exact(curve)[0] == _sympy_columns(curve).rank()


def test_circle_rank_rejects_twisted_cubic():
    curve = RationalCurve(numerators=((F(0), F(1)), (F(0), F(0), F(0), F(1))),
                          denominator=(F(1),))
    rank, in_circle = circle_rank_exact(curve)
    assert rank == 4 and not in_circle


def test_circle_rank_constant_curve():
    curve = RationalCurve(numerators=((F(1),), (F(2),)), denominator=(F(1),))
    rank, in_circle = circle_rank_exact(curve)
    assert rank <= 2 and in_circle


def test_circle_rank_honest_line():
    curve = RationalCurve(numerators=((F(1), F(2)), (F(0), F(-1))), denominator=(F(1),))
    rank, in_circle = circle_rank_exact(curve)
    assert in_circle


def test_circle_rank_invariant_under_common_factor():
    fq = mobius_map()
    curve = restrict_to_line(fq, Line(base=(0, 0), direction=(1, 1)))
    base_rank, _ = circle_rank_exact(curve)
    for c in (F(3), F(-1, 2)):
        scaled = RationalCurve(
            numerators=tuple(tuple(c * x for x in num) for num in curve.numerators),
            denominator=tuple(c * x for x in curve.denominator),
        )
        assert circle_rank_exact(scaled)[0] == base_rank
    # a common polynomial factor, where the degree caps allow it
    small = RationalCurve(numerators=((F(0), F(1)), (F(1),)), denominator=(F(1), F(1)))
    lifted = RationalCurve(
        numerators=tuple(_mul((F(1), F(2)), num) for num in small.numerators),
        denominator=_mul((F(1), F(2)), small.denominator),
    )
    assert circle_rank_exact(lifted)[0] == circle_rank_exact(small)[0]


def _mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _compose_affine(coeffs, a, b):
    # c(t) -> c(a t + b)
    out = ()
    arg = (b, a)
    power = (F(1),)
    for c in coeffs:
        term = tuple(c * x for x in power)
        merged = [F(0)] * max(len(out), len(term))
        for i, x in enumerate(out):
            merged[i] += x
        for i, x in enumerate(term):
            merged[i] += x
        out = tuple(merged)
        power = _mul(power, arg)
    return out


def test_circle_rank_invariant_under_reparametrization():
    fq = mobius_map()
    curve = restrict_to_line(fq, Line(base=(F(1, 3), F(-1)), direction=(2, 1)))
    rank, _ = circle_rank_exact(curve)
    a, b = F(2), F(-1, 2)
    moved = RationalCurve(
        numerators=tuple(_compose_affine(num, a, b) for num in curve.numerators),
        denominator=_compose_affine(curve.denominator, a, b),
    )
    assert circle_rank_exact(moved)[0] == rank


# ---------------------------------------------------------------------------
# least-squares fitting


def test_circle_fit_recovers_tilted_circle():
    u = [1 / math.sqrt(2), 1 / math.sqrt(2), 0.0]
    v = [0.0, 0.0, 1.0]
    center = [1.0, -2.0, 0.5]
    radius = 1.75
    pts = []
    for k in range(9):
        th = 2 * math.pi * k / 9
        pts.append([center[i] + radius * (math.cos(th) * u[i] + math.sin(th) * v[i])
                    for i in range(3)])
    fit = circle_fit(pts)
    assert fit.kind == "circle"
    assert fit.residual < 1e-9
    assert abs(fit.radius - radius) < 1e-9
    assert max(abs(fit.center[i] - center[i]) for i in range(3)) < 1e-9


def test_circle_fit_unit_circle_plane():
    pts = [[math.cos(t), math.sin(t)] for t in
           [0.1, 0.9, 1.7, 2.8, 3.9, 5.1, 6.0, 4.6]]
    fit = circle_fit(pts)
    assert fit.kind == "circle"
    assert abs(fit.radius - 1.0) < 1e-12
    assert abs(fit.center[0]) < 1e-12 and abs(fit.center[1]) < 1e-12


def test_circle_fit_collinear_points():
    pts = [[float(t), 2.0 * t - 1.0] for t in range(8)]
    fit = circle_fit(pts)
    assert fit.kind == "line"
    assert fit.residual < 1e-9


def test_circle_fit_coincident_points():
    pts = [[3.0, 4.0, 5.0]] * 6
    fit = circle_fit(pts)
    assert fit.kind == "point"
    assert fit.residual < 1e-12


def test_circle_fit_requires_enough_points():
    with pytest.raises(ValueError):
        circle_fit([[0.0, 0.0]] * 4)


def test_circle_fit_residual_reports_worst_point():
    pts = [[math.cos(t), math.sin(t)] for t in [0.0, 0.8, 1.6, 2.4, 3.2, 4.0, 4.8]]
    pts.append([1.01, 0.0])
    fit = circle_fit(pts)
    assert fit.residual > 1e-3


# ---------------------------------------------------------------------------
# the sampling oracle


def test_numeric_oracle_passes_canonical_maps():
    for jet in (complex_square_jet(), quaternion_jet()):
        fq = canonical_rounding(validate_jet(jet))
        report = verify_rounding_numeric(fq, trials=40, seed=1, tol=1e-7)
        assert report.ok
        assert report.violations == ()
        assert report.max_residual < 1e-7


def test_numeric_oracle_flags_cubic_control():
    fq = mobius_map()
    broken = list(fq.numer.coords)
    broken[0] = broken[0] + Poly(2, {(3, 0): F(1, 100)})
    report = verify_rounding_numeric((broken, fq.denom), trials=40, seed=1, tol=1e-7)
    assert not report.ok
    assert len(report.violations) >= 1


def test_numeric_oracle_deterministic():
    fq = mobius_map()
    a = verify_rounding_numeric(fq, trials=20, seed=7)
    b = verify_rounding_numeric(fq, trials=20, seed=7)
    assert a == b


def test_numeric_oracle_fits_a_map_with_no_coordinates():
    # every image is the one point of R^0, which the exact route also accepts
    fq = FracQuadMap(PolyMap(2, []), 1 + Poly.variable(2, 0))
    assert circle_rank_exact(restrict_to_line(fq, Line(base=(0, 0), direction=(1, 2)))) == (1, True)
    report = verify_rounding_numeric(fq, trials=10, seed=3)
    assert report.ok
    assert (report.max_residual, report.violations, report.skipped) == (0.0, (), ())


def test_numeric_oracle_rejects_bad_input():
    with pytest.raises(TypeError):
        verify_rounding_numeric(([1, 2], 3))


def test_numeric_oracle_rejects_mismatched_pairs_up_front():
    fq = mobius_map()
    with pytest.raises(ValueError, match="^point dimension mismatch$"):
        verify_rounding_numeric(([Poly.variable(3, 0)], fq.denom))
    # a zero denominator skips every line, so no numerator is ever evaluated
    with pytest.raises(ValueError, match="^point dimension mismatch$"):
        verify_rounding_numeric(([Poly.variable(3, 0)], Poly.zero(2)), trials=2)


def test_numeric_oracle_names_a_coordinate_outside_float_range():
    fq = mobius_map()
    huge = Poly(2, {(1, 0): 10**400})
    with pytest.raises(ValueError, match=r"^F\[1\] has a coefficient outside float range$"):
        verify_rounding_numeric(([fq.numer.coords[0], huge], fq.denom))
    with pytest.raises(ValueError, match="^Q has a coefficient outside float range$"):
        verify_rounding_numeric((list(fq.numer.coords), fq.denom + huge))


def _wide_polys(m: int):
    """Polys of degree up to 4 that always hold a term of three distinct factors,
    and of four when m allows: rows wider than (c, i, j)."""
    wide = {tuple(int(v < 3) for v in range(m)): F(-2, 3)}
    if m >= 4:
        wide[tuple(int(v < 4) for v in range(m))] = F(5, 7)
    return mixed_polys(m, 4).map(lambda p: p + Poly(m, wide))


@st.composite
def oracle_cases(draw):
    """A map for the sampling oracle, with its trials, seed and tolerance.

    The maps are canonical roundings of random valid jets (m 2..8), plain
    quadratic maps that violate the rounding property, and raw pairs of
    degree 3 and 4; a denominator scaled towards the guard skips some or all
    lines, coordinates may be zero or constant, and a negated map divides
    zero coordinates by a negative Q, which samples -0.0.
    """
    kind = draw(st.sampled_from(["canonical", "quadratic", "wide"]))
    if kind == "canonical":
        m = draw(st.integers(2, 8))
        fq = canonical_rounding(validate_jet(random_valid_jet(random.Random(draw(st.integers(0, 10**6))), m=m)))
        numerators, denominator = list(fq.numer.coords), fq.denom
    elif kind == "quadratic":
        m = draw(st.integers(1, 5))
        numerators = draw(st.lists(mixed_polys(m, 2), min_size=1, max_size=4))
        denominator = draw(mixed_polys(m, 2)) + 1
    else:
        m = draw(st.integers(3, 5))
        numerators = draw(st.lists(_wide_polys(m), min_size=1, max_size=3))
        denominator = draw(st.one_of(mixed_polys(m, 2), _wide_polys(m))) + 1
    denominator = denominator * draw(st.sampled_from([F(1), F(1), F(1, 10**6), F(1, 10**8), F(0)]))
    extra = draw(st.lists(st.sampled_from([F(0), F(1), F(-5, 2)]), max_size=2))
    numerators += [Poly.constant(m, c) for c in extra]
    if draw(st.booleans()):
        numerators, denominator = [-p for p in numerators], -denominator
    if kind != "wide" and draw(st.booleans()):
        fmap = FracQuadMap(PolyMap(m, numerators), denominator)
    else:
        fmap = (numerators, denominator)
    trials = draw(st.integers(1, 8))
    return fmap, trials, draw(st.integers(0, 10**6)), draw(st.sampled_from([1e-7, 1e-3]))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(oracle_cases())
def test_numeric_oracle_matches_the_per_term_reference(case):
    fmap, trials, seed, tol = case
    got = verify_rounding_numeric(fmap, trials=trials, seed=seed, tol=tol)
    want = numeric_oracle_reference(fmap, trials=trials, seed=seed, tol=tol)
    assert got.max_residual.hex() == want.max_residual.hex()
    assert dataclasses.asdict(got) == dataclasses.asdict(want)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(oracle_cases())
def test_numeric_oracle_matches_the_reference_across_fit_blocks(case):
    # two full stacks and a part one, with skipped lines falling anywhere
    fmap, _, seed, tol = case
    trials = 2 * circles._FIT_BLOCK + 5
    got = verify_rounding_numeric(fmap, trials=trials, seed=seed, tol=tol)
    want = numeric_oracle_reference(fmap, trials=trials, seed=seed, tol=tol)
    assert got.max_residual.hex() == want.max_residual.hex()
    assert dataclasses.asdict(got) == dataclasses.asdict(want)


def test_numeric_oracle_rejects_samples_past_float_range_in_a_later_trial():
    # the spread of 2e152 * x1^4 squares past float range only where |x1|
    # nears the sampling bound 3; with seed 1, trial 129 is the first line
    # that gets there, and the stack holding it raises
    fmap = ([Poly(2, {(4, 0): 2 * 10**152}), Poly.variable(2, 1)], Poly.constant(2, 1))
    for oracle in (verify_rounding_numeric, numeric_oracle_reference):
        assert oracle(fmap, trials=129, seed=1).violations == tuple(range(129))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^samples must be finite$"):
                oracle(fmap, trials=130, seed=1)
            with pytest.raises(ValueError, match="^samples must be finite$"):
                oracle(fmap, trials=3 * circles._FIT_BLOCK, seed=1)


@pytest.mark.parametrize("scale", [math.inf, math.nan, 1e307])
def test_circle_fit_rejects_samples_it_cannot_square(scale):
    # 1e307 is finite, but the squared spread of the samples overflows
    pts = [[scale * math.cos(a), scale * math.sin(a)] for a in range(8)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^samples must be finite$"):
            circle_fit(pts)


# ---------------------------------------------------------------------------
# the stacked fit against the one-at-a-time reference, bit for bit

_FAR = 1e12  # pushes a solved center far enough that the radius degrades


def _sample_set(rng: np.random.Generator, kind: str, p: int, n: int, size: float) -> np.ndarray:
    """p samples in R^n of one kind: on a circle, on a line, one point,
    noise, or noise with an inf, a nan or a spread whose square overflows."""
    center = rng.uniform(-3, 3, n) * size
    if kind == "circle" and n >= 2:
        a, b = np.linalg.qr(rng.normal(size=(n, 2)))[0].T
        th = rng.uniform(0, 2 * np.pi, p)
        return center + size * rng.uniform(0.1, 2) * (np.outer(np.cos(th), a) + np.outer(np.sin(th), b))
    if kind == "line":
        return center + np.outer(rng.uniform(-2, 2, p), rng.normal(size=n)) * size
    if kind == "point":
        return np.tile(center, (p, 1))
    pts = rng.normal(size=(p, n)) * size
    if kind == "bad" and n:
        pts[rng.integers(p), rng.integers(n)] = rng.choice([np.inf, -np.inf, np.nan, 1e307])
    return pts


@st.composite
def fit_stacks(draw):
    """A stack of sample sets sharing p and n, mixed kinds and sizes, and
    whether solved centers move far away, so that circles degrade to lines."""
    p = draw(st.sampled_from([5, 7, 16]))
    n = draw(st.sampled_from([0, 1, 2, 3, 5, 20]))
    kinds = draw(st.lists(st.sampled_from(["circle", "circle", "line", "point", "noise", "bad"]),
                          min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    size = draw(st.sampled_from([1e-9, 1.0, 1e5, 1e150]))
    sets = [_sample_set(rng, kind, p, n, size) for kind in kinds]
    # a far center squares past float range when the samples are huge
    return np.stack(sets), size < 1e100 and draw(st.booleans())


def _far_centers(moves):
    """Patch lstsq so that a solve whose design moves(design) accepts puts
    the center far away: the fitted radius then degrades to a line."""
    solve = np.linalg.lstsq

    def lstsq(design, rhs, rcond=None):
        x, *rest = solve(design, rhs, rcond=rcond)
        return (x * [_FAR, _FAR, 1.0] if moves(design) else x), *rest

    return mock.patch.object(np.linalg, "lstsq", lstsq)


def _fit_fields(fit: circles.CircleFit) -> tuple:
    arrays = tuple((a.dtype.str, a.shape, a.tobytes()) for a in (fit.center, fit.plane_basis))
    return fit.kind, arrays, float(fit.radius).hex(), float(fit.residual).hex(), type(fit.radius), type(fit.residual)


def _fit_or_error(fit, *args):
    try:
        return fit(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(fit_stacks())
def test_stacked_fit_matches_the_reference_bit_for_bit(case):
    stack, far = case
    # the first sample decides, so every fit moves the same centers
    with _far_centers(lambda design: far and design[0, 0] > 0):
        want = [_fit_or_error(circle_fit_reference, pts) for pts in stack]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _fit_or_error(circles._fit_stack, stack)
            alone = [_fit_or_error(circle_fit, pts) for pts in stack]
    errors = [w for w in want if isinstance(w, str)]
    if errors:
        assert errors[0] == "samples must be finite"
        assert got == errors[0]
    else:
        assert [_fit_fields(f) for f in got] == [_fit_fields(f) for f in want]
    assert [w if isinstance(w, str) else _fit_fields(w) for w in alone] == \
        [w if isinstance(w, str) else _fit_fields(w) for w in want]


@pytest.mark.parametrize("kinds, n, far, want", [
    (["point", "circle", "line"], 3, False, ["point", "circle", "line"]),
    (["point", "line"], 0, False, ["point", "point"]),
    (["line", "noise", "point"], 1, False, ["line", "line", "point"]),
    (["circle", "circle"], 2, True, ["line", "line"]),
])
def test_stacked_fit_covers_every_kind(kinds, n, far, want):
    rng = np.random.default_rng(5)
    stack = np.stack([_sample_set(rng, kind, 16, n, 1.0) for kind in kinds])
    with _far_centers(lambda design: far):
        got = circles._fit_stack(stack)
        assert [_fit_fields(f) for f in got] == [_fit_fields(circle_fit_reference(pts)) for pts in stack]
    assert [f.kind for f in got] == want


@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e307])
def test_stacked_fit_rejects_a_stack_holding_one_bad_set(bad):
    rng = np.random.default_rng(8)
    stack = np.stack([_sample_set(rng, "circle", 16, 3, 1.0) for _ in range(4)])
    stack[2, 5, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^samples must be finite$"):
            circles._fit_stack(stack)


@pytest.mark.parametrize("kwargs, message", [
    ({"tol": math.nan}, "tol must be a positive finite number, got nan"),
    ({"tol": math.inf}, "tol must be a positive finite number, got inf"),
    ({"tol": 0.0}, "tol must be a positive finite number, got 0.0"),
    ({"tol": -1e-7}, "tol must be a positive finite number, got -1e-07"),
    ({"trials": 0}, "trials must be a positive integer, got 0"),
    ({"trials": -3}, "trials must be a positive integer, got -3"),
    ({"trials": 2.0}, "trials must be a positive integer, got 2.0"),
    ({"trials": True}, "trials must be a positive integer, got True"),
])
def test_numeric_oracle_rejects_a_tolerance_or_trial_count_the_cli_would(kwargs, message):
    # a NaN tolerance compares false with every residual, so it would pass
    # a map that the default tolerance fails
    parabola = ([Poly(2, {(2, 0): 1}), Poly.variable(2, 1)], Poly.constant(2, 1))
    assert not verify_rounding_numeric(parabola, trials=4).ok
    with pytest.raises(ValueError) as err:
        verify_rounding_numeric(parabola, **{"trials": 4, **kwargs})
    assert str(err.value) == message


@pytest.mark.parametrize("seed", [None, 1.5, "abc", True])
def test_numeric_oracle_rejects_a_seed_that_is_not_an_int(seed):
    # None seeds from the OS, so its report could not be reproduced from its
    # own fields; True is an int to isinstance, but no seed
    fq = canonical_rounding(validate_jet(complex_square_jet()))
    with mock.patch.object(circles.random, "Random", side_effect=AssertionError("drew")):
        with pytest.raises(ValueError) as err:
            verify_rounding_numeric(fq, trials=4, seed=seed)
    assert str(err.value) == f"seed must be an integer, got {seed!r}"


# ---------------------------------------------------------------------------
# error paths: each names its exception and message


@pytest.mark.parametrize("call, exc, message", [
    (lambda: Line((0, 0), (1,)), ValueError, "base and direction dimensions differ"),
    (lambda: RationalCurve(numerators=((F(1),),), denominator=(F(0), F(0))),
     DenominatorVanishesIdentically, "denominator is the zero polynomial"),
    (lambda: RationalCurve(numerators=((0, 0, 0, 0, 0, 1),), denominator=(1,)),
     ValueError, "numerator degree exceeds 4"),
    (lambda: RationalCurve(numerators=((1,),), denominator=(1, 0, 0, 1)),
     ValueError, "denominator degree exceeds 2"),
    (lambda: restrict_to_line(mobius_map(), Line((0, 0, 0), (1, 0, 0))),
     ValueError, "line lives in the wrong source space"),
])
def test_curves_and_lines_reject_malformed_input(call, exc, message):
    with pytest.raises(exc) as err:
        call()
    assert type(err.value) is exc
    assert str(err.value) == message


def test_hand_built_curve_clears_to_one_scale():
    # the integer lists share the lcm of every denominator, which has no
    # factor in common with all of them
    curve = RationalCurve(numerators=((F(1, 2), F(1, 3)),), denominator=(F(1, 5), F(0), F(1)))
    assert (curve._int_numerators, curve._int_denominator, curve._scale) == (((15, 10),), (6, 0, 30), 30)
    assert curve.norm_numer == (F(1, 4), F(1, 3), F(1, 9))


def test_restricted_curve_reduces_its_scale():
    # den * L^2 = 4 here, and every coefficient of 2t^2 / 4t^2 shares the factor 2
    fq = pairing_to_rounding(normed_pairing(2, 2))
    curve = restrict_to_line(fq, Line(base=(0, 0, 0, 0), direction=(1, 0, F(1, 2), 0)))
    assert (curve._int_numerators, curve._int_denominator, curve._scale) == (((0, 0, 1), ()), (0, 0, 2), 2)
    rebuilt = RationalCurve(curve.numerators, curve.denominator, curve.norm_numer)
    assert rebuilt == curve
    assert hash(rebuilt) == hash(curve)
    assert curve.numerators == ((F(0), F(0), F(1, 2)), ())
    assert curve.norm_numer == (F(0), F(0), F(0), F(0), F(1, 4))


def test_circle_rank_builds_no_fraction_view():
    fq = canonical_rounding(validate_jet(quaternion_jet()))
    curve = restrict_to_line(fq, Line(base=(F(1, 3),) + (0,) * 6, direction=(1, F(-2, 5)) + (1,) * 5))
    circle_rank_exact(curve)
    views = {"numerators", "denominator", "norm_numer"}
    assert not views & set(vars(curve))
    # each view is built on its first read and kept
    for coeffs in (*curve.numerators, curve.denominator, curve.norm_numer):
        assert all(type(c) is Fraction for c in coeffs)
    assert views <= set(vars(curve))


@pytest.mark.parametrize("name", ["numerators", "denominator", "norm_numer", "_int_numerators", "_scale"])
def test_curve_fields_stay_frozen(name):
    curve = restrict_to_line(mobius_map(), Line(base=(0, 0), direction=(0, 1)))
    for _ in range(2):  # before and after the views are built
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(curve, name, ())
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(curve, name)
        curve.numerators, curve.denominator, curve.norm_numer
    assert curve.denominator == (F(1), F(0), F(1))


def test_circle_fit_degrades_a_huge_radius_to_a_line(monkeypatch):
    # |center| <= spread^2 / (2 * second singular value) for exact samples,
    # so only round-off can push the radius past 1e9 * spread; a solver that
    # returns such a center stands in for it
    def far_center(design, rhs, rcond=None):
        return np.array([0.0, 1e12, 0.0]), None, 3, None

    monkeypatch.setattr(circles.np.linalg, "lstsq", far_center)
    pts = [[math.cos(a), math.sin(a)] for a in range(8)]
    fit = circle_fit(pts)
    assert (fit.kind, fit.radius) == ("line", math.inf)
    assert fit.center.tolist() == np.mean(pts, axis=0).tolist()
    # the residual is measured to the line through the centroid
    w = np.asarray(pts) - fit.center
    b1 = fit.plane_basis[0]
    assert fit.residual == pytest.approx(np.max(np.abs(w[:, 0] * b1[1] - w[:, 1] * b1[0])))


def _tiny_denominator_map(scale):
    """(x1^2, x2) * scale over 1e-7 * scale: a map that sends lines to parabolas."""
    numer = [Poly(2, {(2, 0): scale}), Poly(2, {(0, 1): scale})]
    return numer, Poly(2, {(0, 0): F(scale, 10**7)})


def test_oracle_that_fitted_no_line_is_not_ok():
    # |Q| = 1e-7 is below the guard 1e-6 * (1 + t^2) at every parameter
    report = verify_rounding_numeric(_tiny_denominator_map(1), trials=6)
    assert report.skipped == tuple(range(6)) and report.violations == ()
    assert not report.ok
    # the same map with the denominator 1 is sampled, and every line is a violation
    report = verify_rounding_numeric(_tiny_denominator_map(10**7), trials=6)
    assert report.skipped == () and report.violations == tuple(range(6))
    assert not report.ok


# ---------------------------------------------------------------------------
# the oracle's stream of draws, against the scalar loop of the reference


def _scaled_canonical_map(scale):
    """A canonical m = 4 rounding with Q and every F[i] multiplied by scale:
    the smaller the scale, the more parameters fail the denominator guard."""
    fq = canonical_rounding(validate_jet(random_valid_jet(random.Random(4), m=4)))
    return [p * scale for p in fq.numer.coords], fq.denom * scale


def _assert_matches_the_reference(fmap, trials, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = verify_rounding_numeric(fmap, trials=trials, seed=seed)
    want = numeric_oracle_reference(fmap, trials=trials, seed=seed)
    assert got.max_residual.hex() == want.max_residual.hex()
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    return got


_GUARD_TRIALS = [1, 99, 101, 250]
_GUARD_SCALES = [F(1), F(1, 10**5), F(1, 10**6), F(3, 10**6), F(1, 10**7)]


@pytest.mark.parametrize("trials", _GUARD_TRIALS)
@pytest.mark.parametrize("scale", _GUARD_SCALES, ids=str)
def test_numeric_oracle_matches_the_reference_as_the_guard_tightens(scale, trials):
    # at scale 1 no parameter fails the guard; at 1/10^7 most lines are skipped
    report = _assert_matches_the_reference(_scaled_canonical_map(scale), trials, seed=0)
    if trials == 250:
        assert (scale == F(1, 10**7)) == (len(report.skipped) > trials // 2)


_DEGENERATE_CONTROLS = pytest.mark.parametrize("fmap", [
    _tiny_denominator_map(1),  # every line is skipped
    ([Poly(2, {(2, 0): 1})], Poly.zero(2)),  # Q is 0 at every point
    FracQuadMap(PolyMap(2, []), 1 + Poly.variable(2, 0)),  # no numerators, ok
], ids=["tiny-denominator", "zero-denominator", "no-numerators"])


@_DEGENERATE_CONTROLS
def test_numeric_oracle_matches_the_reference_on_degenerate_controls(fmap):
    report = _assert_matches_the_reference(fmap, 101, seed=3)
    assert report.ok == (not report.skipped)


def _points_evaluated(fmap, trials, seed) -> int:
    """The points at which the oracle evaluates Q: count parameters on each
    line of every _guarded call."""
    evaluated = 0
    guarded = circles._guarded

    def counting(draws, lines, count, *rest):
        nonlocal evaluated
        evaluated += len(lines) * count
        return guarded(draws, lines, count, *rest)

    with mock.patch.object(circles, "_guarded", counting):
        verify_rounding_numeric(fmap, trials=trials, seed=seed)
    return evaluated


def _assert_bounded_work(fmap, trials, seed):
    # every parameter the scalar loop reads is evaluated at least once; the
    # re-reads of a short line at doubled counts and the lines a window reads
    # past it stay under 3.5 times as many on these controls
    read = sum(reference_parameters_read(fmap, trials, seed))
    assert read <= _points_evaluated(fmap, trials, seed) <= 4 * read


@pytest.mark.parametrize("trials", _GUARD_TRIALS)
@pytest.mark.parametrize("scale", _GUARD_SCALES, ids=str)
def test_numeric_oracle_work_is_bounded_as_the_guard_tightens(scale, trials):
    _assert_bounded_work(_scaled_canonical_map(scale), trials, seed=0)


@_DEGENERATE_CONTROLS
def test_numeric_oracle_work_is_bounded_on_degenerate_controls(fmap):
    _assert_bounded_work(fmap, 101, seed=3)


@pytest.mark.parametrize("seed, trials, first", [
    (0, 250, 100),  # the first line of a full block, after clean lines
    (10, 115, 114),  # the last line of a part block
], ids=["first-line", "last-line"])
def test_numeric_oracle_matches_the_reference_where_a_block_first_reads_more(seed, trials, first):
    fmap = _scaled_canonical_map(F(3, 10**4))
    reads = reference_parameters_read(fmap, trials, seed)
    block = range(circles._FIT_BLOCK, trials)
    # first is the first line of the second block that reads past its 16 parameters
    assert [trial for trial in block if reads[trial] > 16][0] == first
    assert reads[first - 1] == 16
    _assert_matches_the_reference(fmap, trials, seed)


@pytest.mark.parametrize("fmap", [
    ([Poly.constant(0, 1)], Poly.constant(0, 1)),
    FracQuadMap(PolyMap(0, [Poly.constant(0, 1)]), Poly.constant(0, 1)),
], ids=["pair", "FracQuadMap"])
def test_numeric_oracle_rejects_a_map_of_no_variables(fmap):
    # its direction would be empty, and no empty direction is ever accepted
    with mock.patch.object(circles.random, "Random", side_effect=AssertionError("drew")):
        with pytest.raises(ValueError, match="^a map of no variables has no lines to sample$"):
            verify_rounding_numeric(fmap)
