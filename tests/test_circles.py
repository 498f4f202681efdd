"""Line restriction, the exact rank-based circle test, least-squares circle
fitting, and the randomized sampling oracle."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import complex_square_jet, mixed_polys, quaternion_jet
from rounding_forge.circles import (
    DenominatorVanishesIdentically,
    Line,
    RationalCurve,
    circle_fit,
    circle_rank_exact,
    poly_on_line,
    restrict_to_line,
    verify_rounding_numeric,
)
from rounding_forge.cliff import normed_pairing, pairing_to_rounding
from rounding_forge.jets import FracQuadMap, canonical_rounding, validate_jet
from rounding_forge.polycore import Poly, PolyMap

F = Fraction


def mobius_map():
    return canonical_rounding(validate_jet(complex_square_jet()))


# ---------------------------------------------------------------------------
# univariate restriction


def test_poly_on_line_matches_direct_evaluation():
    rng = random.Random(13)
    for _ in range(30):
        p = Poly(3, {tuple(rng.randint(0, 1) for _ in range(3)): F(rng.randint(-3, 3))
                     for _ in range(4)})
        base = [F(rng.randint(-2, 2)) for _ in range(3)]
        direction = [F(rng.randint(-2, 2)) for _ in range(3)]
        coeffs = poly_on_line(p, base, direction)
        for t in (F(0), F(1), F(-1, 2), F(3)):
            direct = p([b + t * d for b, d in zip(base, direction)])
            via = sum(c * t ** k for k, c in enumerate(coeffs))
            assert via == direct


# line entries for the integer restriction kernel: often zero, else fractional
line_entries = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-7, 7), st.sampled_from([1, 2, 3, 5, 1000003])),
)


@settings(max_examples=120, derandomize=True)
@given(
    st.integers(0, 4).flatmap(lambda deg: st.tuples(st.just(deg), mixed_polys(3, deg))),
    st.lists(line_entries, min_size=3, max_size=3),
    st.lists(line_entries, min_size=3, max_size=3),
)
def test_poly_on_line_matches_evaluation_up_to_degree_four(deg_and_poly, base, direction):
    deg, p = deg_and_poly
    coeffs = poly_on_line(p, base, direction)
    assert len(coeffs) <= deg + 1
    assert not coeffs or coeffs[-1] != 0
    # deg + 2 distinct points pin down a polynomial of degree at most deg
    for t in (F(0), F(1), F(-1), F(1, 2), F(-3, 7), F(5, 3)):
        direct = p([b + t * d for b, d in zip(base, direction)])
        assert sum(c * t ** k for k, c in enumerate(coeffs)) == direct


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
    assert curve.point(F(1, 2)) == (F(1), F(0))


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


def test_numeric_oracle_rejects_bad_input():
    with pytest.raises(TypeError):
        verify_rounding_numeric(([1, 2], 3))
