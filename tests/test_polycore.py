"""Exact polynomial layer: arithmetic laws, single-divisor division, quadratic
forms, and the fraction-free linear algebra underneath.

Expansion results are cross-checked against the plain-dict oracle from
conftest, ranks against numpy on random integer matrices."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from conftest import (
    as_dict,
    dict_add,
    dict_inner,
    dict_mul,
    eval_float_reference,
    factors_reference,
    grlex_key,
    identity_form,
    jet_by_forms_reference,
    lagrange_reference,
    ldl_dense_reference,
    matmul,
    mixed_coeffs,
    mixed_polys,
    poly_str_reference,
    quadform_value_reference,
    transpose,
)
from rounding_forge import _linalg, cliff, polycore
from rounding_forge.circles import Line
from rounding_forge.jets import jet_from_matrices
from rounding_forge.polycore import (
    MAX_DEGREE,
    Poly,
    PolyMap,
    QuadForm,
    as_rational,
    divide_exact,
    form_signature,
    inner_poly,
    _FloatForm,
    _eval_float_rows,
    poly_divmod,
    rank_linear,
)

F = Fraction


# ---------------------------------------------------------------------------
# scalars and construction


def test_as_rational_accepts_exact_inputs():
    assert as_rational(3) == F(3)
    assert as_rational("3/4") == F(3, 4)
    assert as_rational(F(-2, 6)) == F(-1, 3)


def test_as_rational_rejects_floats():
    with pytest.raises(TypeError):
        as_rational(0.5)


def test_as_rational_passes_a_fraction_through():
    x = F(-2, 6)
    assert as_rational(x) is x
    assert as_rational(" -6/8 ") == F(-3, 4)
    with pytest.raises(TypeError):
        Line((F(1), 0.5), (1, 1))
    with pytest.raises(TypeError):
        Line((0, 0), (F(1), 2.0))


def test_zero_terms_are_pruned():
    p = Poly(2, {(1, 0): 1, (0, 1): 0})
    assert p == Poly.variable(2, 0)
    assert (p - p).is_zero()
    assert Poly.zero(3).degree() == -1


def test_degree_cap_enforced():
    with pytest.raises(ValueError):
        Poly(1, {(MAX_DEGREE + 1,): 1})
    p = Poly(1, {(3,): 1})
    with pytest.raises(ValueError):
        p * p * p
    # the product kernel checks the degree of its output against the cap itself
    with pytest.raises(ValueError, match=f"exceeds cap {MAX_DEGREE}"):
        Poly(2, {(3, 2): F(1, 3)}) * Poly(2, {(0, MAX_DEGREE - 4): F(-2, 7)})


def test_products_reject_mismatched_spaces():
    with pytest.raises(ValueError, match="different variable spaces"):
        Poly.variable(2, 0) * Poly.variable(3, 0)
    with pytest.raises(ValueError, match="different shapes"):
        inner_poly(PolyMap.identity(2), PolyMap.identity(3))
    with pytest.raises(ValueError, match="different shapes"):
        inner_poly(PolyMap.identity(2), PolyMap(2, [Poly.variable(2, 0)]))


def test_linear_and_variable_constructors():
    assert Poly.linear([2, 0, -1]) == 2 * Poly.variable(3, 0) - Poly.variable(3, 2)
    assert Poly.linear([0, 0]).is_zero()
    # terms are stored in variable order, which the float oracle sums in
    assert list(Poly.linear([F(3, 4), 0, "-1/6"]).terms.items()) == [((1, 0, 0), F(3, 4)), ((0, 0, 1), F(-1, 6))]


# ---------------------------------------------------------------------------
# arithmetic laws, via hypothesis on small polynomials

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def polys(num_vars: int, max_deg: int):
    exps = st.tuples(*(st.integers(0, max_deg) for _ in range(num_vars))).filter(
        lambda e: sum(e) <= max_deg
    )
    return st.dictionaries(exps, coeffs, max_size=4).map(lambda d: Poly(num_vars, d))


@settings(max_examples=60, derandomize=True)
@given(polys(2, 2), polys(2, 2), polys(2, 2))
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, derandomize=True)
@given(polys(3, 1), polys(3, 1), polys(3, 1))
def test_multiplication_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, derandomize=True)
@given(polys(2, 2), polys(2, 2))
def test_product_matches_dict_oracle(a, b):
    assert as_dict(a * b) == dict_mul(as_dict(a), as_dict(b))
    assert as_dict(a + b) == dict_add(as_dict(a), as_dict(b))


@settings(max_examples=80, derandomize=True)
@given(mixed_polys(3, 4), mixed_polys(3, 4))
def test_product_kernel_matches_dict_oracle(a, b):
    assert as_dict(a * b) == dict_mul(as_dict(a), as_dict(b))
    assert as_dict(a * Poly.zero(3)) == {}


@settings(max_examples=80, derandomize=True)
@given(mixed_polys(3, 4), mixed_polys(3, 4))
def test_kernel_terms_keep_the_dict_oracle_order(a, b):
    # the numeric oracle sums floats in term order, so the pinned
    # max_residual bytes depend on this order, not only on the values
    negated = {e: -c for e, c in as_dict(b).items()}
    assert list((a * b).terms) == list(dict_mul(as_dict(a), as_dict(b)))
    assert list((a + b).terms) == list(dict_add(as_dict(a), as_dict(b)))
    assert list((a - b).terms) == list(dict_add(as_dict(a), negated))


def test_factors_scan_only_the_set_fields_like_the_field_loop():
    # every key of at most three variables up to MAX_DEGREE, then random keys
    # on many variables and sums of two keys, whose fields reach 2 MAX_DEGREE
    keys = [(polycore._pack(e), m) for m in range(4)
            for e in itertools.product(range(MAX_DEGREE + 1), repeat=m) if sum(e) <= MAX_DEGREE]
    rng = random.Random(11)
    for m in (1, 9, 76):
        for _ in range(200):
            a, b = ([0] * m, [0] * m)
            for e in (a, b):
                for _ in range(rng.randint(0, MAX_DEGREE)):
                    e[rng.randrange(m)] += 1
            keys += [(polycore._pack(tuple(a)), m), (polycore._pack(tuple(a)) + polycore._pack(tuple(b)), m)]
    assert len(keys) > 1000
    for key, m in keys:
        assert polycore._factors(key, m) == factors_reference(key, m), (key, m)


@settings(max_examples=80, derandomize=True)
@given(mixed_polys(3, 4), mixed_polys(2, 8))
def test_leading_degree_and_str_follow_grlex(a, b):
    for p in (a, b, a * a):
        if p.is_zero():
            assert p.degree() == -1 and str(p) == "0"
            continue
        top = max(p.terms, key=grlex_key)
        assert p.leading() == (top, p.terms[top])
        assert p.degree() == sum(top) == max(sum(e) for e in p.terms)
        assert str(p) == poly_str_reference(p)


@settings(max_examples=80, derandomize=True)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.lists(mixed_polys(4, 2), min_size=n, max_size=n),
    st.lists(mixed_polys(4, 2), min_size=n, max_size=n),
)))
def test_inner_poly_matches_dict_oracle(coords):
    # empty dictionaries give zero coordinates; n = 0 gives maps into R^0
    left, right = coords
    got = inner_poly(PolyMap(4, left), PolyMap(4, right))
    assert got.num_vars == 4
    assert as_dict(got) == dict_inner([as_dict(c) for c in left], [as_dict(c) for c in right])


def _copy(p: Poly) -> Poly:
    # equal but a distinct object, so inner_poly does not take its squares form for u is v
    return Poly(p.num_vars, p.terms)


def _check_squares(num_vars: int, coords: list[Poly]) -> None:
    """Values against the dict oracle; `==` and stored order against the full
    loop over distinct copies, since dict_inner drops zeros coordinate by
    coordinate and so cannot pin the order."""
    u = PolyMap(num_vars, coords)
    pairs = [(inner_poly(u, u), inner_poly(u, PolyMap(num_vars, [_copy(c) for c in coords])))]
    pairs += [(c * c, c * _copy(c)) for c in coords]
    assert as_dict(pairs[0][0]) == dict_inner([as_dict(c) for c in coords], [as_dict(c) for c in coords])
    for c, (square, _) in zip(coords, pairs[1:]):
        assert as_dict(square) == dict_mul(as_dict(c), as_dict(c))
    for square, full in pairs:
        assert square == full
        assert list(square.terms.items()) == list(full.terms.items())


@settings(max_examples=100, derandomize=True)
@given(st.integers(0, 5).flatmap(lambda n: st.lists(mixed_polys(3, 2), min_size=n, max_size=n)))
def test_self_products_take_the_squares_form(coords):
    # mixed denominators: each coordinate is scaled to the lcm once, not once per factor
    _check_squares(3, coords)


@pytest.mark.parametrize("coords", [
    # one coordinate over 1, one over 3 * 5, one over 7: the scales differ
    [Poly(2, {(1, 0): 1, (0, 1): 2}), Poly(2, {(1, 0): F(1, 3), (0, 1): F(2, 5)}), Poly(2, {(1, 1): F(5, 7)})],
    # (x1^2 - 2 x2^2 + 2 x1 x2)^2: the x1^2 x2^2 terms -4 and 4 cancel
    [Poly(2, {(2, 0): 1, (0, 2): -2, (1, 1): 2})],
    # x1 x2 cancels across the coordinates (x1 + x2, x1 - x2), after the first one stored it
    [Poly(2, {(1, 0): 1, (0, 1): 1}), Poly(2, {(1, 0): 1, (0, 1): -1})],
    # x1^2 x2^2 cancels in the first square and returns in the second: it keeps its first place
    [Poly(2, {(2, 0): 1, (0, 2): -2, (1, 1): 2}), Poly(2, {(1, 1): F(1, 2)})],
    # zero polynomials, alone and beside a nonzero coordinate
    [Poly.zero(2)],
    [Poly.zero(2), Poly(2, {(0, 1): F(-3, 4), (0, 0): F(1, 6)}), Poly.zero(2)],
    [],
])
def test_squares_form_on_denominators_cancellations_and_zeros(coords):
    _check_squares(2, coords)


def test_squares_form_cancels_and_keeps_the_cap():
    p = Poly(2, {(2, 0): 1, (0, 2): -2, (1, 1): 2})
    assert (2, 2) not in (p * p).terms and len((p * p).terms) == 4
    u = PolyMap(2, [Poly(2, {(1, 0): 1, (0, 1): 1}), Poly(2, {(1, 0): 1, (0, 1): -1})])
    assert inner_poly(u, u) == Poly(2, {(2, 0): 2, (0, 2): 2})
    assert (Poly.zero(3) * Poly.zero(3)).is_zero()
    # the first over-cap key in stored order names the degree, as in the full loop
    for terms, degree in (({(5, 0): 1}, 10), ({(4, 0): F(1, 3), (0, 5): 2}, 9)):
        p = Poly(2, terms)
        for q in (p, _copy(p)):
            with pytest.raises(ValueError) as err:
                p * q
            assert str(err.value) == f"total degree {degree} exceeds cap 8"


@settings(max_examples=60, derandomize=True)
@given(polys(2, 2), polys(2, 2))
def test_evaluation_is_a_homomorphism(a, b):
    pt = [F(1, 2), F(-3)]
    assert (a * b)(pt) == a(pt) * b(pt)
    assert (a - b)(pt) == a(pt) - b(pt)


def test_eval_float_tracks_exact_eval():
    p = Poly(2, {(2, 0): F(1, 3), (1, 1): -2, (0, 0): F(7, 5)})
    pt = [F(3, 7), F(-2, 9)]
    exact = p(pt)
    approx = p.eval_float([float(x) for x in pt])
    assert abs(approx - float(exact)) < 1e-14


# points mix floats (signed zeros among them), ints and Fractions over
# large primes; bounded so that no power overflows
_point_entries = st.one_of(
    st.floats(-1e3, 1e3),
    st.just(-0.0),
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.sampled_from([1, 3, 97, 65537, 2**61 - 1])),
)


@st.composite
def _poly_and_point(draw):
    m = draw(st.integers(1, 6))
    p = draw(mixed_polys(m, draw(st.integers(0, 4))))
    return p, draw(st.lists(_point_entries, min_size=m, max_size=m))


@settings(max_examples=300, deadline=None)
@given(_poly_and_point())
def test_compiled_float_evaluation_matches_the_reference_bit_for_bit(case):
    p, point = case
    want = eval_float_reference(p, point).hex()
    assert p.eval_float(point).hex() == want
    form = _FloatForm()
    rows = form.add(p)
    assert _eval_float_rows(rows, form.powers(np.array([[float(v) for v in point]])))[0].hex() == want
    if p.degree() <= 2:
        # a map compiles its coordinates into one form with one power table
        coords = [p, p + 1, -p]
        got = PolyMap(p.num_vars, coords).eval_float(point)
        assert [x.hex() for x in got] == [eval_float_reference(q, point).hex() for q in coords]


def test_float_terms_keep_term_order_and_nonzero_exponents():
    p = Poly(3, {(0, 2, 1): F(1, 3), (0, 0, 0): -2, (1, 0, 0): F(5, 2)})
    form = _FloatForm()

    def rows(poly):
        coeffs, slots = form.add(poly)
        return coeffs.tolist(), slots.tolist()

    # rows in term order, slots in variable order, padded with the trailing 1.0 slot
    assert rows(p) == ([1 / 3, -2.0, 2.5], [[0, 1], [-1, -1], [2, -1]])
    assert list(form.slots) == [(1, 2), (2, 1), (0, 1)]
    # a second Poly reuses the slots it shares; a wider term widens only its own rows
    q = Poly(3, {(1, 0, 0): 1, (1, 1, 1): 4})
    assert rows(q) == ([1.0, 4.0], [[2, -1, -1], [2, 3, 1]])
    assert list(form.slots) == [(1, 2), (2, 1), (0, 1), (1, 1)]
    # one column per point of the stack
    assert form.powers(np.array([[2.0, 3.0, 5.0], [-1.0, 0.5, 0.0]])).tolist() == [
        [9.0, 0.25], [5.0, 0.0], [2.0, -1.0], [3.0, 0.5], [1.0, 1.0]]
    assert rows(Poly.zero(3)) == ([], [])
    assert form.add(Poly.zero(3))[1].shape == (0, 2)
    assert Poly.zero(2).eval_float([-0.0, 1.0]).hex() == (0.0).hex()
    with pytest.raises(ValueError, match="point dimension mismatch"):
        p.eval_float([1.0, 2.0])


# stacks of points for the evaluator: signed zeros make terms of -0.0, and
# the coordinates are bounded so that no power overflows
_stack_entries = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1.0, -1.0]))


@st.composite
def _poly_and_stack(draw):
    """A Poly, possibly zero or constant, or holding a term of three or four
    distinct factors, whose narrower rows pad to its width with the 1.0 slot;
    and a stack of points, one per row."""
    kind = draw(st.sampled_from(["mixed", "zero", "constant", "wide"]))
    m = draw(st.integers(3 if kind == "wide" else 1, 5))
    if kind == "zero":
        p = Poly.zero(m)
    elif kind == "constant":
        p = Poly.constant(m, draw(mixed_coeffs))
    else:
        p = draw(mixed_polys(m, 4))
    if kind == "wide":
        width = draw(st.integers(3, min(m, 4)))
        p += Poly(m, {tuple(int(v < width) for v in range(m)): draw(mixed_coeffs.filter(bool))})
    points = draw(st.integers(1, 6))
    return p, draw(st.lists(st.lists(_stack_entries, min_size=m, max_size=m), min_size=points, max_size=points))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_poly_and_stack())
@example((-Poly.variable(2, 0) - Poly.variable(2, 0) * Poly.variable(2, 1), [[0.0, 1.0], [1.0, -0.0], [-0.0, 2.0]]))
def test_float_evaluation_on_a_stack_matches_the_reference_at_each_point(case):
    # the example's terms are all -0.0 at its first point, where the sum
    # from 0.0 is 0.0
    p, stack = case
    form = _FloatForm()
    got = _eval_float_rows(form.add(p), form.powers(np.array(stack)))
    assert got.shape == (len(stack),)
    assert [x.hex() for x in got.tolist()] == [eval_float_reference(p, point).hex() for point in stack]


def test_grlex_leading_term():
    # total degree first, then later variables dominate
    p = Poly(2, {(1, 1): 5, (2, 0): 1, (0, 2): 7})
    assert p.leading() == ((0, 2), F(7))
    with pytest.raises(ValueError):
        Poly.zero(2).leading()


def test_homogeneous_parts_partition():
    p = Poly(2, {(0, 0): 1, (1, 0): 2, (1, 1): 3, (0, 2): -1})
    parts = [p.homogeneous_part(d) for d in range(p.degree() + 1)]
    total = Poly.zero(2)
    for part in parts:
        total = total + part
    assert total == p
    assert p.homogeneous_part(2) == Poly(2, {(1, 1): 3, (0, 2): -1})


def test_homogenize_appends_trailing_variable():
    p = Poly(2, {(0, 0): 1, (1, 0): -2, (0, 2): 3})
    h = p.homogenize(2)
    assert h.num_vars == 3
    assert h.is_homogeneous(2)
    pt = [F(5, 3), F(-1, 2)]
    assert h(list(pt) + [F(1)]) == p(pt)
    # padding past the degree cap is refused, as for any other term
    with pytest.raises(ValueError, match=f"total degree {MAX_DEGREE + 1} exceeds cap"):
        p.homogenize(MAX_DEGREE + 1)
    assert Poly.zero(2).homogenize(MAX_DEGREE + 1) == Poly.zero(3)


# ---------------------------------------------------------------------------
# division


def test_divide_exact_multiply_back():
    rng = random.Random(11)
    for _ in range(50):
        g = Poly(2, {(rng.randint(0, 1), rng.randint(0, 1)): F(rng.randint(1, 4))
                     for _ in range(3)})
        h = Poly(2, {(rng.randint(0, 1), rng.randint(0, 1)): F(rng.randint(-3, 3))
                     for _ in range(3)})
        if g.is_zero():
            continue
        f = g * h
        got = divide_exact(f, g)
        assert got == h
        assert as_dict(f) == dict_mul(as_dict(g), as_dict(got))


def test_divide_exact_detects_nondivisible():
    g = Poly(2, {(2, 0): 1, (0, 2): 1})  # x1^2 + x2^2
    f = Poly(2, {(3, 0): 1})             # x1^3
    assert divide_exact(f, g) is None
    q, r = poly_divmod(f, g)
    assert f == q * g + r
    assert not r.is_zero()


def test_poly_divmod_invariant_randomized():
    rng = random.Random(23)
    for _ in range(60):
        f = Poly(3, {tuple(rng.randint(0, 1) for _ in range(3)): F(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(4)})
        g = Poly(3, {tuple(rng.randint(0, 1) for _ in range(3)): F(rng.randint(-3, 3))
                     for _ in range(2)})
        if g.is_zero():
            continue
        q, r = poly_divmod(f, g)
        assert f == q * g + r
        # no term of the remainder is reducible by the leading term of g
        ge, _ = g.leading()
        for e in r.terms:
            assert not all(a >= b for a, b in zip(e, ge))


def test_divide_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(Poly.variable(1, 0), Poly.zero(1))


def spread_polys(num_vars: int, max_deg: int, min_size: int = 0):
    """Up to five terms of degree at most max_deg in any of num_vars
    variables (a term is a multiset of variable indices), with integer and
    large-prime-denominator coefficients."""
    exps = st.lists(st.integers(0, num_vars - 1), max_size=max_deg).map(
        lambda idx: tuple(idx.count(i) for i in range(num_vars))
    )
    values = st.one_of(st.integers(-9, 9).filter(bool).map(F), mixed_coeffs)
    return st.dictionaries(exps, values, min_size=min_size, max_size=5).map(lambda d: Poly(num_vars, d))


# f = g*h exactly, g*h plus a perturbation, or unrelated to g
division_cases = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.sampled_from(["divisible", "perturbed", "unrelated"]),
    spread_polys(n, 3, min_size=1),
    spread_polys(n, 4),
    spread_polys(n, 4),
))


def _to_sympy(p: Poly, gens) -> sympy.Poly:
    # generators x_m, ..., x1, so each exponent tuple is read backwards
    return sympy.Poly.from_dict({e[::-1]: c for e, c in p.terms.items()} or {(0,) * p.num_vars: 0},
                                *gens, domain="QQ")


def _from_sympy(p) -> dict:
    return {e[::-1]: F(int(c.p), int(c.q)) for e, c in p.as_dict().items() if c}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(division_cases)
def test_poly_divmod_matches_sympy_reduced(case):
    kind, g, h, extra = case
    f = {"divisible": g * h, "perturbed": g * h + extra, "unrelated": extra}[kind]
    q, r = poly_divmod(f, g)
    # f = q*g + r by the independent dict expansion
    assert dict_add(dict_mul(as_dict(q), as_dict(g)), as_dict(r)) == as_dict(f)
    if kind == "divisible":
        assert (q, r) == (h, Poly.zero(f.num_vars))
    # sympy's grlex over the reversed generators is grlex with x1 < x2 < ...
    gens = sympy.symbols(f"x1:{f.num_vars + 1}")[::-1]
    quotients, remainder = sympy.reduced(_to_sympy(f, gens), [_to_sympy(g, gens)], order="grlex")
    assert as_dict(q) == (_from_sympy(quotients[0]) if quotients else {})
    assert as_dict(r) == _from_sympy(remainder)


def test_poly_divmod_scales_only_for_a_non_dividing_leading_coefficient():
    # over integer numerators g = (6*x2 + x1)/2: 6 divides the first working
    # leading coefficient (12) but not the next two, so the working
    # polynomial is rescaled twice; the results come out reduced either way
    g = Poly(2, {(0, 1): 3, (1, 0): F(1, 2)})
    f = Poly(2, {(0, 3): 6, (1, 2): 2, (2, 0): 7, (0, 0): F(5, 11)})
    q, r = poly_divmod(f, g)
    assert q == Poly(2, {(0, 2): 2, (1, 1): F(1, 3), (2, 0): F(-1, 18)})
    assert r == Poly(2, {(3, 0): F(1, 36), (2, 0): 7, (0, 0): F(5, 11)})
    # terms keep the order the division found them in, highest first
    assert list(q.terms) == [(0, 2), (1, 1), (2, 0)]
    assert list(r.terms) == [(3, 0), (2, 0), (0, 0)]


# ---------------------------------------------------------------------------
# kernel output: what the kernels build without validation is exactly what
# the validating constructor would build


def _assert_valid_kernel_output(p: Poly, num_vars: int) -> None:
    assert p.num_vars == num_vars
    assert p == Poly(num_vars, dict(p.terms))
    assert hash(p) == hash(Poly(num_vars, dict(p.terms)))
    assert all(type(c) is Fraction and c != 0 for c in p.terms.values())
    assert all(len(e) == num_vars and all(type(k) is int and k >= 0 for k in e) for e in p.terms)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    spread_polys(n, 4), spread_polys(n, 4), spread_polys(n, 2), spread_polys(n, 2),
    st.one_of(st.just(F(0)), mixed_coeffs), st.integers(0, 4),
)))
def test_kernel_output_is_valid(case):
    a, b, u, v = case[:4]
    c, d = case[4:]
    n = a.num_vars
    outputs = [
        a * b, u * v, inner_poly(PolyMap(n, [u, v]), PolyMap(n, [v, u])),
        a + b, a - b, a + (-a), a - a, -a, a * c, c * a, a + c, c - a,
        a.homogeneous_part(d), QuadForm.from_poly(u.homogeneous_part(2)).to_poly(),
    ]
    if not b.is_zero():
        outputs.extend(poly_divmod(a, b))
    for out in outputs:
        _assert_valid_kernel_output(out, n)
    homogenized = a.homogenize(4)
    _assert_valid_kernel_output(homogenized, n + 1)
    assert homogenized.is_homogeneous(4)


# ---------------------------------------------------------------------------
# quadratic forms


def test_quadform_roundtrip_and_call():
    p = Poly(3, {(2, 0, 0): 2, (1, 1, 0): -3, (0, 0, 2): F(1, 2)})
    q = QuadForm.from_poly(p)
    assert q.to_poly() == p
    pt = [F(1), F(-2), F(3)]
    assert q(pt) == p(pt)


@st.composite
def _symmetric_point(draw):
    """A symmetric rational matrix of dimension 0..5 and a rational point for it."""
    n = draw(st.integers(0, 5))
    upper = {(i, j): draw(coeffs) for i in range(n) for j in range(i, n)}
    matrix = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    return matrix, draw(st.lists(coeffs, min_size=n, max_size=n))


@settings(max_examples=100, derandomize=True)
@given(_symmetric_point())
def test_quadform_call_matches_the_matrix_rows(case):
    # the form evaluates through to_poly(); the reference sums x_i * (row_i . x)
    matrix, x = case
    q = QuadForm(matrix)
    assert q(x) == quadform_value_reference(matrix, x)
    assert q([str(v) for v in x]) == q(x)
    for wrong in (x + [F(1)], x[:-1]) if x else (x + [F(1)],):
        with pytest.raises(ValueError) as err:
            q(wrong)
        assert str(err.value) == "point dimension mismatch"
    # a float is refused before the dimension is checked
    for floaty in ([0.5] + x[1:], x + [0.5]) if x else ([0.5],):
        with pytest.raises(TypeError) as err:
            q(floaty)
        assert str(err.value) == "refusing to coerce a float into the exact layer"


def test_quadform_rejects_non_quadratic():
    with pytest.raises(ValueError):
        QuadForm.from_poly(Poly.variable(2, 0))


def test_quadform_restricted_matches_substitution():
    q = QuadForm.from_poly(Poly(3, {(2, 0, 0): 1, (1, 0, 1): 4, (0, 2, 0): -2}))
    basis = [[F(1), F(0), F(2)], [F(0), F(1), F(-1)]]
    r = q.restricted(basis)
    for s, t in [(F(1), F(0)), (F(2), F(-3)), (F(1, 2), F(5))]:
        point = [s * basis[0][i] + t * basis[1][i] for i in range(3)]
        assert r([s, t]) == q(point)


def _quadratic_oracle(s, linear, num_vars):
    """sum_ij s_ij l_i l_j by dict expansion, for linear dicts l_i in num_vars variables."""
    total: dict = {}
    for i, li in enumerate(linear):
        for j, lj in enumerate(linear):
            total = dict_add(total, dict_mul({(0,) * num_vars: s[i][j]}, dict_mul(li, lj)))
    return total


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=0, max_size=n + 1),
    st.integers(2, 60))))
def test_quadform_stores_one_form(drawn):
    half, basis, k = drawn
    n, r = len(half), len(basis)
    s = [[half[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    form = QuadForm(s)
    # the kernels agree with the dict oracle and build no Fraction view
    variables = [{tuple(int(j == i) for j in range(n)): F(1)} for i in range(n)]
    poly = form.to_poly()
    assert as_dict(poly) == _quadratic_oracle(s, variables, n)
    assert QuadForm.from_poly(poly) == form
    assert as_dict((-form).to_poly()) == {e: -c for e, c in as_dict(poly).items()}
    restricted = form.restricted(basis)
    # x_i = sum_j basis[j][i] y_j
    pulled_back = [{tuple(int(t == j) for t in range(r)): v[i] for j, v in enumerate(basis) if v[i]}
                   for i in range(n)]
    assert as_dict(restricted.to_poly()) == _quadratic_oracle(s, pulled_back, r)
    for built in (form, QuadForm.from_poly(poly), -form, restricted):
        assert "matrix" not in vars(built)
    # the same matrix written over other denominators stores the same form
    common = k * _linalg.common_denominator([x for row in s for x in row])
    for written in ([[f"{x.numerator * k}/{x.denominator * k}" for x in row] for row in s],
                    [[f"{x * common}/{common}" for x in row] for row in s]):
        other = QuadForm(written)
        assert other == form and hash(other) == hash(form)
    assert form.matrix == tuple(tuple(row) for row in s)
    assert all(type(x) is Fraction for row in form.matrix for x in row)
    # jets built from matrices keep their exceptions
    a = [[F(i == j) for j in range(n)] for i in range(n)]
    cases = [
        (a, [s] * (n - 1) + [[row[:-1] for row in s]], "matrix not square"),
        (a, [s] * (n - 1) + [[row + [F(0)] for row in s]], "matrix not square"),
    ]
    if n > 1:
        skew = [list(row) for row in s]
        skew[0][1] += 1
        cases += [
            ([*a[:-1], a[-1] + [F(1)]], [s] * n, "coordinate has wrong number of variables"),
            ([*a[:-1], a[-1][:-1]], [s] * n, "coordinate has wrong number of variables"),
            (a, [s] * (n - 1) + [skew], "matrix not symmetric"),
        ]
    for rows, forms, message in cases:
        with pytest.raises(ValueError) as err:
            jet_from_matrices(rows, forms)
        assert str(err.value) == message


def _stored(poly: Poly) -> tuple:
    return list(poly._ints.items()), poly._den


@st.composite
def _jet_matrices(draw):
    """An n x m matrix and n symmetric m x m matrices over mixed denominators,
    with zero rows and zero matrices among them."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [draw(st.one_of(st.just([F(0)] * m), st.lists(_entries, min_size=m, max_size=m))) for _ in range(n)]
    mats = []
    for _ in range(n):
        half = draw(st.one_of(st.just([[F(0)] * m] * m),
                              st.lists(st.lists(_entries, min_size=m, max_size=m), min_size=m, max_size=m)))
        mats.append([[half[min(i, j)][max(i, j)] for j in range(m)] for i in range(m)])
    return rows, mats


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_jet_matrices())
def test_jets_from_matrices_store_what_the_forms_store(drawn):
    # one clearing for A's rows and one for all of B's: each coordinate keeps
    # the items, their order and the denominator of Poly.linear(row) and of
    # QuadForm(mat).to_poly(), each of which is cleared on its own
    rows, mats = drawn
    jet = jet_from_matrices(rows, mats)
    assert [_stored(c) for c in jet.linear.coords] == [_stored(Poly.linear(row)) for row in rows]
    assert [_stored(c) for c in jet.quad.coords] == [_stored(QuadForm(mat).to_poly()) for mat in mats]
    assert jet == jet_by_forms_reference(rows, mats)
    # the order itself: A's terms by variable, B's by the upper triangle, row by row
    m = len(rows[0])
    unit = [tuple(int(t == i) for t in range(m)) for i in range(m)]
    assert [list(c.terms) for c in jet.linear.coords] == [[unit[i] for i in range(m) if row[i]] for row in rows]
    assert [list(c.terms) for c in jet.quad.coords] == [
        [tuple(a + b for a, b in zip(unit[i], unit[j])) for i in range(m) for j in range(i, m) if mat[i][j]]
        for mat in mats]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_jet_matrices(), st.integers(0, 7))
def test_jets_from_matrices_raise_what_the_forms_raise(drawn, fault):
    # each malformed input of test_quadform_stores_one_form, against the jet
    # built one row and one form at a time
    rows, mats = drawn
    m, last = len(rows[0]), len(mats) - 1
    mats = [[list(row) for row in mat] for mat in mats]
    if fault == 0:
        mats[last] = [row[:-1] for row in mats[last]]
    elif fault == 1:
        mats[last] = [row + [F(0)] for row in mats[last]]
    elif fault == 2:
        rows = [*rows[:-1], rows[-1] + [F(1)]]
    elif fault == 3:
        rows = [*rows[:-1], rows[-1][:-1]]
    elif fault == 4 and m > 1:
        mats[last][0][1] += 1
    elif fault == 5:
        mats = []
    elif fault == 6:
        # a square, symmetric matrix of another size
        mats[last] = [[F(int(i == j)) for j in range(m + 1)] for i in range(m + 1)]
    elif fault == 7:
        mats[last] = mats[last][:-1]
    results = []
    for build in (jet_from_matrices, jet_by_forms_reference):
        try:
            results.append(build(rows, mats))
        except ValueError as err:
            results.append(str(err))
    assert results[0] == results[1]
    # every fault raises, except a skew entry asked of a 1 x 1 matrix, which has none
    assert isinstance(results[0], str) == (fault != 4 or m > 1)


def test_jets_from_matrices_build_no_form(monkeypatch):
    def boom(*args):
        raise RuntimeError("a QuadForm was built")

    monkeypatch.setattr(polycore.QuadForm, "__init__", boom)
    monkeypatch.setattr(polycore.QuadForm, "from_poly", boom)
    jet = jet_from_matrices([[1, F(1, 2)], [0, 3]], [[[1, F(1, 3)], [F(1, 3), 0]], [[0, 0], [0, 0]]])
    assert jet.quad.coords[0] == Poly(2, {(2, 0): 1, (1, 1): F(2, 3)}) and jet.quad.coords[1].is_zero()
    assert all(c._terms is None for c in (*jet.linear.coords, *jet.quad.coords))


@st.composite
def _maps_with_own_supports(draw):
    """Two maps R^3 -> R^n whose coordinates each use their own monomials:
    coordinate i of either map draws its terms from a subset of the
    monomials of degree at most 2, so the columns differ in their zeros."""
    n = draw(st.integers(0, 5))
    monomials = [e for e in itertools.product(range(3), repeat=3) if sum(e) <= 2]
    maps = []
    for _ in range(2):
        coords = []
        for _ in range(n):
            support = draw(st.lists(st.sampled_from(monomials), max_size=5, unique=True))
            coords.append(Poly(3, {e: draw(_entries) for e in support}))
        maps.append(PolyMap(3, coords))
    return maps


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_maps_with_own_supports())
def test_inner_poly_sums_columns_over_coordinates(maps):
    u, v = maps
    cu, cv = [as_dict(c) for c in u.coords], [as_dict(c) for c in v.coords]
    for left, right, expected in ((u, v, dict_inner(cu, cv)), (v, u, dict_inner(cv, cu)),
                                  (u, u, dict_inner(cu, cu)), (v, v, dict_inner(cv, cv))):
        got = inner_poly(left, right)
        assert as_dict(got) == expected
        # the column form is kept: a second product reads it and agrees
        assert left._columns is not None and inner_poly(left, right) == got
    # a square takes the pairs s <= t, with the stored order of the full loop over an equal copy
    copy = PolyMap(3, [Poly(3, c.terms) for c in u.coords])
    assert list(inner_poly(u, u)._ints.items()) == list(inner_poly(u, copy)._ints.items())


def test_inner_poly_frozen_example_and_bilinearity():
    u = PolyMap.identity(2)
    v = PolyMap(2, [Poly(2, {(2, 0): 1, (0, 2): -1}), Poly(2, {(1, 1): 2})])
    # oracle expansion: x1(x1^2 - x2^2) + x2(2 x1 x2) = x1^3 + x1 x2^2
    got = inner_poly(u, v)
    assert as_dict(got) == dict_inner([as_dict(c) for c in u.coords],
                                      [as_dict(c) for c in v.coords])
    assert got == Poly(2, {(3, 0): 1, (1, 2): 1})
    w = PolyMap(2, [Poly.variable(2, 1), Poly.variable(2, 0)])
    assert inner_poly(u + w, v) == inner_poly(u, v) + inner_poly(w, v)


def test_polymap_degree_cap_and_linear_matrix():
    with pytest.raises(ValueError):
        PolyMap(1, [Poly(1, {(3,): 1})])
    a = PolyMap.from_linear_matrix([[1, 2], [3, 4], [0, 0]])
    assert a.is_linear()
    assert a.linear_matrix() == [[1, 2], [3, 4], [0, 0]]
    assert rank_linear(a) == 2


# ---------------------------------------------------------------------------
# fraction-free linear algebra


def test_exact_rank_against_numpy():
    rng = random.Random(5)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[F(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(cols)]
             for _ in range(rows)]
        expected = np.linalg.matrix_rank(np.array([[float(x) for x in r] for r in m]))
        assert _linalg.exact_rank(m) == expected


def test_exact_rank_known_cases():
    assert _linalg.exact_rank([[1, 2], [2, 4]]) == 1
    assert _linalg.exact_rank([[0, 0], [0, 0]]) == 0
    assert _linalg.exact_rank(_linalg.identity(4)) == 4


def test_nullspace_annihilates_and_rank_nullity():
    rng = random.Random(9)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = [[F(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)]
        basis = _linalg.nullspace(m, cols)
        assert len(basis) == cols - _linalg.exact_rank(m)
        for v in basis:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in m)


# fraction-free RREF, nullspace and the integer Gram restriction against
# sympy and dense Fraction products

_entries = st.one_of(st.just(F(0)), mixed_coeffs)


def _dense_product(rows, k, cols):
    return [[sum(a[t] * b[t] for t in range(k)) for b in cols] for a in rows]


@st.composite
def _rational_matrices(draw):
    """Tall matrices shaped like factor_degenerate's (n + n*m) x m constraints,
    wide and square ones, of any rank up to full (a product of random
    rows x k and k x cols factors), with some rows and columns zeroed."""
    shape = draw(st.sampled_from(["tall", "wide", "square"]))
    if shape == "tall":
        cols, n = draw(st.integers(1, 5)), draw(st.integers(1, 2))
        rows = n + n * cols
    elif shape == "wide":
        rows = draw(st.integers(1, 4))
        cols = draw(st.integers(rows + 1, 7))
    else:
        rows = cols = draw(st.integers(1, 5))
    k = draw(st.integers(0, min(rows, cols)))
    left = [[draw(_entries) for _ in range(k)] for _ in range(rows)]
    right = [[draw(_entries) for _ in range(k)] for _ in range(cols)]
    m = _dense_product(left, k, right)
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        m[i] = [F(0)] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
        for row in m:
            row[j] = F(0)
    return m


def _as_fraction(x):
    return Fraction(int(x.p), int(x.q))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_rational_matrices())
def test_rref_and_nullspace_match_sympy(m):
    cols = len(m[0])
    red, pivots = sympy.Matrix(m).rref()
    assert _linalg.rref(m) == ([[_as_fraction(red[i, j]) for j in range(cols)] for i in range(len(pivots))],
                               list(pivots))
    expected = [tuple(_as_fraction(x) for x in v) for v in sympy.Matrix(m).nullspace()]
    assert _linalg.nullspace(m, cols) == expected


def test_rref_pivots_of_either_sign_and_integer_input():
    assert _linalg.rref([[0, -3, 6], [-2, 1, 0], [4, 1, -6]]) == (
        [[1, 0, F(-1)], [0, 1, F(-2)]], [0, 1])
    assert _linalg.nullspace([[0, -3, 6], [-2, 1, 0], [4, 1, -6]], 3) == [(F(1), F(2), F(1))]
    assert _linalg.rref([[0, 0], [0, 0]]) == ([], [])
    assert _linalg.nullspace([[0, 0]], 2) == [(1, 0), (0, 1)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=0, max_size=n + 1))))
def test_restricted_matches_the_dense_gram_product(drawn):
    half, basis = drawn
    n = len(half)
    s = [[half[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    expected = matmul(matmul(basis, s), transpose(basis))
    assert QuadForm(s).restricted(basis).matrix == tuple(tuple(row) for row in expected)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.one_of(st.just(F(0)), mixed_coeffs), min_size=n, max_size=n))))
def test_ldl_matches_sympy_or_rejects(drawn):
    # S = L D L^T with D of any signs: positive definite exactly when every
    # D_k > 0, semidefinite with a zero D_k, indefinite with a negative one
    entries, diag = drawn
    n = len(diag)
    lower = [[F(int(i == j)) if j >= i else entries[i][j] for j in range(n)] for i in range(n)]
    s = [[sum(lower[i][k] * diag[k] * lower[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    if all(d > 0 for d in diag):
        assert _linalg.ldl(s) == (lower, diag) == _sympy_ldl(s)
    else:
        with pytest.raises(ValueError, match="not positive definite"):
            ldl_dense_reference(s)
        with pytest.raises(ValueError, match="not positive definite"):
            _linalg.ldl(s)


def test_ldl_takes_integers_as_they_are():
    assert _linalg.ldl([[4, 2], [2, 3]]) == _sympy_ldl([[4, 2], [2, 3]]) == (
        [[1, 0], [F(1, 2), 1]], [4, 2])
    with pytest.raises(ValueError, match="not positive definite"):
        _linalg.ldl([[1, 2], [2, 4]])


def test_congruent_diagonalize_identity():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        s = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        order, lower, diag = _linalg.congruent_diagonalize(s)
        _, expected = lagrange_reference(s)  # checks P^T S P = diag itself
        assert diag == expected
        if all(d >= 0 for d in diag):
            # no e_k <- e_k + e_j ran, so S permuted by order is L D L^T
            d = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
            assert matmul(matmul(lower, d), transpose(lower)) == [[s[i][j] for j in order] for i in order]


def _symmetric_dense(n):
    return st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n).map(
        lambda half: [[half[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])


@st.composite
def _symmetric(draw):
    """Symmetric n x n, n <= 8, over mixed and large-prime denominators:
    dense, with zero rows, with a zero diagonal (which forces the step
    e_k <- e_k + e_j), or indefinite blocks (hyperbolic planes, negative
    definite and dense blocks) on a permuted diagonal."""
    kind = draw(st.sampled_from(["dense", "zero rows", "zero diagonal", "blocks"]))
    if kind == "blocks":
        blocks = []
        kinds = draw(st.lists(st.sampled_from(["hyperbolic", "negative", "dense"]), min_size=1, max_size=4))
        for block in kinds:
            if block == "hyperbolic":
                c = draw(mixed_coeffs)
                blocks.append([[F(0), c], [c, F(0)]])
            elif block == "negative":
                blocks.append([[-x for x in row] for row in draw(_factored("dense"))])
            else:
                blocks.append(draw(_symmetric_dense(draw(st.integers(1, 3)))))
        total = sum(len(b) for b in blocks)
        full = [[F(0)] * total for _ in range(total)]
        at = 0
        for b in blocks:
            for i, row in enumerate(b):
                full[at + i][at:at + len(b)] = row
            at += len(b)
        perm = draw(st.permutations(range(min(total, 8))))
        return [[full[i][j] for j in perm] for i in perm]
    n = draw(st.integers(1, 8))
    s = draw(_symmetric_dense(n))
    if kind == "zero rows":
        for z in draw(st.sets(st.integers(0, n - 1), min_size=1)):
            for t in range(n):
                s[z][t] = s[t][z] = F(0)
    elif kind == "zero diagonal":
        for i in range(n):
            s[i][i] = F(0)
    return s


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_symmetric())
def test_congruent_diagonal_matches_lagrange(s):
    order, lower, diag = _linalg.congruent_diagonalize(s)
    assert diag == lagrange_reference(s)[1]
    assert sorted(order) == list(range(len(s)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_symmetric())
def test_form_signature_matches_lagrange(s):
    _, diag = lagrange_reference(s)
    plus, minus = sum(d > 0 for d in diag), sum(d < 0 for d in diag)
    assert form_signature(QuadForm(s)) == (plus, minus, len(s) - plus - minus)


def test_signature_hyperbolic_plane():
    # off-diagonal form needs the hyperbolic fallback step
    assert form_signature(QuadForm([[F(0), F(1)], [F(1), F(0)]])) == (1, 1, 0)
    assert form_signature(QuadForm([[F(2)]])) == (1, 0, 0)
    assert form_signature(QuadForm([[F(0)]])) == (0, 0, 1)


def test_signature_invariant_under_congruence():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        s = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        # random unimodular change of basis from elementary operations
        p = _linalg.identity(n)
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = F(rng.randint(-2, 2))
                for k in range(n):
                    p[k][j] += c * p[k][i]
        s2 = matmul(matmul(transpose(p), s), p)
        assert form_signature(QuadForm(s2)) == form_signature(QuadForm(s))


def test_form_signature_wrapper():
    q = QuadForm.from_poly(Poly(3, {(2, 0, 0): 1, (0, 2, 0): -1}))
    assert form_signature(q) == (1, 1, 1)


def test_ldl_reconstructs_positive_definite():
    s = [[F(4), F(2), F(0)], [F(2), F(3), F(1)], [F(0), F(1), F(5)]]
    lower, diag = _linalg.ldl(s)
    n = 3
    d = [[diag[i] if i == j else F(0) for j in range(n)] for i in range(n)]
    back = matmul(matmul(lower, d), transpose(lower))
    assert back == [[F(x) for x in row] for row in s]
    assert all(v > 0 for v in diag)


def test_ldl_rejects_indefinite():
    with pytest.raises(ValueError):
        _linalg.ldl([[F(1), F(2)], [F(2), F(1)]])


# ---------------------------------------------------------------------------
# sparse LDL^T against sympy and the dense loop


def _sympy_ldl(s):
    lower, diag = sympy.Matrix(s).LDLdecomposition(hermitian=False)
    n = len(s)
    as_fraction = lambda x: Fraction(int(x.p), int(x.q))  # noqa: E731
    return ([[as_fraction(lower[i, j]) for j in range(n)] for i in range(n)],
            [as_fraction(diag[i, i]) for i in range(n)])


def _lower_unit(draw, n, density):
    rows = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            if draw(st.floats(0, 1)) < density:
                rows[i][j] = draw(mixed_coeffs)
    return rows


@st.composite
def _factored(draw, kind):
    n = draw(st.integers(1, 6))
    lower = _lower_unit(draw, n, 1.0 if kind == "dense" else 0.3)
    diag = [abs(draw(mixed_coeffs)) for _ in range(n)]
    return [[sum(lower[i][k] * diag[k] * lower[j][k] for k in range(n)) for j in range(n)] for i in range(n)]


@st.composite
def _positive_definite(draw):
    """L D L^T for a random unit lower L and positive D: dense, or with
    zero entries below the diagonal, or a block diagonal of those."""
    kind = draw(st.sampled_from(["dense", "sparse", "blocks"]))
    if kind == "blocks":
        kinds = draw(st.lists(st.sampled_from(["dense", "sparse"]), min_size=1, max_size=3))
        blocks = [draw(_factored(k)) for k in kinds]
        n = sum(len(b) for b in blocks)
        out = [[F(0)] * n for _ in range(n)]
        at = 0
        for b in blocks:
            for i, row in enumerate(b):
                out[at + i][at:at + len(b)] = row
            at += len(b)
        return out
    return draw(_factored(kind))


@settings(max_examples=150, deadline=None)
@given(_positive_definite())
def test_sparse_ldl_matches_sympy_and_the_dense_loop(s):
    got = _linalg.ldl(s)
    assert got == ldl_dense_reference(s)
    assert got == _sympy_ldl(s)


@settings(max_examples=100, deadline=None)
@given(_positive_definite(), st.booleans())
def test_sparse_ldl_rejects_what_the_dense_loop_rejects(s, singular):
    n = len(s)
    if singular:
        # drop the last pivot: L diag(D_1..D_n-1, 0) L^T is semidefinite
        lower, diag = ldl_dense_reference(s)
        diag[-1] = F(0)
        bad = [[sum(lower[i][k] * diag[k] * lower[j][k] for k in range(n)) for j in range(n)]
               for i in range(n)]
    else:
        # e_n^T S e_n = -1, so S is indefinite
        bad = [row[:] for row in s]
        bad[-1][-1] = F(-1)
    with pytest.raises(ValueError, match="not positive definite"):
        ldl_dense_reference(bad)
    with pytest.raises(ValueError, match="not positive definite"):
        _linalg.ldl(bad)


def test_sparse_ldl_on_every_hopf_gram_up_to_16():
    sizes = [(r, n) for n in range(1, 17) for r in range(1, cliff.rho(n) + 1)]
    assert len(sizes) == 41
    for r, n in sizes:
        gram = [list(row) for row in cliff.hopf_map(cliff.normed_pairing(r, n)).gram.matrix]
        got = _linalg.ldl(gram)
        assert got == ldl_dense_reference(gram) == _sympy_ldl(gram)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(_symmetric(), _positive_definite()))
def test_linalg_on_a_forms_integer_rows(s):
    # the integer rows are den times the form: rank and L are the same, D is
    # den times the Fraction matrix's D, and so has the same signs
    form = QuadForm(s)
    rows, den = form._int_rows()
    assert _linalg.exact_rank(rows) == _linalg.exact_rank(form.matrix)
    order, lower, diag = _linalg.congruent_diagonalize(rows)
    expected = _linalg.congruent_diagonalize(form.matrix)
    assert (order, lower, [d / den for d in diag]) == expected
    assert [d > 0 for d in diag] == [d > 0 for d in expected[2]]
    assert [d < 0 for d in diag] == [d < 0 for d in expected[2]]
    try:
        expected = _linalg.ldl(form.matrix)
    except ValueError:
        with pytest.raises(ValueError, match="not positive definite"):
            _linalg.ldl(rows)
    else:
        lower, diag = _linalg.ldl(rows)
        assert (lower, [d / den for d in diag]) == expected


# ---------------------------------------------------------------------------
# error paths of the exact layer: each names its exception and message


@pytest.mark.parametrize("call, exc, message", [
    (lambda: Poly(-1), ValueError, "num_vars must be nonnegative"),
    (lambda: Poly(2, {(1,): 1}), ValueError, "bad exponent tuple (1,) for 2 variables"),
    (lambda: Poly(1, {(-1,): 1}), ValueError, "bad exponent tuple (-1,) for 1 variables"),
    (lambda: Poly.variable(2, 2), ValueError, "variable index out of range"),
    (lambda: Poly(2, {(1, 0): 1})([1]), ValueError, "point dimension mismatch"),
    (lambda: Poly(1, {(2,): 1}).homogenize(1), ValueError, "target degree below actual degree"),
    (lambda: setattr(Poly(1), "num_vars", 2), AttributeError, "Poly is immutable"),
    (lambda: QuadForm(((F(1), F(0)),)), ValueError, "matrix not square"),
    (lambda: identity_form(2)([1]), ValueError, "point dimension mismatch"),
    (lambda: identity_form(2).restricted([[1, 0, 0]]), ValueError, "inner dimensions differ"),
    (lambda: PolyMap(2, [Poly(1)]), ValueError, "coordinate has wrong number of variables"),
    (lambda: setattr(PolyMap.identity(1), "coords", ()), AttributeError, "PolyMap is immutable"),
    (lambda: PolyMap.from_symmetric_matrices([]), ValueError, "need at least one form"),
    (lambda: PolyMap(1, [Poly(1, {(2,): 1})]).linear_matrix(), ValueError, "map is not homogeneous linear"),
    (lambda: PolyMap.identity(2) + PolyMap.identity(3), ValueError, "maps have different shapes"),
    (lambda: PolyMap.identity(2) - PolyMap.zero(2, 1), ValueError, "maps have different shapes"),
])
def test_exact_layer_rejects_malformed_input(call, exc, message):
    with pytest.raises(exc) as err:
        call()
    assert type(err.value) is exc
    assert str(err.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: Poly(1, {(2.7,): 1}), "exponents must be ints, got (2.7,)"),
    (lambda: Poly(2, {(True, 1): 3}), "exponents must be ints, got (True, 1)"),
    (lambda: Poly(1, {(F(1),): 1}), "exponents must be ints, got (Fraction(1, 1),)"),
    (lambda: Poly(1, {(1,): 1}).homogenize(2.5), "degree must be an int, got 2.5"),
    (lambda: Poly(1, {(1,): 1}).homogenize(True), "degree must be an int, got True"),
])
def test_exponents_and_homogenize_degrees_must_be_ints(call, message):
    # int() would read 2.7 as 2 and True as 1, and homogenize(2.5) would
    # build a trusted Poly with the exponent 1.5
    with pytest.raises(TypeError) as err:
        call()
    assert str(err.value) == message
