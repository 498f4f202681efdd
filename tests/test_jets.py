"""2-jet validation, canonical representatives, degeneracy, reparametrization
equivalence, and power-series truncation checks.

The complex-square and quaternion examples carry frozen expected values; the
independent oracles are the dict expansion and the hand-coded quaternion
table from conftest."""

import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import rounding_forge
from rounding_forge import jets

from conftest import (
    as_dict,
    complex_square_jet,
    dict_inner,
    dict_mul,
    flat_degenerate_jet,
    lagrange_reference,
    matmul,
    mixed_coeffs,
    quat_inv,
    quat_mul,
    quaternion_jet,
    random_valid_jet,
    transpose,
)
from rounding_forge.jets import (
    FracQuadMap,
    Jet2,
    NotDegenerate,
    NotDivisible,
    RankTooLow,
    RoundingJet,
    canonical_rounding,
    check_series_divisibility,
    factor_degenerate,
    fracquad_jet,
    is_degenerate,
    jet_from_matrices,
    jets_equivalent,
    parallel_factor,
    transform_jet,
    validate_jet,
)
from rounding_forge.polycore import CertificateError, Poly, PolyMap, rank_linear

F = Fraction


# ---------------------------------------------------------------------------
# validation and the two named examples


def test_complex_square_witnesses():
    rj = validate_jet(complex_square_jet())
    assert rj.rank == 2
    assert rj.p == Poly(2, {(1, 0): 1})
    assert rj.q == Poly(2, {(2, 0): 1, (0, 2): 1})


def test_complex_square_canonical_map():
    fq = canonical_rounding(validate_jet(complex_square_jet()))
    assert fq.numer == PolyMap(2, [
        Poly(2, {(1, 0): 1, (2, 0): -1, (0, 2): -1}),
        Poly(2, {(0, 1): 1}),
    ])
    assert fq.denom == Poly(2, {(0, 0): 1, (1, 0): -2, (2, 0): 1, (0, 2): 1})
    assert fq((F(1, 2), F(0))) == (F(1), F(0))


def test_complex_square_closed_form():
    # the canonical germ is z / (1 - z), exactly, at rational points
    fq = canonical_rounding(validate_jet(complex_square_jet()))
    rng = random.Random(3)
    for _ in range(50):
        a, b = F(rng.randint(-4, 4), 5), F(rng.randint(-4, 4), 5)
        # (a + bi) / (1 - a - bi), cleared by the conjugate
        den = (1 - a) ** 2 + b * b
        if den == 0:
            continue
        expected = ((a * (1 - a) - b * b) / den, b / den)
        assert fq((a, b)) == expected


def test_quaternion_witnesses():
    rj = validate_jet(quaternion_jet())
    assert rj.rank == 4
    assert rj.p.is_zero()
    assert rj.q == Poly(7, {tuple(2 * (i == j) for j in range(7)): 1 for i in range(3)})


def test_quaternion_closed_form():
    # canonical germ equals (1 + x)^{-1} y under quaternion arithmetic
    fq = canonical_rounding(validate_jet(quaternion_jet()))
    rng = random.Random(5)
    for _ in range(50):
        pt = [F(rng.randint(-3, 3), rng.choice([1, 2, 4])) for _ in range(7)]
        one_plus_x = (F(1), pt[0], pt[1], pt[2])
        y = tuple(pt[3:])
        assert fq(pt) == quat_mul(quat_inv(one_plus_x), y)


def test_validate_rejects_low_rank():
    lin = PolyMap.from_linear_matrix([[1, 0], [1, 0]])
    jet = Jet2(lin, PolyMap.zero(2, 2))
    with pytest.raises(RankTooLow) as exc:
        validate_jet(jet)
    assert exc.value.rank == 1


def test_validate_rejects_mixed_term():
    # <A,B> = x1 * x2^2 has a nonzero remainder modulo x1^2 + x2^2
    jet = Jet2(PolyMap.identity(2), PolyMap(2, [Poly(2, {(0, 2): 1}), Poly.zero(2)]))
    with pytest.raises(NotDivisible) as exc:
        validate_jet(jet)
    assert exc.value.which == "<A,B>"
    assert not exc.value.remainder.is_zero()


def test_validate_rejects_norm_term():
    # B = x3 * (x2, -x1, 0): <A,B> = 0 but <B,B> = x3^2 (x1^2 + x2^2)
    jet = Jet2(PolyMap.identity(3), PolyMap(3, [
        Poly(3, {(0, 1, 1): 1}),
        Poly(3, {(1, 0, 1): -1}),
        Poly.zero(3),
    ]))
    with pytest.raises(NotDivisible) as exc:
        validate_jet(jet)
    assert exc.value.which == "<B,B>"


def test_jet_from_matrices_symmetry_required():
    with pytest.raises(ValueError):
        jet_from_matrices([[1, 0], [0, 1]], [[[0, 1], [0, 0]], [[0, 0], [0, 0]]])


@pytest.mark.parametrize("linear, quad, message", [
    (PolyMap.identity(2), PolyMap.zero(3, 2), "linear and quadratic parts have different sources"),
    (PolyMap.identity(2), PolyMap.zero(2, 3), "linear and quadratic parts have different targets"),
    (PolyMap(2, [Poly(2, {(1, 0): 1}), Poly(2, {(0, 0): 1})]), PolyMap.zero(2, 2),
     "linear part is not homogeneous of degree 1"),
    (PolyMap(2, [Poly(2, {(1, 0): 1}), Poly(2, {(2, 0): 1})]), PolyMap.zero(2, 2),
     "linear part is not homogeneous of degree 1"),
    (PolyMap.identity(2), PolyMap(2, [Poly(2, {(1, 1): 1}), Poly(2, {(0, 1): 1})]),
     "quadratic part is not homogeneous of degree 2"),
])
def test_jet_rejects_mismatched_or_inhomogeneous_parts(linear, quad, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Jet2(linear, quad)


def test_jet_from_matrices_refuses_floats():
    identity = [[1, 0], [0, 1]]
    zero = [[0, 0], [0, 0]]
    with pytest.raises(TypeError):
        jet_from_matrices([[1.0, 0], [0, 1]], [zero, zero])
    with pytest.raises(TypeError):
        jet_from_matrices(identity, [zero, [[0, 0.5], [0.5, 0]]])
    jet = jet_from_matrices(identity, [zero, [[0, "1/2"], [F(1, 2), 0]]])
    assert jet.quad.coords[1] == Poly(2, {(1, 1): 1})


def test_random_jets_validate_with_oracle():
    rng = random.Random(41)
    for _ in range(30):
        jet = random_valid_jet(rng)
        rj = validate_jet(jet)
        a = [as_dict(c) for c in jet.linear.coords]
        b = [as_dict(c) for c in jet.quad.coords]
        norm_a = dict_inner(a, a)
        assert dict_inner(a, b) == dict_mul(as_dict(rj.p), norm_a)
        assert dict_inner(b, b) == dict_mul(as_dict(rj.q), norm_a)


# ---------------------------------------------------------------------------
# canonical representative


def test_canonical_norm_identity_randomized():
    rng = random.Random(43)
    for _ in range(20):
        jet = random_valid_jet(rng)
        fq = canonical_rounding(validate_jet(jet))
        f = [as_dict(c) for c in fq.numer.coords]
        a = [as_dict(c) for c in jet.linear.coords]
        assert dict_inner(f, f) == dict_mul(as_dict(fq.denom), dict_inner(a, a))
        assert fq.denom.constant_term() == 1
        assert fq.is_germ


def _cancelling_transform(jet):
    """transform_jet(jet, 1, t * x1), with t chosen so that the first x1 * x_j
    term of B_0 - 2p A_0 that can cancel does, or None: B' = B + t x1 A and
    p' = p + t x1, so that coefficient becomes Q[x1 x_j] - t a_j."""
    rj = validate_jet(jet)
    a0 = jet.linear.coords[0]
    quad = (jet.quad.coords[0] - 2 * rj.p * a0).terms
    m = jet.source_dim
    for j in range(m):
        key = tuple(int(i == 0) + int(i == j) for i in range(m))
        a_j = a0.terms.get(tuple(int(i == j) for i in range(m)), 0)
        if quad.get(key) and a_j:
            return transform_jet(jet, 1, Poly.variable(m, 0) * (quad[key] / a_j))
    return None


def test_canonical_numerators_keep_the_chain_of_sums():
    # one kernel pass per N_i gives the values and the stored term order of
    # A_i + B_i - 2p A_i; the float oracle sums terms in that order
    rng = random.Random(47)
    cancelled = 0
    for _ in range(40):
        jet = random_valid_jet(rng, m=rng.randint(2, 6), n=rng.choice([2, 4, 8]))
        for case in (jet, _cancelling_transform(jet)):
            if case is None:
                continue
            rj = validate_jet(case)
            for ai, bi, ni in zip(case.linear.coords, case.quad.coords, canonical_rounding(rj).numer.coords):
                two_pa = 2 * rj.p * ai
                old = ai + bi - two_pa
                assert ni == old
                assert list(ni.terms.items()) == list(old.terms.items())
                cancelled += any(e in bi.terms and e in two_pa.terms and e not in old.terms for e in bi.terms)
    assert cancelled >= 20


def test_two_jet_roundtrip():
    rng = random.Random(47)
    for _ in range(20):
        jet = random_valid_jet(rng)
        fq = canonical_rounding(validate_jet(jet))
        assert fracquad_jet(fq) == jet


def test_two_jet_extraction_rescales_denominator():
    # scaling numerator and denominator together leaves the 2-jet alone
    fq = canonical_rounding(validate_jet(complex_square_jet()))
    scaled = FracQuadMap(numer=fq.numer.scaled(3), denom=3 * fq.denom)
    assert fracquad_jet(scaled) == complex_square_jet()


def test_fracquad_jet_rejects_non_germ():
    numer = PolyMap.identity(2)
    with pytest.raises(ValueError):
        fracquad_jet(FracQuadMap(numer=numer, denom=Poly(2, {(1, 0): 1})))
    bad_origin = PolyMap(2, [Poly.constant(2, 1), Poly.variable(2, 1)])
    with pytest.raises(ValueError):
        fracquad_jet(FracQuadMap(numer=bad_origin, denom=Poly.constant(2, 1)))


def test_fracquad_map_caps_the_denominator_at_degree_two():
    # the line restriction's closed forms cover terms of degree 2 at most
    numer = PolyMap.identity(2)
    with pytest.raises(ValueError, match="denominator degree exceeds 2"):
        FracQuadMap(numer=numer, denom=Poly(2, {(0, 0): 1, (2, 1): 1}))
    assert FracQuadMap(numer=numer, denom=Poly(2, {(0, 0): 1, (1, 1): 1})).denom.degree() == 2


# ---------------------------------------------------------------------------
# degeneracy


def test_complex_square_nondegenerate():
    assert is_degenerate(validate_jet(complex_square_jet())) == (False, None)


def test_quaternion_nondegenerate():
    # kernel of A is the x-space; q - p^2 restricts to the identity there
    degenerate, witness = is_degenerate(validate_jet(quaternion_jet()))
    assert not degenerate and witness is None


def test_flat_jet_degenerate_with_rational_witness():
    rj = validate_jet(flat_degenerate_jet())
    degenerate, witness = is_degenerate(rj)
    assert degenerate
    assert witness == (F(0), F(0), F(1))
    assert rj.jet.linear(witness) == (F(0), F(0))
    assert (rj.q - rj.p * rj.p)(witness) == 0


def test_degenerate_witness_randomized():
    rng = random.Random(53)
    seen = 0
    for _ in range(60):
        rj = validate_jet(random_valid_jet(rng))
        degenerate, witness = is_degenerate(rj)
        if not degenerate:
            assert witness is None
            continue
        seen += 1
        assert any(x != 0 for x in witness)
        assert all(isinstance(x, Fraction) for x in witness)
        assert all(v == 0 for v in rj.jet.linear(witness))
        assert (rj.q - rj.p * rj.p)(witness) == 0
    assert seen >= 5


def test_division_witnesses_are_not_constructor_arguments():
    jet = flat_degenerate_jet()
    with pytest.raises(TypeError):
        RoundingJet(jet=jet, p=Poly.zero(3), q=Poly.zero(3), rank=2)
    rj = RoundingJet(jet)
    assert rj == validate_jet(jet)
    assert (rj.p, rj.q, rj.rank) == (Poly.zero(3), Poly.zero(3), 2)


def test_indefinite_deficiency_fails_the_semidefinite_certificate(monkeypatch):
    rj = validate_jet(flat_degenerate_jet())
    monkeypatch.setattr(jets._linalg, "congruent_diagonalize", lambda s: ([0], [[F(1)]], [F(-1)]))
    with pytest.raises(CertificateError, match=r"q - p\^2 is not positive semidefinite on ker A"):
        is_degenerate(rj)


def test_degeneracy_witnesses_are_rational():
    rng = random.Random(59)
    seen = 0
    for _ in range(60):
        rj = validate_jet(random_valid_jet(rng))
        degenerate, witness = is_degenerate(rj)
        if not degenerate:
            continue
        seen += 1
        assert all(isinstance(x, Fraction) for x in witness)
        assert any(x != 0 for x in witness)
        assert all(v == 0 for v in rj.jet.linear(witness))
        assert (rj.q - rj.p * rj.p)(witness) == 0
    assert seen >= 5


# ---------------------------------------------------------------------------
# normalization and factorization


def _p_normalized(rj):
    """The equivalent jet (A, B - pA), validated from scratch."""
    return RoundingJet(transform_jet(rj.jet, 1, -rj.p))


def test_normalize_p_frozen_example():
    # (A, B - pA) has p = 0 and q - p^2: factor_degenerate relies on this
    # algebra instead of validating B - pA again
    rj = validate_jet(complex_square_jet())
    norm = _p_normalized(rj)
    assert norm.p.is_zero()
    assert norm.q == rj.q - rj.p * rj.p == Poly(2, {(0, 2): 1})
    assert norm.jet.quad == PolyMap(2, [Poly(2, {(0, 2): -1}), Poly(2, {(1, 1): 1})])


def test_normalize_p_randomized():
    rng = random.Random(59)
    for _ in range(20):
        rj = validate_jet(random_valid_jet(rng))
        norm = _p_normalized(rj)
        assert norm.p.is_zero()
        assert norm.q == rj.q - rj.p * rj.p
        assert jets_equivalent(rj.jet, norm.jet) == (F(1), -rj.p)


def test_factor_flat_jet():
    proj, reduced = factor_degenerate(validate_jet(flat_degenerate_jet()))
    assert proj == ((F(1), F(0), F(0)), (F(0), F(1), F(0)))
    assert reduced.jet.linear == PolyMap.identity(2)
    assert reduced.jet.quad == PolyMap.zero(2, 2)
    assert not is_degenerate(reduced)[0]


def test_factor_nondegenerate_raises():
    with pytest.raises(NotDegenerate):
        factor_degenerate(validate_jet(complex_square_jet()))


def test_factor_recovers_normalized_jet_randomized():
    rng = random.Random(61)
    factored = 0
    for _ in range(60):
        rj = validate_jet(random_valid_jet(rng))
        if not is_degenerate(rj)[0]:
            continue
        proj, reduced = factor_degenerate(rj)
        factored += 1
        # dense products: A_red pi = A and pi^T (B_red)_i pi = (B - pA)_i
        norm = _p_normalized(rj)
        pi = [list(row) for row in proj]
        assert matmul(reduced.jet.linear.linear_matrix(), pi) == norm.jet.linear.linear_matrix()
        reduced_forms = reduced.jet.quad.quadratic_forms()
        for red, form in zip(reduced_forms, norm.jet.quad.quadratic_forms(), strict=True):
            assert matmul(matmul(transpose(pi), red.matrix), pi) == [list(row) for row in form.matrix]
        assert not is_degenerate(reduced)[0]
        # the projection has full row rank and strictly fewer rows than m
        from rounding_forge._linalg import exact_rank
        assert exact_rank([list(r) for r in proj]) == len(proj) <= rj.source_dim
    assert factored >= 5


def _pullback_by_matmul(rj):
    """factor_degenerate's reduced (A, B - pA), restricted along the 0/1
    section of the pivot columns with dense matrix products."""
    from rounding_forge._linalg import rref

    norm = _p_normalized(rj)
    a, b = norm.jet.linear, norm.jet.quad
    constraints = [list(row) for row in a.linear_matrix()]
    for form in b.quadratic_forms():
        constraints.extend(list(row) for row in form.matrix)
    _, pivots = rref(constraints)
    section = [[F(int(p == i)) for p in pivots] for i in range(rj.source_dim)]
    jet = jet_from_matrices(matmul(a.linear_matrix(), section),
                            [f.restricted(transpose(section)).matrix for f in b.quadratic_forms()])
    return jet.linear, jet.quad


def test_factor_selects_the_pivot_coordinates():
    rng = random.Random(71)
    jets_seen = [random_valid_jet(rng) for _ in range(40)]
    # a wide source: ker A has dimension at least 12, so the jet is degenerate
    jets_seen.append(random_valid_jet(rng, m=16, n=4, scramble=False))
    factored = []
    for jet in jets_seen:
        rj = validate_jet(jet)
        if not is_degenerate(rj)[0]:
            continue
        _, reduced = factor_degenerate(rj)
        factored.append(rj.source_dim)
        assert (reduced.jet.linear, reduced.jet.quad) == _pullback_by_matmul(rj)
    assert len(factored) >= 5 and factored[-1] == 16


def _rref_with_a_bumped_entry(row, col):
    """_linalg.rref with one projection entry raised by 1 and the true pivots."""
    true_rref = jets._linalg.rref

    def rref(rows):
        proj, pivots = true_rref(rows)
        proj[row][col] += 1
        return proj, pivots

    return rref


def test_projection_that_misses_a_fails_its_certificate(monkeypatch):
    # flat jet: pi = [[1, 0, 0], [0, 1, 0]], pivots [0, 1]; a 1 in column 2
    # makes A_red pi pick up a nonzero third column that A does not have
    rj = validate_jet(flat_degenerate_jet())
    monkeypatch.setattr(jets._linalg, "rref", _rref_with_a_bumped_entry(0, 2))
    with pytest.raises(CertificateError, match="projection does not recover A$"):
        factor_degenerate(rj)


def _twisted_jet():
    """A = (x1, x2), B = x3 * J(x1, x2) = (-x2 x3, x1 x3) on R^4, p = 0,
    q = x3^2: degenerate along x4, and the constraint rows span x1, x2, x3,
    one more than rank A."""
    half = F(1, 2)
    b0 = [[0, 0, 0, 0], [0, 0, -half, 0], [0, -half, 0, 0], [0, 0, 0, 0]]
    b1 = [[0, 0, half, 0], [0, 0, 0, 0], [half, 0, 0, 0], [0, 0, 0, 0]]
    return jet_from_matrices([[1, 0, 0, 0], [0, 1, 0, 0]], [b0, b1])


def test_projection_that_misses_b_minus_pa_fails_its_certificate(monkeypatch):
    rj = validate_jet(_twisted_jet())
    proj, reduced = factor_degenerate(rj)
    assert proj == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    assert reduced.rank == 2 < reduced.source_dim == 3
    # e3 is in the kernel of A_red, so raising pi[2][3] keeps A_red pi = A,
    # but B_red pulls back along x3 + x4 instead of x3
    monkeypatch.setattr(jets._linalg, "rref", _rref_with_a_bumped_entry(2, 3))
    with pytest.raises(CertificateError, match="projection does not recover B - pA$"):
        factor_degenerate(rj)


def test_factor_without_a_common_kernel_fails_its_certificate(monkeypatch):
    # a nondegenerate jet passed off as degenerate leaves the constraint
    # matrix at full rank; a degenerate one never does
    rj = validate_jet(complex_square_jet())
    monkeypatch.setattr(jets, "is_degenerate", lambda rj: (True, None))
    with pytest.raises(CertificateError, match="only in 0"):
        factor_degenerate(rj)


# ---------------------------------------------------------------------------
# parallel factors and equivalence


def test_parallel_factor_recovers_multiplier():
    rng = random.Random(67)
    for _ in range(30):
        jet = random_valid_jet(rng, scramble=False)
        ell = Poly.linear([F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(jet.source_dim)])
        assert parallel_factor(jet.linear, jet.linear.times_poly(ell)) == ell


def test_parallel_factor_rejects_non_multiple():
    a = PolyMap.identity(2)
    c = PolyMap(2, [Poly(2, {(0, 2): 1}), Poly.zero(2)])
    assert parallel_factor(a, c) is None


def test_parallel_factor_requires_rank_two():
    a = PolyMap.from_linear_matrix([[1, 0], [2, 0]])
    with pytest.raises(RankTooLow):
        parallel_factor(a, PolyMap.zero(2, 2))


_fractions = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3]))


@st.composite
def parallel_cases(draw):
    """(A, C): A of rank >= 2 whose rows may be zero or start with zeros, and
    C = l*A, l*A plus one stray quadratic term, or 0."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(2, 4))
    rows = []
    for _ in range(n):
        lead = draw(st.integers(0, m))  # lead == m is a zero coordinate
        rows.append([F(0)] * lead + [draw(_fractions) for _ in range(m - lead)])
    a = PolyMap.from_linear_matrix(rows)
    assume(rank_linear(a) >= 2)
    kind = draw(st.sampled_from(["multiple", "perturbed", "zero"]))
    if kind == "zero":
        return a, PolyMap.zero(m, n)
    c = a.times_poly(Poly.linear([draw(_fractions) for _ in range(m)]))
    if kind == "perturbed":
        i, j = sorted(draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2)))
        e = tuple(int(v == i) + int(v == j) for v in range(m))
        r = draw(st.integers(0, n - 1))
        stray = Poly(m, {e: draw(_fractions.filter(bool))})
        c = PolyMap(m, [x + stray if k == r else x for k, x in enumerate(c.coords)])
    return a, c


def _sympy_expr(p: Poly, xs):
    return sum(sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[x**k for x, k in zip(xs, e)])
               for e, c in p.terms.items())


@settings(max_examples=200, derandomize=True, suppress_health_check=[HealthCheck.filter_too_much])
@given(parallel_cases())
def test_parallel_factor_matches_sympy(case):
    # sympy solves the whole coefficient system of C = l*A for l
    a, c = case
    m = a.source_dim
    xs = sympy.symbols(f"x0:{m}")
    ls = sympy.symbols(f"l0:{m}")
    ell = sum(li * xi for li, xi in zip(ls, xs))
    equations = []
    for ai, ci in zip(a.coords, c.coords):
        residual = sympy.expand(_sympy_expr(ci, xs) - ell * _sympy_expr(ai, xs))
        equations.extend(sympy.Poly(residual, *xs).coeffs())
    solutions = sympy.linsolve(equations, ls)
    found = parallel_factor(a, c)
    if solutions == sympy.EmptySet:
        assert found is None
    else:
        (solution,) = solutions
        assert found == Poly.linear([F(int(v.p), int(v.q)) for v in solution])


def test_transform_invertible():
    rng = random.Random(71)
    for _ in range(20):
        jet = random_valid_jet(rng)
        lam = F(0)
        while lam == 0:
            lam = F(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        ell = Poly.linear([F(rng.randint(-2, 2)) for _ in range(jet.source_dim)])
        moved = transform_jet(jet, lam, ell)
        back = transform_jet(moved, 1 / lam, (-1 / lam ** 3) * ell)
        assert back == jet


def test_transform_preserves_validity_and_witness_laws():
    rng = random.Random(73)
    for _ in range(20):
        jet = random_valid_jet(rng, scramble=False)
        rj = validate_jet(jet)
        lam = F(rng.choice([1, 2, -1, 3]), rng.choice([1, 2]))
        coeffs = [F(rng.randint(-2, 2)) for _ in range(jet.source_dim)]
        ell = Poly.linear(coeffs)
        moved = validate_jet(transform_jet(jet, lam, ell))
        # p' = lam p + l / lam and q' = lam^2 q + 2 p l + l^2 / lam^2
        assert moved.p == lam * rj.p + (1 / lam) * ell
        assert moved.q == lam * lam * rj.q + 2 * rj.p * ell + (1 / lam ** 2) * (ell * ell)


def test_jets_equivalent_recovers_transform():
    rng = random.Random(79)
    for _ in range(20):
        jet = random_valid_jet(rng)
        lam = F(0)
        while lam == 0:
            lam = F(rng.randint(-3, 3), rng.choice([1, 2]))
        ell = Poly.linear([F(rng.randint(-2, 2), rng.choice([1, 3])) for _ in range(jet.source_dim)])
        moved = transform_jet(jet, lam, ell)
        assert jets_equivalent(jet, moved) == (lam, ell)
        # and the reverse direction carries the inverse witnesses
        assert jets_equivalent(moved, jet) == (1 / lam, (-1 / lam ** 3) * ell)


def test_jets_equivalent_rejects():
    j1 = complex_square_jet()
    doubled_a = Jet2(j1.linear.scaled(2), j1.quad)
    assert jets_equivalent(j1, doubled_a) is None
    assert jets_equivalent(j1, quaternion_jet()) is None


def test_jets_equivalent_needs_a_nonzero_multiple_of_the_linear_part():
    j1 = complex_square_jet()
    flat = Jet2(PolyMap.zero(2, 2), j1.quad)
    assert jets_equivalent(flat, j1) is None
    # lam is read off the first nonzero coefficient of A1; here it is 0
    swapped = Jet2(PolyMap.from_linear_matrix([[0, 1], [1, 0]]), j1.quad)
    assert jets_equivalent(j1, swapped) is None
    # lam = 1 from the first coordinate, but A2 is not A1
    stretched = Jet2(PolyMap.from_linear_matrix([[1, 0], [0, 2]]), j1.quad)
    assert jets_equivalent(j1, stretched) is None


def test_degeneracy_is_equivalence_invariant():
    rng = random.Random(83)
    for _ in range(20):
        jet = random_valid_jet(rng, scramble=False)
        lam = F(rng.choice([1, -2, 3]), rng.choice([1, 2]))
        ell = Poly.linear([F(rng.randint(-2, 2)) for _ in range(jet.source_dim)])
        moved = transform_jet(jet, lam, ell)
        assert is_degenerate(validate_jet(jet))[0] == is_degenerate(validate_jet(moved))[0]


# ---------------------------------------------------------------------------
# power series truncations


def test_series_example_fails_at_degree_three():
    phi = PolyMap(3, [Poly.variable(3, 0), Poly.variable(3, 1) + Poly(3, {(0, 0, 2): 1})])
    report = check_series_divisibility(phi, 2)
    assert not report.ok
    d2, d3 = report.checks
    assert (d2.degree, d3.degree) == (2, 3)
    assert d2.ok
    assert not d3.inner_ok and not d3.norm_ok
    # the order-1 truncation discards the obstruction
    assert check_series_divisibility(phi, 1).ok


def test_series_geometric_truncation_passes():
    # z + z^2 + z^3 truncates z / (1 - z), which rounds lines to circles
    phi = [
        Poly(2, {(1, 0): 1, (2, 0): 1, (0, 2): -1, (3, 0): 1, (1, 2): -3}),
        Poly(2, {(0, 1): 1, (1, 1): 2, (2, 1): 3, (0, 3): -1}),
    ]
    report = check_series_divisibility(phi, 3)
    assert report.ok
    assert [c.degree for c in report.checks] == [2, 3, 4]


def _truncated(p: Poly, order: int) -> Poly:
    return sum((p.homogeneous_part(d) for d in range(order + 1)), Poly.zero(p.num_vars))


def _taylor_polynomial(fq, order: int) -> list[Poly]:
    """Degrees 1..order of N/D's Taylor series at the origin, for D(0) = 1:
    N * sum_k (1 - D)^k, cut after degree order at every step."""
    m = fq.source_dim
    rest = 1 - fq.denom
    term = series = Poly.constant(m, 1)
    for _ in range(order - 1):
        term = _truncated(term * rest, order - 1)
        series = series + term
    return [_truncated(c * series, order) for c in fq.numer.coords]


def test_canonical_roundings_pass_the_series_check_at_every_order():
    # a map that sends lines to circles has a Taylor polynomial that passes
    # the degreewise check at every order the check takes. <A, N> and |N|^2
    # are multiples of <A, A>, so N times any series passes; the check
    # discriminates only against terms that no rounding has
    rng = random.Random(5)
    for _ in range(60):
        fq = canonical_rounding(validate_jet(random_valid_jet(rng)))
        assert fq.denom.constant_term() == 1
        for order in range(1, 5):
            phi = _taylor_polynomial(fq, order)
            # D * phi agrees with N up to the order: phi is the Taylor polynomial
            assert [_truncated(fq.denom * c, order) for c in phi] == [_truncated(c, order) for c in fq.numer.coords]
            assert check_series_divisibility(phi, order).ok
        # a cubic term that no rounding has shows first in degree 4
        phi = _taylor_polynomial(fq, 3)
        bump = Poly(fq.source_dim, {(2, 1) + (0,) * (fq.source_dim - 2): 1})
        report = check_series_divisibility([phi[0] + bump, *phi[1:]], 3)
        assert [c.degree for c in report.checks if not c.ok] == [4]


def test_series_requires_origin_and_rank():
    with pytest.raises(ValueError):
        check_series_divisibility(PolyMap(2, [Poly.constant(2, 1), Poly.zero(2)]), 2)
    with pytest.raises(RankTooLow):
        check_series_divisibility(PolyMap.from_linear_matrix([[1, 0], [1, 0]]), 2)
    with pytest.raises(ValueError):
        check_series_divisibility(PolyMap.identity(2), 5)


@pytest.mark.parametrize("order", [True, False, 2.0, "2", Fraction(2)])
def test_series_order_must_be_an_int(order):
    # bool is an int, but True is no order
    with pytest.raises(TypeError) as err:
        check_series_divisibility(PolyMap.identity(2), order)
    assert str(err.value) == f"order must be an int, got {order!r}"


# ---------------------------------------------------------------------------
# exact certificates are raised, so python -O cannot strip them


@st.composite
def _gram_on_kernel(draw):
    """M for the jet A = (x0, x1), B = (x_i * l_s) for i in {0, 1} and the
    rows l_s of M on x2..x(k+1): p = 0, q = sum of l_s^2, and q - p^2 on
    ker A is M^T M, positive semidefinite, with some columns of M forced to
    be multiples of earlier ones."""
    k = draw(st.integers(1, 8))
    t = draw(st.integers(1, k))
    entries = st.one_of(st.just(F(0)), mixed_coeffs)
    rows = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=t, max_size=t))
    for c in range(1, k):
        if draw(st.booleans()):
            src, f = draw(st.integers(0, c - 1)), draw(entries)
            for row in rows:
                row[c] = f * row[src]
    return rows


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_gram_on_kernel())
def test_degeneracy_witness_is_lagranges_first_zero_column(rows):
    k, m = len(rows[0]), len(rows[0]) + 2
    linear = [[int(i == j) for j in range(m)] for i in range(2)] + [[0] * m] * (2 * len(rows))
    quads = [[[0] * m] * m] * 2
    for i in range(2):
        for row in rows:
            half = [[F(0)] * m for _ in range(m)]
            for j, c in enumerate(row):
                half[i][j + 2] = half[j + 2][i] = c / 2
            quads.append(half)
    rj = validate_jet(jet_from_matrices(linear, quads))
    trans, diag = lagrange_reference(
        [[sum(row[a] * row[b] for row in rows) for b in range(k)] for a in range(k)])
    if 0 not in diag:
        assert is_degenerate(rj) == (False, None)
        return
    zero = diag.index(0)
    degenerate, witness = is_degenerate(rj)
    assert degenerate
    assert witness == (0, 0, *(row[zero] for row in trans))
    assert all(isinstance(x, Fraction) for x in witness)


def test_canonical_rounding_expands_nothing(monkeypatch):
    # |N|^2 = D<A,A> follows from the divisions the RoundingJet proved
    rj = validate_jet(complex_square_jet())
    expected = canonical_rounding(rj)

    def boom(*args):
        raise RuntimeError("canonical_rounding must not expand or divide")

    monkeypatch.setattr(jets, "inner_poly", boom)
    monkeypatch.setattr(jets, "poly_divmod", boom)
    assert canonical_rounding(rj) == expected


def test_corrupted_degeneracy_verdict_fails_the_factor_certificate(monkeypatch):
    rj = validate_jet(flat_degenerate_jet())
    monkeypatch.setattr(jets, "is_degenerate", lambda rj: (True, None))
    with pytest.raises(CertificateError, match="still degenerate"):
        factor_degenerate(rj)


def test_certificates_survive_optimized_mode():
    script = (
        "import sys\n"
        "from rounding_forge import jets\n"
        "from rounding_forge.polycore import CertificateError\n"
        "from fractions import Fraction\n"
        "rj = jets.validate_jet(jets.jet_from_matrices(\n"
        "    [[1, 0, 0], [0, 1, 0]], [[[0] * 3] * 3] * 2))\n"
        "jets._linalg.congruent_diagonalize = lambda s: ([0], [[Fraction(1)]], [Fraction(-1)])\n"
        "try:\n"
        "    jets.is_degenerate(rj)\n"
        "except CertificateError:\n"
        "    print('raised under -O' if sys.flags.optimize else 'raised')\n"
    )
    src = str(Path(rounding_forge.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised under -O\n"


# ---------------------------------------------------------------------------
# error paths: each names its exception and message


def _x(i, m=2):
    return Poly.variable(m, i)


@pytest.mark.parametrize("call, exc, message", [
    (lambda: FracQuadMap(numer=PolyMap.identity(2), denom=Poly.constant(3, 1)),
     ValueError, "denominator lives in a different variable space"),
    (lambda: FracQuadMap(numer=PolyMap.identity(2), denom=_x(0))([0, 5]),
     ZeroDivisionError, "denominator vanishes at (0, 5)"),
    (lambda: transform_jet(complex_square_jet(), 0, Poly.zero(2)), ValueError, "lam must be nonzero"),
    (lambda: transform_jet(complex_square_jet(), 1, _x(0) * _x(1)),
     ValueError, "ell must be a homogeneous linear polynomial on the source"),
    (lambda: transform_jet(complex_square_jet(), 1, _x(0, 3)),
     ValueError, "ell must be a homogeneous linear polynomial on the source"),
    (lambda: parallel_factor(PolyMap.identity(2), PolyMap.zero(2, 3)), ValueError, "maps have different shapes"),
    (lambda: parallel_factor(PolyMap.identity(2), PolyMap.identity(2)), ValueError, "C must be homogeneous quadratic"),
    (lambda: check_series_divisibility([], 2), ValueError, "phi has no coordinates"),
    (lambda: check_series_divisibility([_x(0), _x(0, 3)], 2),
     ValueError, "coordinates live in different variable counts"),
])
def test_jet_layer_rejects_malformed_input(call, exc, message):
    with pytest.raises(exc) as err:
        call()
    assert type(err.value) is exc
    assert str(err.value) == message
