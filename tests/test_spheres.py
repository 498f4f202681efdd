"""Homogenization, the norm-product factorization, the quadratic sphere lift
with its exact Cholesky-style normalizer, and the two evaluation routes."""

import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    as_dict,
    complex_square_jet,
    dict_add,
    dict_inner,
    dict_mul,
    flat_degenerate_jet,
    identity_form,
    quaternion_jet,
    random_valid_jet,
)
from rounding_forge import jets, spheres
from rounding_forge.jets import (
    FracQuadMap,
    NotDivisible,
    canonical_rounding,
    fracquad_jet,
    is_degenerate,
    validate_jet,
)
from rounding_forge.polycore import Poly, PolyMap, QuadForm, form_signature
from rounding_forge.spheres import (
    Degenerate,
    PoleProximity,
    Q2NotQuadratic,
    QuadSphereMap,
    evaluate_factored,
    homogenize,
    split_norm,
    sphere_lift,
)

F = Fraction


def mobius_fq():
    return canonical_rounding(validate_jet(complex_square_jet()))


# ---------------------------------------------------------------------------
# homogenization and the norm split


def test_homogenize_frozen_values():
    numer, denom = homogenize(mobius_fq())
    assert numer == PolyMap(3, [
        Poly(3, {(1, 0, 1): 1, (2, 0, 0): -1, (0, 2, 0): -1}),
        Poly(3, {(0, 1, 1): 1}),
    ])
    assert QuadForm.from_poly(denom).matrix == (
        (F(1), F(0), F(-1)),
        (F(0), F(1), F(0)),
        (F(-1), F(0), F(1)),
    )


def test_homogenize_requires_unit_constant():
    fq = mobius_fq()
    from rounding_forge.jets import FracQuadMap
    shifted = FracQuadMap(numer=fq.numer, denom=fq.denom + 1)
    with pytest.raises(ValueError):
        homogenize(shifted)


def test_split_norm_frozen_factors():
    q1, q2 = split_norm(*homogenize(mobius_fq()))
    assert q1.matrix == ((F(1), F(0), F(-1)), (F(0), F(1), F(0)), (F(-1), F(0), F(1)))
    assert q2.matrix == ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(0)))


def test_split_norm_flips_a_negated_pair():
    numer, denom = homogenize(mobius_fq())
    q1, q2 = split_norm(numer, -denom)
    plus1, minus1, _ = form_signature(q1)
    plus2, minus2, _ = form_signature(q2)
    assert minus1 == 0 and minus2 == 0
    assert q1.matrix == QuadForm.from_poly(denom).matrix


def test_split_norm_rejects_inhomogeneous_quotient():
    # |t x + x|^2 = x^2 (t + 1)^2, and (t + 1)^2 is not homogeneous
    numer = PolyMap(2, [Poly(2, {(1, 1): 1, (1, 0): 1})])
    denom = Poly(2, {(2, 0): 1})
    with pytest.raises(Q2NotQuadratic):
        split_norm(numer, denom)


def test_split_norm_rejects_nondivisible():
    numer = PolyMap(2, [Poly(2, {(2, 0): 1})])
    denom = Poly(2, {(0, 2): 1})
    with pytest.raises(NotDivisible):
        split_norm(numer, denom)


# ---------------------------------------------------------------------------
# the lift


def test_sphere_lift_frozen_mobius():
    sm = sphere_lift(validate_jet(complex_square_jet()))
    assert sm.gram.matrix == ((F(2), F(0), F(-1)), (F(0), F(2), F(0)), (F(-1), F(0), F(1)))
    assert sm.f == PolyMap(3, [
        Poly(3, {(1, 0, 1): 2, (2, 0, 0): -2, (0, 2, 0): -2}),
        Poly(3, {(0, 1, 1): 2}),
        Poly(3, {(0, 0, 2): 1, (1, 0, 1): -2}),
    ])
    assert sm.lower == ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(-1, 2), F(0), F(1)))
    assert sm.diag == (F(2), F(2), F(1, 2))


def test_sphere_lift_norm_identity_via_oracle():
    sm = sphere_lift(validate_jet(complex_square_jet()))
    f = [as_dict(c) for c in sm.f.coords]
    gram_poly = as_dict(sm.gram.to_poly())
    assert dict_inner(f, f) == dict_mul(gram_poly, gram_poly)


def test_sphere_lift_quaternion_gram_is_identity():
    sm = sphere_lift(validate_jet(quaternion_jet()))
    assert sm.gram.matrix == identity_form(8).matrix
    assert sm.lower == tuple(tuple(F(int(i == j)) for j in range(8)) for i in range(8))
    assert sm.diag == (F(1),) * 8
    # with gram = |u|^2, <f, f> = gram^2 puts f(u) on the unit sphere when |u| = 1
    f = [as_dict(c) for c in sm.f.coords]
    gram_poly = as_dict(sm.gram.to_poly())
    assert dict_inner(f, f) == dict_mul(gram_poly, gram_poly)


def test_sphere_lift_rejects_degenerate():
    with pytest.raises(Degenerate) as exc:
        sphere_lift(validate_jet(flat_degenerate_jet()))
    assert exc.value.signature == (3, 0, 1)


def test_sphere_lift_matches_degeneracy_verdict_randomized():
    rng = random.Random(31)
    lifted = 0
    for _ in range(30):
        rj = validate_jet(random_valid_jet(rng))
        degenerate, _ = is_degenerate(rj)
        if degenerate:
            with pytest.raises(Degenerate):
                sphere_lift(rj)
        else:
            sm = sphere_lift(rj)
            lifted += 1
            assert form_signature(sm.gram) == (sm.source_dim, 0, 0)
    assert lifted >= 5


def test_checked_rejects_wrong_norm():
    f = PolyMap(2, [Poly(2, {(2, 0): 1})])
    with pytest.raises(ValueError):
        QuadSphereMap.checked(f, identity_form(2))


def test_checked_rejects_indefinite_gram():
    # f = (x^2 - y^2, 2xy) has |f|^2 = (x^2 + y^2)^2; feeding the wrong,
    # indefinite gram form must not slip through as Degenerate is checked
    # after the norm identity
    f = PolyMap(2, [Poly(2, {(2, 0): 1, (0, 2): -1}), Poly(2, {(1, 1): 2})])
    good = identity_form(2)
    sm = QuadSphereMap.checked(f, good)
    assert sm.diag == (F(1), F(1))
    bad = QuadForm.from_poly(Poly(2, {(2, 0): 1, (0, 2): -1}))
    with pytest.raises(ValueError):
        QuadSphereMap.checked(f, bad)


def test_checked_reports_the_signature_of_a_negative_gram():
    # <f, f> = (x1^2 + x2^2)^2 = G^2 for G = -(x1^2 + x2^2) too; checked takes
    # any gram, so its Degenerate carries the full signature, not the rank
    f = PolyMap(2, [Poly(2, {(2, 0): 1, (0, 2): -1}), Poly(2, {(1, 1): 2})])
    with pytest.raises(Degenerate) as exc:
        QuadSphereMap.checked(f, -identity_form(2))
    assert exc.value.signature == (0, 2, 0)


# ---------------------------------------------------------------------------
# the lift proves one identity: the oracle rebuilds f and G from the jet's
# own p, q with plain dicts, and the proofs later stages used to repeat are
# made to fail without changing the result


def _homogenized(d: dict) -> dict:
    return {e + (2 - sum(e),): c for e, c in d.items()}


def _scaled(c, d: dict) -> dict:
    return {e: c * v for e, v in d.items()}


def _lift_oracle(rj):
    """f = (2 N^h, D^h - <A,A>) and G = D^h + <A,A>, expanded with dicts."""
    m = rj.source_dim
    a = [as_dict(c) for c in rj.jet.linear.coords]
    b = [as_dict(c) for c in rj.jet.quad.coords]
    p, q = as_dict(rj.p), as_dict(rj.q)
    numer = [_homogenized(dict_add(dict_add(ai, bi), _scaled(-2, dict_mul(p, ai))))
             for ai, bi in zip(a, b)]
    denom = _homogenized(dict_add(dict_add({(0,) * m: F(1)}, _scaled(-2, p)), q))
    norm_a = _homogenized(dict_inner(a, a))
    f = [_scaled(2, c) for c in numer] + [dict_add(denom, _scaled(-1, norm_a))]
    return f, dict_add(denom, norm_a)


def _oracle_jets():
    rng = random.Random(59)
    named = [complex_square_jet(), quaternion_jet(), flat_degenerate_jet()]
    return [random_valid_jet(rng) for _ in range(30)] + named


def test_sphere_lift_matches_the_hopf_oracle():
    lifted = degenerate = 0
    for jet in _oracle_jets():
        rj = validate_jet(jet)
        f, gram = _lift_oracle(rj)
        if is_degenerate(rj)[0]:
            degenerate += 1
            with pytest.raises(Degenerate) as exc:
                sphere_lift(rj)
            assert exc.value.signature == form_signature(QuadForm.from_poly(Poly(rj.source_dim + 1, gram)))
            continue
        lifted += 1
        sm = sphere_lift(rj)
        assert [as_dict(c) for c in sm.f.coords] == f
        assert as_dict(sm.gram.to_poly()) == gram
        assert dict_inner(f, f) == dict_mul(gram, gram)
        n = sm.source_dim
        assert all(d > 0 for d in sm.diag)
        assert all(sm.lower[i][i] == 1 and not any(sm.lower[i][i + 1:]) for i in range(n))
        ldlt = [[sum(sm.lower[i][k] * sm.diag[k] * sm.lower[j][k] for k in range(n)) for j in range(n)]
                for i in range(n)]
        assert ldlt == [list(row) for row in sm.gram.matrix]
    assert lifted >= 5 and degenerate >= 3


def test_degenerate_lift_signature_comes_from_the_rank(monkeypatch):
    # the lift's G is positive semidefinite, so its rank gives the signature
    # form_signature gives, and the lift does not ask form_signature for it
    degenerate = [rj for rj in map(validate_jet, _oracle_jets()) if is_degenerate(rj)[0]]
    expected = [form_signature(QuadForm.from_poly(Poly(rj.source_dim + 1, _lift_oracle(rj)[1])))
                for rj in degenerate]

    def boom(*args, **kwargs):
        raise RuntimeError("form_signature is not needed for a semidefinite gram")

    monkeypatch.setattr(spheres, "form_signature", boom)
    for rj, signature in zip(degenerate, expected):
        with pytest.raises(Degenerate) as exc:
            sphere_lift(rj)
        assert exc.value.signature == signature
    assert len(degenerate) >= 3


def test_sphere_lift_proves_the_identity_once(monkeypatch):
    rjs = [validate_jet(jet) for jet in _oracle_jets()]
    expected = [sphere_lift(rj) if not is_degenerate(rj)[0] else None for rj in rjs]

    def boom(*args, **kwargs):
        raise RuntimeError("the lift must not prove its identity again")

    monkeypatch.setattr(spheres, "poly_divmod", boom)
    monkeypatch.setattr(spheres, "split_norm", boom)
    monkeypatch.setattr(QuadSphereMap, "checked", staticmethod(boom))
    for rj, sm in zip(rjs, expected):
        if sm is None:
            with pytest.raises(Degenerate):
                sphere_lift(rj)
        else:
            assert sphere_lift(rj) == sm
    # the signature is only computed to report a degenerate jet
    monkeypatch.setattr(spheres, "form_signature", boom)
    assert [sphere_lift(rj) for rj, sm in zip(rjs, expected) if sm] == [sm for sm in expected if sm]


def test_sphere_lift_inherits_the_canonical_certificate(monkeypatch):
    # the lift's only proof is the RoundingJet's: a corrupted product is
    # rejected when the jet is built, so no lift is ever made from it
    real = jets.inner_poly
    monkeypatch.setattr(jets, "inner_poly", lambda u, v: real(u, v) + 1)
    with pytest.raises(NotDivisible):
        validate_jet(complex_square_jet())


def test_checked_zero_map_is_degenerate():
    with pytest.raises(Degenerate) as exc:
        QuadSphereMap.checked(PolyMap.zero(2, 1), QuadForm(((0, 0), (0, 0))))
    assert exc.value.signature == (0, 0, 2)


# ---------------------------------------------------------------------------
def _at_t_one(p: Poly) -> Poly:
    # p is homogeneous, so the exponents of x alone tell its terms apart
    return Poly(p.num_vars - 1, {e[:-1]: c for e, c in p.terms.items()})


def test_lift_reads_back_to_its_jet_exactly():
    # at t = 1 the lift (2N^h, D^h - <A,A>^h) over G = D^h + <A,A>^h gives
    # N = f[:-1] / 2 and D = (G + f[-1]) / 2, and N / D is the canonical map,
    # whose 2-jet is the jet itself: numerator A + (B - 2pA) over 1 - 2p + q
    rng = random.Random(11)
    jets = [complex_square_jet(), quaternion_jet()]
    while len(jets) < 62:
        jet = random_valid_jet(rng)
        if not is_degenerate(validate_jet(jet))[0]:
            jets.append(jet)
    # and the shapes of the sphere-lift workload: m in 4..8, n in {4, 8}
    rng = random.Random(5)
    while len(jets) < 86:
        jet = random_valid_jet(rng, rng.randint(4, 8), rng.choice((4, 8)))
        if not is_degenerate(validate_jet(jet))[0]:
            jets.append(jet)
    for jet in jets:
        sm = sphere_lift(validate_jet(jet))
        f = [_at_t_one(c) for c in sm.f.coords]
        numer = PolyMap(jet.source_dim, [F(1, 2) * c for c in f[:-1]])
        denom = F(1, 2) * (_at_t_one(sm.gram.to_poly()) + f[-1])
        assert fracquad_jet(FracQuadMap(numer=numer, denom=denom)) == jet


# evaluation routes


def test_factored_route_matches_direct_route():
    rng = random.Random(37)
    for jet in (complex_square_jet(), quaternion_jet()):
        rj = validate_jet(jet)
        fq = canonical_rounding(rj)
        sm = sphere_lift(rj)
        checked = 0
        while checked < 25:
            x = [rng.uniform(-0.8, 0.8) for _ in range(rj.source_dim)]
            if abs(fq.denom.eval_float(x)) < 1e-2:
                continue
            direct = np.array(fq.eval_float(x))
            via_sphere = evaluate_factored(sm, x)
            assert np.max(np.abs(direct - via_sphere)) < 1e-9
            checked += 1


def test_factored_route_fixes_origin():
    sm = sphere_lift(validate_jet(complex_square_jet()))
    assert np.allclose(evaluate_factored(sm, [0.0, 0.0]), [0.0, 0.0], atol=1e-15)


def test_factored_route_detects_pole():
    # z = 1 is the pole of z / (1 - z)
    sm = sphere_lift(validate_jet(complex_square_jet()))
    with pytest.raises(PoleProximity):
        evaluate_factored(sm, [1.0, 0.0])


def test_factored_route_checks_dimension():
    sm = sphere_lift(validate_jet(complex_square_jet()))
    with pytest.raises(ValueError):
        evaluate_factored(sm, [0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# error paths: each names its exception and message


def _thin_circle_map(delta):
    """f = (u^2 - delta^2 v^2, 2 delta u v) with <f, f> = (u^2 + delta^2 v^2)^2."""
    f = PolyMap(2, [Poly(2, {(2, 0): 1, (0, 2): -delta * delta}), Poly(2, {(1, 1): 2 * delta})])
    return QuadSphereMap.checked(f, QuadForm(((F(1), F(0)), (F(0), delta * delta))))


@pytest.mark.parametrize("call, exc, message", [
    (lambda: QuadSphereMap.checked(PolyMap.zero(3, 1), identity_form(2)),
     ValueError, "gram form lives in a different space"),
    # |x1^2 - x2^2|^2 = (x1^2 - x2^2) * (x1^2 - x2^2), and x1^2 - x2^2 is indefinite
    (lambda: split_norm(PolyMap(2, [Poly(2, {(2, 0): 1, (0, 2): -1})]), Poly(2, {(2, 0): 1, (0, 2): -1})),
     ValueError, "norm factors are not semidefinite of a common sign"),
    # the chart point 0 embeds as (0, 1), where the gram form is delta^2 = 1e-10
    (lambda: evaluate_factored(_thin_circle_map(F(1, 10**5)), [0.0]),
     PoleProximity, "gram value 1e-10 at the embedded point is too small"),
])
def test_sphere_layer_rejects_malformed_input(call, exc, message):
    with pytest.raises(exc) as err:
        call()
    assert type(err.value) is exc
    assert str(err.value) == message
