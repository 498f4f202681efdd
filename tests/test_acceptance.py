"""Acceptance criteria, one test per criterion.

Each test name carries its criterion number; the conftest terminal-summary
hook prints one PASS/FAIL line per criterion at the end of the run. The
tolerances asserted here are the pinned ones and must not be loosened."""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    as_dict,
    complex_square_jet,
    dict_inner,
    dict_mul,
    quat_inv,
    quat_mul,
    quaternion_jet,
    random_valid_jet,
    register_criterion,
)
from rounding_forge import cli
from rounding_forge.circles import Line, circle_rank_exact, restrict_to_line, verify_rounding_numeric
from rounding_forge.cliff import hopf_map, kappa, normed_pairing, rho
from rounding_forge.jets import (
    canonical_rounding,
    is_degenerate,
    jets_equivalent,
    transform_jet,
    validate_jet,
)
from rounding_forge.polycore import Poly, form_signature
from rounding_forge.spheres import Degenerate, evaluate_factored, sphere_lift
from test_cliff import kappa_brute, rho_brute

F = Fraction

register_criterion(1, "200 random valid jets validate exactly within 30 s")
register_criterion(2, "canonical maps send 20 random lines per jet into circles, rank <= 3")
register_criterion(3, "numeric oracle: 100 trials at 1e-7 pass; cubic control is flagged")
register_criterion(4, "closed forms: complex exact, quaternion within 1e-12 at 100 points")
register_criterion(5, "equivalence witnesses recovered exactly on 100 pairs, both ways")
register_criterion(6, "sphere lifts: exact norm identity, 1e-9 route agreement, degenerate rejected")
register_criterion(7, "rho(1..64) and kappa(1..4096) match brute force")
register_criterion(8, "normed pairings for all feasible sizes up to n = 16; Hopf maps exact")
register_criterion(9, "CLI: byte-stable reports, document round trip, exit codes 0/2/1")


def test_criterion_1_validation_exactness(jet_pool):
    start = time.monotonic()
    assert len(jet_pool) == 200
    for jet in jet_pool:
        rj = validate_jet(jet)  # raises on any invalid jet
        a = [as_dict(c) for c in jet.linear.coords]
        b = [as_dict(c) for c in jet.quad.coords]
        norm_a = dict_inner(a, a)
        assert dict_inner(a, b) == dict_mul(as_dict(rj.p), norm_a)
        assert dict_inner(b, b) == dict_mul(as_dict(rj.q), norm_a)
        fq = canonical_rounding(rj)
        f = [as_dict(c) for c in fq.numer.coords]
        assert dict_inner(f, f) == dict_mul(as_dict(fq.denom), norm_a)
    assert time.monotonic() - start < 30.0


def test_criterion_2_lines_to_circles(jet_pool):
    rng = random.Random(1202)
    for jet in jet_pool:
        fq = canonical_rounding(validate_jet(jet))
        m = jet.source_dim
        for _ in range(20):
            base = [F(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(m)]
            direction = [F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(m)]
            if all(d == 0 for d in direction):
                direction[rng.randrange(m)] = F(1)
            curve = restrict_to_line(fq, Line(base=base, direction=direction))
            rank, in_circle = circle_rank_exact(curve)
            assert in_circle and rank <= 3


def test_criterion_3_numeric_oracle():
    for jet in (complex_square_jet(), quaternion_jet()):
        fq = canonical_rounding(validate_jet(jet))
        report = verify_rounding_numeric(fq, trials=100, seed=0, tol=1e-7)
        assert report.ok and report.violations == ()
    # control: an order-3 perturbation of the canonical map must be caught
    fq = canonical_rounding(validate_jet(complex_square_jet()))
    broken = list(fq.numer.coords)
    broken[0] = broken[0] + Poly(2, {(3, 0): F(1, 100)})
    control = verify_rounding_numeric((broken, fq.denom), trials=100, seed=0, tol=1e-7)
    assert len(control.violations) >= 1


def test_criterion_4_closed_forms():
    fq = canonical_rounding(validate_jet(complex_square_jet()))
    rng = random.Random(1204)
    for _ in range(100):
        a = F(rng.randint(-40, 40), rng.randint(1, 20))
        b = F(rng.randint(-40, 40), rng.randint(1, 20))
        den = (1 - a) ** 2 + b * b
        if den == 0:
            continue
        assert fq((a, b)) == ((a * (1 - a) - b * b) / den, b / den)

    fq = canonical_rounding(validate_jet(quaternion_jet()))
    for _ in range(100):
        pt = [rng.uniform(-2.0, 2.0) for _ in range(7)]
        one_plus_x = (1.0, pt[0], pt[1], pt[2])
        norm = sum(c * c for c in one_plus_x)
        if norm < 1e-2:
            continue
        expected = quat_mul(quat_inv(one_plus_x), tuple(pt[3:]))
        got = fq.eval_float(pt)
        assert max(abs(g - e) for g, e in zip(got, expected)) < 1e-12


def test_criterion_5_equivalence_witnesses():
    rng = random.Random(1205)
    for _ in range(100):
        jet = random_valid_jet(rng)
        lam = F(0)
        while lam == 0:
            lam = F(rng.randint(-5, 5), rng.randint(1, 4))
        ell = Poly.linear([F(rng.randint(-3, 3), rng.choice([1, 2, 3]))
                           for _ in range(jet.source_dim)])
        moved = transform_jet(jet, lam, ell)
        assert jets_equivalent(jet, moved) == (lam, ell)
        assert jets_equivalent(moved, jet) == (1 / lam, (-1 / lam ** 3) * ell)
        assert is_degenerate(validate_jet(jet))[0] == is_degenerate(validate_jet(moved))[0]


def test_criterion_6_sphere_lifts(jet_pool):
    rng = random.Random(1206)
    lifted = rejected = 0
    for jet in jet_pool[:100]:
        rj = validate_jet(jet)
        degenerate, _ = is_degenerate(rj)
        if degenerate:
            with pytest.raises(Degenerate):
                sphere_lift(rj)
            rejected += 1
            continue
        sm = sphere_lift(rj)
        lifted += 1
        # the exact identity <f, f> = G^2 is asserted by construction; check
        # it again through the independent expansion oracle
        f = [as_dict(c) for c in sm.f.coords]
        g = as_dict(sm.gram.to_poly())
        assert dict_inner(f, f) == dict_mul(g, g)
        assert form_signature(sm.gram) == (sm.source_dim, 0, 0)
        fq = canonical_rounding(rj)
        checked = 0
        while checked < 50:
            x = [rng.uniform(-0.8, 0.8) for _ in range(rj.source_dim)]
            if abs(fq.denom.eval_float(x)) < 1e-2:
                continue
            direct = np.array(fq.eval_float(x))
            assert np.max(np.abs(direct - evaluate_factored(sm, x))) < 1e-9
            checked += 1
    assert lifted >= 10 and rejected >= 10


def test_criterion_7_tables_against_brute_force():
    assert [rho(n) for n in range(1, 65)] == [rho_brute(n) for n in range(1, 65)]
    assert [kappa(m) for m in range(1, 4097)] == [kappa_brute(m) for m in range(1, 4097)]


def test_criterion_8_pairings_and_hopf():
    for n in (1, 2, 4, 8, 16):
        for r in range(1, rho(n) + 1):
            pairing = normed_pairing(r, n)  # checked() asserts the identity
            m = r + n
            f = [as_dict(c) for c in pairing.f.coords]
            xx = {tuple(2 * (v == i) for v in range(m)): F(1) for i in range(r)}
            yy = {tuple(2 * (v == i) for v in range(m)): F(1) for i in range(r, m)}
            assert dict_inner(f, f) == dict_mul(xx, yy)
            sm = hopf_map(pairing)
            h = [as_dict(c) for c in sm.f.coords]
            unit = {tuple(2 * (v == i) for v in range(m)): F(1) for i in range(m)}
            assert dict_inner(h, h) == dict_mul(unit, unit)


COMPLEX_JET_DOC = {
    "kind": "jet",
    "m": 2,
    "n": 2,
    "A": [["1", "0"], ["0", "1"]],
    "B": [[["1", "0"], ["0", "-1"]], [["0", "1"], ["1", "0"]]],
}


def test_criterion_9_cli_contract(tmp_path, capsys):
    jet_path = tmp_path / "jet.json"
    jet_path.write_text(json.dumps(COMPLEX_JET_DOC))
    out_path = tmp_path / "map.json"

    assert cli.main(["canon", str(jet_path), "--out", str(out_path)]) == 0
    first = capsys.readouterr().out
    assert cli.main(["canon", str(jet_path), "--out", str(out_path)]) == 0
    second = capsys.readouterr().out
    assert first == second

    report = json.loads(first)
    fq = cli.fracquad_from_obj(json.loads(out_path.read_text()))
    from rounding_forge.jets import fracquad_jet
    rj = validate_jet(fracquad_jet(fq))
    assert cli.poly_to_doc(rj.p) == report["witnesses"]["p"]
    assert cli.poly_to_doc(rj.q) == report["witnesses"]["q"]

    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps({
        "kind": "jet", "m": 2, "n": 2,
        "A": [["1", "0"], ["2", "0"]],
        "B": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
    }))
    assert cli.main(["check", str(bad_path)]) == 2
    capsys.readouterr()
    assert cli.main(["check", str(tmp_path / "absent.json")]) == 1
    capsys.readouterr()
