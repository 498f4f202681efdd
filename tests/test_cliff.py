"""Hurwitz-Radon arithmetic, anticommuting generator systems, normed
pairings, the binomial parity test, and the quadratic sphere maps they induce.

Brute-force oracles live in this file: rho via the minimal generator
dimension table, kappa via an independent iterative greedy pass, binomial
parity via math.comb."""

import dataclasses
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    as_dict,
    dict_add,
    dict_inner,
    dict_mul,
    pairing_tensor_reference,
    pairing_terms_reference,
    quat_mul,
)
from rounding_forge import cli, cliff, polycore, spheres
from rounding_forge.cliff import (
    KAPPA_DOMAIN_CAP,
    NormedPairing,
    SizeInfeasible,
    hopf_map,
    kappa,
    normed_pairing,
    pairing_to_rounding,
    rho,
    stiefel_hopf_feasible,
)
from rounding_forge.jets import Jet2, factor_degenerate, is_degenerate, validate_jet
from rounding_forge.polycore import CertificateError, Poly, PolyMap
from rounding_forge.spheres import sphere_lift

F = Fraction


# ---------------------------------------------------------------------------
# brute-force oracles


def dims_table(top_k: int) -> list[int]:
    """Minimal dimension carrying k anticommuting orthogonal roots of -1."""
    base = [1, 2, 4, 4, 8, 8, 8, 8]
    out = []
    for k in range(top_k + 1):
        blocks, i = divmod(k, 8)
        out.append(16 ** blocks * base[i])
    return out


_DIMS = dims_table(40)


def rho_brute(n: int) -> int:
    r = 1
    while r < len(_DIMS) and n % _DIMS[r] == 0:
        r += 1
    return r


def kappa_brute(m: int) -> int:
    total = 0
    while True:
        t = m.bit_length() - 1
        p = 1 << t
        r = m - p
        if r < rho_brute(p):
            return total + p
        total += p
        m = r


# ---------------------------------------------------------------------------
# rho and kappa


def test_rho_frozen_first_sixteen():
    assert [rho(n) for n in range(1, 17)] == [1, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 4, 1, 2, 1, 9]


def test_rho_against_brute_force():
    for n in range(1, 513):
        assert rho(n) == rho_brute(n), n


def test_rho_odd_part_is_invisible():
    for n in (1, 2, 8, 16, 128):
        for odd in (1, 3, 5, 7, 9):
            assert rho(n * odd) == rho(n)


def test_rho_rejects_nonpositive():
    with pytest.raises(ValueError):
        rho(0)


def test_kappa_frozen_values():
    assert kappa(1) == 1
    assert kappa(2) == 2
    assert kappa(3) == 2
    assert kappa(4) == 4
    assert kappa(9) == 8
    assert kappa(25) == 24


def test_kappa_against_brute_force():
    for m in range(1, 4097):
        assert kappa(m) == kappa_brute(m), m


def test_kappa_domain():
    assert kappa(KAPPA_DOMAIN_CAP) >= 1
    with pytest.raises(ValueError):
        kappa(KAPPA_DOMAIN_CAP + 1)
    with pytest.raises(ValueError):
        kappa(0)


def test_kappa_dominates_rho():
    # kappa(m) is a maximum over a family containing the rho witness
    for m in range(1, 300):
        assert kappa(m) >= rho(m)


# ---------------------------------------------------------------------------
# generator systems


def _dim(perms) -> int:
    return perms[0].dim if perms else 1


def test_generator_dimensions_frozen():
    expected = [1, 2, 4, 4, 8, 8, 8, 8, 16, 32, 64, 64, 128, 128, 128, 128, 256]
    assert [_dim(cliff._generator_perms(k)) for k in range(17)] == expected
    assert _DIMS[:17] == expected
    # each system is minimal: rho admits k + 1 slabs on its dimension, and
    # at most k on half of it
    for k in range(1, 25):
        d = _dim(cliff._generator_perms(k))
        assert rho(d) > k >= rho(d // 2), k


def _dense(g) -> np.ndarray:
    """The int64 matrix of a signed permutation: column j holds signs[j] at row perm[j]."""
    out = np.zeros((g.dim, g.dim), dtype=np.int64)
    out[list(g.perm), range(g.dim)] = g.signs
    return out


def test_single_generator_is_the_rotation():
    (g,) = cliff._generator_perms(1)
    assert np.array_equal(_dense(g), np.array([[0, -1], [1, 0]]))


def test_generator_relations_dense():
    # independent dense verification of the systems the pairing proof certifies
    # in float64, whose products of these +-1 matrices are exact and fast
    for k in range(17):
        perms = cliff._generator_perms(k)
        eye = np.eye(_dim(perms))
        gens = [_dense(g).astype(np.float64) for g in perms]
        assert len(gens) == k
        for i, e in enumerate(gens):
            assert np.array_equal(e @ e, -eye)
            assert np.array_equal(e.T @ e, eye)
            for f in gens[i + 1:]:
                assert np.array_equal(e @ f, -(f @ e))


def test_generator_count_bounds():
    # no generators: the [1, n, n] pairing is the identity slab alone
    assert cliff._generator_perms(0) == ()


# ---------------------------------------------------------------------------
# normed pairings


def test_pairing_identity_slot():
    p = normed_pairing(1, 5)
    assert p((F(3),), (F(1), F(0), F(-2), F(0), F(5))) == (F(3), F(0), F(-6), F(0), F(15))


def test_complex_pairing_frozen():
    p = normed_pairing(2, 2)
    assert p((F(0), F(1)), (F(2), F(3))) == (F(-3), F(2))
    assert p((F(1), F(0)), (F(2), F(3))) == (F(2), F(3))


def test_quaternion_pairing_matches_table():
    p = normed_pairing(4, 4)
    rng = random.Random(3)
    for _ in range(25):
        u = tuple(F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(4))
        v = tuple(F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(4))
        assert p(u, v) == quat_mul(u, v)


def test_pairing_norm_identity_oracle():
    for r, n in ((3, 4), (8, 8), (9, 16)):
        p = normed_pairing(r, n)
        f = [as_dict(c) for c in p.f.coords]
        m = r + n
        xx = {tuple(2 * (v == i) for v in range(m)): F(1) for i in range(r)}
        yy = {tuple(2 * (v == i) for v in range(m)): F(1) for i in range(r, m)}
        assert dict_inner(f, f) == dict_mul(xx, yy)


def test_pairing_evaluates_like_polymap():
    p = normed_pairing(3, 8)
    pm = p.f
    rng = random.Random(9)
    x = [F(rng.randint(-2, 2)) for _ in range(3)]
    y = [F(rng.randint(-2, 2)) for _ in range(8)]
    assert p(tuple(x), tuple(y)) == pm(x + y)


def test_pairing_evaluates_like_the_dense_tensor_sum():
    # the kept map f against sum_ij tensor[i][j][c] x_i y_j, at rational points
    rng = random.Random(17)
    for r, n in ((1, 1), (3, 4), (9, 16)):
        p = normed_pairing(r, n)
        for _ in range(5):
            x = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(r)]
            y = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
            dense = tuple(
                sum(p.tensor[i][j][c] * x[i] * y[j] for i in range(r) for j in range(n))
                for c in range(n)
            )
            assert p(x, y) == dense
        with pytest.raises(ValueError, match="argument dimensions mismatch"):
            p(x + [F(1)], y)
        with pytest.raises(ValueError, match="argument dimensions mismatch"):
            p(x, y[:-1])


def _assert_built_like_the_reference(p: NormedPairing) -> None:
    # values and stored term order: the order reaches the float sums of any
    # oracle run on pairing_to_rounding
    reference = pairing_terms_reference(p.left_dim, p.right_dim, p.target_dim, p.tensor)
    assert p.f.source_dim == p.left_dim + p.right_dim
    assert [list(coord.terms.items()) for coord in p.f.coords] == [list(t.items()) for t in reference]


def test_every_built_pairing_matches_the_reference_build():
    for n in range(1, 17):
        for r in range(1, rho(n) + 1):
            _assert_built_like_the_reference(normed_pairing(r, n))


_STORED_SIZES = [(r, n) for n in range(1, 17) for r in range(1, rho(n) + 1)] + [(10, 32), (12, 64)]


def test_built_pairing_tensor_matches_the_dense_reference():
    # normed_pairing stores f from the signed permutations; tensor is a view of f
    for r, n in _STORED_SIZES:
        tensor = normed_pairing(r, n).tensor
        assert tensor == pairing_tensor_reference(r, n), (r, n)
        assert {type(c) for slab in tensor for row in slab for c in row} == {F}, (r, n)


def test_pairing_documents_read_back_to_equal_pairings():
    # == and hash compare the stored f, built alike from a document and from the permutations
    for r, n in _STORED_SIZES:
        p = normed_pairing(r, n)
        q = cli.pairing_from_obj(cli.pairing_to_doc(p))
        assert q == p and hash(q) == hash(p), (r, n)


def test_pairing_tensor_view_is_built_only_when_read(monkeypatch, tmp_path, capsys):
    p = normed_pairing(9, 16)
    hopf_map(p)
    pairing_to_rounding(p)
    doc = cli.pairing_to_doc(p)
    assert "tensor" not in vars(p)
    expected = [[[str(c) for c in row] for row in slab] for slab in pairing_tensor_reference(9, 16)]
    assert doc["tensor"] == expected
    assert p.tensor is p.tensor
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.tensor = ()
    # the CLI builds, writes and reads pairings without the view
    def unread(self):
        raise RuntimeError("the tensor view was built")

    monkeypatch.setattr(NormedPairing, "tensor", property(unread))
    path = tmp_path / "pairing.json"
    assert cli.main(["pairing", "9", "16", "--out", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["witnesses"]["document"]["tensor"] == expected
    for argv in (["hopf", "--size", "9", "16"], ["hopf", str(path)]):
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == "" and json.loads(out)["verdicts"]["feasible"] is True


def test_pairing_entries_unpack_no_keys(monkeypatch):
    # entries() reads i and j off the set fields of f's packed keys, so the
    # document and the tensor view build no exponent tuples
    expected = pairing_tensor_reference(12, 64)

    def unpack(*args):
        raise RuntimeError("a packed key was unpacked")

    monkeypatch.setattr(polycore, "_unpack", unpack)
    p = normed_pairing(12, 64)
    assert cli.pairing_to_doc(p)["tensor"] == [[[str(c) for c in row] for row in slab] for slab in expected]
    assert p.tensor == expected


_PYTHAGOREAN = ((F(3, 5), F(4, 5)), (F(5, 13), F(12, 13)), (F(8, 17), F(-15, 17)))


def _hand_made(r: int, s: int, n: int, pad: int, rng: random.Random) -> list:
    """normed_pairing(r, n) restricted to the first s of its y-coordinates,
    with pad zero target coordinates inserted, and the target turned by
    rational Givens rotations; still a normed pairing, of size [r, s, n + pad]."""
    tensor = [[list(row) for row in slab[:s]] for slab in normed_pairing(r, n).tensor]
    for size in range(n, n + pad):
        at = rng.randrange(size + 1)
        for slab in tensor:
            for row in slab:
                row.insert(at, F(0))
    for _ in range(n // 2):
        a, b = rng.sample(range(n + pad), 2)
        cos, sin = rng.choice(_PYTHAGOREAN)
        for slab in tensor:
            for row in slab:
                row[a], row[b] = cos * row[a] - sin * row[b], sin * row[a] + cos * row[b]
    return tensor


def test_hand_made_pairings_match_the_reference_build():
    rng = random.Random(23)
    entries = []
    for r, s, n, pad in ((1, 1, 2, 1), (2, 1, 2, 0), (3, 2, 4, 2), (4, 3, 4, 1), (5, 5, 8, 0), (8, 6, 8, 3),
                         (9, 11, 16, 2)):
        tensor = _hand_made(r, s, n, pad, rng)
        entries += [c for slab in tensor for row in slab for c in row]
        _assert_built_like_the_reference(NormedPairing(r, s, n + pad, tensor))
    assert 0 in entries and any(c.denominator > 1 for c in entries)
    # rational entries as strings, and tensors with no slabs or empty slabs
    _assert_built_like_the_reference(NormedPairing(1, 1, 2, [[["3/5", "-4/5"]]]))
    for r, s, n, tensor in ((0, 3, 2, []), (2, 0, 3, [[], []]), (0, 0, 0, [])):
        p = NormedPairing(r, s, n, tensor)
        assert all(coord.is_zero() for coord in p.f.coords)
        _assert_built_like_the_reference(p)


def test_hand_made_pairings_store_their_input():
    # the stored f and its tensor view against the constructor's own input,
    # not against the view: values, term order and the slab/row/target axes
    rng = random.Random(29)
    cases = [(r, s, n + pad, _hand_made(r, s, n, pad, rng))
             for r, s, n, pad in ((1, 1, 2, 1), (2, 1, 2, 0), (3, 2, 4, 2), (4, 3, 4, 1), (5, 5, 8, 0),
                                  (8, 6, 8, 3), (9, 11, 16, 2))]
    cases += [(1, 1, 2, [[["3/5", "-4/5"]]]), (0, 3, 2, []), (2, 0, 3, [[], []]), (0, 0, 0, [])]
    for r, s, n, tensor in cases:
        p = NormedPairing(r, s, n, tensor)
        expected = tuple(tuple(tuple(F(c) for c in row) for row in slab) for slab in tensor)
        assert p.tensor == expected, (r, s, n)
        reference = pairing_terms_reference(r, s, n, expected)
        assert [list(coord.terms.items()) for coord in p.f.coords] == [list(t.items()) for t in reference]


# ---------------------------------------------------------------------------
# the Hurwitz equations against the quartic expansion


def _hurwitz_verdict(r: int, s: int, n: int, tensor) -> bool:
    try:
        NormedPairing(r, s, n, tensor)
    except ValueError as exc:
        assert str(exc) == "tensor does not satisfy the norm identity"
        return False
    return True


def _quartic_verdict(r: int, s: int, n: int, tensor) -> bool:
    """|f(x, y)|^2 = |x|^2 |y|^2, expanded in plain dicts."""
    f = pairing_terms_reference(r, s, n, tensor)
    m = r + s
    xx = {tuple(2 * (v == i) for v in range(m)): F(1) for i in range(r)}
    yy = {tuple(2 * (v == i) for v in range(m)): F(1) for i in range(r, m)}
    return dict_inner(f, f) == dict_mul(xx, yy)


def test_every_built_pairing_passes_both_proofs():
    sizes = [(r, n) for n in range(1, 65) for r in range(1, rho(n) + 1)]
    assert len(sizes) == 168
    for r, n in sizes:
        tensor = normed_pairing(r, n).tensor
        assert _hurwitz_verdict(r, n, n, tensor) and _quartic_verdict(r, n, n, tensor), (r, n)


def _cayley(skew: list[list[F]]) -> list[list[F]]:
    """(I - A)(I + A)^-1 for a skew-symmetric A: a rational orthogonal matrix.

    I + A is invertible, because A has no real eigenvalue but 0; the inverse
    is taken by Gauss-Jordan elimination on the augmented rows."""
    n = len(skew)
    aug = [[F(i == j) + skew[i][j] for j in range(n)] + [F(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                aug[i] = [x - aug[i][col] * y for x, y in zip(aug[i], aug[col])]
    inverse = [row[n:] for row in aug]
    minus = [[F(i == j) - skew[i][j] for j in range(n)] for i in range(n)]
    return [[sum((minus[i][t] * inverse[t][j] for t in range(n)), F(0)) for j in range(n)] for i in range(n)]


def test_cayley_matrices_are_orthogonal():
    q = _cayley([[F(0), F(1), F(2)], [F(-1), F(0), F(1)], [F(-2), F(-1), F(0)]])
    assert q[0] == [F(-3, 7), F(-6, 7), F(-2, 7)]
    assert [[sum(a * b for a, b in zip(u, v)) for v in q] for u in q] == [[F(i == j) for j in range(3)]
                                                                         for i in range(3)]
    assert all(c for row in q for c in row)


@st.composite
def _skew(draw, n: int) -> list[list[F]]:
    upper = draw(st.lists(st.sampled_from([F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2)]),
                          min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    skew = [[F(0)] * n for _ in range(n)]
    for (i, j), x in zip(itertools.combinations(range(n), 2), upper):
        skew[i][j], skew[j][i] = x, -x
    return skew


@st.composite
def _rotated_pairings(draw):
    """normed_pairing(r, n) on the first s coordinates of y, with its target
    and y each turned by a Cayley matrix, and two of its slabs by a rational
    rotation in x: valid and dense, and those two slabs have a denominator
    of their own."""
    n = draw(st.sampled_from([1, 2, 4, 8]))
    r = draw(st.integers(1, rho(n)))
    s = draw(st.integers(1, n))
    q, u = _cayley(draw(_skew(n))), _cayley(draw(_skew(s)))
    slabs = [[[sum((row[t] * q[t][c] for t in range(n)), F(0)) for c in range(n)] for row in slab[:s]]
             for slab in normed_pairing(r, n).tensor]
    tensor = [[[sum((u[j][t] * slab[t][c] for t in range(s)), F(0)) for c in range(n)] for j in range(s)]
              for slab in slabs]
    if r > 1:
        a, b = draw(st.sampled_from(list(itertools.combinations(range(r), 2))))
        cos, sin = draw(st.sampled_from(_PYTHAGOREAN))
        rows = list(zip(tensor[a], tensor[b]))
        tensor[a] = [[cos * x - sin * y for x, y in zip(ra, rb)] for ra, rb in rows]
        tensor[b] = [[sin * x + cos * y for x, y in zip(ra, rb)] for ra, rb in rows]
    return r, s, n, tensor, True


@st.composite
def _random_tensors(draw):
    r, s, n = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entries = st.sampled_from([F(-1), F(0), F(0), F(1), F(1, 2), F(-3, 5), F(4, 5)])
    tensor = draw(st.lists(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=s, max_size=s),
                           min_size=r, max_size=r))
    return r, s, n, tensor, True if r == 0 or s == 0 else None


@st.composite
def _perturbed_pairings(draw):
    """A rotated valid pairing with one entry moved."""
    r, s, n, tensor, _ = draw(_rotated_pairings())
    i, j, c = draw(st.integers(0, r - 1)), draw(st.integers(0, s - 1)), draw(st.integers(0, n - 1))
    tensor[i][j][c] += draw(st.sampled_from([F(1), F(-1), F(1, 3), F(1, 1000)]))
    return r, s, n, tensor, None


@st.composite
def _unit_row_pairings(draw):
    """A rotated valid pairing with one slab copied over another, or one row
    of a slab copied over another row: every row keeps norm 1, and only the
    equations between two slabs, or between two rows of one slab, fail."""
    r, s, n, tensor, _ = draw(_rotated_pairings())
    pairs = [("slab", a, b) for a in range(r) for b in range(r) if a != b]
    pairs += [("row", a, b) for a in range(s) for b in range(s) if a != b]
    if pairs:
        kind, a, b = draw(st.sampled_from(pairs))
        if kind == "slab":
            tensor[b] = [list(row) for row in tensor[a]]
        else:
            slab = tensor[draw(st.integers(0, r - 1))]
            slab[b] = list(slab[a])
    return r, s, n, tensor, None if not pairs else False


@st.composite
def _zero_slab_pairings(draw):
    """A rotated valid pairing with some of its slabs zeroed, or with no
    slabs or empty slabs."""
    r, s, n, tensor, _ = draw(_rotated_pairings())
    zeroed = draw(st.sets(st.integers(0, r - 1), min_size=1))
    tensor = [[[F(0)] * n for _ in range(s)] if i in zeroed else slab for i, slab in enumerate(tensor)]
    return draw(st.sampled_from([(r, s, n, tensor, False), (0, s, n, [], True), (r, 0, n, [[]] * r, True)]))


@pytest.mark.parametrize("r, s, n, tensor", [
    (1, 2, 2, [[["1", "0"], ["1", "0"]]]),  # rows of norm 1 that are not orthogonal
    (2, 2, 2, [[["1", "0"], ["0", "1"]]] * 2),  # orthogonal slabs that do not anticommute
    (2, 1, 2, [[["3/5", "4/5"]], [["4/5", "3/5"]]]),  # a cross equation off by 48/25
])
def test_each_kind_of_hurwitz_equation_is_checked(r, s, n, tensor):
    assert not _hurwitz_verdict(r, s, n, tensor)
    assert not _quartic_verdict(r, s, n, tensor)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.one_of(_rotated_pairings(), _random_tensors(), _perturbed_pairings(), _unit_row_pairings(),
                 _zero_slab_pairings()))
def test_hurwitz_equations_agree_with_the_quartic(case):
    r, s, n, tensor, expected = case
    verdict = _hurwitz_verdict(r, s, n, tensor)
    assert verdict == _quartic_verdict(r, s, n, tensor)
    if expected is not None:
        assert verdict == expected


def test_pairing_infeasible_sizes():
    for r, n in ((2, 1), (3, 2), (5, 4), (9, 8), (10, 16)):
        with pytest.raises(SizeInfeasible) as exc:
            normed_pairing(r, n)
        assert (exc.value.r, exc.value.n) == (r, n)
        assert r > rho(n)


def test_pairing_every_feasible_size_exact():
    for n in (1, 2, 4, 8, 16):
        for r in range(1, rho(n) + 1):
            p = normed_pairing(r, n)
            assert (p.left_dim, p.right_dim, p.target_dim) == (r, n, n)


def test_pairing_constructor_rejects_broken_tensor():
    slabs = [list(list(row) for row in slab) for slab in normed_pairing(2, 2).tensor]
    slabs[1][0][0] += 1
    with pytest.raises(ValueError, match="norm identity"):
        NormedPairing(2, 2, 2, slabs)


def test_pairing_constructor_coerces_the_tensor():
    p = NormedPairing(1, 1, 1, [[["1"]]])
    assert p.tensor == (((F(1),),),)
    assert p == normed_pairing(1, 1)


@pytest.mark.parametrize("tensor", [
    [[["1", "5"]]],  # an extra entry the proved map x1*x2 would not see
    [[["1"]], [["0"]]],  # an extra slab
    [],  # too few slabs
    [[]],  # too few rows
    [[[]]],  # too few entries
])
def test_pairing_constructor_checks_the_tensor_shape(tensor):
    with pytest.raises(ValueError) as err:
        NormedPairing(1, 1, 1, tensor)
    assert str(err.value) == "tensor shape must be 1 x 1 x 1"


def test_pairing_document_of_an_accepted_tensor_reads_back():
    p = NormedPairing(1, 2, 2, [[["1", "0"], ["0", "1"]]])
    assert cli.pairing_from_obj(cli.pairing_to_doc(p)) == p


def test_pairing_sizes_must_be_positive():
    for r, n in ((0, 4), (1, 0)):
        with pytest.raises(ValueError) as err:
            normed_pairing(r, n)
        assert str(err.value) == "sizes must be positive"


def test_pairing_checked_rejects_broken_tensor():
    p = normed_pairing(2, 2)
    slabs = [list(list(row) for row in slab) for slab in p.tensor]
    slabs[1][0][0] += 1
    with pytest.raises(ValueError):
        NormedPairing.checked(2, 2, 2, tuple(tuple(tuple(row) for row in slab) for slab in slabs))


# ---------------------------------------------------------------------------
# binomial parity obstruction


def test_stiefel_frozen_example():
    feasible, count, violations = stiefel_hopf_feasible(3, 5, 6)
    assert not feasible
    assert count == 1
    assert list(violations) == [4]


def test_stiefel_against_math_comb():
    rng = random.Random(15)
    for _ in range(200):
        r = rng.randint(1, 12)
        s = rng.randint(1, 12)
        n = rng.randint(1, 20)
        feasible, count, violations = stiefel_hopf_feasible(r, s, n)
        expected = [k for k in range(max(n - r + 1, 0), min(s, n + 1))
                    if math.comb(n, k) % 2 == 1]
        assert list(violations) == expected
        assert feasible == (not expected)
        assert count == len(expected)


def test_stiefel_counts_and_lists_the_submasks_in_every_range():
    # every [lo, hi) against n, including ranges that start off a submask
    for n in range(1, 80):
        for r in range(1, n + 2):
            for s in range(1, n + 3):
                feasible, count, violations = stiefel_hopf_feasible(r, s, n)
                expected = [k for k in range(max(n - r + 1, 0), min(s, n + 1)) if k & n == k]
                assert (feasible, count, list(violations)) == (not expected, len(expected), expected)


def test_stiefel_counts_without_listing():
    # every k below 2^20 is a submask of 2^20 - 1; only the 64 taken are built
    tracemalloc.start()
    try:
        feasible, count, violations = stiefel_hopf_feasible(2**20, 2**20, 2**20 - 1)
        listed = list(itertools.islice(violations, 64))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (feasible, count, listed) == (False, 2**20, list(range(64)))
    assert peak < 64 * 1024


def test_stiefel_square_sizes_from_pairings():
    # existence (r <= rho(n)) implies the parity condition cannot object
    for n in (1, 2, 4, 8, 16, 32):
        for r in range(1, rho(n) + 1):
            feasible, _, _ = stiefel_hopf_feasible(r, n, n)
            assert feasible


def test_stiefel_rejects_nonpositive():
    with pytest.raises(ValueError):
        stiefel_hopf_feasible(0, 1, 1)


# ---------------------------------------------------------------------------
# induced sphere maps and roundings


def test_hopf_map_smallest_frozen():
    sm = hopf_map(normed_pairing(1, 1))
    assert sm.f.coords[0] == Poly(2, {(1, 1): 2})
    assert sm.f.coords[1] == Poly(2, {(2, 0): 1, (0, 2): -1})
    # the unit circle double covers: angle theta doubles
    for th in (0.3, 1.2, 2.9):
        u = [math.cos(th), math.sin(th)]
        image = sm.f.eval_float(u)
        assert abs(image[0] - math.sin(2 * th)) < 1e-12
        assert abs(image[1] - math.cos(2 * th)) < 1e-12


def test_hopf_map_classical_fibration():
    sm = hopf_map(normed_pairing(2, 2))
    assert sm.source_dim == 4 and sm.target_dim == 3
    f = [as_dict(c) for c in sm.f.coords]
    norm = {(0, 0, 0, 0): F(1)}
    total = dict_inner(f, f)
    unit = {tuple(2 * (v == i) for v in range(4)): F(1) for i in range(4)}
    assert total == dict_mul(unit, unit)


def test_hopf_map_large_instance():
    sm = hopf_map(normed_pairing(9, 16))
    assert sm.source_dim == 25 and sm.target_dim == 17
    assert sm.diag == (F(1),) * 25


def test_pairing_to_rounding_frozen():
    fq = pairing_to_rounding(normed_pairing(2, 2))
    assert not fq.is_germ
    assert fq((F(1), F(0), F(5), F(-7))) == (F(5), F(-7))
    assert fq((F(0), F(1), F(2), F(3))) == (F(-3), F(2))
    # |f(x, y)|^2 / |x|^4 = |y|^2 / |x|^2: the image radius is |y| / |x|
    got = fq((F(2), F(0), F(0), F(3)))
    assert sum(c * c for c in got) == F(9, 4)


def test_corrupted_norm_product_fails_the_rounding_certificate(monkeypatch, capsys):
    # normed_pairing built the tensor itself, so a failed identity is a defect;
    # doubling every entry the check reads quadruples |f(x, y)|^2
    real = cliff._hurwitz_equations_hold
    monkeypatch.setattr(cliff, "_hurwitz_equations_hold",
                        lambda r, s, entries: real(r, s, [(i, j, c, 2 * x) for i, j, c, x in entries]))
    with pytest.raises(CertificateError, match=r"pairing \[2, 2, 2\]"):
        normed_pairing(2, 2)
    for argv in (["pairing", "2", "2"], ["hopf", "--size", "2", "2"]):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("rounding-forge: error: certificate failed: "
                       "pairing [2, 2, 2]: tensor does not satisfy the norm identity\n")


def _hopf_oracle(pairing):
    """(2F, |x|^2 - |y|^2) and |x|^2 + |y|^2 as plain dicts."""
    r, m = pairing.left_dim, pairing.left_dim + pairing.right_dim
    xx = {tuple(2 * (v == i) for v in range(m)): F(1) for i in range(r)}
    yy = {tuple(2 * (v == i) for v in range(m)): F(1) for i in range(r, m)}
    f = [{e: 2 * c for e, c in as_dict(c).items()} for c in pairing.f.coords]
    f.append(dict_add(xx, {e: -c for e, c in yy.items()}))
    return f, dict_add(xx, yy)


def test_hopf_map_of_every_feasible_pairing_oracle():
    for n in range(1, 17):
        for r in range(1, rho(n) + 1):
            pairing = normed_pairing(r, n)
            sm = hopf_map(pairing)
            f, gram = _hopf_oracle(pairing)
            assert [as_dict(c) for c in sm.f.coords] == f
            assert as_dict(sm.gram.to_poly()) == gram
            assert dict_inner(f, f) == dict_mul(gram, gram)
            m = r + n
            assert sm.lower == tuple(tuple(F(int(i == j)) for j in range(m)) for i in range(m))
            assert sm.diag == (F(1),) * m


SP = cliff._SignedPerm


def _pairing_jet(pairing):
    """The closed-form jet of a pairing: A = f(e1, y), B = f(x, y) - 2 x1 f(e1, y)."""
    r, n = pairing.left_dim, pairing.right_dim
    a = PolyMap.from_linear_matrix(
        [[0] * r + [pairing.tensor[0][j][c] for j in range(n)] for c in range(pairing.target_dim)])
    x1 = Poly.variable(r + n, 0)
    return Jet2(a, PolyMap(r + n, [fc - 2 * x1 * ac for fc, ac in zip(pairing.f.coords, a.coords)]))


def test_pairing_jet_factors_and_lifts_to_the_hopf_map():
    # the bridge from a pairing to a rounding: the closed-form jet validates
    # with rank n and is degenerate, and the sphere lift of its reduced jet
    # has the source, target and gram of the pairing's Hopf map
    sizes = [(r, n) for n in range(1, 17) for r in range(1, rho(n) + 1) if (r, n) != (1, 1)]
    assert len(sizes) == 40
    for r, n in sizes:
        pairing = normed_pairing(r, n)
        rj = validate_jet(_pairing_jet(pairing))
        assert rj.rank == n
        degenerate, witness = is_degenerate(rj)
        assert degenerate
        assert rj.jet.linear(witness) == (0,) * n
        _, reduced = factor_degenerate(rj)
        lift, hopf = sphere_lift(reduced), hopf_map(pairing)
        assert (lift.source_dim, lift.target_dim) == (hopf.source_dim, hopf.target_dim), (r, n)
        assert lift.gram == hopf.gram, (r, n)


# (r, n): signed permutations S of the source and T of the target with
# hopf_map(P)(x) = T^T sphere_lift(reduced)(S x), found by a search outside
# the test. SP(perm, signs) has signs[j] at row perm[j] of column j
_LIFT_TO_HOPF = {
    (2, 2): (SP((0, 3, 1, 2), (1, 1, 1, -1)), SP((1, 0, 2), (1, 1, 1))),
    (3, 4): (SP((0, 1, 6, 2, 5, 3, 4), (1, 1, 1, 1, -1, -1, 1)), SP((1, 2, 0, 3, 4), (1, 1, 1, 1, 1))),
    (4, 4): (SP((0, 1, 2, 7, 3, 6, 5, 4), (1, 1, 1, -1, 1, -1, 1, 1)), SP((1, 2, 3, 0, 4), (1, 1, 1, -1, 1))),
}


@pytest.mark.parametrize("r, n", sorted(_LIFT_TO_HOPF))
def test_reduced_lift_is_the_hopf_map_up_to_signed_permutations(r, n):
    # coordinate c of the Hopf map has the Fraction matrix T_c S^T L S, where
    # L is the matrix of the lift's coordinate perm_T[c] and T_c its sign
    source, target = _LIFT_TO_HOPF[r, n]
    for g in (source, target):
        assert sorted(g.perm) == list(range(g.dim))
    pairing = normed_pairing(r, n)
    _, reduced = factor_degenerate(validate_jet(_pairing_jet(pairing)))
    lift, hopf = sphere_lift(reduced), hopf_map(pairing)
    assert (lift.source_dim, lift.target_dim) == (source.dim, target.dim)
    p, s = source.perm, source.signs

    def moved(matrix, sign):
        return tuple(tuple(sign * s[i] * s[j] * matrix[p[i]][p[j]] for j in range(len(p))) for i in range(len(p)))

    lifted = [polycore.QuadForm.from_poly(coord).matrix for coord in lift.f.coords]
    for c, coord in enumerate(hopf.f.coords):
        assert moved(lifted[target.perm[c]], target.signs[c]) == polycore.QuadForm.from_poly(coord).matrix, c
    # S is orthogonal, so it carries the shared gram form onto itself
    assert moved(lift.gram.matrix, 1) == hopf.gram.matrix


def test_hopf_map_and_rounding_reuse_the_pairing_proof(monkeypatch):
    pairing = normed_pairing(3, 4)
    sm, fq = hopf_map(pairing), pairing_to_rounding(pairing)

    def reproved(*args, **kwargs):
        raise RuntimeError("the pairing identity was expanded again")

    monkeypatch.setattr(spheres.QuadSphereMap, "checked", staticmethod(reproved))
    for module, name in ((cliff, "_hurwitz_equations_hold"), (spheres, "inner_poly"), (spheres, "poly_divmod"),
                         (polycore, "inner_poly"), (polycore, "poly_divmod"), (polycore, "divide_exact")):
        monkeypatch.setattr(module, name, reproved)
    assert hopf_map(pairing) == sm
    assert pairing_to_rounding(pairing) == fq


HURWITZ = "pairing [{r}, {n}, {n}]: tensor does not satisfy the norm identity"


def _tampered(monkeypatch, k):
    """The generators of k > 8 built over an eight-tuple whose first
    generator is replaced by its second: its volume element squares to -1."""
    eight = cliff._generator_perms(8)
    cached = cliff._generator_perms
    with monkeypatch.context() as patch:
        patch.setattr(cliff, "_generator_perms", lambda j: (eight[1],) + eight[1:] if j == 8 else cached(j))
        return cached.__wrapped__(k)


# (k, generator tuple, message); {r} and {n} are the pairing's size
@pytest.mark.parametrize("k, perms, message", [
    (1, lambda mp: (SP((0, 0), (1, 1)),), "generator 0 is not a permutation"),
    (1, lambda mp: (SP((1, 2), (1, -1)),), "generator 0 is not a permutation"),
    (1, lambda mp: (SP((1, -1), (1, -1)),), "generator 0 is not a permutation"),
    (1, lambda mp: (SP.eye(2),), HURWITZ),
    # squares to -1, but the signs 2 and -1/2 stretch one axis
    (1, lambda mp: (SP((1, 0), (F(2), F(-1, 2))),), HURWITZ),
    (2, lambda mp: (cliff._generator_perms(2)[0],) * 2, HURWITZ),
    (9, lambda mp: _tampered(mp, 9), HURWITZ),
    (12, lambda mp: _tampered(mp, 12), HURWITZ),
], ids=["repeated-entry", "out-of-range", "negative", "identity", "stretched", "repeated-generator",
        "tampered-9", "tampered-12"])
def test_corrupted_generators_fail_the_pairing_certificate(monkeypatch, capsys, k, perms, message):
    # the Hurwitz equations of the pairing [I, E_1, ..., E_k] are the one
    # certificate of a generator system, behind a permutation check
    perms = perms(monkeypatch)
    cached = cliff._generator_perms
    monkeypatch.setattr(cliff, "_generator_perms", lambda j: perms if j == k else cached(j))
    d = perms[0].dim
    # normed_pairing fails on one block and on two, and the CLI reports the
    # same failure on one line wherever it takes the size
    for n in (d, 2 * d):
        expected = message.format(r=k + 1, n=n)
        with pytest.raises(CertificateError) as err:
            normed_pairing(k + 1, n)
        assert str(err.value) == expected
        if n > cli.MAX_PAIRING_N:
            continue  # k = 12 needs R^128, past the sizes the CLI takes
        capsys.readouterr()
        assert cli.main(["pairing", str(k + 1), str(n)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"rounding-forge: error: certificate failed: {expected}\n"


def test_each_generator_system_is_verified_once(monkeypatch):
    proved = []
    real = cliff._hurwitz_equations_hold
    monkeypatch.setattr(cliff, "_hurwitz_equations_hold",
                        lambda r, s, entries: proved.append((r, s)) or real(r, s, entries))
    cliff._generator_perms.cache_clear()
    # each build proves the slabs it stores exactly once
    p = normed_pairing(9, 16)
    assert proved == [(9, 16)]
    assert normed_pairing(9, 16) == p
    assert proved == [(9, 16), (9, 16)]
    # the generators are built once per k: 8, and the 7 it doubles
    info = cliff._generator_perms.cache_info()
    assert (info.misses, info.currsize, info.hits) == (2, 2, 1)
    # a different generator tuple is proved on its own
    negated = tuple(SP(g.perm, tuple(-s for s in g.signs)) for g in cliff._generator_perms(8))
    cached = cliff._generator_perms
    monkeypatch.setattr(cliff, "_generator_perms", lambda k: negated if k == 8 else cached(k))
    other = normed_pairing(9, 16)
    assert other != p
    assert proved == [(9, 16)] * 3


@pytest.mark.parametrize("bad", [True, False, 4.0, "4", F(4), None])
def test_sizes_must_be_ints(bad):
    calls = [
        ("n", lambda: rho(bad)),
        ("m", lambda: kappa(bad)),
        ("r", lambda: normed_pairing(bad, 2)),
        ("n", lambda: normed_pairing(2, bad)),
        ("r", lambda: stiefel_hopf_feasible(bad, 1, 1)),
        ("s", lambda: stiefel_hopf_feasible(1, bad, 1)),
        ("n", lambda: stiefel_hopf_feasible(1, 1, bad)),
        ("left_dim", lambda: NormedPairing(bad, 1, 1, [[["1"]]])),
        ("right_dim", lambda: NormedPairing(1, bad, 1, [[["1"]]])),
        ("target_dim", lambda: NormedPairing(1, 1, bad, [[["1"]]])),
    ]
    for name, call in calls:
        with pytest.raises(TypeError) as err:
            call()
        assert str(err.value) == f"{name} must be an int, got {bad!r}"


def test_oversized_generators_fail_the_block_certificate(monkeypatch):
    # two valid generators on R^8 cannot tile R^4
    cached = cliff._generator_perms
    monkeypatch.setattr(cliff, "_generator_perms", lambda j: cached(7)[:2] if j == 2 else cached(j))
    with pytest.raises(CertificateError, match="block size 8"):
        normed_pairing(3, 4)
