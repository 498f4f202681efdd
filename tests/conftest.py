"""Shared fixtures: the named example jets, random valid-jet generators built
from normed pairings, and small independent oracles (plain-dict polynomial
expansion, hand-coded quaternion arithmetic, dense LDL^T, Lagrange's
congruent diagonalization, a quadratic form's value from its matrix rows,
a pairing's map from its tensor, a built pairing's dense tensor, a packed
key's factors read field by field, the per-term sampling oracle with its
one-line-at-a-time circle fit, a jet built one form and one row at a time) used to cross-check the package without
touching its own arithmetic."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from rounding_forge import circles, cliff, polycore
from rounding_forge.circles import CircleFit, NumericReport
from rounding_forge.jets import Jet2, transform_jet
from rounding_forge.polycore import Poly, PolyMap, QuadForm

# ---------------------------------------------------------------------------
# independent expansion oracle: polynomials as plain {exponents: Fraction}
# dicts, multiplied and added with fresh code


def dict_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def dict_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c != 0}


def dict_inner(coords_a: list[dict], coords_b: list[dict]) -> dict:
    total: dict = {}
    for a, b in zip(coords_a, coords_b):
        total = dict_add(total, dict_mul(a, b))
    return total


def as_dict(p: Poly) -> dict:
    return dict(p.terms)


def grlex_key(exps: tuple) -> tuple:
    # graded lexicographic with x1 < x2 < ...: total degree, then the later
    # variables' exponents first
    return (sum(exps), tuple(reversed(exps)))


def poly_str_reference(p: Poly) -> str:
    """Terms in descending grlex order, written from the Fraction terms."""
    bits = []
    for e in sorted(p.terms, key=grlex_key, reverse=True):
        c = p.terms[e]
        mono = "*".join(f"x{i + 1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k)
        bits.append(f"{c}" if not mono else mono if c == 1 else f"-{mono}" if c == -1 else f"{c}*{mono}")
    return " + ".join(bits).replace("+ -", "- ") if bits else "0"


# reference float evaluation: one direct loop over the terms, converting
# each coefficient and coordinate where it is used; the compiled evaluator
# must match it bit for bit


def eval_float_reference(p: Poly, point) -> float:
    if len(point) != p.num_vars:
        raise ValueError("point dimension mismatch")
    total = 0.0
    for e, c in p.terms.items():
        term = float(c)
        for v, k in zip(point, e):
            if k:
                term *= float(v) ** k
        total += term
    return total


# reference sampling oracle: the per-term loop the package's oracle ran
# before it compiled its maps into one power table per point, fitting one
# line at a time with the circle fit it had before stacked fitting. Each
# coordinate is converted once to float terms; at every sampled point each
# term multiplies its coefficient by x[v] ** k, variable by variable, and
# the terms are added in stored order. The package's reports must match it
# field for field, max_residual to the bit.


def _reference_float_terms(p: Poly, name: str) -> list:
    try:
        return [(float(c), [(v, k) for v, k in enumerate(e) if k]) for e, c in p.terms.items()]
    except OverflowError:
        raise ValueError(f"{name} has a coefficient outside float range") from None


def _reference_eval(terms: list, x: list) -> float:
    total = 0.0
    for term, factors in terms:
        for v, k in factors:
            term *= x[v] ** k
        total += term
    return total


def _reference_max_distance(points: np.ndarray, fit: CircleFit) -> float:
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


def circle_fit_reference(points) -> CircleFit:
    """The package's circle fit as it was before it fitted lines in stacks:
    one sample set at a time. The stacked fit must match every field of it
    bit for bit, and raise the same ValueError."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 5:
        raise ValueError("need at least 5 points")
    with np.errstate(over="ignore", invalid="ignore"):
        centroid = pts.mean(axis=0)
        centered = pts - centroid
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
        return replace(fit, residual=_reference_max_distance(pts, fit))

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


def _reference_lines(fmap, trials: int, seed: int):
    """Each trial's sampled points, or None when its line is skipped, and
    the number of parameters its line read."""
    numerators, denominator = circles._as_numeric_pair(fmap)
    m = denominator.num_vars
    den_terms = _reference_float_terms(denominator, "Q")
    num_terms = [_reference_float_terms(p, f"F[{i}]") for i, p in enumerate(numerators)]
    points_per_line = circles._POINTS_PER_LINE
    rng = random.Random(seed)
    for trial in range(trials):
        if trial % 2 == 0:
            base = [0.0] * m
        else:
            base = [rng.uniform(-1.0, 1.0) for _ in range(m)]
        direction = [rng.uniform(-1.0, 1.0) for _ in range(m)]
        while not any(abs(d) > 1e-3 for d in direction):
            direction = [rng.uniform(-1.0, 1.0) for _ in range(m)]
        pts = []
        for read in range(1, 60 * points_per_line + 1):
            t = rng.uniform(-2.0, 2.0)
            x = [b + t * d for b, d in zip(base, direction)]
            qv = _reference_eval(den_terms, x)
            if abs(qv) < circles._GUARD * (1.0 + t * t):
                continue
            pts.append([_reference_eval(terms, x) / qv for terms in num_terms])
            if len(pts) >= points_per_line:
                break
        yield (pts if len(pts) >= points_per_line else None), read


def reference_parameters_read(fmap, trials: int, seed: int) -> list[int]:
    """The parameters each trial's line reads: 16 when all of its first 16
    clear the guard, 960 when the line is skipped."""
    return [read for _, read in _reference_lines(fmap, trials, seed)]


def numeric_oracle_reference(fmap, trials: int = 100, seed: int = 0, tol: float = 1e-7) -> NumericReport:
    violations: list = []
    skipped: list = []
    max_residual = 0.0
    for trial, (pts, _) in enumerate(_reference_lines(fmap, trials, seed)):
        if pts is None:
            skipped.append(trial)
            continue
        fit = circle_fit_reference(pts)
        max_residual = max(max_residual, fit.residual)
        if fit.residual > tol:
            violations.append(trial)
    return NumericReport(trials=trials, seed=seed, tol=tol, points_per_line=circles._POINTS_PER_LINE,
                         max_residual=max_residual, violations=tuple(violations), skipped=tuple(skipped))


def jet_by_forms_reference(linear_rows, quad_matrices) -> Jet2:
    """The jet of the matrices built one row and one form at a time: each
    row by Poly.linear and each matrix by QuadForm(mat).to_poly(), each
    cleared on its own."""
    if not quad_matrices:
        raise ValueError("need at least one form")
    m = len(linear_rows[0]) if linear_rows else 0
    lin = PolyMap(m, [Poly.linear(row) for row in linear_rows])
    forms = [QuadForm(mat) for mat in quad_matrices]
    return Jet2(lin, PolyMap(forms[0].dim, [f.to_poly() for f in forms]))


def identity_form(n: int) -> QuadForm:
    return QuadForm(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def quadform_value_reference(matrix, x) -> Fraction:
    """x^T M x as the sum over rows i of x_i * (row_i . x), in Fractions."""
    x = [Fraction(v) for v in x]
    total = Fraction(0)
    for xi, row in zip(x, matrix):
        total += xi * sum((Fraction(mij) * xj for mij, xj in zip(row, x)), Fraction(0))
    return total


def pairing_terms_reference(left_dim: int, right_dim: int, target_dim: int, tensor) -> list[dict]:
    """The coordinates of f(x, y) = sum_ij tensor[i][j][c] x_i y_j, each an
    {exponents: Fraction} dict of its nonzero terms in (i, j) order, built
    one coordinate at a time."""
    m = left_dim + right_dim
    coords = []
    for c in range(target_dim):
        terms = {}
        for i in range(left_dim):
            for j in range(right_dim):
                coeff = Fraction(tensor[i][j][c])
                if coeff:
                    terms[tuple(int(v == i or v == left_dim + j) for v in range(m))] = coeff
        coords.append(terms)
    return coords


def pairing_tensor_reference(r: int, n: int) -> tuple:
    """The dense [r, n, n] tensor of the block-diagonal Clifford pairing, built
    slab by slab from the identity and the generators' signed permutations."""
    perms = cliff._generator_perms(r - 1)
    d = perms[0].dim if perms else 1
    tensor = [[[Fraction(0)] * n for _ in range(n)] for _ in range(r)]
    for i, gen in enumerate((cliff._SignedPerm.eye(d), *perms)):
        for block in range(n // d):
            off = block * d
            for col in range(d):
                tensor[i][off + col][off + gen.perm[col]] = Fraction(gen.signs[col])
    return tuple(tuple(tuple(row) for row in slab) for slab in tensor)


def factors_reference(key: int, num_vars: int) -> tuple[int, ...]:
    """The variable of each factor of a packed monomial key, in increasing
    order, read off every one of its num_vars fields in turn."""
    bits, mask = polycore._FIELD_BITS, polycore._FIELD_MASK
    return tuple([i for i in range(num_vars) for _ in range((key >> (bits * i)) & mask)])


# dense matrix products on lists of rationals, for checking factorizations


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def matmul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions differ")
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


# reference LDL^T: the dense O(n^3) loop, zero products included


def ldl_dense_reference(s):
    a = [[Fraction(x) for x in row] for row in s]
    n = len(a)
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    diag: list = []
    for j in range(n):
        d = a[j][j] - sum(lower[j][k] * lower[j][k] * diag[k] for k in range(j))
        if d <= 0:
            raise ValueError("matrix is not positive definite")
        diag.append(d)
        for i in range(j + 1, n):
            off = a[i][j] - sum(lower[i][k] * lower[j][k] * diag[k] for k in range(j))
            lower[i][j] = off / d
    return lower, diag


# reference congruent diagonalization: Lagrange's method in Fractions with a
# full basis-change matrix, the route the package took before its
# fraction-free symmetric elimination


def lagrange_reference(s):
    """(P, diag) with P^T S P = diag(diag), checked before returning.

    A zero pivot swaps with the first later nonzero diagonal entry; if there
    is none, e_k <- e_k + e_j for the first nonzero S[k][j]; otherwise the
    row is zero and skipped.
    """
    a = [[Fraction(x) for x in row] for row in s]
    n = len(a)
    p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def add_col(dst, src, f):
        for i in range(n):
            a[i][dst] += f * a[i][src]
        for j in range(n):
            a[dst][j] += f * a[src][j]
        for i in range(n):
            p[i][dst] += f * p[i][src]

    def swap(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]
        for r in range(n):
            p[r][i], p[r][j] = p[r][j], p[r][i]

    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if j is not None:
                swap(k, j)
            else:
                j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if j is None:
                    continue
                add_col(k, j, Fraction(1))
        d = a[k][k]
        for i in range(k + 1, n):
            if a[k][i] != 0:
                add_col(i, k, -a[k][i] / d)
    diag = [a[i][i] for i in range(n)]
    pt_s_p = matmul(matmul(transpose(p), [[Fraction(x) for x in row] for row in s]), p)
    if pt_s_p != [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]:
        raise AssertionError("P^T S P is not diagonal")
    return p, diag


# Hypothesis inputs for the integer-numerator kernels: nonzero numerators of
# either sign over mixed denominators, large primes among them, so that the
# shared lcm is big; empty dictionaries give zero polynomials.
mixed_coeffs = st.builds(
    Fraction,
    st.integers(-10**6, 10**6).filter(bool),
    st.sampled_from([1, 2, 3, 12, 97, 65537, 1000003, 2**61 - 1]),
)


def mixed_polys(num_vars: int, max_deg: int):
    exps = st.tuples(*(st.integers(0, max_deg) for _ in range(num_vars))).filter(
        lambda e: sum(e) <= max_deg
    )
    return st.dictionaries(exps, mixed_coeffs, max_size=5).map(lambda d: Poly(num_vars, d))


# ---------------------------------------------------------------------------
# independent quaternion arithmetic (explicit multiplication table)

_QUAT_TABLE = {
    (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
    (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
    (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
    (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
}


def quat_mul(a, b):
    out = [0, 0, 0, 0]
    for i in range(4):
        if not a[i]:
            continue
        for j in range(4):
            if not b[j]:
                continue
            k, s = _QUAT_TABLE[(i, j)]
            out[k] += s * a[i] * b[j]
    return tuple(out)


def quat_conj(a):
    return (a[0], -a[1], -a[2], -a[3])


def quat_inv(a):
    n = sum(x * x for x in a)
    c = quat_conj(a)
    return tuple(x / n for x in c)


# ---------------------------------------------------------------------------
# named example jets


def complex_square_jet() -> Jet2:
    """Identity plus the complex squaring map on R^2."""
    lin = PolyMap.identity(2)
    quad = PolyMap(2, [Poly(2, {(2, 0): 1, (0, 2): -1}), Poly(2, {(1, 1): 2})])
    return Jet2(lin, quad)


def quaternion_jet() -> Jet2:
    """Source (x1, x2, x3, y0..y3); linear part y, quadratic part -x*y."""
    m = 7
    lin = PolyMap(m, [Poly.variable(m, 3 + i) for i in range(4)])

    def e(i, j):
        v = [0] * m
        v[i] += 1
        v[j] += 1
        return tuple(v)

    # -(x1 i + x2 j + x3 k)(y0 + y1 i + y2 j + y3 k), coordinates 1,i,j,k
    coords = [
        Poly(m, {e(0, 4): 1, e(1, 5): 1, e(2, 6): 1}),
        Poly(m, {e(0, 3): -1, e(1, 6): -1, e(2, 5): 1}),
        Poly(m, {e(1, 3): -1, e(2, 4): -1, e(0, 6): 1}),
        Poly(m, {e(2, 3): -1, e(0, 5): -1, e(1, 4): 1}),
    ]
    return Jet2(lin, PolyMap(m, coords))


def flat_degenerate_jet() -> Jet2:
    """(x1, x2, 0)-style jet on R^3 with zero quadratic part."""
    lin = PolyMap.from_linear_matrix([[1, 0, 0], [0, 1, 0]])
    return Jet2(lin, PolyMap.zero(3, 2))


# ---------------------------------------------------------------------------
# randomized valid jets via normed pairings: with Y linear onto R^n and P
# linear into R^r, the jet (Y, f(P(.), Y(.))) is valid by construction, and
# a random reparametrization scrambles it without changing validity


def rand_fraction(rng: random.Random, span: int = 3, dens=(1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice(dens))


def rand_linear_rows(rng: random.Random, rows: int, cols: int) -> list[list[Fraction]]:
    return [[rand_fraction(rng) for _ in range(cols)] for _ in range(rows)]


def _admissible_r(rng: random.Random, n: int) -> int:
    choices = [r for r in range(1, cliff.rho(n) + 1)]
    return rng.choice(choices)


def random_valid_jet(rng: random.Random, m: int | None = None, n: int | None = None,
                     scramble: bool = True) -> Jet2:
    from rounding_forge.polycore import rank_linear

    n = n if n is not None else rng.randint(2, 6)
    m = m if m is not None else rng.randint(2, 6)
    while True:
        y_rows = rand_linear_rows(rng, n, m)
        y_map = PolyMap.from_linear_matrix(y_rows)
        if rank_linear(y_map) >= 2:
            break
    r = _admissible_r(rng, n)
    pairing = cliff.normed_pairing(r, n)
    p_rows = rand_linear_rows(rng, r, m)
    p_polys = [Poly.linear(row) for row in p_rows]
    y_polys = [Poly.linear(row) for row in y_rows]
    coords = []
    for c in range(n):
        total = Poly.zero(m)
        for i in range(r):
            for j in range(n):
                coeff = pairing.tensor[i][j][c]
                if coeff:
                    total = total + coeff * (p_polys[i] * y_polys[j])
        coords.append(total)
    jet = Jet2(y_map, PolyMap(m, coords))
    if scramble:
        lam = Fraction(0)
        while lam == 0:
            lam = rand_fraction(rng)
        ell = Poly.linear([rand_fraction(rng) for _ in range(m)])
        jet = transform_jet(jet, lam, ell)
    return jet


@pytest.fixture(scope="session")
def jet_pool():
    """200 randomized valid jets shared by the acceptance criteria."""
    rng = random.Random(20260814)
    return [random_valid_jet(rng) for _ in range(200)]


# ---------------------------------------------------------------------------
# acceptance criteria reporting: one line per criterion in the terminal
# summary, visible in plain `pytest -v` runs

_CRITERIA: dict[int, str] = {}
_RESULTS: dict[int, str] = {}


def register_criterion(number: int, description: str) -> None:
    _CRITERIA[number] = description


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if name.startswith("test_criterion_"):
        try:
            number = int(name.split("_")[2])
        except (IndexError, ValueError):
            return
        _RESULTS[number] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_RESULTS):
        desc = _CRITERIA.get(number, "")
        terminalreporter.write_line(f"criterion {number:>2}: {_RESULTS[number]}  {desc}")
