"""Seeded benchmark inputs, built without the package under test.

Valid 2-jets come from normed pairings, the construction the test suite's
random jet generator uses: with Y linear onto R^n and P linear into R^r, the
jet (Y, f(P x, Y x)) rounds lines to circles. Here f is left multiplication
in a Cayley-Dickson algebra of dimension d in {1, 2, 4, 8}, repeated on the
n/d blocks of R^n. Since f(u, y) = u_0 y + sum_i u_i L_i y with every L_i
skew and orthogonal, the division witnesses are known in closed form,
p = P_0 x and q = |P x|^2, and the random reparametrization
(A, B) -> (lam A, lam^2 B + ell A) sends them to lam p + ell/lam and
lam^2 q + 2 ell p + ell^2/lam^2. Every expected value below is therefore
exact and computed from the construction, never by the package.

A jet is degenerate exactly when some nonzero x has Y x = 0 and
P_i x = 0 for i >= 1 (q - p^2 = sum_{i>=1} (P_i x)^2 is semidefinite), so
the expected verdict is a rank test. Jets pulled back through a projection
R^m -> R^k with k < m are degenerate by construction.

Every pool is a list of "decks": each deck holds a fixed multiset of shapes
in a seeded order with fresh random coefficients, so runs with different
seeds do the same mix of work.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle

F = Fraction

# ---------------------------------------------------------------------------
# normed pairings from Cayley-Dickson algebras


def _cd_mul(x: list[int], y: list[int]) -> list[int]:
    """(a, b)(c, d) = (a c - conj(d) b, d a + b conj(c))."""
    if len(x) == 1:
        return [x[0] * y[0]]
    h = len(x) // 2
    a, b, c, d = x[:h], x[h:], y[:h], y[h:]

    def conj(v):
        return [v[0]] + [-t for t in v[1:]]

    ac, db = _cd_mul(a, c), _cd_mul(conj(d), b)
    da, bc = _cd_mul(d, a), _cd_mul(b, conj(c))
    return [s - t for s, t in zip(ac, db)] + [s + t for s, t in zip(da, bc)]


def hurwitz_radon(n: int) -> int:
    s = (n & -n).bit_length() - 1
    a, b = divmod(s, 4)
    return 8 * a + (1 << b)


def pairing_entries(r: int, n: int) -> list[tuple[int, int, int, int]]:
    """Nonzero entries (i, j, c, sign) of a normed [r, n, n] tensor, r <= 8."""
    d = next(d for d in (1, 2, 4, 8) if d >= r)
    if n % d:
        raise ValueError(f"no Cayley-Dickson pairing of size [{r}, {n}, {n}]")
    out = []
    for i in range(r):
        for j in range(d):
            prod = _cd_mul([int(t == i) for t in range(d)], [int(t == j) for t in range(d)])
            c = next(t for t, v in enumerate(prod) if v)
            for block in range(0, n, d):
                out.append((i, block + j, block + c, prod[c]))
    return out


# ---------------------------------------------------------------------------
# jets


def rand_frac(rng: random.Random, dens=(1, 2, 3)) -> Fraction:
    return F(rng.randint(-3, 3), rng.choice(dens))


def _rand_rows(rng, rows, cols):
    return [[rand_frac(rng) for _ in range(cols)] for _ in range(rows)]


def _sym_outer(u, v):
    return [[(u[a] * v[b] + u[b] * v[a]) / 2 for b in range(len(u))] for a in range(len(u))]


@dataclass
class JetCase:
    """A jet as plain rational matrices, with what the package must answer.

    A is n x m, B holds n symmetric m x m matrices. For a valid jet p is the
    coefficient vector of the linear witness and q the matrix of the
    quadratic one; a perturbed jet has p = q = None and must be rejected
    with NotDivisible on <A,B>.
    """

    m: int
    n: int
    r: int
    A: list
    B: list
    p: list | None
    q: list | None
    degenerate: bool | None
    lines: list = field(default_factory=list)

    @property
    def perturbed(self) -> bool:
        return self.p is None

    def doc(self) -> dict:
        return {
            "kind": "jet",
            "m": self.m,
            "n": self.n,
            "A": [[str(x) for x in row] for row in self.A],
            "B": [[[str(x) for x in row] for row in mat] for mat in self.B],
        }

    def denominator_at(self, x: list) -> Fraction:
        """1 - 2p(x) + q(x) for the expected witnesses."""
        px = sum(c * v for c, v in zip(self.p, x))
        qx = sum(x[s] * sum(c * v for c, v in zip(row, x)) for s, row in enumerate(self.q))
        return 1 - 2 * px + qx

    def canonical(self) -> tuple[list[dict], dict]:
        """Expected canonical numerator (A + B - 2pA) and denominator 1 - 2p + q."""
        p = oracle.linear(self.p)
        numer = []
        for row, mat in zip(self.A, self.B):
            a = oracle.linear(row)
            numer.append(oracle.add(a, oracle.quadratic(mat), oracle.scale(oracle.mul(p, a), -2)))
        denom = oracle.add(oracle.constant(self.m, 1), oracle.scale(p, -2), oracle.quadratic(self.q))
        return numer, denom


def make_jet(rng: random.Random, m: int, n: int, r: int, k: int | None = None,
             perturb: bool = False) -> JetCase:
    """A scrambled pairing-built jet on R^m, pulled back from R^k when k < m."""
    k = m if k is None else k
    while True:
        y = _rand_rows(rng, n, k)
        pr = _rand_rows(rng, r, k)
        if k < m:
            proj = _rand_rows(rng, k, m)
            if oracle.rank(proj) < k:
                continue
            y, pr = oracle.matmul(y, proj), oracle.matmul(pr, proj)
        if oracle.rank(y) >= 2:
            break
    lam = F(0)
    while lam == 0:
        lam = rand_frac(rng)
    ell = [rand_frac(rng) for _ in range(m)]
    b = [[[F(0)] * m for _ in range(m)] for _ in range(n)]
    for i, j, c, sign in pairing_entries(r, n):
        outer = _sym_outer(pr[i], y[j])
        for s in range(m):
            for t in range(m):
                b[c][s][t] += sign * outer[s][t]
    a = [[lam * v for v in row] for row in y]
    for c in range(n):
        ell_y = _sym_outer(ell, y[c])
        b[c] = [[lam * lam * b[c][s][t] + ell_y[s][t] for t in range(m)] for s in range(m)]
    p = [lam * u + v / lam for u, v in zip(pr[0], ell)]
    ptp = oracle.matmul(oracle.transpose(pr), pr)
    ell_p0 = _sym_outer(ell, pr[0])
    q = [
        [lam * lam * ptp[s][t] + 2 * ell_p0[s][t] + ell[s] * ell[t] / (lam * lam) for t in range(m)]
        for s in range(m)
    ]
    degenerate = oracle.rank(y + pr[1:]) < m
    if perturb:
        c = next(c for c in range(n) if any(a[c]))
        s, t = rng.randrange(m), rng.randrange(m)
        delta = F(rng.choice((1, -1)), rng.choice((2, 3, 5)))
        b[c][s][t] += delta
        if s != t:
            b[c][t][s] += delta
        return JetCase(m, n, r, a, b, None, None, None)
    return JetCase(m, n, r, a, b, p, q, degenerate)


def make_lines(rng: random.Random, case: JetCase, count: int) -> list:
    """Rational lines along which the canonical denominator is not zero."""
    lines = []
    while len(lines) < count:
        base = [F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(case.m)]
        direction = [F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(case.m)]
        if not any(direction):
            direction[rng.randrange(case.m)] = F(1)
        # a quadratic in t vanishes identically iff it vanishes at t = 0, 1, -1
        if any(case.denominator_at([b + t * d for b, d in zip(base, direction)]) for t in (0, 1, -1)):
            lines.append((base, direction))
    return lines


# ---------------------------------------------------------------------------
# workload decks


def _shuffled(rng: random.Random, shapes: list) -> list:
    deck = list(shapes)
    rng.shuffle(deck)
    return deck


# The test suite's acceptance distribution: m and n uniform on 2..6, r
# uniform on 1..rho(n). A deck holds each (m, n) once and draws r.
CIRCLE_SWEEP_SHAPES = [(m, n) for m in range(2, 7) for n in range(2, 7)]
LINES_PER_JET = 20


def circle_sweep_decks(seed: int):
    """Endless seeded decks of jets, each with every (m, n) once."""
    rng = random.Random(f"circle-sweep:{seed}")
    while True:
        deck = []
        for m, n in _shuffled(rng, CIRCLE_SWEEP_SHAPES):
            case = make_jet(rng, m, n, rng.randint(1, hurwitz_radon(n)))
            case.lines = make_lines(rng, case, LINES_PER_JET)
            deck.append(case)
        yield deck


# (m, n, r, k, perturb), 16 per deck: 8 lift, 5 are degenerate (k < m pulls
# the jet back through a projection; m > n with n + r - 1 < m fails the rank
# test), 3 carry a perturbed B entry and fail validation. The three n = 8,
# m = 4 jets cost about the same and sit in the middle of the latencies,
# which keeps the median steady.
SPHERE_LIFT_SHAPES = [
    (4, 4, 4, 4, False), (4, 8, 4, 4, False), (4, 8, 2, 4, False), (4, 8, 8, 4, False),
    (5, 4, 2, 5, False), (5, 8, 5, 5, False), (6, 4, 3, 6, False), (8, 8, 8, 8, False),
    (4, 4, 2, 3, False), (5, 4, 1, 5, False), (5, 8, 3, 4, False), (6, 4, 2, 6, False),
    (8, 4, 4, 8, False),
    (4, 4, 4, 4, True), (6, 8, 3, 6, True), (7, 4, 2, 7, True),
]


def sphere_lift_decks(seed: int):
    """Endless seeded decks of jets, each with every shape once."""
    rng = random.Random(f"sphere-lift:{seed}")
    while True:
        yield [make_jet(rng, m, n, r, k, perturb) for m, n, r, k, perturb in _shuffled(rng, SPHERE_LIFT_SHAPES)]


# ---------------------------------------------------------------------------
# CLI documents and commands


@dataclass
class Command:
    """One CLI invocation and what it must produce.

    expect is the exit code; case, rounding and size carry what the checks
    need to verify the report (the jet, whether a verify document is a
    rounding, or the (r, n) of a pairing or hopf command).
    """

    argv: list
    expect: int
    case: JetCase | None = None
    rounding: bool | None = None
    size: tuple | None = None


def fracquad_doc(m: int, numer: list[dict], denom: dict) -> dict:
    def poly(p):
        return {"vars": m, "terms": [[list(e), str(c)] for e, c in sorted(p.items())]}

    return {"kind": "fracquad", "m": m, "n": len(numer), "F": [poly(c) for c in numer], "Q": poly(denom)}


def _plain_quadratic_map(rng: random.Random, m: int, n: int) -> tuple[list[dict], dict]:
    """x -> (x_1, ..., x_n-1, x^T S x) with S random: lines go to parabolas."""
    numer = [oracle.linear([F(int(i == c)) for i in range(m)]) for c in range(n - 1)]
    mat = [[F(0)] * m for _ in range(m)]
    for s in range(m):
        for t in range(s, m):
            mat[s][t] = mat[t][s] = rand_frac(rng) + (1 if s == t else 0)
    numer.append(oracle.quadratic(mat))
    return numer, oracle.constant(m, 1)


MALFORMED = [
    '{"kind": "jet", "m": 2, "n": 2, "A": [["1", "0"], ["0", "1"]]',
    '{"kind": "fracquad", "m": 2, "n": 2}',
    '{"kind": "jet", "m": 2, "n": 2, "A": [["1", "0"]], "B": []}',
    '{"kind": "jet", "m": 2, "n": 2, "A": [["1", "0"], ["0", 1.5]], "B": [[["0","0"],["0","0"]],[["0","0"],["0","0"]]]}',
    '{"kind": "jet", "m": 2, "n": 2, "A": [["1", "0"], ["0", "1/0"]], "B": [[["0","0"],["0","0"]],[["0","0"],["0","0"]]]}',
    '{"kind": "jet", "m": 2, "n": 2, "A": [["1", "0"], ["0", "1"]], "B": [[["0","1"],["0","0"]],[["0","0"],["0","0"]]]}',
    '[1, 2, 3]',
]

# (r, n) for pairing and hopf commands; the last one is infeasible.
CLI_SIZES = [(2, 2), (4, 4), (8, 8), (9, 16), (10, 32), (5, 32), (3, 6)]


def cli_mix_decks(seed: int, workdir: str):
    """Endless seeded decks of commands over documents written into workdir."""
    rng = random.Random(f"cli-mix:{seed}")
    os.makedirs(workdir, exist_ok=True)
    counter = itertools.count()

    def write(obj) -> str:
        path = os.path.join(workdir, f"doc{next(counter)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(obj if isinstance(obj, str) else json.dumps(obj))
        return path

    while True:
        deck: list[Command] = []
        # one shape for every jet, so that decks cost the same; the jet
        # commands then fill the middle of the latency distribution
        nondeg = make_jet(rng, 4, 4, 3)
        deg = make_jet(rng, 4, 4, 2, k=3)
        for case in (nondeg, deg, make_jet(rng, 4, 4, 4)):
            path = write(case.doc())
            deck.append(Command(["check", path], 0, case))
            deck.append(Command(["degen", path], 0, case))
            deck.append(Command(["sphere", path], 2 if case.degenerate else 0, case))
            deck.append(Command(["factor", path], 0 if case.degenerate else 2, case))
        deck.append(Command(["canon", "--verify", write(nondeg.doc())], 0, nondeg))
        deck.append(Command(["canon", "--verify", write(deg.doc())], 0, deg))
        for case in (nondeg, make_jet(rng, 3, 2, 2)):
            numer, denom = case.canonical()
            deck.append(Command(["verify", write(fracquad_doc(case.m, numer, denom))], 0, rounding=True))
        numer, denom = _plain_quadratic_map(rng, 3, 3)
        deck.append(Command(["verify", write(fracquad_doc(3, numer, denom))], 2, rounding=False))
        bad = make_jet(rng, 4, 4, 2, perturb=True)
        deck.append(Command(["check", write(bad.doc())], 2, bad))
        deck.append(Command(["sphere", write(bad.doc())], 2, bad))
        for text in MALFORMED:
            deck.append(Command(["check", write(text)], 1))
        deck.append(Command(["check", os.path.join(workdir, "missing.json")], 1))
        for r, n in CLI_SIZES:
            feasible = r <= hurwitz_radon(n)
            deck.append(Command(["pairing", str(r), str(n)], 0 if feasible else 2, size=(r, n)))
            deck.append(Command(["hopf", "--size", str(r), str(n)], 0 if feasible else 2, size=(r, n)))
        rng.shuffle(deck)
        yield deck
