"""The three workloads: what one item runs, and how its output is checked.

An item's `run` is the only code inside the timed region. `check` runs
afterwards and returns a list of problems (empty when the output is right);
`key` serializes an output so that repeated items and two commits can be
compared byte for byte. Checks compare against the closed forms the input
generator knows and against the dict-expansion oracle, never against the
package's own arithmetic.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import inputs
import oracle
from rounding_forge import circles, cli, jets, spheres

F = Fraction


def _terms(p) -> dict:
    return dict(p.terms)


def _poly_key(p) -> str:
    return repr(sorted(p.terms.items()))


def _witness_problems(case: inputs.JetCase, witness) -> list[str]:
    """A degeneracy witness x0 must be nonzero with A x0 = 0 and (q - p^2)(x0) = 0."""
    if witness is None:
        return ["degenerate verdict without a witness"]
    x = list(witness)
    exact = all(isinstance(v, Fraction) for v in x)
    px = sum(c * v for c, v in zip(case.p, x))
    qx = sum(x[s] * sum(c * v for c, v in zip(row, x)) for s, row in enumerate(case.q))
    values = [sum(c * v for c, v in zip(row, x)) for row in case.A] + [qx - px * px]
    size = max(abs(float(v)) for v in x)
    if size == 0:
        return ["degeneracy witness is zero"]
    if exact and any(values):
        return ["degeneracy witness fails A x0 = 0 or (q - p^2)(x0) = 0"]
    if not exact and max(abs(float(v)) for v in values) > 1e-9 * (1 + size * size):
        return ["float degeneracy witness is off"]
    return []


def _division_problems(case: inputs.JetCase, p_terms: dict, q_terms: dict) -> list[str]:
    """Closed-form witnesses, then <A,B> = p<A,A> and <B,B> = q<A,A> by expansion."""
    out = []
    if p_terms != oracle.linear(case.p):
        out.append("p differs from the closed form")
    if q_terms != oracle.quadratic(case.q):
        out.append("q differs from the closed form")
    a = [oracle.linear(row) for row in case.A]
    b = [oracle.quadratic(mat) for mat in case.B]
    norm_a = oracle.inner(a, a)
    if oracle.inner(a, b) != oracle.mul(p_terms, norm_a):
        out.append("<A,B> != p<A,A>")
    if oracle.inner(b, b) != oracle.mul(q_terms, norm_a):
        out.append("<B,B> != q<A,A>")
    return out


class Workload:
    """What the worker needs from a workload.

    decks(seed, workdir) yields the seeded inputs deck by deck, every deck
    with the same mix of shapes; warmup() gives a few other inputs to run
    before timing; run(item) is the timed call; key(output) serializes an
    output; check(item, output) lists what is wrong with it. Outputs with
    the same repeat_key(item) must serialize identically.
    """

    name: str
    seconds_per_deck: float  # one deck at the seed, at reference speed

    def repeat_key(self, item) -> object:
        return id(item)


# ---------------------------------------------------------------------------
# circle-sweep: validate -> canonical map -> degeneracy -> 20 lines to circles


@dataclass
class CircleOut:
    p: object
    q: object
    numer: tuple
    denom: object
    degenerate: bool
    witness: tuple | None
    ranks: list


class CircleSweep(Workload):
    name = "circle-sweep"
    seconds_per_deck = 2.0  # 25 jets

    def decks(self, seed: int, workdir: str):
        return inputs.circle_sweep_decks(seed)

    def warmup(self) -> list:
        rng = random.Random("circle-sweep:warmup")
        cases = [inputs.make_jet(rng, m, n, r) for m, n, r in ((3, 3, 1), (4, 4, 2), (5, 2, 2))]
        for case in cases:
            case.lines = inputs.make_lines(rng, case, inputs.LINES_PER_JET)
        return cases

    def run(self, case: inputs.JetCase) -> CircleOut:
        rj = jets.validate_jet(jets.jet_from_matrices(case.A, case.B))
        fq = jets.canonical_rounding(rj)
        degenerate, witness = jets.is_degenerate(rj)
        ranks = [
            circles.circle_rank_exact(circles.restrict_to_line(fq, circles.Line(tuple(b), tuple(d))))
            for b, d in case.lines
        ]
        return CircleOut(rj.p, rj.q, fq.numer.coords, fq.denom, degenerate, witness, ranks)

    def key(self, out: CircleOut) -> str:
        return repr((
            _poly_key(out.p), _poly_key(out.q), [_poly_key(c) for c in out.numer],
            _poly_key(out.denom), out.degenerate, out.witness, out.ranks,
        ))

    def check(self, case: inputs.JetCase, out: CircleOut) -> list[str]:
        problems = _division_problems(case, _terms(out.p), _terms(out.q))
        numer, denom = [_terms(c) for c in out.numer], _terms(out.denom)
        expected_numer, expected_denom = case.canonical()
        if numer != expected_numer or denom != expected_denom:
            problems.append("canonical map differs from the closed form")
        a = [oracle.linear(row) for row in case.A]
        if oracle.inner(numer, numer) != oracle.mul(denom, oracle.inner(a, a)):
            problems.append("|N|^2 != D<A,A>")
        if out.degenerate != case.degenerate:
            problems.append(f"degenerate = {out.degenerate}, expected {case.degenerate}")
        elif out.degenerate:
            problems.extend(_witness_problems(case, out.witness))
        if len(out.ranks) != len(case.lines) or not all(ok and rank <= 3 for rank, ok in out.ranks):
            problems.append("a line image is not on a circle")
        return problems


# ---------------------------------------------------------------------------
# sphere-lift: validate -> degeneracy -> lift, or one of the two rejections


@dataclass
class SphereOut:
    rejected: str | None = None
    p: object = None
    q: object = None
    degenerate: bool | None = None
    lift: object = None
    signature: tuple | None = None


class SphereLift(Workload):
    name = "sphere-lift"
    seconds_per_deck = 2.0  # 16 jets

    def decks(self, seed: int, workdir: str):
        return inputs.sphere_lift_decks(seed)

    def warmup(self) -> list:
        rng = random.Random("sphere-lift:warmup")
        return [inputs.make_jet(rng, 4, 4, 4), inputs.make_jet(rng, 5, 4, 1), inputs.make_jet(rng, 4, 4, 2, perturb=True)]

    def run(self, case: inputs.JetCase) -> SphereOut:
        try:
            rj = jets.validate_jet(jets.jet_from_matrices(case.A, case.B))
        except jets.NotDivisible as exc:
            return SphereOut(rejected=exc.which)
        degenerate, _ = jets.is_degenerate(rj)
        try:
            lift = spheres.sphere_lift(rj)
        except spheres.Degenerate as exc:
            return SphereOut(p=rj.p, q=rj.q, degenerate=degenerate, signature=exc.signature)
        return SphereOut(p=rj.p, q=rj.q, degenerate=degenerate, lift=lift)

    def key(self, out: SphereOut) -> str:
        if out.rejected:
            return repr(out.rejected)
        lift = out.lift and (
            [_poly_key(c) for c in out.lift.f.coords], out.lift.gram.matrix, out.lift.lower, out.lift.diag,
        )
        return repr((_poly_key(out.p), _poly_key(out.q), out.degenerate, out.signature, lift))

    def check(self, case: inputs.JetCase, out: SphereOut) -> list[str]:
        if case.perturbed:
            return [] if out.rejected == "<A,B>" else ["perturbed jet was not rejected on <A,B>"]
        if out.rejected:
            return [f"valid jet rejected on {out.rejected}"]
        problems = _division_problems(case, _terms(out.p), _terms(out.q))
        if out.degenerate != case.degenerate:
            problems.append(f"degenerate = {out.degenerate}, expected {case.degenerate}")
        if (out.lift is None) != out.degenerate:
            problems.append("lifted state disagrees with the degeneracy verdict")
        if out.lift is not None:
            problems.extend(self._lift_problems(case, out.lift))
        return problems

    @staticmethod
    def _lift_problems(case, lift) -> list[str]:
        """f = (2 N^h, D^h - <A,A>), G = D^h + <A,A>, <f,f> = G^2, G = L D L^T."""
        numer, denom = case.canonical()
        a = [oracle.homogenize(oracle.linear(row), 1) for row in case.A]
        norm_a = oracle.inner(a, a)
        d_h = oracle.homogenize(denom, 2)
        expected_f = [oracle.scale(oracle.homogenize(c, 2), 2) for c in numer]
        expected_f.append(oracle.add(d_h, oracle.scale(norm_a, -1)))
        f = [_terms(c) for c in lift.f.coords]
        gram = oracle.quadratic(lift.gram.matrix)
        problems = []
        if f != expected_f or gram != oracle.add(d_h, norm_a):
            problems.append("sphere map differs from the closed form")
        if oracle.inner(f, f) != oracle.mul(gram, gram):
            problems.append("<f,f> != G^2")
        lower, diag = [list(r) for r in lift.lower], list(lift.diag)
        scaled = [[v * diag[j] for j, v in enumerate(row)] for row in lower]
        if (oracle.matmul(scaled, oracle.transpose(lower)) != [list(r) for r in lift.gram.matrix]
                or not all(d > 0 for d in diag)
                or any(lower[i][j] != F(int(i == j)) for i in range(len(lower)) for j in range(i, len(lower)))):
            problems.append("LDL^T factors do not certify G positive definite")
        return problems


# ---------------------------------------------------------------------------
# cli-mix: in-process cli.main over benchmark-written documents


@dataclass
class CliOut:
    code: int
    stdout: str
    stderr: str


def _poly_from_doc(doc) -> dict:
    return {tuple(e): F(c) for e, c in doc["terms"] if F(c)}


def _matrix_from_doc(rows) -> list:
    return [[F(x) for x in row] for row in rows]


def _sphere_map_holds(doc) -> bool:
    """<f,f> = G^2 for a spheremap document, by expansion."""
    f = [_poly_from_doc(c) for c in doc["f"]]
    gram = oracle.quadratic(_matrix_from_doc(doc["G"]))
    return oracle.inner(f, f) == oracle.mul(gram, gram)


class CliMix(Workload):
    name = "cli-mix"
    seconds_per_deck = 2.5  # 41 commands

    def decks(self, seed: int, workdir: str):
        return inputs.cli_mix_decks(seed, workdir)

    def warmup(self) -> list:
        # fills the cliff generator caches for every size the pool uses
        return [inputs.Command(["hopf", "--size", str(r), str(n)], 0 if r <= inputs.hurwitz_radon(n) else 2,
                               size=(r, n)) for r, n in inputs.CLI_SIZES]

    def run(self, cmd: inputs.Command) -> CliOut:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(cmd.argv)
        return CliOut(code, out.getvalue(), err.getvalue())

    def key(self, out: CliOut) -> str:
        return repr((out.code, out.stdout, out.stderr))

    def repeat_key(self, cmd: inputs.Command) -> object:
        return tuple(cmd.argv)

    def check(self, cmd: inputs.Command, out: CliOut) -> list[str]:
        if out.code != cmd.expect:
            return [f"exit {out.code}, expected {cmd.expect}: {out.stderr.strip()[:200]}"]
        if out.code == 1:
            lines = out.stderr.splitlines()
            if out.stdout or len(lines) != 1 or not lines[0].startswith("rounding-forge: error: "):
                return ["exit 1 without a single error line"]
            return []
        if out.stderr:
            return ["report with stderr output"]
        try:
            report = json.loads(out.stdout)
        except json.JSONDecodeError:
            return ["stdout is not JSON"]
        if report.get("exit_status") != out.code:
            return ["report exit_status disagrees with the exit code"]
        return getattr(self, "_check_" + cmd.argv[0])(cmd, report["verdicts"], report["witnesses"], report)

    def _check_check(self, cmd, verdicts, witnesses, report):
        case = cmd.case
        if case.perturbed:
            ok = verdicts == {"valid": False, "reason": "not-divisible"} and witnesses["failed_product"] == "<A,B>"
            return [] if ok else ["perturbed jet not reported as not divisible on <A,B>"]
        problems = []
        if verdicts.get("degenerate") is not case.degenerate or verdicts.get("valid") is not True:
            problems.append("check verdicts disagree with the expected ones")
        p, q = _poly_from_doc(witnesses["p"]), _poly_from_doc(witnesses["q"])
        if p != oracle.linear(case.p) or q != oracle.quadratic(case.q):
            problems.append("check witnesses differ from the closed form")
        return problems

    def _check_degen(self, cmd, verdicts, witnesses, report):
        return [] if verdicts.get("degenerate") is cmd.case.degenerate else ["degen verdict is wrong"]

    def _check_sphere(self, cmd, verdicts, witnesses, report):
        case = cmd.case
        if case.perturbed:
            return [] if verdicts.get("reason") == "not-divisible" else ["perturbed jet was lifted"]
        if case.degenerate:
            return [] if verdicts.get("lifted") is False else ["degenerate jet was lifted"]
        if verdicts.get("lifted") is not True or not _sphere_map_holds(witnesses["document"]):
            return ["sphere document fails <f,f> = G^2"]
        return []

    def _check_factor(self, cmd, verdicts, witnesses, report):
        case = cmd.case
        if not case.degenerate:
            return [] if verdicts.get("reason") == "not-degenerate" else ["nondegenerate jet was factored"]
        if verdicts.get("factored") is not True:
            return ["degenerate jet was not factored"]
        # A_red o pi = A and B_red o pi = B - pA
        proj = _matrix_from_doc(witnesses["projection"])
        reduced = witnesses["document"]
        a_red, b_red = _matrix_from_doc(reduced["A"]), [_matrix_from_doc(b) for b in reduced["B"]]
        pt = oracle.transpose(proj)
        problems = []
        if len(proj) >= case.m or oracle.matmul(a_red, proj) != case.A:
            problems.append("projection does not recover A")
        for row, mat, red in zip(case.A, case.B, b_red):
            pa = [[(case.p[s] * row[t] + case.p[t] * row[s]) / 2 for t in range(case.m)] for s in range(case.m)]
            target = [[mat[s][t] - pa[s][t] for t in range(case.m)] for s in range(case.m)]
            if oracle.matmul(oracle.matmul(pt, red), proj) != target:
                problems.append("projection does not recover B - pA")
                break
        return problems

    def _check_canon(self, cmd, verdicts, witnesses, report):
        case = cmd.case
        doc = witnesses["document"]
        numer, denom = case.canonical()
        problems = []
        if [_poly_from_doc(c) for c in doc["F"]] != numer or _poly_from_doc(doc["Q"]) != denom:
            problems.append("canon document differs from the closed form")
        if verdicts.get("degenerate") is not case.degenerate:
            problems.append("canon degeneracy verdict is wrong")
        if not report["numeric"]["ok"]:
            problems.append("numeric oracle flagged a canonical map")
        return problems

    def _check_verify(self, cmd, verdicts, witnesses, report):
        if verdicts.get("ok") is not cmd.rounding:
            return [f"verify says ok = {verdicts.get('ok')} on a map with rounding = {cmd.rounding}"]
        return []

    def _check_pairing(self, cmd, verdicts, witnesses, report):
        r, n = cmd.size
        if witnesses.get("rho") != inputs.hurwitz_radon(n):
            return ["pairing reports the wrong rho"]
        if cmd.expect == 2:
            return [] if verdicts == {"feasible": False} else ["infeasible pairing reported feasible"]
        tensor = witnesses["document"]["tensor"]
        m = r + n
        f = [{} for _ in range(n)]
        for i, slab in enumerate(tensor):
            for j, row in enumerate(slab):
                for c, v in enumerate(row):
                    if F(v):
                        f[c][oracle.unit(m, i, r + j)] = F(v)
        xx = {oracle.unit(m, i, i): F(1) for i in range(r)}
        yy = {oracle.unit(m, i, i): F(1) for i in range(r, m)}
        return [] if oracle.inner(f, f) == oracle.mul(xx, yy) else ["pairing fails |f(x,y)|^2 = |x|^2 |y|^2"]

    def _check_hopf(self, cmd, verdicts, witnesses, report):
        r, n = cmd.size
        if cmd.expect == 2:
            return [] if verdicts == {"feasible": False} else ["infeasible hopf reported feasible"]
        if verdicts != {"feasible": True, "source_dim": r + n, "target_dim": n + 1}:
            return ["hopf verdicts are wrong"]
        return [] if _sphere_map_holds(witnesses["document"]) else ["hopf map fails <f,f> = G^2"]


WORKLOADS = {w.name: w for w in (CircleSweep(), SphereLift(), CliMix())}
