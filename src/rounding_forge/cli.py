"""Command line front end and the JSON document formats.

Documents are JSON objects with a "kind" field ("jet", "fracquad", "pairing",
"spheremap"). Every exact number is a rational string like "-3/4"; floats
appear only inside numeric-oracle summaries and are rendered with 17
significant digits. Reports are emitted with sorted keys and no timestamps,
so identical inputs produce byte-identical output.

Exit codes: 0 valid / feasible, 2 mathematically invalid input or verdict,
1 operational failure (unreadable file, malformed document, bad arguments,
or a failed internal exact certificate).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from . import circles, cliff, jets, spheres
from .polycore import CertificateError, Poly, PolyMap

DEFAULT_TRIALS = 100
DEFAULT_TOL = 1e-7
# work budgets, checked while the arguments or a document's sizes are parsed
MAX_TRIALS = 10000
MAX_PAIRING_N = 64
MAX_JET_DIM = 32
# odd binomials listed by tables --stiefel; a longer list is cut and counted
MAX_LISTED_BINOMIALS = 64
SEED_ENV_VAR = "ROUNDING_FORGE_SEED"


class DocumentError(Exception):
    """Malformed document; carries the JSON path of the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# scalar and polynomial serialization


def _float_str(x: float) -> str:
    return format(float(x), ".17g")


# the exponent of a literal like "1e2", which Fraction expands as 10**exponent
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def _parse_rat(value, path: str) -> Fraction:
    # JSON integers are exact; floats are not and stay rejected.
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise DocumentError(path, f"expected a rational string, got {type(value).__name__}")
    if isinstance(value, str) and (exponent := _EXPONENT.search(value)):
        # held to the int-to-str digit limit that the report path enforces
        limit = sys.get_int_max_str_digits()
        digits = exponent[1].replace("_", "").lstrip("0") or "0"
        if limit and (len(digits) > len(str(limit)) or int(digits) > limit):
            raise DocumentError(path, f"bad rational {value!r}: exponent exceeds the {limit}-digit limit")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(path, f"bad rational {value!r}: {exc}") from None


def poly_to_doc(p: Poly) -> dict:
    return {
        "vars": p.num_vars,
        "terms": [[list(e), str(c)] for e, c in sorted(p.terms.items())],
    }


def poly_from_doc(doc, path: str, expect_vars: int | None = None) -> Poly:
    if not isinstance(doc, dict) or "vars" not in doc or "terms" not in doc:
        raise DocumentError(path, "expected an object with 'vars' and 'terms'")
    nv = doc["vars"]
    # type(), not isinstance(): JSON true and false are bools, and bool is an int
    if type(nv) is not int or nv < 0:
        raise DocumentError(f"{path}.vars", "expected a nonnegative integer")
    if expect_vars is not None and nv != expect_vars:
        raise DocumentError(f"{path}.vars", f"expected {expect_vars} variables, got {nv}")
    if not isinstance(doc["terms"], list):
        raise DocumentError(f"{path}.terms", "expected a list of [exponents, coefficient]")
    terms = {}
    for idx, item in enumerate(doc["terms"]):
        tpath = f"{path}.terms[{idx}]"
        if not isinstance(item, list) or len(item) != 2:
            raise DocumentError(tpath, "expected [exponents, coefficient]")
        exps, coeff = item
        if not isinstance(exps, list) or len(exps) != nv or not all(type(e) is int for e in exps):
            raise DocumentError(tpath, f"expected {nv} integer exponents")
        if tuple(exps) in terms:
            raise DocumentError(tpath, "repeated monomial: an earlier term has the same exponents")
        terms[tuple(exps)] = _parse_rat(coeff, tpath)
    try:
        return Poly(nv, terms)
    except ValueError as exc:
        raise DocumentError(path, str(exc)) from None


def _matrix_from_doc(doc, path: str, rows: int, cols: int) -> list[list[Fraction]]:
    if not isinstance(doc, list) or len(doc) != rows:
        raise DocumentError(path, f"expected {rows} rows")
    out = []
    for i, row in enumerate(doc):
        if not isinstance(row, list) or len(row) != cols:
            raise DocumentError(f"{path}[{i}]", f"expected {cols} entries")
        out.append([_parse_rat(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    return out


def _matrix_to_doc(rows) -> list[list[str]]:
    return [[str(x) for x in row] for row in rows]


# ---------------------------------------------------------------------------
# documents


def _load_json(path: str) -> tuple[dict, object]:
    """The file's digest for the report and its parsed JSON, from one read.

    Newlines are translated as text mode would, so error positions count
    lines the same way for LF, CRLF and CR files.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DocumentError(path, f"cannot read: {exc}") from None
    digest = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    try:
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        return digest, json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from None
    except UnicodeDecodeError as exc:
        raise DocumentError(path, f"not UTF-8: {exc.reason} at byte {exc.start}") from None
    except RecursionError:
        raise DocumentError(path, "nested too deeply") from None
    except ValueError as exc:
        # an integer literal past Python's int-to-str digit limit
        raise DocumentError(path, str(exc)) from None


def _expect_kind(doc, kind: str) -> None:
    if not isinstance(doc, dict):
        raise DocumentError("$", "document is not a JSON object")
    if doc.get("kind") != kind:
        raise DocumentError("$.kind", f"expected {kind!r}, got {doc.get('kind')!r}")


def _dim(doc, key: str, cap: int) -> int:
    v = doc.get(key)
    if type(v) is not int or v < 1:
        raise DocumentError(f"$.{key}", "expected a positive integer")
    if v > cap:
        raise DocumentError(f"$.{key}", f"must be at most {cap}, got {v}")
    return v


def jet_document_from_obj(doc) -> jets.Jet2:
    _expect_kind(doc, "jet")
    m, n = _dim(doc, "m", MAX_JET_DIM), _dim(doc, "n", MAX_JET_DIM)
    linear = _matrix_from_doc(doc.get("A"), "$.A", n, m)
    quads = doc.get("B")
    if not isinstance(quads, list) or len(quads) != n:
        raise DocumentError("$.B", f"expected {n} symmetric matrices")
    mats = []
    for i, mat in enumerate(quads):
        rows = _matrix_from_doc(mat, f"$.B[{i}]", m, m)
        for a in range(m):
            for b in range(a):
                if rows[a][b] != rows[b][a]:
                    raise DocumentError(f"$.B[{i}][{a}][{b}]", "matrix is not symmetric")
        mats.append(rows)
    return jets.jet_from_matrices(linear, mats)


def jet_to_doc(jet: jets.Jet2) -> dict:
    return {
        "kind": "jet",
        "m": jet.source_dim,
        "n": jet.target_dim,
        "A": _matrix_to_doc(jet.linear.linear_matrix()),
        "B": [_matrix_to_doc(f.matrix) for f in jet.quad.quadratic_forms()],
    }


def fracquad_to_doc(fq: jets.FracQuadMap) -> dict:
    return {
        "kind": "fracquad",
        "m": fq.source_dim,
        "n": fq.target_dim,
        "F": [poly_to_doc(c) for c in fq.numer.coords],
        "Q": poly_to_doc(fq.denom),
    }


def fracquad_from_obj(doc) -> jets.FracQuadMap:
    _expect_kind(doc, "fracquad")
    m, n = _dim(doc, "m", MAX_JET_DIM), _dim(doc, "n", MAX_JET_DIM)
    coords_doc = doc.get("F")
    if not isinstance(coords_doc, list) or len(coords_doc) != n:
        raise DocumentError("$.F", f"expected {n} coordinate polynomials")
    coords = [poly_from_doc(c, f"$.F[{i}]", m) for i, c in enumerate(coords_doc)]
    denom = poly_from_doc(doc.get("Q"), "$.Q", m)
    if denom.is_zero():
        raise DocumentError("$.Q", "denominator is the zero polynomial")
    try:
        return jets.FracQuadMap(numer=PolyMap(m, coords), denom=denom)
    except ValueError as exc:
        raise DocumentError("$", str(exc)) from None


def pairing_to_doc(p: cliff.NormedPairing) -> dict:
    # the entry strings straight from f, without the Fraction tensor view
    tensor = [[["0"] * p.target_dim for _ in range(p.right_dim)] for _ in range(p.left_dim)]
    for i, j, c, x in p.entries():
        tensor[i][j][c] = str(x)
    return {"kind": "pairing", "r": p.left_dim, "s": p.right_dim, "n": p.target_dim, "tensor": tensor}


def pairing_from_obj(doc) -> cliff.NormedPairing:
    _expect_kind(doc, "pairing")
    r, s, n = (_dim(doc, key, MAX_PAIRING_N) for key in ("r", "s", "n"))
    tensor_doc = doc.get("tensor")
    if not isinstance(tensor_doc, list) or len(tensor_doc) != r:
        raise DocumentError("$.tensor", f"expected {r} slabs")
    tensor = [_matrix_from_doc(slab, f"$.tensor[{i}]", s, n) for i, slab in enumerate(tensor_doc)]
    # a structurally sound tensor that fails the norm identity is a
    # mathematical rejection, not a parse error; let ValueError escape
    return cliff.NormedPairing(r, s, n, tensor)


def spheremap_to_doc(sm: spheres.QuadSphereMap) -> dict:
    return {
        "kind": "spheremap",
        "m": sm.source_dim,
        "n": sm.target_dim,
        "f": [poly_to_doc(c) for c in sm.f.coords],
        "G": _matrix_to_doc(sm.gram.matrix),
        "L": _matrix_to_doc(sm.lower),
        "D": [str(d) for d in sm.diag],
    }


_escape = json.encoder.encode_basestring_ascii


def _json_text(obj, newline: str = "\n") -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2), for dicts with
    str keys, built a container at a time: a list of only strs or only ints
    is joined in one C call, where json's indenting encoder, which is pure
    Python, steps through every value. Any other type raises TypeError."""
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        if kinds == {str}:
            items = map(_escape, obj)
        elif kinds == {int}:
            items = map(int.__repr__, obj)
        else:
            items = [_json_text(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # _escape raises TypeError on a key that is not a str
        items = [_escape(key) + ": " + _json_text(value, inner) for key, value in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# reports


@dataclass
class Report:
    command: str
    inputs: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    numeric: dict | None = None
    exit_status: int = 0

    def to_json(self) -> str:
        return _json_text(vars(self)) + "\n"


def _run_oracle(fq: jets.FracQuadMap, args) -> dict:
    """The sampling oracle's summary; a map it cannot sample in floats is a document error."""
    try:
        rep = circles.verify_rounding_numeric(fq, trials=args.trials, seed=args.seed, tol=args.tol)
    except ValueError as exc:
        raise DocumentError("$", str(exc)) from None
    return {
        "trials": rep.trials,
        "seed": rep.seed,
        "tol": _float_str(rep.tol),
        "points_per_line": rep.points_per_line,
        "max_residual": _float_str(rep.max_residual),
        "violations": list(rep.violations),
        "skipped": list(rep.skipped),
        "ok": rep.ok,
    }


def _load_jet(path: str, report: Report, role: str = "jet"):
    report.inputs[role], doc = _load_json(path)
    jet = jet_document_from_obj(doc)
    try:
        return jets.validate_jet(jet)
    except jets.RankTooLow as exc:
        report.verdicts.update(valid=False, reason="rank-too-low")
        report.witnesses["rank"] = exc.rank
    except jets.NotDivisible as exc:
        report.verdicts.update(valid=False, reason="not-divisible")
        report.witnesses.update(failed_product=exc.which, remainder=poly_to_doc(exc.remainder))
    report.exit_status = 2
    return None


def _rounding_verdicts(rj: jets.RoundingJet, report: Report):
    """Validity, rank, degeneracy, p and q into report; returns the degeneracy witness."""
    degenerate, witness = jets.is_degenerate(rj)
    report.verdicts.update(valid=True, rank=rj.rank, degenerate=degenerate)
    report.witnesses["p"] = poly_to_doc(rj.p)
    report.witnesses["q"] = poly_to_doc(rj.q)
    return witness


def _sized_pairing(r: int, n: int, report: Report):
    """The [r, n, n] pairing, or None with the infeasible verdict in report."""
    report.inputs["params"] = {"r": r, "n": n}
    try:
        return cliff.normed_pairing(r, n)
    except cliff.SizeInfeasible:
        report.verdicts.update(feasible=False)
        report.witnesses["rho"] = cliff.rho(n)
        report.exit_status = 2
        return None


# ---------------------------------------------------------------------------
# commands; a handler puts a result document in witnesses["document"] and
# main writes it to --out


def cmd_check(args) -> Report:
    report = Report(command="check")
    rj = _load_jet(args.jet, report)
    if rj is None:
        return report
    witness = _rounding_verdicts(rj, report)
    if witness is not None:
        report.witnesses["degeneracy_witness"] = [str(x) for x in witness]
    return report


def cmd_canon(args) -> Report:
    report = Report(command="canon")
    rj = _load_jet(args.jet, report)
    if rj is None:
        return report
    fq = jets.canonical_rounding(rj)
    _rounding_verdicts(rj, report)
    report.witnesses["document"] = fracquad_to_doc(fq)
    if args.verify:
        report.numeric = _run_oracle(fq, args)
    return report


def cmd_degen(args) -> Report:
    report = Report(command="degen")
    rj = _load_jet(args.jet, report)
    if rj is None:
        return report
    degenerate, witness = jets.is_degenerate(rj)
    report.verdicts.update(valid=True, degenerate=degenerate)
    if witness is not None:
        report.witnesses["degeneracy_witness"] = [str(x) for x in witness]
    return report


def cmd_factor(args) -> Report:
    report = Report(command="factor")
    rj = _load_jet(args.jet, report)
    if rj is None:
        return report
    try:
        proj, reduced = jets.factor_degenerate(rj)
    except jets.NotDegenerate:
        report.verdicts.update(valid=True, degenerate=False, factored=False, reason="not-degenerate")
        report.exit_status = 2
        return report
    report.verdicts.update(valid=True, degenerate=True, factored=True, reduced_source_dim=reduced.source_dim)
    report.witnesses["projection"] = _matrix_to_doc(proj)
    report.witnesses["document"] = jet_to_doc(reduced.jet)
    return report


def cmd_equiv(args) -> Report:
    report = Report(command="equiv")
    rj1 = _load_jet(args.jet1, report, role="jet1")
    if rj1 is None:
        return report
    rj2 = _load_jet(args.jet2, report, role="jet2")
    if rj2 is None:
        return report
    result = jets.jets_equivalent(rj1.jet, rj2.jet)
    if result is None:
        report.verdicts.update(valid=True, equivalent=False)
        return report
    lam, ell = result
    report.verdicts.update(valid=True, equivalent=True)
    report.witnesses["lam"] = str(lam)
    report.witnesses["ell"] = poly_to_doc(ell)
    return report


def cmd_sphere(args) -> Report:
    report = Report(command="sphere")
    rj = _load_jet(args.jet, report)
    if rj is None:
        return report
    try:
        sm = spheres.sphere_lift(rj)
    except spheres.Degenerate as exc:
        report.verdicts.update(valid=True, lifted=False, reason="degenerate")
        report.witnesses["gram_signature"] = list(exc.signature)
        report.exit_status = 2
        return report
    report.verdicts.update(valid=True, lifted=True, gram_signature=[sm.source_dim, 0, 0])
    report.witnesses["document"] = spheremap_to_doc(sm)
    return report


def cmd_pairing(args) -> Report:
    report = Report(command="pairing")
    pairing = _sized_pairing(args.r, args.n, report)
    if pairing is None:
        return report
    report.verdicts.update(feasible=True)
    report.witnesses["rho"] = cliff.rho(args.n)
    report.witnesses["document"] = pairing_to_doc(pairing)
    return report


def cmd_hopf(args) -> Report:
    report = Report(command="hopf")
    if args.pairing is not None and args.size:
        raise DocumentError("arguments", "hopf takes a pairing file or --size R N, not both")
    if args.pairing:
        report.inputs["pairing"], doc = _load_json(args.pairing)
        try:
            pairing = pairing_from_obj(doc)
        except ValueError as exc:
            report.verdicts.update(valid_pairing=False, reason=str(exc))
            report.exit_status = 2
            return report
    elif args.size:
        pairing = _sized_pairing(*args.size, report)
        if pairing is None:
            return report
    else:
        raise DocumentError("arguments", "hopf needs a pairing file or --size R N")
    sm = cliff.hopf_map(pairing)
    report.verdicts.update(feasible=True, source_dim=sm.source_dim, target_dim=sm.target_dim)
    report.witnesses["document"] = spheremap_to_doc(sm)
    return report


def cmd_verify(args) -> Report:
    report = Report(command="verify")
    report.inputs["map"], doc = _load_json(args.map)
    fq = fracquad_from_obj(doc)
    report.numeric = _run_oracle(fq, args)
    report.verdicts["ok"] = report.numeric["ok"]
    if not report.numeric["ok"]:
        report.exit_status = 2
    return report


def _value_table(name: str, var: str, fn, upto: int, report: Report, keep: bool) -> Iterable[str]:
    """The text table of fn(1..upto), each row made when it is read. With
    keep (--json) every value also goes into report.verdicts[name] and the
    table is built whole; text mode prints the rows as they are made."""
    report.inputs["params"] = {f"{name}_up_to": upto}
    values = report.verdicts.setdefault(name, {}) if keep else None
    head = f"{name}({var})"

    def rows():
        yield f"{var:>6}  {head}"
        for k in range(1, upto + 1):
            v = fn(k)
            if values is not None:
                values[str(k)] = v
            yield f"{k:>6}  {v:>{len(head)}}"

    return list(rows()) if keep else rows()


def cmd_tables(args) -> Report:
    report = Report(command="tables")
    if args.rho is not None:
        lines = _value_table("rho", "n", cliff.rho, args.rho, report, args.json)
    elif args.kappa is not None:
        lines = _value_table("kappa", "m", cliff.kappa, args.kappa, report, args.json)
    else:
        r, s, n = args.stiefel
        report.inputs["params"] = {"r": r, "s": s, "n": n}
        feasible, count, odd = cliff.stiefel_hopf_feasible(r, s, n)
        listed = list(itertools.islice(odd, MAX_LISTED_BINOMIALS))
        report.verdicts["feasible"] = feasible
        report.witnesses["odd_binomials"] = listed
        lines = [f"[{r}, {s}, {n}]: {'feasible' if feasible else 'infeasible'}"]
        if count:
            lines.append("odd binomials at k = " + ", ".join(str(k) for k in listed))
        if len(listed) < count:
            report.witnesses["odd_binomial_count"] = count
            lines[-1] += f", ... ({count} in all)"
        if not feasible:
            report.exit_status = 2
    report.witnesses["table"] = lines
    return report


def _write_doc(path: str, doc: dict) -> None:
    # the whole text first, so a document that fails to serialize leaves no file
    text = _json_text(doc) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DocumentError(path, f"cannot write: {exc}") from None


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise DocumentError("arguments", message)


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise DocumentError(SEED_ENV_VAR, f"not an integer seed: {raw!r}") from None


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _positive_finite_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {raw!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {raw}")
    return value


def _at_most(cap: int):
    """A type= function for positive integers no larger than cap."""

    def parse(raw: str) -> int:
        value = _positive_int(raw)
        if value > cap:
            raise argparse.ArgumentTypeError(f"must be at most {cap}, got {value}")
        return value

    return parse


class _LastAtMost(argparse.Action):
    """Store a list of sizes whose last entry is no larger than cap."""

    def __init__(self, *args, cap: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.cap = cap

    def __call__(self, parser, namespace, values, option_string=None):
        if values[-1] > self.cap:
            message = f"{self.metavar[-1]} must be at most {self.cap}, got {values[-1]}"
            raise argparse.ArgumentError(self, message)
        setattr(namespace, self.dest, values)


def _add_numeric_flags(sub) -> None:
    sub.add_argument("--trials", type=_at_most(MAX_TRIALS), default=DEFAULT_TRIALS)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--tol", type=_positive_finite_float, default=DEFAULT_TOL)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rounding-forge", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="validate a jet and report degeneracy")
    p.add_argument("jet")
    p.set_defaults(handler=cmd_check)

    p = subs.add_parser("canon", help="emit the canonical fractional-quadratic map")
    p.add_argument("jet")
    p.add_argument("--out")
    p.add_argument("--verify", action="store_true")
    _add_numeric_flags(p)
    p.set_defaults(handler=cmd_canon)

    p = subs.add_parser("degen", help="degeneracy verdict and witness")
    p.add_argument("jet")
    p.set_defaults(handler=cmd_degen)

    p = subs.add_parser("factor", help="factor a degenerate jet through a projection")
    p.add_argument("jet")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_factor)

    p = subs.add_parser("equiv", help="decide jet equivalence and return (lam, ell)")
    p.add_argument("jet1")
    p.add_argument("jet2")
    p.set_defaults(handler=cmd_equiv)

    p = subs.add_parser("sphere", help="lift a nondegenerate jet to a sphere map")
    p.add_argument("jet")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_sphere)

    p = subs.add_parser("pairing", help="construct a normed pairing [r, n, n]")
    p.add_argument("r", type=_positive_int)
    p.add_argument("n", type=_at_most(MAX_PAIRING_N))
    p.add_argument("--out")
    p.set_defaults(handler=cmd_pairing)

    p = subs.add_parser("hopf", help="Hopf sphere map of a pairing")
    p.add_argument("pairing", nargs="?")
    p.add_argument("--size", nargs=2, type=_positive_int, metavar=("R", "N"),
                   action=_LastAtMost, cap=MAX_PAIRING_N)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_hopf)

    p = subs.add_parser("tables", help="rho / kappa tables and parity verdicts")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rho", type=_at_most(cliff.KAPPA_DOMAIN_CAP), metavar="N")
    group.add_argument("--kappa", type=_at_most(cliff.KAPPA_DOMAIN_CAP), metavar="M")
    group.add_argument("--stiefel", nargs=3, type=_positive_int, metavar=("R", "S", "N"),
                       action=_LastAtMost, cap=cliff.KAPPA_DOMAIN_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_tables)

    p = subs.add_parser("verify", help="numeric line-to-circle check of a map document")
    p.add_argument("map")
    _add_numeric_flags(p)
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
        try:
            report = args.handler(args)
        except ValueError as exc:
            # only Python's int-to-str digit limit, met when str() writes a computed
            # exact value into the report; any other ValueError is a fault and propagates
            if not str(exc).startswith("Exceeds the limit"):
                raise
            raise DocumentError("report", str(exc)) from None
        # after the handler returns, so a failed command leaves no file behind
        if "document" in report.witnesses and args.out:
            _write_doc(args.out, report.witnesses["document"])
    except DocumentError as exc:
        print(f"rounding-forge: error: {exc}", file=sys.stderr)
        return 1
    except CertificateError as exc:
        print(f"rounding-forge: error: certificate failed: {exc}", file=sys.stderr)
        return 1
    if args.command == "tables" and not args.json:
        for line in report.witnesses.get("table", []):
            print(line)
        return report.exit_status
    sys.stdout.write(report.to_json())
    return report.exit_status


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
