"""End-to-end command tests, run in process through main(): report shape,
exit codes, document round trips, and determinism of the emitted JSON."""

import contextlib
import hashlib
import itertools
import json
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import rounding_forge
from rounding_forge import cli, cliff, jets
from rounding_forge.jets import FracQuadMap, canonical_rounding, fracquad_jet, validate_jet
from rounding_forge.polycore import Poly, PolyMap

COMPLEX_JET = {
    "kind": "jet",
    "m": 2,
    "n": 2,
    "A": [["1", "0"], ["0", "1"]],
    "B": [[["1", "0"], ["0", "-1"]], [["0", "1"], ["1", "0"]]],
}

FLAT_JET = {
    "kind": "jet",
    "m": 3,
    "n": 2,
    "A": [[1, 0, 0], [0, 1, 0]],
    "B": [[[0] * 3 for _ in range(3)], [[0] * 3 for _ in range(3)]],
}

RANK_ONE_JET = {
    "kind": "jet",
    "m": 2,
    "n": 2,
    "A": [["1", "0"], ["2", "0"]],
    "B": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
}

NOT_DIVISIBLE_JET = {
    "kind": "jet",
    "m": 2,
    "n": 2,
    "A": [["1", "0"], ["0", "1"]],
    "B": [[["0", "0"], ["0", "1"]], [["0", "0"], ["0", "0"]]],
}


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# check


def test_check_valid_jet(tmp_path, capsys):
    path = write_doc(tmp_path, "jet.json", COMPLEX_JET)
    code, report = run_json(capsys, "check", path)
    assert code == 0
    assert report["exit_status"] == 0
    assert report["verdicts"] == {"valid": True, "rank": 2, "degenerate": False}
    assert report["witnesses"]["p"] == {"vars": 2, "terms": [[[1, 0], "1"]]}
    assert report["witnesses"]["q"] == {"vars": 2, "terms": [[[0, 2], "1"], [[2, 0], "1"]]}
    assert "sha256" in report["inputs"]["jet"]


def test_check_rank_too_low(tmp_path, capsys):
    path = write_doc(tmp_path, "jet.json", RANK_ONE_JET)
    code, report = run_json(capsys, "check", path)
    assert code == 2
    assert report["verdicts"] == {"valid": False, "reason": "rank-too-low"}
    assert report["witnesses"]["rank"] == 1


def test_check_not_divisible(tmp_path, capsys):
    path = write_doc(tmp_path, "jet.json", NOT_DIVISIBLE_JET)
    code, report = run_json(capsys, "check", path)
    assert code == 2
    assert report["verdicts"]["reason"] == "not-divisible"
    assert report["witnesses"]["failed_product"] == "<A,B>"
    assert report["witnesses"]["remainder"]["terms"]


def test_jet_document_parses_to_the_matrix_jet():
    from fractions import Fraction

    linear = [[Fraction(x) for x in row] for row in COMPLEX_JET["A"]]
    quads = [[[Fraction(x) for x in row] for row in mat] for mat in COMPLEX_JET["B"]]
    assert cli.jet_document_from_obj(COMPLEX_JET) == jets.jet_from_matrices(linear, quads)


def test_check_missing_file(capsys):
    code, out, err = run(capsys, "check", "/nonexistent/jet.json")
    assert code == 1
    assert out == ""
    assert "cannot read" in err


def test_check_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "check", str(path))
    assert code == 1
    assert "error" in err


def test_check_wrong_document_shape(tmp_path, capsys):
    path = write_doc(tmp_path, "jet.json", {"kind": "jet", "m": 2, "n": 1,
                                            "A": [["1", "0"]], "B": [[["1"]]]})
    code, out, err = run(capsys, "check", str(path))
    assert code == 1
    assert "error" in err


def test_unknown_command(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 1


def test_failed_certificate_is_one_error_line(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, "jet.json", FLAT_JET)
    monkeypatch.setattr(jets, "is_degenerate", lambda rj: (True, None))
    code, out, err = run(capsys, "factor", path)
    assert code == 1
    assert out == ""
    assert err == "rounding-forge: error: certificate failed: reduced jet is still degenerate\n"


def test_failed_generator_certificate_is_one_error_line(capsys, monkeypatch):
    cached = cliff._generator_perms
    twice = (cached(2)[0],) * 2
    monkeypatch.setattr(cliff, "_generator_perms", lambda k: twice if k == 2 else cached(k))
    code, out, err = run(capsys, "pairing", "3", "4")
    assert code == 1
    assert out == ""
    assert err == ("rounding-forge: error: certificate failed: "
                   "pairing [3, 4, 4]: tensor does not satisfy the norm identity\n")


@pytest.mark.parametrize("command", ["check", "verify", "hopf"])
def test_non_utf8_document_is_one_error_line(tmp_path, capsys, command):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(COMPLEX_JET).encode("utf-16-le"))
    code, out, err = run(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"rounding-forge: error: {path}: not UTF-8: ")
    assert err.count("\n") == 1


def test_deeply_nested_document_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "check", str(path))
    assert code == 1
    assert out == ""
    assert err == f"rounding-forge: error: {path}: nested too deeply\n"


def _command_documents(tmp_path):
    """One readable document per document command, keyed by command."""
    fq = canonical_rounding(validate_jet(cli.jet_document_from_obj(COMPLEX_JET)))
    jet = write_doc(tmp_path, "jet.json", COMPLEX_JET)
    return {
        **{command: [jet] for command in ("check", "canon", "degen", "factor", "sphere")},
        "equiv": [jet, write_doc(tmp_path, "flat.json", FLAT_JET)],
        "verify": [write_doc(tmp_path, "map.json", cli.fracquad_to_doc(fq))],
        "hopf": [write_doc(tmp_path, "pairing.json", cli.pairing_to_doc(cliff.normed_pairing(2, 2)))],
    }


@pytest.mark.parametrize("command", ["check", "canon", "degen", "factor", "sphere", "equiv", "verify", "hopf"])
def test_each_document_is_opened_once(tmp_path, capsys, monkeypatch, command):
    paths = _command_documents(tmp_path)[command]
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    argv = [command, *paths] + (["--trials", "2"] if command == "verify" else [])
    code, out, _ = run(capsys, *argv)
    assert code in (0, 2)
    assert sorted(opened) == sorted(paths)
    json.loads(out)


@pytest.mark.parametrize("data, message", [
    (b'{\r\n  "kind": "jet",\r\n  "m": 2,,\r\n}', ":3:10: Expecting property name enclosed in double quotes"),
    (b'{\r  "kind": "jet",\r  "m": 2,,\r}', ":3:10: Expecting property name enclosed in double quotes"),
    (b" " * 9000 + b"\xff{}", ": not UTF-8: invalid start byte at byte 9000"),
    (b"[" + b" " * 9000 + b'"\xe2\x82', ": not UTF-8: unexpected end of data at byte 9002"),
])
def test_error_positions_count_newlines_as_text_mode_does(tmp_path, capsys, data, message):
    # lines and columns as a text-mode read reports them: CRLF and a lone CR
    # each end one line; byte offsets count from the start of the file
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (1, "", f"rounding-forge: error: {path}{message}\n")


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no int-to-str digit limit")
@pytest.mark.parametrize("command", ["check", "canon", "degen", "factor", "sphere", "equiv", "verify", "hopf"])
def test_overlong_integer_literal_is_one_error_line(tmp_path, capsys, command):
    # json turns a literal past the digit limit into a plain ValueError
    path = tmp_path / "long.json"
    digits = sys.get_int_max_str_digits() + 1
    path.write_text(json.dumps(COMPLEX_JET)[:-1] + ', "pad": ' + "7" * digits + "}")
    argv = [command, str(path)] + ([str(path)] if command == "equiv" else [])
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"rounding-forge: error: {path}: Exceeds the limit ")
    assert err.count("\n") == 1


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no int-to-str digit limit")
@pytest.mark.parametrize("command", ["check", "canon", "sphere"])
def test_computed_value_past_the_digit_limit_is_one_error_line(tmp_path, capsys, command):
    # the entries parse, but p, q and the canonical map square them
    digits = sys.get_int_max_str_digits() * 2 // 3
    big = "3" * digits
    path = write_doc(tmp_path, "big.json", dict(COMPLEX_JET, A=[[big, "0"], ["0", big]]))
    code, out, err = run(capsys, command, path)
    assert code == 1
    assert out == ""
    assert err.startswith("rounding-forge: error: report: Exceeds the limit ")
    assert err.count("\n") == 1


def test_other_value_errors_from_a_handler_propagate(tmp_path, monkeypatch):
    # a fault in the package stays a traceback, not an error line
    from rounding_forge import spheres

    def broken(rj):
        raise ValueError("matrix is not positive definite")

    monkeypatch.setattr(spheres, "sphere_lift", broken)
    with pytest.raises(ValueError, match="not positive definite"):
        cli.main(["sphere", write_doc(tmp_path, "jet.json", COMPLEX_JET)])


@pytest.mark.parametrize("terms", [5, None])
def test_non_list_terms_is_one_error_line(tmp_path, capsys, terms):
    doc = {
        "kind": "fracquad",
        "m": 2,
        "n": 2,
        "F": [{"vars": 2, "terms": terms}, {"vars": 2, "terms": [[[0, 1], "1"]]}],
        "Q": {"vars": 2, "terms": [[[0, 0], "1"]]},
    }
    code, out, err = run(capsys, "verify", write_doc(tmp_path, "map.json", doc))
    assert code == 1
    assert out == ""
    assert err.startswith("rounding-forge: error: $.F[0].terms: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("pairing", "0", "4"),
    ("pairing", "1", "0"),
    ("hopf", "--size", "0", "2"),
    ("tables", "--stiefel", "0", "1", "1"),
    ("tables", "--kappa", str(cliff.KAPPA_DOMAIN_CAP + 1)),
    ("tables", "--kappa", "2000000"),
    ("tables", "--rho", "0"),
    ("verify", "map.json", "--tol", "nan"),
    ("verify", "map.json", "--tol", "inf"),
    ("verify", "map.json", "--trials", "0"),
    ("verify", "map.json", "--trials", "-3"),
    ("canon", "jet.json", "--verify", "--tol", "-0.5"),
    ("canon", "jet.json", "--verify", "--trials", "0"),
])
def test_out_of_range_sizes_are_argument_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("rounding-forge: error: arguments: argument ")


def test_module_runs_as_a_script():
    src = str(Path(rounding_forge.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "rounding_forge.cli", "tables", "--rho", "4"],
                          capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["4", "4"]
    proc = subprocess.run([sys.executable, "-m", "rounding_forge.cli", "hopf"],
                          capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("rounding-forge: error:")
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# canon


def test_canon_roundtrip(tmp_path, capsys):
    path = write_doc(tmp_path, "jet.json", COMPLEX_JET)
    out_path = str(tmp_path / "canon.json")
    code, report = run_json(capsys, "canon", path, "--out", out_path)
    assert code == 0
    doc = json.loads(open(out_path).read())
    assert doc == report["witnesses"]["document"]
    fq = cli.fracquad_from_obj(doc)
    rj = validate_jet(fracquad_jet(fq))
    assert cli.poly_to_doc(rj.p) == report["witnesses"]["p"]
    assert cli.poly_to_doc(rj.q) == report["witnesses"]["q"]


def test_canon_deterministic_output(tmp_path, capsys):
    path = write_doc(tmp_path, "jet.json", COMPLEX_JET)
    code1, out1, _ = run(capsys, "canon", path)
    code2, out2, _ = run(capsys, "canon", path)
    assert (code1, code2) == (0, 0)
    assert out1 == out2
    # a byte-identical copy under another name produces the same report
    copy = write_doc(tmp_path, "copy.json", COMPLEX_JET)
    code3, out3, _ = run(capsys, "canon", copy)
    assert out3 == out1


def test_canon_verify_numeric(tmp_path, capsys):
    path = write_doc(tmp_path, "jet.json", COMPLEX_JET)
    code, report = run_json(capsys, "canon", path, "--verify", "--trials", "10")
    assert code == 0
    assert report["numeric"]["ok"] is True
    assert report["numeric"]["violations"] == []
    assert report["numeric"]["trials"] == 10


def test_canon_seed_from_environment(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, "jet.json", COMPLEX_JET)
    monkeypatch.setenv(cli.SEED_ENV_VAR, "77")
    code, report = run_json(capsys, "canon", path, "--verify", "--trials", "5")
    assert code == 0
    assert report["numeric"]["seed"] == 77
    # an explicit flag wins over the environment
    code, report = run_json(capsys, "canon", path, "--verify", "--trials", "5",
                            "--seed", "5")
    assert report["numeric"]["seed"] == 5


def test_bad_environment_seed(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, "jet.json", COMPLEX_JET)
    monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-seed")
    code, out, err = run(capsys, "canon", path, "--verify")
    assert code == 1
    assert cli.SEED_ENV_VAR in err


# ---------------------------------------------------------------------------
# degen / factor / equiv


def test_degen_witness(tmp_path, capsys):
    path = write_doc(tmp_path, "jet.json", FLAT_JET)
    code, report = run_json(capsys, "degen", path)
    assert code == 0
    assert report["verdicts"] == {"valid": True, "degenerate": True}
    assert report["witnesses"]["degeneracy_witness"] == ["0", "0", "1"]


def test_check_reports_the_degen_witness(tmp_path, capsys):
    path = write_doc(tmp_path, "jet.json", FLAT_JET)
    code, checked = run_json(capsys, "check", path)
    assert code == 0
    assert checked["verdicts"]["degenerate"] is True
    _, degen = run_json(capsys, "degen", path)
    assert checked["witnesses"]["degeneracy_witness"] == degen["witnesses"]["degeneracy_witness"]


@pytest.mark.parametrize("command, jets_", [
    ("canon", ["bad"]), ("degen", ["bad"]), ("factor", ["bad"]), ("sphere", ["bad"]),
    ("equiv", ["bad", "good"]), ("equiv", ["good", "bad"]),
])
def test_not_divisible_jet_exits_two_everywhere(tmp_path, capsys, command, jets_):
    paths = {"bad": write_doc(tmp_path, "bad.json", NOT_DIVISIBLE_JET),
             "good": write_doc(tmp_path, "good.json", COMPLEX_JET)}
    code, report = run_json(capsys, command, *[paths[j] for j in jets_])
    assert code == 2
    assert report["exit_status"] == 2
    assert report["verdicts"] == {"valid": False, "reason": "not-divisible"}
    assert report["witnesses"]["failed_product"] == "<A,B>"


def test_factor_flat_jet(tmp_path, capsys):
    path = write_doc(tmp_path, "jet.json", FLAT_JET)
    out_path = str(tmp_path / "reduced.json")
    code, report = run_json(capsys, "factor", path, "--out", out_path)
    assert code == 0
    assert report["verdicts"]["factored"] is True
    assert report["verdicts"]["reduced_source_dim"] == 2
    assert report["witnesses"]["projection"] == [["1", "0", "0"], ["0", "1", "0"]]
    code2, inner = run_json(capsys, "check", out_path)
    assert code2 == 0
    assert inner["verdicts"]["degenerate"] is False


def test_factor_nondegenerate_exits_two(tmp_path, capsys):
    path = write_doc(tmp_path, "jet.json", COMPLEX_JET)
    code, report = run_json(capsys, "factor", path)
    assert code == 2
    assert report["verdicts"]["reason"] == "not-degenerate"


def test_equiv_transformed_pair(tmp_path, capsys):
    from conftest import complex_square_jet
    from rounding_forge.jets import transform_jet

    moved = transform_jet(complex_square_jet(), 2, Poly.linear([1, 0]))
    p1 = write_doc(tmp_path, "a.json", COMPLEX_JET)
    p2 = write_doc(tmp_path, "b.json", cli.jet_to_doc(moved))
    code, report = run_json(capsys, "equiv", p1, p2)
    assert code == 0
    assert report["verdicts"]["equivalent"] is True
    assert report["witnesses"]["lam"] == "2"
    assert report["witnesses"]["ell"] == {"vars": 2, "terms": [[[1, 0], "1"]]}


def test_equiv_different_jets(tmp_path, capsys):
    p1 = write_doc(tmp_path, "a.json", COMPLEX_JET)
    p2 = write_doc(tmp_path, "b.json", FLAT_JET)
    code, report = run_json(capsys, "equiv", p1, p2)
    assert code == 0
    assert report["verdicts"]["equivalent"] is False


# ---------------------------------------------------------------------------
# sphere


def test_sphere_lift_document(tmp_path, capsys):
    path = write_doc(tmp_path, "jet.json", COMPLEX_JET)
    code, report = run_json(capsys, "sphere", path)
    assert code == 0
    assert report["verdicts"]["lifted"] is True
    assert report["verdicts"]["gram_signature"] == [3, 0, 0]
    doc = report["witnesses"]["document"]
    assert doc["G"] == [["2", "0", "-1"], ["0", "2", "0"], ["-1", "0", "1"]]
    assert doc["m"] == 3 and doc["n"] == 3


@pytest.mark.parametrize("argv", [
    ["sphere", "jet.json"], ["hopf", "--size", "2", "4"],
    ["canon", "jet.json"], ["factor", "flat.json"], ["pairing", "2", "4"],
])
def test_out_writes_the_report_document(tmp_path, capsys, argv):
    write_doc(tmp_path, "jet.json", COMPLEX_JET)
    write_doc(tmp_path, "flat.json", FLAT_JET)
    out_path = tmp_path / "out.json"
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, report = run_json(capsys, *argv, "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text()) == report["witnesses"]["document"]


def _tampered_pairing():
    doc = cli.pairing_to_doc(cliff.normed_pairing(2, 2))
    doc["tensor"][1][0][0] = "1"
    return doc


@pytest.mark.parametrize("argv, expect", [
    (["sphere", "flat.json"], 2),
    (["factor", "jet.json"], 2),
    (["hopf", "--size", "3", "2"], 2),
    (["hopf", "tampered.json"], 2),
    (["canon", "outsized.json", "--verify"], 1),
])
def test_out_is_not_written_without_a_document(tmp_path, capsys, argv, expect):
    c = str(10**200)
    docs = {
        "jet.json": COMPLEX_JET,
        "flat.json": FLAT_JET,
        "tampered.json": _tampered_pairing(),
        "outsized.json": dict(COMPLEX_JET, B=[[[c, "0"], ["0", "-" + c]], [["0", c], [c, "0"]]]),
    }
    for name, doc in docs.items():
        write_doc(tmp_path, name, doc)
    out_path = tmp_path / "out.json"
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == expect
    assert not out_path.exists()


def test_sphere_degenerate_exits_two(tmp_path, capsys):
    path = write_doc(tmp_path, "jet.json", FLAT_JET)
    code, report = run_json(capsys, "sphere", path)
    assert code == 2
    assert report["verdicts"]["lifted"] is False
    assert report["witnesses"]["gram_signature"] == [3, 0, 1]


# ---------------------------------------------------------------------------
# pairing / hopf


def test_pairing_feasible(tmp_path, capsys):
    out_path = str(tmp_path / "pairing.json")
    code, report = run_json(capsys, "pairing", "2", "2", "--out", out_path)
    assert code == 0
    assert report["verdicts"]["feasible"] is True
    assert report["witnesses"]["rho"] == 2
    doc = json.loads(open(out_path).read())
    pairing = cli.pairing_from_obj(doc)
    assert (pairing.left_dim, pairing.right_dim) == (2, 2)


def test_pairing_infeasible(capsys):
    code, report = run_json(capsys, "pairing", "3", "2")
    assert code == 2
    assert report["verdicts"]["feasible"] is False
    assert report["witnesses"]["rho"] == 2


def test_hopf_from_size(capsys):
    code, report = run_json(capsys, "hopf", "--size", "2", "2")
    assert code == 0
    assert report["verdicts"] == {"feasible": True, "source_dim": 4, "target_dim": 3}


def test_hopf_infeasible_size_exits_two(capsys):
    code, report = run_json(capsys, "hopf", "--size", "3", "2")
    assert code == 2
    assert report["verdicts"] == {"feasible": False}
    assert report["witnesses"]["rho"] == 2


def test_hopf_rejects_tampered_pairing(tmp_path, capsys):
    code, report = run_json(capsys, "pairing", "2", "2")
    doc = report["witnesses"]["document"]
    doc["tensor"][1][0][0] = "1"
    path = write_doc(tmp_path, "pairing.json", doc)
    code, report = run_json(capsys, "hopf", path)
    assert code == 2
    assert report["verdicts"]["valid_pairing"] is False


def test_hopf_requires_input(capsys):
    code, out, err = run(capsys, "hopf")
    assert code == 1
    assert "needs a pairing file or --size" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_canonical_document(tmp_path, capsys):
    jet_path = write_doc(tmp_path, "jet.json", COMPLEX_JET)
    map_path = str(tmp_path / "map.json")
    run(capsys, "canon", jet_path, "--out", map_path)
    code, report = run_json(capsys, "verify", map_path, "--trials", "20")
    assert code == 0
    assert report["verdicts"]["ok"] is True


def test_verify_flags_non_rounding_map(tmp_path, capsys):
    doc = {
        "kind": "fracquad",
        "m": 2,
        "n": 2,
        "F": [
            {"vars": 2, "terms": [[[2, 0], "1"]]},
            {"vars": 2, "terms": [[[0, 1], "1"]]},
        ],
        "Q": {"vars": 2, "terms": [[[0, 0], "1"]]},
    }
    path = write_doc(tmp_path, "map.json", doc)
    code, report = run_json(capsys, "verify", path, "--trials", "20")
    assert code == 2
    assert report["verdicts"]["ok"] is False
    assert report["numeric"]["violations"]


def test_verify_rejects_a_zero_denominator(tmp_path, capsys):
    doc = {
        "kind": "fracquad",
        "m": 2,
        "n": 2,
        "F": [
            {"vars": 2, "terms": [[[1, 0], "1"]]},
            {"vars": 2, "terms": [[[0, 1], "1"]]},
        ],
        "Q": {"vars": 2, "terms": []},
    }
    path = write_doc(tmp_path, "map.json", doc)
    code, out, err = run(capsys, "verify", path)
    assert code == 1
    assert out == ""
    assert err == "rounding-forge: error: $.Q: denominator is the zero polynomial\n"


def _tiny_denominator_map(scale):
    """(x1^2, x2) * scale over 1e-7 * scale: a map that sends lines to parabolas."""
    return {
        "kind": "fracquad",
        "m": 2,
        "n": 2,
        "F": [{"vars": 2, "terms": [[[2, 0], str(scale)]]}, {"vars": 2, "terms": [[[0, 1], str(scale)]]}],
        "Q": {"vars": 2, "terms": [[[0, 0], str(Fraction(scale, 10**7))]]},
    }


def test_verify_that_fitted_no_line_exits_two(tmp_path, capsys):
    # |Q| = 1e-7 is below the oracle's guard 1e-6 * (1 + t^2) at every
    # parameter, so every trial is skipped: a run that checked nothing is not ok
    path = write_doc(tmp_path, "map.json", _tiny_denominator_map(1))
    code, out, err = run(capsys, "verify", path, "--trials", "8")
    report = json.loads(out)
    assert (code, err) == (2, "")
    assert report["verdicts"] == {"ok": False}
    assert report["numeric"]["ok"] is False
    assert report["numeric"]["skipped"] == list(range(8)) and report["numeric"]["violations"] == []
    src = str(Path(rounding_forge.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "rounding_forge.cli", "verify", path, "--trials", "8"],
                          capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, out, "")
    # the same map over the denominator 1 is sampled, and every line is a violation
    path = write_doc(tmp_path, "scaled.json", _tiny_denominator_map(10**7))
    code, report = run_json(capsys, "verify", path, "--trials", "8")
    assert code == 2
    assert report["numeric"]["skipped"] == [] and report["numeric"]["violations"] == list(range(8))


def _outsized_map(exponents, coeff):
    return {
        "kind": "fracquad",
        "m": 2,
        "n": 2,
        "F": [{"vars": 2, "terms": [[exponents, coeff]]}, {"vars": 2, "terms": [[[0, 1], "1"]]}],
        "Q": {"vars": 2, "terms": [[[0, 0], "1"]]},
    }


@pytest.mark.parametrize("doc, message", [
    (_outsized_map([1, 0], str(10**400)), "F[0] has a coefficient outside float range"),
    (_outsized_map([2, 0], str(10**307)), "samples must be finite"),
])
def test_verify_of_a_map_outside_float_range_is_one_error_line(tmp_path, capsys, doc, message):
    code, out, err = run(capsys, "verify", write_doc(tmp_path, "map.json", doc))
    assert (code, out, err) == (1, "", f"rounding-forge: error: $: {message}\n")


def test_canon_verify_of_an_outsized_canonical_map_is_one_error_line(tmp_path, capsys):
    # x + c*z^2 is valid with p = c*x1 and q = c^2*|x|^2, so the canonical
    # denominator carries c^2 = 10^400
    c = str(10**200)
    doc = dict(COMPLEX_JET, B=[[[c, "0"], ["0", "-" + c]], [["0", c], [c, "0"]]])
    path = write_doc(tmp_path, "jet.json", doc)
    out_path = tmp_path / "map.json"
    code, out, err = run(capsys, "canon", path, "--verify", "--out", str(out_path))
    assert (code, out, err) == (1, "", "rounding-forge: error: $: Q has a coefficient outside float range\n")
    assert not out_path.exists()
    code, report = run_json(capsys, "canon", path)
    assert code == 0 and report["verdicts"]["valid"] is True


# ---------------------------------------------------------------------------
# work budgets: checked while the arguments are parsed, so a breach never
# reaches the work it would request


def _no_work(*args, **kwargs):
    raise AssertionError("an over-budget request reached the work")


@pytest.mark.parametrize("argv, message", [
    (("verify", "map.json", "--trials", "10001"), "argument --trials: must be at most 10000, got 10001"),
    (("canon", "jet.json", "--verify", "--trials", "99999999"),
     "argument --trials: must be at most 10000, got 99999999"),
    (("pairing", "9", "65"), "argument n: must be at most 64, got 65"),
    (("pairing", "9", "4096"), "argument n: must be at most 64, got 4096"),
    (("hopf", "--size", "9", "4096"), "argument --size: N must be at most 64, got 4096"),
    (("tables", "--rho", str(cliff.KAPPA_DOMAIN_CAP + 1)),
     f"argument --rho: must be at most {cliff.KAPPA_DOMAIN_CAP}, got {cliff.KAPPA_DOMAIN_CAP + 1}"),
    (("tables", "--stiefel", "3", "5", str(10**12)),
     f"argument --stiefel: N must be at most {cliff.KAPPA_DOMAIN_CAP}, got {10**12}"),
])
def test_work_budgets_are_argument_errors(capsys, monkeypatch, argv, message):
    from rounding_forge import circles

    for module, name in [(circles, "verify_rounding_numeric"), (cliff, "normed_pairing"),
                         (cliff, "rho"), (cliff, "stiefel_hopf_feasible"), (cli, "_load_json")]:
        monkeypatch.setattr(module, name, _no_work)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"rounding-forge: error: arguments: {message}\n")


IDENTITY_MAP = {
    "kind": "fracquad",
    "m": 2,
    "n": 2,
    "F": [{"vars": 2, "terms": [[[1, 0], "1"]]}, {"vars": 2, "terms": [[[0, 1], "1"]]}],
    "Q": {"vars": 2, "terms": [[[0, 0], "1"]]},
}
PAIRING_2_2 = cli.pairing_to_doc(cliff.normed_pairing(2, 2))


@pytest.mark.parametrize("command, doc, key, cap", [
    ("check", dict(COMPLEX_JET, m=33), "m", 32),
    ("check", dict(COMPLEX_JET, n=10**9), "n", 32),
    ("verify", dict(IDENTITY_MAP, m=33), "m", 32),
    ("verify", dict(IDENTITY_MAP, n=4096), "n", 32),
    ("hopf", dict(PAIRING_2_2, r=65), "r", 64),
    ("hopf", dict(PAIRING_2_2, s=65), "s", 64),
    ("hopf", dict(PAIRING_2_2, n=10**6), "n", 64),
])
def test_document_budgets_are_document_errors(tmp_path, capsys, monkeypatch, command, doc, key, cap):
    from rounding_forge import circles

    for module, name in [(cli, "_matrix_from_doc"), (cli, "poly_from_doc"), (jets, "jet_from_matrices"),
                         (jets, "validate_jet"), (circles, "verify_rounding_numeric"),
                         (cliff, "NormedPairing"), (cliff, "hopf_map")]:
        monkeypatch.setattr(module, name, _no_work)
    code, out, err = run(capsys, command, write_doc(tmp_path, "doc.json", doc))
    assert (code, out, err) == (1, "", f"rounding-forge: error: $.{key}: must be at most {cap}, got {doc[key]}\n")


BOOLEAN_MAP = {
    "kind": "fracquad", "m": True, "n": True,
    "F": [{"vars": True, "terms": [[[True], "1"]]}], "Q": {"vars": 1, "terms": [[[False], "1"]]},
}


@pytest.mark.parametrize("command, doc, path, message", [
    ("check", dict(COMPLEX_JET, m=True), "$.m", "expected a positive integer"),
    ("check", dict(COMPLEX_JET, n=True), "$.n", "expected a positive integer"),
    ("hopf", dict(PAIRING_2_2, r=True), "$.r", "expected a positive integer"),
    ("hopf", dict(PAIRING_2_2, s=True), "$.s", "expected a positive integer"),
    ("verify", BOOLEAN_MAP, "$.m", "expected a positive integer"),
    ("verify", dict(IDENTITY_MAP, F=[{"vars": True, "terms": []}, IDENTITY_MAP["F"][1]]),
     "$.F[0].vars", "expected a nonnegative integer"),
    ("verify", dict(IDENTITY_MAP, F=[{"vars": 2, "terms": [[[True, 0], "1"]]}, IDENTITY_MAP["F"][1]]),
     "$.F[0].terms[0]", "expected 2 integer exponents"),
])
def test_json_booleans_are_not_sizes_or_exponents(tmp_path, capsys, command, doc, path, message):
    code, out, err = run(capsys, command, write_doc(tmp_path, "doc.json", doc))
    assert (code, out, err) == (1, "", f"rounding-forge: error: {path}: {message}\n")


@pytest.mark.parametrize("command, doc, path, message", [
    ("check", dict(COMPLEX_JET, B=COMPLEX_JET["B"][:1]), "$.B", "expected 2 symmetric matrices"),
    ("check", dict(COMPLEX_JET, B=[COMPLEX_JET["B"][0], [["0", "1"], ["2", "0"]]]), "$.B[1][1][0]",
     "matrix is not symmetric"),
    ("verify", dict(IDENTITY_MAP, F=IDENTITY_MAP["F"][:1]), "$.F", "expected 2 coordinate polynomials"),
    ("verify", dict(IDENTITY_MAP, Q={"vars": 2, "terms": [[[0, 0], "1"], [[3, 0], "1"]]}), "$",
     "denominator degree exceeds 2"),
    ("hopf", dict(PAIRING_2_2, tensor=PAIRING_2_2["tensor"] * 2), "$.tensor", "expected 2 slabs"),
    ("verify", dict(IDENTITY_MAP, F=[{"vars": 2, "terms": [[[-1, 0], "1"]]}, IDENTITY_MAP["F"][1]]), "$.F[0]",
     "bad exponent tuple (-1, 0) for 2 variables"),
])
def test_malformed_documents_are_one_error_line(tmp_path, capsys, command, doc, path, message):
    code, out, err = run(capsys, command, write_doc(tmp_path, "doc.json", doc))
    assert (code, out, err) == (1, "", f"rounding-forge: error: {path}: {message}\n")


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no int-to-str digit limit")
@pytest.mark.parametrize("exponent", ["1e1000000", "1e-1000000"])
def test_exponent_past_the_digit_limit_is_one_error_line(tmp_path, capsys, monkeypatch, exponent):
    # Fraction would expand 10**1000000 before anything else could object
    monkeypatch.setattr(jets, "validate_jet", _no_work)
    doc = dict(COMPLEX_JET, A=[[exponent, "0"], ["0", "1"]])
    code, out, err = run(capsys, "check", write_doc(tmp_path, "jet.json", doc))
    limit = sys.get_int_max_str_digits()
    assert (code, out, err) == (
        1, "", f"rounding-forge: error: $.A[0][0]: bad rational '{exponent}': "
               f"exponent exceeds the {limit}-digit limit\n",
    )


def test_exponents_within_the_digit_limit_still_parse():
    limit = sys.get_int_max_str_digits()
    assert cli._parse_rat("1e2", "$") == 100
    assert cli._parse_rat(" 1_5E-0_1 ", "$") == Fraction(3, 2)
    assert cli._parse_rat(f"1e-{limit}", "$") == Fraction(1, 10**limit)
    assert cli._parse_rat("1e" + "0" * 40 + "2", "$") == 100


@pytest.mark.parametrize("raw, message", [
    ("abc", "invalid float value: 'abc'"),
    ("0", "must be a positive finite number, got 0"),
    ("inf", "must be a positive finite number, got inf"),
])
def test_bad_tolerances_are_argument_errors(capsys, monkeypatch, raw, message):
    monkeypatch.setattr(cli, "_load_json", _no_work)
    code, out, err = run(capsys, "verify", "map.json", "--tol", raw)
    assert (code, out, err) == (1, "", f"rounding-forge: error: arguments: argument --tol: {message}\n")


def test_valid_tolerance_is_used_and_echoed(tmp_path, capsys):
    path = write_doc(tmp_path, "map.json", IDENTITY_MAP)
    code, report = run_json(capsys, "verify", path, "--tol", "1e-9", "--trials", "4")
    assert code == 0
    assert report["numeric"]["tol"] == "1.0000000000000001e-09"


def test_out_to_a_directory_is_one_error_line(tmp_path, capsys):
    path = write_doc(tmp_path, "jet.json", COMPLEX_JET)
    code, out, err = run(capsys, "canon", path, "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    # the reason after "cannot write: " is the platform's OSError text
    assert err.startswith(f"rounding-forge: error: {tmp_path}: cannot write: ")


def test_document_budget_admits_a_jet_at_its_limit():
    m = cli.MAX_JET_DIM
    doc = {"kind": "jet", "m": m, "n": m, "A": [[int(i == j) for j in range(m)] for i in range(m)],
           "B": [[[0] * m for _ in range(m)] for _ in range(m)]}
    jet = cli.jet_document_from_obj(doc)
    assert (jet.source_dim, jet.target_dim) == (m, m)


def test_budgets_admit_their_limits_and_bound_only_n():
    parser = cli.build_parser()
    assert parser is cli.build_parser()
    assert parser.parse_args(["verify", "m.json", "--trials", "10000"]).trials == 10000
    assert parser.parse_args(["verify", "m.json"]).trials == cli.DEFAULT_TRIALS
    assert parser.parse_args(["pairing", "100", "64"]).n == 64
    assert parser.parse_args(["hopf", "--size", "100", "64"]).size == [100, 64]
    cap = cliff.KAPPA_DOMAIN_CAP
    assert parser.parse_args(["tables", "--stiefel", "7", str(10**9), str(cap)]).stiefel == [7, 10**9, cap]
    assert parser.parse_args(["tables", "--rho", str(cap)]).rho == cap


# ---------------------------------------------------------------------------
# tables


def test_tables_rho_text(capsys):
    code, out, err = run(capsys, "tables", "--rho", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["n", "rho(n)"]
    assert lines[-1].split() == ["8", "8"]


def test_tables_rho_json(capsys):
    code, report = run_json(capsys, "tables", "--rho", "16", "--json")
    assert code == 0
    assert report["verdicts"]["rho"]["16"] == 9


def test_tables_kappa_json(capsys):
    code, report = run_json(capsys, "tables", "--kappa", "9", "--json")
    assert code == 0
    assert report["verdicts"]["kappa"]["9"] == 8


def test_tables_stiefel_infeasible(capsys):
    code, out, err = run(capsys, "tables", "--stiefel", "3", "5", "6")
    assert code == 2
    assert "infeasible" in out
    assert "k = 4" in out


def test_tables_stiefel_lists_a_bounded_number_of_binomials(capsys):
    code, report = run_json(capsys, "tables", "--stiefel", "3", "5", "6", "--json")
    assert (code, report["witnesses"]["odd_binomials"]) == (2, [4])
    assert "odd_binomial_count" not in report["witnesses"]
    argv = ("tables", "--stiefel", "1048576", "1048576", "1048575")
    code, out, err = run(capsys, *argv, "--json")
    report = json.loads(out)
    assert code == 2 and len(out) < 8192
    assert report["witnesses"]["odd_binomials"] == list(range(cli.MAX_LISTED_BINOMIALS))
    assert report["witnesses"]["odd_binomial_count"] == 1048576
    code, out, err = run(capsys, *argv)
    assert code == 2 and len(out) < 8192
    assert out.splitlines()[-1].endswith(", 63, ... (1048576 in all)")


class _Sink:
    """A stdout that counts what it is given and keeps none of it."""

    def __init__(self):
        self.size = 0

    def write(self, text: str) -> int:
        self.size += len(text)
        return len(text)

    def flush(self) -> None:
        pass


def _text_table_peak(flag: str, upto: int) -> tuple[int, int]:
    sink = _Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(["tables", flag, str(upto)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak, sink.size


@pytest.mark.parametrize("flag", ["--rho", "--kappa"])
def test_tables_text_mode_prints_rows_as_it_makes_them(flag):
    # 16 times the rows, the same peak: no row outlives its print
    _text_table_peak(flag, 2**12)  # warm caches before measuring
    small, small_bytes = _text_table_peak(flag, 2**12)
    large, large_bytes = _text_table_peak(flag, 2**16)
    assert large_bytes > 15 * small_bytes
    assert large < small + 16 * 1024


def test_tables_flags_are_exclusive(capsys):
    code, out, err = run(capsys, "tables", "--rho", "4", "--kappa", "4")
    assert code == 1


# ---------------------------------------------------------------------------
# byte stability: fixed invocations over documents built from the conftest
# jets, pinned by the SHA-256 of stdout and stderr and the exit code. Any
# change in the exact core that alters a report byte shows up here.


def _golden_documents(tmp_path):
    import random

    from conftest import complex_square_jet, flat_degenerate_jet, quaternion_jet, random_valid_jet
    from rounding_forge.jets import canonical_rounding

    docs = {
        "complex": cli.jet_to_doc(complex_square_jet()),
        "quaternion": cli.jet_to_doc(quaternion_jet()),
        "flat": cli.jet_to_doc(flat_degenerate_jet()),
        "random": cli.jet_to_doc(random_valid_jet(random.Random(4242), m=4, n=4)),
        "degenerate": cli.jet_to_doc(random_valid_jet(random.Random(77), m=5, n=2)),
    }
    paths = {name: write_doc(tmp_path, f"{name}.json", doc) for name, doc in docs.items()}
    fq = canonical_rounding(validate_jet(random_valid_jet(random.Random(4242), m=4, n=4)))
    paths["map"] = write_doc(tmp_path, "map.json", cli.fracquad_to_doc(fq))
    x1, x2, x3 = (Poly.variable(3, i) for i in range(3))
    maps = {
        # linear over a constant: every line goes to a line
        "linear": FracQuadMap(PolyMap(3, [x1 + 2 * x2, x3 - x1, Fraction(1, 3) * x2]), Poly.constant(3, 2)),
        # a plain quadratic map: lines go to parabolas
        "parabola": FracQuadMap(PolyMap(3, [x1 * x1, x2, x3]), Poly.constant(3, 1)),
        # one target coordinate
        "single": FracQuadMap(PolyMap(3, [x1 * x2 - x3]), 1 + x1 * x1 + x2 * x2),
    }
    for name, fmap in maps.items():
        paths[name] = write_doc(tmp_path, f"{name}.json", cli.fracquad_to_doc(fmap))
    return paths


GOLDEN_CASES = (
    ("check", "{complex}"),
    ("check", "{random}"),
    ("canon", "{random}", "--verify", "--trials", "6", "--seed", "3"),
    ("canon", "{quaternion}"),
    ("sphere", "{random}"),
    ("sphere", "{flat}"),
    ("factor", "{degenerate}"),
    ("degen", "{degenerate}"),
    ("pairing", "4", "8"),
    ("hopf", "--size", "2", "4"),
    ("verify", "{map}", "--trials", "6", "--seed", "5"),
    ("hopf",),
    ("verify", "{linear}", "--trials", "8", "--seed", "11"),
    ("verify", "{parabola}", "--trials", "8", "--seed", "11"),
    ("verify", "{single}", "--trials", "8", "--seed", "11"),
    ("tables", "--rho", "64"),
    ("tables", "--rho", "64", "--json"),
    ("tables", "--kappa", "64"),
    ("tables", "--kappa", "64", "--json"),
)

EMPTY = hashlib.sha256(b"").hexdigest()

# Recorded with plain Fraction arithmetic, before the integer-numerator
# kernels, so a kernel that changes any exact value or term order fails here.
GOLDEN = {
    "check {complex}": ("0fbf3e34388d56506658b7d2927e1a3e673e346ff2ff6ae61b2b38dcd1e713b8", EMPTY, 0),
    "check {random}": ("2265a0e80f5f48fb8e1a9f7eabbf5b1ef352e2cc1deeb7025c598e369bc2de53", EMPTY, 0),
    "canon {random} --verify --trials 6 --seed 3": ("a91025cfaede2443ab363dd9b35b79834e02823478ef3d3ff78e821e53c6bcf3", EMPTY, 0),
    "canon {quaternion}": ("aa05a588e5ef4b515731bf46871ed766fcb51d133868e840475a54fc5b311b70", EMPTY, 0),
    "sphere {random}": ("7e0e8a74311b118f17b68bbeda6fc6ab8b4fcace7ad6baa9095f912742b7428b", EMPTY, 0),
    "sphere {flat}": ("777a6ef2d31d455c3333eff1abb22785fd65af6a05a41129c21c73678818d20e", EMPTY, 2),
    "factor {degenerate}": ("385de4b7e410cf23cc1f918a42946779f5c9e36381adef14740d007f0cbc6e36", EMPTY, 0),
    "degen {degenerate}": ("9b594fda2074e593fc6f72ebaadc966c603fb550248a2c4ea52ec1ff3e5dd305", EMPTY, 0),
    "pairing 4 8": ("10ca1c552d878167fd69aeb87944ce1cdd2d168799e814c84474c15d50827674", EMPTY, 0),
    "hopf --size 2 4": ("26c989bf31be24fd57bba07a80d602c46fdaf4acd35e7b8f0aa4d76a40a3a41a", EMPTY, 0),
    "verify {map} --trials 6 --seed 5": ("a66448a5be3c1ff68a4d6b0339935d007e1e006cb6ad8614189b9dfe89960e66", EMPTY, 0),
    "hopf": (EMPTY, "ecd50a0c1e0d377d401fbd79d42b2f7eba9d8a557f2fdde00a29008cd6378c03", 1),
    # recorded before the oracle fitted its lines in stacks: line fits, a
    # failing quadratic map with a violation on every line, one coordinate
    "verify {linear} --trials 8 --seed 11": ("ea76bc481297dfda15e5d207705b057f73afa2ef8a0d485d250de7c607982da4", EMPTY, 0),
    "verify {parabola} --trials 8 --seed 11": ("86925a95d448ce6e314e1f63d9f117d71f7e04bccec50cbbc17eb59ab708d5e0", EMPTY, 2),
    "verify {single} --trials 8 --seed 11": ("7ea25b61f0f4d07bf75b932c8253f1cfbd0b751e8267100aed9d10500d50a81f", EMPTY, 0),
    # recorded while text mode still built the whole table before printing it
    "tables --rho 64": ("dc4a73498c2a10c205772ff268cedf8931e1cac95cc810b7b0dc587516fdb4b6", EMPTY, 0),
    "tables --rho 64 --json": ("272c8809bffc0d6f24c4283be74d4bfd2f61ea94059e4756443cd318c4fd90d3", EMPTY, 0),
    "tables --kappa 64": ("423ad1e645ec472c02ceb484b3410d1e84d94a2ea49d69a675bbd83af2a09722", EMPTY, 0),
    "tables --kappa 64 --json": ("98e3611269df1919899ae34780eb3de02460109a6ba09cdfeaebdc92026d487f", EMPTY, 0),
}


def test_cli_reports_byte_stable(tmp_path, capsys):
    paths = _golden_documents(tmp_path)
    got = {}
    for case in GOLDEN_CASES:
        code, out, err = run(capsys, *(arg.format(**paths) for arg in case))
        got[" ".join(case)] = (
            hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(err.encode()).hexdigest(),
            code,
        )
    assert got == GOLDEN


# ---------------------------------------------------------------------------
# document fuzzing: one field of a valid document replaced by a small JSON
# value must give a report (exit 0 or 2) or exactly one error line (exit 1)


def _fuzz_documents():
    from conftest import complex_square_jet

    fq = canonical_rounding(validate_jet(complex_square_jet()))
    return {
        "check": COMPLEX_JET,
        "verify": cli.fracquad_to_doc(fq),
        "hopf": cli.pairing_to_doc(cliff.normed_pairing(2, 2)),
    }


FUZZ_DOCUMENTS = _fuzz_documents()


def _json_paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


FUZZ_SITES = [(command, path) for command, doc in FUZZ_DOCUMENTS.items() for path in _json_paths(doc)]

SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _replaced(doc, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(doc))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(site=st.sampled_from(FUZZ_SITES), value=SMALL_JSON)
@example(site=("verify", ("F", 0, "terms")), value=5)
def test_fuzzed_documents_report_or_fail_with_one_line(tmp_path, capsys, site, value):
    command, path = site
    doc_path = write_doc(tmp_path, "doc.json", _replaced(FUZZ_DOCUMENTS[command], path, value))
    argv = [command, doc_path] + (["--trials", "4"] if command == "verify" else [])
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert out == ""
        assert err.startswith("rounding-forge: error: ")
        assert err.count("\n") == 1
    else:
        json.loads(out)


# ---------------------------------------------------------------------------
# argv fuzzing: argument lists drawn from a bounded vocabulary must give a
# report (exit 0 or 2) or exactly one error line (exit 1). The over-budget
# values are ones that argument parsing rejects against a budget, and --out
# always names a fresh path, so no example starts unbounded work or touches a
# fixture.

# each command with its number of positional arguments and its own flags
ARGV_COMMANDS = {
    "check": (1, ()), "degen": (1, ()), "factor": (1, ("--out",)), "sphere": (1, ("--out",)),
    "canon": (1, ("--out", "--verify", "--trials", "--seed", "--tol")), "equiv": (2, ()),
    "pairing": (2, ("--out",)), "hopf": (1, ("--size", "--out")),
    "tables": (0, ("--rho", "--kappa", "--stiefel", "--json")),
    "verify": (1, ("--trials", "--seed", "--tol")), "frobnicate": (0, ()),
}
# each flag with the number of values it takes
ARGV_FLAGS = {"--verify": 0, "--json": 0, "--nope": 0, "--trials": 1, "--seed": 1, "--tol": 1,
              "--rho": 1, "--kappa": 1, "--size": 2, "--stiefel": 3, "--out": 1}
ARGV_NUMBERS = ["-1", "0", "1", "2", "3", "4", "5"]
ARGV_OVER_BUDGET = [str(cli.MAX_TRIALS + 1), str(cli.MAX_PAIRING_N + 1), str(cliff.KAPPA_DOMAIN_CAP + 1)]
ARGV_JUNK = ["", "x", "1/2", "nan", "inf", "1e-9", "-", "--"]
ENV_SEEDS = [None, "0", "7", "-3", "junk", "", "1" * 5000]
OUT_NAMES = itertools.count()


def _argv_fixtures(tmp_path) -> list[str]:
    """Document paths, a directory and a missing path, written on first use."""
    docs = tmp_path / "docs"
    if not docs.exists():
        docs.mkdir()
        for name, doc in (("jet", COMPLEX_JET), ("flat", FLAT_JET), ("rank", RANK_ONE_JET)):
            write_doc(docs, f"{name}.json", doc)
        fq = canonical_rounding(validate_jet(cli.jet_document_from_obj(COMPLEX_JET)))
        write_doc(docs, "map.json", cli.fracquad_to_doc(fq))
        write_doc(docs, "pairing.json", cli.pairing_to_doc(cliff.normed_pairing(2, 2)))
    return sorted(str(p) for p in docs.iterdir()) + [str(docs), str(tmp_path / "missing.json")]


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_argv_reports_or_fails_with_one_line(tmp_path, capsys, monkeypatch, data):
    paths = _argv_fixtures(tmp_path)
    values = paths + ARGV_NUMBERS + ARGV_OVER_BUDGET + ARGV_JUNK
    command = data.draw(st.sampled_from(sorted(ARGV_COMMANDS)))
    arity, own_flags = ARGV_COMMANDS[command]
    # mostly the command's own shape: repeats weight the fitting draws
    count = data.draw(st.sampled_from([arity] * 4 + [0, 1, 2, 3]))
    fitting = ARGV_NUMBERS if command == "pairing" else paths
    argv = [command, *data.draw(st.lists(st.sampled_from(fitting * 3 + values),
                                         min_size=count, max_size=count))]
    flags = data.draw(st.lists(st.sampled_from(list(own_flags) * 6 + sorted(ARGV_FLAGS)), max_size=3))
    for name in flags:
        if name == "--out":
            argv += [name, str(tmp_path / f"out{next(OUT_NAMES)}.json")]
        else:
            arity = ARGV_FLAGS[name]
            argv += [name, *data.draw(st.lists(st.sampled_from(ARGV_NUMBERS * 3 + values),
                                               min_size=arity, max_size=arity))]
    seed = data.draw(st.sampled_from(ENV_SEEDS))
    if seed is None:
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(cli.SEED_ENV_VAR, seed)
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert out == ""
        assert err.startswith("rounding-forge: error: ")
        assert err.count("\n") == 1
        return
    args = cli.build_parser().parse_args(argv)
    if args.command == "tables" and not args.json:
        assert out.endswith("\n") and out.strip()
    else:
        json.loads(out)


# ---------------------------------------------------------------------------
# whole-document fuzzing: arbitrary small JSON, and jet, fracquad and pairing
# documents drawn whole, with booleans, floats and rational strings in every
# slot, must give a report (exit 0 or 2) or exactly one error line (exit 1).
# Every size is at most 4, well inside the document budgets, and rational
# strings are short, so no example starts over-budget work.

DOC_NONZERO = [1, -1, 2, "1", "-1", "1/2", "-3/4", "2/3", "1.5", "1e2"]
DOC_SPARSE = st.sampled_from([0] * 10 + DOC_NONZERO)
DOC_DENSE = st.sampled_from([0, 0] + DOC_NONZERO)
DOC_JUNK = st.one_of(st.booleans(), st.floats(), st.none(), st.sampled_from(["", "x", "1/0", "1/-0", " 2"]),
                     st.lists(st.integers(0, 1), max_size=2))
DOC_SIZE_JUNK = st.one_of(st.integers(0, 4), st.booleans(), st.floats(0, 4), st.sampled_from(["2", "1/2", None]))
DOC_EXPONENT_JUNK = st.one_of(st.integers(0, 3), st.booleans(), st.floats(0, 2), st.just("1"))


@st.composite
def whole_documents(draw, kind):
    """A document of the given kind, or arbitrary JSON for kind "json". A
    dirty document may put junk in any slot and declare sizes that disagree
    with its contents; a clean one is well formed, with terms of degree <= 2."""
    if kind == "json":
        return draw(SMALL_JSON | st.fixed_dictionaries(
            {"kind": st.sampled_from(["jet", "fracquad", "pairing", "spheremap"])},
            optional={key: SMALL_JSON for key in ("m", "n", "r", "s", "A", "B", "F", "Q", "tensor")}))
    dirty = draw(st.sampled_from([False, False, True]))

    def slot(values):
        return values | DOC_JUNK if dirty else values

    def declared(true):
        return draw(DOC_SIZE_JUNK) if dirty and draw(st.integers(0, 3)) == 0 else true

    def size():
        true = draw(st.integers(1, 4))
        return true, declared(true)

    if kind == "pairing":
        (n, dn), (r, dr) = size(), size()
        if not dirty and r <= cliff.rho(n) and draw(st.booleans()):
            return cli.pairing_to_doc(cliff.normed_pairing(r, n))
        s, ds = size()
        tensor = [[[draw(slot(DOC_SPARSE)) for _ in range(n)] for _ in range(s)] for _ in range(r)]
        return {"kind": "pairing", "r": dr, "s": ds, "n": dn, "tensor": tensor}
    (m, dm), (n, dn) = size(), size()
    if kind == "fracquad":
        def term(constant=False):
            if dirty:
                return [[draw(DOC_EXPONENT_JUNK) for _ in range(m)], draw(slot(DOC_SPARSE))]
            factors = [] if constant else draw(st.lists(st.integers(0, m - 1), max_size=2))
            coeff = draw(st.sampled_from(DOC_NONZERO) if constant else DOC_SPARSE)
            return [[factors.count(v) for v in range(m)], coeff]

        def poly(terms):
            return {"vars": declared(m), "terms": terms}

        numer = [poly([term() for _ in range(draw(st.integers(0, 3)))]) for _ in range(n)]
        denom = poly([term(constant=True)] + [term() for _ in range(draw(st.integers(0, 2)))])
        return {"kind": "fracquad", "m": dm, "n": dn, "F": numer, "Q": denom}
    # a flat quadratic part keeps many jets valid, and degenerate when m > rank A
    b_entry = st.just(0) if draw(st.booleans()) else slot(DOC_SPARSE)
    mats = []
    for _ in range(n):
        mat = [[draw(b_entry) for _ in range(m)] for _ in range(m)]
        if not dirty or draw(st.booleans()):
            mat = [[mat[min(i, j)][max(i, j)] for j in range(m)] for i in range(m)]
        mats.append(mat)
    linear = [[draw(slot(DOC_DENSE)) for _ in range(m)] for _ in range(n)]
    return {"kind": "jet", "m": dm, "n": dn, "A": linear, "B": mats}


# each command with the kind of document it reads and its extra arguments
DOC_COMMANDS = {
    "check": ("jet", []), "canon": ("jet", []), "degen": ("jet", []), "factor": ("jet", []),
    "sphere": ("jet", []), "equiv": ("jet", []), "verify": ("fracquad", ["--trials", "4"]),
    "hopf": ("pairing", []),
}
DOC_KINDS = ["json", "jet", "fracquad", "pairing"]
DOC_NAMES = itertools.count()


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(DOC_COMMANDS)), data=st.data())
def test_fuzzed_whole_documents_report_or_fail_with_one_line(tmp_path, capsys, command, data):
    own, extra = DOC_COMMANDS[command]
    # mostly the command's own kind: the repeats weight the draw
    kinds = st.sampled_from([own] * 8 + DOC_KINDS)
    docs = [data.draw(kinds.flatmap(whole_documents))]
    if command == "equiv":
        docs.append(data.draw(st.just(docs[0]) | kinds.flatmap(whole_documents)))
    # a fresh name per document: on some filesystems truncating a file costs
    # more than the command it feeds
    argv = [command, *(write_doc(tmp_path, f"doc{next(DOC_NAMES)}.json", doc) for doc in docs), *extra]
    if command == "canon" and data.draw(st.booleans()):
        argv += ["--verify", "--trials", "4"]
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert out == ""
        assert err.startswith("rounding-forge: error: ")
        assert err.count("\n") == 1
    else:
        json.loads(out)
