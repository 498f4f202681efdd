"""Source rules checked on the package's syntax trees: certificates are
raised as exceptions, never asserted, so `python -O` cannot strip them; a
sphere map is built in exactly two places, the Hopf construction and the
expanding check; polynomials are divided only where a division proves
something new, so no later stage re-divides what a RoundingJet proved;
a RoundingJet is proved only by validation and for the reduced jet of a
factorization; quartic inner products are expanded only by the three
constructions that prove an identity with them, so Hopf maps, pairing
roundings and sphere lifts reuse the proofs they inherit; a pairing's
Hurwitz equations are checked only by the builder that stores it;
one constructor builds a jet from matrices; only the polynomial kernels
in polycore build a Poly without validating its terms; a QuadForm's integer
form is stored only by its constructor, after the checks, and by its
kernels; a NormedPairing is stored only by its constructor and by
normed_pairing, through the one builder that proves its norm identity, and
only normed_pairing reads a generator system;
only polycore reads the integer form of a Poly or a QuadForm, and
a QuadForm's Fraction matrix is read only by the report emitters; a
PolyMap's column form is built and read only by inner_poly and its helper; a
RationalCurve's integer form is stored only
by its constructor, after the checks, and by the line restriction, and read
only in circles; only the line restriction, whose maps cap every term at
degree 2, composes a polynomial with a line; matrices are cleared in one
helper, and only _linalg and polycore take an lcm; the numeric oracle
evaluates only polynomials it compiled once, never eval_float, and one
float evaluator remains, which adds term by term, never with sum, fsum or
numpy's sum and add.reduce; the oracle draws its lines and samples their
parameters in one loop; polycore and circles raise floats to powers
with Python's **, never with numpy's power or ** on an ndarray; one circle fit remains, the stacked fit with the one SVD, and circle_fit
delegates to it; only the CLI's main writes an --out document; congruent diagonalization, which
trusts its matrix to be square and symmetric, is called only on a
QuadForm's integer rows; the one symmetric elimination is called
only by LDL^T and congruent diagonalization; no module imports a name
it never uses; and the package binds each name of its __all__ once, and
no other public name."""

import ast
import types
from pathlib import Path

import rounding_forge

PACKAGE = Path(rounding_forge.__file__).resolve().parent


def _asserting_nodes(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            lines.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
    return lines


def test_package_has_no_assert_certificates():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 8
    found = {}
    for path in modules:
        lines = _asserting_nodes(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if lines:
            found[path.name] = lines
    assert found == {}


def test_rule_catches_both_forms():
    tree = ast.parse("assert x\nraise AssertionError('y')\nraise AssertionError\nraise ValueError('z')\n")
    assert _asserting_nodes(tree) == [1, 2, 3]


def _sites(tree: ast.AST, match, scope: tuple[str, ...] = ()) -> list[str]:
    """Dotted names of the functions and classes holding a node that
    match(node) accepts, once per node."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (node.name,)
        elif match(node):
            found.append(".".join(scope))
        found.extend(_sites(node, match, inner))
    return found


def _called_name(node: ast.AST) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _callers(tree: ast.AST, callee: str) -> list[str]:
    """Dotted names of the functions and classes that call callee(...),
    once per call site."""
    return _sites(tree, lambda node: _called_name(node) == callee)


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.rglob("*.py"))}


def _module_sites(sources: dict[str, str], match) -> list[str]:
    found = []
    for stem, text in sources.items():
        found.extend(f"{stem}.{name}" for name in _sites(ast.parse(text, filename=stem), match))
    return sorted(found)


def _module_callers(sources: dict[str, str], callee: str) -> list[str]:
    return _module_sites(sources, lambda node: _called_name(node) == callee)


def _package_callers(callee: str) -> list[str]:
    return _module_callers(_package_sources(), callee)


def _foreign_sites(sources: dict[str, str], match, homes: tuple[str, ...]) -> list[str]:
    return [name for name in _module_sites(sources, match) if name.split(".")[0] not in homes]


def _foreign_callers(sources: dict[str, str], callee: str, home: str) -> list[str]:
    return _foreign_sites(sources, lambda node: _called_name(node) == callee, (home,))


def test_sphere_maps_come_from_one_construction():
    assert _package_callers("QuadSphereMap") == ["spheres.QuadSphereMap.checked", "spheres.hopf_construction"]


def test_divisions_happen_only_where_they_prove_something():
    # a RoundingJet divides once per identity; everything downstream
    # inherits p and q instead of dividing again
    assert _package_callers("poly_divmod") == [
        "jets.RoundingJet.__post_init__",
        "jets.RoundingJet.__post_init__",
        "polycore.divide_exact",
        "spheres.split_norm",
    ]
    assert _package_callers("divide_exact") == [
        "jets.check_series_divisibility",
        "jets.check_series_divisibility",
        "jets.parallel_factor",
    ]


def test_rounding_jets_are_proved_in_two_places():
    # validation proves a jet once; the only other proof is the reduced jet
    # of a factorization. B - pA is not validated again: rj's divisions give
    # its p = 0 and q - p^2
    assert _package_callers("RoundingJet") == ["jets.factor_degenerate", "jets.validate_jet"]


def test_rounding_jet_rule_catches_a_foreign_call():
    sources = _package_sources()
    sources["jets"] += "\ndef normalized(rj):\n    return RoundingJet(transform_jet(rj.jet, 1, -rj.p))\n"
    sources["spheres"] += "\nclass Probe:\n    rj = jets.RoundingJet(jet)\n"
    assert _module_callers(sources, "RoundingJet") == [
        "jets.factor_degenerate", "jets.normalized", "jets.validate_jet", "spheres.Probe",
    ]


def test_quartics_are_expanded_only_where_they_prove_something():
    # a RoundingJet expands <A,A>, <A,B> and <B,B>; the expanding sphere
    # check and the norm split expand theirs. A NormedPairing proves its norm
    # identity by the Hurwitz equations instead. hopf_map, pairing_to_rounding
    # and the sphere lift reuse those proofs instead of expanding again
    assert _package_callers("inner_poly") == [
        "jets.RoundingJet.__post_init__",
        "jets.RoundingJet.__post_init__",
        "jets.RoundingJet.__post_init__",
        "spheres.QuadSphereMap.checked",
        "spheres.split_norm",
    ]


def test_quartic_rule_catches_a_foreign_call():
    sources = _package_sources()
    sources["cliff"] += "\ndef hopf_gram(pairing):\n    return inner_poly(pairing.f, pairing.f)\n"
    sources["spheres"] += "\nclass Probe:\n    g = polycore.inner_poly(f, f)\n"
    assert _module_callers(sources, "inner_poly") == [
        "cliff.hopf_gram",
        "jets.RoundingJet.__post_init__",
        "jets.RoundingJet.__post_init__",
        "jets.RoundingJet.__post_init__",
        "spheres.Probe",
        "spheres.QuadSphereMap.checked",
        "spheres.split_norm",
    ]


def test_sums_of_products_are_taken_in_one_kernel_call():
    # the product kernel is reached by Poly products, by the canonical
    # numerators (one call per N_i) and by the series check's three sums;
    # every other product goes through those, and inner_poly sums columns
    assert _package_callers("_sum_of_products") == [
        "jets.canonical_rounding",
        "jets.check_series_divisibility",
        "jets.check_series_divisibility",
        "jets.check_series_divisibility",
        "polycore.Poly.__mul__",
    ]


def test_product_kernel_rule_catches_a_foreign_call():
    sources = _package_sources()
    sources["spheres"] += "\ndef doubled(f):\n    return _sum_of_products(f.source_dim, [(c, c) for c in f.coords])\n"
    sources["cliff"] += "\nclass Probe:\n    s = polycore._sum_of_products(2, [])\n"
    assert _module_callers(sources, "_sum_of_products") == [
        "cliff.Probe",
        "jets.canonical_rounding",
        "jets.check_series_divisibility",
        "jets.check_series_divisibility",
        "jets.check_series_divisibility",
        "polycore.Poly.__mul__",
        "spheres.doubled",
    ]


def test_builder_rule_sees_nested_and_qualified_calls():
    tree = ast.parse(
        "x = QuadSphereMap(f)\n"
        "class C:\n"
        "    def m(self):\n"
        "        return g(spheres.QuadSphereMap(f, h(QuadSphereMap(k))))\n"
        "def lift():\n"
        "    return QuadSphereMap.checked(f, g)\n"
    )
    assert _callers(tree, "QuadSphereMap") == ["", "C.m", "C.m"]


def test_jets_are_built_from_matrices_in_one_place():
    # jet documents, the reduced jet of a factorization and the bench all
    # hand over matrices; one constructor turns them into polynomial maps
    assert _package_callers("from_linear_matrix") == ["jets.jet_from_matrices"]
    assert _package_callers("from_symmetric_matrices") == ["jets.jet_from_matrices"]


def test_matrix_constructor_rule_catches_a_foreign_call():
    sources = _package_sources()
    sources["jets"] += "\ndef reduced_linear(rows):\n    return PolyMap.from_linear_matrix(rows)\n"
    sources["spheres"] += "\nclass Probe:\n    quad = polycore.PolyMap.from_symmetric_matrices([])\n"
    assert _module_callers(sources, "from_linear_matrix") == ["jets.jet_from_matrices", "jets.reduced_linear"]
    assert _module_callers(sources, "from_symmetric_matrices") == ["jets.jet_from_matrices", "spheres.Probe"]


def test_trusted_construction_stays_in_polycore():
    # kernel output skips Poly's validation, so only the kernels may build it
    sources = _package_sources()
    assert len(_module_callers(sources, "_int_poly")) >= 8
    assert _foreign_callers(sources, "_int_poly", "polycore") == []


def test_trusted_rule_catches_a_call_from_another_module():
    sources = _package_sources()
    sources["jets"] += "\ndef smuggle(n):\n    return polycore._int_poly(n, {}, 1)\n"
    sources["spheres"] += "\nfrom .polycore import _int_poly\nZERO = _int_poly(0, {}, 1)\n"
    assert _foreign_callers(sources, "_int_poly", "polycore") == ["jets.smuggle", "spheres."]


def _reads_integer_form(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in ("_ints", "_den")


def test_integer_form_is_read_only_in_polycore():
    # a Poly's packed keys and a QuadForm's integer rows, each over one
    # denominator, are polycore's format; other modules read Poly through its
    # methods, terms, or _quadratic_terms, and QuadForm through its matrix or,
    # as _linalg's input, _int_rows
    sources = _package_sources()
    assert len(_module_sites(sources, _reads_integer_form)) >= 20
    assert _foreign_sites(sources, _reads_integer_form, ("polycore",)) == []


def test_integer_form_rule_catches_a_foreign_read():
    sources = _package_sources()
    sources["jets"] += "\ndef size(p):\n    return len(p._ints)\n"
    sources["cli"] += "\nclass Probe:\n    den = poly._den\n"
    sources["spheres"] += "\ndef gram_rows(sm):\n    return sm.gram._ints\n"
    assert _foreign_sites(sources, _reads_integer_form, ("polycore",)) == ["cli.Probe", "jets.size", "spheres.gram_rows"]


def _reads_form_matrix(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "matrix"


_FORM_MATRIX_READERS = ["cli.jet_to_doc", "cli.spheremap_to_doc"]


def test_form_matrix_is_read_only_by_the_emitters():
    # a QuadForm's Fraction matrix is written into reports; _linalg takes its
    # integer rows, and its values come from to_poly(), through Poly's evaluators
    assert _module_sites(_package_sources(), _reads_form_matrix) == _FORM_MATRIX_READERS


def test_form_matrix_rule_catches_a_foreign_read():
    sources = _package_sources()
    head = "        return self.to_poly()(point)\n"
    assert head in sources["polycore"]
    sources["polycore"] = sources["polycore"].replace(
        head, "        return sum(v * sum(s * w for s, w in zip(row, point)) for v, row in zip(point, self.matrix))\n")
    sources["spheres"] += "\ndef gram_value(sm, x):\n    return sum(float(s) * x[0] for s in sm.gram.matrix[0])\n"
    sources["circles"] += "\nclass Probe:\n    rows = form.matrix\n"
    assert _module_sites(sources, _reads_form_matrix) == sorted(
        _FORM_MATRIX_READERS + ["circles.Probe", "polycore.QuadForm.__call__", "spheres.gram_value"])


def _touches_column_form(node: ast.AST) -> bool:
    # the slot by attribute or by name, as object.__setattr__ writes it, and the helper
    if isinstance(node, ast.Attribute) and node.attr == "_columns":
        return True
    return (isinstance(node, ast.Constant) and node.value == "_columns") or _called_name(node) == "_column_form"


_COLUMN_FORM_SITES = [
    "polycore.PolyMap", "polycore._column_form", "polycore._column_form", "polycore._column_form",
    "polycore.inner_poly", "polycore.inner_poly",
]


def test_column_form_is_built_and_read_only_by_inner_poly():
    # the slot is declared in PolyMap and filled by _column_form on first use;
    # inner_poly reads it only through that helper
    assert _module_sites(_package_sources(), _touches_column_form) == _COLUMN_FORM_SITES


def test_column_form_rule_catches_a_foreign_read():
    sources = _package_sources()
    sources["jets"] += "\ndef columns(a):\n    return a._columns\n"
    sources["spheres"] += "\nclass Probe:\n    cols = polycore._column_form(f)\n"
    sources["cliff"] += "\ndef reset(m):\n    object.__setattr__(m, '_columns', None)\n"
    sources["polycore"] += "\ndef width(u):\n    return len(u._columns[0])\n"
    assert _module_sites(sources, _touches_column_form) == sorted(
        _COLUMN_FORM_SITES + ["cliff.reset", "jets.columns", "polycore.width", "spheres.Probe"])


def _uses_lcm(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.module == "math" and any(alias.name == "lcm" for alias in node.names)
    return _called_name(node) == "lcm"


def test_lcm_is_taken_only_where_denominators_are_cleared():
    # _linalg clears matrices and vectors, polycore keeps each Poly cleared
    sources = _package_sources()
    assert {name.split(".")[0] for name in _module_sites(sources, _uses_lcm)} == {"_linalg", "polycore"}
    assert _foreign_sites(sources, _uses_lcm, ("_linalg", "polycore")) == []


def test_lcm_rule_catches_a_foreign_use():
    sources = _package_sources()
    sources["circles"] += "\nfrom math import gcd, lcm\n"
    sources["spheres"] += "\ndef scale(xs):\n    return math.lcm(*xs)\n"
    assert _foreign_sites(sources, _uses_lcm, ("_linalg", "polycore")) == ["circles.", "spheres.scale"]


def test_forms_are_stored_only_by_their_constructor_and_kernels():
    # the builder skips coercion and the square and symmetry checks: the
    # constructor runs them first, and each kernel builds a symmetric matrix
    assert _package_callers("_store_form") == [
        "polycore.QuadForm.__init__", "polycore.QuadForm.__neg__",
        "polycore.QuadForm.from_poly", "polycore.QuadForm.restricted",
    ]


def test_form_store_rule_catches_a_foreign_call():
    sources = _package_sources()
    sources["polycore"] += "\ndef zero_form(n):\n    return _store_form(object.__new__(QuadForm), [[0] * n] * n, 1)\n"
    sources["spheres"] += "\nclass Probe:\n    gram = polycore._store_form(form, [[1]], 1)\n"
    assert _module_callers(sources, "_store_form") == [
        "polycore.QuadForm.__init__", "polycore.QuadForm.__neg__",
        "polycore.QuadForm.from_poly", "polycore.QuadForm.restricted",
        "polycore.zero_form", "spheres.Probe",
    ]


def test_curves_are_stored_only_by_their_constructor_and_the_line_restriction():
    # the builder skips coercion, the degree caps and the norm check: the
    # constructor runs them first, and the line restriction needs none of them
    assert _package_callers("_store_curve") == ["circles.RationalCurve.__init__", "circles.restrict_to_line"]


def test_curve_store_rule_catches_a_foreign_call():
    sources = _package_sources()
    sources["circles"] += "\ndef shortcut(num):\n    return _store_curve(object.__new__(RationalCurve), [num], (1,), 1)\n"
    sources["cli"] += "\ndef emit_line(c):\n    return circles._store_curve(c, [], (1,), 1)\n"
    assert _module_callers(sources, "_store_curve") == [
        "circles.RationalCurve.__init__", "circles.restrict_to_line", "circles.shortcut", "cli.emit_line",
    ]


def test_pairings_are_stored_only_by_their_constructor_and_the_clifford_build():
    # the builder skips coercion and the shape check: the constructor runs
    # them first, and normed_pairing hands over checked signed permutations;
    # both go through the builder's one proof of the norm identity
    assert _package_callers("_store_pairing") == ["cliff.NormedPairing.__init__", "cliff.normed_pairing"]


def test_pairing_store_rule_catches_a_foreign_call():
    sources = _package_sources()
    sources["cliff"] += "\ndef unit(n):\n    return _store_pairing(object.__new__(NormedPairing), 1, n, n, [])\n"
    sources["cli"] += "\nclass Probe:\n    p = cliff._store_pairing(p, 1, 1, 1, [(0, 0, 0, 1)])\n"
    assert _module_callers(sources, "_store_pairing") == [
        "cli.Probe", "cliff.NormedPairing.__init__", "cliff.normed_pairing", "cliff.unit",
    ]


def test_generator_systems_are_reached_only_by_normed_pairing():
    # a generator system is proved only as the slabs of the pairing built
    # from it, so nothing else in the package reads one; _generator_perms
    # calls itself for the smaller systems it is built from
    assert _package_callers("_generator_perms") == [
        "cliff._generator_perms", "cliff._generator_perms", "cliff._generator_perms", "cliff.normed_pairing",
    ]


def test_generator_rule_catches_a_foreign_call():
    sources = _package_sources()
    sources["cliff"] += "\ndef generator_dim(k):\n    return _generator_perms(k)[0].dim\n"
    sources["cli"] += "\nclass Probe:\n    gens = cliff._generator_perms(2)\n"
    assert _module_callers(sources, "_generator_perms") == [
        "cli.Probe", "cliff._generator_perms", "cliff._generator_perms", "cliff._generator_perms",
        "cliff.generator_dim", "cliff.normed_pairing",
    ]


def test_pairings_are_proved_only_where_they_are_stored():
    # the Hurwitz equations are the norm identity of the entries the builder
    # is about to store; every pairing, built or read, passes through it
    assert _package_callers("_hurwitz_equations_hold") == ["cliff._store_pairing"]


def test_hurwitz_rule_catches_a_foreign_call():
    sources = _package_sources()
    sources["cliff"] += "\ndef is_normed(p):\n    return _hurwitz_equations_hold(p.left_dim, p.right_dim, [])\n"
    sources["cli"] += "\nclass Probe:\n    ok = cliff._hurwitz_equations_hold(1, 1, [(0, 0, 0, 1)])\n"
    assert _module_callers(sources, "_hurwitz_equations_hold") == [
        "cli.Probe", "cliff._store_pairing", "cliff.is_normed",
    ]


def _reads_curve_form(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in ("_int_numerators", "_int_denominator", "_scale")


def test_curve_form_is_read_only_in_circles():
    # the integer coefficients over one scale are circles' format; other
    # modules read a RationalCurve through its Fraction views
    sources = _package_sources()
    assert len(_module_sites(sources, _reads_curve_form)) >= 6
    assert _foreign_sites(sources, _reads_curve_form, ("circles",)) == []


def test_curve_form_rule_catches_a_foreign_read():
    sources = _package_sources()
    sources["cli"] += "\ndef degree(curve):\n    return len(curve._int_denominator) - 1\n"
    sources["spheres"] += "\nclass Probe:\n    scale = curve._scale\n"
    assert _foreign_sites(sources, _reads_curve_form, ("circles",)) == ["cli.degree", "spheres.Probe"]


def test_only_the_line_restriction_composes_with_a_line():
    # _integer_on_line has closed forms for degree 2 and below only;
    # restrict_to_line passes a FracQuadMap's terms, which are capped there
    assert _package_callers("_integer_on_line") == ["circles.restrict_to_line"]


def test_line_composition_rule_catches_a_foreign_call():
    sources = _package_sources()
    sources["circles"] += "\ndef on_line(terms, b, d):\n    return _integer_on_line(terms, b, d, 1)\n"
    sources["spheres"] += "\nclass Probe:\n    at = circles._integer_on_line([], [0], [1], 1)\n"
    assert _module_callers(sources, "_integer_on_line") == [
        "circles.on_line", "circles.restrict_to_line", "spheres.Probe",
    ]


def test_denominators_are_cleared_in_one_place():
    assert _package_callers("common_denominator") == ["_linalg.cleared"]


def test_clearing_rule_catches_a_foreign_call():
    sources = _package_sources()
    sources["circles"] += "\ndef scale_of(xs):\n    return _linalg.common_denominator(xs)\n"
    sources["_linalg"] += "\nclass Row:\n    den = common_denominator([])\n"
    assert _module_callers(sources, "common_denominator") == [
        "_linalg.Row", "_linalg.cleared", "circles.scale_of",
    ]


def test_numeric_oracle_stays_on_compiled_evaluation():
    # eval_float compiles its Polys on every call; circles compiles Q and
    # every F[i] into one form once per oracle run instead, and evaluates
    # them from one power table per sampled point
    sources = _package_sources()
    assert _module_callers({"circles": sources["circles"]}, "eval_float") == []
    # Q at every sampled point, each F[i] once per block
    assert _module_callers({"circles": sources["circles"]}, "_eval_float_rows") == [
        "circles._guarded", "circles.verify_rounding_numeric",
    ]
    # one float evaluator: every eval_float reaches the same rows
    assert _package_callers("_eval_float_rows") == [
        "circles._guarded", "circles.verify_rounding_numeric", "polycore._eval_floats",
    ]
    assert _package_callers("_eval_floats") == [
        "jets.FracQuadMap.eval_float", "polycore.Poly.eval_float", "polycore.PolyMap.eval_float",
    ]


def test_compiled_evaluation_rule_catches_an_eval_float_call():
    sources = _package_sources()
    sources["circles"] += "\ndef sample(p, x):\n    return p.eval_float(x)\n"
    sources["circles"] += "\nclass Probe:\n    value = denominator.eval_float([0.0])\n"
    assert _module_callers({"circles": sources["circles"]}, "eval_float") == [
        "circles.Probe", "circles.sample",
    ]


def test_numeric_oracle_samples_in_one_loop():
    # a line that finds too few points is sampled again by the same loop,
    # alone at doubled counts, so no second path draws a line or its parameters
    assert _package_callers("_line") == ["circles._sample_block", "circles._sample_block"]
    assert _package_callers("_guarded") == ["circles._sample_block"]


def test_sampling_rule_catches_a_foreign_call():
    sources = _package_sources()
    sources["circles"] += (
        "\ndef _finish_line(draws, line, read, powers, den_rows):\n"
        "    return _guarded(draws, [line], read, powers, den_rows)\n"
    )
    sources["cli"] += "\nclass Probe:\n    line = circles._line(draws, 0, 1, 2)\n"
    assert _module_callers(sources, "_guarded") == ["circles._finish_line", "circles._sample_block"]
    assert _module_callers(sources, "_line") == ["circles._sample_block", "circles._sample_block", "cli.Probe"]


def test_one_circle_fit_remains():
    # the oracle fits its sampled lines in stacks, and circle_fit is that
    # fit on a stack of one, so one SVD call site serves both
    sources = _package_sources()
    assert _package_callers("svd") == ["circles._fit_stack"]
    assert _module_callers({"circles": sources["circles"]}, "_fit_stack") == [
        "circles.circle_fit", "circles.verify_rounding_numeric",
    ]


def test_circle_fit_rule_catches_a_second_fit():
    sources = _package_sources()
    head = "    return _fit_stack(pts[np.newaxis])[0]\n"
    assert head in sources["circles"]
    sources["circles"] = sources["circles"].replace(head, "    return np.linalg.svd(pts)\n")
    sources["spheres"] += "\nclass Probe:\n    basis = np.linalg.svd(np.eye(2))[2]\n"
    assert _module_callers(sources, "svd") == ["circles._fit_stack", "circles.circle_fit", "spheres.Probe"]
    assert _module_callers({"circles": sources["circles"]}, "_fit_stack") == ["circles.verify_rounding_numeric"]


# the float evaluator: its compile, its power table, its rows and the
# functions that drive it
_FLOAT_EVALUATOR = (
    "circles._guarded", "circles._sample_block", "circles.verify_rounding_numeric",
    "jets.FracQuadMap.eval_float", "polycore.Poly.eval_float", "polycore.PolyMap.eval_float",
    "polycore._FloatForm", "polycore._eval_float_rows", "polycore._eval_floats",
)


def _float_evaluator_sums(sources: dict[str, str]) -> list[str]:
    # sum and fsum, np.sum and the .sum method, and np.add.reduce
    sites = _module_sites(sources, lambda node: _called_name(node) in ("sum", "fsum", "reduce"))
    return [name for name in sites if any(name == f or name.startswith(f + ".") for f in _FLOAT_EVALUATOR)]


def test_float_evaluator_adds_term_by_term():
    # Python 3.12 made sum() of floats compensated and fsum rounds once, and
    # numpy's sum and add.reduce add pairwise, so each would move report
    # bytes; the evaluator adds each term to a running total from 0.0, in
    # stored order, with np.add.accumulate
    assert _float_evaluator_sums(_package_sources()) == []


_EVAL_ROWS_HEAD = "def _eval_float_rows(rows: tuple[np.ndarray, np.ndarray], pw: np.ndarray) -> np.ndarray:\n"


def test_float_sum_rule_catches_a_sum_in_the_evaluator():
    sources = _package_sources()
    head = _EVAL_ROWS_HEAD
    assert head in sources["polycore"]
    sources["polycore"] = sources["polycore"].replace(
        head, head + "    return sum([c * pw[i] * pw[j] for c, i, j in zip(*rows)])\n")
    head = "        d, *values = _eval_floats([self.denom, *self.numer.coords], point)\n"
    assert head in sources["jets"]
    sources["jets"] = sources["jets"].replace(head, head + "        d = math.fsum([d])\n")
    # a sum outside the evaluator is not its business
    sources["circles"] += "\ndef mean(xs):\n    return sum(xs) / len(xs)\n"
    assert _float_evaluator_sums(sources) == ["jets.FracQuadMap.eval_float", "polycore._eval_float_rows"]


def test_float_sum_rule_catches_a_numpy_sum_in_the_evaluator():
    sources = _package_sources()
    head = _EVAL_ROWS_HEAD
    assert head in sources["polycore"]
    sources["polycore"] = sources["polycore"].replace(head, head + "    return np.add.reduce(pw)\n")
    head = "    q = _eval_float_rows(den_rows, pw).reshape(t.shape)\n"
    assert head in sources["circles"]
    sources["circles"] = sources["circles"].replace(head, head + "    q = np.sum(pw, axis=0)\n")
    head = "        q = np.concatenate([q for _, q in points])\n"
    assert head in sources["circles"]
    sources["circles"] = sources["circles"].replace(head, head + "        q = pw.sum(axis=0)\n")
    # a numpy sum outside the evaluator is not its business
    sources["circles"] += "\ndef spread(pts):\n    return np.sum(pts * pts)\n"
    assert _float_evaluator_sums(sources) == [
        "circles._guarded", "circles.verify_rounding_numeric", "polycore._eval_float_rows",
    ]


def _functions(tree: ast.AST, scope: tuple[str, ...] = ()):
    """(dotted name, node) of each function, methods and nested functions included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not isinstance(node, ast.ClassDef):
                yield ".".join(scope + (node.name,)), node
            yield from _functions(node, scope + (node.name,))


def _is_array(node: ast.AST, arrays: set[str]) -> bool:
    """Whether an expression is an ndarray by its syntax: a name in arrays, a
    numpy call, or an index, attribute, method call or arithmetic of an
    array. tolist and item give Python numbers."""
    if isinstance(node, ast.Name):
        return node.id in arrays
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        owner = node.func.value
        if isinstance(owner, ast.Name) and owner.id in ("np", "numpy"):
            return True
        return node.func.attr not in ("tolist", "item") and _is_array(owner, arrays)
    if isinstance(node, (ast.Subscript, ast.Attribute)):
        return _is_array(node.value, arrays)
    if isinstance(node, ast.BinOp):
        return _is_array(node.left, arrays) or _is_array(node.right, arrays)
    if isinstance(node, ast.UnaryOp):
        return _is_array(node.operand, arrays)
    return False


def _array_names(func: ast.AST) -> set[str]:
    """The names a function binds to arrays: parameters annotated as
    ndarrays, and names assigned an array expression."""
    params = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
    arrays = {a.arg for a in params if a.annotation is not None and "ndarray" in ast.unparse(a.annotation)}
    assigns = [node for node in ast.walk(func) if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))]
    grown = True
    while grown:
        grown = False
        for node in assigns:
            if node.value is None or not _is_array(node.value, arrays):
                continue
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id not in arrays:
                        arrays.add(name.id)
                        grown = True
    return arrays


def _numpy_powers(sources: dict[str, str]) -> list[str]:
    """Functions in polycore and circles that call numpy's power, or raise an
    ndarray to a power with **."""
    found = []
    for stem in ("circles", "polycore"):
        for name, func in _functions(ast.parse(sources[stem], filename=stem)):
            arrays = _array_names(func)
            for node in ast.walk(func):
                if _called_name(node) in ("power", "float_power"):
                    found.append(f"{stem}.{name}")
                elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
                    left = node.left if isinstance(node, ast.BinOp) else node.target
                    if _is_array(left, arrays) or _is_array(node.value if isinstance(node, ast.AugAssign)
                                                            else node.right, arrays):
                        found.append(f"{stem}.{name}")
    return sorted(found)


def test_float_powers_are_the_c_librarys():
    # numpy's power is not the C library's pow that Python's ** calls: on
    # 10^6 draws they differ in the last bit up to 27,503 times; the power
    # table raises each coordinate to k >= 2 as a Python float
    assert _numpy_powers(_package_sources()) == []


def test_float_power_rule_catches_a_numpy_power():
    sources = _package_sources()
    head = "            row[:] = x[:, v] if k == 1 else [c ** k for c in x[:, v].tolist()]\n"
    assert head in sources["polycore"]
    sources["polycore"] = sources["polycore"].replace(head, "            row[:] = x[:, v] ** k\n")
    head = "    x = np.array(base)[:, np.newaxis] + t[..., np.newaxis] * np.array(direction)[:, np.newaxis]\n"
    assert head in sources["circles"]
    sources["circles"] = sources["circles"].replace(head, head + "    square = t ** 2\n    x **= 1\n")
    sources["circles"] += "\ndef squares(x):\n    return np.power(x, 2)\n"
    # ** on Python numbers is not its business
    sources["circles"] += "\ndef area(r):\n    return [c ** 2 for c in np.array(r).tolist()]\n"
    assert _numpy_powers(sources) == [
        "circles._guarded", "circles._guarded", "circles.squares", "polycore._FloatForm.powers",
    ]


def test_out_documents_are_written_only_by_main():
    # handlers put their document in the report; main writes it once, after
    # the handler has returned
    assert _package_callers("_write_doc") == ["cli.main"]


def test_out_rule_catches_a_write_from_a_handler():
    sources = _package_sources()
    head = "def cmd_sphere(args) -> Report:\n"
    assert head in sources["cli"]
    sources["cli"] = sources["cli"].replace(head, head + "    _write_doc(args.out, {})\n")
    assert _module_callers(sources, "_write_doc") == ["cli.cmd_sphere", "cli.main"]


def test_congruent_diagonalization_runs_only_on_checked_forms():
    # congruent_diagonalize does not check that its matrix is square and
    # symmetric; both callers pass a QuadForm's integer rows, symmetric by construction
    assert _package_callers("congruent_diagonalize") == ["jets.is_degenerate", "polycore.form_signature"]


def test_congruence_rule_catches_a_foreign_call():
    sources = _package_sources()
    sources["spheres"] += "\ndef diagonal(rows):\n    return _linalg.congruent_diagonalize(rows)\n"
    sources["_linalg"] += "\nclass Probe:\n    d = congruent_diagonalize([[1]])\n"
    assert _module_callers(sources, "congruent_diagonalize") == [
        "_linalg.Probe", "jets.is_degenerate", "polycore.form_signature", "spheres.diagonal",
    ]


def test_symmetric_elimination_has_two_callers():
    # LDL^T and congruent diagonalization share one elimination; everything
    # else reaches it through them
    assert _package_callers("_symmetric_bareiss") == ["_linalg.congruent_diagonalize", "_linalg.ldl"]


def test_elimination_rule_catches_a_foreign_call():
    sources = _package_sources()
    sources["jets"] += "\ndef pivots(rows):\n    return _linalg._symmetric_bareiss(rows)[2]\n"
    sources["_linalg"] += "\nclass Probe:\n    d = _symmetric_bareiss([[1]])\n"
    assert _module_callers(sources, "_symmetric_bareiss") == [
        "_linalg.Probe", "_linalg.congruent_diagonalize", "_linalg.ldl", "jets.pivots",
    ]


def _unused_imports(tree: ast.AST) -> list[str]:
    """Names a module imports but never reads; __future__ features do not count."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export
    found = {stem: _unused_imports(ast.parse(text, filename=stem))
             for stem, text in _package_sources().items() if stem != "__init__"}
    assert len(found) >= 7
    assert {stem: names for stem, names in found.items() if names} == {}


def test_unused_import_rule_catches_a_foreign_case():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "import xml.dom\n"
        "from .polycore import Poly, _FloatForm as ft\n"
        "def f(p: Poly):\n"
        "    return np.zeros(1)\n"
    )
    assert _unused_imports(tree) == ["os", "xml", "ft"]
    # the float sampler's imports, left behind in spheres without it
    sources = _package_sources()
    head = "    QuadForm,\n    form_signature,\n"
    assert head in sources["spheres"]
    sources["spheres"] = sources["spheres"].replace(head, "    QuadForm,\n    _FloatForm,\n    form_signature,\n")
    assert _unused_imports(ast.parse(sources["spheres"])) == ["_FloatForm"]


def _public_definitions(tree: ast.Module) -> list[str]:
    """Public names a module defines at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
    return sorted(name for name in names if not name.startswith("_"))


def test_public_names_resolve():
    # __init__ re-exports each name in __all__ once and binds nothing else
    # public besides the modules
    names = rounding_forge.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(rounding_forge, name)] == []
    bound = {name for name, value in vars(rounding_forge).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == set(names)
    # a generator system has no public name of its own: normed_pairing is
    # the one way to reach one
    assert _public_definitions(ast.parse(_package_sources()["cliff"])) == [
        "KAPPA_DOMAIN_CAP", "NormedPairing", "SizeInfeasible", "hopf_map", "kappa", "normed_pairing",
        "pairing_to_rounding", "rho", "stiefel_hopf_feasible",
    ]
