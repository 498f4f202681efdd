"""Span tracing installed from outside the package.

`Tracer.install` replaces each traced function with a wrapper in every
module namespace that holds it (a name imported with `from .polycore import
inner_poly` lives in several modules), and on the class for methods. Each
call records a span (name, start, end, parent) in memory, and `write`
saves them when the run ends. Counters that inspect a result run after the
span ends and are recorded as a child "trace" span of the caller, so they
never count as a layer's self time.
`uninstall` puts every original back.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

from rounding_forge import _linalg, circles, cli, cliff, jets, polycore, spheres

BOOKKEEPING = "trace"


def _coeff_bits(p) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in p.terms.values()), default=0)


def _observe_poly(tr, name, res, exc):
    if exc is None:
        tr.count(f"{name}.out_terms", len(res.terms))
        tr.maximum("polycore.coeff_bits_max", _coeff_bits(res))


def _observe_divmod(tr, name, res, exc):
    if exc is None:
        tr.maximum("polycore.coeff_bits_max", _coeff_bits(res[0]))


def _observe_validate(tr, name, res, exc):
    if isinstance(exc, jets.JetError):
        tr.count(f"{name}.rejects")


def _observe_degenerate(tr, name, res, exc):
    if exc is None and res[0]:
        tr.count(f"{name}.degenerate")


def _observe_rank(tr, name, res, exc):
    if exc is None and res[1]:
        tr.count("circles.in_circle")


def _observe_oracle(tr, name, res, exc):
    if exc is None:
        tr.count("circles.oracle_trials", res.trials)
        tr.count("circles.oracle_skipped", len(res.skipped))


def _observe_lift(tr, name, res, exc):
    if exc is None:
        tr.count(f"{name}.lifted")


# (span name, owner, attribute, observer). Functions are looked up on their
# defining module and then replaced wherever the same object is bound.
TARGETS = [
    ("polycore.inner_poly", polycore, "inner_poly", _observe_poly),
    ("polycore.poly_divmod", polycore, "poly_divmod", _observe_divmod),
    ("polycore.rank_linear", polycore, "rank_linear", None),
    ("polycore.form_signature", polycore, "form_signature", None),
    ("linalg.exact_rank", _linalg, "exact_rank", None),
    ("linalg.nullspace", _linalg, "nullspace", None),
    ("linalg.congruent_diagonalize", _linalg, "congruent_diagonalize", None),
    ("linalg.ldl", _linalg, "ldl", None),
    ("jets.validate_jet", jets, "validate_jet", _observe_validate),
    ("jets.canonical_rounding", jets, "canonical_rounding", None),
    ("jets.is_degenerate", jets, "is_degenerate", _observe_degenerate),
    ("jets.factor_degenerate", jets, "factor_degenerate", None),
    ("circles.restrict_to_line", circles, "restrict_to_line", None),
    ("circles.circle_rank_exact", circles, "circle_rank_exact", _observe_rank),
    ("circles.verify_rounding_numeric", circles, "verify_rounding_numeric", _observe_oracle),
    ("circles.circle_fit", circles, "circle_fit", None),
    ("spheres.sphere_lift", spheres, "sphere_lift", _observe_lift),
    ("spheres.split_norm", spheres, "split_norm", None),
    ("spheres.QuadSphereMap.checked", spheres.QuadSphereMap, "checked", None),
    ("cliff.normed_pairing", cliff, "normed_pairing", None),
    ("cliff.NormedPairing.checked", cliff.NormedPairing, "checked", None),
    ("cliff.hopf_map", cliff, "hopf_map", None),
    ("cli.main", cli, "main", None),
    ("cli.parse", cli, "_load_json", None),
    ("cli.parse", cli, "jet_document_from_obj", None),
    ("cli.parse", cli, "fracquad_from_obj", None),
    ("cli.parse", cli, "pairing_from_obj", None),
    ("cli.emit", cli.Report, "to_json", None),
    ("cli.emit", cli, "fracquad_to_doc", None),
    ("cli.emit", cli, "spheremap_to_doc", None),
    ("cli.emit", cli, "pairing_to_doc", None),
    ("cli.emit", cli, "jet_to_doc", None),
]


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list = []

    # ---- counters ------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters[name], value)

    # ---- spans -------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; the benchmark uses it for whole items."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def _wrap(self, name, fn, observe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            res = exc = None
            try:
                res = fn(*args, **kwargs)
                return res
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
                if observe is not None:
                    observe(self, name, res, exc)
                    spans.append((BOOKKEEPING, end, perf_counter(), parent))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "rounding_forge" or k.startswith("rounding_forge.")]
        for name, owner, attr, observe in TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._patch(owner, attr, staticmethod(self._wrap(name, raw.__func__, observe)))
                continue
            wrapper = self._wrap(name, raw, observe)
            self._patch(owner, attr, wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # ---- accounting ------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Duration of each span minus its children's, summed by name."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out: dict[str, float] = defaultdict(float)
        for (name, *_), t in zip(self.spans, own):
            out[name] += t
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return out

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path: str) -> None:
        """Counters on the first line, then one [name, start, end, parent] per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.counters, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
