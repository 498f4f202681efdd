"""One benchmark run of one workload, in this process.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
       [--setup-only]

The launcher (run.py) starts this file in a fresh process. The run sets up
(imports, generates inputs, warms up), then drives the package as a closed
loop with one caller: each item starts when the previous one has finished.
With --trace 0 it times every item for S seconds, at least MIN_ITEMS items
and whole decks. With --trace 1 it runs items untraced for S/3 seconds,
replays the same items with span wrappers installed and once more without,
and reports per-layer figures per item; the spans go to
.bench_trace/<workload>-seed<N>.jsonl. Outputs are checked outside the timed
region. The last stdout line is one JSON object for the launcher.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import oracle  # noqa: E402
import rounding_forge  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ITEMS = 100  # so that at least ten latency samples lie beyond p90
HARD_STOP_S = 120.0  # a measuring loop never outlives this, whatever MIN_ITEMS says
DIGEST_ITEMS = 40  # outputs of this many leading items go into the digest

# Reference speed. The machines this runs on are shared, and their speed
# drifts by up to 2x over seconds, for interpreter-bound Fraction work most
# of all. So a fixed product of two dict polynomials (the oracle's code, not
# the package's) runs before every item, and the item's wall time is scaled
# by CAL_REF_S / (median kernel time over the nine nearest items). CAL_REF_S
# is the kernel's time on a quiet 2-vCPU x86-64 VM with Python 3.11.7, so
# reported times read as seconds on that machine. Unscaled wall figures go
# to the info line.
_CAL_RNG = random.Random("calibration")
_CAL_A, _CAL_B = (
    {tuple(_CAL_RNG.randint(0, 2) for _ in range(5)): Fraction(_CAL_RNG.randint(1, 9), _CAL_RNG.randint(1, 9))
     for _ in range(16)}
    for _ in range(2)
)
CAL_REF_S = 0.00085


def calibrate() -> float:
    start = perf_counter()
    oracle.mul(_CAL_A, _CAL_B)
    return perf_counter() - start


def speed_factors(cal: list[float]) -> list[float]:
    return [CAL_REF_S / statistics.median(cal[max(0, i - 4):i + 5]) for i in range(len(cal))]


class Crash:
    """An exception escaped an item; it counts as a failed item."""

    def __init__(self, exc: BaseException):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()


def set_up(workload, seed: int, seconds: float, workdir: str) -> tuple[list, int, float]:
    """Generate the pool and warm up; return (pool, deck size, set-up speed factor)."""
    cal = [calibrate() for _ in range(3)]
    pool: list = []
    decks = max(1, math.ceil(seconds / workload.seconds_per_deck)) + 1
    for deck in itertools.islice(workload.decks(seed, workdir), decks):
        pool += deck
        cal.append(calibrate())
    for item in workload.warmup():
        workload.run(item)
        cal.append(calibrate())
    return pool, len(pool) // decks, CAL_REF_S / statistics.median(cal)


def _call(workload, item):
    try:
        return workload.run(item)
    except Exception as exc:  # the item fails; the run goes on
        return Crash(exc)


class Checker:
    """Checks each output right after its item, outside the timed region.

    Each distinct input is checked once against the oracles; every later
    output for the same input (or for a CLI command with the same argv) must
    serialize to the same bytes. Only hashes are kept, so memory does not
    grow with the number of items run.
    """

    def __init__(self, workload, pool: list):
        self.workload, self.pool = workload, pool
        self.first: dict = {}  # repeat key -> hash of the first output
        self.verdicts: dict = {}  # pool index -> problems found by the oracles
        self.attempted = self.failed = 0
        self.messages: list[str] = []
        self._digest = hashlib.sha256()

    def add(self, idx: int, out) -> None:
        workload, item = self.workload, self.pool[idx]
        repeat = workload.repeat_key(item)
        if isinstance(out, Crash):
            key, problems = out.text, [f"unexpected exception: {out.text}"]
        else:
            key = workload.key(out)
            if idx not in self.verdicts:
                try:
                    self.verdicts[idx] = workload.check(item, out)
                except Exception as exc:
                    self.verdicts[idx] = [f"check raised {type(exc).__name__}: {exc}"]
            problems = list(self.verdicts[idx])
        digest = hashlib.sha256(key.encode()).digest()
        if self.first.setdefault(repeat, digest) != digest:
            problems.append("output differs from an earlier run of the same input")
        if self.attempted < DIGEST_ITEMS:
            self._digest.update(digest)
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"item {idx}: {'; '.join(problems)}")

    @property
    def digest(self) -> str:
        """Hash of the outputs of the first DIGEST_ITEMS items, in pool order."""
        return self._digest.hexdigest()


@dataclass
class Pass:
    latencies: list  # wall seconds per item
    factors: list  # reference-speed factor per item
    reports: list  # (exit code, stdout bytes) of CLI items

    @property
    def scaled(self) -> list[float]:
        return [t * f for t, f in zip(self.latencies, self.factors)]


def run_pass(workload, pool: list, deck: int, checker: Checker, seconds: float = 0.0, min_items: int = 1,
             count: int | None = None, call=_call) -> Pass:
    """Closed loop over the pool, one item at a time.

    Runs `count` items, or else until the items have taken `seconds`, at
    least `min_items` ran and the last deck is complete, so that every run
    covers the same mix of shapes.
    """
    latencies, cal, reports = [], [], []
    start = perf_counter()
    n = 0
    while n != count and perf_counter() - start < HARD_STOP_S:
        if count is None and sum(latencies) >= seconds and n >= min_items and n % deck == 0:
            break
        cal.append(calibrate())
        idx = n % len(pool)
        t0 = perf_counter()
        out = call(workload, pool[idx])
        latencies.append(perf_counter() - t0)
        if hasattr(out, "stdout"):
            reports.append((out.code, len(out.stdout.encode())))
        checker.add(idx, out)
        n += 1
    return Pass(latencies, speed_factors(cal), reports)


def latency_figures(times: list[float]) -> tuple[float, float, float]:
    """(items per second, p50 ms, p90 ms) of a closed loop with one caller."""
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    return len(times) / sum(times), 1000 * statistics.median(times), 1000 * p90


def end_to_end(measured: Pass) -> tuple[dict, dict]:
    rate, p50, p90 = latency_figures(measured.scaled)
    wall_rate, wall_p50, wall_p90 = latency_figures(measured.latencies)
    quartiles = statistics.quantiles(measured.factors, n=4) if len(measured.factors) > 1 else [0, 0, 0]
    metrics = {
        "items_per_s": {"value": rate, "unit": "1/s"},
        "latency_p50_ms": {"value": p50, "unit": "ms"},
        "latency_p90_ms": {"value": p90, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    info = {
        "latency_samples": len(measured.latencies),
        "wall_items_per_s": wall_rate,
        "wall_latency_p50_ms": wall_p50,
        "wall_latency_p90_ms": wall_p90,
        "speed_factor_quartiles": quartiles,
    }
    return metrics, info


ITEM_SPAN = "item"
LAYERS = ("polycore", "linalg", "jets", "circles", "spheres", "cliff", "cli")
CALLS = ("polycore.inner_poly", "polycore.poly_divmod", "linalg.exact_rank", "jets.validate_jet",
         "circles.restrict_to_line", "circles.circle_fit", "spheres.sphere_lift")


def per_layer(tracer: spans.Tracer, traced: Pass, untraced_s: float) -> tuple[dict, list[str]]:
    """Per-item layer figures from the spans of one traced pass, at reference speed.

    untraced_s is the scaled busy time of the same items without tracing.
    """
    items = len(traced.latencies)
    speed = statistics.median(traced.factors)
    own = tracer.self_times()
    calls = tracer.calls()
    c = tracer.counters
    out: dict = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def ratio(num, den):
        return c[num] / den if den else 0.0

    for name, _, _, _ in spans.TARGETS:
        put(f"{name}.self_s", own.get(name, 0.0) * speed / items, "s/item")
    for name in CALLS:
        put(f"{name}.calls", calls.get(name, 0) / items, "count/item")
    for layer in LAYERS:
        put(f"{layer}.self_s", sum(t for n, t in own.items() if n.startswith(layer + ".")) * speed / items, "s/item")
    put("polycore.inner_poly.out_terms",
        ratio("polycore.inner_poly.out_terms", calls.get("polycore.inner_poly", 0)), "terms/call")
    put("polycore.coeff_bits_max", c["polycore.coeff_bits_max"], "bits")
    put("jets.validate_jet.reject_ratio", ratio("jets.validate_jet.rejects", calls.get("jets.validate_jet", 0)), "ratio")
    put("jets.is_degenerate.degenerate_ratio",
        ratio("jets.is_degenerate.degenerate", calls.get("jets.is_degenerate", 0)), "ratio")
    put("circles.in_circle_ratio", ratio("circles.in_circle", calls.get("circles.circle_rank_exact", 0)), "ratio")
    put("circles.oracle_skip_ratio", ratio("circles.oracle_skipped", c["circles.oracle_trials"]), "ratio")
    put("spheres.sphere_lift.lifted_ratio",
        ratio("spheres.sphere_lift.lifted", calls.get("spheres.sphere_lift", 0)), "ratio")
    reports = traced.reports
    put("cli.report_bytes", sum(size for _, size in reports) / items, "bytes/item")
    put("cli.exit_nonzero_ratio", sum(code != 0 for code, _ in reports) / len(reports) if reports else 0.0, "ratio")
    busy = sum(traced.latencies)
    bookkeeping = own.get(spans.BOOKKEEPING, 0.0)
    layer_self = sum(t for n, t in own.items() if n not in (ITEM_SPAN, spans.BOOKKEEPING))
    put("trace.bookkeeping_s", bookkeeping * speed / items, "s/item")
    put("trace.unattributed_s", (busy - layer_self - bookkeeping) * speed / items, "s/item")
    put("trace.overhead_s", (sum(traced.scaled) - untraced_s) / items, "s/item")
    put("trace.items", items, "count")

    # self times must partition the root (item) spans, which lie inside the busy time
    problems = []
    roots = tracer.root_time()
    if abs(sum(own.values()) - roots) > 1e-6 * max(1.0, roots):
        problems.append(f"self times sum to {sum(own.values())} s, root spans to {roots} s")
    if roots > busy * (1 + 1e-9):
        problems.append(f"root spans ({roots} s) exceed the traced busy time ({busy} s)")
    return out, problems


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rounding_forge": rounding_forge.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }



def run(name: str, seed: int, seconds: float, trace: bool, workdir: str, min_items: int = MIN_ITEMS,
        setup_only: bool = False, spans_path: str | None = None) -> dict:
    workload = WORKLOADS[name]
    pool, deck, setup_factor = set_up(workload, seed, seconds, workdir)
    result: dict = {"ready": time.monotonic(), "setup_factor": setup_factor}
    if setup_only:
        return result
    result["info"] = environment(name, seed)
    problems: list[str] = []
    checker = Checker(workload, pool)
    if not trace:
        measured = run_pass(workload, pool, deck, checker, seconds, min_items)
        metrics, info = end_to_end(measured)
        result["info"].update(info)
    else:
        # untraced, traced, untraced again over the same items: the overhead
        # is the traced pass minus the mean of the untraced ones
        before = run_pass(workload, pool, deck, checker, seconds / 3)
        count = len(before.latencies)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_pass(workload, pool, deck, checker, count=count,
                              call=lambda w, item: tracer.span(ITEM_SPAN, _call, w, item))
        finally:
            tracer.uninstall()
        after = run_pass(workload, pool, deck, checker, count=count)
        metrics, problems = per_layer(tracer, traced, (sum(before.scaled) + sum(after.scaled)) / 2)
        result["info"].update(items=count, spans=len(tracer.spans), spans_file=spans_path)
        if spans_path:
            tracer.write(spans_path)
    result.update(correct=checker.failed == 0 and not problems, attempted=checker.attempted,
                  failed=checker.failed, metrics=metrics, digest=checker.digest,
                  problems=checker.messages + problems)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workdir = str(ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}")
    spans_path = None
    if args.trace:
        os.makedirs(ROOT / ".bench_trace", exist_ok=True)
        spans_path = str(ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.jsonl")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir,
                     setup_only=args.setup_only, spans_path=spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another worker still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
