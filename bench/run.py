"""Benchmark launcher.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Runs from the root of a source checkout; the package is imported from src/.
Each run starts the workload in fresh worker processes (worker.py) whose
environment pins the BLAS and OpenMP thread pools to one thread. Set-up
time is taken SETUP_RUNS times, in the measured worker and in set-up-only
workers, from process start to ready, and reported as the median. Like
every time the benchmark reports, it is scaled to reference speed (see
CAL_REF_S in worker.py); the unscaled wall figures are in the info line.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run. The lines before it
record the environment, the sample count, an output digest for comparing
two commits, and failed_ratio. `--workload all` runs every workload and
prints all end-to-end metrics as one table. Exits 1 without a result when a
worker fails.

The workloads are defined in workloads.py, their seeded inputs in
inputs.py, the traced functions in spans.py. The benchmark's own smoke test:
python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("circle-sweep", "sphere-lift", "cli-mix")
SETUP_RUNS = 3
BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerFailed(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every run compiles the same way
    env["PYTHONHASHSEED"] = "0"
    env.pop("ROUNDING_FORGE_SEED", None)  # the CLI's oracle seed stays at its default
    return env


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker; return its result and its set-up time."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    result = json.loads(lines[-1])
    return result, result["ready"] - start


def run_one(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    runs = [spawn(common + ["--setup-only"], deadline) for _ in range(SETUP_RUNS - 1)]
    runs.append(spawn(common + ["--trace", str(trace)], deadline))
    result = runs[-1][0]
    wall = [setup for _, setup in runs]
    scaled = [setup * r["setup_factor"] for r, setup in runs]
    result["info"].update(wall_setup_s=wall, setup_s=scaled)
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
    return result


def describe(result: dict) -> list[str]:
    info = result["info"]
    failed, attempted = result["failed"], result["attempted"]
    lines = [f"# info {json.dumps(info, sort_keys=True)}",
             f"# digest {result['digest']} (outputs of the first items, in pool order)"]
    lines += [f"# problem: {p}" for p in result["problems"]]
    for name, metric in result["metrics"].items():
        lines.append(f"{info['workload']:13s} {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    lines.append(f"{info['workload']:13s} {'failed_ratio':40s} {failed / attempted:>14.6g} ratio"
                 f" ({failed} of {attempted} items)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + BUDGET_S * len(names)
    try:
        results = [run_one(name, args.seed, args.seconds, args.trace, deadline) for name in names]
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print("\n".join(describe(result)))
    metrics = {}
    for name, result in zip(names, results):
        for key, metric in result["metrics"].items():
            metrics[key if len(names) == 1 else f"{name}.{key}"] = metric
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
