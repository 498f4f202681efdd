"""Smoke tests for the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Every workload runs at tiny size and must report exactly the metrics, with
the units, that BENCHMARK.json declares. Deliberately wrong outputs must be
counted as failed items, so the correctness gate cannot pass vacuously.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import inputs
import oracle
import worker
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_reports_every_metric(name, tmp_path):
    plain = worker.run(name, seed=0, seconds=0.2, trace=False, workdir=str(tmp_path / "a"), min_items=2)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 2
    expected = declared("end_to_end")
    del expected["setup_s"]  # the launcher adds it from several set-ups
    assert units(plain["metrics"]) == expected
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = worker.run(name, seed=0, seconds=0.2, trace=True, workdir=str(tmp_path / "b"), min_items=2)
    assert traced["correct"] and traced["failed"] == 0, traced["problems"]
    assert units(traced["metrics"]) == declared("per_layer")


def test_launcher_prints_the_contract_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli-mix", "--seed", "3", "--seconds", "0.5",
         "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= worker.MIN_ITEMS
    assert units(result["metrics"]) == declared("end_to_end")
    assert "failed_ratio" in proc.stdout and "# digest" in proc.stdout


def test_launcher_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cli-mix", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _one_output(name, tmp_path):
    workload = WORKLOADS[name]
    pool = next(workload.decks(5, str(tmp_path)))
    if name == "cli-mix":
        pool = [c for c in pool if c.argv[0] == "check" and c.case is not None and not c.case.perturbed]
    else:
        pool = [c for c in pool if not c.perturbed and c.m <= 5]
    return workload, pool[:1], workload.run(pool[0])


def failed(workload, pool, outputs) -> int:
    checker = worker.Checker(workload, pool)
    for idx, out in outputs:
        checker.add(idx, out)
    assert len(checker.messages) == min(checker.failed, 5)
    return checker.failed


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_wrong_results_are_counted_failed(name, tmp_path):
    workload, pool, out = _one_output(name, tmp_path)
    assert failed(workload, pool, [(0, out)]) == 0
    if name == "cli-mix":
        report = json.loads(out.stdout)
        report["verdicts"]["degenerate"] = not report["verdicts"]["degenerate"]
        wrong = replace(out, stdout=json.dumps(report))
    else:
        wrong = replace(out, degenerate=not out.degenerate)
    assert failed(workload, pool, [(0, wrong)]) == 1
    # a later output that differs from the first for the same input fails too
    assert failed(workload, pool, [(0, out), (0, out), (0, wrong)]) == 1
    assert failed(workload, pool, [(0, worker.Crash(RuntimeError("boom")))]) == 1


def test_generator_closed_forms_hold():
    """The expected witnesses satisfy the division identities by expansion."""
    cases = next(inputs.sphere_lift_decks(7)) + next(inputs.circle_sweep_decks(7))
    for case in cases:
        if case.perturbed:
            continue
        a = [oracle.linear(row) for row in case.A]
        b = [oracle.quadratic(mat) for mat in case.B]
        norm_a = oracle.inner(a, a)
        assert oracle.inner(a, b) == oracle.mul(oracle.linear(case.p), norm_a)
        assert oracle.inner(b, b) == oracle.mul(oracle.quadratic(case.q), norm_a)
        if case.degenerate:
            assert oracle.rank(case.A) < case.m


@pytest.mark.parametrize("r,n", [(1, 3), (2, 6), (4, 4), (3, 8), (8, 8)])
def test_generator_pairings_are_normed(r, n):
    m = r + n
    f = [{} for _ in range(n)]
    for i, j, c, sign in inputs.pairing_entries(r, n):
        f[c] = oracle.add(f[c], {oracle.unit(m, i, r + j): inputs.F(sign)})
    xx = {oracle.unit(m, i, i): inputs.F(1) for i in range(r)}
    yy = {oracle.unit(m, i, i): inputs.F(1) for i in range(r, m)}
    assert oracle.inner(f, f) == oracle.mul(xx, yy)
