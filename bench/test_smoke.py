"""Smoke test of bench/run.py at tiny n, kept out of the tier-1 suite.

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY_N = {"chsh-hv-1w": 20_000, "chsh-transfer-2w": 20_000, "sweep-fine-2w": 40}


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], n=TINY_N[name])


def spawn_tiny(name: str, doc: Path, tmp_path: Path) -> int:
    code, *_ = run.spawn(["-m", "spincorr", *tiny(name).argv(3, doc)], tmp_path / "err", time.perf_counter() + 60)
    return code


def test_spec_names_the_benchmark_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_end_to_end_run(name):
    result = run.run_cli(tiny(name), seed=3, seconds=0.0)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        # At tiny n an invocation can end sooner than the median set-up, so
        # trials_per_s (trials over wall minus set-up) has no sign here.
        if metric["name"] != "trials_per_s":
            assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("name", ["chsh-hv-1w", "sweep-fine-2w"])
def test_traced_run(name):
    result = run.run_traced(tiny(name), seed=3, seconds=0.0)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 3, 0)
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    workload = tiny(name)
    assert metrics["harness.trials"]["value"] == workload.trials_per_n * workload.n
    assert metrics["hidden.trials"]["value"] == workload.trials_per_n * workload.n
    assert metrics["streams.draws"]["value"] == 2 * workload.trials_per_n * workload.n


def test_checks_reject_wrong_documents(tmp_path):
    doc = tmp_path / "doc.csv"
    assert spawn_tiny("chsh-hv-1w", doc, tmp_path) == 0
    text = doc.read_text()
    assert checks.check_chsh_hv(text, 20_000, 3) == []
    assert checks.check_chsh_hv(text, 20_000, 4) != []
    assert checks.check_chsh_transfer(text, 20_000, 3) != []
    lines = text.splitlines()
    row = lines[-1].split(",")
    row[-4], row[-2] = str(int(row[-4]) - 1), str(int(row[-2]) + 1)
    assert checks.check_chsh_hv("\n".join([*lines[:-1], ",".join(row)]) + "\n", 20_000, 3) != []


def test_sweep_check_rejects_a_wrong_row(tmp_path):
    doc = tmp_path / "doc.json"
    assert spawn_tiny("sweep-fine-2w", doc, tmp_path) == 0
    sweep = json.loads(doc.read_text())
    assert checks.check_sweep(doc.read_text(), 40, 3) == []
    sweep["rows"][900][3] = 1.0  # all 40 trials plus at 90 degrees
    assert checks.check_sweep(json.dumps(sweep), 40, 3) != []


def test_exact_binomial_tail():
    assert checks.binomial_tail(0, 10, 0.5) == pytest.approx(2**-10)
    assert checks.binomial_tail(10, 10, 0.5) == pytest.approx(2**-10)
    assert checks.binomial_tail(1, 2000, 1e-6) == pytest.approx(1 - (1 - 1e-6) ** 2000)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "chsh-hv-1w", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
