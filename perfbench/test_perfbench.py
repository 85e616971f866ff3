"""Smoke tests for the benchmark at toy sizes: every declared metric is emitted
on two seeds, correctness checks pass, traced counts repeat exactly, and a
checkout without the program's sources fails without printing a result.

Run from the repository root:  python3 -m pytest -q perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "GFLOP", "GOP", "MB", "mse")


def bench(capsys, workload, seed, trace):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace), "--smoke"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_smoke(capsys, workload):
    first, second = bench(capsys, workload, 1, 0), bench(capsys, workload, 2, 0)
    traced, traced_again = bench(capsys, workload, 1, 1), bench(capsys, workload, 1, 1)
    for result in (first, second, traced, traced_again):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    end_to_end = {m["name"] for m in DECLARED["end_to_end"]}
    assert set(first["metrics"]) == set(second["metrics"]) == end_to_end
    for result in (first, second):
        assert all(v["value"] > 0 for v in result["metrics"].values())
    per_layer = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == per_layer
    assert all(v["value"] is not None for v in traced["metrics"].values())
    counts = {k for k, unit in per_layer.items()
              if unit in COUNT_UNITS or k.endswith(("steps", "reduction_pct"))}
    for name in counts:
        assert traced["metrics"][name]["value"] == traced_again["metrics"][name]["value"], name


def test_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
