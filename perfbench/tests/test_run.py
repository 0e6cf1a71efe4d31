"""Tiny-size runs of every workload through run.py, the path a benchmark run takes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_passes_its_check_and_reports_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["error_rate"]["value"] == 0


def test_cli_tiny_run_counts_byte_identical_outputs():
    proc = run("--workload", "cli-wide", "--seed", "1", "--seconds", "1", "--trace", "1", "--size", "tiny")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["cli.byte_identical_outputs"]["value"] == 13
    assert metrics["synthetic.build_env_calls"]["value"] == 3


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "ope-desk", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
