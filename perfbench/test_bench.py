"""Tests of the benchmark itself, on its smoke sizes.

Run from the root of the checkout: python3 -m pytest -q perfbench/test_bench.py
Each workload runs once untraced and once traced; every metric named in
BENCHMARK.json must be emitted with its unit, and no output check may fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from common import OUT, ROOT, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = Path(__file__).resolve().parent / "run.py"


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "3", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_every_layer_metric_names_its_target():
    from run import LAYER_TARGETS
    assert sorted(LAYER_TARGETS) == sorted(m["name"] for m in SPEC["per_layer"])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_emitted_and_nothing_fails(workload, trace, key):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    report = json.loads(proc.stdout.strip().splitlines()[-2])["perfbench_report"]
    assert result["failed"] == 0 and result["correct"], report["problems"]
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert report["meta"]["qspectra_file"].startswith(str(ROOT / "src"))


def test_refuses_to_run_without_sources():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(RUN.parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("verify-small", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
