"""Smoke test of the benchmark harness at a tiny budget (the 2-epoch
configuration of tests/test_cli.py on a 2 x 10 dataset)."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from spans import Probe, Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def run_bench(cwd, *args, timeout=300):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_reported_with_its_unit(workload, trace, kind):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "0",
                     "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if kind == "end_to_end":
        zero = [k for k, v in result["metrics"].items() if v["value"] <= 0]
        assert not zero, f"end-to-end metrics must be positive: {zero}"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(tmp_path, "--workload", "desk", "--seed", "0",
                     "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_zero_call_and_vanished_spans_are_reported():
    import ragcap.similarity as similarity
    original = similarity.bertscore
    tracer = Tracer((
        Probe("similarity.bertscore", "ragcap.similarity:bertscore",
              required_on=("wide",)),
        Probe("similarity.renamed", "ragcap.similarity:no_such_function",
              required_on=("wide",)),
    ))
    tracer.install()
    try:
        assert similarity.bertscore is not original
        missing = tracer.missing("wide")
    finally:
        tracer.uninstall()
    assert similarity.bertscore is original
    assert any("similarity.bertscore" in m for m in missing)
    assert any("no_such_function" in m for m in missing)
    assert tracer.missing("desk") == [
        "ragcap.similarity:no_such_function (not found)"]
