"""Smoke test of the benchmark itself.

Every workload runs at minimal size (``--smoke``), untraced and traced, and
must report exactly the metrics BENCHMARK.json names, with their units,
with nothing failed. Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ENV_KEYS = {"python", "numpy", "scipy", "blas", "blas_threads", "nproc", "git_sha",
            "seed", "tail_percentile"}


def _run(root, *args):
    return subprocess.run([sys.executable, os.path.join(root, "bench", "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    seed = 7
    proc = _run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0
    assert result["attempted"] >= 1

    expected = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name

    with open(os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}-smoke.json")) as f:
        record = json.load(f)
    assert record["fail_frac"] == 0
    assert ENV_KEYS <= set(record["environment"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(str(tmp_path), "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
