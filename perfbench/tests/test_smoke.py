"""Smoke test of the scan benchmark.

Every workload runs on its tiny k list through the untraced and the traced
paths; every metric must be present with its unit and no runner call may
fail.  Run with `python -m pytest perfbench/tests`.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((BENCH / "workloads.json").read_text())
WORKLOADS = list(SPEC)
METRICS = json.loads((BENCH / "metrics.json").read_text())


def _run(workload: str, trace: int, cwd=ROOT, bench=BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    report = json.loads(next(ln for ln in lines if ln.startswith("report "))[len("report "):])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= len(SPEC[workload]["runners"])
    assert result["failed"] == 0
    assert report["failed_frac"]["unit"] == "ratio"
    assert report["failed_frac"]["value"] == 0
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in METRICS[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in expected)


def test_benchmark_json_lists_the_same_metrics():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        pytest.skip("no BENCHMARK.json next to the benchmark")
    bench = json.loads(path.read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    for kind, keys in (("end_to_end", ("name", "unit", "better", "bound")),
                       ("per_layer", ("name", "unit", "better"))):
        assert [tuple(m[k] for k in keys) for m in bench[kind]] == \
            [tuple(m[k] for k in keys) for m in METRICS[kind]]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path, bench=tmp_path / BENCH.name)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
