"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root:

    python3 -m pytest benchmark/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(script, workload, trace, cwd):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--min-samples", "2"],
        capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = _run(HERE / "run.py", workload, trace, ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in expected})
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_wrappers_are_removed_after_a_traced_run():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    import workloads

    scratch = ROOT / ".benchmark_out" / "smoke-wrappers"
    scratch.mkdir(parents=True, exist_ok=True)
    originals = [vars(owner)[attr] for owner, attr, _, _ in tracing.targets()]
    wl = workloads.load("sweep-cells")
    wl.scratch = str(scratch)
    tracer = tracing.Tracer()
    try:
        with tracing.installed(tracer):
            assert len(tracing.leftover_wrappers()) == len(originals)
            res = workloads.execute(wl, 5, 0.0, tracer, min_samples=1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    assert res["ok"] >= 1 and not res["problems"]
    assert tracing.leftover_wrappers() == []
    assert [vars(owner)[attr] for owner, attr, _, _ in tracing.targets()] == originals
    assert {s[0] for s in tracer.spans} >= {"pipeline.sweep", "mesh.locate",
                                           "linalg.cg", "surrogate.backward"}


def test_fails_without_the_package_source():
    alone = ROOT / ".benchmark_out" / "smoke-alone"
    shutil.rmtree(alone, ignore_errors=True)
    shutil.copytree(HERE, alone / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", alone)
    try:
        proc = _run(alone / HERE.name / "run.py", "elliptic-gen", 0, alone)
    finally:
        shutil.rmtree(alone, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
