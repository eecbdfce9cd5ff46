"""Smoke tests for the benchmark: short runs of every workload.

Run from the repository root:

    python3 -m pytest benchmark/tests -q

Each workload runs for a few ops, untraced and traced, and every metric
named in BENCHMARK.json must appear in the result with its unit.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


def bench(cwd, *args, env=ENV):
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, env=env)


_runs = {}


def smoke(workload, trace):
    key = (workload, trace)
    if key not in _runs:
        p = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "2",
                  "--trace", str(trace))
        assert p.returncode == 0, p.stderr[-3000:]
        lines = p.stdout.splitlines()
        _runs[key] = json.loads(lines[-2])["report"], json.loads(lines[-1])
    return _runs[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_appears_with_its_unit(workload, trace):
    report, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
           {m["name"]: m["unit"] for m in declared}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name
    env = report["environment"]
    for key in ("python", "numpy", "blas", "blas_version", "openblas_num_threads", "nproc",
                "git_commit", "seed"):
        assert env[key] is not None, key
    assert env["openblas_num_threads"] == "1" and env["seed"] == 7
    assert report["error_rate"]["value"] == 0.0


@pytest.mark.parametrize("workload", ["mlm_toy", "electra_span"])
def test_final_loss_repeats_and_tracing_does_not_change_it(workload):
    untraced, _ = smoke(workload, 0)
    traced, _ = smoke(workload, 1)
    assert untraced["final_loss"] is not None
    assert untraced["final_loss"] == traced["final_loss"]
    assert untraced["final_loss"] < untraced["first_loss"]


def test_refuses_unpinned_blas():
    p = bench(ROOT, "--workload", "mlm_toy", "--seed", "1", "--seconds", "1",
              env={**os.environ, "OPENBLAS_NUM_THREADS": "2"})
    assert p.returncode != 0
    assert "refused" in p.stderr and p.stdout == ""


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    p = bench(tmp_path, "--workload", "mlm_toy", "--seed", "1", "--seconds", "1")
    assert p.returncode != 0
    assert p.stdout == ""
