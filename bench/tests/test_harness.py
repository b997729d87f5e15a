"""Self-tests of the benchmark harness, at the seconds-long ``tiny`` size.

Run from the repository root:

    python3 -m pytest bench/tests -q
"""

import copy
import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402
from clock import PlainClock  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    DECLARED = json.load(fh)


def _invoke(cwd, workload, trace, seed):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
         "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300)


@functools.cache
def run_tiny(workload, trace, seed=7):
    """(environment record, result) of one tiny run."""
    proc = _invoke(ROOT, workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_emits_every_declared_metric(workload, trace):
    record, result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for key in ("seed", "commit", "nproc", "python", "numpy", "scipy",
                "LECAM_THREADS", "worker_count"):
        assert key in record
    assert record["seed"] == 7


def test_traced_profile_attributes_layers():
    _, lattice = run_tiny("sweep-lattice", 1)
    m = {name: v["value"] for name, v in lattice["metrics"].items()}
    assert m["laws.points_per_call"] == 1.0
    assert m["oracle.tv_calls"] > 0 and m["kernels.fold_calls"] > 0
    assert m["oracle.tv_self_s"] < m["oracle.tv_s"]
    _, risk = run_tiny("risk-mc", 1)
    m = {name: v["value"] for name, v in risk["metrics"].items()}
    assert m["oracle.tv_calls"] == 0
    assert m["simulate.path_calls"] == m["kernels.transfer_calls"] > 0
    assert m["experiments.estimator_calls"] == 3 * m["simulate.path_calls"]


@pytest.mark.parametrize("column", ["oracle_product_bound", "aggregate_bound",
                                   "rate_prediction"])
def test_shifted_reference_drives_fail_ratio_up(column, tmp_path):
    reference = copy.deepcopy(workloads.load_reference())
    reference["sweeps"]["lattice"]["8"][column] += 1e-6
    work = workloads.make("sweep-lattice", "tiny", 7, str(tmp_path),
                          reference)
    work.unit(PlainClock())
    assert work.tally.failed == 1
    assert work.tally.failed / work.tally.attempted > 0


def test_seed_changes_seeded_outputs_only():
    a, _ = run_tiny("cli-pipeline", 0, 7)
    b, _ = run_tiny("cli-pipeline", 0, 8)
    for key in ("simulate", "filter_round", "filter_truncate"):
        assert a["digests"][key] != b["digests"][key]
    assert a["digests"]["bounds"] == b["digests"]["bounds"]
    risk_a, _ = run_tiny("risk-mc", 0, 7)
    risk_b, _ = run_tiny("risk-mc", 0, 8)
    assert risk_a["digests"]["rows"] != risk_b["digests"]["rows"]
    sweep_a, _ = run_tiny("sweep-lattice", 0, 7)
    sweep_b, _ = run_tiny("sweep-lattice", 0, 8)
    assert sweep_a["digests"]["rows"] == sweep_b["digests"]["rows"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _invoke(str(tmp_path), "sweep-lattice", 0, 7)
    assert proc.returncode != 0
    assert proc.stdout == ""
