"""Tests of `tools/kernel_counts.py`, the factorization, eigendecomposition
and completion counts a change to the secular solves is judged on."""
from __future__ import annotations

import importlib.util
import subprocess
import sys

import numpy as np

import arq.subsolvers
from conftest import ROOT, workloads

SEED = workloads.DEFAULT_SEED


def load_kernel_counts():
    spec = importlib.util.spec_from_file_location("kernel_counts",
                                                  ROOT / "tools" / "kernel_counts.py")
    kernel_counts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernel_counts)
    return kernel_counts


def counted_functions():
    return (arq.subsolvers.dpotrf, np.linalg.eigh, arq.subsolvers._complete_to_boundary)


def test_order3_smoke_pass_is_counted_as_the_workload_runs_it():
    kernel_counts = load_kernel_counts()
    functions = counted_functions()
    total = kernel_counts.counts("order3", SEED, smoke=True)
    assert counted_functions() == functions  # unwrapped again
    outcomes = [workloads.run_task(task) for task in workloads.build_tasks("order3", SEED, True)]
    for name in kernel_counts.OUTCOME_COLUMNS:
        assert total[name] == sum(getattr(out, name) for out in outcomes), name
    assert total["certified"] == total["verified"] == 1
    assert total["dpotrf"] > 0
    assert total["completions"] == 0

    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "kernel_counts.py"), "--workload", "order3",
         "--smoke", "--seed", str(SEED)],
        capture_output=True, text=True, check=True).stdout.splitlines()
    columns = kernel_counts.OUTCOME_COLUMNS + kernel_counts.CALLS
    assert out[0] == "| workload | " + " | ".join(columns) + " |"
    assert out[2] == "| order3 | " + " | ".join(str(total[c]) for c in columns) + " |"


def test_a_root_at_the_floor_counts_one_completion():
    # H is indefinite, so the one factorization fails at the secular start,
    # and the eigen path completes the root pinched against -lambda_1 = 1.
    kernel_counts = load_kernel_counts()
    total = dict.fromkeys(kernel_counts.CALLS, 0)
    with kernel_counts._counted(total):
        arq.subsolvers.solve_trs(np.array([2e-11, 1.0]), np.diag([-1.0, 1.0]), 1000.0)
    assert total == {"dpotrf": 1, "eigh": 1, "completions": 1}
