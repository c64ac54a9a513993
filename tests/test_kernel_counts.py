"""Tests of `tools/kernel_counts.py`, the factorization and
eigendecomposition counts a change to the secular solves is judged on."""
from __future__ import annotations

import importlib.util
import subprocess
import sys

import numpy as np

import arq.subsolvers
from conftest import ROOT, workloads

SEED = workloads.DEFAULT_SEED


def test_order3_smoke_pass_is_counted_as_the_workload_runs_it():
    spec = importlib.util.spec_from_file_location("kernel_counts",
                                                  ROOT / "tools" / "kernel_counts.py")
    kernel_counts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernel_counts)
    kernels = (arq.subsolvers.dpotrf, np.linalg.eigh)
    total = kernel_counts.counts("order3", SEED, smoke=True)
    assert (arq.subsolvers.dpotrf, np.linalg.eigh) == kernels  # unwrapped again
    outcomes = [workloads.run_task(task) for task in workloads.build_tasks("order3", SEED, True)]
    for name in kernel_counts.OUTCOME_COLUMNS:
        assert total[name] == sum(getattr(out, name) for out in outcomes), name
    assert total["certified"] == total["verified"] == 1
    assert total["dpotrf"] > 0

    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "kernel_counts.py"), "--workload", "order3",
         "--smoke", "--seed", str(SEED)],
        capture_output=True, text=True, check=True).stdout.splitlines()
    columns = kernel_counts.OUTCOME_COLUMNS + kernel_counts.KERNELS
    assert out[0] == "| workload | " + " | ".join(columns) + " |"
    assert out[2] == "| order3 | " + " | ".join(str(total[c]) for c in columns) + " |"
