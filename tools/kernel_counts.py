"""Count the dense kernels behind one pass of each perfbench workload.

For one pass of a workload (the tasks of ``perfbench/workloads.py``,
imported as it is) the tool prints the pass's iterations, value and
derivative evaluations, certified and verified solves, how often
`arq.subsolvers` called its two dense kernels, ``dpotrf``, a Cholesky
factorization, and ``np.linalg.eigh``, an eigendecomposition, and how often
its eigen path completed a root at the floor along a lowest eigenvector
(``_complete_to_boundary``).  Each is counted by wrapping the name the
module calls it by.  These counts are what a change to the secular solves
is judged on:

    python tools/kernel_counts.py
    python tools/kernel_counts.py --seed 7 --workload grid order3

BLAS is pinned to one thread, as ``perfbench/run.py`` pins it, and a
``sweep`` study runs all its rows in this process (``jobs`` = 1), so that
every kernel call is counted; each row is one seeded solve either way.
``arq`` is imported from this checkout's ``src``.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The columns of a row, after the workload; `Outcome` fields, then calls.
OUTCOME_COLUMNS = ("iterations", "value_evals", "deriv_evals", "certified", "verified")
CALLS = ("dpotrf", "eigh", "completions")


def _bootstrap() -> None:
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


@contextmanager
def _counted(total: dict):
    """Add one to ``total[column]`` at every call `arq.subsolvers` makes of
    the function counted in that column of `CALLS`, until the block ends."""
    import numpy as np

    import arq.subsolvers as subsolvers

    names = {"dpotrf": (subsolvers, "dpotrf"), "eigh": (np.linalg, "eigh"),
             "completions": (subsolvers, "_complete_to_boundary")}
    originals = {column: getattr(owner, name) for column, (owner, name) in names.items()}

    def counter(column):
        def counted(*args, **kwargs):
            total[column] += 1
            return originals[column](*args, **kwargs)
        return counted

    for column, (owner, name) in names.items():
        setattr(owner, name, counter(column))
    try:
        yield
    finally:
        for column, (owner, name) in names.items():
            setattr(owner, name, originals[column])


def counts(workload: str, seed: int, smoke: bool = False) -> dict:
    """`OUTCOME_COLUMNS` and `CALLS` summed over one pass of `workload`."""
    import workloads as wl

    total = dict.fromkeys(OUTCOME_COLUMNS + CALLS, 0)
    with _counted(total):
        for task in wl.build_tasks(workload, seed, smoke):
            if isinstance(task, wl.SweepTask):
                task = dataclasses.replace(task, spec=dataclasses.replace(task.spec, jobs=1))
            out = wl.run_task(task)
            for name in OUTCOME_COLUMNS:
                total[name] += getattr(out, name)
    return total


def main(argv=None) -> int:
    _bootstrap()
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=wl.WORKLOADS, default=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--smoke", action="store_true",
                        help="the workloads' smoke task lists, as `perfbench/run.py --smoke`")
    args = parser.parse_args(argv)
    columns = OUTCOME_COLUMNS + CALLS
    print(f"| workload | {' | '.join(columns)} |\n|---|" + "---|" * len(columns))
    for workload in args.workload:
        row = counts(workload, args.seed, args.smoke)
        print(f"| {workload} | " + " | ".join(str(row[c]) for c in columns) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
