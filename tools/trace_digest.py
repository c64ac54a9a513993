"""Print one ``label sha256`` line per task of a perfbench workload.

A solve task's digest covers every trace record, the certificate, the
evaluation counters and the `arq.harness.verify_certificate` record, or,
for a solve that stopped, the stop status and message with the trace and
counters it carries.  A sweep task's digest covers its rows and slopes.
Floats are hashed by their bits and arrays by their bytes, so two checkouts
print the same lines exactly when their runs agree bit for bit:

    python tools/trace_digest.py --workload grid > new.txt
    (the same command in the other checkout) > old.txt
    diff old.txt new.txt

``--workload all`` prints every workload in ``WORKLOADS`` order under a
header of ``# key: value`` lines: the seed and the `stack` the bits depend
on.  That is the format of ``tests/trace_digests.txt``, which the test suite
recomputes, so after a named trace change one command regenerates it:

    python tools/trace_digest.py --workload all > tests/trace_digests.txt

The tasks are built by ``perfbench/workloads.py``, imported as it is, and
``arq`` is imported from this checkout's ``src``.  BLAS is pinned to one
thread, as ``perfbench/run.py`` pins it.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _bootstrap() -> None:
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def _canonical(value):
    """`value` as nested tuples of strings: floats by their bits, arrays by
    dtype, shape and bytes, dataclasses by name and fields, dicts by
    sorted key."""
    import numpy as np

    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (bool, int, str, type(None), np.integer, np.bool_)):
        return repr(value.item() if isinstance(value, np.generic) else value)
    if isinstance(value, np.ndarray):
        return (value.dtype.str, repr(value.shape), value.tobytes().hex())
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            (f.name, _canonical(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return tuple((repr(k), _canonical(value[k])) for k in sorted(value))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _solve_record(task) -> dict:
    import arq
    import arq.harness

    try:
        result = arq.solve(task.problem, task.noise, task.config)
    except Exception as exc:
        return {"error": type(exc).__name__, "status": getattr(exc, "status", None),
                "message": str(exc), "trace": getattr(exc, "trace", None),
                "counters": getattr(exc, "counters", None)}
    return {"trace": result.trace, "certificate": result.certificate,
            "counters": result.counters,
            "verify": arq.harness.verify_certificate(task.problem, result.certificate)}


def _sweep_record(task) -> dict:
    import arq.harness

    try:
        summary = arq.harness.run_sweep(task.spec)
    except Exception as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {key: summary[key] for key in ("rows", "slope_value", "slope_deriv")}


def digests(workload: str, seed: int):
    """(label, sha256 hex digest) of each task of one pass, in task order."""
    import workloads as wl

    for task in wl.build_tasks(workload, seed):
        record = _sweep_record(task) if isinstance(task, wl.SweepTask) else _solve_record(task)
        text = repr(_canonical(record)).encode()
        yield task.label, hashlib.sha256(text).hexdigest()


def _build(module) -> dict:
    """`module.show_config` as a dict, or {} for a build without that form."""
    try:
        return module.show_config(mode="dicts")
    except TypeError:
        return {}


def stack() -> dict:
    """What a digest's float bits depend on besides the code: the Python,
    numpy and scipy versions, the BLAS each of numpy and scipy was built
    against, and the SIMD extensions numpy found on this CPU."""
    import platform

    import numpy as np
    import scipy

    def blas(module):
        found = _build(module).get("Build Dependencies", {}).get("blas", {})
        return f"{found.get('name')} {found.get('version')}"

    simd = _build(np).get("SIMD Extensions", {}).get("found", [])
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy blas": blas(np), "scipy blas": blas(scipy),
            "simd": " ".join(simd)}


def all_lines(seed: int):
    """The lines of ``--workload all``: the ``# key: value`` header (the seed,
    then `stack`), then ``label digest`` for every task of every workload."""
    import workloads as wl

    yield f"# seed: {seed}"
    for key, value in stack().items():
        yield f"# {key}: {value}"
    for workload in wl.WORKLOADS:
        for label, digest in digests(workload, seed):
            yield f"{label} {digest}"


def moved_report(labels, seed: int) -> str:
    """`labels`, the tasks whose digests moved, grouped by workload and
    noise kind in ``--workload all`` order: a ``workload noise (count)``
    line per group, then its labels, one to a line.  A sweep study's noise
    kind is its spec's."""
    import workloads as wl

    moved, groups = set(labels), {}
    for workload in wl.WORKLOADS:
        for task in wl.build_tasks(workload, seed):
            if task.label in moved:
                noise = task.spec.noise if isinstance(task, wl.SweepTask) else task.noise.kind
                groups.setdefault(f"{workload} {noise}", []).append(task.label)
    return "\n".join(f"{group} ({len(members)}):\n" + "\n".join(f"  {m}" for m in members)
                     for group, members in groups.items())


def main(argv=None) -> int:
    _bootstrap()
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    args = parser.parse_args(argv)
    if args.workload == "all":
        lines = all_lines(args.seed)
    else:
        lines = (f"{label} {digest}" for label, digest in digests(args.workload, args.seed))
    for line in lines:
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
