#!/usr/bin/env python3
"""arq benchmark: one workload, closed loop, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload grid --seed 20240809 --seconds 10 --trace 0

Run from the repository root; the package is imported from ./src and
nowhere else, so the command fails (non-zero, no result line) where the
sources are missing.  A single client runs the workload's tasks back to
back for a fixed number of passes per workload (`PASSES_AT_10_S`, scaled
by `--seconds` / 10, at least one).  Every certificate is rechecked with
exact derivatives and every pass must reproduce the first pass's counts.
A task is timed by its busy time (CPU time; for a `sweep` study, its wall
time less its share of the time the hypervisor took), calibrated against
the machine's speed (see speed.py).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (per traced pass) and the
tracing overhead.  The last stdout line is the JSON result; run details and
the span dump go to .bench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 3
# Passes per workload at `--seconds 10`; other `--seconds` scale them.  The
# count never depends on how fast the code under test runs.  On the VM the
# bounds were tuned on, one pass takes about 10 s on `grid`, 11 s on
# `scale`, 4.5 s on `order3` and 4 s on `sweep`.  One pass of `grid` or
# `scale`, or three of `order3`, read spreads near 0.1 over ten seeds, and
# `sweep` studies run on two threads and vary more from pass to pass.
PASSES_AT_10_S = {"grid": 2, "scale": 2, "order3": 4, "sweep": 4}
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Layer times printed as shares of the traced wall: the hot spots the
# workloads were chosen to separate.
SHARES = ("oracle.estimate_lipschitz.s", "tensors.operator_norm.self_s",
          "subsolvers.optimality_measure.o3.self_s", "subsolvers.minimize_model.self_s",
          "subsolvers.solve_trs.self_s", "oracle.inexact_bundle.self_s",
          "harness.visited_lipschitz.s")


def _bootstrap() -> None:
    """Pin BLAS to one thread before numpy loads; import arq from ./src only."""
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "arq" / "__init__.py").is_file():
        raise SystemExit(f"arq sources not found under {src}")
    sys.path[:0] = [str(src), str(HERE)]


def _units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(PASSES_AT_10_S[workload] * seconds / 10))


def _run_passes(tasks, count: int, run_task) -> list:
    """[(wall seconds, outcomes)] for each of `count` passes, closed loop."""
    passes = []
    for _ in range(count):
        t0 = time.perf_counter()
        outcomes = [run_task(task) for task in tasks]
        passes.append((time.perf_counter() - t0, outcomes))
    return passes


def _measure_setup(workload: str, seed: int, smoke: bool) -> tuple:
    """Calibrated and wall seconds from process start to tasks built, one
    fresh probe process each; a probe samples its own speed while it loads
    and is timed by its own CPU time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    calibrated, wall = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        fields = line.split()
        if proc.returncode != 0 or len(fields) != 4 or fields[0] != "ready":
            raise RuntimeError(f"setup probe failed: {line!r}")
        kernel_s, handler_s, cpu_s = map(float, fields[1:])
        wall.append(elapsed)
        calibrated.append((cpu_s - handler_s) * speed.INTERPRETER_REFERENCE_S / kernel_s)
    return calibrated, wall


def _tail(samples: list):
    """Highest order statistic with at least 10 samples beyond it, as
    (value, percentile, sample count); None below 100 samples, where it
    would sit under p90."""
    n = len(samples)
    if n < 100:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n, n


def _totals(outcomes) -> dict:
    keys = ("solves", "certified", "verified", "rejected", "iterations", "successful",
            "accuracy_improving", "deriv_evals", "value_evals")
    return {k: sum(getattr(o, k) for o in outcomes) for k in keys}


def _check_passes(passes) -> list:
    """Problems that make the run incorrect: failed rechecks, non-repeating counts."""
    problems = []
    first = [o.counts() for o in passes[0][1]]
    for number, (_, outcomes) in enumerate(passes):
        for o in outcomes:
            if o.rejected:
                problems.append(f"pass {number}: {o.label} failed its exact recheck")
        if [o.counts() for o in outcomes] != first:
            problems.append(f"pass {number}: counts differ from pass 0")
    return problems


def end_to_end(passes, meter, setup_times) -> tuple:
    """End-to-end values, and the tail as (value, percentile, samples) or None.

    A task's time is the median over the passes of its calibrated time.
    """
    outcomes = [o for _, ops in passes for o in ops]
    totals = _totals(outcomes)
    first = _totals(passes[0][1])
    task_s = [statistics.median(meter.calibrate(ops[i].start, ops[i].seconds, ops[i].busy)
                                for _, ops in passes)
              for i in range(len(passes[0][1]))]
    values = {
        "solves_per_s": first["solves"] / sum(task_s),
        "solve_p50_s": statistics.median(task_s),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "deriv_evals": first["deriv_evals"],
        "value_evals": first["value_evals"],
        "iterations": first["iterations"],
        "certified_frac": totals["certified"] / totals["solves"],
        "verified_frac": totals["verified"] / totals["solves"],
    }
    return values, _tail([meter.calibrate(o.start, o.seconds, o.busy) for o in outcomes])


def per_layer(spans, tallies, outcomes, jobs: int, n_passes: int) -> dict:
    """Every per-layer quantity; counts and seconds are per traced pass."""
    import tracer as tr

    stats = tr.summarize(spans)

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {f"{name}.{quantity}": stats.get(name, {}).get(quantity, 0) / n_passes
              for name in tr.SPAN_NAMES for quantity in ("calls", "s", "self_s")}
    totals = _totals(outcomes)
    busy, capacity = tr.sweep_busy(spans, jobs)
    values.update({
        "solver.accuracy_improving_frac":
            ratio(totals["accuracy_improving"], totals["iterations"]),
        "solver.successful_frac": ratio(totals["successful"], totals["iterations"]),
        "oracle.inexact_bundle.cache_hit_frac":
            1.0 - ratio(totals["deriv_evals"], calls("oracle.inexact_bundle")),
        "check.check.insufficient_frac":
            ratio(tallies["check.insufficient"], calls("check.check")),
        "subsolvers.minimize_model.inner_iters":
            tallies["minimize_model.inner_iters"] / n_passes,
        "subsolvers.radius_search.halvings":
            ratio(tr.radius_halvings(spans), calls("subsolvers.radius_search")),
        "tensors.taylor_decrement.calls": tallies["taylor_decrement.calls"] / n_passes,
        "harness.run_sweep.parallel_eff": ratio(busy, capacity),
    })
    return values


def _environment(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def _result_line(correct, attempted, failed, metrics, units) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def _traced_run(tasks, count: int, wl, stem: str, record: dict) -> tuple:
    """Untraced and traced passes in turn; per-layer values per traced pass.

    The overhead compares the fastest pass of each kind; walls here are not
    calibrated, because the speed meter's handler would run inside spans.
    """
    import tracer as tr

    tracer = tr.Tracer()
    untraced, traced = [], []
    for _ in range(count):
        untraced += _run_passes(tasks, 1, wl.run_task)
        with tr.installed(tracer):
            traced += _run_passes(tasks, 1, wl.run_task)
    outcomes = [o for _, ops in traced for o in ops]
    values = per_layer(tracer.spans, tracer.tallies, outcomes, wl.SWEEP_JOBS, len(traced))
    untraced_wall = min(w for w, _ in untraced)
    traced_wall = min(w for w, _ in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.span_cost_s"] = tr.span_cost()
    tracer.write_csv(OUT_DIR / f"spans-{stem}.csv")
    record.update(untraced_pass_s=[w for w, _ in untraced], traced_pass_s=[w for w, _ in traced])
    print(f"# fastest untraced pass {untraced_wall:.3f} s, traced pass {traced_wall:.3f} s, "
          f"overhead {traced_wall - untraced_wall:.3f} s, {len(traced)} traced passes")
    print(f"# each span costs {values['trace.span_cost_s'] * 1e6:.2f} us, charged to its "
          f"parent's self_s")
    mean_wall = statistics.fmean(w for w, _ in traced)
    for key in SHARES:  # sweep spans run on SWEEP_JOBS threads, so may exceed 100%
        value = values[key]
        print(f"# {key} = {value:.4f} s = {100 * value / mean_wall:.1f}% of the mean traced pass")
    return untraced + traced, values


def _timed_run(tasks, count: int, args, wl, record: dict) -> tuple:
    """Set-up probes, then untraced passes under the speed meter."""
    setup_times, setup_wall = _measure_setup(args.workload, args.seed, args.smoke)
    stolen = speed.stolen_seconds()
    with speed.SpeedMeter(speed.numpy_kernel(), speed.NUMPY_REFERENCE_S) as meter:
        passes = _run_passes(tasks, count, wl.run_task)
    stolen = speed.stolen_seconds() - stolen
    values, tail = end_to_end(passes, meter, setup_times)
    record["task_s"] = {ops[0].label: [meter.calibrate(o.start, o.seconds, o.busy) for o in ops]
                        for ops in zip(*(outcomes for _, outcomes in passes))}
    wall = {"pass_s": statistics.median(w for w, _ in passes),
            "solve_p50_s": statistics.median(o.seconds for _, ops in passes for o in ops),
            "setup_s": statistics.median(setup_wall)}
    record.update(
        setup_probes_s=setup_times, setup_probes_wall_s=setup_wall, wall=wall, stolen_s=stolen,
        kernel_s=meter.kernel_time(), speed_samples=len(meter.starts),
        solve_tail_s=None if tail is None else {
            "value": tail[0], "percentile": tail[1], "samples": tail[2]},
    )
    print(f"# speed meter: {len(meter.starts)} samples, kernel "
          f"{meter.kernel_time() * 1e6:.1f} us (reference {speed.NUMPY_REFERENCE_S * 1e6:.1f} us)")
    print(f"# uncalibrated wall: {json.dumps(wall)}; {stolen:.2f} s stolen from the vCPUs")
    if tail is not None:
        print(f"# solve_tail_s = {tail[0]!r} s (p{tail[1]:.1f} of {tail[2]} samples)")
    return passes, values


def _setup_probe(args) -> int:
    """Load and build under the speed meter, then report the meter's kernel
    time, the handler's total CPU time and the process's CPU time since it
    started on the "ready" line."""
    with speed.SpeedMeter(speed.interpreter_kernel, speed.INTERPRETER_REFERENCE_S) as meter:
        _bootstrap()
        import workloads as wl

        wl.build_tasks(args.workload, wl.DEFAULT_SEED if args.seed is None else args.seed,
                       args.smoke)
    print(f"ready {meter.kernel_time()!r} {meter.handler_time()!r} {time.process_time()!r}",
          flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimum-size inputs, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        return _setup_probe(args)
    _bootstrap()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {wl.WORKLOADS}")
    if args.seed is None:
        args.seed = wl.DEFAULT_SEED
    tasks = wl.build_tasks(args.workload, args.seed, args.smoke)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    record = {"environment": _environment(args)}
    print(f"# environment {json.dumps(record['environment'])}")
    count = pass_count(args.workload, args.seconds)
    if args.trace:
        units = _units("per_layer")
        passes, values = _traced_run(tasks, count, wl, stem, record)
    else:
        units = _units("end_to_end")
        passes, values = _timed_run(tasks, count, args, wl, record)
    metrics = {name: values[name] for name in units if name in values}

    problems = _check_passes(passes)
    problems += [f"metric {name} has no value" for name in units if name not in values]
    outcomes = [o for _, ops in passes for o in ops]
    totals = _totals(outcomes)
    errors = sorted({e for o in outcomes for e in o.errors})
    attempted = totals["solves"]
    failed = attempted - totals["certified"] + totals["rejected"]
    record.update(passes=len(passes), pass_walls_s=[w for w, _ in passes],
                  attempted=attempted, failed=failed, errors=errors,
                  problems=problems, metrics=values)
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for key, value in metrics.items():
        print(f"# {key} = {value!r} {units[key]}")
    for line in problems:
        print(f"# INCORRECT: {line}")
    if errors:
        print(f"# exceptions caught: {', '.join(errors)}")
    print(_result_line(not problems, attempted, failed, metrics, units), flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
