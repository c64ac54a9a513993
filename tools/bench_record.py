"""Record a before/after benchmark of two revisions as ``BENCH_<n>.json``.

Each revision is exported into its own directory, and its own, unchanged
``perfbench/run.py`` runs there.  For every workload the two revisions run
in alternating pairs (the order flips from pair to pair, so drift in the
machine's speed falls on both), and each end-to-end metric is summarized by
its quartiles over the pairs, with the number of pairs the head won.  One
traced run per revision and workload adds the per-layer numbers listed in
``PER_LAYER``.  There are ``PAIRS`` pairs, and each run lasts the
benchmark's ``run_seconds`` from ``BENCHMARK.json``:

    python tools/bench_record.py --number 27 --base HEAD~1 --head HEAD
    python tools/bench_record.py --number 27 --base HEAD      # head: working tree

With no ``--head`` the head is the working tree's tracked files, staged new
files included (``git stash create``; nothing in the checkout changes).
Each revision is recorded by its commit and the tree hash of its ``src``.
The file is written at the repository root; the exports go to a temporary
directory that is removed afterwards.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
PER_LAYER = (
    "solver.successful_frac",
    "solver.accuracy_improving_frac",
    "subsolvers.minimize_model.inner_iters",
    "subsolvers.minimize_model.self_s",
    "subsolvers.solve_trs.calls",
    "subsolvers.solve_trs.self_s",
    "subsolvers.optimality_measure.o3.calls",
    "subsolvers.optimality_measure.o3.self_s",
    "subsolvers.radius_search.halvings",
    "oracle.inexact_bundle.calls",
    "oracle.inexact_bundle.self_s",
    "oracle.inexact_value.calls",
    "oracle.inexact_value.self_s",
    "tensors.operator_norm.calls",
    "tensors.operator_norm.self_s",
    "harness.visited_lipschitz.calls",
    "harness.visited_lipschitz.self_s",
    "harness.verify_certificate.self_s",
)


def _git(*args: str, data: bool = False):
    out = subprocess.run(("git", *args), cwd=ROOT, check=True, capture_output=True).stdout
    return out if data else out.decode().strip()


def _resolve(rev: str | None) -> dict:
    """The commit of `rev`, or of the working tree when `rev` is None."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}") if rev else (
        _git("stash", "create") or _git("rev-parse", "HEAD"))
    return {"rev": rev or "working tree", "commit": commit,
            "src_tree": _git("rev-parse", f"{commit}:src")}


def _export(commit: str, where: Path) -> Path:
    where.mkdir()
    subprocess.run(("tar", "-x", "-C", str(where)), input=_git("archive", commit, data=True),
                   check=True)
    return where


def _run(checkout: Path, workload: str, settings: dict, trace: int) -> dict:
    """The metrics of one `perfbench/run.py` run, from its JSON result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
           str(settings["seed"]), "--seconds", str(settings["seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        raise SystemExit(f"{checkout.name} {workload} --trace {trace} failed:\n"
                         f"{proc.stdout}\n{proc.stderr}")
    return {"attempted": result["attempted"], "failed": result["failed"],
            **{k: v["value"] for k, v in result["metrics"].items()}}


def _quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def record_workload(checkouts: dict, workload: str, settings: dict, better: dict) -> dict:
    runs = {"base": [], "head": []}
    for pair in range(PAIRS):
        for side in (("base", "head") if pair % 2 == 0 else ("head", "base")):
            runs[side].append(_run(checkouts[side], workload, settings, 0))
        print(f"# {workload} pair {pair + 1}/{PAIRS}", file=sys.stderr, flush=True)
    end_to_end = {}
    for name, direction in better.items():
        base = [r[name] for r in runs["base"]]
        head = [r[name] for r in runs["head"]]
        sign = 1 if direction == "higher" else -1
        end_to_end[name] = {
            "base": _quartiles(base), "head": _quartiles(head),
            "head_wins": sum(sign * (h - b) > 0 for b, h in zip(base, head)),
        }
    traced = {side: _run(checkouts[side], workload, settings, 1) for side in ("base", "head")}
    return {
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
        "end_to_end": end_to_end,
        "per_layer": {name: {side: traced[side][name] for side in traced}
                      for name in PER_LAYER},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, required=True, help="n of BENCH_<n>.json")
    parser.add_argument("--base", required=True, help="the revision before the change")
    parser.add_argument("--head", default=None, help="the revision after it "
                        "(default: the working tree)")
    parser.add_argument("--workloads", nargs="+", default=["grid", "scale", "order3", "sweep"])
    parser.add_argument("--seed", type=int, default=20240809)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    settings = {"seed": args.seed, "seconds": benchmark["run_seconds"]}
    revisions = {"base": _resolve(args.base), "head": _resolve(args.head)}
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {side: _export(rev["commit"], Path(tmp) / side)
                     for side, rev in revisions.items()}
        workloads = {w: record_workload(checkouts, w, settings, better)
                     for w in args.workloads}
    out = {
        "revisions": revisions, **settings, "pairs": PAIRS,
        "python": platform.python_version(), "machine": platform.machine(),
        "workloads": workloads,
    }
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
