"""Tests of `tools/trace_digest.py`, the digest every bit-identity claim
about a workload's traces rests on."""
from __future__ import annotations

import dataclasses
import subprocess
import sys

import numpy as np
import pytest

import conftest
from conftest import ROOT, workloads

SEED = workloads.DEFAULT_SEED


@pytest.fixture(scope="module")
def trace_digest():
    return conftest.trace_digest


@pytest.mark.parametrize("a, b", [(1.0, np.nextafter(1.0, 2.0)), (0.0, -0.0)])
def test_canonical_tells_floats_apart_by_their_bits(trace_digest, a, b):
    canonical = trace_digest._canonical
    assert canonical(a) != canonical(b)
    assert canonical(np.float64(a)) != canonical(np.float64(b))
    assert canonical(np.array([a])) != canonical(np.array([b]))
    assert canonical({"x": [a]}) != canonical({"x": [b]})
    assert canonical(a) == canonical(np.float64(a))


def test_canonical_tells_arrays_apart_by_dtype_and_shape(trace_digest):
    canonical = trace_digest._canonical
    # The same bytes each time: only the dtype or the shape differs.
    assert canonical(np.zeros(4)) != canonical(np.zeros(4, dtype=np.int64))
    assert canonical(np.zeros(4)) != canonical(np.zeros((2, 2)))
    assert canonical(np.zeros(4)) == canonical(np.zeros(4))


def test_two_runs_of_a_workload_give_the_same_lines(trace_digest):
    first = list(trace_digest.digests("order3", SEED))
    second = list(trace_digest.digests("order3", SEED))
    assert len(first) == 4
    assert len({label for label, _ in first}) == 4
    assert first == second


def test_a_one_ulp_larger_step_norm_moves_the_digests(trace_digest, monkeypatch):
    import arq.solver

    before = list(trace_digest.digests("order3", SEED))
    minimize = arq.solver.minimize_model

    def one_ulp_longer(*args, **kwargs):
        res = minimize(*args, **kwargs)
        return dataclasses.replace(res, norm=float(np.nextafter(res.norm, np.inf)))

    monkeypatch.setattr(arq.solver, "minimize_model", one_ulp_longer)
    after = list(trace_digest.digests("order3", SEED))
    assert [label for label, _ in after] == [label for label, _ in before]
    assert all(a != b for (_, a), (_, b) in zip(after, before))


DIGESTS = ROOT / "tests" / "trace_digests.txt"


def test_moved_report_groups_labels_by_workload_and_noise(trace_digest):
    labels = ["sweep/sineq4/s414562537", "sineq2/exact/s1167422957/p3q3/e0.001",
              "quartic3/truncation/s1167422957/p2q1/e0.01",
              "rosenbrock2/truncation/s1167422957/p2q2/e0.001"]
    assert trace_digest.moved_report(labels, SEED).splitlines() == [
        "grid truncation (2):",
        "  rosenbrock2/truncation/s1167422957/p2q2/e0.001",
        "  quartic3/truncation/s1167422957/p2q1/e0.01",
        "order3 exact (1):",
        "  sineq2/exact/s1167422957/p3q3/e0.001",
        "sweep bounded_random (1):",
        "  sweep/sineq4/s414562537",
    ]


def test_traces_match_the_committed_digests(trace_digest):
    # Digests hash float bits, which depend on the stack as well as the
    # code: on a stack other than the file's the test skips and names the
    # difference.  After a named trace change, regenerate the file with
    #     python tools/trace_digest.py --workload all > tests/trace_digests.txt
    header, want = {}, []
    for line in DIGESTS.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            header[key] = value
        else:
            want.append(line)
    differ = [f"{key} {header.get(key)!r} in the file, {value!r} here"
              for key, value in trace_digest.stack().items() if header.get(key) != value]
    if differ:
        pytest.skip("digests were made on another stack: " + "; ".join(differ))
    # In a process of its own, which pins BLAS to one thread before numpy
    # loads: a multithreaded BLAS moves the bits of the n=200 tasks.
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "trace_digest.py"), "--workload", "all",
         "--seed", header["seed"]],
        capture_output=True, text=True, check=True).stdout
    got = [line for line in out.splitlines() if not line.startswith("# ")]
    assert [line.split()[0] for line in got] == [line.split()[0] for line in want]
    moved = [g.split()[0] for g, w in zip(got, want) if g != w]
    if moved:
        report = trace_digest.moved_report(moved, int(header["seed"]))
        pytest.fail(f"{len(moved)} of {len(want)} traces moved:\n{report}", pytrace=False)
