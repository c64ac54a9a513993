"""Tests of `tools/trace_digest.py`, the digest every bit-identity claim
about a workload's traces rests on."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def trace_digest():
    spec = importlib.util.spec_from_file_location("trace_digest",
                                                  ROOT / "tools" / "trace_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_two_runs_of_a_workload_give_the_same_lines(trace_digest, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    first = list(trace_digest.digests("order3", 20240809))
    second = list(trace_digest.digests("order3", 20240809))
    assert len(first) == 4
    assert len({label for label, _ in first}) == 4
    assert first == second
