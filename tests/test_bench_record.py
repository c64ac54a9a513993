"""Tests of `tools/bench_record.py`'s pairing and summary, with the
benchmark runs stubbed out."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SETTINGS = {"seed": 1, "seconds": 1}


def test_pairs_alternate_and_wins_follow_the_better_direction(bench_record, monkeypatch):
    calls = []

    def run(checkout, workload, settings, trace):
        calls.append((checkout, trace))
        pair = sum(1 for c, t in calls if c == checkout and t == 0)
        head = checkout == "head-dir"
        return {"attempted": 3, "failed": 0,
                "solves_per_s": 10.0 + pair + (5.0 if head else 0.0),
                "solve_p50_s": 1.0 if head else 2.0,
                **{name: 0.0 for name in bench_record.PER_LAYER}}

    monkeypatch.setattr(bench_record, "_run", run)
    monkeypatch.setattr(bench_record, "PAIRS", 4)
    out = bench_record.record_workload({"base": "base-dir", "head": "head-dir"}, "grid",
                                       SETTINGS, {"solves_per_s": "higher",
                                                "solve_p50_s": "lower"})
    untraced = [c for c, t in calls if t == 0]
    assert untraced == ["base-dir", "head-dir", "head-dir", "base-dir"] * 2
    assert [c for c, t in calls if t == 1] == ["base-dir", "head-dir"]
    speed = out["end_to_end"]["solves_per_s"]
    assert speed["head_wins"] == 4
    assert speed["base"]["median"] == pytest.approx(12.5)
    assert speed["head"]["median"] == pytest.approx(17.5)
    assert speed["base"]["q1"] < speed["base"]["median"] < speed["base"]["q3"]
    assert out["end_to_end"]["solve_p50_s"]["head_wins"] == 4
    assert out["failed"] == {"base": 0, "head": 0}
    assert set(out["per_layer"]) == set(bench_record.PER_LAYER)


def test_a_tie_counts_for_neither(bench_record, monkeypatch):
    monkeypatch.setattr(bench_record, "_run", lambda checkout, workload, settings, trace: {
        "attempted": 1, "failed": 0, "deriv_evals": 7,
        **{name: 0.0 for name in bench_record.PER_LAYER}})
    out = bench_record.record_workload({"base": "b", "head": "h"}, "scale", SETTINGS,
                                       {"deriv_evals": "lower"})
    assert out["end_to_end"]["deriv_evals"]["head_wins"] == 0


def test_every_per_layer_name_is_a_benchmark_metric(bench_record):
    # A misspelt name would find no value in the traced run's result.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert len(set(bench_record.PER_LAYER)) == len(bench_record.PER_LAYER)
    assert set(bench_record.PER_LAYER) <= names
