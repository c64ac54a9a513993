"""Tests of the benchmark itself: span, steal and calibration arithmetic,
tracing, smoke runs.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import arq  # noqa: E402
import speed  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(name, start, end, parent=-1, thread=0):
    return tr.Span(name, start, end, parent=parent, thread=thread)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.child", 2.0, 3.0, parent=1),
        _span("b", 5.0, 6.0, parent=0),
        _span("other", 20.0, 21.0),
    ]
    assert tr.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.0])
    stats = tr.summarize(spans)
    assert stats["root"] == pytest.approx({"calls": 1, "s": 10.0, "self_s": 6.0})


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("c1", 1.0, 5.0, parent=0),
        _span("c2", 3.0, 7.0, parent=0),  # overlaps c1 by 2
        _span("c3", 9.0, 12.0, parent=0),  # runs past its parent
    ]
    assert tr.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_sweep_busy_counts_inline_children_and_pooled_roots():
    spans = [
        _span("harness.run_sweep", 0.0, 10.0, thread=1),
        _span("solver.solve", 1.0, 3.0, parent=0, thread=1),
        _span("solver.solve", 2.0, 9.0, thread=2),
        _span("solver.solve", 11.0, 12.0, thread=2),  # after the sweep ended
        _span("solver.step1", 2.5, 3.0, parent=2, thread=2),  # not top level
    ]
    assert tr.sweep_busy(spans, jobs=2) == pytest.approx((9.0, 20.0))


def test_span_stacks_are_kept_apart_across_threads():
    tracer = tr.Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def inner(tag):
        barrier.wait()  # both threads are inside `outer` when this runs
        return tag

    def outer(tag):
        return traced_inner(tag)

    traced_inner = tr._wrap(tracer, inner, "inner", "inner")
    traced_outer = tr._wrap(tracer, outer, "outer", "outer")
    threads = [threading.Thread(target=traced_outer, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)

    spans = tracer.spans
    assert sorted(s.name for s in spans) == ["inner", "inner", "outer", "outer"]
    for s in spans:
        if s.name == "inner":
            parent = spans[s.parent]
            assert parent.name == "outer" and parent.thread == s.thread
            assert parent.start <= s.start <= s.end <= parent.end
        else:
            assert s.parent == -1
    assert len({s.thread for s in spans}) == 2


def _bindings():
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "arq" or name.startswith("arq.")):
            out.update({(name, k): v for k, v in vars(module).items() if callable(v)})
    out[("Oracle", "inexact_bundle")] = arq.Oracle.inexact_bundle
    out[("Oracle", "inexact_value")] = arq.Oracle.inexact_value
    return out


def test_traced_run_restores_every_original():
    before = _bindings()
    task = wl.build_tasks("order3", 1, smoke=True)[0]
    tracer = tr.Tracer()
    with pytest.raises(RuntimeError):
        with tr.installed(tracer):
            assert arq.solve is not before[("arq", "solve")]
            assert arq.solver.optimality_measure is not before[("arq.solver", "optimality_measure")]
            outcome = wl.run_task(task)
            raise RuntimeError("leave the block by an exception")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert outcome.verified == 1
    names = {s.name for s in tracer.spans}
    assert {"solver.solve", "subsolvers.radius_search",
            "subsolvers.optimality_measure.o3", "harness.verify_certificate"} <= names
    assert names <= set(tr.SPAN_NAMES)
    assert tracer.tallies["taylor_decrement.calls"] > 0


def test_missing_target_raises_and_restores(monkeypatch):
    before = _bindings()
    monkeypatch.setattr(tr, "TARGETS", tr.TARGETS + (("arq.solver", "renamed", "solver.renamed"),))
    with pytest.raises(LookupError, match="arq.solver.renamed"):
        with tr.installed(tr.Tracer()):
            pass
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def _meter(starts, handler_s, kernel_s):
    meter = speed.SpeedMeter(speed.interpreter_kernel, reference_s=1.0)
    meter.starts, meter.handler_s, meter.kernel_s = starts, handler_s, kernel_s
    return meter


def test_calibration_scales_by_the_fast_mean_kernel_time_in_the_window():
    starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0]
    kernel_s = [9.0, 1.0, 2.0, 3.0, 4.0, 50.0, 9.0, 7.0]
    meter = _meter(starts, [0.1] * len(starts), kernel_s)
    # samples at 1..5 fall in [1, 6): the fastest 4 of 5 average 2.5, and
    # the handler took 0.5 s of the 4 busy seconds
    assert meter.calibrate(1.0, 5.0, 4.0) == pytest.approx((4.0 - 0.5) / 2.5)
    # no sample in [7, 8): the samples at 6 and 9 stand in
    assert meter.calibrate(7.0, 1.0, 1.0) == pytest.approx(1.0 / 8.0)
    assert meter.kernel_time() == pytest.approx(sum(sorted(kernel_s)[:6]) / 6)
    with pytest.raises(RuntimeError):
        _meter([], [], []).calibrate(0.0, 1.0, 1.0)


def test_busy_time_removes_the_tasks_share_of_steal():
    # one thread: it wanted cpu + stolen seconds and got cpu
    assert speed.busy_seconds(wall=3.0, cpu=2.0, stolen=1.0) == pytest.approx(2.0)
    # two threads side by side for 2 s of work each, each vCPU stolen 1 s
    assert speed.busy_seconds(wall=3.0, cpu=4.0, stolen=2.0) == pytest.approx(2.0)
    assert speed.busy_seconds(wall=1.5, cpu=3.0, stolen=0.0) == 1.5
    assert speed.busy_seconds(wall=0.5, cpu=0.0, stolen=0.0) == 0.5


def test_stolen_seconds_reads_the_steal_ticks(tmp_path):
    stat = tmp_path / "stat"
    stat.write_text("cpu  1631332 0 80106 2876257 214 0 1985 58838 0 0\n"
                    "cpu0 815666 0 40053 1438128 107 0 992 29419 0 0\n")
    assert speed.stolen_seconds(str(stat)) == pytest.approx(58838 / speed.USER_HZ)
    stat.write_text("intr 1 2 3\n")
    assert speed.stolen_seconds(str(stat)) == 0.0
    assert speed.stolen_seconds(str(tmp_path / "absent")) == 0.0


def test_speed_meter_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedMeter(speed.numpy_kernel(), speed.NUMPY_REFERENCE_S) as meter:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.starts) >= 5
    assert all(0 < k < h for k, h in zip(meter.kernel_s, meter.handler_s))
    assert meter.calibrate(start, 0.2, 0.2) > 0


def _run(workload, trace, *extra, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), *extra],
        capture_output=True, text=True, cwd=root, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _copy_benchmark(root, spec=SPEC):
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    (root / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (root / "perfbench" / f.name).write_text(f.read_text())


def test_run_fails_without_the_sources(tmp_path):
    bare = tmp_path / "bare"
    _copy_benchmark(bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_per_layer_metric_without_a_value_makes_the_run_incorrect(tmp_path):
    spec = dict(SPEC, per_layer=SPEC["per_layer"] + [
        {"name": "solver.renamed.calls", "unit": "count", "better": "lower"}])
    root = tmp_path / "checkout"
    _copy_benchmark(root, spec)
    (root / "src").symlink_to(ROOT / "src")
    proc = _run("order3", 1, "--smoke", root=root)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert "# INCORRECT: metric solver.renamed.calls has no value" in proc.stdout
