import csv
import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import arq.harness
import arq.solver
import arq.subsolvers
from arq.cli import _SETTINGS, _build_spec, main, make_parser
from arq.harness import (
    ExperimentSpec,
    TRACE_COLUMNS,
    build_config,
    certificate_from_json,
    exact_phi,
    expand_seeds,
    parse_config_file,
    run_solve,
    run_sweep,
    start_bounds,
    verify_certificate,
)
from arq.diagnostics import compute_bounds
from arq.oracle import Problem, make_problem
from arq.solver import Certificate

from conftest import polar_grid_phi, random_symmetric, sphere_grid_phi, steep_problem


def read_csv(path):
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if not row[0].startswith("#")]


class TestSeedExpansion:
    def test_matches_splitmix64_reference(self):
        # first outputs of the standard splitmix64 stream seeded with 0
        assert expand_seeds(0, 2) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]

    def test_deterministic_and_prefix_stable(self):
        assert expand_seeds(123, 5) == expand_seeds(123, 5)
        assert expand_seeds(123, 5)[:3] == expand_seeds(123, 3)
        assert expand_seeds(123, 3) != expand_seeds(124, 3)


class TestRunSolve:
    def test_writes_trace_certificate_and_bounds(self, tmp_path):
        spec = ExperimentSpec(
            problem="quadratic", dim=4, noise="exact", eps=(1e-3,), out=tmp_path
        )
        outcome = run_solve(spec)
        assert outcome.exit_code == 0
        rows = read_csv(tmp_path / "trace.csv")
        assert rows[0] == list(TRACE_COLUMNS)
        assert len(rows) == outcome.result.iterations + 1
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["verified_exact"] == [True]
        assert (tmp_path / "bounds.txt").read_text().startswith("l_f = ")

    def test_accuracy_rows_say_why_they_tightened(self, tmp_path):
        spec = ExperimentSpec(
            problem="rosenbrock", dim=2, noise="bounded_random", seed=5,
            eps=(1e-4,), out=tmp_path,
        )
        outcome = run_solve(spec)
        assert outcome.exit_code == 0
        header, *rows = read_csv(tmp_path / "trace.csv")
        cause_columns = ("cause", "cause_error_sum", "cause_threshold", "acc_steps")
        improving = 0
        for values, rec in zip(rows, outcome.result.trace):
            row = dict(zip(header, values))
            assert int(row["halvings"]) == rec.halvings >= 0
            if row["kind"] in ("successful", "unsuccessful"):
                assert int(row["inner_iterations"]) == rec.inner_iterations >= 0
            else:
                assert row["inner_iterations"] == "" and rec.inner_iterations is None
            if row["kind"] != "accuracy_improving":
                assert all(row[c] == "" for c in cause_columns)
                continue
            improving += 1
            assert row["cause"] == rec.cause.cause
            assert row["cause"].startswith(("step1 j=", "step2 decrement", "step2 ell="))
            assert float(row["cause_error_sum"]) > float(row["cause_threshold"])
            assert int(row["acc_steps"]) == rec.acc_steps >= 1
        assert improving > 0

    def test_readme_lists_the_trace_columns(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        listed = readme.split("`trace.csv` — one row per iteration, columns", 1)[1]
        listed = listed.split("`", 2)[1]
        assert [c.strip() for c in listed.split(",")] == list(TRACE_COLUMNS)

    def test_immediate_termination_leaves_single_kindless_row(self, tmp_path):
        spec = ExperimentSpec(
            problem="quadratic", dim=3, noise="exact", eps=(0.5,), out=tmp_path,
            x0=np.zeros(3),
        )
        outcome = run_solve(spec)
        assert outcome.exit_code == 0
        rows = read_csv(tmp_path / "trace.csv")
        assert len(rows) == 2
        assert rows[1][0] == "0"
        assert rows[1][1] == ""  # kind absent

    def test_bounds_are_taken_at_the_start_point(self):
        spec = ExperimentSpec(problem="quadratic", dim=2, eps=(1e-2,))
        moved = ExperimentSpec(problem="quadratic", dim=2, eps=(1e-2,),
                               x0=np.array([50.0, -50.0]))
        default, far = run_solve(spec), run_solve(moved)
        problem = spec.make_problem()
        assert far.result.trace[0].x.tolist() == [50.0, -50.0]
        assert far.bounds == start_bounds(problem, build_config(moved), moved.x0).as_dict()
        assert far.bounds["n_value_evals"] > default.bounds["n_value_evals"]

    def test_config_error_exits_one(self):
        spec = ExperimentSpec(problem="quadratic", dim=4, overrides={"eta2": 1.2})
        outcome = run_solve(spec)
        assert outcome.exit_code == 1
        assert "eta" in outcome.error

    @pytest.mark.parametrize("x0", [[1.0, 2.0, 3.0], [np.nan, 1.0], "abc"])
    def test_bad_start_point_exits_one(self, x0):
        outcome = run_solve(ExperimentSpec(problem="quadratic", dim=2, x0=x0))
        assert outcome.exit_code == 1
        assert outcome.result is None
        assert "x0" in outcome.error

    def test_bad_fill_fraction_exits_one(self):
        outcome = run_solve(ExperimentSpec(fill_fraction=2.0))
        assert outcome.exit_code == 1
        assert outcome.result is None

    def test_budget_exhaustion_exits_two(self, tmp_path):
        spec = ExperimentSpec(
            problem="rosenbrock", dim=2, noise="bounded_random", seed=3,
            eps=(1e-4,), overrides={"max_iters": 2}, out=tmp_path,
        )
        outcome = run_solve(spec)
        assert outcome.exit_code == 2
        assert (tmp_path / "trace.csv").exists()


class TestSweep:
    def test_rows_match_grid_and_counts_match_trace(self, tmp_path):
        spec = ExperimentSpec(
            problem="quadratic", dim=3, noise="bounded_random", seed=9,
            eps=(1e-2, 1e-3, 1e-4), q=1, out=tmp_path, runs=2,
        )
        summary = run_sweep(spec)
        assert len(summary["rows"]) == 6
        for row in summary["rows"]:
            assert row["status"] == "ok"
            assert row["iterations"] == (
                row["successful"] + row["unsuccessful"] + row["accuracy_improving"] + 1
            )
            assert row["value_bound_ok"] and row["deriv_bound_ok"]
        rows = read_csv(tmp_path / "summary.csv")
        assert len(rows) == 7
        text = (tmp_path / "summary.csv").read_text()
        assert "# slope_value_evals" in text

    def test_row_bounds_are_the_bounds_at_its_visited_lipschitz(self, tmp_path):
        spec = ExperimentSpec(problem="rosenbrock", dim=2, noise="bounded_random", seed=5,
                              eps=(1e-2, 1e-3, 1e-4), out=tmp_path)
        rows = run_sweep(spec)["rows"]
        problem = spec.make_problem()
        gap = max(0.0, problem.value(problem.x0) - problem.f_low)
        header, *lines = read_csv(tmp_path / "summary.csv")
        for row, line in zip(rows, lines):
            assert row["l_visited"] > 1.0
            assert float(line[header.index("l_visited")]) == row["l_visited"]
            report = compute_bounds(build_config(spec, (row["eps_min"],) * spec.q),
                                    row["l_visited"], gap)
            assert row["bound_value_evals"] == report.n_value_evals
            assert row["bound_deriv_evals"] == report.n_derivative_evals

    @pytest.mark.parametrize("noise", ["exact", "bounded_random"])
    def test_rows_report_digits_demanded(self, noise, tmp_path):
        spec = ExperimentSpec(problem="quadratic", dim=3, noise=noise, seed=9,
                              eps=(1e-2, 1e-3, 1e-4), out=tmp_path)
        rows = run_sweep(spec)["rows"]
        header, *lines = read_csv(tmp_path / "summary.csv")
        written = [line[header.index("digits_demanded")] for line in lines]
        if noise == "exact":
            assert [row["digits_demanded"] for row in rows] == [None] * 3
            assert written == [""] * 3
        else:
            assert all(row["digits_demanded"] > 0 for row in rows)
            assert written == [repr(row["digits_demanded"]) for row in rows]
        # Values are requested at a positive bound whatever the noise.
        written = [line[header.index("value_digits_demanded")] for line in lines]
        assert all(row["value_digits_demanded"] > 0 for row in rows)
        assert written == [repr(row["value_digits_demanded"]) for row in rows]

    def test_exact_oracle_sweep_satisfies_every_bound(self):
        spec = ExperimentSpec(
            problem="quadratic", dim=4, noise="exact", seed=0,
            eps=(1e-2, 1e-3, 1e-4), q=1,
        )
        summary = run_sweep(spec)
        assert all(
            row["value_bound_ok"] and row["deriv_bound_ok"]
            for row in summary["rows"]
        )

    def test_parallel_matches_serial(self):
        base = dict(
            problem="quartic", dim=2, noise="bounded_random", seed=4,
            eps=(1e-2, 1e-3, 5e-3), q=1,
        )
        serial = run_sweep(ExperimentSpec(**base, jobs=1))
        parallel = run_sweep(ExperimentSpec(**base, jobs=3))
        assert serial["rows"] == parallel["rows"]

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="the patched row function reaches workers by fork")
    def test_jobs_share_the_rows_between_this_process_and_a_worker(self, monkeypatch):
        sweep_one = arq.harness._sweep_one
        monkeypatch.setattr(arq.harness, "_sweep_one",
                            lambda *args: {**sweep_one(*args), "pid": os.getpid()})
        spec = ExperimentSpec(problem="quadratic", dim=2, eps=(1e-2, 1e-3, 1e-4), runs=2)
        serial = run_sweep(spec)["rows"]
        parallel = run_sweep(dataclasses.replace(spec, jobs=2))["rows"]
        assert [row.pop("pid") == os.getpid() for row in parallel] == [True, False] * 3
        assert [row.pop("pid") for row in serial] == [os.getpid()] * 6
        assert parallel == serial

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="the patched row function reaches workers by fork")
    def test_a_workers_exception_is_raised_by_the_caller(self, monkeypatch):
        caller, sweep_one = os.getpid(), arq.harness._sweep_one

        def fails_in_a_worker(*args):
            if os.getpid() != caller:
                raise ArithmeticError("row failed in a worker")
            return sweep_one(*args)

        monkeypatch.setattr(arq.harness, "_sweep_one", fails_in_a_worker)
        spec = ExperimentSpec(problem="quadratic", dim=2, eps=(1e-2, 1e-3, 1e-4), jobs=2)
        with pytest.raises(ArithmeticError, match="row failed in a worker"):
            run_sweep(spec)

    def test_workers_are_spawned_beside_another_thread(self, monkeypatch):
        methods, get_context = [], multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: methods.append(method) or get_context(method))
        spec = ExperimentSpec(problem="quadratic", dim=2, eps=(1e-2, 1e-3, 1e-4), runs=2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            parallel = run_sweep(dataclasses.replace(spec, jobs=2))["rows"]
        finally:
            release.set()
            other.join()
        assert methods == ["spawn"]
        assert parallel == run_sweep(spec)["rows"]

    def test_short_grid_rejected(self):
        spec = ExperimentSpec(problem="quadratic", dim=2, eps=(1e-2, 1e-3))
        with pytest.raises(ValueError):
            run_sweep(spec)

    def test_single_point_grid_rejected(self):
        spec = ExperimentSpec(problem="quadratic", dim=2, eps=(1e-2,))
        with pytest.raises(ValueError):
            run_sweep(spec)

    def test_out_of_range_grid_rejected(self):
        spec = ExperimentSpec(problem="quadratic", dim=2, eps=(1e-2, 1e-3, 1.5))
        with pytest.raises(ValueError):
            run_sweep(spec)

    def test_unconvertible_start_point_rejected_by_name(self):
        spec = ExperimentSpec(problem="quadratic", dim=2, eps=(1e-2, 1e-3, 1e-4), x0="abc")
        with pytest.raises(arq.solver.ConfigError, match="x0 is not a float vector"):
            run_sweep(spec)

    @pytest.mark.parametrize("field", ["jobs", "runs"])
    def test_jobs_below_one_rejected(self, field):
        spec = ExperimentSpec(problem="quadratic", dim=2, eps=(1e-2, 1e-3, 1e-4), **{field: 0})
        with pytest.raises(ValueError):
            run_sweep(spec)
        assert main(["sweep", "--problem", "quadratic", "--eps", "1e-2,1e-3,1e-4",
                     f"--{field}", "0"]) == 1


STALL_FLAGS = ["--problem", "rosenbrock", "--dim", "2", "--noise", "bounded_random",
               "--seed", "3", "--eps", "1e-3", "--p", "3"]


def nan_gradient_problem(name, dim):
    """The named problem with a NaN gradient everywhere."""
    problem = make_problem(name, dim)
    derivative = problem.eval_derivative
    return dataclasses.replace(
        problem, eval_derivative=lambda x, i: derivative(x, i) * (math.nan if i == 1 else 1.0))


@pytest.fixture(params=["stall", "invariant", "oracle"])
def forced_stop(request, monkeypatch):
    """(status, spec fields, CLI flags) of a run that stops without a certificate."""
    if request.param == "oracle":
        # The first derivative bundle holds a NaN gradient.
        monkeypatch.setattr(arq.harness, "make_problem", nan_gradient_problem)
        fields = dict(problem="quadratic", dim=2, noise="bounded_random", seed=3,
                      eps=(1e-3,))
        flags = ["--problem", "quadratic", "--dim", "2", "--noise", "bounded_random",
                 "--seed", "3", "--eps", "1e-3"]
    elif request.param == "stall":
        # At p=3 step 2 enters the model minimizer's Newton loop, whose cap of
        # one iteration is hit in the first iteration.
        monkeypatch.setattr(arq.subsolvers, "_MAX_INNER_ITERS", 1)
        fields = dict(problem="rosenbrock", dim=2, noise="bounded_random", seed=3,
                      eps=(1e-3,), p=3)
        flags = STALL_FLAGS
    else:
        # An estimate far below the steep problem's true L (1e6), with a small
        # sigma, lifts the guard floor over the radius step 1 halves to.
        monkeypatch.setattr(arq.harness, "make_problem", lambda name, dim: steep_problem())
        monkeypatch.setattr(arq.solver, "estimate_lipschitz", lambda *args: 1e-3)
        fields = dict(problem="quadratic", dim=1, noise="exact", eps=(0.5,),
                      overrides={"sigma0": 1e-3})
        flags = ["--problem", "quadratic", "--dim", "1", "--noise", "exact",
                 "--eps", "0.5", "--sigma0", "1e-3"]
    return request.param, fields, flags


class TestStopsWithoutCertificate:
    def test_run_solve_exits_two(self, forced_stop, tmp_path):
        status, fields, _ = forced_stop
        outcome = run_solve(ExperimentSpec(**fields, out=tmp_path))
        assert outcome.exit_code == 2
        assert outcome.error.startswith(f"{status}: ")
        header, *rows = read_csv(tmp_path / "trace.csv")
        assert header == list(TRACE_COLUMNS)
        # the interrupted first iteration, with the run's one derivative
        # evaluation and no value evaluation
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert row["kind"] == ""
        assert (row["value_evals_cum"], row["deriv_evals_cum"]) == ("0", "1")

    def test_sweep_row_carries_the_status(self, forced_stop):
        status, fields, _ = forced_stop
        eps = fields["eps"][0]
        spec = ExperimentSpec(**{**fields, "eps": (eps, 0.8 * eps, 0.6 * eps)})
        rows = run_sweep(spec)["rows"]
        assert [row["status"] for row in rows] == [status] * 3
        assert all(row["iterations"] == 1 and row["deriv_evals"] == 1 for row in rows)

    def test_cli_exits_two_without_traceback(self, forced_stop, capsys):
        status, _, flags = forced_stop
        assert main(["solve", *flags]) == 2
        captured = capsys.readouterr()
        assert f"error: {status}: " in captured.out
        assert "Traceback" not in captured.err

    def test_cli_stall_message_carries_its_numbers(self, capsys, monkeypatch):
        monkeypatch.setattr(arq.subsolvers, "_MAX_INNER_ITERS", 1)
        assert main(["solve", *STALL_FLAGS]) == 2
        out = capsys.readouterr().out
        assert "error: stall: inner iteration cap exceeded (iterations 1, step norm " in out

    def test_sweep_cli_exits_two_and_prints_every_row(self, forced_stop, capsys):
        status, fields, flags = forced_stop
        eps = fields["eps"][0]
        assert main(["sweep", *flags, "--eps", f"{eps},{0.8 * eps},{0.6 * eps}"]) == 2
        captured = capsys.readouterr()
        assert captured.out.count(f" {status}: ") == 3
        assert "slope log(derivative evals) vs log(1/eps)" in captured.out
        assert "Traceback" not in captured.err



def nan_third_derivative_problem(name, dim):
    """The named problem with a NaN third derivative everywhere: a p = 2
    solve never asks for it, and every p = 2 Lipschitz estimate norms it."""
    problem = make_problem(name, dim)
    derivative = problem.eval_derivative
    return dataclasses.replace(
        problem, eval_derivative=lambda x, i: derivative(x, i) * (math.nan if i == 3 else 1.0))


class TestFaultyBoundEstimate:
    """A certified run whose bound estimate meets an oracle fault ends with
    status ``oracle``, and keeps its certificate."""

    FLAGS = ["--problem", "quadratic", "--dim", "2", "--noise", "exact", "--eps", "1e-3"]

    @pytest.fixture(autouse=True)
    def faulty(self, monkeypatch):
        monkeypatch.setattr(arq.harness, "make_problem", nan_third_derivative_problem)

    def test_run_solve_exits_two_with_its_certificate_and_no_bounds(self, tmp_path):
        outcome = run_solve(ExperimentSpec(problem="quadratic", dim=2, out=tmp_path))
        assert outcome.exit_code == 2
        assert outcome.error.startswith("oracle: problem 'quadratic' returned a derivative "
                                        "of order 3 with a non-finite norm")
        assert outcome.verification[0]["ok"] and outcome.bounds is None
        assert (tmp_path / "certificate.json").exists() and (tmp_path / "trace.csv").exists()
        assert not (tmp_path / "bounds.txt").exists()

    def test_sweep_rows_say_oracle_with_empty_bounds(self, tmp_path):
        spec = ExperimentSpec(problem="quadratic", dim=2, eps=(1e-2, 1e-3, 1e-4), out=tmp_path)
        summary = run_sweep(spec)
        assert [row["status"] for row in summary["rows"]] == ["oracle"] * 3
        assert math.isnan(summary["slope_value"])
        header, *lines = read_csv(tmp_path / "summary.csv")
        bounds = header[header.index("l_visited"):]
        assert bounds == ["l_visited", "bound_value_evals", "bound_deriv_evals",
                          "value_bound_ok", "deriv_bound_ok"]
        assert all(line[header.index("l_visited"):] == [""] * 5 for line in lines)

    def test_cli_solve_and_bounds_exit_two_without_traceback(self, capsys):
        assert main(["solve", *self.FLAGS]) == 2
        assert main(["bounds", *self.FLAGS]) == 2
        captured = capsys.readouterr()
        assert captured.out.count("error: oracle: ") == 2
        assert "Traceback" not in captured.err


def nan_value_problem(name, dim):
    """The named problem with f NaN everywhere, started at 0: a quadratic
    certifies there without asking for f."""
    problem = make_problem(name, dim)
    return dataclasses.replace(problem, eval_value=lambda x: math.nan, x0=np.zeros(dim))


class TestNonFiniteStartValue:
    """f(x0) in a bound report goes through the oracle's fault check: a NaN
    there is a fault of order 0, not a gap of 0."""

    FLAGS = ["--problem", "quadratic", "--dim", "2", "--noise", "exact", "--eps", "1e-3"]
    ERROR = "oracle: problem 'quadratic' returned the non-finite value nan at order 0, x = [0., 0.]"

    @pytest.fixture(autouse=True)
    def faulty(self, monkeypatch):
        monkeypatch.setattr(arq.harness, "make_problem", nan_value_problem)

    def test_run_solve_exits_two_with_its_certificate_and_no_bounds(self, tmp_path):
        outcome = run_solve(ExperimentSpec(problem="quadratic", dim=2, out=tmp_path))
        assert outcome.exit_code == 2
        assert outcome.error == self.ERROR
        assert outcome.verification[0]["ok"] and outcome.bounds is None
        assert (tmp_path / "certificate.json").exists()
        assert not (tmp_path / "bounds.txt").exists()

    def test_sweep_rows_say_oracle_with_empty_bounds(self):
        spec = ExperimentSpec(problem="quadratic", dim=2, eps=(1e-2, 1e-3, 1e-4))
        rows = run_sweep(spec)["rows"]
        assert [row["status"] for row in rows] == ["oracle"] * 3
        assert all(row["iterations"] == 1 and row["value_evals"] == 0 for row in rows)
        bounds = arq.harness.SWEEP_COLUMNS[arq.harness.SWEEP_COLUMNS.index("l_visited"):]
        assert all(row[column] is None for row in rows for column in bounds)

    def test_cli_solve_and_bounds_exit_two_without_traceback(self, capsys):
        assert main(["solve", *self.FLAGS]) == 2
        assert main(["bounds", *self.FLAGS]) == 2
        captured = capsys.readouterr()
        assert captured.out.count(f"error: {self.ERROR}") == 2
        assert "Traceback" not in captured.err


class TestVerifyCertificate:
    def make_cert(self, tmp_path):
        spec = ExperimentSpec(
            problem="rosenbrock", dim=2, noise="bounded_random", seed=3,
            eps=(1e-3,), out=tmp_path,
        )
        outcome = run_solve(spec)
        assert outcome.exit_code == 0
        return tmp_path / "certificate.json"

    def test_good_certificate_passes(self, tmp_path):
        path = self.make_cert(tmp_path)
        cert, name, dim = certificate_from_json(json.loads(path.read_text()))
        problem = make_problem(name, dim)
        results = verify_certificate(problem, cert)
        assert all(r["ok"] for r in results)

    def test_corrupted_certificate_fails(self, tmp_path):
        path = self.make_cert(tmp_path)
        data = json.loads(path.read_text())
        data["x_eps"] = [v + 1.0 for v in data["x_eps"]]
        cert, name, dim = certificate_from_json(data)
        problem = make_problem(name, dim)
        results = verify_certificate(problem, cert)
        assert any(r["ok"] is False for r in results)

    def test_high_order_unsupported_dimension_reported(self):
        problem = make_problem("quadratic", 5)
        cert = Certificate(
            x_eps=np.zeros(5),
            delta_eps=np.ones(3),
            measured=(
                {"order": 3, "phi_bar": 0.0, "delta": 1.0, "threshold": 0.1},
            ),
        )
        results = verify_certificate(problem, cert)
        assert results[0]["ok"] is None
        assert results[0]["note"] == "unsupported"


class TestExactPhi:
    def test_order_one_closed_form(self):
        problem = make_problem("quadratic", 3)
        x = problem.x0
        assert exact_phi(problem, x, 1, 0.5) == pytest.approx(
            0.5 * np.linalg.norm(problem.derivative(x, 1))
        )

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_order_one_where_the_gradients_squares_underflow_or_overflow(self, scale):
        # The gradient is x: the unscaled sum of its squares would read 0 or inf.
        problem = Problem("half_norm_squared", 2, lambda x: 0.5 * float(x @ x),
                          lambda x, i: x if i == 1 else np.eye(2), 0.0, np.ones(2))
        with np.errstate(over="ignore", under="ignore"):
            phi = exact_phi(problem, np.full(2, scale), 1, 0.5)
        assert phi == pytest.approx(0.5 * math.sqrt(2.0) * scale, rel=1e-15, abs=0)

    def test_order_three_polar_grid(self):
        problem = make_problem("quartic", 2)
        x = np.array([0.3, -0.2])
        tensors = [problem.derivative(x, i) for i in (1, 2, 3)]
        ref = polar_grid_phi(tensors, 0.6)
        assert exact_phi(problem, x, 3, 0.6) == pytest.approx(ref, rel=1e-2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_order_three_per_direction_form_matches_pointwise_grid(self, n):
        # exact_phi sums g.u, u'Hu and T[u,u,u] once per direction; the
        # reference evaluates the same grid point by point.
        rng = np.random.default_rng(40 + n)
        for _ in range(5):
            tensors = [float(rng.uniform(0.01, 10.0)) * random_symmetric(rng, n, i)
                       for i in (1, 2, 3)]
            problem = Problem("cubic", n, lambda x: 0.0, lambda x, i, ts=tensors: ts[i - 1],
                              0.0, np.zeros(n))
            delta = float(rng.uniform(0.05, 1.0))
            ref = sphere_grid_phi(tensors, delta)
            assert exact_phi(problem, np.zeros(n), 3, delta) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("name", ["quadratic", "quartic", "sineq"])
    def test_order_three_in_one_dimension_stays_under_the_closed_form(self, name):
        # At n = 1 the sphere is {+1, -1}.  Along u the decrement at radius
        # r is -(r a1 + r^2 a2 / 2 + r^3 a3 / 6), a cubic whose maximum on
        # [0, delta] lies at delta or at a root of a1 + r a2 + r^2 a3 / 2:
        # the grid's radii can only fall short of it.
        problem = make_problem(name, 1)
        rng = np.random.default_rng(11)
        for _ in range(40):
            x = rng.uniform(-2.0, 2.0, 1)
            delta = float(10.0 ** rng.uniform(-3.0, 0.0))
            g, h, t = (float(problem.derivative(x, i).item()) for i in (1, 2, 3))
            best = 0.0
            for u in (1.0, -1.0):
                a1, a2, a3 = u * g, h, u * t
                roots = np.roots([a3 / 2, a2, a1]) if a3 else np.roots([a2, a1])
                radii = [delta] + [r.real for r in roots
                                   if r.imag == 0.0 and 0.0 < r.real < delta]
                best = max([best] + [-(r * a1 + r**2 / 2 * a2 + r**3 / 6 * a3) for r in radii])
            phi = exact_phi(problem, x, 3, delta)
            assert 0.0 <= phi <= best * (1.0 + 1e-12)


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\nproblem = quartic\ndim = 3\neps = 0.01,0.001\n"
            "sigma0 = 2.0  # trailing comment\n"
        )
        parsed = parse_config_file(cfg)
        assert parsed == {"problem": "quartic", "dim": "3", "eps": "0.01,0.001",
                          "sigma0": "2.0"}

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem quartic\n")
        with pytest.raises(Exception):
            parse_config_file(cfg)


# A value of each setting type; problem and noise must name a choice.
SAMPLES = {int: ("3", 3), float: ("0.25", 0.25), tuple: ("0.5,0.25", (0.5, 0.25)),
           Path: ("runs/x", Path("runs/x"))}
NAMED = {"problem": ("sineq", "sineq"), "noise": ("truncation", "truncation")}


class TestSettingsTable:
    @pytest.mark.parametrize("key", list(_SETTINGS))
    def test_flags_and_config_file_agree(self, key, tmp_path):
        raw, expected = NAMED.get(key) or SAMPLES[_SETTINGS[key]]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {raw}\n")
        specs = [
            _build_spec(make_parser().parse_args(["sweep", *argv]))
            for argv in ([f"--{key}", raw], [f"--{key.replace('_', '-')}", raw],
                         ["--config", str(cfg)])
        ]
        assert specs[0] == specs[1] == specs[2]
        spec = specs[0]
        value = spec.overrides[key] if key in spec.overrides else getattr(spec, key)
        assert value == expected
        assert isinstance(value, _SETTINGS[key])

    @pytest.mark.parametrize("command", ["solve", "bounds"])
    def test_sweep_settings_are_flags_of_sweep_only(self, command, capsys):
        for key in ("jobs", "runs"):
            with pytest.raises(SystemExit) as exc:
                make_parser().parse_args([command, f"--{key}", "2"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: --{key} 2" in capsys.readouterr().err
            assert make_parser().parse_args(["sweep", f"--{key}", "2"]).__dict__[key] == "2"

    def test_malformed_values_exit_one(self, tmp_path):
        assert main(["solve", "--dim", "abc"]) == 1
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("eps = x\n")
        assert main(["solve", "--config", str(cfg)]) == 1


class TestCliMain:
    def test_solve_and_verify_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "solve", "--problem", "quadratic", "--dim", "4", "--noise", "exact",
            "--eps", "1e-3", "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        assert "exact-check: ok" in capsys.readouterr().out
        assert main(["verify", "--cert", str(out / "certificate.json")]) == 0

    @pytest.mark.parametrize("noise, line", [
        ("exact", "digits demanded = n/a (exact derivatives)"),
        ("bounded_random", "per derivative bundle"),
        ("exact", "per value"),
        ("bounded_random", "per value"),
    ])
    def test_solve_prints_digits_demanded(self, noise, line, capsys):
        assert main(["solve", "--problem", "quadratic", "--dim", "3", "--noise", noise,
                     "--eps", "1e-3", "--seed", "1"]) == 0
        assert line in capsys.readouterr().out

    def test_unsupported_order_writes_null_verification(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["solve", "--problem", "sineq", "--dim", "4", "--p", "3", "--q", "3",
                     "--eps", "1e-3", "--out", str(out)]) == 0
        assert "exact-check: unsupported" in capsys.readouterr().out
        data = json.loads((out / "certificate.json").read_text())
        assert data["verified_exact"] == [True, True, None]
        assert data["verified_phi"][2] is None
        assert all(phi <= entry["threshold"]
                   for phi, entry in zip(data["verified_phi"][:2], data["measured"]))

    def test_verify_reports_an_order_beyond_the_exact_recheck_and_exits_zero(self, tmp_path,
                                                                           capsys):
        out = tmp_path / "run"
        assert main(["solve", "--problem", "sineq", "--dim", "4", "--p", "3", "--q", "3",
                     "--eps", "1e-3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", "--cert", str(out / "certificate.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["order 1", "order 2", "order 3"]
        assert all(line.endswith("ok=True") for line in lines[:2])
        assert lines[2] == "order 3: unsupported at dim 4 (not failed)"

    @pytest.mark.parametrize("flag", ["--problem", "--noise"])
    def test_unknown_problem_or_noise_exits_one(self, flag, capsys):
        assert main(["bounds", flag, "bogus"]) == 1
        assert f"configuration error: unknown {flag[2:]} 'bogus'" in capsys.readouterr().err

    def test_module_entry_point_runs_the_cli(self):
        # `python -m arq` runs `arq.__main__`, which exits with `main`'s code.
        src = str(Path(arq.harness.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "arq", "bounds", "--problem", "quadratic",
                               "--dim", "2"], capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert any(line.startswith("l_f = ") for line in proc.stdout.splitlines())

    @pytest.mark.parametrize("flag, value", [
        ("--theta", "2"), ("--sigma0", "inf"), ("--gamma3", "inf"), ("--acc-max", "inf"),
    ])
    def test_setting_outside_the_bound_intervals_exits_one_before_solving(
        self, flag, value, tmp_path, capsys
    ):
        # Before, each ran the whole solve and then failed in start_bounds.
        out = tmp_path / "run"
        assert main(["solve", "--problem", "quadratic", "--dim", "2", "--eps", "1e-2",
                     flag, value, "--out", str(out)]) == 1
        assert flag.lstrip("-").replace("-", "_") in capsys.readouterr().out
        assert not out.exists()

    def test_cli_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = quadratic\ndim = 4\neps = 0.9\n")
        out = tmp_path / "run"
        code = main([
            "solve", "--config", str(cfg), "--eps", "1e-3", "--noise", "exact",
            "--out", str(out),
        ])
        assert code == 0
        data = json.loads((out / "certificate.json").read_text())
        assert data["epsilons"] == [1e-3]

    def test_malformed_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("problem = quadratic\ndim = 4\neps = 0.001\neta2 = 1.2\n")
        assert main(["solve", "--config", str(cfg)]) == 1

    def test_inner_iteration_cap_is_not_a_setting(self, tmp_path, capsys):
        # The model minimizer's cap is a constant, not a run setting.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = rosenbrock\ndim = 2\nmax_inner_iters = 1\n")
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "unknown config key 'max_inner_iters'" in capsys.readouterr().err

    def test_inner_iteration_cap_is_not_a_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args(["solve", "--max-inner-iters", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-inner-iters 1" in capsys.readouterr().err

    def test_corrupted_certificate_exits_two(self, tmp_path):
        out = tmp_path / "run"
        main([
            "solve", "--problem", "quadratic", "--dim", "4", "--noise", "exact",
            "--eps", "1e-3", "--out", str(out),
        ])
        path = out / "certificate.json"
        data = json.loads(path.read_text())
        data["x_eps"] = [v + 1.0 for v in data["x_eps"]]
        path.write_text(json.dumps(data))
        assert main(["verify", "--cert", str(path)]) == 2

    @pytest.mark.parametrize("data, key", [
        ({}, "measured"),
        ({"measured": [{"delta": 1.0, "threshold": 0.1}]}, "order"),
    ])
    def test_certificate_missing_key_exits_one(self, data, key, tmp_path, capsys):
        path = tmp_path / "certificate.json"
        path.write_text(json.dumps(data))
        assert main(["verify", "--cert", str(path)]) == 1
        captured = capsys.readouterr()
        assert f"configuration error: certificate is missing the key '{key}'" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("key, value", [
        ("delta", math.inf), ("threshold", math.inf), ("delta", 0.0), ("threshold", math.nan),
    ])
    def test_certificate_radius_or_threshold_not_finite_and_positive_exits_one(
            self, key, value, tmp_path, capsys):
        # x = 0 is a maximum of quartic2 (H = -4 I): the order-2 measure at
        # radius 1 is 2.0, but an infinite radius once verified there with 0.
        entry = {"order": 2, "delta": 1.0, "threshold": 0.1, key: value}
        path = tmp_path / "certificate.json"
        path.write_text(json.dumps({
            "x_eps": [0.0, 0.0], "delta_eps": [1.0, 1.0], "problem": "quartic", "dim": 2,
            "measured": [{"order": 1, "delta": 1.0, "threshold": 0.1}, entry],
        }))
        assert main(["verify", "--cert", str(path)]) == 1
        captured = capsys.readouterr()
        assert (f"configuration error: certificate {key} must be finite and > 0, got {value!r}"
                in captured.err)
        assert "Traceback" not in captured.err

    def test_certificate_point_of_wrong_length_exits_one(self, tmp_path, capsys):
        path = tmp_path / "certificate.json"
        path.write_text(json.dumps({
            "x_eps": [1, 2, 3], "delta_eps": [1], "problem": "quadratic", "dim": 2,
            "measured": [{"order": 1, "delta": 1.0, "threshold": 0.1}],
        }))
        assert main(["verify", "--cert", str(path)]) == 1
        captured = capsys.readouterr()
        assert ("configuration error: certificate x_eps has 3 entries but dim is 2"
                in captured.err)

    def test_bounds_prints_report(self, capsys):
        code = main([
            "bounds", "--problem", "sineq", "--dim", "3", "--eps", "1e-2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sigma_max = " in out
        assert "n_derivative_evals = " in out

    # Each setting puts at least one bound constant outside float range.
    BEYOND_FLOAT_RANGE = [("--sigma-min", "1e-200"), ("--sigma-min", "5e-324"),
                          ("--acc-max", "1e300"), ("--gamma3", "1e300")]

    @pytest.mark.parametrize("flag, value", [*BEYOND_FLOAT_RANGE, ("--eps", "1e-200")])
    def test_bounds_prints_vacuous_constants_beyond_float_range(self, flag, value, capsys):
        assert main(["bounds", "--problem", "quadratic", "--dim", "2", "--eps", "1e-2",
                     flag, value]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "n_derivative_evals = inf" in lines or "kappa_acc = 0.0" in lines

    @pytest.mark.parametrize("flag, value", BEYOND_FLOAT_RANGE)
    def test_setting_beyond_float_range_keeps_the_certified_run_and_its_bounds(
        self, flag, value, tmp_path, capsys
    ):
        settings = ["--problem", "quadratic", "--dim", "2", "--eps", "1e-2", flag, value]
        assert main(["bounds", *settings]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "run"
        assert main(["solve", *settings, "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()
        assert json.loads((out / "certificate.json").read_text())["verified_exact"] == [True]
        assert (out / "bounds.txt").read_text() == printed

    @pytest.mark.parametrize("flag", ["--acc-max", "--gamma3"])
    def test_sweep_solves_every_row_of_a_setting_beyond_float_range(
        self, flag, monkeypatch, tmp_path
    ):
        reports = []

        def recording(*args):
            reports.append(compute_bounds(*args))
            return reports[-1]

        monkeypatch.setattr(arq.harness, "compute_bounds", recording)
        out = tmp_path / "sw"
        assert main(["sweep", "--problem", "quadratic", "--dim", "2",
                     "--eps", "1e-2,1e-3,1e-4", flag, "1e300", "--out", str(out)]) == 0
        rows = read_csv(out / "summary.csv")[1:]
        assert [row[2] for row in rows] == ["ok"] * 3
        assert len(reports) == 3  # one bound report per row, none before solving
        assert all(report.n_derivative_evals == math.inf for report in reports)

    def test_bounds_prints_the_bounds_file(self, tmp_path, capsys):
        settings = ["--problem", "sineq", "--dim", "4", "--q", "2", "--eps", "1e-3"]
        assert main(["bounds", *settings]) == 0
        printed = capsys.readouterr().out
        assert main(["solve", *settings, "--out", str(tmp_path)]) == 0
        assert printed == (tmp_path / "bounds.txt").read_text()

    def test_sweep_cli(self, tmp_path, capsys):
        out = tmp_path / "sw"
        code = main([
            "sweep", "--problem", "quadratic", "--dim", "3", "--noise",
            "bounded_random", "--seed", "5", "--eps", "1e-2,1e-3,1e-4",
            "--out", str(out),
        ])
        assert code == 0
        assert "slope log(value evals)" in capsys.readouterr().out
        assert (out / "summary.csv").exists()
