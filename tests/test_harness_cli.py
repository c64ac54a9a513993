import csv
import json
from pathlib import Path

import numpy as np
import pytest

import arq.harness
import arq.solver
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

    @pytest.mark.parametrize("field", ["jobs", "runs"])
    def test_jobs_below_one_rejected(self, field):
        spec = ExperimentSpec(problem="quadratic", dim=2, eps=(1e-2, 1e-3, 1e-4), **{field: 0})
        with pytest.raises(ValueError):
            run_sweep(spec)
        assert main(["sweep", "--problem", "quadratic", "--eps", "1e-2,1e-3,1e-4",
                     f"--{field}", "0"]) == 1


@pytest.fixture(params=["stall", "invariant"])
def forced_stop(request, monkeypatch):
    """(status, spec fields, CLI flags) of a run that stops without a certificate."""
    if request.param == "stall":
        fields = dict(problem="rosenbrock", dim=2, noise="bounded_random", seed=3,
                      eps=(1e-3,), overrides={"max_inner_iters": 1})
        flags = ["--problem", "rosenbrock", "--dim", "2", "--noise", "bounded_random",
                 "--seed", "3", "--eps", "1e-3", "--max-inner-iters", "1"]
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

    def test_cli_stall_message_carries_its_numbers(self, capsys):
        flags = ["--problem", "rosenbrock", "--dim", "2", "--noise", "bounded_random",
                 "--seed", "3", "--eps", "1e-3", "--max-inner-iters", "1"]
        assert main(["solve", *flags]) == 2
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

    def test_inner_iteration_cap_below_one_exits_one(self):
        assert main(["solve", "--problem", "rosenbrock", "--dim", "2", "--noise",
                     "bounded_random", "--seed", "3", "--eps", "1e-3",
                     "--max-inner-iters", "0"]) == 1

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
