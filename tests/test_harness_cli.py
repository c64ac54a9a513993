import csv
import json

import numpy as np
import pytest

from arq.cli import main
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
from arq.oracle import make_problem
from arq.solver import Certificate

from conftest import polar_grid_phi


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
