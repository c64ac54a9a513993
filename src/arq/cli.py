"""Command-line entry points: solve, sweep, verify, bounds.

Exit codes: 0 success / certified, 1 configuration error, 2 budget
exhaustion or failed verification, 3 I/O failure.  Logging verbosity comes
from the ARQ_LOG environment variable (quiet, info, trace).
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .harness import (
    ExperimentSpec,
    build_config,
    certificate_from_json,
    parse_config_file,
    run_solve,
    run_sweep,
    start_bounds,
    verify_certificate,
)
from .oracle import NOISE_KINDS, PROBLEM_NAMES, make_problem
from .solver import ConfigError

logger = logging.getLogger("arq")

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "trace": logging.DEBUG}

_INT_KEYS = {"dim", "seed", "p", "q", "jobs", "runs", "max_iters", "max_inner_iters"}
_FLOAT_KEYS = {
    "fill_fraction", "sigma0", "sigma_min", "eta1", "eta2", "gamma1", "gamma2",
    "gamma3", "gamma_acc", "omega", "varsigma", "theta", "acc_max",
}
_LIST_KEYS = {"eps", "acc0", "delta0"}
_STR_KEYS = {"problem", "noise", "out"}
_SPEC_KEYS = {"problem", "dim", "noise", "seed", "eps", "p", "q", "out", "jobs",
              "runs", "fill_fraction"}


def _setup_logging():
    level = _LOG_LEVELS.get(os.environ.get("ARQ_LOG", "quiet"), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    logger.setLevel(level)


def _coerce(key: str, raw: str):
    if key in _INT_KEYS:
        return int(raw)
    if key in _FLOAT_KEYS:
        return float(raw)
    if key in _LIST_KEYS:
        return tuple(float(v) for v in raw.split(",") if v.strip())
    if key in _STR_KEYS:
        return raw
    raise ConfigError(f"unknown config key {key!r}")


def _eps_list(raw) -> tuple:
    if raw is None:
        return None
    if isinstance(raw, tuple):
        return raw
    return tuple(float(v) for v in str(raw).split(",") if v.strip())


def _build_spec(args) -> ExperimentSpec:
    merged = {}
    if getattr(args, "config", None):
        for key, raw in parse_config_file(args.config).items():
            merged[key] = _coerce(key, raw)
    for key in ("problem", "dim", "noise", "seed", "p", "q", "out", "jobs", "runs",
                "fill_fraction", "sigma0", "sigma_min", "eta1", "eta2", "gamma1",
                "gamma2", "gamma3", "gamma_acc", "omega", "varsigma", "theta",
                "acc_max", "acc0", "delta0", "max_iters", "max_inner_iters"):
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = _coerce(key, value) if isinstance(value, str) and key in (
                _LIST_KEYS | _INT_KEYS | _FLOAT_KEYS
            ) else value
    if getattr(args, "eps", None) is not None:
        merged["eps"] = _eps_list(args.eps)

    spec_kwargs = {k: v for k, v in merged.items() if k in _SPEC_KEYS}
    overrides = {k: v for k, v in merged.items() if k not in _SPEC_KEYS}
    if "out" in spec_kwargs and spec_kwargs["out"] is not None:
        spec_kwargs["out"] = Path(spec_kwargs["out"])
    spec = ExperimentSpec(**spec_kwargs)
    spec.overrides = overrides
    if spec.problem not in PROBLEM_NAMES:
        raise ConfigError(f"unknown problem {spec.problem!r}; choose from {PROBLEM_NAMES}")
    if spec.noise not in NOISE_KINDS:
        raise ConfigError(f"unknown noise {spec.noise!r}; choose from {NOISE_KINDS}")
    return spec


def _add_common(parser):
    parser.add_argument("--problem", help=f"one of {', '.join(PROBLEM_NAMES)}")
    parser.add_argument("--dim", type=int)
    parser.add_argument("--noise", help=f"one of {', '.join(NOISE_KINDS)}")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--eps", help="comma-separated accuracy targets")
    parser.add_argument("--p", type=int)
    parser.add_argument("--q", type=int)
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--jobs", type=int, help="parallel runs in sweeps")
    for key in sorted(_FLOAT_KEYS - {"fill_fraction"}):
        parser.add_argument(f"--{key}", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--fill-fraction", dest="fill_fraction", type=float,
                        help="fraction of the permitted error the noise uses")
    parser.add_argument("--acc0", help=argparse.SUPPRESS)
    parser.add_argument("--delta0", help=argparse.SUPPRESS)
    parser.add_argument("--max-iters", dest="max_iters", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--max-inner-iters", dest="max_inner_iters", type=int,
                        help=argparse.SUPPRESS)


def _print_solve_outcome(outcome) -> None:
    if outcome.exit_code != 0:
        print(f"error: {outcome.error}")
        return
    cert = outcome.certificate_json
    print("certificate")
    print(f"  x_eps        = {np.array2string(np.asarray(cert['x_eps']), precision=8)}")
    print(f"  delta_eps    = {np.array2string(np.asarray(cert['delta_eps']), precision=8)}")
    for entry, ver in zip(cert["measured"], outcome.verification):
        ok = {True: "ok", False: "FAILED", None: "unsupported"}[ver["ok"]]
        print(
            f"  order {entry['order']}: measured {entry['phi_bar']:.3e} "
            f"<= threshold {entry['threshold']:.3e}  exact-check: {ok}"
        )
    result = outcome.result
    print(
        f"  iterations   = {result.iterations} "
        f"(S/U/A = {sum(r.kind == 'successful' for r in result.trace)}/"
        f"{sum(r.kind == 'unsuccessful' for r in result.trace)}/"
        f"{sum(r.kind == 'accuracy_improving' for r in result.trace)})"
    )
    print(
        f"  evaluations  = {result.counters.value_evals} values, "
        f"{result.counters.derivative_evals} derivative bundles"
    )


def cmd_solve(args) -> int:
    spec = _build_spec(args)
    outcome = run_solve(spec)
    _print_solve_outcome(outcome)
    return outcome.exit_code


def cmd_sweep(args) -> int:
    spec = _build_spec(args)
    if getattr(args, "runs", None):
        spec.runs = args.runs
    summary = run_sweep(spec)
    for row in summary["rows"]:
        print(
            f"eps={row['eps_min']:g} seed={row['seed']} {row['status']}: "
            f"S/U/A={row['successful']}/{row['unsuccessful']}/{row['accuracy_improving']} "
            f"evals={row['value_evals']}/{row['deriv_evals']} "
            f"bounds ok={row['value_bound_ok']}/{row['deriv_bound_ok']}"
        )
    print(f"slope log(value evals) vs log(1/eps)      = {summary['slope_value']:.3f}")
    print(f"slope log(derivative evals) vs log(1/eps) = {summary['slope_deriv']:.3f}")
    return 0


def cmd_verify(args) -> int:
    data = json.loads(Path(args.cert).read_text())
    cert, name, dim = certificate_from_json(data)
    problem = make_problem(name, dim)
    results = verify_certificate(problem, cert)
    all_ok = True
    for res in results:
        if res["ok"] is None:
            print(f"order {res['order']}: unsupported at dim {dim} (not failed)")
            continue
        print(
            f"order {res['order']}: phi_exact={res['phi_exact']:.6e} "
            f"threshold={res['threshold']:.6e} ok={res['ok']}"
        )
        all_ok = all_ok and res["ok"]
    return 0 if all_ok else 2


def cmd_bounds(args) -> int:
    spec = _build_spec(args)
    report = start_bounds(spec.make_problem(), build_config(spec))
    for key, value in report.as_dict().items():
        print(f"{key} = {value}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arq",
        description="Adaptive tensor-regularization minimizer with demand-driven "
        "oracle accuracy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance")
    _add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="sweep accuracy targets")
    _add_common(p_sweep)
    p_sweep.add_argument("--runs", type=int, help="seeds per grid point")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="recheck a certificate exactly")
    p_verify.add_argument("--cert", required=True, help="certificate.json path")
    p_verify.set_defaults(func=cmd_verify)

    p_bounds = sub.add_parser("bounds", help="print the theoretical bound report")
    _add_common(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
