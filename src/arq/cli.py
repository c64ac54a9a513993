"""Command-line entry points: solve, sweep, verify, bounds.

Exit codes: 0 success / certified, 1 configuration error (a malformed
value included), 2 a stop without a certificate (budget, stall,
invariant or oracle; for sweep, in any of its rows), an oracle fault in
the Lipschitz estimate of a bound report, or failed verification, 3 I/O
failure.  Logging verbosity comes from the ARQ_LOG environment variable
(quiet, info, trace).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import typing
from pathlib import Path

import numpy as np

from .diagnostics import digits_demanded, value_digits_demanded
from .harness import (
    ExperimentSpec,
    bounds_text,
    build_config,
    certificate_from_json,
    parse_config_file,
    run_solve,
    run_sweep,
    start_bounds,
    verify_certificate,
)
from .oracle import NOISE_KINDS, PROBLEM_NAMES, OracleFaultError, make_problem
from .solver import ConfigError, SolverConfig, kind_counts

logger = logging.getLogger("arq")

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "trace": logging.DEBUG}


def _float_tuple(raw: str) -> tuple:
    return tuple(float(v) for v in raw.split(",") if v.strip())


_PARSERS = {int: int, float: float, str: str, Path: Path, tuple: _float_tuple}


def _settings(cls) -> dict:
    """Field name -> the type its text converts to, for each field of `cls`
    that has one (an optional field converts to its non-None type)."""
    hints = typing.get_type_hints(cls)
    out = {}
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        typ = next((t for t in typing.get_args(hint) if t is not type(None)), hint)
        if typ in _PARSERS:
            out[f.name] = typ
    return out


# Every run setting a flag or config-file line may give: the ExperimentSpec
# fields, then the SolverConfig fields the spec does not set itself
# (build_config takes p, q and, from `eps`, the epsilons).  Fields no text
# converts to (the in-code `overrides` and `x0`) are not settings.
_SPEC_SETTINGS = _settings(ExperimentSpec)
_SETTINGS = {**_SPEC_SETTINGS, **_settings(SolverConfig)}
del _SETTINGS["epsilons"]

_HELP = {
    "problem": f"one of {', '.join(PROBLEM_NAMES)}",
    "noise": f"one of {', '.join(NOISE_KINDS)}",
    "eps": "comma-separated accuracy targets",
    "out": "output directory",
    "jobs": "processes for sweep rows, this one included",
    "runs": "seeds per grid point",
    "fill_fraction": "fraction of the permitted error the noise uses",
}


def _setup_logging():
    level = _LOG_LEVELS.get(os.environ.get("ARQ_LOG", "quiet"), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    logger.setLevel(level)


def _coerce(key: str, raw: str):
    if key not in _SETTINGS:
        raise ConfigError(f"unknown config key {key!r}")
    return _PARSERS[_SETTINGS[key]](raw)


def _build_spec(args) -> ExperimentSpec:
    """Spec from the config file, then the flags over it; every value is
    converted to its field's type (a malformed one raises ValueError)."""
    merged = {}
    if getattr(args, "config", None):
        for key, raw in parse_config_file(args.config).items():
            merged[key] = _coerce(key, raw)
    for key in _SETTINGS:
        raw = getattr(args, key, None)
        if raw is not None:
            merged[key] = _coerce(key, raw)

    spec = ExperimentSpec(**{k: v for k, v in merged.items() if k in _SPEC_SETTINGS})
    spec.overrides = {k: v for k, v in merged.items() if k not in _SPEC_SETTINGS}
    if spec.problem not in PROBLEM_NAMES:
        raise ConfigError(f"unknown problem {spec.problem!r}; choose from {PROBLEM_NAMES}")
    if spec.noise not in NOISE_KINDS:
        raise ConfigError(f"unknown noise {spec.noise!r}; choose from {NOISE_KINDS}")
    return spec


def _add_settings(parser, keys) -> None:
    """One flag per setting, spelled both ``--snake_case`` and
    ``--kebab-case``; solver settings are hidden from the help.  Values stay
    text until `_build_spec` converts them."""
    for key in keys:
        kebab = f"--{key.replace('_', '-')}"
        flags = (kebab, f"--{key}") if "_" in key else (kebab,)
        help_text = _HELP.get(key) if key in _SPEC_SETTINGS else argparse.SUPPRESS
        parser.add_argument(*flags, dest=key, help=help_text)


# Settings only `sweep` reads; a config file may still hold them for any command.
_SWEEP_ONLY = ("jobs", "runs")


def _add_common(parser):
    _add_settings(parser, [key for key in _SETTINGS if key not in _SWEEP_ONLY])
    parser.add_argument("--config", help="flat key = value config file")


def _print_solve_outcome(outcome, spec: ExperimentSpec) -> None:
    if outcome.exit_code != 0:
        print(f"error: {outcome.error}")
        return
    result = outcome.result
    cert = result.certificate
    print("certificate")
    print(f"  x_eps        = {np.array2string(cert.x_eps, precision=8)}")
    print(f"  delta_eps    = {np.array2string(cert.delta_eps, precision=8)}")
    for entry, ver in zip(cert.measured, outcome.verification):
        ok = {True: "ok", False: "FAILED", None: "unsupported"}[ver["ok"]]
        print(
            f"  order {entry['order']}: measured {entry['phi_bar']:.3e} "
            f"<= threshold {entry['threshold']:.3e}  exact-check: {ok}"
        )
    print(
        f"  iterations   = {result.iterations} "
        f"(S/U/A = {'/'.join(map(str, kind_counts(result.trace).values()))})"
    )
    print(
        f"  evaluations  = {result.counters.value_evals} values, "
        f"{result.counters.derivative_evals} derivative bundles"
    )
    digits = digits_demanded(result.trace)
    if digits is None:
        print("  digits demanded = n/a (exact derivatives)")
    else:
        print(f"  digits demanded = {digits:.2f} per derivative bundle")
    value_digits = value_digits_demanded(result.trace, build_config(spec))
    if value_digits is None:
        print("  value digits demanded = n/a (no value requested)")
    else:
        print(f"  value digits demanded = {value_digits:.2f} per value")


def cmd_solve(args) -> int:
    spec = _build_spec(args)
    outcome = run_solve(spec)
    _print_solve_outcome(outcome, spec)
    return outcome.exit_code


def cmd_sweep(args) -> int:
    summary = run_sweep(_build_spec(args))
    for row in summary["rows"]:
        print(
            f"eps={row['eps_min']:g} seed={row['seed']} {row['status']}: "
            f"S/U/A={row['successful']}/{row['unsuccessful']}/{row['accuracy_improving']} "
            f"evals={row['value_evals']}/{row['deriv_evals']} "
            f"bounds ok={row['value_bound_ok']}/{row['deriv_bound_ok']}"
        )
    print(f"slope log(value evals) vs log(1/eps)      = {summary['slope_value']:.3f}")
    print(f"slope log(derivative evals) vs log(1/eps) = {summary['slope_deriv']:.3f}")
    return 0 if all(row["status"] == "ok" for row in summary["rows"]) else 2


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
    try:
        report = start_bounds(spec.make_problem(), build_config(spec))
    except OracleFaultError as exc:
        print(f"error: {exc.status}: {exc}")
        return 2
    print(bounds_text(report), end="")
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
    _add_settings(p_sweep, _SWEEP_ONLY)
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
