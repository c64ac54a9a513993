"""Experiment harness: single runs, accuracy sweeps, certificate checking.

The harness is the layer that talks to the file system and to ground truth:
it serializes traces to CSV, certificates to JSON, bound reports to flat
key = value text, and recomputes optimality measures with exact derivatives
to confirm that a returned certificate means what it claims.
"""
from __future__ import annotations

import csv
import json
import logging
import math
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diagnostics import compute_bounds, digits_demanded, value_digits_demanded
from .oracle import (
    NoiseModel,
    OracleFaultError,
    Problem,
    _fault,
    estimate_lipschitz,
    lipschitz_over_points,
    make_problem,
)
from .solver import (
    Certificate,
    ConfigError,
    SolveResult,
    SolverConfig,
    kind_counts,
    solve,
)
from .subsolvers import SolveStoppedError, solve_trs
from .tensors import _norm

logger = logging.getLogger("arq")

__all__ = [
    "ExperimentSpec",
    "RunOutcome",
    "expand_seeds",
    "build_config",
    "start_bounds",
    "run_solve",
    "run_sweep",
    "verify_certificate",
    "exact_phi",
    "visited_lipschitz",
    "write_trace_csv",
    "certificate_to_json",
    "parse_config_file",
    "TRACE_COLUMNS",
]

TRACE_COLUMNS = (
    "k",
    "kind",
    "j_k",
    "sigma",
    "rho",
    "step_norm",
    "delta_min_start",
    "delta_min_end",
    "acc_max",
    "f_bar",
    "value_evals_cum",
    "deriv_evals_cum",
    "cause",
    "cause_error_sum",
    "cause_threshold",
    "acc_steps",
    "inner_iterations",
    "halvings",
)

_MASK64 = (1 << 64) - 1


def expand_seeds(master: int, count: int) -> list:
    """Deterministic master-seed expansion (splitmix64 output stream)."""
    state = master & _MASK64
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


@dataclass
class ExperimentSpec:
    """One experiment: problem, noise, targets, overrides, output location."""

    problem: str = "quadratic"
    dim: int = 4
    noise: str = "exact"
    seed: int = 0
    eps: tuple = (1e-3,)
    p: int = 2
    q: int = 1
    overrides: dict = field(default_factory=dict)
    out: Path | None = None
    jobs: int = 1
    runs: int = 1
    fill_fraction: float = 0.9
    x0: object = None  # in-code start-point override

    def make_problem(self) -> Problem:
        return make_problem(self.problem, self.dim)


def build_config(spec: ExperimentSpec, epsilons=None) -> SolverConfig:
    """Solver configuration for a spec; exact noise defaults to exact demands."""
    eps = tuple(spec.eps) if epsilons is None else tuple(epsilons)
    if len(eps) == 1 and spec.q > 1:
        eps = eps * spec.q
    kwargs = dict(p=spec.p, q=spec.q, epsilons=eps)
    if spec.noise == "exact":
        kwargs["acc0"] = (0.0,) * spec.p
        kwargs["acc_max"] = 0.0
    kwargs.update(spec.overrides)
    return SolverConfig(**kwargs)


# ---------------------------------------------------------------------------
# Ground-truth measures.
# ---------------------------------------------------------------------------


def _sphere_grid(n: int, count: int) -> np.ndarray:
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        ang = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    # Fibonacci sphere for n == 3.
    k = np.arange(count) + 0.5
    phi = np.arccos(1.0 - 2.0 * k / count)
    theta = math.pi * (1.0 + math.sqrt(5.0)) * k
    return np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=1
    )


def exact_phi(problem: Problem, x, j: int, delta: float) -> float:
    """Ball optimality measure of order j at x, from exact derivatives.

    Closed form for j = 1, global trust-region solve for j = 2, polar-grid
    brute force for j = 3 (supported for dim <= 3 only).  The order-2
    recheck is not independent of the solver: it calls the same
    `solve_trs` that step 1 and step 2 use, so a fault in that kernel
    would pass its own recheck.  Only the derivatives differ (exact here,
    inexact in the run).
    """
    x = np.asarray(x, dtype=float)
    if j == 1:
        return delta * _norm(problem.derivative(x, 1))
    if j == 2:
        g = problem.derivative(x, 1)
        h = problem.derivative(x, 2)
        d = solve_trs(g, h, delta)
        return max(0.0, -(float(g @ d) + 0.5 * float(d @ h @ d)))
    if j == 3:
        if problem.dim > 3:
            raise NotImplementedError("order-3 exact measure supported for dim <= 3")
        g = problem.derivative(x, 1)
        h = problem.derivative(x, 2)
        t = problem.derivative(x, 3)
        n = problem.dim
        dirs = _sphere_grid(n, 4000 if n == 3 else 2000)
        # Along direction u the decrement at radius r is
        # -(r g.u + r^2/2 u'Hu + r^3/6 T[u,u,u]): three numbers per direction.
        a1 = dirs @ g
        a2 = np.einsum("ai,ai->a", dirs @ h, dirs)
        tu = (dirs @ t.reshape(n, n * n)).reshape(-1, n, n)
        a3 = np.einsum("aj,aj->a", np.einsum("ajk,ak->aj", tu, dirs), dirs)

        def decrements(radii):  # radius-major: index // len(dirs) is the radius
            r = radii[:, None]
            return (-(r * a1 + r**2 / 2 * a2 + r**3 / 6 * a3)).ravel()

        n_radius = 64
        lo, hi = delta / n_radius, delta
        best, best_r = 0.0, delta
        for _ in range(3):  # radial refinement resolves interior maximizers
            radii = np.linspace(lo, hi, n_radius)
            dec = decrements(radii)
            idx = int(np.argmax(dec))
            if float(dec[idx]) > best:
                best = float(dec[idx])
                best_r = radii[idx // dirs.shape[0]]
            step = (hi - lo) / (n_radius - 1)
            lo, hi = max(1e-12, best_r - step), min(delta, best_r + step)
        return best
    raise ValueError(f"unsupported order {j}")


def verify_certificate(problem: Problem, certificate: Certificate) -> list:
    """Recheck a certificate against the exact oracle, order by order.

    Returns the recheck's only record, one dict per order: ``order``, the
    recomputed measure ``phi_exact``, the ``threshold`` and an ``ok`` flag.
    An order whose exact measure is not computable at this dimension has
    ``phi_exact`` and ``ok`` None and ``note`` "unsupported", rather than
    failing.  The certificate is not modified.
    """
    results = []
    for entry in certificate.measured:
        j = entry["order"]
        delta_j = entry["delta"]
        threshold = entry["threshold"]
        try:
            phi = exact_phi(problem, certificate.x_eps, j, delta_j)
        except NotImplementedError:
            results.append(
                {"order": j, "phi_exact": None, "threshold": threshold, "ok": None,
                 "note": "unsupported"}
            )
            continue
        results.append(
            {"order": j, "phi_exact": phi, "threshold": threshold, "ok": bool(phi <= threshold)}
        )
    return results


# Fractions t of a trial step s at which `visited_lipschitz` samples x + t s.
_SEGMENT = np.array([0.25, 0.5, 0.75, 1.0])


def visited_lipschitz(problem: Problem, trace, order: int) -> float:
    """Order-`order` Lipschitz estimate over the region a run visited
    (`lipschitz_over_points`; the problem's start point for an empty trace).

    Covers the iterates plus the trial segments, x + t s at t = 1/4, 1/2,
    3/4 and 1 for every record with a step (rejected trials included), in
    trace order: the region where the theory needs the constant to hold.
    The points are formed as one array, each x + t s with the arithmetic of
    one point at a time.
    """
    if not trace:
        return lipschitz_over_points(problem, [problem.x0], order)
    xs = np.array([rec.x for rec in trace])
    stepped = np.array([rec.step is not None for rec in trace])
    steps = np.array([np.zeros_like(rec.x) if rec.step is None else rec.step for rec in trace])
    segments = xs[:, None, :] + _SEGMENT[:, None] * steps[:, None, :]
    points = np.concatenate([xs[:, None, :], segments], axis=1)
    keep = np.ones(points.shape[:2], dtype=bool)
    keep[~stepped, 1:] = False  # a record without a step adds its x only
    return lipschitz_over_points(problem, points[keep], order)


# ---------------------------------------------------------------------------
# File formats.
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_trace_csv(path: Path, trace) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    v_cum = 0
    d_cum = 0
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for rec in trace:
            v_cum += rec.value_evals
            d_cum += rec.derivative_evals
            cause = rec.cause
            writer.writerow(
                [
                    rec.k,
                    _fmt(rec.kind),
                    _fmt(rec.j_k),
                    _fmt(rec.sigma),
                    _fmt(rec.rho),
                    _fmt(rec.step_norm),
                    _fmt(float(np.min(rec.delta_start))),
                    _fmt(float(np.min(rec.delta_end))),
                    _fmt(float(np.max(rec.acc)) if rec.acc.size else 0.0),
                    _fmt(rec.f_bar_after),
                    v_cum,
                    d_cum,
                    _fmt(cause and cause.cause),
                    _fmt(cause and cause.error_sum),
                    _fmt(cause and cause.threshold),
                    _fmt(rec.acc_steps),
                    _fmt(rec.inner_iterations),
                    rec.halvings,
                ]
            )


def certificate_to_json(
    certificate: Certificate, verification: list, spec: ExperimentSpec, config: SolverConfig
) -> dict:
    """The certificate with its `verify_certificate` record, written as the
    per-order flags ``verified_exact`` and measures ``verified_phi``."""
    return {
        "problem": spec.problem,
        "dim": spec.dim,
        "p": config.p,
        "q": config.q,
        "epsilons": list(config.epsilons),
        "x_eps": [float(v) for v in certificate.x_eps],
        "delta_eps": [float(v) for v in certificate.delta_eps],
        "measured": [
            {k: (float(v) if isinstance(v, (int, float)) and k != "order" else v)
             for k, v in entry.items()}
            for entry in certificate.measured
        ],
        "verified_exact": [r["ok"] for r in verification],
        "verified_phi": [r["phi_exact"] for r in verification],
    }


def certificate_from_json(data: dict) -> tuple:
    """(certificate, problem name, dim); a missing key, or an ``x_eps``
    whose length is not ``dim``, is a `ConfigError`.  The stored
    verification is not read: `verify_certificate` recomputes it."""
    try:
        measured = tuple(data["measured"])
        for entry in measured:
            for key in ("order", "delta", "threshold"):  # read by verify_certificate
                if key not in entry:
                    raise KeyError(key)
        cert = Certificate(
            x_eps=np.asarray(data["x_eps"], dtype=float),
            delta_eps=np.asarray(data["delta_eps"], dtype=float),
            measured=measured,
        )
        name, dim = data["problem"], int(data["dim"])
    except KeyError as exc:
        raise ConfigError(f"certificate is missing the key {exc.args[0]!r}") from None
    if cert.x_eps.shape != (dim,):
        raise ConfigError(
            f"certificate x_eps has {cert.x_eps.size} entries but dim is {dim}"
        )
    return cert, name, dim


def parse_config_file(path) -> dict:
    """Flat ``key = value`` pairs, one per line, # starts a comment."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def bounds_text(report) -> str:
    """The bound report as flat ``key = value`` lines: the text of
    ``bounds.txt`` and of ``arq bounds``."""
    return "".join(f"{k} = {_fmt(v)}\n" for k, v in report.as_dict().items())


# ---------------------------------------------------------------------------
# Run drivers.
# ---------------------------------------------------------------------------


@dataclass
class RunOutcome:
    exit_code: int
    result: SolveResult | None = None
    error: str | None = None
    verification: list | None = None
    bounds: dict | None = None


def _bound_report(problem: Problem, config: SolverConfig, l_hat: float, x):
    """`compute_bounds` at the Lipschitz estimate `l_hat` and the gap
    f(x) - f_low, floored at 0.  A non-finite f(x) raises `OracleFaultError`
    (order 0), so that it is not read as a gap of 0."""
    x = np.asarray(x, dtype=float)
    f = problem.value(x)
    if not math.isfinite(f):
        raise OracleFaultError(_fault(problem, x, 0, np.asarray(f)))
    return compute_bounds(config, l_hat, max(0.0, f - problem.f_low))


def start_bounds(problem: Problem, config: SolverConfig, x0=None):
    """Theoretical bound report with L and f0 - f_low taken at the start
    point, `x0` or the problem's own (`estimate_lipschitz` floors its
    estimate at 1); an oracle fault in either raises `OracleFaultError`."""
    start = problem.x0 if x0 is None else np.asarray(x0, dtype=float)
    return _bound_report(problem, config, estimate_lipschitz(problem, start, config.p), start)


def run_solve(spec: ExperimentSpec) -> RunOutcome:
    """Solve one instance; write trace/certificate/bounds when `out` is set.
    A certified run gets its bound report (see `BoundReport`) unless the
    Lipschitz estimate or f(x0) behind it meets an `OracleFaultError`: the
    run then exits 2 with the fault, its trace and certificate written, and
    no ``bounds.txt``."""
    try:
        problem = spec.make_problem()
        config = build_config(spec)
        noise = NoiseModel(spec.noise, spec.fill_fraction, spec.seed)
    except (ConfigError, ValueError, TypeError) as exc:
        logger.error("configuration rejected: %s", exc)
        return RunOutcome(1, error=str(exc))
    try:
        result = solve(problem, noise, config, x0=spec.x0)
    except ConfigError as exc:  # a bad start point, or p above the problem's orders
        logger.error("configuration rejected: %s", exc)
        return RunOutcome(1, error=str(exc))
    except SolveStoppedError as exc:
        logger.error("stopped without a certificate (%s): %s", exc.status, exc)
        if spec.out is not None:
            write_trace_csv(Path(spec.out) / "trace.csv", exc.trace)
        return RunOutcome(2, error=f"{exc.status}: {exc}")

    verification = verify_certificate(problem, result.certificate)
    if spec.out is not None:
        cert_json = certificate_to_json(result.certificate, verification, spec, config)
        write_trace_csv(Path(spec.out) / "trace.csv", result.trace)
        (Path(spec.out) / "certificate.json").write_text(json.dumps(cert_json, indent=2) + "\n")
    try:
        report = start_bounds(problem, config, spec.x0)
    except OracleFaultError as exc:
        logger.error("certified, but no bound report (%s): %s", exc.status, exc)
        return RunOutcome(2, result=result, error=f"{exc.status}: {exc}",
                          verification=verification)
    if spec.out is not None:
        (Path(spec.out) / "bounds.txt").write_text(bounds_text(report))
    return RunOutcome(0, result=result, verification=verification, bounds=report.as_dict())


SWEEP_COLUMNS = (
    "eps_min",
    "seed",
    "status",
    "iterations",
    "successful",
    "unsuccessful",
    "accuracy_improving",
    "value_evals",
    "deriv_evals",
    "digits_demanded",
    "value_digits_demanded",
    "l_visited",
    "bound_value_evals",
    "bound_deriv_evals",
    "value_bound_ok",
    "deriv_bound_ok",
)


def _sweep_one(spec: ExperimentSpec, eps_min: float, seed: int) -> dict:
    row = {"eps_min": eps_min, "seed": seed}
    problem = spec.make_problem()
    config = build_config(spec, (eps_min,) * spec.q)
    noise = NoiseModel(spec.noise, spec.fill_fraction, seed)
    try:
        result = solve(problem, noise, config, x0=spec.x0)
        trace = result.trace
        counters = result.counters
        row["status"] = "ok"
    except SolveStoppedError as exc:
        trace = exc.trace
        counters = exc.counters
        row["status"] = exc.status
    row["iterations"] = len(trace)
    row.update(kind_counts(trace))  # the KIND_* values name the columns
    row["value_evals"] = counters.value_evals
    row["deriv_evals"] = counters.derivative_evals
    row["digits_demanded"] = digits_demanded(trace)
    row["value_digits_demanded"] = value_digits_demanded(trace, config)
    try:
        l_visited = visited_lipschitz(problem, trace, config.p)
        report = _bound_report(problem, config, l_visited, trace[0].x)
    except OracleFaultError as exc:
        row["status"] = exc.status
        row.update(dict.fromkeys(SWEEP_COLUMNS[SWEEP_COLUMNS.index("l_visited"):]))
        return row
    row["l_visited"] = l_visited
    row["bound_value_evals"] = report.n_value_evals
    row["bound_deriv_evals"] = report.n_derivative_evals
    row["value_bound_ok"] = counters.value_evals <= report.n_value_evals
    row["deriv_bound_ok"] = counters.derivative_evals <= report.n_derivative_evals
    return row


def _sweep_worker(spec: ExperimentSpec, epsilons, seeds, conn) -> None:
    """A sweep worker process: sends (True, its rows) or (False, the
    exception that stopped them) down `conn`."""
    try:
        reply = (True, [_sweep_one(spec, e, s) for e, s in zip(epsilons, seeds)])
    except Exception as exc:  # re-raised by `_sweep_rows`
        reply = (False, exc)
    conn.send(reply)
    conn.close()


def _sweep_rows(spec: ExperimentSpec, epsilons, seeds, jobs: int) -> list:
    """The rows in `jobs` interleaved shares: share 0 in this process, each
    other share in a worker process (`_sweep_worker`).  Processes, because
    the rows are Python-bound: two threads took turns on one GIL and ran
    slower than one.  A worker's exception is raised here, once the other
    workers are stopped.

    A forked worker and its pipe start in ~1 ms, where a
    `ProcessPoolExecutor` took ~6 ms.  Fork is unsafe beside other threads
    and on macOS, so elsewhere the workers are spawned, each importing arq
    afresh (~0.5 s).
    """
    if jobs > 1:  # imported here: ~10 ms of start-up that serial sweeps skip
        import multiprocessing

        fork = sys.platform == "linux" and threading.active_count() == 1
        context = multiprocessing.get_context("fork" if fork else "spawn")
    rows = [None] * len(epsilons)
    workers = []
    try:
        for k in range(1, jobs):
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(target=_sweep_worker, daemon=True,
                                      args=(spec, epsilons[k::jobs], seeds[k::jobs], sender))
            process.start()
            sender.close()
            workers.append((process, receiver))
        rows[::jobs] = [_sweep_one(spec, e, s) for e, s in zip(epsilons[::jobs], seeds[::jobs])]
        for k, (_, receiver) in enumerate(workers, 1):
            ok, value = receiver.recv()
            if not ok:
                raise value
            rows[k::jobs] = value
    except BaseException:
        for process, _ in workers:
            process.terminate()
        raise
    finally:
        for process, receiver in workers:
            receiver.close()
            process.join()
    return rows


def run_sweep(spec: ExperimentSpec) -> dict:
    """Run the accuracy sweep over the epsilons of `spec.eps` in `spec.jobs`
    processes, this one included (`_sweep_rows`); one row per (epsilon,
    seed), in the order of `spec.eps`.

    A row's ``status`` is ``ok`` for a certified run, else the
    `SolveStoppedError` status that stopped it.  Every row, whatever its
    status, carries the `BoundReport` evaluation counts at its
    ``l_visited``, unless that estimate or f at the start point meets an
    `OracleFaultError`: the row's status is then ``oracle`` and
    ``l_visited`` and the columns after it are None.  ``l_visited`` is
    `visited_lipschitz` at order p only, not the maximum over orders 0..p
    that `compute_bounds` takes its ``l_f`` to be, so it can understate
    that bound and the counts with it (ROADMAP item 7).  Returns
    ``{"rows": [...], "slope_value": s1, "slope_deriv": s2}`` and writes
    ``summary.csv`` when the spec has an output directory.
    """
    grid = tuple(float(e) for e in spec.eps)
    if len(grid) < 3:
        raise ValueError("sweep grid needs at least 3 epsilon values")
    if any(not 0.0 < e < 1.0 for e in grid):
        raise ValueError(f"sweep grid entries must lie in (0, 1), got {grid}")
    if spec.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {spec.jobs}")
    if spec.runs < 1:
        raise ValueError(f"runs must be >= 1, got {spec.runs}")
    epsilons = [eps for eps in grid for _ in range(spec.runs)]
    seeds = [seed % 2**32 for seed in expand_seeds(spec.seed, len(epsilons))]
    rows = _sweep_rows(spec, epsilons, seeds, min(spec.jobs, len(epsilons)))

    ok_rows = [r for r in rows if r["status"] == "ok"]
    slope_value = slope_deriv = float("nan")
    if len({r["eps_min"] for r in ok_rows}) >= 2:
        lx = np.log([1.0 / r["eps_min"] for r in ok_rows])
        slope_value = float(np.polyfit(lx, np.log([r["value_evals"] for r in ok_rows]), 1)[0])
        slope_deriv = float(np.polyfit(lx, np.log([r["deriv_evals"] for r in ok_rows]), 1)[0])

    if spec.out is not None:
        out = Path(spec.out)
        out.mkdir(parents=True, exist_ok=True)
        with (out / "summary.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SWEEP_COLUMNS)
            for row in rows:
                writer.writerow([_fmt(row[c]) for c in SWEEP_COLUMNS])
            fh.write(f"# slope_value_evals = {slope_value}\n")
            fh.write(f"# slope_deriv_evals = {slope_deriv}\n")
    return {"rows": rows, "slope_value": slope_value, "slope_deriv": slope_deriv}
