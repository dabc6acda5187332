"""Command line interface.

Four subcommands:

    solve      integrate the Riccati system, write phi/gain tables and values
    simulate   cross-check the optimal law: cost oracle vs Monte Carlo
    verify     run the full check battery for a problem; exit 1 on any failure
    report     merge manifests from earlier runs into one table

solve, simulate and verify read their target through one resolver; verify
runs one battery for every problem kind: assumptions, the solve and
terminal-exactness, then the kind's own checks.

Every command writes a manifest.json describing inputs and outputs.  Outputs
contain no timestamps: rerunning a command with the same arguments reproduces
the same bytes.

Exit codes: 0 ok, 1 failed check, 2 bad argument, 3 config parse error,
4 violated model assumption, 5 finite escape or diverged simulation, 6 I/O.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import load_config
from .control import (law_to_csv, optimal_feedback, residual_sweep,
                      residual_to_csv)
from .errors import (AssumptionError, ConfigError, DomainError,
                     FiniteEscapeError, SimulationDivergedError)
from .model import (MatrixProblemSpec, MeasureMoments, validate_matrix_spec,
                    validate_spec)
from .partial_obs import (Reduction, cost_decomposition_check,
                          partial_trajectory_to_csv)
from .presets import PRESET_NAMES, preset
from .riccati import (closed_form, matrix_solution_to_csv, solution_to_csv,
                      solve_matrix_riccati, solve_riccati)
from .simulate import (CloudTrajectory, CostReport, SimConfig,
                       cost_coefficients, cost_from_cloud, evolve_cloud,
                       gaussianity_check, mc_tolerance, stream_layout,
                       trajectory_to_csv)

__all__ = ["RunManifest", "main", "build_parser",
           "cmd_solve", "cmd_simulate", "cmd_verify", "cmd_report"]


@dataclass(frozen=True)
class RunManifest:
    """What a CLI run consumed and produced, as written to manifest.json."""

    command: str
    source: str
    params: dict
    outputs: dict
    version: str = __version__

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True,
                      allow_nan=False)
            fh.write("\n")

    @staticmethod
    def read(path) -> "RunManifest":
        with open(path, "r") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict) or not {"command", "source"} <= raw.keys():
            raise OSError(f"{path}: not a run manifest (needs command and source)")
        return RunManifest(command=raw["command"], source=raw["source"],
                           params=raw.get("params", {}),
                           outputs=raw.get("outputs", {}),
                           version=raw.get("version", "unknown"))


class _Parser(argparse.ArgumentParser):
    # Match the one-line error contract instead of argparse's usage dump.
    def error(self, message):
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mflqg",
                     description="Mean-field LQG: Riccati solve, feedback synthesis, "
                                 "and Monte Carlo verification")
    parser.add_argument("--version", action="version", version=f"mflqg {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, func, what in (
            ("solve", cmd_solve, "integrate the Riccati system"),
            ("simulate", cmd_simulate, "compare the cost oracle with Monte Carlo"),
            ("verify", cmd_verify, "run the full check battery")):
        sub = subs.add_parser(name, help=what)
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument("--preset", choices=PRESET_NAMES,
                           help="built-in worked example")
        group.add_argument("--config", help="path to an INI problem configuration")
        sub.add_argument("--steps", type=int, default=None,
                         help="Riccati/oracle grid intervals (default: 1000 per unit horizon)")
        sub.add_argument("--x", action="append", default=None,
                         help="initial state (repeatable; comma-separated for matrix problems)")
        sub.add_argument("--out", default=".", help="output directory (default: current)")
        if name != "solve":
            sub.add_argument("--paths", type=int, default=None,
                             help=f"Monte Carlo particles (default {SimConfig.n_paths})")
            sub.add_argument("--dt", type=float, default=None,
                             help=f"Euler-Maruyama step (default {SimConfig.dt})")
            sub.add_argument("--seed", type=int, default=None,
                             help=f"random seed (default {SimConfig.seed})")
        sub.set_defaults(func=func)

    p_rep = subs.add_parser("report", help="merge run manifests into one table")
    p_rep.add_argument("manifests", nargs="+", help="manifest.json files from earlier runs")
    p_rep.add_argument("--out", default=".", help="output directory (default: current)")
    p_rep.set_defaults(func=cmd_report)
    return parser


def _resolve(args):
    """The target of solve, simulate or verify: (spec, source label, sim,
    scalar view, initial states, grid steps).  Arguments are checked in the
    order problem (--preset or --config), output directory, Monte Carlo
    settings, problem kind, --x.

    sim is SimConfig's defaults overridden by the config file, then by
    flags (None for solve).  The scalar view is spec's Reduction, None for
    a matrix problem.  The states are each --x as d comma-separated numbers
    (floats for a scalar view), each with a finite square, since every cost
    reads it; without --x, a partially observed spec's x, else 1 (ones for
    a matrix problem).  The first one is simulated.  steps is --steps, or
    1000 per unit of the horizon the Riccati system is solved on (T - s for
    a partially observed problem).
    """
    if args.preset is not None:
        spec, source, config_sim = preset(args.preset), f"preset:{args.preset}", None
    else:
        resolved = load_config(args.config)
        spec, source = resolved.the_problem(), f"config:{args.config}"
        config_sim = resolved.simulation
    _ensure_outdir(args.out)
    sim = None
    if args.command != "solve":
        given = {"n_paths": args.paths, "dt": args.dt, "seed": args.seed}
        sim = dataclasses.replace(config_sim or SimConfig(),
                                  **{k: v for k, v in given.items() if v is not None})
    if isinstance(spec, MatrixProblemSpec):
        if args.command == "simulate":
            raise DomainError("simulate supports scalar and partial_obs problems")
        red, d, default, horizon = None, spec.d, np.ones(spec.d), spec.T
    else:
        red = Reduction.of(spec)
        d, horizon = 1, red.problem.T
        default = 1.0 if red.partial is None else spec.x
    xs = []
    for s in args.x or ():
        try:
            vec = np.array([float(tok) for tok in s.split(",")])
        except ValueError as exc:
            raise DomainError(f"--x expects comma-separated numbers, got {s!r}") from exc
        if vec.size != d:
            raise DomainError(f"--x {s!r} has {vec.size} entries, expected {d}")
        if not all(math.isfinite(v * v) for v in vec.tolist()):
            raise DomainError(f"--x expects numbers with a finite square, got {s!r}")
        xs.append(vec if red is None else float(vec[0]))
    steps = args.steps if args.steps is not None else max(10, int(round(1000.0 * horizon)))
    return spec, source, sim, red, xs or [default], steps


def _solve(spec, red, steps: int):
    """Validate the problem whose Riccati system a kind solves (a matrix
    spec, or the scalar view's problem) and, if it holds, solve that system
    on `steps` intervals: (validation result, solution or None)."""
    if red is None:
        result = validate_matrix_spec(spec)
        return result, solve_matrix_riccati(spec, steps) if result.ok else None
    result = validate_spec(red.problem)
    return result, solve_riccati(red.problem, steps) if result.ok else None


def _ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


@dataclass
class _Check:
    name: str
    passed: bool
    measured: float | None  # None: the check stopped before measuring
    threshold: float
    detail: str


@dataclass(frozen=True, eq=False)
class _MonteCarlo:
    """One seeded particle run and its verdict against the oracle."""

    cloud: CloudTrajectory   # the controlled (prediction) process
    err: np.ndarray | float  # E_T per path, 0.0 when fully observed
    mc: CostReport           # cost of the full state cloud.states + err
    oracle: CostReport
    check: _Check         # mc-vs-oracle


def _monte_carlo(red: Reduction, law, sim: SimConfig, x0: float,
                 oracle: CostReport) -> _MonteCarlo:
    """Run the particles from x0, estimate the full-state cost and compare it
    with `oracle`, the law's oracle cost from x0: simulate's
    within_threshold is verify's mc-vs-oracle check.  A statistic that
    overflows is a diverged simulation: an infinite band cannot fail."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        cloud = evolve_cloud(red.problem, law, red.initial(x0), sim)
        err = red.error(sim)
        mc = cost_from_cloud(red.problem, cloud.states + err, cloud.run_costs)
    for name, value in (("total", mc.total), ("std_error", mc.std_error)):
        if not math.isfinite(value):
            raise SimulationDivergedError(
                f"Monte Carlo {name} from x = {x0!r} is {value}, not finite")
    gap = abs(mc.total - oracle.total)
    tol = mc_tolerance(mc.std_error, sim.dt)
    check = _Check("mc-vs-oracle", gap <= tol, gap, tol,
                   f"|MC - oracle| = {gap:.3e}, band {tol:.3e}")
    return _MonteCarlo(cloud, err, mc, oracle, check)


# ---------------------------------------------------------------------------
# solve

def cmd_solve(args) -> int:
    spec, source, _, red, xs, steps = _resolve(args)
    result, sol = _solve(spec, red, steps)
    if sol is None:
        raise AssumptionError(result.message)
    phi = os.path.join(args.out, "phi.csv")
    outputs = {"phi": "phi.csv", "summary": "summary.json"}
    summary: dict = {"source": source, "T": spec.T, "steps": steps}
    if red is None:
        matrix_solution_to_csv(sol, phi)
        p1, p2, p3 = sol.at(0.0)
        values = [{"x": [float(v) for v in vec],
                   "value": float(vec @ p1 @ vec + vec @ p2 @ vec + p3)}
                  for vec in xs]
        summary.update(kind="matrix", d=spec.d)
    else:
        solution_to_csv(sol, phi)
        law_to_csv(optimal_feedback(red.problem, sol),
                   os.path.join(args.out, "gains.csv"))
        outputs["gains"] = "gains.csv"
        values = [{"x": x, "value": red.value(sol, x)} for x in xs]
        summary["kind"] = red.kind
        if red.partial is not None:
            summary.update(s=spec.s, error_compensation=red.comp)

    summary["values"] = values
    _write_json(os.path.join(args.out, "summary.json"), summary)
    RunManifest(command="solve", source=source,
                params={"steps": steps, "x": values[0]["x"]},
                outputs=outputs).write(os.path.join(args.out, "manifest.json"))
    return 0


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    spec, source, sim, red, xs, steps = _resolve(args)
    x0 = xs[0]
    result, sol = _solve(spec, red, steps)
    if sol is None:
        raise AssumptionError(result.message)
    law = optimal_feedback(red.problem, sol)
    coefs, = cost_coefficients(red.problem, [law], steps)
    run = _monte_carlo(red, law, sim, x0, red.oracle(coefs, x0))
    summary = {"source": source, "x": x0, "steps": steps,
               "n_paths": sim.n_paths, "dt": sim.dt, "seed": sim.seed,
               "mc": dataclasses.asdict(run.mc), "kind": red.kind,
               "oracle": dataclasses.asdict(run.oracle),
               "discrepancy": run.check.measured,
               "threshold": run.check.threshold,
               "within_threshold": run.check.passed}
    path = os.path.join(args.out, "trajectory.csv")
    if red.partial is None:
        trajectory_to_csv(run.cloud, path)
    else:
        partial_trajectory_to_csv(red.partial, run.cloud, path)
        summary["error_compensation"] = red.comp
    _write_json(os.path.join(args.out, "summary.json"), summary)
    RunManifest(command="simulate", source=source,
                params={"steps": steps, "n_paths": sim.n_paths, "dt": sim.dt,
                        "seed": sim.seed, **stream_layout(sim.n_paths)},
                outputs={"trajectory": "trajectory.csv",
                         "summary": "summary.json"},
                ).write(os.path.join(args.out, "manifest.json"))
    return 0


# ---------------------------------------------------------------------------
# verify

def _random_measures(rng, count: int):
    m1 = rng.uniform(-1.0, 1.0, count)
    extra = rng.uniform(0.0, 0.25, count)
    return [MeasureMoments(float(a), float(a * a + b)) for a, b in zip(m1, extra)]


def _terminal_entry(defects) -> _Check:
    """phi(T) must equal (D1, D2, 0) exactly; defects are phi(T) minus that,
    and a NaN among them makes the gap NaN and fails the check."""
    gap = float(np.max([np.abs(d).max() for d in defects]))
    return _Check("terminal-exactness", gap == 0.0, gap, 0.0,
                  f"max |phi(T) - (D1, D2, 0)| = {gap:.3e}, must be exact")


def _gaussianity_entry(states) -> _Check:
    gauss = gaussianity_check(states)
    if gauss.degenerate:
        return _Check("gaussianity", True, gauss.variance, gauss.variance_floor,
                      f"degenerate cloud: variance {gauss.variance:.3e} below "
                      f"{gauss.variance_floor:.3e}")
    stats = [(abs(gauss.skewness), 0.05), (abs(gauss.excess_kurtosis), 0.1)]
    # The statistic that fails its band if one does, else the nearer one.
    measured, threshold = max(stats, key=lambda p: (p[0] >= p[1], p[0] / p[1]))
    return _Check("gaussianity", measured < threshold, measured, threshold,
                  f"skew {gauss.skewness:.4f}, excess kurtosis "
                  f"{gauss.excess_kurtosis:.4f}")


# Constant gain offsets of perturbation-margin: the zero offset, then each
# size with both signs on alpha, then on beta.
_SIZES = np.array([0.05, 0.1, 0.2, 0.4])
_OFFSETS = [sign * d for d in _SIZES.tolist() for sign in (1.0, -1.0)]
_DELTAS = [(0.0, 0.0)] + [(o, 0.0) for o in _OFFSETS] + [(0.0, o) for o in _OFFSETS]


def _perturbation_entry(totals) -> _Check:
    """Oracle costs of the law under each of _DELTAS: every margin over the
    zero-offset cost must be positive, and each channel's margin must grow
    with exponent 2 in the offset."""
    margins = np.array(totals[1:]) - totals[0]
    fit_ok = True
    details = []
    worst_dev = 0.0
    for channel, m in zip(("alpha", "beta"), margins.reshape(2, -1)):
        vals = 0.5 * m[0::2] + 0.5 * m[1::2]
        if (vals <= 0.0).any():
            fit_ok = False
            details.append(f"{channel}: non-positive margin")
            continue
        slope = float(np.polyfit(np.log(_SIZES), np.log(vals), 1)[0])
        if not 1.8 <= slope <= 2.2:
            fit_ok = False
        worst_dev = max(worst_dev, abs(slope - 2.0))
        details.append(f"{channel} exponent {slope:.3f}")
    details.append(f"smallest margin {margins.min():.3e}")
    return _Check("perturbation-margin", bool((margins > 0.0).all()) and fit_ok,
                  worst_dev, 0.2, "; ".join(details))


def _oracle_entries(red: Reduction, sol_fine, law_fine, law, x0: float,
                    steps: int) -> tuple[list[_Check], CostReport]:
    """oracle-vs-value, perturbation-margin at x0 and the oracle cost of
    `law` from x0 for mc-vs-oracle, all from one coefficient pass on the
    refined grid of sol_fine and law_fine: that law under each of _DELTAS,
    then `law`.  oracle-vs-value compares the cost coefficients of law_fine
    with phi_fine(0); its band is 1e-12 max(1, max |phi_fine(0)|)."""
    coefs = cost_coefficients(
        red.problem, [law_fine.shifted(*d) for d in _DELTAS] + [law], steps)
    phi0 = sol_fine.at(0.0)
    gap = max(abs(e + r - p) for e, r, p in
              zip(coefs[0].terminal, coefs[0].running, phi0))
    band = 1e-12 * max(1.0, *map(abs, phi0))
    mu = red.moments(x0)
    return ([_Check("oracle-vs-value", gap <= band, gap, band,
                    f"max |c - phi(0)| = {gap:.3e} over the optimal law's "
                    f"cost coefficients"),
             _perturbation_entry([c.cost(mu).total for c in coefs[:-1]])],
            red.oracle(coefs[-1], x0))


def _decomposition_entry(red: Reduction, run: _MonteCarlo) -> _Check:
    defect, se = cost_decomposition_check(red, run.cloud, run.err, run.mc)
    spec = red.partial
    tol = 1e-12 if spec.sigma_tilde == 0.0 and spec.eta_tilde == 0.0 else 3.0 * se
    return _Check("cost-decomposition", abs(defect) <= tol, abs(defect), tol,
                  f"defect {defect:.3e}, band {tol:.3e}")


def _scalar_entries(red: Reduction, sol, x0: float, preset_name: str | None,
                    steps: int, sim: SimConfig, out: str,
                    outputs: dict) -> list[_Check]:
    """The checks of a scalar-kind problem after terminal-exactness, from x0:
    analytic-phi (built-in presets only), residual-sweep, value-consistency,
    the oracle checks and the Monte Carlo checks.  A partially observed
    problem adds cost-decomposition."""
    spec = red.problem
    law = optimal_feedback(spec, sol)
    checks: list[_Check] = []
    if preset_name is not None:
        ref = closed_form(spec, steps)
        err = max(float(np.abs(sol.phi1 - ref.phi1).max()),
                  float(np.abs(sol.phi2 - ref.phi2).max()),
                  float(np.abs(sol.phi3 - ref.phi3).max()))
        checks.append(_Check("analytic-phi", err <= 1e-8, err, 1e-8,
                             f"max |phi - closed form| = {err:.3e}"))

    rng = np.random.Generator(np.random.Philox(12345))
    ts = rng.uniform(0.1 * spec.T, 0.9 * spec.T, 100)
    mus = _random_measures(rng, 100)
    rows = residual_sweep(spec, sol, zip(ts, mus))
    residual_to_csv(rows, os.path.join(out, "residual.csv"))
    outputs["residual"] = "residual.csv"
    worst = max(abs(r[3]) for r in rows)
    checks.append(_Check("residual-sweep", worst <= 1e-6, worst, 1e-6,
                         f"max |residual| = {worst:.3e} over 100 draws"))

    # One refined grid, at least twice the working one, serves as the
    # reference of value-consistency and as the grid of the oracle checks.
    fine_steps = max(2000, 2 * steps)
    sol_fine = solve_riccati(spec, fine_steps)
    law_fine = optimal_feedback(spec, sol_fine)
    v1 = red.value(sol, x0)
    gap = abs(v1 - red.value(sol_fine, x0))
    band = max(1e-6, 1e-12 * abs(v1))
    checks.append(_Check("value-consistency", gap <= band, gap, band,
                         f"value {v1:.9f}, refined-grid shift {gap:.3e}"))

    entries, oracle = _oracle_entries(red, sol_fine, law_fine, law, x0,
                                      fine_steps)
    checks += entries
    run = _monte_carlo(red, law, sim, x0, oracle)
    checks.append(run.check)
    checks.append(_gaussianity_entry(run.cloud.states))
    if red.partial is not None:
        checks.append(_decomposition_entry(red, run))
    return checks


def _matrix_entries(spec: MatrixProblemSpec, sol, steps: int, out: str,
                    outputs: dict) -> list[_Check]:
    """The checks of a matrix problem after terminal-exactness: symmetry and
    grid-refinement.  Writes the solution to phi.csv."""
    matrix_solution_to_csv(sol, os.path.join(out, "phi.csv"))
    outputs["phi"] = "phi.csv"
    asym = max(float(np.abs(sol.phi1 - sol.phi1.transpose(0, 2, 1)).max()),
               float(np.abs(sol.phi2 - sol.phi2.transpose(0, 2, 1)).max()))
    sol2 = solve_matrix_riccati(spec, 2 * steps)
    gap = max(float(np.abs(sol.phi1[0] - sol2.phi1[0]).max()),
              float(np.abs(sol.phi2[0] - sol2.phi2[0]).max()),
              abs(float(sol.phi3[0]) - float(sol2.phi3[0])))
    return [_Check("symmetry", asym <= 1e-10, asym, 1e-10,
                   f"max |phi - phi^T| = {asym:.3e}"),
            _Check("grid-refinement", gap <= 1e-6, gap, 1e-6,
                   f"|phi(0) - refined phi(0)| = {gap:.3e}")]


def cmd_verify(args) -> int:
    spec, source, sim, red, xs, steps = _resolve(args)
    outputs: dict = {}
    params = {"steps": steps, "n_paths": sim.n_paths, "dt": sim.dt, "seed": sim.seed}

    # One battery: every kind checks its assumptions, solves and checks
    # terminal-exactness, then runs its own checks.
    result, sol = _solve(spec, red, steps)
    weight = "eigenvalue of Q" if red is None else "Q"
    seen = "not measured" if result.q_min is None else f"{result.q_min:.3e}"
    checks = [_Check("assumptions", result.ok, result.q_min, 0.0,
                     f"{result.message}; smallest {weight} on the grid {seen}, "
                     f"must be > 0")]
    if sol is not None:
        checks.append(_terminal_entry([sol.phi1[-1] - spec.D1,
                                       sol.phi2[-1] - spec.D2, sol.phi3[-1]]))
        if red is None:
            checks += _matrix_entries(spec, sol, steps, args.out, outputs)
        else:
            checks += _scalar_entries(red, sol, xs[0], args.preset, steps,
                                      sim, args.out, outputs)
    if red is not None:
        params.update(stream_layout(sim.n_paths))

    for check in checks:
        print(f"[{'PASS' if check.passed else 'FAIL'}] {check.name}: {check.detail}")
    passed = all(c.passed for c in checks)
    payload = {
        "source": source, "kind": "matrix" if red is None else red.kind,
        "passed": passed, "checks": [dataclasses.asdict(c) for c in checks],
    }
    _write_json(os.path.join(args.out, "verify.json"), payload)
    outputs["verify"] = "verify.json"
    RunManifest(command="verify", source=source, params=params,
                outputs=outputs).write(os.path.join(args.out, "manifest.json"))
    print(f"{'all checks passed' if passed else 'CHECKS FAILED'} "
          f"({sum(c.passed for c in checks)}/{len(checks)})")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# report

def _report_row(manifest: RunManifest, summary: dict | None) -> dict:
    row = {"source": manifest.source, "command": manifest.command,
           "value": "", "mc_total": "", "std_error": "", "status": ""}
    if summary is None:
        row["status"] = "no summary"
    elif manifest.command == "solve":
        values = summary.get("values", [])
        if values:
            row["value"] = repr(values[0]["value"])
        row["status"] = "ok"
    elif manifest.command == "simulate":
        row["value"] = repr(summary["oracle"]["total"])
        row["mc_total"] = repr(summary["mc"]["total"])
        row["std_error"] = repr(summary["mc"]["std_error"])
        row["status"] = "ok" if summary["within_threshold"] else "off-band"
    elif manifest.command == "verify":
        row["status"] = "pass" if summary.get("passed") else "fail"
    return row


def cmd_report(args) -> int:
    rows = []
    for manifest_path in args.manifests:
        manifest = RunManifest.read(manifest_path)
        name = manifest.outputs.get("summary") or manifest.outputs.get("verify")
        summary = path = None
        if name is not None:
            path = os.path.join(os.path.dirname(os.path.abspath(manifest_path)), name)
            with open(path, "r") as fh:
                summary = json.load(fh)
        try:
            rows.append(_report_row(manifest, summary))
        except (AttributeError, KeyError, IndexError, TypeError) as exc:
            # A malformed output is a bad input file, not a failed check.
            raise OSError(f"{path}: not a {manifest.command} summary "
                          f"({type(exc).__name__}: {exc})") from exc

    out = _ensure_outdir(args.out)
    columns = ["source", "command", "value", "mc_total", "std_error", "status"]
    with open(os.path.join(out, "report.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)

    widths = {c: max(len(c), *(len(r[c]) for r in rows)) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    print(header)
    print("-" * len(header))
    for r in rows:
        print("  ".join(r[c].ljust(widths[c]) for c in columns))
    return 0


# ---------------------------------------------------------------------------

# The exit-code table of the module docstring, as (exception, stderr label,
# code); the first row the exception is an instance of decides, so a
# JSONDecodeError is an I/O error although it is also a ValueError.  Any
# other exception propagates.
_EXIT_CODES = (
    (ConfigError, "config", 3),
    (AssumptionError, "validation", 4),
    (FiniteEscapeError, "escape", 5),
    (SimulationDivergedError, "divergence", 5),
    (DomainError, "argument", 2),
    (json.JSONDecodeError, "io", 6),
    (OSError, "io", 6),
    (ValueError, "argument", 2),
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except tuple(kind for kind, _, _ in _EXIT_CODES) as exc:
        label, code = next((label, code) for kind, label, code in _EXIT_CODES
                           if isinstance(exc, kind))
        print(f"error: {label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
