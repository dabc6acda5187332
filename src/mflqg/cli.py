"""Command line interface.

Four subcommands share one problem-resolution path (--preset or --config):

    solve      integrate the Riccati system, write phi/gain tables and values
    simulate   cross-check the optimal law: moment oracle vs Monte Carlo
    verify     run the full check battery for a problem; exit 1 on any failure
    report     merge manifests from earlier runs into one table

Every command writes a manifest.json describing inputs and outputs.  Outputs
contain no timestamps: rerunning a command with the same arguments reproduces
the same bytes.

Exit codes: 0 ok, 1 failed check, 2 bad argument, 3 config parse error,
4 violated model assumption, 5 finite escape or diverged simulation, 6 I/O.
"""

from __future__ import annotations

import argparse
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
                      residual_to_csv, value_function)
from .errors import (AssumptionError, ConfigError, DomainError,
                     FiniteEscapeError, SimulationDivergedError)
from .model import (MatrixProblemSpec, MeasureMoments, ProblemSpec,
                    validate_matrix_spec, validate_spec)
from .partial_obs import (PartialObsSpec, cost_decomposition_check,
                          error_variance, evolve_partial,
                          partial_trajectory_to_csv, reduced_problem)
from .presets import PRESET_NAMES, preset
from .riccati import (closed_form, matrix_solution_to_csv, solution_to_csv,
                      solve_matrix_riccati, solve_riccati)
from .simulate import (CostReport, SimConfig, cost_from_cloud, cost_oracle,
                       evolve_cloud, gaussianity_check, mc_tolerance,
                       perturbation_sweep, trajectory_to_csv)

__all__ = ["RunManifest", "main", "build_parser",
           "cmd_solve", "cmd_simulate", "cmd_verify", "cmd_report"]

_DEFAULT_PATHS = 100_000
_DEFAULT_DT = 1e-3
_DEFAULT_SEED = 42


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
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def read(path) -> "RunManifest":
        with open(path, "r") as fh:
            raw = json.load(fh)
        return RunManifest(command=raw["command"], source=raw["source"],
                           params=raw.get("params", {}),
                           outputs=raw.get("outputs", {}),
                           version=raw.get("version", "unknown"))


class _Parser(argparse.ArgumentParser):
    # Match the one-line error contract instead of argparse's usage dump.
    def error(self, message):
        raise DomainError(message)


def _add_target_options(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=PRESET_NAMES,
                       help="built-in worked example")
    group.add_argument("--config", help="path to an INI problem configuration")


def _add_common_options(sub, with_sim: bool):
    sub.add_argument("--steps", type=int, default=None,
                     help="Riccati/oracle grid intervals (default: 1000 per unit horizon)")
    sub.add_argument("--x", action="append", default=None,
                     help="initial state (repeatable; comma-separated for matrix problems)")
    sub.add_argument("--out", default=".", help="output directory (default: current)")
    if with_sim:
        sub.add_argument("--paths", type=int, default=None,
                         help=f"Monte Carlo particles (default {_DEFAULT_PATHS})")
        sub.add_argument("--dt", type=float, default=None,
                         help=f"Euler-Maruyama step (default {_DEFAULT_DT})")
        sub.add_argument("--seed", type=int, default=None,
                         help=f"random seed (default {_DEFAULT_SEED})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mflqg",
                     description="Mean-field LQG: Riccati solve, feedback synthesis, "
                                 "and Monte Carlo verification")
    parser.add_argument("--version", action="version", version=f"mflqg {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="integrate the Riccati system")
    _add_target_options(p_solve)
    _add_common_options(p_solve, with_sim=False)
    p_solve.set_defaults(func=cmd_solve)

    p_sim = subs.add_parser("simulate", help="compare the moment oracle with Monte Carlo")
    _add_target_options(p_sim)
    _add_common_options(p_sim, with_sim=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = subs.add_parser("verify", help="run the full check battery")
    _add_target_options(p_ver)
    _add_common_options(p_ver, with_sim=True)
    p_ver.set_defaults(func=cmd_verify)

    p_rep = subs.add_parser("report", help="merge run manifests into one table")
    p_rep.add_argument("manifests", nargs="+", help="manifest.json files from earlier runs")
    p_rep.add_argument("--out", default=".", help="output directory (default: current)")
    p_rep.set_defaults(func=cmd_report)
    return parser


def _resolve_target(args):
    """Return (problem object, source label, sim settings from config or None)."""
    if args.preset is not None:
        return preset(args.preset), f"preset:{args.preset}", None
    resolved = load_config(args.config)
    return resolved.the_problem(), f"config:{args.config}", resolved.simulation


def _grid_steps(args, horizon: float) -> int:
    """--steps, or 1000 intervals per unit of the horizon the Riccati system
    is solved on (T - s for a partially observed problem)."""
    if args.steps is not None:
        return args.steps
    return max(10, int(round(1000.0 * horizon)))


def _sim_config(args, from_config: SimConfig | None) -> SimConfig:
    base = from_config if from_config is not None else SimConfig(
        n_paths=_DEFAULT_PATHS, dt=_DEFAULT_DT, seed=_DEFAULT_SEED)
    sim = SimConfig(
        n_paths=args.paths if args.paths is not None else base.n_paths,
        dt=args.dt if args.dt is not None else base.dt,
        seed=args.seed if args.seed is not None else base.seed,
    )
    # One path has a zero standard error, which would leave the Monte Carlo
    # band as pure bias allowance.
    if sim.n_paths < 2:
        raise DomainError(f"n_paths must be >= 2, got {sim.n_paths}")
    return sim


def _scalar_xs(args, default=(1.0,)) -> list[float]:
    if not args.x:
        return list(default)
    try:
        xs = [float(s) for s in args.x]
    except ValueError as exc:
        raise DomainError(f"--x expects numbers, got {args.x!r}") from exc
    if not all(math.isfinite(x) for x in xs):
        raise DomainError(f"--x expects finite numbers, got {args.x!r}")
    return xs


def _vector_xs(args, d: int) -> list[np.ndarray]:
    if not args.x:
        return [np.ones(d)]
    out = []
    for s in args.x:
        try:
            vec = np.array([float(tok) for tok in s.split(",")])
        except ValueError as exc:
            raise DomainError(f"--x expects comma-separated numbers, got {s!r}") from exc
        if vec.size != d:
            raise DomainError(f"--x {s!r} has {vec.size} entries, expected {d}")
        if not np.isfinite(vec).all():
            raise DomainError(f"--x expects finite numbers, got {s!r}")
        out.append(vec)
    return out


def _ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require_validated(spec) -> None:
    if isinstance(spec, MatrixProblemSpec):
        result = validate_matrix_spec(spec)
    elif isinstance(spec, ProblemSpec):
        result = validate_spec(spec)
    else:
        return
    if not result.ok:
        raise AssumptionError(result.message)


@dataclass(frozen=True)
class _Scalar:
    """The fully observed scalar problem a command runs on.

    A partially observed spec becomes its reduced problem for the prediction
    process: control starts from N(x, var0) with var0 = eta_hat^2 s, and the
    estimation error adds the constant comp = D1 P_T to every cost.  From
    there every command runs the scalar code.
    """

    problem: ProblemSpec
    xs: list                # requested initial states; the first is simulated
    probe_xs: list          # where oracle-vs-value compares
    partial: PartialObsSpec | None = None   # with x = xs[0]
    var0: float = 0.0
    comp: float = 0.0

    @property
    def kind(self) -> str:
        return "scalar" if self.partial is None else "partial_obs"

    def moments(self, x: float) -> MeasureMoments:
        return MeasureMoments(x, x * x + self.var0)

    def value(self, sol, x: float) -> float:
        return value_function(sol, 0.0, self.moments(x)) + self.comp

    def oracle(self, law, x: float, steps: int) -> CostReport:
        mu = self.moments(x)
        return cost_oracle(self.problem, law, mu.m1, mu.m2, steps)


def _scalar_view(spec, args) -> _Scalar:
    if isinstance(spec, PartialObsSpec):
        xs = _scalar_xs(args, default=(spec.x,))
        spec = dataclasses.replace(spec, x=xs[0])
        return _Scalar(reduced_problem(spec), xs, xs, spec,
                       spec.eta_hat ** 2 * spec.s,
                       spec.D1 * error_variance(spec, spec.T))
    return _Scalar(spec, _scalar_xs(args), _scalar_xs(args, default=(0.0, 1.0)))


def _particles(view: _Scalar, law, sim: SimConfig):
    """One seeded particle run from xs[0]: the trajectory, the full-state
    terminal cloud and the controlled (prediction) terminal cloud."""
    if view.partial is None:
        traj = evolve_cloud(view.problem, law, view.xs[0], sim)
        return traj, traj.states, traj.states
    traj = evolve_partial(view.partial, law, sim)
    return traj, traj.xhat + traj.err, traj.xhat


# ---------------------------------------------------------------------------
# solve

def cmd_solve(args) -> int:
    spec, source, _ = _resolve_target(args)
    out = _ensure_outdir(args.out)
    outputs = {}
    summary: dict = {"source": source}

    if isinstance(spec, MatrixProblemSpec):
        steps = _grid_steps(args, spec.T)
        vecs = _vector_xs(args, spec.d)
        _require_validated(spec)
        sol = solve_matrix_riccati(spec, steps)
        matrix_solution_to_csv(sol, os.path.join(out, "phi.csv"))
        outputs["phi"] = "phi.csv"
        values = []
        for vec in vecs:
            p1, p2, p3 = sol.at(0.0)
            value = float(vec @ p1 @ vec + vec @ p2 @ vec + p3)
            values.append({"x": [float(v) for v in vec], "value": value})
        summary.update(kind="matrix", d=spec.d, T=spec.T, steps=steps, values=values)
    else:
        view = _scalar_view(spec, args)
        steps = _grid_steps(args, view.problem.T)
        _require_validated(view.problem)
        sol = solve_riccati(view.problem, steps)
        solution_to_csv(sol, os.path.join(out, "phi.csv"))
        law_to_csv(optimal_feedback(view.problem, sol),
                   os.path.join(out, "gains.csv"))
        outputs["phi"] = "phi.csv"
        outputs["gains"] = "gains.csv"
        values = [{"x": x, "value": view.value(sol, x)} for x in view.xs]
        summary.update(kind=view.kind, T=spec.T, steps=steps, values=values)
        if view.partial is not None:
            summary.update(s=spec.s, error_compensation=view.comp)

    _write_json(os.path.join(out, "summary.json"), summary)
    outputs["summary"] = "summary.json"
    RunManifest(command="solve", source=source,
                params={"steps": steps, "x": summary["values"][0]["x"]},
                outputs=outputs).write(os.path.join(out, "manifest.json"))
    return 0


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    spec, source, config_sim = _resolve_target(args)
    out = _ensure_outdir(args.out)
    sim = _sim_config(args, config_sim)

    if isinstance(spec, MatrixProblemSpec):
        raise DomainError("simulate supports scalar and partial_obs problems")

    view = _scalar_view(spec, args)
    steps = _grid_steps(args, view.problem.T)
    x0 = view.xs[0]
    _require_validated(view.problem)
    law = optimal_feedback(view.problem, solve_riccati(view.problem, steps))
    oracle = view.oracle(law, x0, steps)
    traj, states, _ = _particles(view, law, sim)
    mc = cost_from_cloud(view.problem, states, traj.run_costs)
    write = trajectory_to_csv if view.partial is None else partial_trajectory_to_csv
    write(traj, os.path.join(out, "trajectory.csv"))
    summary = {"source": source, "x": x0, "steps": steps,
               "n_paths": sim.n_paths, "dt": sim.dt, "seed": sim.seed,
               "mc": dataclasses.asdict(mc), "kind": view.kind,
               "oracle": dataclasses.asdict(oracle)}
    if view.partial is not None:
        summary["error_compensation"] = view.comp
        summary["oracle"] = {"total": oracle.total + view.comp,
                             "running": oracle.running,
                             "terminal": oracle.terminal + view.comp}

    discrepancy = abs(mc.total - summary["oracle"]["total"])
    threshold = mc_tolerance(mc.std_error, sim.dt)
    summary["discrepancy"] = discrepancy
    summary["threshold"] = threshold
    summary["within_threshold"] = bool(discrepancy <= threshold)
    _write_json(os.path.join(out, "summary.json"), summary)
    RunManifest(command="simulate", source=source,
                params={"steps": steps, "n_paths": sim.n_paths, "dt": sim.dt,
                        "seed": sim.seed},
                outputs={"trajectory": "trajectory.csv",
                         "summary": "summary.json"},
                ).write(os.path.join(out, "manifest.json"))
    return 0


# ---------------------------------------------------------------------------
# verify

@dataclass
class _Check:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str


def _print_check(check: _Check) -> None:
    status = "PASS" if check.passed else "FAIL"
    print(f"[{status}] {check.name}: {check.detail}")


def _random_measures(rng, count: int):
    m1 = rng.uniform(-1.0, 1.0, count)
    extra = rng.uniform(0.0, 0.25, count)
    return [MeasureMoments(float(a), float(a * a + b)) for a, b in zip(m1, extra)]


def _mc_check(mc: CostReport, oracle_total: float, dt: float) -> _Check:
    gap = abs(mc.total - oracle_total)
    tol = mc_tolerance(mc.std_error, dt)
    return _Check("mc-vs-oracle", gap <= tol, gap, tol,
                  f"|MC - oracle| = {gap:.3e}, band {tol:.3e}")


def _solution_entries(problem: ProblemSpec, sol, steps: int,
                      preset_name: str | None) -> list[_Check]:
    """terminal-exactness, plus analytic-phi against the closed form on the
    built-in presets."""
    exact_terminal = (sol.phi1[-1] == problem.D1 and sol.phi2[-1] == problem.D2
                      and sol.phi3[-1] == 0.0)
    checks = [_Check("terminal-exactness", bool(exact_terminal), 0.0, 0.0,
                     "phi(T) equals (D1, D2, 0) exactly")]
    if preset_name is not None:
        ref = closed_form(problem, steps)
        err = max(float(np.abs(sol.phi1 - ref.phi1).max()),
                  float(np.abs(sol.phi2 - ref.phi2).max()),
                  float(np.abs(sol.phi3 - ref.phi3).max()))
        checks.append(_Check("analytic-phi", err <= 1e-8, err, 1e-8,
                             f"max |phi - closed form| = {err:.3e}"))
    return checks


def _gaussianity_entry(states) -> _Check:
    gauss = gaussianity_check(states)
    if gauss.degenerate:
        return _Check("gaussianity", True, 0.0, 0.0, "degenerate cloud")
    ok = abs(gauss.skewness) < 0.05 and abs(gauss.excess_kurtosis) < 0.1
    return _Check("gaussianity", ok, abs(gauss.skewness), 0.05,
                  f"skew {gauss.skewness:.4f}, excess kurtosis "
                  f"{gauss.excess_kurtosis:.4f}")


def _perturbation_entry(view: _Scalar, law, x0: float, steps: int) -> _Check:
    """Constant gain offsets around the optimum, all in one oracle pass: every
    margin over the zero-offset cost must be positive, and each channel's
    margin must grow with exponent 2 in the offset."""
    sizes = np.array([0.05, 0.1, 0.2, 0.4])
    offsets = [sign * d for d in sizes.tolist() for sign in (1.0, -1.0)]
    deltas = ([(0.0, 0.0)] + [(o, 0.0) for o in offsets]
              + [(0.0, o) for o in offsets])
    mu = view.moments(x0)
    swept = perturbation_sweep(view.problem, law, deltas, mu.m1, mu.m2, steps)
    totals = np.array([total for _, total in swept])
    margins = totals[1:] - totals[0]
    fit_ok = True
    details = []
    worst_dev = 0.0
    for channel, m in zip(("alpha", "beta"), margins.reshape(2, -1)):
        vals = 0.5 * m[0::2] + 0.5 * m[1::2]
        if (vals <= 0.0).any():
            fit_ok = False
            details.append(f"{channel}: non-positive margin")
            continue
        slope = float(np.polyfit(np.log(sizes), np.log(vals), 1)[0])
        if not 1.8 <= slope <= 2.2:
            fit_ok = False
        worst_dev = max(worst_dev, abs(slope - 2.0))
        details.append(f"{channel} exponent {slope:.3f}")
    details.append(f"smallest margin {margins.min():.3e}")
    return _Check("perturbation-margin", bool((margins > 0.0).all()) and fit_ok,
                  worst_dev, 0.2, "; ".join(details))


def _decomposition_entry(spec: PartialObsSpec, traj) -> _Check:
    decomp = cost_decomposition_check(spec, traj)
    if spec.sigma_tilde == 0.0 and spec.eta_tilde == 0.0:
        tol = 1e-12
    else:
        tol = 3.0 * decomp.defect_std_error
    return _Check("cost-decomposition", abs(decomp.defect) <= tol,
                  abs(decomp.defect), tol,
                  f"defect {decomp.defect:.3e}, band {tol:.3e}")


def _verify_scalar(view: _Scalar, preset_name: str | None, steps: int,
                   sim: SimConfig, out: str, outputs: dict) -> list[_Check]:
    """The check battery of a scalar-kind problem; a partially observed one
    adds cost-decomposition."""
    spec = view.problem
    x0 = view.xs[0]
    checks: list[_Check] = []

    result = validate_spec(spec)
    checks.append(_Check("assumptions", result.ok, 0.0, 0.0, result.message))
    if not result.ok:
        return checks

    sol = solve_riccati(spec, steps)
    law = optimal_feedback(spec, sol)
    checks += _solution_entries(spec, sol, steps, preset_name)

    rng = np.random.Generator(np.random.Philox(12345))
    ts = rng.uniform(0.1 * spec.T, 0.9 * spec.T, 100)
    mus = _random_measures(rng, 100)
    rows = residual_sweep(spec, sol, zip(ts, mus))
    residual_to_csv(rows, os.path.join(out, "residual.csv"))
    outputs["residual"] = "residual.csv"
    worst = max(abs(r[3]) for r in rows)
    checks.append(_Check("residual-sweep", worst <= 1e-6, worst, 1e-6,
                         f"max |residual| = {worst:.3e} over 100 draws"))

    # The value read off a refined grid must agree with the working grid's.
    v1 = view.value(sol, x0)
    gap = abs(v1 - view.value(solve_riccati(spec, 2 * steps), x0))
    checks.append(_Check("value-consistency", gap <= 1e-6, gap, 1e-6,
                         f"value {v1:.9f}, refined-grid shift {gap:.3e}"))

    oracle_steps = max(2000, steps)
    sol_fine = solve_riccati(spec, oracle_steps)
    law_fine = optimal_feedback(spec, sol_fine)
    worst_gap = 0.0
    for x in view.probe_xs:
        oracle = view.oracle(law_fine, x, oracle_steps)
        worst_gap = max(worst_gap,
                        abs(oracle.total + view.comp - view.value(sol_fine, x)))
    what = ("max |oracle - ansatz value|" if view.partial is None
            else "|oracle + error compensation - value|")
    checks.append(_Check("oracle-vs-value", worst_gap <= 1e-5, worst_gap, 1e-5,
                         f"{what} = {worst_gap:.3e}"))
    checks.append(_perturbation_entry(view, law_fine, x0, oracle_steps))

    oracle_total = view.oracle(law, x0, oracle_steps).total + view.comp
    traj, states, controlled = _particles(view, law, sim)
    mc = cost_from_cloud(spec, states, traj.run_costs)
    checks.append(_mc_check(mc, oracle_total, sim.dt))
    checks.append(_gaussianity_entry(controlled))
    if view.partial is not None:
        checks.append(_decomposition_entry(view.partial, traj))
    return checks


def _verify_matrix(spec: MatrixProblemSpec, steps: int, out: str,
                   outputs: dict) -> list[_Check]:
    checks: list[_Check] = []

    result = validate_matrix_spec(spec)
    checks.append(_Check("assumptions", result.ok, 0.0, 0.0, result.message))
    if not result.ok:
        return checks

    sol = solve_matrix_riccati(spec, steps)
    matrix_solution_to_csv(sol, os.path.join(out, "phi.csv"))
    outputs["phi"] = "phi.csv"

    exact_terminal = (np.array_equal(sol.phi1[-1], spec.D1)
                      and np.array_equal(sol.phi2[-1], spec.D2)
                      and sol.phi3[-1] == 0.0)
    checks.append(_Check("terminal-exactness", bool(exact_terminal), 0.0, 0.0,
                         "phi(T) equals (D1, D2, 0) exactly"))

    asym = max(float(np.abs(sol.phi1 - sol.phi1.transpose(0, 2, 1)).max()),
               float(np.abs(sol.phi2 - sol.phi2.transpose(0, 2, 1)).max()))
    checks.append(_Check("symmetry", asym <= 1e-10, asym, 1e-10,
                         f"max |phi - phi^T| = {asym:.3e}"))

    sol2 = solve_matrix_riccati(spec, 2 * steps)
    gap = max(float(np.abs(sol.phi1[0] - sol2.phi1[0]).max()),
              float(np.abs(sol.phi2[0] - sol2.phi2[0]).max()),
              abs(float(sol.phi3[0]) - float(sol2.phi3[0])))
    checks.append(_Check("grid-refinement", gap <= 1e-6, gap, 1e-6,
                         f"|phi(0) - refined phi(0)| = {gap:.3e}"))
    return checks


def cmd_verify(args) -> int:
    spec, source, config_sim = _resolve_target(args)
    out = _ensure_outdir(args.out)
    sim = _sim_config(args, config_sim)
    outputs: dict = {}

    if isinstance(spec, MatrixProblemSpec):
        steps = _grid_steps(args, spec.T)
        checks = _verify_matrix(spec, steps, out, outputs)
        kind = "matrix"
    else:
        view = _scalar_view(spec, args)
        steps = _grid_steps(args, view.problem.T)
        checks = _verify_scalar(view, args.preset, steps, sim, out, outputs)
        kind = view.kind

    for check in checks:
        _print_check(check)
    passed = all(c.passed for c in checks)
    payload = {
        "source": source, "kind": kind, "passed": passed,
        "checks": [dataclasses.asdict(c) for c in checks],
    }
    _write_json(os.path.join(out, "verify.json"), payload)
    outputs["verify"] = "verify.json"
    RunManifest(command="verify", source=source,
                params={"steps": steps, "n_paths": sim.n_paths,
                        "dt": sim.dt, "seed": sim.seed},
                outputs=outputs).write(os.path.join(out, "manifest.json"))
    print(f"{'all checks passed' if passed else 'CHECKS FAILED'} "
          f"({sum(c.passed for c in checks)}/{len(checks)})")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# report

def _summary_for(manifest_path: str, manifest: RunManifest) -> dict | None:
    name = manifest.outputs.get("summary") or manifest.outputs.get("verify")
    if name is None:
        return None
    path = os.path.join(os.path.dirname(os.path.abspath(manifest_path)), name)
    with open(path, "r") as fh:
        return json.load(fh)


def cmd_report(args) -> int:
    rows = []
    for path in args.manifests:
        manifest = RunManifest.read(path)
        summary = _summary_for(path, manifest)
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
        rows.append(row)

    out = _ensure_outdir(args.out)
    import csv as _csv

    columns = ["source", "command", "value", "mc_total", "std_error", "status"]
    with open(os.path.join(out, "report.csv"), "w", newline="") as fh:
        writer = _csv.DictWriter(fh, fieldnames=columns)
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

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 3
    except AssumptionError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 4
    except FiniteEscapeError as exc:
        print(f"error: escape: {exc}", file=sys.stderr)
        return 5
    except SimulationDivergedError as exc:
        print(f"error: divergence: {exc}", file=sys.stderr)
        return 5
    except DomainError as exc:
        print(f"error: argument: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 6
    except FileNotFoundError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 6
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 6
    except ValueError as exc:
        print(f"error: argument: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
