"""Command line interface.

Four subcommands:

    solve      integrate the Riccati system, write phi/gain tables and values
    simulate   cross-check the optimal law: cost oracle vs Monte Carlo
    verify     run the full check battery for a problem; exit 1 on any failure
    report     merge manifests from earlier runs into one table

This module is plumbing: solve, simulate and verify read their target
through one resolver, as a Reduction of any dimension d, and each command
writes its outputs once its numbers are computed.  verify's checks are
mflqg.checks.battery, which only computes, so a verify that stops on an
error leaves no file behind.

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
from .checks import battery, monte_carlo
from .config import load_config
from .control import law_to_csv, optimal_feedback, residual_to_csv
from .errors import (AssumptionError, ConfigError, DomainError,
                     FiniteEscapeError, SimulationDivergedError)
from .model import validate_spec
from .partial_obs import Reduction, partial_trajectory_to_csv
from .presets import PRESET_NAMES, preset
from .riccati import solution_to_csv, solve_riccati
from .simulate import (SimConfig, _steps_for, cost_coefficients, stream_layout,
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
    Reduction.of(spec), initial states, grid steps).  Arguments are checked
    in the order problem (--preset or --config), output directory, Monte
    Carlo settings, dimension (simulate runs d = 1 only), --dt against the
    horizon the particles run on (where d = 1; refused before any solve), --x.

    sim is SimConfig's defaults overridden by the config file, then by
    flags (None for solve).  The states are each --x as d comma-separated
    numbers (a number at d = 1, else a list), each with a finite square,
    since every cost reads it; without --x, a partially observed spec's x,
    else ones.  The first one is simulated.  steps is --steps, or 1000 per
    unit of the horizon the Riccati system is solved on (T - s for a
    partially observed problem).
    """
    if args.preset is not None:
        spec, source, config_sim = preset(args.preset), f"preset:{args.preset}", None
    else:
        resolved = load_config(args.config)
        spec, source = resolved.problem, f"config:{args.config}"
        config_sim = resolved.simulation
    _ensure_outdir(args.out)
    sim = None
    if args.command != "solve":
        given = {"n_paths": args.paths, "dt": args.dt, "seed": args.seed}
        sim = dataclasses.replace(config_sim or SimConfig(),
                                  **{k: v for k, v in given.items() if v is not None})
    red = Reduction.of(spec)
    d = red.problem.d
    if args.command == "simulate" and d > 1:
        raise DomainError("simulate supports scalar and partial_obs problems")
    if sim is not None and d == 1:
        _steps_for(red.problem.T, sim.dt)
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
        xs.append(vec)
    default = np.ones(d) if red.partial is None else np.array([spec.x])
    states = [np.squeeze(vec).tolist() for vec in xs or [default]]
    steps = args.steps if args.steps is not None else max(10, int(round(1000.0 * red.problem.T)))
    return spec, source, sim, red, states, steps


def _solve(red, steps: int):
    """Validate red.problem and, if it holds, solve its Riccati system on
    `steps` intervals: (validation result, solution or None)."""
    result = validate_spec(red.problem)
    return result, solve_riccati(red.problem, steps) if result.ok else None


def _ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def cmd_solve(args) -> int:
    spec, source, _, red, xs, steps = _resolve(args)
    result, sol = _solve(red, steps)
    if sol is None:
        raise AssumptionError(result.message)
    solution_to_csv(sol, os.path.join(args.out, "phi.csv"))
    outputs = {"phi": "phi.csv", "summary": "summary.json"}
    if red.problem.d == 1:  # no d x d gains table is written yet
        law_to_csv(optimal_feedback(red.problem, sol),
                   os.path.join(args.out, "gains.csv"))
        outputs["gains"] = "gains.csv"
    values = [{"x": x, "value": red.value(sol, x)} for x in xs]
    summary: dict = {"source": source, "T": spec.T, "steps": steps,
                     "kind": red.kind, "values": values}
    if red.problem.d > 1:
        summary["d"] = red.problem.d
    if red.partial is not None:
        summary.update(s=spec.s, error_compensation=red.comp)
    _write_json(os.path.join(args.out, "summary.json"), summary)
    RunManifest(command="solve", source=source,
                params={"steps": steps, "x": values[0]["x"]},
                outputs=outputs).write(os.path.join(args.out, "manifest.json"))
    return 0


def cmd_simulate(args) -> int:
    spec, source, sim, red, xs, steps = _resolve(args)
    x0 = xs[0]
    result, sol = _solve(red, steps)
    if sol is None:
        raise AssumptionError(result.message)
    law = optimal_feedback(red.problem, sol)
    coefs, = cost_coefficients(red.problem, [law], steps)
    run = monte_carlo(red, law, sim, x0, red.oracle(coefs, x0))
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


def cmd_verify(args) -> int:
    spec, source, sim, red, xs, steps = _resolve(args)
    result, sol = _solve(red, steps)
    checks, rows = battery(red, result, sol, xs[0], steps, sim)
    outputs: dict = {}
    params = {"steps": steps, "n_paths": sim.n_paths, "dt": sim.dt, "seed": sim.seed}
    if red.problem.d == 1:  # the particles ran
        params.update(stream_layout(sim.n_paths))
    if rows is not None:
        residual_to_csv(rows, os.path.join(args.out, "residual.csv"))
        outputs["residual"] = "residual.csv"

    for check in checks:
        print(f"[{'PASS' if check.passed else 'FAIL'}] {check.name}: {check.detail}")
    passed = all(c.passed for c in checks)
    payload = {
        "source": source, "kind": red.kind,
        "passed": passed, "checks": [dataclasses.asdict(c) for c in checks],
    }
    _write_json(os.path.join(args.out, "verify.json"), payload)
    outputs["verify"] = "verify.json"
    RunManifest(command="verify", source=source, params=params,
                outputs=outputs).write(os.path.join(args.out, "manifest.json"))
    print(f"{'all checks passed' if passed else 'CHECKS FAILED'} "
          f"({sum(c.passed for c in checks)}/{len(checks)})")
    return 0 if passed else 1


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
