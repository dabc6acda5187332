"""INI problem configurations.

A config file carries exactly one problem section plus an optional
[simulation] section:

    [problem]                 scalar, fully observed
    A = 0.0                   bare number -> constant coefficient
    B = poly 1.0 0.5          polynomial in t, lowest order first
    sigma = table 0:1 2:0.5   piecewise-linear knots t:value
    Q = 1.0
    D1 = 1.0
    D2 = 0.0
    T = 1.0

    [partial_obs]             unit-coefficient partially observed problem
    sigma_hat = 0.7071067811865476
    sigma_tilde = 0.7071067811865476
    eta_hat = 1.0
    eta_tilde = 0.0
    s = 0.0
    x = 1.0
    T = 1.0
    D1 = 1.0
    D2 = 0.0

    [matrix_problem]          vector state; every matrix is constant in t
    d = 2
    A = 0 0; 0 0              rows separated by ';'
    ...

    [simulation]
    n_paths = 100000
    dt = 0.001
    seed = 42

Parsing errors raise ConfigError naming the section and field; violated model
assumptions surface as AssumptionError from the constructed spec itself, and
simulation settings the engine cannot run (n_paths < 2, dt <= 0) as
DomainError from SimConfig.  Parsing is one way: no writer turns a spec back
into INI text.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import Coefficient, MatrixProblemSpec, ProblemSpec
from .partial_obs import PartialObsSpec
from .simulate import SimConfig

__all__ = [
    "ResolvedConfig",
    "parse_config",
    "load_config",
]

_PROBLEM_FIELDS = ("A", "B", "sigma", "Q", "D1", "D2", "T")
_PARTIAL_FIELDS = ("sigma_hat", "sigma_tilde", "eta_hat", "eta_tilde",
                   "s", "x", "T", "D1", "D2")
_MATRIX_FIELDS = ("d", "A", "B", "sigma", "Q", "D1", "D2", "T")
_SIM_FIELDS = ("n_paths", "dt", "seed")


@dataclass(frozen=True)
class ResolvedConfig:
    """Parsed configuration: exactly one problem plus optional sim settings."""

    problem: ProblemSpec | None = None
    matrix_problem: MatrixProblemSpec | None = None
    partial_obs: PartialObsSpec | None = None
    simulation: SimConfig | None = None

    def the_problem(self):
        for p in (self.problem, self.matrix_problem, self.partial_obs):
            if p is not None:
                return p
        raise ConfigError("configuration contains no problem section")


def _finite(text: str) -> float:
    # nan and inf parse as floats but are no valid problem data.
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def _parse_float(section: str, field: str, text: str) -> float:
    try:
        return _finite(text)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {field}: not a finite number: {text!r}") from exc


def _parse_int(section: str, field: str, text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {field}: not an integer: {text!r}") from exc


def _parse_coefficient(section: str, field: str, text: str) -> Coefficient:
    tokens = text.split()
    if not tokens:
        raise ConfigError(f"[{section}] {field}: empty value")
    head = tokens[0]
    try:
        if head == "constant":
            if len(tokens) != 2:
                raise ConfigError(
                    f"[{section}] {field}: constant takes exactly one value"
                )
            return Coefficient.constant(_finite(tokens[1]))
        if head == "poly":
            if len(tokens) < 2:
                raise ConfigError(f"[{section}] {field}: poly needs coefficients")
            return Coefficient.poly([_finite(tok) for tok in tokens[1:]])
        if head == "table":
            knots = []
            for tok in tokens[1:]:
                if ":" not in tok:
                    raise ConfigError(
                        f"[{section}] {field}: table entries look like t:value, got {tok!r}"
                    )
                t_text, v_text = tok.split(":", 1)
                knots.append((_finite(t_text), _finite(v_text)))
            if len(knots) < 2:
                raise ConfigError(f"[{section}] {field}: table needs at least two knots")
            return Coefficient.table([t for t, _ in knots], [v for _, v in knots])
        if len(tokens) == 1:
            return Coefficient.constant(_finite(head))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[{section}] {field}: bad number in {text!r}") from exc
    raise ConfigError(f"[{section}] {field}: cannot parse coefficient {text!r}")


def _parse_matrix(section: str, field: str, text: str, d: int) -> np.ndarray:
    rows = [row.strip() for row in text.split(";")]
    try:
        data = [[_finite(tok) for tok in row.split()] for row in rows]
    except ValueError as exc:
        raise ConfigError(f"[{section}] {field}: bad number in {text!r}") from exc
    if len(data) != d or any(len(row) != d for row in data):
        raise ConfigError(
            f"[{section}] {field}: expected a {d}x{d} matrix (rows separated by ';')"
        )
    return np.array(data)


def _section_items(parser: configparser.ConfigParser, section: str,
                   allowed: tuple[str, ...]) -> dict[str, str]:
    items = dict(parser.items(section))
    unknown = sorted(set(items) - set(allowed))
    if unknown:
        raise ConfigError(f"[{section}] unknown field(s): {', '.join(unknown)}")
    missing = sorted(set(allowed) - set(items))
    if missing:
        raise ConfigError(f"[{section}] missing field(s): {', '.join(missing)}")
    return items


def parse_config(text: str) -> ResolvedConfig:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # field names are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}") from exc

    sections = set(parser.sections())
    known = {"problem", "matrix_problem", "partial_obs", "simulation"}
    unknown = sorted(sections - known)
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(unknown)}")
    problem_sections = sections & {"problem", "matrix_problem", "partial_obs"}
    if len(problem_sections) == 0:
        raise ConfigError("configuration needs one problem section")
    if len(problem_sections) > 1:
        raise ConfigError(
            f"configuration has multiple problem sections: {', '.join(sorted(problem_sections))}"
        )

    problem = matrix_problem = partial = simulation = None
    if "problem" in sections:
        items = _section_items(parser, "problem", _PROBLEM_FIELDS)
        problem = ProblemSpec(
            A=_parse_coefficient("problem", "A", items["A"]),
            B=_parse_coefficient("problem", "B", items["B"]),
            sigma=_parse_coefficient("problem", "sigma", items["sigma"]),
            Q=_parse_coefficient("problem", "Q", items["Q"]),
            D1=_parse_float("problem", "D1", items["D1"]),
            D2=_parse_float("problem", "D2", items["D2"]),
            T=_parse_float("problem", "T", items["T"]),
        )
    if "matrix_problem" in sections:
        items = _section_items(parser, "matrix_problem", _MATRIX_FIELDS)
        d = _parse_int("matrix_problem", "d", items["d"])
        if d < 1:
            raise ConfigError(f"[matrix_problem] d must be >= 1, got {d}")
        matrix_problem = MatrixProblemSpec(
            d=d,
            A=_parse_matrix("matrix_problem", "A", items["A"], d),
            B=_parse_matrix("matrix_problem", "B", items["B"], d),
            sigma=_parse_matrix("matrix_problem", "sigma", items["sigma"], d),
            Q=_parse_matrix("matrix_problem", "Q", items["Q"], d),
            D1=_parse_matrix("matrix_problem", "D1", items["D1"], d),
            D2=_parse_matrix("matrix_problem", "D2", items["D2"], d),
            T=_parse_float("matrix_problem", "T", items["T"]),
        )
    if "partial_obs" in sections:
        items = _section_items(parser, "partial_obs", _PARTIAL_FIELDS)
        partial = PartialObsSpec(
            **{name: _parse_float("partial_obs", name, items[name])
               for name in _PARTIAL_FIELDS}
        )
    if "simulation" in sections:
        items = _section_items(parser, "simulation", _SIM_FIELDS)
        simulation = SimConfig(
            n_paths=_parse_int("simulation", "n_paths", items["n_paths"]),
            dt=_parse_float("simulation", "dt", items["dt"]),
            seed=_parse_int("simulation", "seed", items["seed"]),
        )
    return ResolvedConfig(problem=problem, matrix_problem=matrix_problem,
                          partial_obs=partial, simulation=simulation)


def load_config(path) -> ResolvedConfig:
    with open(path, "r") as fh:
        return parse_config(fh.read())
