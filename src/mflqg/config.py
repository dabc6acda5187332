"""INI problem configurations.

A config file carries exactly one problem section plus an optional
[simulation] section.  _SCHEMA is the one table of the sections, their
fields and the reader of each field, in the order they are read:

    [problem]          A, B, sigma, Q: coefficient; D1, D2, T: number
    [matrix_problem]   d: integer >= 1; A, B, sigma, Q, D1, D2: d x d matrix;
                       T: number
    [partial_obs]      sigma_hat, sigma_tilde, eta_hat, eta_tilde, s, T, D1,
                       D2: number; x: number with a finite square
    [simulation]       n_paths: integer; dt: number; seed: integer

Numbers must be finite.  A coefficient is a bare number or `constant c`
(constant in t), `poly c0 c1 ...` (lowest order first) or
`table t0:v0 t1:v1 ...` (piecewise-linear knots t:value).  A matrix lists
its rows separated by ';', as in `A = 0 1; 0 0`.

Every field is required and no other is allowed.  Parsing errors raise
ConfigError naming the section and field; violated model assumptions
surface as AssumptionError from the constructed spec itself, and
simulation settings the engine cannot run (n_paths < 2, dt <= 0, seed < 0)
as DomainError from SimConfig.  Parsing is one way: no writer turns a spec
back into INI text.
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


# Readers take a field's text and the fields of its section read so far, and
# raise ValueError on bad text; parse_config names the section and field.

def _real(text: str, _=None) -> float:
    # nan and inf parse as floats but are no valid problem data.
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def _state(text: str, _=None) -> float:
    # Every cost reads x^2: a square that overflows, if not refused here,
    # surfaces later as an infinite value or a misleading finite escape.
    value = _real(text)
    if not math.isfinite(value * value):
        raise ValueError(f"{text!r} squared overflows")
    return value


def _integer(text: str, _=None) -> int:
    return int(text)


def _dimension(text: str, _=None) -> int:
    d = int(text)
    if d < 1:
        raise ValueError(f"must be >= 1, got {d}")
    return d


def _coefficient(text: str, _=None) -> Coefficient:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty value")
    head = tokens[0]
    if head == "constant":
        if len(tokens) != 2:
            raise ValueError("constant takes exactly one value")
        return Coefficient.constant(_real(tokens[1]))
    if head == "poly":
        if len(tokens) < 2:
            raise ValueError("poly needs coefficients")
        return Coefficient.poly([_real(tok) for tok in tokens[1:]])
    if head == "table":
        knots = []
        for tok in tokens[1:]:
            if ":" not in tok:
                raise ValueError(f"table entries look like t:value, got {tok!r}")
            t_text, v_text = tok.split(":", 1)
            knots.append((_real(t_text), _real(v_text)))
        if len(knots) < 2:
            raise ValueError("table needs at least two knots")
        return Coefficient.table([t for t, _ in knots], [v for _, v in knots])
    if len(tokens) == 1:
        return Coefficient.constant(_real(head))
    raise ValueError(f"cannot parse coefficient {text!r}")


def _matrix(text: str, read: dict) -> np.ndarray:
    d = read["d"]
    data = [[_real(tok) for tok in row.split()] for row in text.split(";")]
    if len(data) != d or any(len(row) != d for row in data):
        raise ValueError(f"expected a {d}x{d} matrix (rows separated by ';')")
    return np.array(data)


# The one schema: section -> (constructor, field -> reader), fields in the
# order they are read.
_SCHEMA = {
    "problem": (ProblemSpec, {
        "A": _coefficient, "B": _coefficient, "sigma": _coefficient,
        "Q": _coefficient, "D1": _real, "D2": _real, "T": _real}),
    "matrix_problem": (MatrixProblemSpec, {
        "d": _dimension, "A": _matrix, "B": _matrix, "sigma": _matrix,
        "Q": _matrix, "D1": _matrix, "D2": _matrix, "T": _real}),
    "partial_obs": (PartialObsSpec, dict.fromkeys(
        ("sigma_hat", "sigma_tilde", "eta_hat", "eta_tilde", "s", "x", "T",
         "D1", "D2"), _real) | {"x": _state}),
    "simulation": (SimConfig, {"n_paths": _integer, "dt": _real,
                               "seed": _integer}),
}


def _read_section(section: str, items: dict[str, str], readers: dict) -> dict:
    unknown = sorted(items.keys() - readers.keys())
    if unknown:
        raise ConfigError(f"[{section}] unknown field(s): {', '.join(unknown)}")
    missing = sorted(readers.keys() - items.keys())
    if missing:
        raise ConfigError(f"[{section}] missing field(s): {', '.join(missing)}")
    read: dict = {}
    for field, reader in readers.items():
        try:
            read[field] = reader(items[field], read)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {field}: {exc}") from exc
    return read


def parse_config(text: str) -> ResolvedConfig:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # field names are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}") from exc

    sections = set(parser.sections())
    unknown = sorted(sections - _SCHEMA.keys())
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(unknown)}")
    problem_sections = sorted(sections - {"simulation"})
    if len(problem_sections) == 0:
        raise ConfigError("configuration needs one problem section")
    if len(problem_sections) > 1:
        raise ConfigError(
            f"configuration has multiple problem sections: {', '.join(problem_sections)}"
        )
    # A constructor's own errors (a violated assumption, simulation settings
    # the engine cannot run) pass through unwrapped.
    return ResolvedConfig(**{
        section: make(**_read_section(section, dict(parser.items(section)), readers))
        for section, (make, readers) in _SCHEMA.items() if section in sections})


def load_config(path) -> ResolvedConfig:
    with open(path, "r") as fh:
        return parse_config(fh.read())
