"""Partially observed problems handled through the separation principle.

The state noise and the initial condition each split into an observed and an
unobserved part (weights sigma_hat/sigma_tilde and eta_hat/eta_tilde, each
pair summing to one in squares).  Conditioning on the observation makes the
prediction process X_hat a fully observed copy of the problem with noise
level sigma_hat, horizon T - s, and Gaussian initial law N(x, eta_hat^2 s),
while the estimation error E = X - X_hat is an independent Gaussian with
variance P_t = eta_tilde^2 s + sigma_tilde^2 (t - s) that the control cannot
touch.  Costs therefore decompose as

    J = J_hat + D1 * P_T

and the optimal value is read off the reduced problem's Riccati solution:

    V = phi1(s) (x^2 + eta_hat^2 s) + phi2(s) x^2 + phi3(s) + D1 * P_T.

Reduction holds that split once: the reduced problem, the initial variance
eta_hat^2 s and the constant D1 * P_T; every command reads it.  The oracle
follows the split: a law's cost coefficients on the reduced problem, with
D1 * P_T added to the constant term, priced at the moments
(x, x^2 + eta_hat^2 s).  So does simulation: the prediction cloud is the
fully observed particle engine run on the reduced problem from
Reduction.initial, and E, which no cost term reads before T, is drawn once
at T from its own stream by Reduction.error.  The reduced problem's closed
form is riccati.closed_form(reduced_problem(spec)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import value_function
from .errors import AssumptionError, DomainError
from .model import MeasureMoments, ProblemSpec, _finite_float
from .riccati import RiccatiSolution, _write_csv
from .simulate import (CloudTrajectory, CostCoefficients, CostReport,
                       SimConfig, cost_from_cloud)

__all__ = [
    "PartialObsSpec",
    "Reduction",
    "error_variance",
    "reduced_problem",
    "cost_decomposition_check",
    "partial_trajectory_to_csv",
]


@dataclass(frozen=True)
class PartialObsSpec:
    """Unit-coefficient problem (A=0, B=1, Q=1) with partial observation.

    sigma_hat/sigma_tilde split the driving noise into observed and hidden
    parts, eta_hat/eta_tilde split the initial uncertainty accumulated on
    [0, s]; both splits must satisfy hat^2 + tilde^2 = 1.  Control starts at
    time s from the point estimate x.
    """

    sigma_hat: float
    sigma_tilde: float
    eta_hat: float
    eta_tilde: float
    s: float
    x: float
    T: float
    D1: float
    D2: float

    def __post_init__(self):
        for name in ("sigma_hat", "sigma_tilde", "eta_hat", "eta_tilde",
                     "s", "x", "T", "D1", "D2"):
            object.__setattr__(self, name, _finite_float(name, getattr(self, name)))
        for name in ("sigma_hat", "sigma_tilde", "eta_hat", "eta_tilde"):
            if getattr(self, name) < 0.0:
                raise AssumptionError(f"{name} must be >= 0")
        if abs(self.sigma_hat ** 2 + self.sigma_tilde ** 2 - 1.0) > 1e-12:
            raise AssumptionError(
                "noise split must satisfy sigma_hat^2 + sigma_tilde^2 = 1"
            )
        if abs(self.eta_hat ** 2 + self.eta_tilde ** 2 - 1.0) > 1e-12:
            raise AssumptionError(
                "initial split must satisfy eta_hat^2 + eta_tilde^2 = 1"
            )
        if not self.T > 0.0:
            raise AssumptionError(f"horizon T must be positive, got {self.T:.6g}")
        if not 0.0 <= self.s < self.T:
            raise AssumptionError(
                f"start time s = {self.s:.6g} must lie in [0, T) with T = {self.T:.6g}"
            )


def error_variance(spec: PartialObsSpec, t):
    """Variance P_t of the estimation error at time t in [s, T], or at each
    entry of an array of times.  Times up to 1e-12 max(1, T) outside [s, T]
    are accepted: s plus a time on the reduced clock [0, T - s] can round
    past T."""
    t = np.asarray(t, dtype=np.float64)
    slack = 1e-12 * max(1.0, spec.T)
    outside = (t < spec.s - slack) | (t > spec.T + slack)
    if outside.any():
        raise DomainError(f"t = {float(t[outside][0]):.6g} outside "
                          f"[{spec.s:.6g}, {spec.T:.6g}]")
    p = spec.eta_tilde ** 2 * spec.s + spec.sigma_tilde ** 2 * (t - spec.s)
    return float(p) if p.ndim == 0 else p


def reduced_problem(spec: PartialObsSpec) -> ProblemSpec:
    """The fully observed problem the prediction process solves.

    Time is shifted so the reduced problem runs on [0, T - s]; its time tau
    corresponds to s + tau in the original clock.
    """
    return ProblemSpec(A=0.0, B=1.0, sigma=spec.sigma_hat, Q=1.0,
                       D1=spec.D1, D2=spec.D2, T=spec.T - spec.s)


@dataclass(frozen=True)
class Reduction:
    """The fully observed scalar problem a command runs on.

    A partially observed spec becomes its reduced problem for the prediction
    process: control starts from N(x, var0) with var0 = eta_hat^2 s, and the
    estimation error adds the constant comp = D1 P_T to every cost.  A fully
    observed spec is its own reduction, with var0 = comp = 0.
    """

    problem: ProblemSpec
    partial: PartialObsSpec | None = None
    var0: float = 0.0
    comp: float = 0.0

    @classmethod
    def of(cls, spec) -> "Reduction":
        if isinstance(spec, ProblemSpec):
            return cls(spec)
        return cls(reduced_problem(spec), spec, spec.eta_hat ** 2 * spec.s,
                   spec.D1 * error_variance(spec, spec.T))

    @property
    def kind(self) -> str:
        return "scalar" if self.partial is None else "partial_obs"

    def moments(self, x: float) -> MeasureMoments:
        """Moments of the law control starts from at the point estimate x."""
        return MeasureMoments(x, x * x + self.var0)

    def value(self, sol: RiccatiSolution, x: float) -> float:
        """Optimal value from x, read off a Riccati solution of `problem`."""
        return value_function(sol, 0.0, self.moments(x)) + self.comp

    def oracle(self, coefs: CostCoefficients, x: float) -> CostReport:
        """Oracle cost from x of a law on `problem` with cost coefficients
        `coefs`, comp added to the terminal constant, as in value."""
        e1, e2, e0 = coefs.terminal
        return CostCoefficients((e1, e2, e0 + self.comp),
                                coefs.running).cost(self.moments(x))

    def initial(self, x: float) -> float | tuple:
        """The law evolve_cloud starts the prediction cloud from at the point
        estimate x: N(x, var0) as a (mean, var) pair when s > 0, the Dirac
        at x otherwise."""
        if self.partial is not None and self.partial.s > 0.0:
            return (x, self.var0)
        return x

    def error(self, config: SimConfig) -> np.ndarray | float:
        """The estimation error E_T per path, 0.0 for a fully observed spec.

        E_T is the sum of its two independent sources,
        eta_tilde sqrt(s) Z0 + sigma_tilde sqrt(T - s) Z1, drawn on the child
        SFC64 stream of SeedSequence(seed).spawn(1)[0], child 0 of the seed,
        a key that evolve_cloud's root (the initial cloud) and block children
        1, 2, ... never use, so it never shifts the prediction cloud's draws.
        No cost term reads E before T.
        """
        spec = self.partial
        if spec is None:
            return 0.0
        child = np.random.SeedSequence(config.seed).spawn(1)[0]
        z = np.random.Generator(np.random.SFC64(child)).standard_normal(
            (2, config.n_paths))
        return (spec.eta_tilde * math.sqrt(spec.s) * z[0]
                + spec.sigma_tilde * math.sqrt(spec.T - spec.s) * z[1])


def cost_decomposition_check(red: Reduction, cloud: CloudTrajectory, err,
                             full: CostReport) -> tuple[float, float]:
    """Defect J - J_hat - D1 P_T of one run, and its standard error.

    full is the run's cost_from_cloud of the per-path full state X_hat + E
    (a J built from m2_hat + P_t would make the defect vanish by
    construction); J_hat is cost_from_cloud of the prediction cloud alone.
    The defect vanishes in expectation.  Its standard error comes from the per-path difference
    D1 (2 X_hat E + E^2) + 2 D2 m1_hat E - D1 P_T, whose sample mean is the
    defect up to the quadratic-in-mean terminal term.
    """
    pred = cost_from_cloud(red.problem, cloud.states, cloud.run_costs)
    d1, d2, xh = red.problem.D1, red.problem.D2, cloud.states
    psi = d1 * (2.0 * xh * err + err * err) + 2.0 * d2 * cloud.m1[-1] * err
    se = float(psi.std(ddof=1)) / math.sqrt(xh.size)
    return full.total - pred.total - red.comp, se


def partial_trajectory_to_csv(spec: PartialObsSpec, cloud: CloudTrajectory,
                              path) -> None:
    """Write columns t, P_t, m1_hat, m2_hat, m2 of a prediction cloud on the
    reduced clock tau: t = s + tau, and m2 = m2_hat + P_t is the full-state
    second moment given the cloud."""
    times = spec.s + cloud.times
    p = error_variance(spec, times)
    _write_csv(path, ["t", "P_t", "m1_hat", "m2_hat", "m2"],
               [times, p, cloud.m1, cloud.m2, cloud.m2 + p])
