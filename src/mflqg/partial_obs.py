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

Simulation follows the same split: the prediction cloud is the fully observed
particle engine run on the reduced problem, and E, which no cost term reads
before T, is drawn once at T from its own stream.  The reduced problem's
closed form is riccati.closed_form(reduced_problem(spec)).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .control import FeedbackLaw, optimal_feedback, value_function
from .errors import AssumptionError, DomainError
from .model import MeasureMoments, ProblemSpec
from .riccati import RiccatiSolution
from .simulate import CostReport, SimConfig, cost_from_cloud, evolve_cloud

__all__ = [
    "PartialObsSpec",
    "PartialTrajectory",
    "DecompositionReport",
    "error_variance",
    "reduced_problem",
    "partial_value",
    "optimal_prediction_feedback",
    "evolve_partial",
    "simulate_partial",
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
            object.__setattr__(self, name, float(getattr(self, name)))
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


def error_variance(spec: PartialObsSpec, t: float) -> float:
    """Variance P_t of the estimation error at time t in [s, T]."""
    t = float(t)
    if t < spec.s or t > spec.T:
        raise DomainError(f"t = {t:.6g} outside [{spec.s:.6g}, {spec.T:.6g}]")
    return spec.eta_tilde ** 2 * spec.s + spec.sigma_tilde ** 2 * (t - spec.s)


def reduced_problem(spec: PartialObsSpec) -> ProblemSpec:
    """The fully observed problem the prediction process solves.

    Time is shifted so the reduced problem runs on [0, T - s]; its time tau
    corresponds to s + tau in the original clock.
    """
    return ProblemSpec(A=0.0, B=1.0, sigma=spec.sigma_hat, Q=1.0,
                       D1=spec.D1, D2=spec.D2, T=spec.T - spec.s)


def partial_value(spec: PartialObsSpec, phi: RiccatiSolution) -> float:
    """Optimal value of the partially observed problem from a reduced-problem
    Riccati solution: evaluate the ansatz at the initial law N(x, eta_hat^2 s)
    and add the uncontrollable terminal error cost D1 * P_T."""
    horizon = spec.T - spec.s
    if abs(phi.T - horizon) > 1e-9 * max(1.0, horizon):
        raise DomainError(
            f"solution horizon {phi.T:.6g} does not match T - s = {horizon:.6g}"
        )
    mu = MeasureMoments(spec.x, spec.x * spec.x + spec.eta_hat ** 2 * spec.s)
    return value_function(phi, 0.0, mu) + spec.D1 * error_variance(spec, spec.T)


def optimal_prediction_feedback(spec: PartialObsSpec, phi: RiccatiSolution) -> FeedbackLaw:
    """Optimal feedback for the prediction process, on the shifted clock."""
    return optimal_feedback(reduced_problem(spec), phi)


@dataclass(frozen=True, eq=False)
class PartialTrajectory:
    """Per-step moments of the prediction cloud and of the full state.

    times are on the original clock (from s to T).  p is the exact error
    variance P_t, not an estimate, and m2 = m2_hat + p is the full-state
    second moment given the prediction cloud.  err holds the estimation
    error at T only.
    """

    times: np.ndarray
    m1_hat: np.ndarray
    m2_hat: np.ndarray
    m2: np.ndarray
    p: np.ndarray
    xhat: np.ndarray
    err: np.ndarray
    run_costs: np.ndarray


def evolve_partial(spec: PartialObsSpec, law: FeedbackLaw,
                   config: SimConfig) -> PartialTrajectory:
    """Simulate X_hat on [s, T] and draw the estimation error E at T.

    X_hat is evolve_cloud on the reduced problem from N(x, eta_hat^2 s) (a
    Dirac at x when s = 0), so the law is consumed on the shifted clock
    tau = t - s, matching optimal_prediction_feedback.  E_T is the sum of its
    two independent sources, eta_tilde sqrt(s) Z0 + sigma_tilde sqrt(T - s) Z1,
    drawn on a child stream spawned from the seed, so the error never shifts
    the prediction's draws.
    """
    initial = (spec.x, spec.eta_hat ** 2 * spec.s) if spec.s > 0.0 else spec.x
    cloud = evolve_cloud(reduced_problem(spec), law, initial, config)
    child = np.random.SeedSequence(config.seed).spawn(1)[0]
    z = np.random.Generator(np.random.Philox(child)).standard_normal(
        (2, config.n_paths))
    err = (spec.eta_tilde * math.sqrt(spec.s) * z[0]
           + spec.sigma_tilde * math.sqrt(spec.T - spec.s) * z[1])
    times = spec.s + cloud.times
    p = spec.eta_tilde ** 2 * spec.s + spec.sigma_tilde ** 2 * (times - spec.s)
    return PartialTrajectory(times=times, m1_hat=cloud.m1, m2_hat=cloud.m2,
                             m2=cloud.m2 + p, p=p, xhat=cloud.states, err=err,
                             run_costs=cloud.run_costs)


def simulate_partial(spec: PartialObsSpec, law: FeedbackLaw,
                     config: SimConfig) -> CostReport:
    """Monte Carlo cost of a prediction-feedback law, measured on the full
    state X = X_hat + E (running cost plus terminal cost at T)."""
    traj = evolve_partial(spec, law, config)
    return cost_from_cloud(spec, traj.xhat + traj.err, traj.run_costs)


@dataclass(frozen=True)
class DecompositionReport:
    """One-run comparison of the full cost J against the prediction cost
    J_hat plus the uncontrollable error compensation D1 * P_T."""

    total: float
    prediction_total: float
    error_compensation: float
    defect: float
    defect_std_error: float
    n_paths: int


def cost_decomposition_check(spec: PartialObsSpec,
                             traj: PartialTrajectory) -> DecompositionReport:
    """Estimate J and J_hat from the same particles of one trajectory and
    report the defect J - J_hat - D1 * P_T, which should vanish in expectation.
    J reads the per-path full state X_hat + E, never traj.m2, which is built
    from P_T and would make the defect vanish by construction.

    The defect's standard error comes from the per-path difference
    D1 (2 X_hat E + E^2) + 2 D2 m1_hat E - D1 P_T, whose sample mean is the
    defect up to the quadratic-in-mean terminal term.
    """
    xh = traj.xhat
    e = traj.err
    x = xh + e
    n = x.size
    running = float(traj.run_costs.mean())
    m1x = float(x.mean())
    m2x = float((x * x).sum() / n)
    m1h = float(xh.mean())
    total = running + spec.D1 * m2x + spec.D2 * m1x * m1x
    pred = running + spec.D1 * float(traj.m2_hat[-1]) + spec.D2 * m1h * m1h
    comp = spec.D1 * error_variance(spec, spec.T)
    defect = total - pred - comp
    if n >= 2:
        psi = spec.D1 * (2.0 * xh * e + e * e) + 2.0 * spec.D2 * m1h * e
        se = float(psi.std(ddof=1)) / math.sqrt(n)
    else:
        se = 0.0
    return DecompositionReport(total=total, prediction_total=pred,
                               error_compensation=comp, defect=defect,
                               defect_std_error=se, n_paths=n)


def partial_trajectory_to_csv(traj: PartialTrajectory, path) -> None:
    """Write columns t, P_t, m1_hat, m2_hat, m2 (= m2_hat + P_t)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "P_t", "m1_hat", "m2_hat", "m2"])
        for i in range(traj.times.size):
            writer.writerow(
                [repr(float(traj.times[i])), repr(float(traj.p[i])),
                 repr(float(traj.m1_hat[i])), repr(float(traj.m2_hat[i])),
                 repr(float(traj.m2[i]))]
            )
