"""Cost verification: a deterministic moment oracle and Monte Carlo simulation.

Any feedback of the form u = alpha(t) x + beta(t) m1 keeps a coupled system of
mean-field particles inside the Gaussian family, so the exact cost of such a
law is computable from two moment ODEs (the "oracle"):

    m1' = (A + B (alpha + beta)) m1
    m2' = 2 (A + B alpha) m2 + 2 B beta m1^2 + sigma^2

    running integrand  Q * (alpha^2 m2 + (2 alpha beta + beta^2) m1^2)
    terminal cost      D1 m2(T) + D2 m1(T)^2

The Monte Carlo route simulates n interacting particles with Euler-Maruyama,
coupling each through the empirical mean of the same cloud, and estimates the
cost with a left-endpoint quadrature of the running integrand.  Both routes
accept the same FeedbackLaw, which is what makes the cross-check meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import _kernels
from .control import FeedbackLaw
from .errors import DomainError, SimulationDivergedError
from .model import ParticleCloud, ProblemSpec
from .riccati import _grid, rk4, stage_times

__all__ = [
    "SimConfig",
    "CostReport",
    "CloudTrajectory",
    "GaussianityReport",
    "EM_BIAS_CONST",
    "cost_oracle",
    "evolve_cloud",
    "cost_from_cloud",
    "simulate_mc",
    "gaussianity_check",
    "mc_tolerance",
    "perturbation_sweep",
    "trajectory_to_csv",
]

# Target element count per pre-drawn increment block.  One block is allocated
# per run and refilled for every chunk of steps, which caps the increments at
# ~64 MB of float64 without changing results (the normal stream is consumed
# in the same order regardless of block shape).
_CHUNK_ELEMENTS = 8_000_000

# Euler-Maruyama carries an O(dt) weak bias on the cost; this constant sets
# how much of it the oracle-vs-MC comparison budgets for, per unit dt.
EM_BIAS_CONST = 10.0


def mc_tolerance(std_error: float, dt: float) -> float:
    """Acceptance band for |MC - oracle|: statistical noise plus weak bias."""
    return 3.0 * float(std_error) + EM_BIAS_CONST * float(dt)

InitialLaw = Union[float, int, tuple, ParticleCloud]


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run parameters.  The seed fully determines the run."""

    n_paths: int = 100_000
    dt: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_paths", int(self.n_paths))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "seed", int(self.seed))
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths}")
        if not self.dt > 0.0:
            raise DomainError(f"dt must be positive, got {self.dt:.6g}")


@dataclass(frozen=True)
class CostReport:
    """Cost split into running and terminal parts, with a standard error.

    The oracle reports std_error = 0 (it is exact up to the ODE grid); the
    Monte Carlo estimate carries a delta-method standard error combining the
    running-cost sample variance with the variance of the linearized terminal
    functional.
    """

    total: float
    running: float
    terminal: float
    std_error: float
    n_paths: int


@dataclass(frozen=True, eq=False)
class CloudTrajectory:
    """Empirical moments recorded at every step plus the final cloud."""

    times: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    states: np.ndarray
    run_costs: np.ndarray

    def final_cloud(self) -> ParticleCloud:
        return ParticleCloud(self.states)


@dataclass(frozen=True)
class GaussianityReport:
    skewness: float
    excess_kurtosis: float
    degenerate: bool


def _steps_for(horizon: float, dt: float) -> int:
    n = int(round(horizon / dt))
    if n < 1 or abs(n * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise DomainError(
            f"dt = {dt:.6g} does not divide the horizon {horizon:.6g} evenly"
        )
    return n


def _moment_pass(spec: ProblemSpec, laws, m1_0: float, m2_0: float,
                 steps: int):
    """One RK4 pass of the moment ODEs for every law in `laws` at once.

    Returns (m1, m2, running cost) at T: floats for a single law (stepping
    floats is several times faster than width-1 arrays), arrays with one
    entry per law otherwise.  Coefficients and gains are tabulated once at
    the stage times.
    """
    nodes = _grid(spec.T, steps)
    m1_0 = float(m1_0)
    m2_0 = float(m2_0)
    if m2_0 - m1_0 * m1_0 < -1e-12 * max(1.0, abs(m2_0)):
        raise DomainError(
            f"inconsistent initial moments: m2 - m1^2 = {m2_0 - m1_0 * m1_0:.3e}"
        )
    T = spec.T
    if any(law.T < T - 1e-12 * max(1.0, T) for law in laws):
        raise DomainError("feedback law does not cover the horizon")
    times = stage_times(nodes)
    a = spec.A.on(times).tolist()
    b = spec.B.on(times).tolist()
    sig = spec.sigma.on(times)
    s2 = (sig * sig).tolist()
    q = spec.Q.on(times).tolist()
    gains = [law.gains_on(times) for law in laws]
    if len(laws) == 1:
        al, be = gains[0][0].tolist(), gains[0][1].tolist()
        y0 = [m1_0, m2_0, 0.0]
    else:
        al = np.column_stack([g[0] for g in gains])
        be = np.column_stack([g[1] for g in gains])
        y0 = [np.full(len(laws), m1_0), np.full(len(laws), m2_0),
              np.zeros(len(laws))]

    def rhs(j, y):
        m1, m2, _ = y
        alj, bej, aj, bj = al[j], be[j], a[j], b[j]
        dm1 = (aj + bj * (alj + bej)) * m1
        dm2 = 2.0 * (aj + bj * alj) * m2 + 2.0 * bj * bej * m1 * m1 + s2[j]
        drun = q[j] * (alj * alj * m2 + (2.0 * alj * bej + bej * bej) * m1 * m1)
        return dm1, dm2, drun

    m1, m2, run = rk4(rhs, y0, nodes, ("moments",) * 3)
    return m1[-1], m2[-1], run[-1]


def cost_oracle(spec: ProblemSpec, law: FeedbackLaw, m1_0: float, m2_0: float,
                steps: int = 2000) -> CostReport:
    """Exact cost of a linear feedback law via the moment ODEs, RK4 on a
    uniform grid of `steps` intervals over [0, T]."""
    m1, m2, run = (float(v) for v in _moment_pass(spec, [law], m1_0, m2_0, steps))
    terminal = spec.D1 * m2 + spec.D2 * m1 * m1
    return CostReport(total=run + terminal, running=run, terminal=terminal,
                      std_error=0.0, n_paths=0)


def _resolve_initial(initial: InitialLaw, n_paths: int, rng) -> np.ndarray:
    """Build the initial cloud.  A number means a Dirac mass (no randomness),
    a (mean, var) pair means a Gaussian sample, a ParticleCloud is used as is
    and must match n_paths."""
    if isinstance(initial, ParticleCloud):
        if initial.states.size != n_paths:
            raise DomainError(
                f"initial cloud has {initial.states.size} particles, expected {n_paths}"
            )
        return initial.states.copy()
    if isinstance(initial, tuple):
        if len(initial) != 2:
            raise DomainError("Gaussian initial law must be a (mean, var) pair")
        mean, var = float(initial[0]), float(initial[1])
        if var < 0.0:
            raise DomainError(f"initial variance must be >= 0, got {var:.6g}")
        return mean + math.sqrt(var) * rng.standard_normal(n_paths)
    if isinstance(initial, (int, float)) and not isinstance(initial, bool):
        return np.full(n_paths, float(initial))
    raise DomainError(f"cannot interpret {initial!r} as an initial law")


def evolve_cloud(spec: ProblemSpec, law: FeedbackLaw, initial: InitialLaw,
                 config: SimConfig, t_stop: float | None = None) -> CloudTrajectory:
    """Euler-Maruyama for the interacting particle system up to t_stop (default T).

    For a fixed config the result is bit-identical across runs and across
    chunk sizes: all normal increments come from one Philox stream drawn
    outside the stepping kernel, step by step.
    """
    T = spec.T
    t_stop = T if t_stop is None else float(t_stop)
    if not 0.0 < t_stop <= T + 1e-12 * max(1.0, T):
        raise DomainError(f"t_stop = {t_stop:.6g} outside (0, {T:.6g}]")
    t_stop = min(t_stop, T)
    n_steps = _steps_for(t_stop, config.dt)
    n = config.n_paths
    dt = config.dt
    times = np.linspace(0.0, t_stop, n_steps + 1)
    left = times[:-1]

    a_k = spec.A.on(left)
    b_k = spec.B.on(left)
    s_sqdt = spec.sigma.on(left) * math.sqrt(dt)
    q_dt = spec.Q.on(left) * dt
    al_k, be_k = law.gains_on(left)
    al_k = np.ascontiguousarray(al_k)
    be_k = np.ascontiguousarray(be_k)

    rng = np.random.Generator(np.random.Philox(config.seed))
    x = _resolve_initial(initial, n, rng)
    run = np.zeros(n)
    m1 = np.empty(n_steps + 1)
    m2 = np.empty(n_steps + 1)

    chunk = max(1, _CHUNK_ELEMENTS // max(1, n))
    block = np.empty((min(chunk, n_steps), n))
    k0 = 0
    while k0 < n_steps:
        k1 = min(n_steps, k0 + chunk)
        z = rng.standard_normal(out=block[:k1 - k0])
        _kernels.mc_chunk(x, run, z, a_k[k0:k1], b_k[k0:k1], s_sqdt[k0:k1],
                          q_dt[k0:k1], al_k[k0:k1], be_k[k0:k1], dt,
                          m1[k0:k1], m2[k0:k1])
        if not np.isfinite(x).all():
            raise SimulationDivergedError(
                f"particle state became non-finite before t = {times[k1]:.6g}"
            )
        k0 = k1
    m1[n_steps] = x.sum() / n
    m2[n_steps] = (x * x).sum() / n
    return CloudTrajectory(times=times, m1=m1, m2=m2, states=x, run_costs=run)


def cost_from_cloud(spec, states: np.ndarray, run_costs: np.ndarray) -> CostReport:
    """Monte Carlo cost of a terminal cloud and its per-path running costs.

    spec supplies the terminal weights D1 and D2.  The standard error is a
    delta-method estimate: D1 m2 + D2 m1^2 has influence function
    D1 x^2 + 2 D2 m1 x.
    """
    x = states
    run = run_costs
    n = x.size
    m1_T = float(x.sum() / n)
    m2_T = float((x * x).sum() / n)
    running = float(run.mean())
    terminal = spec.D1 * m2_T + spec.D2 * m1_T * m1_T
    if n >= 2:
        g = spec.D1 * x * x + 2.0 * spec.D2 * m1_T * x
        se = math.sqrt(run.var(ddof=1) / n + g.var(ddof=1) / n)
    else:
        se = 0.0
    return CostReport(total=running + terminal, running=running,
                      terminal=terminal, std_error=se, n_paths=n)


def simulate_mc(spec: ProblemSpec, law: FeedbackLaw, initial: InitialLaw,
                config: SimConfig) -> CostReport:
    """Monte Carlo estimate of the cost of a feedback law over [0, T]."""
    traj = evolve_cloud(spec, law, initial, config)
    return cost_from_cloud(spec, traj.states, traj.run_costs)


def gaussianity_check(states: np.ndarray) -> GaussianityReport:
    """Sample skewness and excess kurtosis of a particle cloud.

    Under a linear law started from Gaussian or Dirac data both should vanish;
    a degenerate (numerically zero-variance) cloud is flagged instead of
    producing 0/0 noise.
    """
    x = states
    m = x.mean()
    c = x - m
    v = float((c * c).mean())
    scale = max(1.0, float((x * x).mean()))
    if v < 1e-18 * scale:
        return GaussianityReport(float("nan"), float("nan"), True)
    skew = float((c ** 3).mean()) / v ** 1.5
    exk = float((c ** 4).mean()) / (v * v) - 3.0
    return GaussianityReport(skew, exk, False)


def perturbation_sweep(spec: ProblemSpec, base: FeedbackLaw, deltas,
                       m1_0: float, m2_0: float, steps: int = 2000) -> list[tuple]:
    """Oracle cost of the base law under constant gain offsets.

    deltas is an iterable of (d_alpha, d_beta) pairs; returns
    [((d_alpha, d_beta), total_cost), ...] in input order.  All offsets run
    in one moment pass, each column bit for bit its own cost_oracle call.
    """
    deltas = [(float(da), float(db)) for da, db in deltas]
    if not deltas:
        return []
    laws = [base.shifted(da, db) for da, db in deltas]
    m1, m2, run = _moment_pass(spec, laws, m1_0, m2_0, steps)
    totals = run + (spec.D1 * m2 + spec.D2 * m1 * m1)
    return [(d, float(total)) for d, total in zip(deltas, np.atleast_1d(totals))]


def trajectory_to_csv(traj: CloudTrajectory, path) -> None:
    """Write columns t, m1, m2."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "m1", "m2"])
        for i in range(traj.times.size):
            writer.writerow([repr(float(traj.times[i])), repr(float(traj.m1[i])),
                             repr(float(traj.m2[i]))])
