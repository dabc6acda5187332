"""verify's check battery: what each check measures, its band and its verdict.

battery returns the checks of one problem, in order, with the residual-sweep
rows, and writes nothing: a run that stops on an error leaves no file.
monte_carlo, one seeded particle run and its mc-vs-oracle verdict, is also
simulate's within_threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import optimal_feedback, residual_sweep
from .errors import DomainError, SimulationDivergedError
from .model import MeasureMoments
from .partial_obs import Reduction, cost_decomposition_check
from .riccati import closed_form, solve_riccati
from .simulate import (CloudTrajectory, CostReport, SimConfig,
                       cost_coefficients, cost_from_cloud, evolve_cloud,
                       gaussianity_check)

__all__ = ["Check", "MonteCarlo", "EM_BIAS_CONST", "mc_tolerance",
           "monte_carlo", "battery"]

# Euler-Maruyama carries an O(dt) weak bias on the cost; this constant sets
# how much of it the oracle-vs-MC comparison budgets for, per unit dt.
EM_BIAS_CONST = 10.0


def mc_tolerance(std_error: float, dt: float) -> float:
    """Acceptance band for |MC - oracle|: statistical noise plus weak bias."""
    return 3.0 * float(std_error) + EM_BIAS_CONST * float(dt)


@dataclass
class Check:
    name: str
    passed: bool
    measured: float | None  # None: the check stopped before measuring
    threshold: float
    detail: str


@dataclass(frozen=True, eq=False)
class MonteCarlo:
    """One seeded particle run and its verdict against the oracle."""

    cloud: CloudTrajectory   # the controlled (prediction) process
    err: np.ndarray | float  # E_T per path, 0.0 when fully observed
    mc: CostReport           # cost of the full state cloud.states + err
    oracle: CostReport
    check: Check             # mc-vs-oracle


def monte_carlo(red: Reduction, law, sim: SimConfig, x0: float,
                oracle: CostReport) -> MonteCarlo:
    """Run the particles from x0, estimate the full-state cost and compare it
    with `oracle`, the law's oracle cost from x0: simulate's
    within_threshold is verify's mc-vs-oracle check.  A statistic or a
    recorded moment that overflows is a diverged simulation: an infinite
    band cannot fail, and trajectory.csv must not hold inf.  So is a noisy
    cloud whose spread is lost in rounding: its band would measure rounding."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        cloud = evolve_cloud(red.problem, law, red.initial(x0), sim)
        err = red.error(sim)
        full = cloud.states + err
        mc = cost_from_cloud(red.problem, full, cloud.run_costs)
    for name, value in (("total", mc.total), ("std_error", mc.std_error)):
        if not math.isfinite(value):
            raise SimulationDivergedError(
                f"Monte Carlo {name} from x = {x0!r} is {value}, not finite")
    for name, values in (("m1", cloud.m1), ("m2", cloud.m2)):
        bad = values[~np.isfinite(values)]
        if bad.size:
            raise SimulationDivergedError(
                f"Monte Carlo {name} from x = {x0!r} reaches {float(bad[0])}, "
                f"not finite")
    # The spread about one particle is exact while all lie within a factor 2
    # of it; example1 reads about 7 eps max|x| at x = 1e15, about 1 at 1e16.
    spread = float(np.std(full - full[0]))
    floor = 4.0 * np.finfo(float).eps * float(np.abs(full).max())
    noisy = red.var0 > 0.0 or red.problem.sigma.on(cloud.times[:-1]).any()
    if noisy and spread <= floor:
        raise SimulationDivergedError(
            f"Monte Carlo spread from x = {x0!r} is {spread:.3e}, within "
            f"4 eps max|x| = {floor:.3e}: the noise is lost in rounding")
    gap = abs(mc.total - oracle.total)
    tol = mc_tolerance(mc.std_error, sim.dt)
    check = Check("mc-vs-oracle", gap <= tol, gap, tol,
                  f"|MC - oracle| = {gap:.3e}, band {tol:.3e}")
    return MonteCarlo(cloud, err, mc, oracle, check)


def _gaussianity_entry(states) -> Check:
    gauss = gaussianity_check(states)
    if gauss.degenerate:
        return Check("gaussianity", True, gauss.variance, gauss.variance_floor,
                     f"degenerate cloud: variance {gauss.variance:.3e} below "
                     f"{gauss.variance_floor:.3e}")
    stats = [(abs(gauss.skewness), 0.05), (abs(gauss.excess_kurtosis), 0.1)]
    # The statistic that fails its band if one does, else the nearer one.
    measured, threshold = max(stats, key=lambda p: (p[0] >= p[1], p[0] / p[1]))
    return Check("gaussianity", measured < threshold, measured, threshold,
                 f"skew {gauss.skewness:.4f}, excess kurtosis "
                 f"{gauss.excess_kurtosis:.4f}")


# Constant gain offsets of perturbation-margin: the zero offset, then each
# size with both signs on alpha, then on beta.
_SIZES = np.array([0.05, 0.1, 0.2, 0.4])
_OFFSETS = [sign * d for d in _SIZES.tolist() for sign in (1.0, -1.0)]
_DELTAS = [(0.0, 0.0)] + [(o, 0.0) for o in _OFFSETS] + [(0.0, o) for o in _OFFSETS]


def _perturbation_entry(totals) -> Check:
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
    return Check("perturbation-margin", bool((margins > 0.0).all()) and fit_ok,
                 worst_dev, 0.2, "; ".join(details))


def battery(spec, red: Reduction | None, result, sol, x0: float, steps: int,
            sim: SimConfig) -> tuple[list[Check], list | None]:
    """verify's checks of one problem, in order, and the residual-sweep rows
    (None unless a scalar kind was solved).  result validates spec (a
    matrix problem, red None) or red.problem; sol is that problem's Riccati
    solution on `steps` intervals, None if result failed, which stops the
    battery after assumptions.  A scalar kind runs from x0 with the
    particle settings `sim`; analytic-phi runs where closed_form covers the
    solved problem, and a partially observed problem adds cost-decomposition.
    """
    weight = "eigenvalue of Q" if red is None else "Q"
    seen = "not measured" if result.q_min is None else f"{result.q_min:.3e}"
    checks = [Check("assumptions", result.ok, result.q_min, 0.0,
                    f"{result.message}; smallest {weight} on the grid {seen}, "
                    f"must be > 0")]
    if sol is None:
        return checks, None
    # phi(T) must equal (D1, D2, 0) exactly; a NaN in the defects makes the
    # gap NaN and fails the check.
    defects = [sol.phi1[-1] - spec.D1, sol.phi2[-1] - spec.D2, sol.phi3[-1]]
    gap = float(np.max([np.abs(d).max() for d in defects]))
    checks.append(Check("terminal-exactness", gap == 0.0, gap, 0.0,
                        f"max |phi(T) - (D1, D2, 0)| = {gap:.3e}, must be exact"))

    if red is None:
        asym = max(float(np.abs(sol.phi1 - sol.phi1.transpose(0, 2, 1)).max()),
                   float(np.abs(sol.phi2 - sol.phi2.transpose(0, 2, 1)).max()))
        sol2 = solve_riccati(spec, 2 * steps)
        gap = max(float(np.abs(sol.phi1[0] - sol2.phi1[0]).max()),
                  float(np.abs(sol.phi2[0] - sol2.phi2[0]).max()),
                  abs(float(sol.phi3[0]) - float(sol2.phi3[0])))
        return checks + [Check("symmetry", asym <= 1e-10, asym, 1e-10,
                               f"max |phi - phi^T| = {asym:.3e}"),
                         Check("grid-refinement", gap <= 1e-6, gap, 1e-6,
                               f"|phi(0) - refined phi(0)| = {gap:.3e}")], None

    problem = red.problem
    law = optimal_feedback(problem, sol)
    try:
        ref = closed_form(problem, steps)
    except DomainError:
        pass  # no closed form for this problem, so no analytic-phi
    else:
        err = max(float(np.abs(a - b).max()) for a, b in
                  zip((sol.phi1, sol.phi2, sol.phi3), (ref.phi1, ref.phi2, ref.phi3)))
        checks.append(Check("analytic-phi", err <= 1e-8, err, 1e-8,
                            f"max |phi - closed form| = {err:.3e}"))

    rng = np.random.Generator(np.random.Philox(12345))
    ts = rng.uniform(0.1 * problem.T, 0.9 * problem.T, 100)
    m1 = rng.uniform(-1.0, 1.0, 100)
    extra = rng.uniform(0.0, 0.25, 100)
    mus = [MeasureMoments(float(a), float(a * a + b)) for a, b in zip(m1, extra)]
    rows = residual_sweep(problem, sol, zip(ts, mus))
    worst = max(abs(r[3]) for r in rows)
    checks.append(Check("residual-sweep", worst <= 1e-6, worst, 1e-6,
                        f"max |residual| = {worst:.3e} over 100 draws"))

    # One refined grid, at least twice the working one, serves as the
    # reference of value-consistency and as the grid of the oracle checks.
    fine_steps = max(2000, 2 * steps)
    sol_fine = solve_riccati(problem, fine_steps)
    law_fine = optimal_feedback(problem, sol_fine)
    v1 = red.value(sol, x0)
    gap = abs(v1 - red.value(sol_fine, x0))
    band = max(1e-6, 1e-12 * abs(v1))
    checks.append(Check("value-consistency", gap <= band, gap, band,
                        f"value {v1:.9f}, refined-grid shift {gap:.3e}"))

    # One coefficient pass on the refined grid: law_fine under each of
    # _DELTAS, then `law` for mc-vs-oracle.  oracle-vs-value compares the
    # optimal law's cost coefficients with phi_fine(0).
    coefs = cost_coefficients(
        problem, [law_fine.shifted(*d) for d in _DELTAS] + [law], fine_steps)
    phi0 = sol_fine.at(0.0)
    gap = max(abs(e + r - p) for e, r, p in
              zip(coefs[0].terminal, coefs[0].running, phi0))
    band = 1e-12 * max(1.0, *map(abs, phi0))
    mu = red.moments(x0)
    checks.append(Check("oracle-vs-value", gap <= band, gap, band,
                        f"max |c - phi(0)| = {gap:.3e} over the optimal law's "
                        f"cost coefficients"))
    checks.append(_perturbation_entry([c.cost(mu).total for c in coefs[:-1]]))

    run = monte_carlo(red, law, sim, x0, red.oracle(coefs[-1], x0))
    checks.append(run.check)
    checks.append(_gaussianity_entry(run.cloud.states))
    if red.partial is not None:
        defect, se = cost_decomposition_check(red, run.cloud, run.err, run.mc)
        part = red.partial
        tol = 1e-12 if part.sigma_tilde == 0.0 and part.eta_tilde == 0.0 else 3.0 * se
        checks.append(Check("cost-decomposition", abs(defect) <= tol,
                            abs(defect), tol,
                            f"defect {defect:.3e}, band {tol:.3e}"))
    return checks, rows
