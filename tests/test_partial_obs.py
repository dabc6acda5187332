import math

import numpy as np
import pytest

from mflqg import (AssumptionError, DomainError, PartialObsSpec, SimConfig,
                   closed_form, cost_decomposition_check, cost_oracle,
                   error_variance, evolve_cloud, evolve_partial, mc_tolerance,
                   optimal_prediction_feedback, partial_preset, partial_value,
                   reduced_problem, scalar_preset, simulate_partial,
                   solve_riccati)

ROOT_HALF = math.sqrt(0.5)


def test_spec_invariants():
    with pytest.raises(AssumptionError):
        PartialObsSpec(sigma_hat=1.0, sigma_tilde=1.0, eta_hat=1.0,
                       eta_tilde=0.0, s=0.0, x=1.0, T=1.0, D1=1.0, D2=0.0)
    with pytest.raises(AssumptionError):
        PartialObsSpec(sigma_hat=1.0, sigma_tilde=0.0, eta_hat=1.0,
                       eta_tilde=0.0, s=1.0, x=1.0, T=1.0, D1=1.0, D2=0.0)
    with pytest.raises(AssumptionError):
        PartialObsSpec(sigma_hat=-1.0, sigma_tilde=0.0, eta_hat=1.0,
                       eta_tilde=0.0, s=0.0, x=1.0, T=1.0, D1=1.0, D2=0.0)


def test_partial_preset_splits():
    spec = partial_preset("example3", sigma_hat2=0.25, eta_hat2=0.75)
    assert spec.sigma_hat ** 2 == pytest.approx(0.25)
    assert spec.sigma_tilde ** 2 == pytest.approx(0.75)
    assert spec.eta_hat ** 2 == pytest.approx(0.75)
    with pytest.raises(DomainError):
        partial_preset("example3", sigma_hat2=1.5)
    with pytest.raises(DomainError):
        partial_preset("example1")


def test_error_variance_formula():
    spec = partial_preset("example3", s=0.25, sigma_hat2=0.5, eta_hat2=0.5)
    # P_t = eta_tilde^2 s + sigma_tilde^2 (t - s)
    assert error_variance(spec, 0.25) == pytest.approx(0.5 * 0.25)
    assert error_variance(spec, 1.0) == pytest.approx(0.5 * 0.25 + 0.5 * 0.75)
    with pytest.raises(DomainError):
        error_variance(spec, 0.1)  # before s
    with pytest.raises(DomainError):
        error_variance(spec, 1.1)


def test_error_variance_vanishes_without_hidden_noise():
    spec = partial_preset("example3", sigma_hat2=1.0, eta_hat2=1.0, s=0.5)
    assert error_variance(spec, 1.0) == 0.0


def test_reduced_problem_fields():
    spec = partial_preset("example3", sigma_hat2=0.25, s=0.25)
    red = reduced_problem(spec)
    assert red.A(0.3) == 0.0
    assert red.B(0.3) == 1.0
    assert red.Q(0.3) == 1.0
    assert red.sigma(0.3) == pytest.approx(0.5)
    assert red.T == pytest.approx(0.75)
    assert (red.D1, red.D2) == (1.0, 0.0)


@pytest.mark.parametrize("sh2", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_example3_value_closed_form(sh2):
    # V at s = 0, x = 1, T = 1:  x^2/(1+T) + sh2 log(1+T) + (1-sh2) T
    spec = partial_preset("example3", sigma_hat2=sh2)
    sol = solve_riccati(reduced_problem(spec), 1000)
    v = partial_value(spec, sol)
    expected = 0.5 + sh2 * math.log(2.0) + (1.0 - sh2) * 1.0
    assert abs(v - expected) <= 1e-6


def test_example3_value_with_positive_start_time():
    spec = partial_preset("example3", s=0.25, sigma_hat2=0.5, eta_hat2=0.5, x=1.0)
    sol = solve_riccati(reduced_problem(spec), 1000)
    v = partial_value(spec, sol)
    rem = 0.75
    expected = (1.0 + 0.5 * 0.25) / (1.0 + rem) + 0.5 * math.log(1.0 + rem) \
        + (0.5 * 0.25 + 0.5 * rem)
    assert abs(v - expected) <= 1e-6


def test_example4_value_ignores_observability():
    values = []
    for sh2 in (0.0, 0.25, 0.5, 0.75, 1.0):
        spec = partial_preset("example4", sigma_hat2=sh2)
        sol = solve_riccati(reduced_problem(spec), 1000)
        values.append(partial_value(spec, sol))
    spread = max(values) - min(values)
    assert spread <= 1e-10
    assert values[0] == pytest.approx(0.5, abs=1e-6)  # x^2/(1+T-s)


def test_partial_value_checks_horizon():
    spec = partial_preset("example3", s=0.25)
    wrong = solve_riccati(reduced_problem(partial_preset("example3")), 100)
    with pytest.raises(DomainError):
        partial_value(spec, wrong)  # solved on [0, 1], needs [0, 0.75]


def test_analytic_partial_phi():
    # the partial closed form is the scalar one on the reduced problem
    spec = partial_preset("example3", sigma_hat2=0.5)
    p1, p2, p3 = closed_form(reduced_problem(spec)).at(0.0)
    assert p1 == pytest.approx(0.5)
    assert p2 == 0.0
    assert p3 == pytest.approx(0.5 * math.log(2.0))
    spec4 = partial_preset("example4")
    assert closed_form(reduced_problem(spec4)).at(1.0) == (0.0, 1.0, 0.0)
    full = closed_form(reduced_problem(partial_preset("example3", sigma_hat2=1.0)))
    assert np.array_equal(full.phi3, closed_form(scalar_preset("example1")).phi3)
    with pytest.raises(DomainError):
        closed_form(reduced_problem(spec)).at(1.5)


def test_numeric_solution_matches_analytic_solution():
    for name in ("example3", "example4"):
        for s in (0.0, 0.25):
            spec = partial_preset(name, s=s, sigma_hat2=0.5)
            sol = solve_riccati(reduced_problem(spec), 1000)
            ref = closed_form(reduced_problem(spec), 1000)
            err = max(np.abs(sol.phi1 - ref.phi1).max(),
                      np.abs(sol.phi2 - ref.phi2).max(),
                      np.abs(sol.phi3 - ref.phi3).max())
            assert err <= 1e-8, f"{name}, s={s}: {err:.3e}"


def test_prediction_feedback_gains():
    spec = partial_preset("example3")
    sol = solve_riccati(reduced_problem(spec), 100)
    law = optimal_prediction_feedback(spec, sol)
    assert np.array_equal(law.alpha, -sol.phi1)  # B = Q = 1


def test_evolve_partial_is_reproducible():
    spec = partial_preset("example3", sigma_hat2=0.5, s=0.25)
    sol = solve_riccati(reduced_problem(spec), 750)
    law = optimal_prediction_feedback(spec, sol)
    cfg = SimConfig(2000, 1e-3, 17)
    t1 = evolve_partial(spec, law, cfg)
    t2 = evolve_partial(spec, law, cfg)
    assert np.array_equal(t1.xhat, t2.xhat)
    assert np.array_equal(t1.err, t2.err)
    # clock runs from s to T, and p carries the exact error variance
    assert t1.times[0] == 0.25 and t1.times[-1] == 1.0
    assert t1.p[0] == pytest.approx(error_variance(spec, 0.25))
    assert t1.p[-1] == pytest.approx(error_variance(spec, 1.0))


@pytest.mark.parametrize("s", [0.0, 0.25])
def test_evolve_partial_is_evolve_cloud_on_reduced_problem(s):
    # X_hat is the fully observed engine on the reduced problem, bit for bit;
    # E is drawn at T only, and its variance is the closed-form P_T.
    spec = partial_preset("example3", sigma_hat2=0.5, eta_hat2=0.5, s=s)
    reduced = reduced_problem(spec)
    law = optimal_prediction_feedback(spec, solve_riccati(reduced, 1000))
    n = 20_000
    cfg = SimConfig(n, 1e-2, 13)
    traj = evolve_partial(spec, law, cfg)
    initial = (spec.x, spec.eta_hat ** 2 * s) if s > 0.0 else spec.x
    cloud = evolve_cloud(reduced, law, initial, cfg)
    assert np.array_equal(traj.xhat, cloud.states)
    assert np.array_equal(traj.m1_hat, cloud.m1)
    assert np.array_equal(traj.m2_hat, cloud.m2)
    assert np.array_equal(traj.run_costs, cloud.run_costs)
    assert np.array_equal(traj.m2, traj.m2_hat + traj.p)
    assert traj.p.tolist() == [error_variance(spec, float(t)) for t in traj.times]
    p_T = error_variance(spec, spec.T)
    se = p_T * math.sqrt(2.0 / (n - 1))
    assert abs(traj.err.var(ddof=1) - p_T) <= 4.0 * se


def test_hidden_noise_stream_is_independent():
    # changing the split must not change which numbers drive the prediction:
    # with eta fixed, the hat-noise draws are the same for both sigma splits
    cfg = SimConfig(500, 1e-2, 23)
    trajs = []
    for sh2 in (0.25, 1.0):
        spec = partial_preset("example3", sigma_hat2=sh2)
        sol = solve_riccati(reduced_problem(spec), 100)
        law = optimal_prediction_feedback(spec, sol)
        trajs.append(evolve_partial(spec, law, cfg))
    # same seed, same gains structure: the scaled increments differ only by
    # sigma_hat, so rescaling one trajectory's noise reproduces the other's err
    e1, e2 = trajs[0].err, trajs[1].err
    assert np.allclose(e2, 0.0)                      # sigma_tilde = 0 there
    assert not np.allclose(e1, 0.0)


def test_estimation_error_uncorrelated_with_prediction():
    spec = partial_preset("example3", sigma_hat2=0.5, eta_hat2=0.5, s=0.25)
    sol = solve_riccati(reduced_problem(spec), 750)
    law = optimal_prediction_feedback(spec, sol)
    n = 50_000
    traj = evolve_partial(spec, law, SimConfig(n, 1e-3, 29))
    corr = np.corrcoef(traj.xhat, traj.err)[0, 1]
    assert abs(corr) <= 3.0 / math.sqrt(n), f"corr {corr:.4f}"


def test_simulate_partial_matches_oracle_plus_compensation():
    spec = partial_preset("example3", sigma_hat2=0.5)
    red = reduced_problem(spec)
    sol = solve_riccati(red, 1000)
    law = optimal_prediction_feedback(spec, sol)
    cfg = SimConfig(20_000, 1e-3, 42)
    mc = simulate_partial(spec, law, cfg)
    oracle = cost_oracle(red, law, spec.x, spec.x ** 2, 2000).total \
        + spec.D1 * error_variance(spec, spec.T)
    gap = abs(mc.total - oracle)
    tol = mc_tolerance(mc.std_error, cfg.dt)
    assert gap <= tol, f"gap {gap:.3e} tol {tol:.3e}"


def test_decomposition_defect_within_band():
    spec = partial_preset("example3", sigma_hat2=0.5, eta_hat2=0.5, s=0.25)
    sol = solve_riccati(reduced_problem(spec), 750)
    law = optimal_prediction_feedback(spec, sol)
    traj = evolve_partial(spec, law, SimConfig(50_000, 1e-3, 7))
    d = cost_decomposition_check(spec, traj)
    # J is read off the per-path full state; traj.m2 = m2_hat + P_t would
    # make the defect vanish by construction
    x = traj.xhat + traj.err
    assert d.total == pytest.approx(
        traj.run_costs.mean() + spec.D1 * (x * x).mean()
        + spec.D2 * x.mean() ** 2, rel=1e-12)
    assert d.defect != 0.0
    assert d.error_compensation == pytest.approx(
        spec.D1 * error_variance(spec, spec.T))
    assert abs(d.defect) <= 3.0 * d.defect_std_error, \
        f"defect {d.defect:.3e} band {3 * d.defect_std_error:.3e}"
    assert d.total == pytest.approx(
        d.prediction_total + d.error_compensation + d.defect)


def test_decomposition_exact_when_fully_observed():
    # sigma_tilde = eta_tilde = 0 makes E identically zero, so the defect is
    # exactly zero, not merely small
    spec = partial_preset("example3", sigma_hat2=1.0, eta_hat2=1.0)
    sol = solve_riccati(reduced_problem(spec), 500)
    law = optimal_prediction_feedback(spec, sol)
    d = cost_decomposition_check(spec, evolve_partial(spec, law, SimConfig(5000, 1e-3, 3)))
    assert abs(d.defect) <= 1e-12
    assert d.error_compensation == 0.0


def test_partial_trajectory_csv(tmp_path):
    from mflqg.partial_obs import partial_trajectory_to_csv
    spec = partial_preset("example3")
    sol = solve_riccati(reduced_problem(spec), 100)
    law = optimal_prediction_feedback(spec, sol)
    traj = evolve_partial(spec, law, SimConfig(100, 1e-2, 0))
    path = tmp_path / "partial.csv"
    partial_trajectory_to_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,P_t,m1_hat,m2_hat,m2"
    assert len(lines) == traj.times.size + 1
