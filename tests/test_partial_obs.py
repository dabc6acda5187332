import dataclasses
import math

import numpy as np
import pytest

from mflqg import (AssumptionError, DomainError, MeasureMoments,
                   PartialObsSpec, Reduction,
                   SimConfig, closed_form, cost_decomposition_check,
                   cost_coefficients, cost_from_cloud,
                   error_variance, evolve_cloud,
                   mc_tolerance, optimal_feedback, partial_preset,
                   reduced_problem, scalar_preset, solve_riccati)

ROOT_HALF = math.sqrt(0.5)


def _partial_run(spec, law, cfg):
    """The prediction cloud from the point estimate and E_T, as simulate and
    verify draw them."""
    red = Reduction.of(spec)
    return evolve_cloud(red.problem, law, red.initial(spec.x), cfg), red.error(cfg)


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


PARTIAL_UNIT = dict(sigma_hat=0.6, sigma_tilde=0.8, eta_hat=0.8, eta_tilde=0.6,
                    s=0.25, x=1.0, T=1.0, D1=0.8, D2=0.4)


@pytest.mark.parametrize("field, value", [
    ("sigma_hat", math.nan), ("sigma_tilde", math.inf), ("eta_hat", math.nan),
    ("eta_tilde", -math.inf), ("s", math.nan), ("x", math.nan),
    ("T", math.inf), ("D1", math.nan), ("D2", -math.inf),
])
def test_spec_rejects_non_finite(field, value):
    # A NaN would slip past the split checks, whose comparisons are False.
    with pytest.raises(DomainError, match=f"^{field} must be finite"):
        PartialObsSpec(**{**PARTIAL_UNIT, field: value})


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
    # arrays of times, as on a trajectory's clock
    times = np.linspace(0.25, 1.0, 7)
    assert error_variance(spec, times).tolist() == [
        error_variance(spec, float(t)) for t in times]
    with pytest.raises(DomainError):
        error_variance(spec, np.array([0.5, 1.0 + 1e-9]))
    # the reduced clock shifted back by s can overshoot T by an ulp
    late = partial_preset("example3", s=0.06, T=0.9)
    end = late.s + (late.T - late.s)
    assert end > late.T
    assert error_variance(late, end) == pytest.approx(error_variance(late, late.T))


def test_error_variance_vanishes_without_hidden_noise():
    spec = partial_preset("example3", sigma_hat2=1.0, eta_hat2=1.0, s=0.5)
    assert error_variance(spec, 1.0) == 0.0


def test_reduction_of_partial_and_full_specs():
    spec = partial_preset("example3", sigma_hat2=0.25, eta_hat2=0.5, s=0.25, x=2.0)
    red = Reduction.of(spec)
    assert (red.problem, red.partial, red.kind) == (reduced_problem(spec), spec,
                                                    "partial_obs")
    assert red.var0 == pytest.approx(0.5 * 0.25)  # eta_hat^2 s
    assert red.comp == spec.D1 * error_variance(spec, spec.T)
    assert (red.moments(2.0).m1, red.moments(2.0).m2) == (2.0, 4.0 + red.var0)
    full = scalar_preset("example1")
    assert Reduction.of(full) == Reduction(full, None, 0.0, 0.0)
    assert Reduction.of(full).kind == "scalar"


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
    v = Reduction.of(spec).value(sol, spec.x)
    expected = 0.5 + sh2 * math.log(2.0) + (1.0 - sh2) * 1.0
    assert abs(v - expected) <= 1e-6


def test_example3_value_with_positive_start_time():
    spec = partial_preset("example3", s=0.25, sigma_hat2=0.5, eta_hat2=0.5, x=1.0)
    sol = solve_riccati(reduced_problem(spec), 1000)
    v = Reduction.of(spec).value(sol, spec.x)
    rem = 0.75
    expected = (1.0 + 0.5 * 0.25) / (1.0 + rem) + 0.5 * math.log(1.0 + rem) \
        + (0.5 * 0.25 + 0.5 * rem)
    assert abs(v - expected) <= 1e-6


def test_example4_value_ignores_observability():
    values = []
    for sh2 in (0.0, 0.25, 0.5, 0.75, 1.0):
        spec = partial_preset("example4", sigma_hat2=sh2)
        sol = solve_riccati(reduced_problem(spec), 1000)
        values.append(Reduction.of(spec).value(sol, spec.x))
    spread = max(values) - min(values)
    assert spread <= 1e-10
    assert values[0] == pytest.approx(0.5, abs=1e-6)  # x^2/(1+T-s)


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
    law = optimal_feedback(reduced_problem(spec), sol)
    assert np.array_equal(law.alpha, -sol.phi1)  # B = Q = 1


def test_partial_run_is_reproducible():
    spec = partial_preset("example3", sigma_hat2=0.5, s=0.25)
    sol = solve_riccati(reduced_problem(spec), 750)
    law = optimal_feedback(reduced_problem(spec), sol)
    cfg = SimConfig(2000, 1e-3, 17)
    (c1, e1), (c2, e2) = _partial_run(spec, law, cfg), _partial_run(spec, law, cfg)
    assert np.array_equal(c1.states, c2.states)
    assert np.array_equal(c1.m2, c2.m2)
    assert np.array_equal(e1, e2)


@pytest.mark.parametrize("s", [0.0, 0.25])
def test_reduction_initial_law_and_error(s):
    # The prediction cloud starts from N(x, eta_hat^2 s), a Dirac at s = 0;
    # E is drawn at T only, and its variance is the closed-form P_T.
    spec = partial_preset("example3", sigma_hat2=0.5, eta_hat2=0.5, s=s)
    red = Reduction.of(spec)
    assert red.initial(spec.x) == ((spec.x, spec.eta_hat ** 2 * s) if s > 0.0
                                   else spec.x)
    n = 20_000
    cfg = SimConfig(n, 1e-2, 13)
    err = red.error(cfg)
    assert err.shape == (n,)
    p_T = error_variance(spec, spec.T)
    se = p_T * math.sqrt(2.0 / (n - 1))
    assert abs(err.var(ddof=1) - p_T) <= 4.0 * se
    # A fully observed spec is its own reduction: a Dirac start, no error.
    full = Reduction.of(scalar_preset("example1"))
    assert (full.initial(spec.x), full.error(cfg)) == (spec.x, 0.0)


def test_hidden_noise_stream_is_independent():
    # changing the split must not change which numbers drive the prediction:
    # with eta fixed, the hat-noise draws are the same for both sigma splits
    cfg = SimConfig(500, 1e-2, 23)
    errs = [Reduction.of(partial_preset("example3", sigma_hat2=sh2)).error(cfg)
            for sh2 in (0.25, 1.0)]
    # E reads its own stream and the hidden weights only
    e1, e2 = errs
    assert np.allclose(e2, 0.0)                      # sigma_tilde = 0 there
    assert not np.allclose(e1, 0.0)


def test_estimation_error_uncorrelated_with_prediction():
    spec = partial_preset("example3", sigma_hat2=0.5, eta_hat2=0.5, s=0.25)
    sol = solve_riccati(reduced_problem(spec), 750)
    law = optimal_feedback(reduced_problem(spec), sol)
    n = 50_000
    cloud, err = _partial_run(spec, law, SimConfig(n, 1e-3, 29))
    corr = np.corrcoef(cloud.states, err)[0, 1]
    assert abs(corr) <= 3.0 / math.sqrt(n), f"corr {corr:.4f}"


def test_simulate_partial_matches_oracle_plus_compensation():
    spec = partial_preset("example3", sigma_hat2=0.5)
    red = reduced_problem(spec)
    sol = solve_riccati(red, 1000)
    law = optimal_feedback(reduced_problem(spec), sol)
    cfg = SimConfig(20_000, 1e-3, 42)
    cloud, err = _partial_run(spec, law, cfg)
    mc = cost_from_cloud(spec, cloud.states + err, cloud.run_costs)
    coefs, = cost_coefficients(red, [law], 2000)
    oracle = Reduction.of(spec).oracle(coefs, spec.x).total
    # The reduction adds D1 P_T to the constant term itself; built here
    # independently of it.
    m2 = spec.x * spec.x + spec.eta_hat ** 2 * spec.s
    comp = spec.D1 * error_variance(spec, spec.T)
    e1, e2, e0 = coefs.terminal
    assert oracle == dataclasses.replace(coefs, terminal=(e1, e2, e0 + comp)
                                         ).cost(MeasureMoments(spec.x, m2)).total
    assert oracle == pytest.approx(
        coefs.cost(MeasureMoments(spec.x, m2)).total + comp, rel=1e-14, abs=0)
    gap = abs(mc.total - oracle)
    tol = mc_tolerance(mc.std_error, cfg.dt)
    assert gap <= tol, f"gap {gap:.3e} tol {tol:.3e}"


def test_decomposition_defect_within_band():
    spec = partial_preset("example3", sigma_hat2=0.5, eta_hat2=0.5, s=0.25)
    sol = solve_riccati(reduced_problem(spec), 750)
    law = optimal_feedback(reduced_problem(spec), sol)
    red = Reduction.of(spec)
    cloud, err = _partial_run(spec, law, SimConfig(50_000, 1e-3, 7))
    # J is read off the per-path full state; m2_hat + P_t would make the
    # defect vanish by construction
    x = cloud.states + err
    full = cost_from_cloud(red.problem, x, cloud.run_costs)
    assert full.total == pytest.approx(
        cloud.run_costs.mean() + spec.D1 * (x * x).mean()
        + spec.D2 * x.mean() ** 2, rel=1e-12)
    defect, se = cost_decomposition_check(red, cloud, err, full)
    assert defect != 0.0
    pred = (cloud.run_costs.mean() + spec.D1 * cloud.m2[-1]
            + spec.D2 * cloud.m1[-1] ** 2)
    assert defect == pytest.approx(
        full.total - pred - spec.D1 * error_variance(spec, spec.T), abs=1e-12)
    assert abs(defect) <= 3.0 * se, f"defect {defect:.3e} band {3 * se:.3e}"


def test_decomposition_exact_when_fully_observed():
    # sigma_tilde = eta_tilde = 0 makes E identically zero, so the defect is
    # exactly zero, not merely small
    spec = partial_preset("example3", sigma_hat2=1.0, eta_hat2=1.0)
    sol = solve_riccati(reduced_problem(spec), 500)
    law = optimal_feedback(reduced_problem(spec), sol)
    red = Reduction.of(spec)
    cloud, err = _partial_run(spec, law, SimConfig(5000, 1e-3, 3))
    full = cost_from_cloud(red.problem, cloud.states + err, cloud.run_costs)
    defect, _ = cost_decomposition_check(red, cloud, err, full)
    assert abs(defect) <= 1e-12
    assert red.comp == 0.0


def test_partial_trajectory_csv(tmp_path):
    # The cloud runs on the reduced clock tau; the table is on t = s + tau,
    # and its m2 adds the exact error variance to the prediction's m2_hat.
    from mflqg.partial_obs import partial_trajectory_to_csv
    spec = partial_preset("example3", s=0.25, sigma_hat2=0.5, eta_hat2=0.5)
    sol = solve_riccati(reduced_problem(spec), 100)
    law = optimal_feedback(reduced_problem(spec), sol)
    cloud, _ = _partial_run(spec, law, SimConfig(100, 1e-2, 0))
    path = tmp_path / "partial.csv"
    partial_trajectory_to_csv(spec, cloud, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,P_t,m1_hat,m2_hat,m2"
    assert len(lines) == cloud.times.size + 1
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    t, p, m1_hat, m2_hat, m2 = rows.T
    assert (t[0], t[-1]) == (spec.s, spec.T)
    assert np.array_equal(m1_hat, cloud.m1) and np.array_equal(m2_hat, cloud.m2)
    assert np.array_equal(p, error_variance(spec, t))
    assert np.allclose(m2 - m2_hat, error_variance(spec, t), rtol=0.0, atol=1e-12)
