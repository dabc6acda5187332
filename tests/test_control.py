import math

import numpy as np
import pytest

from mflqg import (AssumptionError, Coefficient, DomainError, FeedbackLaw,
                   MeasureMoments, ProblemSpec, closed_form, hamiltonian,
                   hamiltonian_minimizer, master_residual, mu_derivative,
                   optimal_feedback, residual_sweep, scalar_preset,
                   solve_riccati, value_function)
from mflqg.control import law_to_csv, residual_to_csv
from mflqg.riccati import RiccatiSolution


def test_value_function_closed_form():
    # V(0, delta_x) = x^2/(1+T) + log(1+T) for the m2-terminal preset
    sol = solve_riccati(scalar_preset("example1"), 1000)
    for x in (0.0, 1.0, 2.0):
        v = value_function(sol, 0.0, MeasureMoments.dirac(x))
        assert v == pytest.approx(x * x / 2.0 + math.log(2.0), abs=1e-6)


def test_value_function_uses_both_moments():
    sol = closed_form(scalar_preset("example2"), 100)
    # phi = (0, 1/2, 0) at t = 0: value is m1^2 / 2 regardless of m2
    v = value_function(sol, 0.0, MeasureMoments(1.0, 4.0))
    assert v == pytest.approx(0.5)


def test_mu_derivative_formula():
    # d_mu v = 2 phi1 x + 2 phi2 m1
    sol1 = closed_form(scalar_preset("example1"), 100)
    mu = MeasureMoments(0.5, 1.0)
    assert mu_derivative(sol1, 0.0, mu, 2.0) == pytest.approx(2.0 * 0.5 * 2.0)
    sol2 = closed_form(scalar_preset("example2"), 100)
    # phi2(0) = 1/2, so the derivative is exactly m1, independent of x
    assert mu_derivative(sol2, 0.0, mu, 2.0) == pytest.approx(0.5)
    assert mu_derivative(sol2, 0.0, mu, -7.0) == pytest.approx(0.5)


def test_hamiltonian_minimizer_matches_grid_argmin():
    spec = ProblemSpec(A=0.3, B=1.5, sigma=1.0, Q=2.0, D1=1.0, D2=0.0, T=1.0)
    dmu_v = 0.8
    a_star = hamiltonian_minimizer(spec, 0.2, dmu_v)
    assert a_star == pytest.approx(-1.5 * 0.8 / (2.0 * 2.0))
    grid = np.linspace(a_star - 1.0, a_star + 1.0, 2001)
    values = [hamiltonian(spec, 0.2, 1.0, dmu_v, a) for a in grid]
    assert abs(grid[int(np.argmin(values))] - a_star) <= 1e-3
    # strict convexity in a: the minimizer beats both neighbors
    h0 = hamiltonian(spec, 0.2, 1.0, dmu_v, a_star)
    assert hamiltonian(spec, 0.2, 1.0, dmu_v, a_star + 0.1) > h0
    assert hamiltonian(spec, 0.2, 1.0, dmu_v, a_star - 0.1) > h0


def test_hamiltonian_minimizer_needs_positive_q():
    spec = ProblemSpec(A=0.0, B=1.0, sigma=1.0, Q=-1.0, D1=1.0, D2=0.0, T=1.0)
    with pytest.raises(AssumptionError):
        hamiltonian_minimizer(spec, 0.0, 1.0)


def test_optimal_feedback_gains():
    # unit B and Q: alpha = -phi1, beta = -phi2
    spec = scalar_preset("example1")
    sol = solve_riccati(spec, 200)
    law = optimal_feedback(spec, sol)
    assert np.array_equal(law.alpha, -sol.phi1)
    assert np.array_equal(law.beta, -sol.phi2)
    # scaled B, Q: alpha = -B phi1 / Q
    spec2 = ProblemSpec(A=0.0, B=2.0, sigma=1.0, Q=4.0, D1=1.0, D2=0.0, T=1.0)
    sol2 = solve_riccati(spec2, 200)
    law2 = optimal_feedback(spec2, sol2)
    assert np.allclose(law2.alpha, -2.0 / 4.0 * sol2.phi1)


def test_feedback_law_at_and_domain():
    law = FeedbackLaw(grid=np.array([0.0, 1.0]), alpha=np.array([0.0, 1.0]),
                      beta=np.array([1.0, 1.0]))
    assert law.at(0.5) == (0.5, 1.0)
    with pytest.raises(DomainError):
        law.at(1.5)
    with pytest.raises(DomainError):
        law.gains_on(np.array([0.5, 1.2]))


def test_feedback_law_shifted():
    law = FeedbackLaw(grid=np.array([0.0, 1.0]), alpha=np.zeros(2),
                      beta=np.zeros(2))
    bumped = law.shifted(0.25, -0.5)
    assert bumped.at(0.0) == (0.25, -0.5)
    assert law.at(0.0) == (0.0, 0.0)  # original untouched


def test_feedback_law_rejects_nonfinite_gains():
    with pytest.raises(DomainError):
        FeedbackLaw(grid=np.array([0.0, 1.0]),
                    alpha=np.array([0.0, np.inf]), beta=np.zeros(2))


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_residual_small_on_numeric_solution(name):
    spec = scalar_preset(name)
    sol = solve_riccati(spec, 1000)
    rng = np.random.Generator(np.random.Philox(99))
    worst = 0.0
    for _ in range(100):
        t = float(rng.uniform(0.1, 0.9))
        m1 = float(rng.uniform(-1.0, 1.0))
        m2 = m1 * m1 + float(rng.uniform(0.0, 0.25))
        res = master_residual(spec, sol, t, MeasureMoments(m1, m2))
        worst = max(worst, abs(res))
    assert worst <= 1e-6, f"{name}: worst residual {worst:.3e}"


def test_residual_tiny_on_fine_analytic_solution():
    # closed form sampled at h = 2.5e-5: the central-difference floor
    # h^2 phi'''/6 sits around 1e-9, well under 1e-8
    for name in ("example1", "example2"):
        spec = scalar_preset(name)
        ref = closed_form(scalar_preset(name), 40000)
        for t in (0.1, 0.5, 0.9):
            res = master_residual(spec, ref, t, MeasureMoments(0.3, 1.0))
            assert abs(res) <= 1e-8, f"{name} t={t}: {res:.3e}"


def test_residual_flags_perturbed_solution():
    # corrupting phi1 by 0.1 must blow the residual far past the tolerance;
    # expected leading defect: m2 * (-(2 phi1 dp + dp^2)) + dp from the
    # quadratic term in the phi1 operator and the phi3 operator
    spec = scalar_preset("example1")
    ref = closed_form(scalar_preset("example1"), 2000)
    dp = 0.1
    bad = RiccatiSolution(grid=ref.grid, phi1=ref.phi1 + dp,
                          phi2=ref.phi2, phi3=ref.phi3)
    t, mu = 0.5, MeasureMoments(0.0, 1.0)
    res = master_residual(spec, bad, t, mu)
    p1 = 1.0 / (1.0 + 0.5)
    expected = mu.m2 * (-(2.0 * p1 * dp + dp * dp)) + dp
    assert abs(res) > 1e-3
    assert res == pytest.approx(expected, rel=1e-3)


def test_residual_domain_checks():
    spec = scalar_preset("example1")
    sol = solve_riccati(spec, 100)
    with pytest.raises(DomainError):
        master_residual(spec, sol, 0.0, MeasureMoments.dirac(0.0))
    with pytest.raises(DomainError):
        master_residual(spec, sol, 1.0, MeasureMoments.dirac(0.0))
    # any t strictly inside is valid; near the ends the stencil moves inward
    master_residual(spec, sol, 0.01, MeasureMoments.dirac(0.0))
    with pytest.raises(DomainError):
        master_residual(spec, solve_riccati(spec, 3), 0.5, MeasureMoments.dirac(0.0))


def test_residual_sweep_rows_and_csv(tmp_path):
    spec = scalar_preset("example1")
    sol = solve_riccati(spec, 1000)
    points = [(0.25, MeasureMoments.dirac(1.0)), (0.75, MeasureMoments(0.0, 2.0))]
    rows = residual_sweep(spec, sol, points)
    assert len(rows) == 2
    assert rows[0][:3] == (0.25, 1.0, 1.0)
    path = tmp_path / "residual.csv"
    residual_to_csv(rows, path)
    assert path.read_text().splitlines()[0] == "t,m1,m2,residual"


# A != 0, B and Q polynomials, sigma a table with a knot at t = 0.5, where
# phi3'' jumps.
KNOTTED = ProblemSpec(A=-0.3, B=Coefficient.poly([1.0, 0.5]),
                      sigma=Coefficient.table([0.0, 0.5, 1.0], [0.5, 0.7, 0.5]),
                      Q=Coefficient.poly([1.0, 0.2]), D1=1.0, D2=0.5, T=1.0)


def test_feedback_minimizes_the_hamiltonian_at_every_node():
    # First-order condition u* = argmin_a H(t, x, d_mu v(t, mu)(x), a) on a
    # spec with Q != 1 and D2 != 0, so both gains carry the 1/Q.  Each pair
    # has x and m1 of one sign, so alpha x + beta m1 has no cancellation.
    sol = solve_riccati(KNOTTED, 200)
    law = optimal_feedback(KNOTTED, sol)
    probes = [(1.0, MeasureMoments(0.5, 1.0)), (-2.0, MeasureMoments(-1.5, 3.0)),
              (0.3, MeasureMoments(1.0, 1.25))]
    for t, al, be in zip(sol.grid.tolist(), law.alpha, law.beta):
        for x, mu in probes:
            dmu = mu_derivative(sol, t, mu, x)
            want = hamiltonian_minimizer(KNOTTED, t, dmu)
            assert al * x + be * mu.m1 == pytest.approx(want, rel=1e-12, abs=0.0)
            h = hamiltonian(KNOTTED, t, x, dmu, want)
            for a in (want - 1e-3, want + 1e-3):
                assert h < hamiltonian(KNOTTED, t, x, dmu, a)


def test_residual_small_on_time_varying_spec_and_at_knots():
    # a five-point stencil across the knot would read about 2e-5 to 8e-5
    sol = solve_riccati(KNOTTED, 1000)
    rng = np.random.Generator(np.random.Philox(5))
    ts = list(rng.uniform(0.1, 0.9, 100)) + [0.498, 0.499, 0.4995, 0.5, 0.501]
    worst = max(abs(master_residual(KNOTTED, sol, float(t), MeasureMoments(0.3, 1.0)))
                for t in ts)
    assert worst <= 1e-6, f"worst residual {worst:.3e}"


def test_residual_flags_wrong_drift_sign():
    # the solution of the problem with A flipped must fail the band
    flipped = ProblemSpec(A=0.3, B=KNOTTED.B, sigma=KNOTTED.sigma, Q=KNOTTED.Q,
                          D1=KNOTTED.D1, D2=KNOTTED.D2, T=KNOTTED.T)
    bad = solve_riccati(flipped, 1000)
    worst = max(abs(master_residual(KNOTTED, bad, t, MeasureMoments(0.3, 1.0)))
                for t in (0.2, 0.5, 0.8))
    assert worst > 1e-2


def test_residual_sweep_reports_the_evaluated_node():
    sol = solve_riccati(KNOTTED, 1000)
    mu = MeasureMoments(0.3, 1.0)
    rows = residual_sweep(KNOTTED, sol, [(0.2504, mu), (0.4995, mu), (0.001, mu)])
    # nearest node; the nearest node whose stencil clears the knot; the
    # first node with a full stencil
    assert [r[0] for r in rows] == [sol.grid[250], sol.grid[498], sol.grid[2]]
    assert rows[0][3] == master_residual(KNOTTED, sol, 0.25, mu)


def test_law_csv(tmp_path):
    spec = scalar_preset("example1")
    law = optimal_feedback(spec, solve_riccati(spec, 10))
    path = tmp_path / "gains.csv"
    law_to_csv(law, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,alpha,beta"
    assert len(lines) == 12
