import math

import numpy as np
import pytest

from mflqg import (AssumptionError, Coefficient, DomainError, FeedbackLaw,
                   MeasureMoments, ProblemSpec, closed_form, optimal_feedback,
                   residual_sweep, scalar_preset, solve_riccati, value_function)
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


def _residual(spec, sol, t, mu):
    """The residual of the one point (t, mu)."""
    return residual_sweep(spec, sol, [(t, mu)])[0][3]


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_residual_small_on_numeric_solution(name):
    spec = scalar_preset(name)
    sol = solve_riccati(spec, 1000)
    rng = np.random.Generator(np.random.Philox(99))
    points = []
    for _ in range(100):
        t = float(rng.uniform(0.1, 0.9))
        m1 = float(rng.uniform(-1.0, 1.0))
        m2 = m1 * m1 + float(rng.uniform(0.0, 0.25))
        points.append((t, MeasureMoments(m1, m2)))
    worst = max(abs(r[3]) for r in residual_sweep(spec, sol, points))
    assert worst <= 1e-6, f"{name}: worst residual {worst:.3e}"


def test_residual_tiny_on_fine_analytic_solution():
    # closed form sampled at h = 2.5e-5: the central-difference floor
    # h^2 phi'''/6 sits around 1e-9, well under 1e-8
    for name in ("example1", "example2"):
        spec = scalar_preset(name)
        ref = closed_form(scalar_preset(name), 40000)
        for t in (0.1, 0.5, 0.9):
            res = _residual(spec, ref, t, MeasureMoments(0.3, 1.0))
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
    res = _residual(spec, bad, t, mu)
    p1 = 1.0 / (1.0 + 0.5)
    expected = mu.m2 * (-(2.0 * p1 * dp + dp * dp)) + dp
    assert abs(res) > 1e-3
    assert res == pytest.approx(expected, rel=1e-3)


def test_residual_domain_checks():
    spec = scalar_preset("example1")
    sol = solve_riccati(spec, 100)
    inside = (0.5, MeasureMoments.dirac(0.0))
    for t in (0.0, 1.0, -0.5, float("nan")):
        with pytest.raises(DomainError, match="strictly inside"):
            residual_sweep(spec, sol, [inside, (t, MeasureMoments.dirac(0.0))])
    # any t strictly inside is valid; near the ends the stencil moves inward
    _residual(spec, sol, 0.01, MeasureMoments.dirac(0.0))
    with pytest.raises(DomainError, match="five-point stencil"):
        residual_sweep(spec, solve_riccati(spec, 3), [inside])
    assert residual_sweep(spec, sol, []) == []
    # r = B^2 / Q, like the Hamiltonian's minimizer, needs assumption A1
    negative_q = ProblemSpec(A=0.0, B=1.0, sigma=1.0, Q=-1.0, D1=1.0, D2=0.0, T=1.0)
    with pytest.raises(AssumptionError, match="A1"):
        residual_sweep(negative_q, sol, [inside])


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


def _point_residual(spec, sol, t, mu):
    """Reference row of one point, one float at a time: the node nearest t
    among those whose five-point stencil lies in [0, T] clear of the table
    knots, and the value equation's defect there."""
    g = sol.grid
    h = float(g[1] - g[0])
    knots = [knot for c in (spec.A, spec.B, spec.sigma, spec.Q)
             if c.kind == "table" for knot in c.data[0]]
    nodes = [k for k in range(2, g.size - 2)
             if not any(g[k - 2] < knot < g[k + 2] for knot in knots)]
    k = min(nodes, key=lambda j: abs(g[j] - t))  # the first of equally near

    def deriv(f):
        return float(-f[k + 2] + 8.0 * f[k + 1] - 8.0 * f[k - 1] + f[k - 2]) / (12.0 * h)

    tk = float(g[k])
    p1, p2 = float(sol.phi1[k]), float(sol.phi2[k])
    a, b, q, sig = spec.A(tk), spec.B(tk), spec.Q(tk), spec.sigma(tk)
    r = b * b / q
    l1 = deriv(sol.phi1) - r * p1 * p1 + 2.0 * a * p1
    l2 = deriv(sol.phi2) - r * p2 * p2 - 2.0 * r * p1 * p2 + 2.0 * a * p2
    l3 = deriv(sol.phi3) + sig * sig * p1
    return (tk, mu.m1, mu.m2, mu.m2 * l1 + mu.m1 * mu.m1 * l2 + l3)


def test_residual_sweep_is_the_per_point_formula_bit_for_bit():
    # 100 points on a spec with a table knot, some of them next to it and
    # at both ends, where the stencil moves to another node.
    sol = solve_riccati(KNOTTED, 400)
    rng = np.random.Generator(np.random.Philox(7))
    ts = list(rng.uniform(0.0, 1.0, 94)) + [1e-9, 0.4999, 0.5, 0.5012, 0.999, 0.9999]
    points = [(float(t), MeasureMoments(float(m1), float(m1 * m1 + v)))
              for t, m1, v in zip(ts, rng.uniform(-2.0, 2.0, 100),
                                  rng.uniform(0.0, 1.0, 100))]
    rows = residual_sweep(KNOTTED, sol, points)
    assert rows == [_point_residual(KNOTTED, sol, t, mu) for t, mu in points]
    assert len({r[0] for r in rows}) > 50


def test_feedback_minimizes_the_hamiltonian_at_every_node():
    # First-order condition u* = argmin_a H(a) at every node, with the
    # Hamiltonian H(a) = (A x + B a) dmu + Q a^2 at the measure derivative
    # dmu = d_mu v(t, mu)(x) = 2 phi1 x + 2 phi2 m1, on a spec with Q != 1
    # and D2 != 0, so both gains carry the 1/Q.  Each pair has x and m1 of
    # one sign, so alpha x + beta m1 has no cancellation.
    sol = solve_riccati(KNOTTED, 200)
    law = optimal_feedback(KNOTTED, sol)
    probes = [(1.0, MeasureMoments(0.5, 1.0)), (-2.0, MeasureMoments(-1.5, 3.0)),
              (0.3, MeasureMoments(1.0, 1.25))]
    for k, t in enumerate(sol.grid.tolist()):
        p1, p2 = float(sol.phi1[k]), float(sol.phi2[k])
        a_t, b_t, q_t = KNOTTED.A(t), KNOTTED.B(t), KNOTTED.Q(t)
        for x, mu in probes:
            dmu = 2.0 * p1 * x + 2.0 * p2 * mu.m1

            def hamiltonian(a):
                return (a_t * x + b_t * a) * dmu + q_t * a * a

            want = -b_t * dmu / (2.0 * q_t)
            got = law.alpha[k] * x + law.beta[k] * mu.m1
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            for a in (want - 1e-3, want + 1e-3):
                assert hamiltonian(want) < hamiltonian(a)


def test_residual_small_on_time_varying_spec_and_at_knots():
    # a five-point stencil across the knot would read about 2e-5 to 8e-5
    sol = solve_riccati(KNOTTED, 1000)
    rng = np.random.Generator(np.random.Philox(5))
    ts = list(rng.uniform(0.1, 0.9, 100)) + [0.498, 0.499, 0.4995, 0.5, 0.501]
    rows = residual_sweep(KNOTTED, sol, [(float(t), MeasureMoments(0.3, 1.0))
                                         for t in ts])
    worst = max(abs(r[3]) for r in rows)
    assert worst <= 1e-6, f"worst residual {worst:.3e}"


def test_residual_flags_wrong_drift_sign():
    # the solution of the problem with A flipped must fail the band
    flipped = ProblemSpec(A=0.3, B=KNOTTED.B, sigma=KNOTTED.sigma, Q=KNOTTED.Q,
                          D1=KNOTTED.D1, D2=KNOTTED.D2, T=KNOTTED.T)
    bad = solve_riccati(flipped, 1000)
    rows = residual_sweep(KNOTTED, bad, [(t, MeasureMoments(0.3, 1.0))
                                         for t in (0.2, 0.5, 0.8)])
    assert max(abs(r[3]) for r in rows) > 1e-2


def test_residual_sweep_reports_the_evaluated_node():
    sol = solve_riccati(KNOTTED, 1000)
    mu = MeasureMoments(0.3, 1.0)
    rows = residual_sweep(KNOTTED, sol, [(0.2504, mu), (0.4995, mu), (0.001, mu)])
    # nearest node; the nearest node whose stencil clears the knot; the
    # first node with a full stencil
    assert [r[0] for r in rows] == [sol.grid[250], sol.grid[498], sol.grid[2]]
    assert rows[0][3] == _residual(KNOTTED, sol, 0.25, mu)


def test_law_csv(tmp_path):
    spec = scalar_preset("example1")
    law = optimal_feedback(spec, solve_riccati(spec, 10))
    path = tmp_path / "gains.csv"
    law_to_csv(law, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,alpha,beta"
    assert len(lines) == 12
