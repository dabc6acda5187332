import math

import numpy as np
import pytest

from mflqg import (AssumptionError, Coefficient, DomainError, FeedbackLaw,
                   MeasureMoments, ProblemSpec, closed_form,
                   optimal_feedback, residual_sweep, scalar_preset, solve_riccati,
                   value_function)
from mflqg.control import law_to_csv, residual_to_csv
from mflqg.riccati import RiccatiSolution


def test_value_function_closed_form():
    # V(0, delta_x) = x^2/(1+T) + log(1+T) for the m2-terminal preset
    sol = solve_riccati(scalar_preset("example1"), 1000)
    for x in (0.0, 1.0, 2.0):
        v = value_function(sol, MeasureMoments.dirac(x))
        assert v == pytest.approx(x * x / 2.0 + math.log(2.0), abs=1e-6)


def test_value_function_uses_both_moments():
    sol = closed_form(scalar_preset("example2"), 100)
    # phi = (0, 1/2, 0) at t = 0: value is m1^2 / 2 regardless of m2
    v = value_function(sol, MeasureMoments(1.0, 4.0))
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
    # d = 2 with a full Q: the gains are -Q^{-1} B^T phi, (k, d, d) tables
    mspec = ProblemSpec(A=[[0.1, -0.4], [0.3, -0.2]], B=[[1.0, 0.5], [0.0, 1.0]],
                        sigma=np.eye(2), Q=[[2.0, 0.6], [0.6, 1.0]], D1=np.eye(2),
                        D2=[[0.3, -0.1], [-0.1, 0.4]], T=1.0)
    msol = solve_riccati(mspec, 50)
    mlaw = optimal_feedback(mspec, msol)
    g = np.linalg.solve(mspec.Q.on(0.0), mspec.B.on(0.0).T)
    assert mlaw.alpha.shape == mlaw.beta.shape == (51, 2, 2)
    np.testing.assert_allclose(mlaw.alpha, -g @ msol.phi1, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(mlaw.beta, -g @ msol.phi2, rtol=1e-13, atol=1e-15)
    # every entry interpolated on its own; grid nodes are exact
    assert all(np.array_equal(got, want[7]) for got, want in
               zip(mlaw.at(msol.grid[7]), (mlaw.alpha, mlaw.beta)))
    mid = mlaw.gains_on(np.array([0.5 * (msol.grid[7] + msol.grid[8])]))
    np.testing.assert_allclose(mid[0][0], 0.5 * (mlaw.alpha[7] + mlaw.alpha[8]), rtol=1e-12)
    # shifted moves both gains along the identity
    bumped = mlaw.shifted(0.25, -0.5)
    assert np.array_equal(bumped.alpha, mlaw.alpha + 0.25 * np.eye(2))
    assert np.array_equal(bumped.beta, mlaw.beta - 0.5 * np.eye(2))


def test_feedback_law_at_and_domain():
    law = FeedbackLaw(grid=np.array([0.0, 1.0]), alpha=np.reshape([0.0, 1.0], (2, 1, 1)),
                      beta=np.ones((2, 1, 1)))
    assert law.at(0.5) == (0.5, 1.0)
    with pytest.raises(DomainError):
        law.at(1.5)
    with pytest.raises(DomainError):
        law.gains_on(np.array([0.5, 1.2]))


def test_feedback_law_shifted():
    law = FeedbackLaw(grid=np.array([0.0, 1.0]), alpha=np.zeros((2, 1, 1)),
                      beta=np.zeros((2, 1, 1)))
    bumped = law.shifted(0.25, -0.5)
    assert bumped.at(0.0) == (0.25, -0.5)
    assert law.at(0.0) == (0.0, 0.0)  # original untouched


def test_feedback_law_rejects_nonfinite_gains():
    with pytest.raises(DomainError):
        FeedbackLaw(grid=np.array([0.0, 1.0]),
                    alpha=np.reshape([0.0, np.inf], (2, 1, 1)), beta=np.zeros((2, 1, 1)))
    # one number per node is no (k, d, d) table
    with pytest.raises(DomainError, match="tables"):
        FeedbackLaw(grid=np.array([0.0, 1.0]), alpha=np.zeros(2), beta=np.zeros(2))


def _worst(spec, sol):
    """The largest residual bound of the sweep."""
    return max(r[4] for r in residual_sweep(spec, sol))


def _row_at(rows, t):
    """The sweep's row of the node t."""
    row, = [r for r in rows if r[0] == t]
    return row


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_residual_small_on_numeric_solution(name):
    spec = scalar_preset(name)
    sol = solve_riccati(spec, 1000)
    worst = _worst(spec, sol)
    assert worst <= 1e-6, f"{name}: worst residual {worst:.3e}"


def test_residual_tiny_on_fine_analytic_solution():
    # closed form sampled at h = 2.5e-5: the stencil's truncation error is
    # negligible, and its rounding error, about 18 eps |phi| / (12 h), sits
    # around 1e-11, well under 1e-8
    for name in ("example1", "example2"):
        spec = scalar_preset(name)
        ref = closed_form(scalar_preset(name), 40000)
        worst = _worst(spec, ref)
        assert worst <= 1e-8, f"{name}: {worst:.3e}"


def test_residual_flags_perturbed_solution():
    # corrupting phi1 by 0.1 must blow the residual far past the tolerance:
    # at t = 0.5, L1 = -(2 phi1 dp + dp^2) from the quadratic term of the
    # phi1 operator and L3 = dp from the phi3 operator
    spec = scalar_preset("example1")
    ref = closed_form(scalar_preset("example1"), 2000)
    dp = 0.1
    bad = RiccatiSolution(grid=ref.grid, phi1=ref.phi1 + dp,
                          phi2=ref.phi2, phi3=ref.phi3)
    t, l1, l2, l3, res = _row_at(residual_sweep(spec, bad), 0.5)
    p1 = 1.0 / (1.0 + 0.5)
    assert l1 == pytest.approx(2.0 * p1 * dp + dp * dp, rel=1e-3)
    assert l2 == 0.0
    assert l3 == pytest.approx(dp, rel=1e-3)
    assert res == 1.25 * l1 + l2 + l3 > 1e-3


def test_residual_domain_checks():
    spec = scalar_preset("example1")
    sol = solve_riccati(spec, 100)
    # every node of [0.1 T, 0.9 T] with a five-point stencil, and no other
    rows = residual_sweep(spec, sol)
    assert [r[0] for r in rows] == sol.grid[10:91].tolist()
    with pytest.raises(DomainError, match="five-point stencil"):
        residual_sweep(spec, solve_riccati(spec, 3))
    # r = B^2 / Q, like the Hamiltonian's minimizer, needs assumption A1
    negative_q = ProblemSpec(A=0.0, B=1.0, sigma=1.0, Q=-1.0, D1=1.0, D2=0.0, T=1.0)
    with pytest.raises(AssumptionError, match="A1"):
        residual_sweep(negative_q, sol)


def test_residual_sweep_rows_and_csv(tmp_path):
    spec = scalar_preset("example1")
    sol = solve_riccati(spec, 1000)
    rows = residual_sweep(spec, sol)
    assert len(rows) == 801 and all(len(r) == 5 for r in rows)
    assert all(r[4] == 1.25 * r[1] + r[2] + r[3] for r in rows)
    path = tmp_path / "residual.csv"
    residual_to_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,l1,l2,l3,residual"
    assert lines[1].split(",") == [repr(v) for v in rows[0]]
    assert len(lines) == 802


# A != 0, B and Q polynomials, sigma a table with a knot at t = 0.5, where
# phi3'' jumps.
KNOTTED = ProblemSpec(A=-0.3, B=Coefficient.poly([1.0, 0.5]),
                      sigma=Coefficient.table([0.0, 0.5, 1.0], [0.5, 0.7, 0.5]),
                      Q=Coefficient.poly([1.0, 0.2]), D1=1.0, D2=0.5, T=1.0)


def _node_operators(spec, sol, k):
    """The defect operators (L1, L2, L3) of the value equation at node k,
    one float at a time, from the same fourth-order stencil and in the same
    order of operations as the sweep's d x d products at d = 1."""
    g = sol.grid
    h = float(g[1] - g[0])

    def deriv(f):
        f = np.ravel(f)
        return float(-f[k + 2] + 8.0 * f[k + 1] - 8.0 * f[k - 1] + f[k - 2]) / (12.0 * h)

    tk = float(g[k])
    p1, p2 = float(sol.phi1[k, 0, 0]), float(sol.phi2[k, 0, 0])
    a, b, q, sig = spec.A(tk), spec.B(tk), spec.Q(tk), spec.sigma(tk)
    r = b * (b / q)
    l1 = deriv(sol.phi1) - p1 * r * p1 + (a * p1 + p1 * a)
    l2 = (deriv(sol.phi2) - p2 * r * p2 - (p1 * r * p2 + p2 * r * p1)
          + (a * p2 + p2 * a))
    return l1, l2, deriv(sol.phi3) + sig * sig * p1


def _node_residual(spec, sol, k):
    """Reference row of node k: t, |L1|, |L2|, |L3| and the bound
    1.25 |L1| + |L2| + |L3| on the defect over the moment box."""
    l1, l2, l3 = (abs(v) for v in _node_operators(spec, sol, k))
    return (float(sol.grid[k]), l1, l2, l3, 1.25 * l1 + l2 + l3)


def test_residual_sweep_is_the_per_point_formula_bit_for_bit():
    # Every node of the window on a spec with a table knot, where the
    # nodes whose stencil straddles it drop out.
    sol = solve_riccati(KNOTTED, 400)
    g = sol.grid
    nodes = [k for k in range(2, g.size - 2) if 0.1 <= g[k] <= 0.9
             and not any(g[k - 2] < knot < g[k + 2] for knot in KNOTTED.knots)]
    assert len(nodes) == 321 - 3
    rows = residual_sweep(KNOTTED, sol)
    assert rows == [_node_residual(KNOTTED, sol, k) for k in nodes]


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
        p1, p2 = float(sol.phi1[k, 0, 0]), float(sol.phi2[k, 0, 0])
        a_t, b_t, q_t = KNOTTED.A(t), KNOTTED.B(t), KNOTTED.Q(t)
        for x, mu in probes:
            dmu = 2.0 * p1 * x + 2.0 * p2 * mu.m1

            def hamiltonian(a):
                return (a_t * x + b_t * a) * dmu + q_t * a * a

            want = -b_t * dmu / (2.0 * q_t)
            got = law.alpha[k, 0, 0] * x + law.beta[k, 0, 0] * mu.m1
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            for a in (want - 1e-3, want + 1e-3):
                assert hamiltonian(want) < hamiltonian(a)


def test_residual_small_on_time_varying_spec_and_at_knots():
    # a five-point stencil across the knot would read about 2e-5 to 8e-5
    sol = solve_riccati(KNOTTED, 1000)
    worst = _worst(KNOTTED, sol)
    assert worst <= 1e-6, f"worst residual {worst:.3e}"


def test_residual_flags_wrong_drift_sign():
    # the solution of the problem with A flipped must fail the band
    flipped = ProblemSpec(A=0.3, B=KNOTTED.B, sigma=KNOTTED.sigma, Q=KNOTTED.Q,
                          D1=KNOTTED.D1, D2=KNOTTED.D2, T=KNOTTED.T)
    assert _worst(KNOTTED, solve_riccati(flipped, 1000)) > 1e-2


def test_residual_sweep_reports_the_evaluated_node():
    # One row per node of [0.1 T, 0.9 T]; the three nodes whose stencil has
    # the knot at 0.5 strictly inside are left out, and the sweep over a
    # window holding only them is refused.
    sol = solve_riccati(KNOTTED, 1000)
    rows = residual_sweep(KNOTTED, sol)
    assert [r[0] for r in rows] == [sol.grid[k] for k in range(100, 901)
                                    if k not in (499, 500, 501)]


def test_residual_sweep_bounds_the_defect_over_the_moment_box():
    # The defect m2 L1 + m1^2 L2 + L3 at any (m1, m2) with |m1| <= 1 and
    # m2 - m1^2 in [0, 0.25] stays within the node's bound, and the corner
    # whose signs match those of the operators reaches it.
    sol = solve_riccati(KNOTTED, 400)
    rng = np.random.Generator(np.random.Philox(99))
    nodes = np.flatnonzero(np.isin(sol.grid, [r[0] for r in residual_sweep(KNOTTED, sol)]))
    for k in nodes[::7]:
        l1, l2, l3 = _node_operators(KNOTTED, sol, k)
        bound = _node_residual(KNOTTED, sol, k)[4]
        m1 = rng.uniform(-1.0, 1.0, 200)
        m2 = m1 * m1 + rng.uniform(0.0, 0.25, 200)
        assert (np.abs(m2 * l1 + m1 * m1 * l2 + l3) <= bound).all()
        if l1 * l2 > 0.0 and l1 * l3 > 0.0:
            assert abs(1.25 * l1 + l2 + l3) == pytest.approx(bound, rel=1e-12)


def test_law_csv(tmp_path):
    spec = scalar_preset("example1")
    law = optimal_feedback(spec, solve_riccati(spec, 10))
    path = tmp_path / "gains.csv"
    law_to_csv(law, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,alpha,beta"
    assert len(lines) == 12
