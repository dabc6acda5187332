import math

import numpy as np
import pytest

from mflqg import (AssumptionError, Coefficient, DomainError,
                   FiniteEscapeError, MatrixProblemSpec, ProblemSpec,
                   closed_form, sample_solution, scalar_preset,
                   solve_matrix_riccati, solve_riccati)
from mflqg.riccati import (DIVERGENCE_LIMIT, _matrix_coefs, _riccati_derivs,
                           _stack_derivs, matrix_solution_to_csv,
                           solution_to_csv)

# A != 0, B a polynomial, sigma a table with a knot inside the horizon.
TIME_VARYING = ProblemSpec(A=-0.3, B=Coefficient.poly([1.0, 0.5]),
                           sigma=Coefficient.table([0.0, 0.5, 1.0], [0.5, 0.7, 0.5]),
                           Q=Coefficient.poly([1.0, 0.2]), D1=1.0, D2=0.5, T=1.0)

# d = 3 with a non-symmetric A, Q = diag(1, 2, 1) and D2 != 0.
MATRIX_D3 = dict(
    d=3, A=[[-0.2, 0.5, 0.0], [0.1, -0.3, 0.4], [0.0, -0.2, 0.1]],
    B=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.2, 0.0, 1.0]],
    sigma=[[0.6, 0.0, 0.0], [0.1, 0.5, 0.0], [0.0, 0.2, 0.4]],
    Q=np.diag([1.0, 2.0, 1.0]), D1=np.eye(3),
    D2=[[0.5, 0.1, 0.0], [0.1, 0.3, 0.0], [0.0, 0.0, 0.2]], T=1.0)

# d = 2 with a Q that is not diagonal, so M = B Q^{-1} B^T mixes both rows.
FULL_Q = dict(
    d=2, A=[[0.1, -0.4], [0.3, -0.2]], B=[[1.0, 0.5], [0.0, 1.0]],
    sigma=[[0.5, 0.0], [0.2, 0.3]], Q=[[2.0, 0.6], [0.6, 1.0]],
    D1=[[1.0, 0.2], [0.2, 0.5]], D2=[[0.3, -0.1], [-0.1, 0.4]], T=0.8)

# d = 1, so phi1 and phi2 are stepped as a (2, 1, 1) stack.
MATRIX_D1 = dict(d=1, A=[[-0.3]], B=[[1.2]], sigma=[[0.5]], Q=[[2.0]],
                 D1=[[1.0]], D2=[[0.5]], T=1.0)


# Hand-unrolled RK4 references: the loops solve_riccati and
# solve_matrix_riccati ran before both stepped through riccati.rk4, with
# every coefficient evaluated at every stage.  The solvers must reproduce
# them bit for bit, escape reports included.

def _escape_ref(values, names, t):
    for value, name in zip(values, names):
        if not math.isfinite(value) or abs(value) > DIVERGENCE_LIMIT:
            raise FiniteEscapeError(t, name)


def _rhs_ref(spec, t, phi):
    p1, p2, p3 = phi
    a, b, q, sig = spec.A(t), spec.B(t), spec.Q(t), spec.sigma(t)
    if not q > 0.0:
        raise AssumptionError(f"Q({t}) = {q}")
    r = b * b / q
    return (r * p1 * p1 - 2.0 * a * p1,
            r * p2 * p2 + 2.0 * r * p1 * p2 - 2.0 * a * p2,
            -sig * sig * p1)


def _solve_riccati_loop(spec, steps):
    grid = np.linspace(0.0, spec.T, steps + 1)
    phi = np.empty((3, steps + 1))
    p1, p2, p3 = spec.D1, spec.D2, 0.0
    phi[:, steps] = p1, p2, p3
    names = ("phi1", "phi2", "phi3")
    _escape_ref((p1, p2, p3), names, spec.T)
    for k in range(steps, 0, -1):
        t1 = float(grid[k])
        h = float(grid[k - 1]) - t1
        a1, b1, c1 = _rhs_ref(spec, t1, (p1, p2, p3))
        a2, b2, c2 = _rhs_ref(
            spec, t1 + 0.5 * h, (p1 + 0.5 * h * a1, p2 + 0.5 * h * b1, p3 + 0.5 * h * c1)
        )
        a3, b3, c3 = _rhs_ref(
            spec, t1 + 0.5 * h, (p1 + 0.5 * h * a2, p2 + 0.5 * h * b2, p3 + 0.5 * h * c2)
        )
        a4, b4, c4 = _rhs_ref(spec, t1 + h, (p1 + h * a3, p2 + h * b3, p3 + h * c3))
        p1 = p1 + h / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        p2 = p2 + h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        p3 = p3 + h / 6.0 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        _escape_ref((p1, p2, p3), names, float(grid[k - 1]))
        phi[:, k - 1] = p1, p2, p3
    return phi


def _sym_ref(m):
    return 0.5 * (m + m.T)


def _matrix_rhs_ref(spec, t, phi):
    p1, p2, _ = phi
    a, b, q, sig = spec.A, spec.B, spec.Q, spec.sigma
    m = b @ np.linalg.solve(q, b.T)
    d1 = p1.T @ m @ p1 - 2.0 * (a.T @ p1)
    d2 = 2.0 * (p2.T @ m @ p1) + p2.T @ m @ p2 - 2.0 * (a.T @ p2)
    return (_sym_ref(d1), _sym_ref(d2), -float(np.trace(sig @ sig.T @ p1)))


def _solve_matrix_riccati_loop(spec, steps):
    grid = np.linspace(0.0, spec.T, steps + 1)
    phi1 = np.empty((steps + 1, spec.d, spec.d))
    phi2 = np.empty((steps + 1, spec.d, spec.d))
    phi3 = np.empty(steps + 1)
    p1, p2, p3 = np.array(spec.D1), np.array(spec.D2), 0.0
    phi1[steps], phi2[steps], phi3[steps] = p1, p2, p3

    def guard(q1, q2, q3, t):
        worst = max(float(np.abs(q1).max()), float(np.abs(q2).max()), abs(q3))
        _escape_ref((worst,), ("phi",), t)

    guard(p1, p2, p3, spec.T)
    for k in range(steps, 0, -1):
        t1 = float(grid[k])
        h = float(grid[k - 1]) - t1
        k1 = _matrix_rhs_ref(spec, t1, (p1, p2, p3))
        y2 = (_sym_ref(p1 + 0.5 * h * k1[0]), _sym_ref(p2 + 0.5 * h * k1[1]),
              p3 + 0.5 * h * k1[2])
        k2 = _matrix_rhs_ref(spec, t1 + 0.5 * h, y2)
        y3 = (_sym_ref(p1 + 0.5 * h * k2[0]), _sym_ref(p2 + 0.5 * h * k2[1]),
              p3 + 0.5 * h * k2[2])
        k3 = _matrix_rhs_ref(spec, t1 + 0.5 * h, y3)
        y4 = (_sym_ref(p1 + h * k3[0]), _sym_ref(p2 + h * k3[1]), p3 + h * k3[2])
        k4 = _matrix_rhs_ref(spec, t1 + h, y4)
        p1 = _sym_ref(p1 + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]))
        p2 = _sym_ref(p2 + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]))
        p3 = p3 + h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        guard(p1, p2, p3, float(grid[k - 1]))
        phi1[k - 1], phi2[k - 1], phi3[k - 1] = p1, p2, p3
    return phi1, phi2, phi3


@pytest.mark.parametrize("spec", [scalar_preset("example1"), TIME_VARYING],
                         ids=["example1", "time-varying"])
def test_solve_riccati_matches_unrolled_loop(spec):
    sol = solve_riccati(spec, 1000)
    ref = _solve_riccati_loop(spec, 1000)
    assert (sol.grid == np.linspace(0.0, spec.T, 1001)).all()
    assert (sol.phi1 == ref[0]).all()
    assert (sol.phi2 == ref[1]).all()
    assert (sol.phi3 == ref[2]).all()


@pytest.mark.parametrize("fields", [MATRIX_D3, FULL_Q, MATRIX_D1],
                         ids=["constant", "full-q", "d1"])
def test_solve_matrix_riccati_matches_unrolled_loop(fields):
    spec = MatrixProblemSpec(**fields)
    sol = solve_matrix_riccati(spec, 400)
    ref = _solve_matrix_riccati_loop(spec, 400)
    assert (sol.phi1 == ref[0]).all()
    assert (sol.phi2 == ref[1]).all()
    assert (sol.phi3 == ref[2]).all()


@pytest.mark.parametrize("d1, d2", [(-2.0, 0.0), (0.5, -3.0), (2e12, 0.0)])
def test_finite_escape_matches_unrolled_loop(d1, d2):
    # Same grid time and component as the reference, whichever escapes first.
    spec = ProblemSpec(A=0.0, B=1.0, sigma=1.0, Q=1.0, D1=d1, D2=d2, T=1.0)
    with pytest.raises(FiniteEscapeError) as ref:
        _solve_riccati_loop(spec, 1000)
    with pytest.raises(FiniteEscapeError) as err:
        solve_riccati(spec, 1000)
    assert (err.value.time, err.value.component) == (ref.value.time, ref.value.component)
    mspec = _matrix_unit(2, D1=d1 * np.eye(2), D2=d2 * np.eye(2))
    with pytest.raises(FiniteEscapeError) as ref:
        _solve_matrix_riccati_loop(mspec, 500)
    with pytest.raises(FiniteEscapeError) as err:
        solve_matrix_riccati(mspec, 500)
    assert (err.value.time, err.value.component) == (ref.value.time, ref.value.component)


def test_solvers_reject_non_positive_or_singular_q():
    unit = dict(A=0.0, B=1.0, sigma=1.0, D1=1.0, D2=0.0, T=1.0)
    with pytest.raises(AssumptionError, match="A1"):
        solve_riccati(ProblemSpec(Q=-1.0, **unit), 100)
    # Q turns non-positive at t = 0.5 only; the backward solve reaches it
    crossing = Coefficient.table([0.0, 0.5, 1.0], [-1.0, 0.0, 1.0])
    with pytest.raises(AssumptionError, match=r"Q\(0\.5\) = 0"):
        solve_riccati(ProblemSpec(Q=crossing, **unit), 100)
    singular = MatrixProblemSpec(d=2, A=np.zeros((2, 2)), B=np.eye(2),
                                 sigma=np.eye(2), Q=np.zeros((2, 2)),
                                 D1=np.eye(2), D2=np.zeros((2, 2)), T=1.0)
    with pytest.raises(AssumptionError, match="singular"):
        solve_matrix_riccati(singular, 100)


def test_rhs_unit_coefficients():
    # A=0, B=Q=sigma=1, phi=(1,0,0): phi1'=1, phi2'=0, phi3'=-1
    # (arguments: A, r = B^2/Q, sigma^2, phi1, phi2)
    assert _riccati_derivs(0.0, 1.0, 1.0, 1.0, 0.0) == (1.0, 0.0, -1.0)


def test_rhs_cross_term():
    # phi2' picks up the 2 (B^2/Q) phi1 phi2 coupling
    d1, d2, d3 = _riccati_derivs(0.0, 1.0, 1.0, 0.5, 0.25)
    assert d1 == pytest.approx(0.25)
    assert d2 == pytest.approx(0.25 ** 2 + 2 * 0.5 * 0.25)
    assert d3 == -0.5


def test_rhs_requires_positive_q():
    # Q > 0 at every node of a 2-step grid but 0 at the stage time 0.25,
    # where the right-hand side is evaluated too.
    q = Coefficient.table([0.0, 0.25, 0.5, 1.0], [1.0, 0.0, 1.0, 1.0])
    spec = ProblemSpec(A=0.0, B=1.0, sigma=1.0, Q=q, D1=1.0, D2=0.0, T=1.0)
    with pytest.raises(AssumptionError, match=r"A1.*Q\(0\.25\) = 0"):
        solve_riccati(spec, 2)


def test_terminal_data_is_exact():
    sol = solve_riccati(scalar_preset("example1"), 100)
    assert sol.phi1[-1] == 1.0
    assert sol.phi2[-1] == 0.0
    assert sol.phi3[-1] == 0.0


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_matches_closed_form(name):
    sol = solve_riccati(scalar_preset(name), 1000)
    ref = closed_form(scalar_preset(name), 1000)
    err = max(np.abs(sol.phi1 - ref.phi1).max(),
              np.abs(sol.phi2 - ref.phi2).max(),
              np.abs(sol.phi3 - ref.phi3).max())
    assert err <= 1e-8, f"{name}: max norm error {err:.3e}"


def test_example2_decoupled_components_stay_zero():
    # with D1 = 0 the phi1 and phi3 equations start and remain at exactly 0
    sol = solve_riccati(scalar_preset("example2"), 500)
    assert not sol.phi1.any()
    assert not sol.phi3.any()


def test_rk4_convergence_order():
    # classical RK4: error ratio per step-doubling should be about 2^4
    errs = []
    for steps in (125, 250, 500):
        sol = solve_riccati(scalar_preset("example1"), steps)
        ref = closed_form(scalar_preset("example1"), steps)
        errs.append(max(np.abs(sol.phi1 - ref.phi1).max(),
                        np.abs(sol.phi3 - ref.phi3).max()))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert r1 > 12.0 and r2 > 12.0, f"ratios {r1:.1f}, {r2:.1f}"


def test_finite_escape_reports_pole_location():
    # D1 = -2, T = 1: phi1(t) = -2/(1 - 2(1-t)) blows up at t = 1/2
    spec = ProblemSpec(A=0.0, B=1.0, sigma=1.0, Q=1.0, D1=-2.0, D2=0.0, T=1.0)
    with pytest.raises(FiniteEscapeError) as err:
        solve_riccati(spec, 1000)
    assert abs(err.value.time - 0.5) <= 0.01
    assert err.value.component == "phi1"


def test_escape_closed_form_satisfies_ode():
    # independent oracle for the pole location: check by substitution that
    # phi(t) = D1 / (1 + D1 (T - t)) solves phi' = phi^2 next to the pole
    d1, T = -2.0, 1.0
    phi = lambda t: d1 / (1.0 + d1 * (T - t))
    for t in (0.6, 0.8, 0.95):
        h = 1e-6
        deriv = (phi(t + h) - phi(t - h)) / (2 * h)
        assert deriv == pytest.approx(phi(t) ** 2, rel=1e-7)
    # 1 + D1 (T - t) = 0 exactly at t = T - 1/|D1| = 1/2
    assert 1.0 + d1 * (T - 0.5) == 0.0


def test_sample_solution_interpolates_and_checks_domain():
    sol = solve_riccati(scalar_preset("example1"), 10)
    # node hits are exact
    p = sample_solution(sol, float(sol.grid[3]))
    assert p == (sol.phi1[3], sol.phi2[3], sol.phi3[3])
    # midpoints are averages on a uniform grid
    mid = sample_solution(sol, float(0.5 * (sol.grid[3] + sol.grid[4])))
    assert mid[0] == pytest.approx(0.5 * (sol.phi1[3] + sol.phi1[4]))
    with pytest.raises(DomainError):
        sample_solution(sol, -0.01)
    with pytest.raises(DomainError):
        sample_solution(sol, 1.01)


def test_solution_at_terminal_time():
    sol = solve_riccati(scalar_preset("example1"), 10)
    assert sol.at(1.0) == (1.0, 0.0, 0.0)


def test_analytic_riccati_values_and_errors():
    p1, p2, p3 = closed_form(scalar_preset("example1")).at(0.0)
    assert p1 == pytest.approx(0.5)
    assert p2 == 0.0
    assert p3 == pytest.approx(math.log(2.0))
    assert closed_form(scalar_preset("example2")).at(0.0) == (0.0, 0.5, 0.0)
    with pytest.raises(DomainError):
        closed_form(scalar_preset("example1")).at(2.0)
    # outside the closed form's domain: A != 0, B = 0, time-varying data
    unit = dict(A=0.0, B=1.0, sigma=1.0, Q=1.0, D1=1.0, D2=0.0, T=1.0)
    for bad in (dict(A=0.5), dict(B=0.0), dict(sigma=Coefficient.poly([1.0, 1.0]))):
        with pytest.raises(DomainError):
            closed_form(ProblemSpec(**{**unit, **bad}))


def test_closed_form_matches_solver_off_unit_coefficients():
    # constant B, sigma, Q away from 1 and both terminal weights live
    spec = ProblemSpec(A=0.0, B=2.0, sigma=0.7, Q=0.5, D1=0.8, D2=-0.3, T=1.5)
    sol = solve_riccati(spec, 3000)
    ref = closed_form(spec, 3000)
    err = max(np.abs(sol.phi1 - ref.phi1).max(),
              np.abs(sol.phi2 - ref.phi2).max(),
              np.abs(sol.phi3 - ref.phi3).max())
    assert err <= 1e-8, f"max norm error {err:.3e}"


def test_closed_form_reports_finite_escape():
    # D1 = -2 with r = 1: 1 + r D1 (T - t) vanishes at t = 0.5
    spec = ProblemSpec(A=0.0, B=1.0, sigma=1.0, Q=1.0, D1=-2.0, D2=0.0, T=1.0)
    with pytest.raises(FiniteEscapeError) as err:
        closed_form(spec)
    assert err.value.time == pytest.approx(0.5)
    with pytest.raises(FiniteEscapeError) as err:
        solve_riccati(spec, 1000)
    assert err.value.time == pytest.approx(0.5, abs=0.01)


def test_steps_domain():
    with pytest.raises(DomainError):
        solve_riccati(scalar_preset("example1"), 1)


def test_time_varying_coefficients_integrate():
    # sanity: nonconstant A and sigma run without error and keep terminal data
    from mflqg import Coefficient
    spec = ProblemSpec(A=Coefficient.poly([0.0, 0.5]), B=1.0,
                       sigma=Coefficient.table([0.0, 1.0], [1.0, 0.5]),
                       Q=2.0, D1=1.0, D2=0.5, T=1.0)
    sol = solve_riccati(spec, 500)
    assert sol.phi1[-1] == 1.0 and sol.phi2[-1] == 0.5
    assert np.isfinite(sol.phi1).all()


# ---------------------------------------------------------------------------
# matrix system


def _matrix_unit(d=2, D1=None, D2=None, T=1.0):
    ey = np.eye(d)
    z = np.zeros((d, d))
    return MatrixProblemSpec(d=d, A=z, B=ey, sigma=ey, Q=ey,
                             D1=ey if D1 is None else D1,
                             D2=z if D2 is None else D2, T=T)


def _stack(spec, p1, p2):
    """The stacked right-hand side at (phi1, phi2), unpacked to
    (phi1', phi2', phi3')."""
    a, m, ss = _matrix_coefs(spec)
    dp, d3 = _stack_derivs(2.0 * a.T, m, ss, np.array([p1, p2]))
    return dp[0], dp[1], d3


def test_matrix_rhs_matches_scalar_in_d1():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b, sig, q = rng.uniform(-1.5, 1.5), rng.uniform(0.2, 2.0), \
            rng.uniform(0.0, 1.5), rng.uniform(0.2, 2.0)
        p = rng.uniform(-2.0, 2.0, 3)
        mspec = MatrixProblemSpec(d=1, A=[[a]], B=[[b]], sigma=[[sig]],
                                  Q=[[q]], D1=[[1.0]], D2=[[0.0]], T=1.0)
        want = _riccati_derivs(a, b * b / q, sig * sig, p[0], p[1])
        got = _stack(mspec, np.array([[p[0]]]), np.array([[p[1]]]))
        assert got[0][0, 0] == pytest.approx(want[0], rel=1e-14, abs=1e-14)
        assert got[1][0, 0] == pytest.approx(want[1], rel=1e-14, abs=1e-14)
        assert got[2] == pytest.approx(want[2], rel=1e-14, abs=1e-14)


def test_matrix_rhs_unit_case():
    # identity data: phi1' = I, phi2' = 0, phi3' = -tr(phi1) = -d
    spec = _matrix_unit(2)
    d1, d2, d3 = _stack(spec, np.eye(2), np.zeros((2, 2)))
    assert np.array_equal(d1, np.eye(2))
    assert np.array_equal(d2, np.zeros((2, 2)))
    assert d3 == -2.0


def test_matrix_rhs_singular_q():
    spec = MatrixProblemSpec(d=2, A=np.zeros((2, 2)), B=np.eye(2),
                             sigma=np.eye(2), Q=np.zeros((2, 2)),
                             D1=np.eye(2), D2=np.zeros((2, 2)), T=1.0)
    with pytest.raises(AssumptionError):
        _matrix_coefs(spec)


def test_matrix_solve_diagonal_decouples():
    # diagonal unit data in d = 2 is two independent copies of the scalar
    # problem with D1 = 1; phi3 doubles because the trace sums coordinates
    spec = _matrix_unit(2)
    msol = solve_matrix_riccati(spec, 1000)
    ref = closed_form(scalar_preset("example1"), 1000)
    assert np.abs(msol.phi1[:, 0, 0] - ref.phi1).max() <= 1e-8
    assert np.abs(msol.phi1[:, 1, 1] - ref.phi1).max() <= 1e-8
    assert np.abs(msol.phi1[:, 0, 1]).max() == 0.0
    assert np.abs(msol.phi2).max() == 0.0
    assert np.abs(msol.phi3 - 2.0 * ref.phi3).max() <= 1e-8


def test_matrix_solve_stays_symmetric():
    rng = np.random.default_rng(11)
    a = rng.uniform(-1.0, 1.0, (2, 2))
    d1 = rng.uniform(0.0, 1.0, (2, 2))
    d1 = 0.5 * (d1 + d1.T)
    spec = MatrixProblemSpec(d=2, A=a, B=np.eye(2), sigma=np.eye(2),
                             Q=2.0 * np.eye(2), D1=d1, D2=np.zeros((2, 2)), T=1.0)
    sol = solve_matrix_riccati(spec, 400)
    asym = np.abs(sol.phi1 - sol.phi1.transpose(0, 2, 1)).max()
    assert asym <= 1e-12, f"asymmetry {asym:.3e}"


def test_matrix_terminal_exact_and_escape():
    spec = _matrix_unit(2)
    sol = solve_matrix_riccati(spec, 100)
    assert np.array_equal(sol.phi1[-1], np.eye(2))
    assert sol.phi3[-1] == 0.0
    bad = _matrix_unit(2, D1=-2.0 * np.eye(2))
    with pytest.raises(FiniteEscapeError) as err:
        solve_matrix_riccati(bad, 1000)
    assert abs(err.value.time - 0.5) <= 0.01


def test_csv_writers(tmp_path):
    sol = solve_riccati(scalar_preset("example1"), 10)
    path = tmp_path / "phi.csv"
    solution_to_csv(sol, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,phi1,phi2,phi3"
    assert len(lines) == 12
    msol = solve_matrix_riccati(_matrix_unit(2), 10)
    mpath = tmp_path / "mphi.csv"
    matrix_solution_to_csv(msol, mpath)
    header = mpath.read_text().splitlines()[0]
    assert header.startswith("t,phi1_00,phi1_01,phi1_10,phi1_11,phi2_00")


def _csv_writer_bytes(path, header, rows):
    # The per-row csv.writer loop every CSV writer ran before they shared
    # riccati._write_csv.
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    return path.read_bytes()


def test_write_csv_matches_csv_writer(tmp_path):
    from mflqg.riccati import _write_csv

    # 1320 rows: the helper formats rows in batches of 512.
    odd = np.tile([0.0, -0.0, 1.0 / 3.0, -1e-300, 5e-324, 1e22, 2.0 ** 60,
                   np.nan, np.inf, -np.inf, 0.1], 120)
    cols = [odd, odd[::-1] * -2.0, np.arange(odd.size, dtype=float)]
    _write_csv(tmp_path / "got.csv", ["t", "a_1", "P_t"], cols)
    assert (tmp_path / "got.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "ref.csv", ["t", "a_1", "P_t"], zip(*cols))
    _write_csv(tmp_path / "empty.csv", ["t", "m1"], [[], []])
    assert (tmp_path / "empty.csv").read_bytes() == b"t,m1\r\n"
    # The matrix writer lays out phi1 and phi2 row-major after t.
    msol = solve_matrix_riccati(_matrix_unit(2), 10)
    matrix_solution_to_csv(msol, tmp_path / "mphi.csv")
    rows = [[msol.grid[k], *msol.phi1[k].ravel(), *msol.phi2[k].ravel(),
             msol.phi3[k]] for k in range(msol.grid.size)]
    header = (tmp_path / "mphi.csv").read_text().splitlines()[0].split(",")
    assert (tmp_path / "mphi.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "mref.csv", header, rows)
