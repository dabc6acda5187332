import math

import numpy as np
import pytest

from mflqg import (AssumptionError, Coefficient, DomainError, FeedbackLaw,
                   FiniteEscapeError, ProblemSpec, closed_form,
                   cost_coefficients, optimal_feedback, scalar_preset,
                   solve_riccati)
from mflqg.cli import main
from mflqg.riccati import (_BLOCK, DIVERGENCE_LIMIT, _coefficients,
                           solution_to_csv)

# A != 0, B a polynomial, sigma a table with a knot inside the horizon.
TIME_VARYING = ProblemSpec(A=-0.3, B=Coefficient.poly([1.0, 0.5]),
                           sigma=Coefficient.table([0.0, 0.5, 1.0], [0.5, 0.7, 0.5]),
                           Q=Coefficient.poly([1.0, 0.2]), D1=1.0, D2=0.5, T=1.0)

# d = 3 with a non-symmetric A, Q = diag(1, 2, 1) and D2 != 0.
MATRIX_D3 = dict(
    A=[[-0.2, 0.5, 0.0], [0.1, -0.3, 0.4], [0.0, -0.2, 0.1]],
    B=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.2, 0.0, 1.0]],
    sigma=[[0.6, 0.0, 0.0], [0.1, 0.5, 0.0], [0.0, 0.2, 0.4]],
    Q=np.diag([1.0, 2.0, 1.0]), D1=np.eye(3),
    D2=[[0.5, 0.1, 0.0], [0.1, 0.3, 0.0], [0.0, 0.0, 0.2]], T=1.0)

# d = 2 with a Q that is not diagonal, so M = B Q^{-1} B^T mixes both rows.
FULL_Q = dict(
    A=[[0.1, -0.4], [0.3, -0.2]], B=[[1.0, 0.5], [0.0, 1.0]],
    sigma=[[0.5, 0.0], [0.2, 0.3]], Q=[[2.0, 0.6], [0.6, 1.0]],
    D1=[[1.0, 0.2], [0.2, 0.5]], D2=[[0.3, -0.1], [-0.1, 0.4]], T=0.8)

# d = 1 given as 1 x 1 matrices: the scalar problem with these numbers.
MATRIX_D1 = dict(A=[[-0.3]], B=[[1.2]], sigma=[[0.5]], Q=[[2.0]],
                 D1=[[1.0]], D2=[[0.5]], T=1.0)


# Two references.  _step_matrix_loop is solve_riccati unrolled: one RK4
# step matrix at a time on [X; Y], with every coefficient evaluated at every
# stage, a restart from [I; phi] every _BLOCK steps, phi3 by Simpson's rule
# and the same escape rules; the solve must reproduce it bit for bit, escape
# reports included.  _solve_riccati_loop and _solve_matrix_riccati_loop are
# the nonlinear RK4 loops on phi itself that the solves ran before: an
# independent reference they agree with to a measured tolerance.

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


def _matrices(spec, t=0.0):
    """A, B, Q and sigma at t as d x d arrays."""
    return [np.reshape(c.on(t), (spec.d, spec.d))
            for c in (spec.A, spec.B, spec.Q, spec.sigma)]


def _matrix_rhs_ref(spec, t, phi):
    p1, p2, _ = phi
    a, b, q, sig = _matrices(spec, t)
    m = b @ np.linalg.solve(q, b.T)
    d1 = p1.T @ m @ p1 - 2.0 * (a.T @ p1)
    d2 = 2.0 * (p2.T @ m @ p1) + p2.T @ m @ p2 - 2.0 * (a.T @ p2)
    return (_sym_ref(d1), _sym_ref(d2), -float(np.trace(sig @ sig.T @ p1)))


def _solve_matrix_riccati_loop(spec, steps):
    grid = np.linspace(0.0, spec.T, steps + 1)
    phi1 = np.empty((steps + 1, spec.d, spec.d))
    phi2 = np.empty((steps + 1, spec.d, spec.d))
    phi3 = np.empty(steps + 1)
    p1, p2 = (np.reshape(w, (spec.d, spec.d)) for w in (spec.D1, spec.D2))
    p3 = 0.0
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


def _step_matrix_loop(spec, steps):
    d = spec.d
    eye, eye2 = np.eye(d), np.eye(2 * d)

    def coefs(t):
        if d > 1:
            a, b, q, sig = _matrices(spec, t)
            return a, b @ np.linalg.solve(q, b.T), sig @ sig.T
        a, b, q, sig = spec.A(t), spec.B(t), spec.Q(t), spec.sigma(t)
        if not q > 0.0:
            raise AssumptionError(f"Q({t}) = {q}")
        return np.array([[a]]), np.array([[b * (b / q)]]), np.array([[sig * sig]])

    def g_at(t):
        a, m, _ = coefs(t)
        return np.block([[a, -m], [np.zeros((d, d)), -a.T]])

    def escape(t, values):
        for name, v in zip(("phi1", "phi2", "phi3"), values):
            if not (np.abs(v) <= DIVERGENCE_LIMIT).all():
                raise FiniteEscapeError(t, name)

    def ratio(x, y):
        return np.linalg.solve(x.T, y.T).T

    nodes = np.linspace(0.0, spec.T, steps + 1)[::-1]
    p1 = np.reshape(spec.D1, (d, d)) * 1.0
    pi = np.reshape(spec.D1 + spec.D2, (d, d)) * 1.0
    p3 = 0.0
    escape(spec.T, (spec.D1, spec.D2))
    out = [(p1, pi, p3)]
    for k in range(steps):
        if k % _BLOCK == 0:
            y = np.block([[eye, eye], [p1, pi]])
            prev, logdet = [eye, eye], 0.0
        t0 = float(nodes[k])
        h = float(nodes[k + 1]) - t0
        g1, gm, g2 = (g_at(t) for t in (t0, t0 + 0.5 * h, float(nodes[k + 1])))
        k2 = gm @ (eye2 + 0.5 * h * g1)
        k3 = gm @ (eye2 + 0.5 * h * k2)
        k4 = g2 @ (eye2 + h * k3)
        y = (eye2 + h / 6.0 * (g1 + 2.0 * k2 + 2.0 * k3 + k4)) @ y
        xs, ys = [y[:d, :d], y[:d, d:]], [y[d:, :d], y[d:, d:]]
        t1 = float(nodes[k + 1])
        for c, name in ((0, "phi1"), (1, "phi2")):
            if not (np.isfinite(xs[c]).all() and np.isfinite(ys[c]).all()) \
                    or np.linalg.det(xs[c]) == 0.0:
                raise FiniteEscapeError(t1, name)
            transfer = np.linalg.solve(prev[c], xs[c])
            if not np.isfinite(transfer).all() \
                    or (np.linalg.eigvals(transfer).real <= 0.0).any():
                raise FiniteEscapeError(t1, name)
        prev = xs
        q1, qi = ratio(xs[0], ys[0]), ratio(xs[1], ys[1])
        (a0, m0, s0), (am, mm, sm), (a1, m1, s1) = (
            coefs(t) for t in (t0, t0 + 0.5 * h, t1))
        slope0 = p1 @ m0 @ p1 - a0.T @ p1 - p1 @ a0
        slope1 = q1 @ m1 @ q1 - a1.T @ q1 - q1 @ a1
        mid = 0.5 * (p1 + q1) + h / 8.0 * (slope0 - slope1)

        def simpson(c0, cm, c1, traced=True):
            f0, fm, f1 = ((np.trace(c0 @ p1), np.trace(cm @ mid), np.trace(c1 @ q1))
                          if traced else (np.trace(c0), np.trace(cm), np.trace(c1)))
            return h / 6.0 * (f0 + 4.0 * fm + f1)

        new_logdet = np.log(np.linalg.det(xs[0]))
        miss = simpson(a0, am, a1, False) - simpson(m0, mm, m1) - (new_logdet - logdet)
        logdet = new_logdet
        w, dp = 0.0, q1 - p1
        if abs(miss) > (abs(h) * np.abs(am).sum(axis=1).max()) ** 5 \
                and np.trace(mm @ dp) != 0.0:
            w = np.trace(sm @ dp) / np.trace(mm @ dp)
        p3 = p3 + -(simpson(s0, sm, s1) + w * miss)
        p1, pi = q1, qi
        escape(t1, (p1, pi - p1))
        out.append((p1, pi, p3))
    for k, o in enumerate(out):  # phi3 once phi1 and phi2 are through
        if not abs(o[2]) <= DIVERGENCE_LIMIT:
            raise FiniteEscapeError(float(nodes[k]), "phi3")
    phi1 = np.array([o[0] for o in out[::-1]])
    phi2 = np.array([o[1] for o in out[::-1]]) - phi1
    phi2[-1] = spec.D2
    phi3 = np.array([o[2] for o in out[::-1]])
    return phi1, phi2, phi3


def _exact_phi(spec, grid):
    """phi of a constant scalar spec with B != 0 in closed form, for any A:
    with tau = T - t, r = B^2/Q and E = (e^{2 A tau} - 1) / (2 A),
    phi1 = D1 e^{2 A tau} / (1 + r D1 E), Pi the same from D1 + D2 and
    phi3 = (sigma^2 / r) log(1 + r D1 E), written so that neither
    e^{2 A tau} nor E overflows."""
    a, r, s2 = spec.A(0.0), spec.B(0.0) ** 2 / spec.Q(0.0), spec.sigma(0.0) ** 2
    tau = spec.T - grid
    if a == 0.0:
        den = [1.0 + r * w * tau for w in (spec.D1, spec.D1 + spec.D2)]
        p1, pi = spec.D1 / den[0], (spec.D1 + spec.D2) / den[1]
        return p1, pi - p1, s2 / r * np.log(den[0])
    decay = np.exp(-2.0 * abs(a) * tau)
    e = -np.expm1(-2.0 * abs(a) * tau) / (2.0 * abs(a))  # E e^{-2 |A| tau}
    if a > 0.0:
        den = [decay + r * w * e for w in (spec.D1, spec.D1 + spec.D2)]
        p1, pi = spec.D1 / den[0], (spec.D1 + spec.D2) / den[1]
        return p1, pi - p1, s2 / r * (2.0 * a * tau + np.log(den[0]))
    den = [1.0 + r * w * e for w in (spec.D1, spec.D1 + spec.D2)]
    p1, pi = spec.D1 * decay / den[0], (spec.D1 + spec.D2) * decay / den[1]
    return p1, pi - p1, s2 / r * np.log(den[0])


def _scalar(sol):
    """A scalar solution's (k, 1, 1) tables as one number per node."""
    return sol.phi1[:, 0, 0], sol.phi2[:, 0, 0], sol.phi3


def _gap(sol, ref):
    return [float(np.abs(np.reshape(got, np.shape(want)) - want).max())
            for got, want in zip((sol.phi1, sol.phi2, sol.phi3), ref)]


@pytest.mark.parametrize("spec", [scalar_preset("example1"), TIME_VARYING],
                         ids=["example1", "time-varying"])
def test_solve_riccati_matches_unrolled_loop(spec):
    sol = solve_riccati(spec, 1000)
    assert (sol.grid == np.linspace(0.0, spec.T, 1001)).all()
    for got, want in zip((sol.phi1, sol.phi2, sol.phi3), _step_matrix_loop(spec, 1000)):
        assert (got == want).all()
    # Measured against the nonlinear loop: at most 4.7e-13 (time-varying).
    assert max(_gap(sol, _solve_riccati_loop(spec, 1000))) <= 5e-12


@pytest.mark.parametrize("fields", [MATRIX_D3, FULL_Q, MATRIX_D1],
                         ids=["constant", "full-q", "d1"])
def test_solve_matrix_riccati_matches_unrolled_loop(fields):
    # The solve for every d; a non-symmetric A (constant) makes A^T for A
    # in either the step matrices or the phi1 slopes fail the second half.
    spec = ProblemSpec(**fields)
    sol = solve_riccati(spec, 400)
    for got, want in zip((sol.phi1, sol.phi2, sol.phi3), _step_matrix_loop(spec, 400)):
        assert (got == want).all()
    # Measured against the nonlinear loop: at most 2.3e-12 (constant).
    assert max(_gap(sol, _solve_matrix_riccati_loop(spec, 400))) <= 2e-11


@pytest.mark.parametrize("d1, d2", [(-2.0, 0.0), (0.5, -3.0), (2e12, 0.0)])
def test_finite_escape_matches_unrolled_loop(d1, d2):
    # Same grid time and component as the step-matrix loop, whichever
    # escapes first; the nonlinear loops saw the same escape at most two
    # steps later (one at 1000 steps, two at 500).
    spec = ProblemSpec(A=0.0, B=1.0, sigma=1.0, Q=1.0, D1=d1, D2=d2, T=1.0)
    mspec = _matrix_unit(2, D1=d1 * np.eye(2), D2=d2 * np.eye(2))
    for s, steps, nonlinear in ((spec, 1000, _solve_riccati_loop),
                                (mspec, 500, _solve_matrix_riccati_loop)):
        with pytest.raises(FiniteEscapeError) as ref:
            _step_matrix_loop(s, steps)
        with pytest.raises(FiniteEscapeError) as err:
            solve_riccati(s, steps)
        assert (err.value.time, err.value.component) == \
            (ref.value.time, ref.value.component)
        with pytest.raises(FiniteEscapeError) as old:
            nonlinear(s, steps)
        assert 0.0 <= err.value.time - old.value.time <= 2.0 * s.T / steps + 1e-12
        assert old.value.component in (err.value.component, "phi")


@pytest.mark.parametrize("d1", [1e3, 5e3, 1e5])
def test_large_terminal_weight_does_not_escape(d1, tmp_path, capsys):
    # phi1 = D1 / (1 + D1 tau) stays finite; RK4 on the nonlinear equation
    # went unstable at h D1 >~ 1.4 and reported an escape for D1 >= 2000 at
    # 1000 steps.  The linear form is exact, and log det X keeps phi3 so.
    spec = ProblemSpec(A=0.0, B=1.0, sigma=1.0, Q=1.0, D1=d1, D2=0.0, T=1.0)
    sol = solve_riccati(spec, 1000)
    exact = _exact_phi(spec, sol.grid)
    for got, want in zip(_scalar(sol), exact):
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-12)
    msol = solve_riccati(_matrix_unit(2, D1=d1 * np.eye(2)), 1000)
    for i in range(2):
        np.testing.assert_allclose(msol.phi1[:, i, i], exact[0], rtol=1e-8)
    np.testing.assert_allclose(msol.phi3, 2.0 * exact[2], rtol=1e-8)
    # Steep in one direction only, with S not a multiple of M: phi3 is
    # sigma_11^2 log(1 + D1 tau) + sigma_22^2 log(1 + tau), measured within
    # 1.7e-6 relative at D1 = 1e5 (the log det X correction of Simpson's
    # rule assumes the error of tr(S phi1) follows the step's change).
    aniso = ProblemSpec(A=np.zeros((2, 2)), B=np.eye(2), sigma=np.diag([1.0, 2.0]),
                        Q=np.eye(2), D1=np.diag([d1, 1.0]), D2=np.zeros((2, 2)), T=1.0)
    asol = solve_riccati(aniso, 1000)
    np.testing.assert_allclose(asol.phi1[:, 0, 0], exact[0], rtol=1e-8)
    want = exact[2] + 4.0 * np.log1p(1.0 - asol.grid)
    assert np.abs(asol.phi3 - want).max() <= 1e-5 * want[0]
    cfg = tmp_path / "big.ini"
    cfg.write_text(f"[problem]\nA = 0\nB = 1\nsigma = 1\nQ = 1\nD1 = {d1!r}\n"
                   "D2 = 0\nT = 1\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("d", [0, 2])
def test_singular_x_is_a_finite_escape(d, tmp_path, capsys):
    # D1 = -2: X = 1 - 2 tau is exactly 0 at t = 0.5, a node.  That is a
    # FiniteEscapeError there (exit 5), not a LinAlgError.
    spec = (ProblemSpec(A=0.0, B=1.0, sigma=1.0, Q=1.0, D1=-2.0, D2=0.0, T=1.0)
            if d == 0 else _matrix_unit(d, D1=-2.0 * np.eye(d)))
    with pytest.raises(FiniteEscapeError) as err:
        solve_riccati(spec, 1000)
    assert (err.value.time, err.value.component) == (0.5, "phi1")
    cfg = tmp_path / "escape.ini"
    cfg.write_text("[problem]\nA = 0\nB = 1\nsigma = 1\nQ = 1\nD1 = -2\nD2 = 0\nT = 1\n"
                   if d == 0 else
                   "[matrix_problem]\nd = 2\nA = 0 0; 0 0\nB = 1 0; 0 1\n"
                   "sigma = 1 0; 0 1\nQ = 1 0; 0 1\nD1 = -2 0; 0 -2\nD2 = 0 0; 0 0\nT = 1\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 5
    assert "finite escape" in capsys.readouterr().err


@pytest.mark.parametrize("d", [0, 2])
def test_pole_between_nodes_is_an_escape(d):
    # D1 = -1/0.7005: phi1 has its pole at t = 0.2995, between the nodes
    # 0.300 and 0.299 of a 1000-step grid, where phi1 stays below 1e12 on
    # both sides.  With D1 I at d = 2, det X = x^2 touches 0 and is >= 0 at
    # every node, so only the transfer X_{k+1} X_k^{-1} (negative) shows it.
    d1 = -1.0 / 0.7005
    spec = (ProblemSpec(A=0.0, B=1.0, sigma=1.0, Q=1.0, D1=d1, D2=0.0, T=1.0)
            if d == 0 else _matrix_unit(d, D1=d1 * np.eye(d)))
    with pytest.raises(FiniteEscapeError) as err:
        solve_riccati(spec, 1000)
    assert err.value.component == "phi1"
    assert 0.2995 - 0.001 <= err.value.time < 0.2995


@pytest.mark.parametrize("a, T, steps", [(20.0, 40.0, 40000), (-20.0, 40.0, 40000),
                                          (5.0, 160.0, 16000), (-5.0, 160.0, 16000)])
def test_no_false_escape_at_large_a_t(a, T, steps):
    # |A| T = 800: X grows like e^{|A| tau}, and overflowed without the
    # restart at every block.  Measured relative gaps to the closed form:
    # phi1 <= 3.4e-8, phi2 <= 7.9e-8, phi3 <= 2.2e-7 (at A = -5, h |A| = 0.05).
    spec = ProblemSpec(A=a, B=1.0, sigma=1.0, Q=1.0, D1=1.0, D2=0.5, T=T)
    sol = solve_riccati(spec, steps)
    for got, want in zip(_scalar(sol), _exact_phi(spec, sol.grid)):
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


def test_solvers_reject_non_positive_or_singular_q():
    unit = dict(A=0.0, B=1.0, sigma=1.0, D1=1.0, D2=0.0, T=1.0)
    with pytest.raises(AssumptionError, match="A1"):
        solve_riccati(ProblemSpec(Q=-1.0, **unit), 100)
    # Q turns non-positive at t = 0.5 only; the backward solve reaches it
    crossing = Coefficient.table([0.0, 0.5, 1.0], [-1.0, 0.0, 1.0])
    with pytest.raises(AssumptionError, match=r"Q\(0\.5\) = 0"):
        solve_riccati(ProblemSpec(Q=crossing, **unit), 100)
    # A singular Q fails A1 before any solve, at the first stage time T.
    singular = _matrix_unit(2, Q=np.zeros((2, 2)))
    with pytest.raises(AssumptionError, match=r"A1.*min eig Q\(1\) = 0"):
        solve_riccati(singular, 100)


@pytest.mark.parametrize("q, d1, T, what", [
    (np.diag([1.0, -0.01]), 0.1, 0.1, r"min eig Q\([.\d]+\) = -0\.01"),
    ([[1.0, 0.5], [0.0, 1.0]], 1.0, 1.0, r"Q\([.\d]+\) is not symmetric"),
], ids=["indefinite", "non-symmetric"])
def test_every_solver_enforces_a1_on_a_matrix_q(q, d1, T, what):
    # Assumption A1 at the API boundary, d = 2 with A = 0, B = sigma = I and
    # D2 = 0: an indefinite Q came out of solve_riccati as a finite escape
    # near t = 0, and a Q that is not symmetric was solved as it was.
    spec = _matrix_unit(2, D1=d1 * np.eye(2), T=T, Q=q)
    with pytest.raises(AssumptionError, match="assumption A1.*" + what):
        solve_riccati(spec, 100)
    sol = solve_riccati(_matrix_unit(2, D1=d1 * np.eye(2), T=T), 100)
    law = FeedbackLaw(sol.grid, np.zeros((101, 2, 2)), np.zeros((101, 2, 2)))
    for call in (lambda: optimal_feedback(spec, sol),
                 lambda: cost_coefficients(spec, [law], 100)):
        with pytest.raises(AssumptionError, match="assumption A1.*" + what):
            call()


def _stencil(f, h):
    """Fourth-order central differences of f at its interior nodes."""
    return (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * h)


def test_rhs_unit_coefficients():
    # A=0, B=Q=sigma=1, D1=1, D2=0: the solve satisfies phi1' = phi1^2,
    # phi2' = 0 and phi3' = -phi1 at its nodes.
    sol = solve_riccati(scalar_preset("example1"), 1000)
    h = sol.grid[1] - sol.grid[0]
    phi1, phi2, phi3 = _scalar(sol)
    p1 = phi1[2:-2]
    assert np.abs(_stencil(phi1, h) - p1 * p1).max() <= 1e-9
    assert not phi2.any()
    assert np.abs(_stencil(phi3, h) + p1).max() <= 1e-9


def test_rhs_cross_term():
    # phi2 = Pi - phi1 from the Pi columns satisfies the phi2 equation with
    # its 2 (B^2/Q) phi1 phi2 coupling: phi2' = r phi2^2 + 2 r phi1 phi2 - 2 A phi2.
    spec = ProblemSpec(A=-0.4, B=1.2, sigma=0.7, Q=0.8, D1=0.6, D2=0.9, T=1.0)
    sol = solve_riccati(spec, 1000)
    h = sol.grid[1] - sol.grid[0]
    r = 1.2 ** 2 / 0.8
    p1, p2 = sol.phi1[2:-2], sol.phi2[2:-2]
    want = r * p2 * p2 + 2.0 * r * p1 * p2 + 0.8 * p2
    # Measured 1.8e-9 against |phi2'| up to 4.1: the stencil's own error.
    assert np.abs(_stencil(sol.phi2, h) - want).max() <= 1e-8


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
    # classical RK4: error ratio per step-doubling should be about 2^4.  At
    # A = 0 the linear form is exact, so A != 0 here.
    spec = ProblemSpec(A=1.5, B=1.0, sigma=0.8, Q=1.0, D1=1.0, D2=0.5, T=1.0)
    errs = []
    for steps in (125, 250, 500):
        sol = solve_riccati(spec, steps)
        errs.append(max(_gap(sol, _exact_phi(spec, sol.grid))))
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


def _phi_node(sol, k):
    """phi at grid node k, a scalar solution's tables read as numbers."""
    return (float(sol.phi1[k, 0, 0]), float(sol.phi2[k, 0, 0]), float(sol.phi3[k]))


def test_solution_at_terminal_time():
    sol = solve_riccati(scalar_preset("example1"), 10)
    assert sol.grid[-1] == 1.0 and _phi_node(sol, -1) == (1.0, 0.0, 0.0)


def test_analytic_riccati_values_and_errors():
    p1, p2, p3 = _phi_node(closed_form(scalar_preset("example1")), 0)
    assert p1 == pytest.approx(0.5)
    assert p2 == 0.0
    assert p3 == pytest.approx(math.log(2.0))
    assert _phi_node(closed_form(scalar_preset("example2")), 0) == (0.0, 0.5, 0.0)
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


def _matrix_unit(d=2, D1=None, D2=None, T=1.0, Q=None):
    ey = np.eye(d)
    z = np.zeros((d, d))
    return ProblemSpec(A=z, B=ey, sigma=ey, Q=ey if Q is None else Q,
                       D1=ey if D1 is None else D1, D2=z if D2 is None else D2, T=T)


def test_matrix_rhs_matches_scalar_in_d1():
    # One problem type: 1 x 1 matrices make the scalar spec with the same
    # numbers, whose coefficients are A, M = B (B / Q), S = sigma^2, B, Q
    # and G = B / Q bit for bit, where a 1 x 1 solve and eigvalsh run.
    rng = np.random.default_rng(5)
    times = np.array([0.0, 0.5, 1.0])
    for _ in range(20):
        a, b, sig, q = rng.uniform(-1.5, 1.5), rng.uniform(-2.0, 2.0), \
            rng.uniform(0.0, 1.5), rng.uniform(0.2, 2.0)
        mspec = ProblemSpec(A=[[a]], B=[[b]], sigma=[[sig]], Q=[[q]],
                            D1=[[1.0]], D2=[[0.0]], T=1.0)
        spec = ProblemSpec(A=a, B=b, sigma=sig, Q=q, D1=1.0, D2=0.0, T=1.0)
        assert mspec == spec
        want = [a, b * (b / q), sig * sig, b, q, b / q]
        for got, w in zip(_coefficients(mspec, times), want):
            assert got.shape == (3, 1, 1)
            assert (got == w).all()


def test_matrix_rhs_unit_case():
    # identity data: A = 0, M = I and sigma sigma^T = I at every time
    a, m, ss = _coefficients(_matrix_unit(2), np.linspace(0.0, 1.0, 5))[:3]
    assert a.shape == m.shape == ss.shape == (5, 2, 2)
    assert not a.any()
    assert (m == np.eye(2)).all() and (ss == np.eye(2)).all()


def test_matrix_rhs_singular_q():
    spec = _matrix_unit(2, Q=np.zeros((2, 2)))
    with pytest.raises(AssumptionError, match="A1"):
        _coefficients(spec, np.array([0.0, 1.0]))


def test_matrix_solve_diagonal_decouples():
    # diagonal unit data in d = 2 is two independent copies of the scalar
    # problem with D1 = 1; phi3 doubles because the trace sums coordinates
    spec = _matrix_unit(2)
    msol = solve_riccati(spec, 1000)
    ref = closed_form(scalar_preset("example1"), 1000)
    assert np.abs(msol.phi1[:, 0, 0] - ref.phi1[:, 0, 0]).max() <= 1e-8
    assert np.abs(msol.phi1[:, 1, 1] - ref.phi1[:, 0, 0]).max() <= 1e-8
    assert np.abs(msol.phi1[:, 0, 1]).max() == 0.0
    assert np.abs(msol.phi2).max() == 0.0
    assert np.abs(msol.phi3 - 2.0 * ref.phi3).max() <= 1e-8


def test_matrix_solve_stays_symmetric():
    rng = np.random.default_rng(11)
    a = rng.uniform(-1.0, 1.0, (2, 2))
    d1 = rng.uniform(0.0, 1.0, (2, 2))
    d1 = 0.5 * (d1 + d1.T)
    spec = ProblemSpec(A=a, B=np.eye(2), sigma=np.eye(2), Q=2.0 * np.eye(2),
                       D1=d1, D2=np.zeros((2, 2)), T=1.0)
    sol = solve_riccati(spec, 400)
    asym = np.abs(sol.phi1 - sol.phi1.transpose(0, 2, 1)).max()
    assert asym <= 1e-12, f"asymmetry {asym:.3e}"


def test_matrix_terminal_exact_and_escape():
    spec = _matrix_unit(2)
    sol = solve_riccati(spec, 100)
    assert np.array_equal(sol.phi1[-1], np.eye(2))
    assert sol.phi3[-1] == 0.0
    bad = _matrix_unit(2, D1=-2.0 * np.eye(2))
    with pytest.raises(FiniteEscapeError) as err:
        solve_riccati(bad, 1000)
    assert abs(err.value.time - 0.5) <= 0.01


def test_csv_writers(tmp_path):
    sol = solve_riccati(scalar_preset("example1"), 10)
    path = tmp_path / "phi.csv"
    solution_to_csv(sol, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,phi1,phi2,phi3"
    assert len(lines) == 12
    msol = solve_riccati(_matrix_unit(2), 10)
    mpath = tmp_path / "mphi.csv"
    solution_to_csv(msol, mpath)
    mlines = mpath.read_text().splitlines()
    assert mlines[0] == ("t,phi1_00,phi1_01,phi1_10,phi1_11,"
                         "phi2_00,phi2_01,phi2_10,phi2_11,phi3")
    assert len(mlines) == 12


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
    # solution_to_csv writes a scalar solution's phi columns as they are,
    # and lays out a matrix solution's phi1 and phi2 row-major after t.
    for name, sol in (("phi", solve_riccati(scalar_preset("example1"), 10)),
                      ("mphi", solve_riccati(_matrix_unit(2), 10))):
        solution_to_csv(sol, tmp_path / f"{name}.csv")
        rows = [[sol.grid[k], *np.ravel(sol.phi1[k]), *np.ravel(sol.phi2[k]),
                 sol.phi3[k]] for k in range(sol.grid.size)]
        header = (tmp_path / f"{name}.csv").read_text().splitlines()[0].split(",")
        assert len(header) == len(rows[0])
        assert (tmp_path / f"{name}.csv").read_bytes() == _csv_writer_bytes(
            tmp_path / f"{name}-ref.csv", header, rows)
