import math

import numpy as np
import pytest

from mflqg import (Coefficient, CostReport, DomainError, FeedbackLaw, FiniteEscapeError,
                   MeasureMoments, ParticleCloud, ProblemSpec, SimConfig,
                   cost_oracle, evolve_cloud, gaussianity_check, mc_tolerance,
                   optimal_feedback, perturbation_sweep, scalar_preset,
                   simulate_mc, solve_riccati, value_function)
from mflqg import simulate as simulate_module
from mflqg.simulate import trajectory_to_csv


# Hand-unrolled RK4 reference: the loop cost_oracle ran before it stepped
# through riccati.rk4, with the gains and every coefficient evaluated at
# every stage.  cost_oracle and each perturbation_sweep column must
# reproduce it bit for bit.

def _cost_oracle_loop(spec, law, m1_0, m2_0, steps):
    def rhs(t, m1, m2):
        al, be = law.at(t)
        a, b, sig, q = spec.A(t), spec.B(t), spec.sigma(t), spec.Q(t)
        dm1 = (a + b * (al + be)) * m1
        dm2 = 2.0 * (a + b * al) * m2 + 2.0 * b * be * m1 * m1 + sig * sig
        drun = q * (al * al * m2 + (2.0 * al * be + be * be) * m1 * m1)
        return dm1, dm2, drun

    grid = np.linspace(0.0, spec.T, steps + 1)
    m1, m2, run = float(m1_0), float(m2_0), 0.0
    for k in range(steps):
        t0 = float(grid[k])
        h = float(grid[k + 1]) - t0
        a1, b1, c1 = rhs(t0, m1, m2)
        a2, b2, c2 = rhs(t0 + 0.5 * h, m1 + 0.5 * h * a1, m2 + 0.5 * h * b1)
        a3, b3, c3 = rhs(t0 + 0.5 * h, m1 + 0.5 * h * a2, m2 + 0.5 * h * b2)
        a4, b4, c4 = rhs(t0 + h, m1 + h * a3, m2 + h * b3)
        m1 = m1 + h / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        m2 = m2 + h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        run = run + h / 6.0 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
    terminal = spec.D1 * m2 + spec.D2 * m1 * m1
    return run + terminal, run, terminal


# A != 0, B a polynomial, sigma a table with a knot inside the horizon.
TIME_VARYING = ProblemSpec(A=-0.3, B=Coefficient.poly([1.0, 0.5]),
                           sigma=Coefficient.table([0.0, 0.5, 1.0], [0.5, 0.7, 0.5]),
                           Q=Coefficient.poly([1.0, 0.2]), D1=1.0, D2=0.5, T=1.0)


def _zero_law(T=1.0):
    return FeedbackLaw(grid=np.array([0.0, T]), alpha=np.zeros(2), beta=np.zeros(2))


def _optimal(name="example1", steps=1000):
    spec = scalar_preset(name)
    sol = solve_riccati(spec, steps)
    return spec, sol, optimal_feedback(spec, sol)


def test_sim_config_validation():
    with pytest.raises(DomainError):
        SimConfig(n_paths=0)
    with pytest.raises(DomainError):
        SimConfig(dt=0.0)
    cfg = SimConfig(10, 0.5, 3)
    assert (cfg.n_paths, cfg.dt, cfg.seed) == (10, 0.5, 3)


def test_oracle_uncontrolled_diffusion():
    # alpha = beta = 0 on the m2-terminal preset: m2' = sigma^2 = 1, so the
    # cost from a Dirac at 0 is exactly m2(T) = T
    spec = scalar_preset("example1")
    report = cost_oracle(spec, _zero_law(), 0.0, 0.0, 100)
    assert report.running == 0.0
    assert report.terminal == pytest.approx(1.0, abs=1e-12)
    assert report.total == pytest.approx(1.0, abs=1e-12)
    assert report.std_error == 0.0


def test_oracle_matches_ansatz_value_at_optimum():
    for name in ("example1", "example2"):
        spec, sol, law = _optimal(name, 2000)
        for x in (0.0, 1.0, -2.0):
            v = value_function(sol, 0.0, MeasureMoments.dirac(x))
            o = cost_oracle(spec, law, x, x * x, 2000)
            assert abs(o.total - v) <= 1e-5, f"{name}, x={x}"


def test_oracle_rejects_inconsistent_moments():
    spec, _, law = _optimal()
    with pytest.raises(DomainError):
        cost_oracle(spec, law, 2.0, 1.0, 100)


def test_oracle_detects_moment_blowup():
    # destabilizing feedback alpha >> 0 with a long horizon explodes m2
    spec = ProblemSpec(A=0.0, B=1.0, sigma=1.0, Q=1.0, D1=1.0, D2=0.0, T=30.0)
    law = FeedbackLaw(grid=np.array([0.0, 30.0]),
                      alpha=np.array([3.0, 3.0]), beta=np.zeros(2))
    with pytest.raises(FiniteEscapeError):
        cost_oracle(spec, law, 1.0, 1.0, 3000)


def test_oracle_respects_law_domain():
    spec = scalar_preset("example1")
    short = FeedbackLaw(grid=np.array([0.0, 0.5]), alpha=np.zeros(2),
                        beta=np.zeros(2))
    with pytest.raises(DomainError):
        cost_oracle(spec, short, 0.0, 0.0, 100)


def test_simulate_mc_reproducible_and_close_to_oracle():
    spec, sol, law = _optimal()
    cfg = SimConfig(20_000, 1e-3, 42)
    r1 = simulate_mc(spec, law, 1.0, cfg)
    r2 = simulate_mc(spec, law, 1.0, cfg)
    assert r1 == r2  # bit-identical, not just close
    oracle = cost_oracle(spec, law, 1.0, 1.0, 2000)
    gap = abs(r1.total - oracle.total)
    tol = mc_tolerance(r1.std_error, cfg.dt)
    assert gap <= tol, f"gap {gap:.3e} tol {tol:.3e}"
    assert r1.n_paths == 20_000
    assert r1.std_error > 0.0


def test_different_seeds_differ():
    spec, _, law = _optimal()
    a = simulate_mc(spec, law, 1.0, SimConfig(1000, 1e-2, 1))
    b = simulate_mc(spec, law, 1.0, SimConfig(1000, 1e-2, 2))
    assert a.total != b.total


def test_chunk_size_does_not_change_results(monkeypatch):
    spec, _, law = _optimal(steps=200)
    cfg = SimConfig(500, 1e-2, 9)
    r1 = simulate_mc(spec, law, 1.0, cfg)
    monkeypatch.setattr(simulate_module, "_CHUNK_ELEMENTS", 1000)
    r2 = simulate_mc(spec, law, 1.0, cfg)
    assert r1 == r2


def test_one_increment_block_per_run(monkeypatch):
    # Every chunk refills the same block, so a run holds one block of
    # increments at a time.
    import tracemalloc

    from mflqg import partial_obs, partial_preset
    from mflqg.partial_obs import evolve_partial, optimal_prediction_feedback

    monkeypatch.setattr(simulate_module, "_CHUNK_ELEMENTS", 400_000)
    cfg = SimConfig(2000, 1e-3, 4)
    block_bytes = 400_000 * 8
    spec, _, law = _optimal()
    pspec = partial_preset("example3")
    plaw = optimal_prediction_feedback(
        pspec, solve_riccati(partial_obs.reduced_problem(pspec), 1000))
    for run in (lambda: evolve_cloud(spec, law, 1.0, cfg),
                lambda: evolve_partial(pspec, plaw, cfg)):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block_bytes <= peak < 1.25 * block_bytes


def test_initial_law_forms():
    spec, _, law = _optimal(steps=200)
    cfg = SimConfig(200, 1e-2, 5)
    # Dirac start: the t=0 moments are exact
    traj = evolve_cloud(spec, law, 2.0, cfg)
    assert traj.m1[0] == 2.0 and traj.m2[0] == 4.0
    # Gaussian start: sample moments near (mean, var + mean^2)
    traj = evolve_cloud(spec, law, (1.0, 0.25), SimConfig(50_000, 1e-2, 5))
    assert traj.m1[0] == pytest.approx(1.0, abs=0.02)
    assert traj.m2[0] == pytest.approx(1.25, abs=0.05)
    # explicit cloud must match n_paths
    cloud = ParticleCloud(np.linspace(-1, 1, 200))
    traj = evolve_cloud(spec, law, cloud, cfg)
    assert traj.m1[0] == pytest.approx(cloud.states.mean())
    with pytest.raises(DomainError):
        evolve_cloud(spec, law, ParticleCloud(np.zeros(3)), cfg)
    with pytest.raises(DomainError):
        evolve_cloud(spec, law, (1.0, -0.5), cfg)
    with pytest.raises(DomainError):
        evolve_cloud(spec, law, "x", cfg)


def test_dt_must_divide_horizon():
    spec, _, law = _optimal(steps=200)
    with pytest.raises(DomainError):
        evolve_cloud(spec, law, 1.0, SimConfig(10, 0.3, 0))


def test_mean_trajectory_tracks_moment_ode():
    # under the optimal law of the m2-terminal preset, m1(t) = x (1+T-t)/(1+T)
    spec, _, law = _optimal()
    cfg = SimConfig(20_000, 1e-3, 11)
    traj = evolve_cloud(spec, law, 1.0, cfg)
    expect = (2.0 - traj.times) / 2.0
    assert np.abs(traj.m1 - expect).max() <= 0.02


def test_t_stop_cuts_horizon():
    spec, _, law = _optimal(steps=200)
    traj = evolve_cloud(spec, law, 1.0, SimConfig(100, 1e-2, 0), t_stop=0.5)
    assert traj.times[-1] == 0.5
    assert traj.m1.size == 51
    with pytest.raises(DomainError):
        evolve_cloud(spec, law, 1.0, SimConfig(100, 1e-2, 0), t_stop=1.5)


def test_gaussianity_check_normal_cloud():
    spec, _, law = _optimal()
    g = gaussianity_check(evolve_cloud(spec, law, 1.0, SimConfig(50_000, 2e-3, 21)).states)
    assert not g.degenerate
    assert abs(g.skewness) < 0.05
    assert abs(g.excess_kurtosis) < 0.1


def test_gaussianity_check_degenerate_cloud():
    # no noise, no control: the cloud stays a Dirac and moments are undefined
    spec = ProblemSpec(A=0.0, B=1.0, sigma=0.0, Q=1.0, D1=1.0, D2=0.0, T=1.0)
    g = gaussianity_check(evolve_cloud(spec, _zero_law(), 1.0, SimConfig(100, 1e-2, 0)).states)
    assert g.degenerate
    assert math.isnan(g.skewness)


def test_perturbation_sweep_margins_positive_and_quadratic():
    spec, sol, law = _optimal(steps=2000)
    base = cost_oracle(spec, law, 1.0, 1.0, 2000).total
    deltas = [(d, 0.0) for d in (-0.2, -0.1, 0.1, 0.2)]
    swept = perturbation_sweep(spec, law, deltas, 1.0, 1.0, 2000)
    assert [d for d, _ in swept] == deltas
    margins = {d[0]: total - base for d, total in swept}
    assert all(v > 0.0 for v in margins.values())
    # quadratic growth: doubling the offset roughly quadruples the margin
    ratio = 0.5 * (margins[0.2] + margins[-0.2]) / (0.5 * (margins[0.1] + margins[-0.1]))
    assert 3.0 < ratio < 5.0


def test_cost_report_fields():
    r = CostReport(total=3.0, running=1.0, terminal=2.0, std_error=0.1, n_paths=10)
    assert r.total == r.running + r.terminal


def test_trajectory_csv(tmp_path):
    spec, _, law = _optimal(steps=200)
    traj = evolve_cloud(spec, law, 1.0, SimConfig(50, 1e-2, 0))
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,m1,m2"
    assert len(lines) == traj.times.size + 1


@pytest.mark.parametrize("spec", [scalar_preset("example1"), TIME_VARYING],
                         ids=["example1", "time-varying"])
def test_cost_oracle_matches_unrolled_loop(spec):
    # the law is tabulated on a coarser grid than the oracle's, so the gains
    # are interpolated between law nodes
    law = optimal_feedback(spec, solve_riccati(spec, 500))
    for m1_0, m2_0 in ((1.0, 1.0), (-0.5, 0.75)):
        got = cost_oracle(spec, law, m1_0, m2_0, 2000)
        assert (got.total, got.running, got.terminal) == \
            _cost_oracle_loop(spec, law, m1_0, m2_0, 2000)


@pytest.mark.parametrize("spec", [scalar_preset("example2"), TIME_VARYING],
                         ids=["example2", "time-varying"])
def test_perturbation_sweep_is_one_oracle_per_delta(spec):
    law = optimal_feedback(spec, solve_riccati(spec, 1000))
    deltas = [(0.0, 0.0), (0.1, 0.0), (-0.4, 0.0), (0.0, 0.05), (0.2, -0.3)]
    swept = perturbation_sweep(spec, law, deltas, 0.5, 0.5, 1000)
    assert swept == [(d, cost_oracle(spec, law.shifted(*d), 0.5, 0.5, 1000).total)
                     for d in deltas]
    assert perturbation_sweep(spec, law, deltas[1:2], 0.5, 0.5, 1000) == swept[1:2]
    assert perturbation_sweep(spec, law, [], 0.5, 0.5, 1000) == []
