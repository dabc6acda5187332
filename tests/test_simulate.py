import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from mflqg import (Coefficient, CostReport, DomainError, FeedbackLaw, FiniteEscapeError,
                   MeasureMoments, ProblemSpec, Reduction, SimConfig,
                   cost_coefficients, cost_from_cloud, evolve_cloud,
                   mc_tolerance, optimal_feedback,
                   partial_preset, scalar_preset, solve_riccati, value_function)
from mflqg import _kernels
from mflqg import simulate as simulate_module
from mflqg.errors import SimulationDivergedError
from mflqg.checks import _gaussianity_entry
from mflqg.simulate import trajectory_to_csv


# Hand-unrolled RK4 references, with the gains and every coefficient
# evaluated at every stage.  _step_matrix_coefficient_loop steps the
# homogeneous (c1, c2, c0, w) system backwards from T one RK4 step matrix at
# a time; cost_coefficients, each law of a batch, and so _oracle must
# reproduce it bit for bit.  _cost_coefficient_loop, the six-float RK4 loop
# the pass ran before, and _cost_oracle_loop, the forward moment loop the
# oracle ran before that, are independent references they agree with to
# rounding.

def _step_matrix_coefficient_loop(spec, law, steps):
    def g_at(t):
        al, be = (g.item() for g in law.at(t))
        a, b, sig, q = spec.A(t), spec.B(t), spec.sigma(t), spec.Q(t)
        g = np.zeros((4, 4))
        g[0, 0] = -2.0 * (a + b * al)
        g[1, 0] = -2.0 * b * be
        g[1, 1] = -2.0 * (a + b * (al + be))
        g[2, 0] = -(sig * sig)
        g[0, 3] = -(q * (al * al))
        g[1, 3] = -(q * (2.0 * al * be + be * be))
        return g

    eye = np.eye(4)
    grid = np.linspace(0.0, spec.T, steps + 1)
    y = np.zeros((4, 2))
    y[0, 0], y[1, 0], y[3, 1] = spec.D1, spec.D2, 1.0
    for k in range(steps, 0, -1):
        t0 = float(grid[k])
        h = float(grid[k - 1]) - t0
        g1, gm, g2 = g_at(t0), g_at(t0 + 0.5 * h), g_at(float(grid[k - 1]))
        k2 = gm @ (eye + 0.5 * h * g1)
        k3 = gm @ (eye + 0.5 * h * k2)
        k4 = g2 @ (eye + h * k3)
        y = (eye + h / 6.0 * (g1 + 2.0 * k2 + 2.0 * k3 + k4)) @ y
    return tuple(y[:3, 0].tolist()), tuple(y[:3, 1].tolist())


def _close(got, want):
    """Coefficient pairs equal to rounding."""
    return all(a == pytest.approx(b, rel=1e-12, abs=1e-12)
               for g, w in zip(got, want) for a, b in zip(g, w))


def _cost_coefficient_loop(spec, law, steps):
    def rhs(t, e1, e2, r1, r2):
        al, be = (g.item() for g in law.at(t))
        a, b, sig, q = spec.A(t), spec.B(t), spec.sigma(t), spec.Q(t)
        p = -2.0 * (a + b * al)
        c = -2.0 * b * be
        g = -2.0 * (a + b * (al + be))
        s2 = -(sig * sig)
        return (p * e1, c * e1 + g * e2, s2 * e1,
                p * r1 - q * (al * al),
                c * r1 + g * r2 - q * (2.0 * al * be + be * be), s2 * r1)

    def shifted(y, h, d):
        return [y[i] + h * d[i] for i in (0, 1, 3, 4)]

    grid = np.linspace(0.0, spec.T, steps + 1)
    y = [spec.D1, spec.D2, 0.0, 0.0, 0.0, 0.0]
    for k in range(steps, 0, -1):
        t0, t1 = float(grid[k]), float(grid[k - 1])
        h = t1 - t0
        k1 = rhs(t0, y[0], y[1], y[3], y[4])
        k2 = rhs(t0 + 0.5 * h, *shifted(y, 0.5 * h, k1))
        k3 = rhs(t0 + 0.5 * h, *shifted(y, 0.5 * h, k2))
        k4 = rhs(t1, *shifted(y, h, k3))
        y = [y[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
             for i in range(6)]
    return tuple(y[:3]), tuple(y[3:])


def _priced(coefs, m1_0, m2_0):
    """(total, running, terminal) of the loop's coefficients from
    (m1_0, m2_0), each part c1 m2_0 + c2 m1_0^2 + c0."""
    sq = m1_0 * m1_0
    terminal, running = (c1 * m2_0 + c2 * sq + c0 for c1, c2, c0 in coefs)
    return running + terminal, running, terminal


def _cost_oracle_loop(spec, law, m1_0, m2_0, steps):
    def rhs(t, m1, m2):
        al, be = (g.item() for g in law.at(t))
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


def _oracle(spec, law, m1_0, m2_0, steps):
    """The law's oracle cost from (m1_0, m2_0), as the CLI prices a law."""
    return cost_coefficients(spec, [law], steps)[0].cost(MeasureMoments(m1_0, m2_0))


def _mc(spec, law, initial, config):
    """The Monte Carlo cost of the law's particle run over [0, T]."""
    cloud = evolve_cloud(spec, law, initial, config)
    return cost_from_cloud(spec, cloud.states, cloud.run_costs)


def _zero_law(T=1.0):
    return FeedbackLaw(grid=np.array([0.0, T]), alpha=np.zeros((2, 1, 1)),
                       beta=np.zeros((2, 1, 1)))


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
    report = _oracle(spec, _zero_law(), 0.0, 0.0, 100)
    assert report.running == 0.0
    assert report.terminal == pytest.approx(1.0, abs=1e-12)
    assert report.total == pytest.approx(1.0, abs=1e-12)
    assert report.std_error == 0.0


def test_oracle_matches_ansatz_value_at_optimum():
    for name in ("example1", "example2"):
        spec, sol, law = _optimal(name, 2000)
        for x in (0.0, 1.0, -2.0):
            v = value_function(sol, MeasureMoments.dirac(x))
            o = _oracle(spec, law, x, x * x, 2000)
            assert abs(o.total - v) <= 1e-5, f"{name}, x={x}"


def test_oracle_rejects_inconsistent_moments():
    spec, _, law = _optimal()
    with pytest.raises(DomainError):
        _oracle(spec, law, 2.0, 1.0, 100)


def _constant_law(alpha, T):
    return FeedbackLaw(grid=np.array([0.0, T]), alpha=np.full((2, 1, 1), alpha),
                       beta=np.zeros((2, 1, 1)))


def test_oracle_detects_moment_blowup():
    # Destabilizing feedback alpha >> 0 with a long horizon: m2' = 2 alpha m2
    # + 1.  At alpha = 3, m2(30) ~ 1e78 is large but finite, and the cost is
    # m2(T) + 9 int m2.  At alpha = 30 the cost coefficients grow going
    # backwards as e^(60 (T - t)), so they overflow (e^709.8) near
    # t = 30 - 709.8 / 60 = 18.17, which is an escape.  The running one,
    # c1 = 15 (e^(60 (T - t)) - 1), and RK4's weighted sum of four
    # derivatives (about 6 * 60 c1) bring the overflow forward by at most
    # log(15 * 6 * 60 * 2) / 60 = 0.15.
    spec = ProblemSpec(A=0.0, B=1.0, sigma=1.0, Q=1.0, D1=1.0, D2=0.0, T=30.0)
    e = math.exp(180.0)
    m2_T = 7.0 / 6.0 * e - 1.0 / 6.0
    run = 9.0 * (7.0 / 36.0 * (e - 1.0) - 30.0 / 6.0)
    got = _oracle(spec, _constant_law(3.0, 30.0), 1.0, 1.0, 3000)
    assert got.terminal == pytest.approx(m2_T, rel=1e-4)
    assert got.running == pytest.approx(run, rel=1e-4)
    with pytest.raises(FiniteEscapeError) as err:
        _oracle(spec, _constant_law(30.0, 30.0), 1.0, 1.0, 3000)
    assert 30.0 - 709.8 / 60.0 < err.value.time \
        < 30.0 - (709.8 - math.log(15.0 * 6.0 * 60.0 * 2.0)) / 60.0
    # In a batch, the overflowing law stops the pass at the same node.
    with pytest.raises(FiniteEscapeError) as batch_err:
        cost_coefficients(spec, [_constant_law(a, 30.0)
                                 for a in (3.0, 30.0, -1.0)], 3000)
    assert batch_err.value.time == err.value.time


def test_oracle_prices_states_near_the_float_range():
    # At x = 1e154, m2 = 1e308: no moment is integrated, so the cost is the
    # finite 5.0e307 solve reports as the value.
    spec, sol, law = _optimal()
    got = _oracle(spec, law, 1e154, 1e308, 1000)
    value = Reduction.of(spec).value(sol, 1e154)
    assert math.isfinite(got.total) and value > 4e307
    assert got.total == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("red", [Reduction.of(TIME_VARYING),
                                 Reduction.of(partial_preset("example3", s=0.25,
                                                             x=1.3))],
                         ids=["time-varying", "example3"])
def test_batched_laws_are_their_own_passes(red):
    # Laws on a 1000- and a 2000-step grid and shifted laws mixed in one
    # batch: every law's coefficients are bit for bit its own pass and the
    # hand-unrolled backward loop, and priced at (0, 0), (1, 1) and
    # (x, x^2 + var0) they agree with the forward loop to rounding.
    spec = red.problem
    coarse = optimal_feedback(spec, solve_riccati(spec, 1000))
    fine = optimal_feedback(spec, solve_riccati(spec, 2000))
    mu = red.moments(1.3)
    laws = [fine, coarse, fine.shifted(0.2, 0.0), coarse.shifted(0.0, -0.3),
            coarse.shifted(-0.1, 0.05)]
    got = cost_coefficients(spec, laws, 2000)
    assert len(got) == len(laws)
    for law, coefs in zip(laws, got):
        assert [coefs] == cost_coefficients(spec, [law], 2000)
        assert (coefs.terminal, coefs.running) == \
            _step_matrix_coefficient_loop(spec, law, 2000)
        assert _close((coefs.terminal, coefs.running),
                      _cost_coefficient_loop(spec, law, 2000))
        for m1_0, m2_0 in ((0.0, 0.0), (1.0, 1.0), (mu.m1, mu.m2)):
            cost = coefs.cost(MeasureMoments(m1_0, m2_0))
            assert cost == _oracle(spec, law, m1_0, m2_0, 2000)
            assert cost.total == cost.running + cost.terminal
            for a, b in zip((cost.total, cost.running, cost.terminal),
                            _cost_oracle_loop(spec, law, m1_0, m2_0, 2000)):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
    assert cost_coefficients(spec, laws[2:4], 2000) == got[2:4]
    assert cost_coefficients(spec, [], 2000) == []


def test_oracle_respects_law_domain():
    spec = scalar_preset("example1")
    short = FeedbackLaw(grid=np.array([0.0, 0.5]), alpha=np.zeros((2, 1, 1)),
                        beta=np.zeros((2, 1, 1)))
    with pytest.raises(DomainError):
        _oracle(spec, short, 0.0, 0.0, 100)


def test_simulate_mc_reproducible_and_close_to_oracle():
    spec, sol, law = _optimal()
    cfg = SimConfig(20_000, 1e-3, 42)
    r1 = _mc(spec, law, 1.0, cfg)
    r2 = _mc(spec, law, 1.0, cfg)
    assert r1 == r2  # bit-identical, not just close
    oracle = _oracle(spec, law, 1.0, 1.0, 2000)
    gap = abs(r1.total - oracle.total)
    tol = mc_tolerance(r1.std_error, cfg.dt)
    assert gap <= tol, f"gap {gap:.3e} tol {tol:.3e}"
    assert r1.n_paths == 20_000
    assert r1.std_error > 0.0


def test_different_seeds_differ():
    spec, _, law = _optimal()
    a = _mc(spec, law, 1.0, SimConfig(1000, 1e-2, 1))
    b = _mc(spec, law, 1.0, SimConfig(1000, 1e-2, 2))
    assert a.total != b.total


def _within(seconds, fn):
    # fn() on a daemon thread, so that a ring that deadlocks fails the test
    # rather than hanging the suite.
    out = {}

    def target():
        try:
            out["value"] = fn()
        except BaseException as exc:
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no result within {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


def test_chunk_size_does_not_change_results(monkeypatch):
    # 3000 paths: blocks of 16 steps, so 1000 steps make 62.5 blocks and the
    # last is partial.  Rings of one to three slots wrap every one to three
    # blocks, and a divergence check every block in place of every 320
    # steps reads the same state: none of it changes a byte.
    spec, _, law = _optimal(steps=200)
    cfg = SimConfig(3000, 1e-3, 9)
    layout = simulate_module.stream_layout(3000)
    assert (layout["block_rows"], layout["chunk_rows"]) == (16, 320)
    r1 = _within(30, lambda: _mc(spec, law, 1.0, cfg))
    monkeypatch.setattr(simulate_module, "_CHECK_ELEMENTS", 3000 * 16)
    assert simulate_module.stream_layout(3000)["chunk_rows"] == 16
    for slots in (1, 2, 3):
        monkeypatch.setattr(simulate_module, "_RING_SLOTS", slots)
        assert _within(30, lambda: _mc(spec, law, 1.0, cfg)) == r1


def _traced_peak(run) -> int:
    # The run goes once untraced first: the one-time set-up of the thread
    # and the generators is no part of what a run holds, and in a fresh
    # process the first traced run would count it.
    import tracemalloc

    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n,dt", [(100_000, 0.05), (2000, 1e-3)],
                         ids=["wide", "narrow"])
def test_a_run_holds_at_most_the_ring_of_increments(n, dt):
    # Default constants.  At most _RING_SLOTS blocks of block_rows x n
    # increments, three per-path work arrays (x, the running costs and the
    # kernel's), 16 floats per step for the coefficient, gain and moment
    # tables, and 4096 floats of interpreter objects (the helper thread,
    # the lock, a block's generator).  Wide: 4 slots of one step at 1e5
    # paths, 7.0e5 floats; narrow: 4 slots of 25 steps at 2000 paths,
    # 2.3e5 floats.  Two buffers of whole chunks held 2e6 floats here.
    # The partially observed run adds its estimation error, drawn after
    # the cloud.
    cfg = SimConfig(n, dt, 4)
    spec, _, law = _optimal()
    pspec = partial_preset("example3")
    red = Reduction.of(pspec)
    plaw = optimal_feedback(red.problem, solve_riccati(red.problem, 1000))
    steps = int(round(spec.T / dt))
    block = simulate_module.stream_layout(n)["block_rows"]
    floats = (simulate_module._RING_SLOTS * block * n + 3 * n
              + 16 * (steps + 1) + 4096)
    for run in (lambda: evolve_cloud(spec, law, 1.0, cfg),
                lambda: (evolve_cloud(red.problem, plaw, red.initial(pspec.x),
                                      cfg), red.error(cfg))):
        peak = _within(30, lambda: _traced_peak(run))
        assert peak <= 8 * floats, f"{peak} B traced, bound {8 * floats} B"


def _serial_reference(spec, law, initial, cfg):
    # The initial cloud from SFC64(seed), the root key; the increments of
    # steps [b S, (b + 1) S) from child b + 1 of SeedSequence(seed), drawn
    # block by block in block order; then one kernel call over all steps.
    n, dt = cfg.n_paths, cfg.dt
    steps = int(round(spec.T / dt))
    times = np.linspace(0.0, spec.T, steps + 1)
    left = times[:-1]
    rng = np.random.Generator(np.random.SFC64(cfg.seed))
    x = simulate_module._resolve_initial(initial, n, rng)
    block = max(1, simulate_module._BLOCK_ELEMENTS // n)
    z = np.concatenate([
        np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(cfg.seed, spawn_key=(b + 1,))))
        .standard_normal((min(block, steps - k0), n))
        for b, k0 in enumerate(range(0, steps, block))])
    run = np.zeros(n)
    m1 = np.empty(steps + 1)
    m2 = np.empty(steps + 1)
    al, be = (g[:, 0, 0] for g in law.gains_on(left))
    _kernels.mc_chunk(x, run, z, spec.A.on(left), spec.B.on(left),
                      spec.sigma.on(left) * math.sqrt(dt), spec.Q.on(left) * dt,
                      al, be, dt, m1[:-1], m2[:-1])
    m1[-1] = x.sum() / n
    m2[-1] = (x * x).sum() / n
    return times, m1, m2, x, run


def _assert_matches_reference(spec, law, initial, cfg):
    traj = _within(30, lambda: evolve_cloud(spec, law, initial, cfg))
    times, m1, m2, x, run = _serial_reference(spec, law, initial, cfg)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.m1, m1)
    assert np.array_equal(traj.m2, m2)
    assert np.array_equal(traj.states, x)
    assert np.array_equal(traj.run_costs, run)


@pytest.mark.parametrize("slots,steps_per_block",
                         [(1, 1), (3, 7), (None, None)],
                         ids=["one-step", "non-dividing", "default"])
@pytest.mark.parametrize("initial", [1.0, (0.5, 0.25)], ids=["dirac", "gaussian"])
@pytest.mark.parametrize("name", ["example1", "example2"])
def test_pipelined_draws_match_serial_reference(monkeypatch, name, initial,
                                                slots, steps_per_block):
    # 2000 paths x 1000 steps.  The default draws 40 blocks of 25 steps
    # through 4 slots; one slot of one-step blocks is refilled 1000 times;
    # blocks of 7 steps do not divide the 1000 steps, so the 143rd is
    # partial, and 3 slots wrap 47 times.
    spec, _, law = _optimal(name)
    cfg = SimConfig(2000, 1e-3, 13)
    if slots is not None:
        monkeypatch.setattr(simulate_module, "_RING_SLOTS", slots)
        monkeypatch.setattr(simulate_module, "_BLOCK_ELEMENTS",
                            cfg.n_paths * steps_per_block)
    _assert_matches_reference(spec, law, initial, cfg)


@pytest.mark.parametrize("drawer", ["helper", "main"])
def test_block_draws_do_not_depend_on_the_drawing_thread(monkeypatch, drawer):
    # Only the named thread may draw: the helper returns at once, or the
    # calling thread never claims and only waits.  3000 paths x 1000 steps:
    # 62.5 blocks of 16 steps through 4 slots.  The bytes must still be the
    # reference's.
    ring = simulate_module._Ring
    draw, take = ring._draw, ring.take
    drew, stepper = set(), set()

    def recording_draw(self, b):
        drew.add(threading.get_ident())
        draw(self, b)

    def recording_take(self, b):
        stepper.add(threading.get_ident())
        return take(self, b)

    monkeypatch.setattr(ring, "_draw", recording_draw)
    monkeypatch.setattr(ring, "take", recording_take)
    if drawer == "main":
        monkeypatch.setattr(ring, "helper", lambda self: None)
    else:
        monkeypatch.setattr(ring, "_claim_free", lambda self: None)
    spec, _, law = _optimal("example2")
    _assert_matches_reference(spec, law, (0.5, 0.25), SimConfig(3000, 1e-3, 5))
    assert len(drew) == len(stepper) == 1
    assert (drew == stepper) == (drawer == "main")


@pytest.mark.parametrize("slots", [1, 2])
def test_a_slot_is_not_refilled_while_the_kernel_reads_it(monkeypatch, slots):
    # The kernel sleeps 1 ms on each block before stepping it, so the helper,
    # which draws ahead, would overwrite the slot under it if block b + R
    # were drawn before block b's kernel call returned.
    kernel = _kernels.mc_chunk
    changed = []

    def sleepy_kernel(x, run, z, *args):
        before = z.copy()
        time.sleep(1e-3)
        changed.append(not np.array_equal(z, before))
        kernel(x, run, z, *args)

    spec, _, law = _optimal("example2", steps=200)
    cfg = SimConfig(300, 1e-2, 3)
    monkeypatch.setattr(simulate_module, "_RING_SLOTS", slots)
    monkeypatch.setattr(simulate_module, "_BLOCK_ELEMENTS", 2 * cfg.n_paths)
    monkeypatch.setattr(_kernels, "mc_chunk", sleepy_kernel)
    traj = _within(30, lambda: evolve_cloud(spec, law, 1.0, cfg))
    monkeypatch.setattr(_kernels, "mc_chunk", kernel)
    assert len(changed) == 50 and not any(changed)
    _, m1, _, x, run = _serial_reference(spec, law, 1.0, cfg)
    assert np.array_equal(traj.m1, m1)
    assert np.array_equal(traj.states, x)


def _block_fill(seed, n_paths, n_blocks):
    # The increments evolve_cloud draws at block_rows = 1 (n_paths >= 50 000,
    # the CLI default): one keyed block per step, so every row boundary is a
    # block boundary.  This thread draws every block through the ring.
    ring = simulate_module._Ring(seed, 1, n_blocks, n_paths)
    out = np.empty((n_blocks, n_paths))
    for b in range(n_blocks):
        out[b] = ring.take(b)[0]
        ring.stepped_through(b)
    return out


def test_stream_keys_are_the_documented_children():
    # Reduction.error draws from child 0 = SeedSequence(seed).spawn(1)[0];
    # the initial cloud (read back from a run that leaves it unmoved) from
    # the root SFC64(seed); block b from child b + 1.  Over four seeds the
    # first draws of the root, child 0 and the children of blocks 0-4 are all
    # distinct, so no two of these streams share a key.
    pspec = partial_preset("example3", s=0.25)
    red = Reduction.of(pspec)
    still = ProblemSpec(A=0.0, B=1.0, sigma=0.0, Q=1.0, D1=1.0, D2=0.0, T=1.0)
    firsts = []
    for seed in range(4):
        cfg = SimConfig(4, 0.5, seed)
        child0 = np.random.SeedSequence(seed).spawn(1)[0]
        assert np.array_equal(
            child0.generate_state(8),
            np.random.SeedSequence(seed, spawn_key=(0,)).generate_state(8))
        z = np.random.Generator(np.random.SFC64(child0)).standard_normal((2, 4))
        assert np.array_equal(red.error(cfg),
                              pspec.eta_tilde * math.sqrt(pspec.s) * z[0]
                              + pspec.sigma_tilde * math.sqrt(pspec.T - pspec.s) * z[1])
        root = evolve_cloud(still, _zero_law(), (0.0, 1.0), cfg).states
        assert np.array_equal(
            root, np.random.Generator(np.random.SFC64(seed)).standard_normal(4))
        blocks = _block_fill(seed, 4, 5)
        for b in range(5):
            key = np.random.SeedSequence(seed, spawn_key=(b + 1,))
            assert np.array_equal(
                blocks[b],
                np.random.Generator(np.random.SFC64(key)).standard_normal(4))
        firsts += [tuple(root), tuple(z[0]), *map(tuple, blocks)]
    assert len(set(firsts)) == len(firsts) == 4 * 7


def test_block_streams_are_independent_normals():
    # 2000 paths x 1000 one-step blocks.  Each path's increments sum to
    # N(0, 1000): the sample variance of the scaled sums lies within 5 SE of
    # 1, SE = sqrt(2 / (n - 1)); a child reused by two blocks far apart
    # doubles a share of the variance.  Rows on either side of each block
    # boundary are uncorrelated: their pooled correlation lies within 5 SE
    # of 0, SE = 1 / sqrt(pairs); a child reused by neighbouring blocks reads
    # 1 there.
    n, steps = 2000, 1000
    z = _block_fill(17, n, steps)
    sums = z.sum(axis=0) / math.sqrt(steps)
    assert abs(sums.var(ddof=1) - 1.0) <= 5.0 * math.sqrt(2.0 / (n - 1))
    before, after = z[:-1].ravel(), z[1:].ravel()
    corr = np.corrcoef(before, after)[0, 1]
    assert abs(corr) <= 5.0 / math.sqrt(before.size)


def test_concurrent_runs_keep_their_streams(monkeypatch):
    # Four runs on a two-core machine, each with its own helper thread, with
    # thread switches forced every microsecond and rings of two one-step
    # slots, refilled 100 times each: a slot handed over before its draw
    # completed, or a draw taken from another run's stream, would break
    # bit-equality with the serial reference.
    spec, _, law = _optimal("example2", steps=200)
    cfgs = [SimConfig(300, 1e-2, seed) for seed in range(4)]
    monkeypatch.setattr(simulate_module, "_RING_SLOTS", 2)
    monkeypatch.setattr(simulate_module, "_BLOCK_ELEMENTS", 300)
    trajs = [None] * len(cfgs)

    def run(i):
        trajs[i] = evolve_cloud(spec, law, 1.0, cfgs[i])

    runs = [threading.Thread(target=run, args=(i,), daemon=True)
            for i in range(len(cfgs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in runs:
            thread.start()
        deadline = time.monotonic() + 120
        for thread in runs:
            thread.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in runs)
    for cfg, traj in zip(cfgs, trajs):
        _, m1, _, x, run = _serial_reference(spec, law, 1.0, cfg)
        assert np.array_equal(traj.m1, m1)
        assert np.array_equal(traj.states, x)
        assert np.array_equal(traj.run_costs, run)


def _helper_threads(monkeypatch) -> set:
    # The idents of the threads that run _Ring.helper from now on.
    ring = simulate_module._Ring
    helper = ring.helper
    idents = set()

    def marking_helper(self):
        idents.add(threading.get_ident())
        helper(self)

    monkeypatch.setattr(ring, "helper", marking_helper)
    return idents


@pytest.mark.parametrize("steps_per_check,t_detected",
                         [(None, "1"), (10, "0.8")], ids=["default", "10-steps"])
def test_divergence_raises_and_stops_the_helper(monkeypatch, steps_per_check,
                                                t_detected):
    # x grows by 1e4 per step and overflows near step 77; the check runs
    # every chunk_rows steps and names the end of the stretch it failed in.
    # By default the run is one block of 100 steps, checked at its end; the
    # patched run has 50 blocks of 2 steps, checked every 10.  Once the run
    # has raised, the helper claims and draws nothing more, and it is gone
    # when the run returns.  The patched run goes twice: with the helper
    # waiting for a free slot when the run raises (the run pauses 50 ms
    # before it stops the ring), and with the helper in the middle of a
    # draw (the helper alone draws, 10 ms a block).
    spec = ProblemSpec(A=1e6, B=1.0, sigma=1.0, Q=1.0, D1=1.0, D2=0.0, T=1.0)
    cfg = SimConfig(100, 1e-2, 0)
    if steps_per_check is not None:
        monkeypatch.setattr(simulate_module, "_CHECK_ELEMENTS",
                            cfg.n_paths * steps_per_check)
        monkeypatch.setattr(simulate_module, "_BLOCK_ELEMENTS", 2 * cfg.n_paths)
    ring = simulate_module._Ring
    draw, close, claim_free = ring._draw, ring.close, ring._claim_free
    helpers = _helper_threads(monkeypatch)
    pause = {}
    drawn, closed = [], []

    def recording_draw(self, b):
        drawn.append((b, self.stop))
        if threading.get_ident() in helpers:
            time.sleep(pause["draw"])
        draw(self, b)

    def recording_close(self):
        time.sleep(pause["close"])
        close(self)
        closed.append((self, self.claimed))

    monkeypatch.setattr(ring, "_draw", recording_draw)
    monkeypatch.setattr(ring, "close", recording_close)
    baseline = threading.active_count()

    def run():
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationDivergedError) as err:
                evolve_cloud(spec, _zero_law(), 1.0, cfg)
        return err

    waits = [(0.0, 0.05)] if steps_per_check is None else [(0.0, 0.05), (0.01, 0.0)]
    for pause["draw"], pause["close"] in waits:
        monkeypatch.setattr(ring, "_claim_free", claim_free if pause["draw"] == 0.0
                            else lambda self: None)
        drawn.clear()
        closed.clear()
        err = _within(30, run)
        assert str(err.value) == \
            f"particle state became non-finite before t = {t_detected}"
        assert threading.active_count() == baseline
        assert not any(stop for _, stop in drawn)
        (stopped, claimed), = closed
        assert stopped.claimed == claimed
        if steps_per_check is not None:
            # 40 blocks stepped when the check fails: blocks 0-43 may be
            # drawn, and block 44 claimed, waiting for its slot.
            slots = simulate_module._RING_SLOTS
            assert max(b for b, _ in drawn) < 40 + slots
            assert claimed <= 40 + slots + 1 < stopped.n_blocks


def test_a_failed_draw_raises_and_stops_the_helper(monkeypatch):
    # The helper's first draw raises: the run raises that error when it
    # reaches the block the helper claimed, and the helper is gone.
    ring = simulate_module._Ring
    draw = ring._draw
    helpers = _helper_threads(monkeypatch)

    def failing_draw(self, b):
        if threading.get_ident() in helpers:
            raise MemoryError(f"block {b}")
        draw(self, b)

    monkeypatch.setattr(ring, "_draw", failing_draw)
    spec, _, law = _optimal("example2", steps=200)
    baseline = threading.active_count()
    with pytest.raises(MemoryError, match="^block "):
        _within(30, lambda: evolve_cloud(spec, law, 1.0, SimConfig(3000, 1e-3, 2)))
    assert threading.active_count() == baseline
    assert helpers


def test_particle_engine_refuses_d_above_one():
    # The particle engine is scalar; a d = 2 spec is refused by name.
    eye = np.eye(2)
    spec = ProblemSpec(A=0.0 * eye, B=eye, sigma=eye, Q=eye, D1=eye,
                       D2=0.0 * eye, T=1.0)
    law = FeedbackLaw(grid=np.array([0.0, 1.0]), alpha=np.zeros((2, 2, 2)),
                      beta=np.zeros((2, 2, 2)))
    with pytest.raises(DomainError, match="d = 1 only, got d = 2$"):
        evolve_cloud(spec, law, 1.0, SimConfig(10, 0.1, 0))
    with pytest.raises(DomainError, match="d = 1 only, got d = 2$"):
        cost_from_cloud(spec, np.zeros(10), np.zeros(10))


def test_cli_import_does_not_load_thread_pool():
    # No module of the package loads the thread pool: neither importing
    # the CLI nor running the particles, whose helper is a plain thread.
    code = ("import sys, mflqg.cli\n"
            "from mflqg import ProblemSpec, SimConfig, evolve_cloud\n"
            "from mflqg import optimal_feedback, solve_riccati\n"
            "spec = ProblemSpec(A=0.0, B=1.0, sigma=1.0, Q=1.0, D1=1.0, D2=0.0, T=1.0)\n"
            "law = optimal_feedback(spec, solve_riccati(spec, 10))\n"
            "evolve_cloud(spec, law, 1.0, SimConfig(1000, 0.1, 0))\n"
            "print('concurrent.futures' in sys.modules)")
    src = os.path.dirname(os.path.dirname(simulate_module.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


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
    # |skew| < 0.05 and |excess kurtosis| < 0.1, the decisive one recorded
    spec, _, law = _optimal()
    g = _gaussianity_entry(evolve_cloud(spec, law, 1.0, SimConfig(50_000, 2e-3, 21)).states)
    assert g.passed and g.detail.startswith("skew ")
    assert g.threshold in (0.05, 0.1) and 0.0 <= g.measured < g.threshold


def test_gaussianity_check_degenerate_cloud():
    # no noise, no control: the cloud stays a Dirac and moments are undefined
    spec = ProblemSpec(A=0.0, B=1.0, sigma=0.0, Q=1.0, D1=1.0, D2=0.0, T=1.0)
    g = _gaussianity_entry(evolve_cloud(spec, _zero_law(), 1.0, SimConfig(100, 1e-2, 0)).states)
    assert g.passed and g.detail.startswith("degenerate cloud")
    assert g.measured == 0.0 and g.threshold == 1e-18


def test_perturbation_sweep_margins_positive_and_quadratic():
    spec, sol, law = _optimal(steps=2000)
    base = _oracle(spec, law, 1.0, 1.0, 2000).total
    deltas = [(d, 0.0) for d in (-0.2, -0.1, 0.1, 0.2)]
    swept = cost_coefficients(spec, [law.shifted(*d) for d in deltas], 2000)
    assert len(swept) == len(deltas)
    margins = {d[0]: coefs.cost(MeasureMoments(1.0, 1.0)).total - base
               for d, coefs in zip(deltas, swept)}
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
    coefs = _step_matrix_coefficient_loop(spec, law, 2000)
    assert _close(coefs, _cost_coefficient_loop(spec, law, 2000))
    for m1_0, m2_0 in ((1.0, 1.0), (-0.5, 0.75)):
        got = _oracle(spec, law, m1_0, m2_0, 2000)
        assert (got.total, got.running, got.terminal) == \
            _priced(coefs, m1_0, m2_0)
        for a, b in zip((got.total, got.running, got.terminal),
                        _cost_oracle_loop(spec, law, m1_0, m2_0, 2000)):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("spec", [scalar_preset("example2"), TIME_VARYING],
                         ids=["example2", "time-varying"])
def test_perturbation_sweep_is_one_oracle_per_delta(spec):
    law = optimal_feedback(spec, solve_riccati(spec, 1000))
    deltas = [(0.0, 0.0), (0.1, 0.0), (-0.4, 0.0), (0.0, 0.05), (0.2, -0.3)]

    def sweep(ds):
        laws = [law.shifted(*d) for d in ds]
        return [c.cost(MeasureMoments(0.5, 0.5)).total
                for c in cost_coefficients(spec, laws, 1000)]

    swept = sweep(deltas)
    assert swept == [_oracle(spec, law.shifted(*d), 0.5, 0.5, 1000).total
                     for d in deltas]
    assert swept == [_priced(_step_matrix_coefficient_loop(spec, law.shifted(*d), 1000),
                             0.5, 0.5)[0] for d in deltas]
    for total, d in zip(swept, deltas):
        old = _priced(_cost_coefficient_loop(spec, law.shifted(*d), 1000), 0.5, 0.5)[0]
        assert total == pytest.approx(old, rel=1e-12, abs=1e-12)
    for total, d in zip(swept, deltas):
        forward = _cost_oracle_loop(spec, law.shifted(*d), 0.5, 0.5, 1000)[0]
        assert total == pytest.approx(forward, rel=1e-12, abs=1e-12)
    assert sweep(deltas[1:2]) == swept[1:2]
    assert sweep([]) == []
