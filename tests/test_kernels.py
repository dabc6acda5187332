import math

import numpy as np

from mflqg import (SimConfig, cost_from_cloud, evolve_cloud, optimal_feedback,
                   scalar_preset, solve_riccati)
from mflqg import _kernels
from mflqg._kernels import mc_chunk


# Plain-loop reference: one particle at a time, the same arithmetic as the
# vectorized kernel in mflqg._kernels up to floating-point reduction order.

def _mc_chunk_loops(x, run, z, a, b, s_sqdt, q_dt, al, be, dt, m1_out, m2_out):
    n = x.shape[0]
    for k in range(z.shape[0]):
        s1 = 0.0
        s2 = 0.0
        for i in range(n):
            s1 += x[i]
            s2 += x[i] * x[i]
        m1 = s1 / n
        m1_out[k] = m1
        m2_out[k] = s2 / n
        ak = a[k]
        bk = b[k]
        sk = s_sqdt[k]
        qk = q_dt[k]
        alk = al[k]
        bek = be[k]
        for i in range(n):
            u = alk * x[i] + bek * m1
            run[i] += qk * u * u
            x[i] += (ak * x[i] + bk * u) * dt + sk * z[k, i]


# Whole-array reference: the same arithmetic in the same order as the
# in-place kernel, so that must reproduce it bit for bit.  The Euler update
# is the fused affine map of x; the running cost is one square,
# (sqrt(q dt) u)^2 with sqrt(q dt) u = (sqrt(q dt) al) x + (sqrt(q dt) be) m1.

def _mc_chunk_expr(x, run, z, a, b, s_sqdt, q_dt, al, be, dt, m1_out, m2_out):
    n = x.shape[0]
    for k in range(z.shape[0]):
        m1 = x.sum() / n
        m1_out[k] = m1
        m2_out[k] = (x * x).sum() / n
        root_q = math.sqrt(q_dt[k])
        w = x * (root_q * al[k]) + (root_q * be[k]) * m1
        run += w * w
        x[:] = ((1.0 + (a[k] + b[k] * al[k]) * dt) * x + b[k] * be[k] * m1 * dt
                + s_sqdt[k] * z[k])


def _random_mc_inputs(rng, n=64, k=5):
    x = rng.normal(size=n)
    run = np.zeros(n)
    z = rng.normal(size=(k, n))
    coefs = [rng.uniform(0.1, 1.0, k) for _ in range(6)]
    return x, run, z, coefs


def test_mc_chunk_implementations_agree():
    rng = np.random.default_rng(0)
    x, run, z, (a, b, s, q, al, be) = _random_mc_inputs(rng)
    dt = 1e-2
    x1, run1 = x.copy(), run.copy()
    m1a, m2a = np.empty(5), np.empty(5)
    _mc_chunk_loops(x1, run1, z, a, b, s, q, al, be, dt, m1a, m2a)
    x2, run2 = x.copy(), run.copy()
    m1b, m2b = np.empty(5), np.empty(5)
    mc_chunk(x2, run2, z, a, b, s, q, al, be, dt, m1b, m2b)
    assert np.allclose(x1, x2, rtol=1e-12, atol=1e-14)
    assert np.allclose(run1, run2, rtol=1e-12, atol=1e-14)
    assert np.allclose(m1a, m1b, rtol=1e-12, atol=1e-14)
    assert np.allclose(m2a, m2b, rtol=1e-12, atol=1e-14)


def test_mc_chunk_single_step_formulas():
    # one particle, one step: everything is checkable by hand
    x = np.array([2.0])
    run = np.zeros(1)
    z = np.array([[0.5]])
    one = np.ones(1)
    dt = 0.1
    m1, m2 = np.empty(1), np.empty(1)
    # a=1, b=1, s*sqrt(dt)=0.3, q*dt=0.2, alpha=-1, beta=0.5
    mc_chunk(x, run, z, one, one, 0.3 * one, 0.2 * one, -1.0 * one,
             0.5 * one, dt, m1, m2)
    assert m1[0] == 2.0 and m2[0] == 4.0  # pre-step moments
    u = -1.0 * 2.0 + 0.5 * 2.0  # alpha x + beta m1 = -1
    # q dt u^2 as the kernel rounds it, (sqrt(q dt) u)^2, one ulp from 0.2
    root_q = math.sqrt(0.2)
    assert run[0] == (2.0 * (root_q * -1.0) + (root_q * 0.5) * 2.0) ** 2
    assert abs(run[0] - 0.2 * u * u) <= 2.0 * np.finfo(float).eps * 0.2
    assert x[0] == 2.0 + (1.0 * 2.0 + 1.0 * u) * dt + 0.3 * 0.5


def _assert_kernel_matches_expressions(mean, dt):
    rng = np.random.default_rng(3)
    x, run, z, coefs = _random_mc_inputs(rng, n=1000, k=6)
    x += mean
    outs = []
    for kernel in (_mc_chunk_expr, mc_chunk):
        xc, runc, m1, m2 = x.copy(), run.copy(), np.empty(6), np.empty(6)
        kernel(xc, runc, z, *coefs, dt, m1, m2)
        outs.append((xc, runc, m1, m2))
    for ref, got in zip(*outs):
        assert np.array_equal(ref, got)


def test_kernels_match_whole_array_expressions():
    _assert_kernel_matches_expressions(0.0, 1e-2)


def test_kernels_match_whole_array_expressions_off_centre():
    # With m1 and dt of order one the per-step constant b be m1 dt is
    # comparable to x, so a reassociated constant changes the last bits of x.
    _assert_kernel_matches_expressions(2.0, 0.5)


def test_backends_agree_on_full_simulation(monkeypatch):
    # Rerun the same seeded simulation through the plain-loop reference.
    spec = scalar_preset("example1")
    sol = solve_riccati(spec, 200)
    law = optimal_feedback(spec, sol)

    def run():
        cloud = evolve_cloud(spec, law, 1.0, SimConfig(5000, 5e-3, 31))
        return cost_from_cloud(spec, cloud.states, cloud.run_costs)

    here = run()
    monkeypatch.setattr(_kernels, "mc_chunk", _mc_chunk_loops)
    loops = run()
    # same increments on both paths; only reduction order differs
    assert abs(loops.total - here.total) <= 1e-9 * max(1.0, abs(here.total))
    assert abs(loops.std_error - here.std_error) <= 1e-9
