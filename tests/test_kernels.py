import numpy as np

from mflqg import SimConfig, optimal_feedback, scalar_preset, simulate_mc, solve_riccati
from mflqg import _kernels
from mflqg._kernels import mc_chunk, partial_chunk


# Plain-loop references: one particle at a time, the same arithmetic as the
# vectorized kernels in mflqg._kernels up to floating-point reduction order.

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


def _partial_chunk_loops(xh, e, run, zh, zt, sh_sqdt, st_sqdt, al, be, dt,
                         m1h_out, m2h_out, m2x_out):
    n = xh.shape[0]
    for k in range(zh.shape[0]):
        s1 = 0.0
        s2 = 0.0
        s2x = 0.0
        for i in range(n):
            s1 += xh[i]
            s2 += xh[i] * xh[i]
            xi = xh[i] + e[i]
            s2x += xi * xi
        m1 = s1 / n
        m1h_out[k] = m1
        m2h_out[k] = s2 / n
        m2x_out[k] = s2x / n
        alk = al[k]
        bek = be[k]
        for i in range(n):
            u = alk * xh[i] + bek * m1
            run[i] += dt * u * u
            xh[i] += u * dt + sh_sqdt * zh[k, i]
            e[i] += st_sqdt * zt[k, i]


# Whole-array references: the same arithmetic in the same order as the
# in-place kernels, so those must reproduce them bit for bit.

def _mc_chunk_expr(x, run, z, a, b, s_sqdt, q_dt, al, be, dt, m1_out, m2_out):
    n = x.shape[0]
    for k in range(z.shape[0]):
        m1 = x.sum() / n
        m1_out[k] = m1
        m2_out[k] = (x * x).sum() / n
        u = al[k] * x + be[k] * m1
        run += q_dt[k] * u * u
        x += (a[k] * x + b[k] * u) * dt + s_sqdt[k] * z[k]


def _partial_chunk_expr(xh, e, run, zh, zt, sh_sqdt, st_sqdt, al, be, dt,
                        m1h_out, m2h_out, m2x_out):
    n = xh.shape[0]
    for k in range(zh.shape[0]):
        m1 = xh.sum() / n
        m1h_out[k] = m1
        m2h_out[k] = (xh * xh).sum() / n
        xfull = xh + e
        m2x_out[k] = (xfull * xfull).sum() / n
        u = al[k] * xh + be[k] * m1
        run += dt * u * u
        xh += u * dt + sh_sqdt * zh[k]
        e += st_sqdt * zt[k]


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
    assert run[0] == 0.2 * u * u
    assert x[0] == 2.0 + (1.0 * 2.0 + 1.0 * u) * dt + 0.3 * 0.5


def test_kernels_match_whole_array_expressions():
    rng = np.random.default_rng(3)
    x, run, z, coefs = _random_mc_inputs(rng, n=1000, k=6)
    outs = []
    for kernel in (_mc_chunk_expr, mc_chunk):
        xc, runc, m1, m2 = x.copy(), run.copy(), np.empty(6), np.empty(6)
        kernel(xc, runc, z, *coefs, 1e-2, m1, m2)
        outs.append((xc, runc, m1, m2))
    for ref, got in zip(*outs):
        assert np.array_equal(ref, got)

    zt = rng.normal(size=z.shape)
    e = rng.normal(size=x.shape)
    outs = []
    for kernel in (_partial_chunk_expr, partial_chunk):
        xc, ec, runc = x.copy(), e.copy(), run.copy()
        moments = [np.empty(6) for _ in range(3)]
        kernel(xc, ec, runc, z, zt, 0.6, 0.8, coefs[4], coefs[5], 1e-2, *moments)
        outs.append((xc, ec, runc, *moments))
    for ref, got in zip(*outs):
        assert np.array_equal(ref, got)


def test_partial_chunk_implementations_agree():
    rng = np.random.default_rng(1)
    n, k = 64, 4
    xh = rng.normal(size=n)
    e = rng.normal(size=n)
    run = np.zeros(n)
    zh = rng.normal(size=(k, n))
    zt = rng.normal(size=(k, n))
    al = rng.uniform(-1.0, 0.0, k)
    be = rng.uniform(-1.0, 0.0, k)
    args = (0.2, 0.1, al, be, 1e-2)
    xh1, e1, run1 = xh.copy(), e.copy(), run.copy()
    outs1 = [np.empty(k) for _ in range(3)]
    _partial_chunk_loops(xh1, e1, run1, zh, zt, *args, *outs1)
    xh2, e2, run2 = xh.copy(), e.copy(), run.copy()
    outs2 = [np.empty(k) for _ in range(3)]
    partial_chunk(xh2, e2, run2, zh, zt, *args, *outs2)
    assert np.allclose(xh1, xh2, rtol=1e-12, atol=1e-14)
    assert np.allclose(e1, e2, rtol=1e-12, atol=1e-14)
    assert np.allclose(run1, run2, rtol=1e-12, atol=1e-14)
    for o1, o2 in zip(outs1, outs2):
        assert np.allclose(o1, o2, rtol=1e-12, atol=1e-14)


def test_partial_chunk_error_accumulates_independently():
    # alpha = beta = 0: xh moves only by its noise, e only by its own
    n, k = 8, 3
    rng = np.random.default_rng(2)
    xh = np.zeros(n)
    e = np.zeros(n)
    run = np.zeros(n)
    zh = rng.normal(size=(k, n))
    zt = rng.normal(size=(k, n))
    zeros = np.zeros(k)
    outs = [np.empty(k) for _ in range(3)]
    partial_chunk(xh, e, run, zh, zt, 1.0, 2.0, zeros, zeros, 0.25, *outs)
    assert np.allclose(xh, zh.sum(axis=0))
    assert np.allclose(e, 2.0 * zt.sum(axis=0))
    assert run.max() == 0.0


def test_backends_agree_on_full_simulation(monkeypatch):
    # Rerun the same seeded simulation through the plain-loop reference.
    spec = scalar_preset("example1")
    sol = solve_riccati(spec, 200)
    law = optimal_feedback(spec, sol)
    here = simulate_mc(spec, law, 1.0, SimConfig(5000, 5e-3, 31))
    monkeypatch.setattr(_kernels, "mc_chunk", _mc_chunk_loops)
    loops = simulate_mc(spec, law, 1.0, SimConfig(5000, 5e-3, 31))
    # same increments on both paths; only reduction order differs
    assert abs(loops.total - here.total) <= 1e-9 * max(1.0, abs(here.total))
    assert abs(loops.std_error - here.std_error) <= 1e-9
