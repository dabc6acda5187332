"""Per-step particle update kernels, vectorized with numpy.

The kernels consume pre-drawn standard-normal increments, one row per step;
all random number generation stays outside this module.  Each call allocates
its few per-particle work arrays once and steps in place, so a step makes no
allocation; the arithmetic and its order are those of the plain expressions
in the comments, so results do not depend on this.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "mc_chunk", "partial_chunk"]

BACKEND = "numpy"


def mc_chunk(x, run, z, a, b, s_sqdt, q_dt, al, be, dt, m1_out, m2_out):
    # One Euler step per row of z.  Moments are recorded for the pre-step
    # state; the caller appends the final state's moments itself.
    n = x.shape[0]
    u = np.empty_like(x)
    w = np.empty_like(x)
    v = np.empty_like(x)
    for k in range(z.shape[0]):
        m1 = x.sum() / n
        m1_out[k] = m1
        np.multiply(x, x, out=w)
        m2_out[k] = w.sum() / n
        # u = al[k] * x + be[k] * m1
        np.multiply(x, al[k], out=u)
        u += be[k] * m1
        # run += q_dt[k] * u * u
        np.multiply(u, q_dt[k], out=w)
        w *= u
        run += w
        # x += (a[k] * x + b[k] * u) * dt + s_sqdt[k] * z[k]
        np.multiply(x, a[k], out=w)
        np.multiply(u, b[k], out=v)
        w += v
        w *= dt
        np.multiply(z[k], s_sqdt[k], out=v)
        w += v
        x += w


def partial_chunk(xh, e, run, zh, zt, sh_sqdt, st_sqdt, al, be, dt,
                  m1h_out, m2h_out, m2x_out):
    # Prediction process xh carries the control; e accumulates the part of the
    # noise the controller never sees.  The physical state is xh + e.
    n = xh.shape[0]
    u = np.empty_like(xh)
    w = np.empty_like(xh)
    v = np.empty_like(xh)
    for k in range(zh.shape[0]):
        m1 = xh.sum() / n
        m1h_out[k] = m1
        np.multiply(xh, xh, out=w)
        m2h_out[k] = w.sum() / n
        # m2x = ((xh + e) * (xh + e)).sum() / n
        np.add(xh, e, out=w)
        w *= w
        m2x_out[k] = w.sum() / n
        # u = al[k] * xh + be[k] * m1
        np.multiply(xh, al[k], out=u)
        u += be[k] * m1
        # run += dt * u * u
        np.multiply(u, dt, out=w)
        w *= u
        run += w
        # xh += u * dt + sh_sqdt * zh[k]
        np.multiply(u, dt, out=w)
        np.multiply(zh[k], sh_sqdt, out=v)
        w += v
        xh += w
        # e += st_sqdt * zt[k]
        np.multiply(zt[k], st_sqdt, out=v)
        e += v
