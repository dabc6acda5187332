"""The per-step particle update kernel, vectorized with numpy.

The kernel consumes pre-drawn standard-normal increments, one row per step;
all random number generation stays outside this module.  Each call allocates
its few per-particle work arrays once and steps in place, so a step makes no
allocation; the arithmetic and its order are those of the plain expressions
in the comments, so results do not depend on this.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "mc_chunk"]

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

