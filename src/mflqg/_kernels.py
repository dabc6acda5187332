"""The per-step particle update kernel, vectorized with numpy.

The kernel consumes pre-drawn standard-normal increments, one row per step;
all random number generation stays outside this module.  Each call allocates
its two per-particle work arrays once and steps in place, so a step makes no
allocation.  The Euler update is fused into one affine map of x per step,

    x <- (1 + (a + b al) dt) x + b be m1 dt + s_sqdt z,

which is (a x + b u) dt added to x with u = al x + be m1 expanded, so the
control u is only formed for the running cost.  The arithmetic and its order
are those of the plain expressions in the comments, so results do not depend
on the work arrays.
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
    a, b, s_sqdt, q_dt, al, be = (np.asarray(c).tolist()
                                  for c in (a, b, s_sqdt, q_dt, al, be))
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
        # x = (1 + (a[k] + b[k] * al[k]) * dt) * x + b[k] * be[k] * m1 * dt
        #     + s_sqdt[k] * z[k]
        x *= 1.0 + (a[k] + b[k] * al[k]) * dt
        x += b[k] * be[k] * m1 * dt
        np.multiply(z[k], s_sqdt[k], out=w)
        x += w
