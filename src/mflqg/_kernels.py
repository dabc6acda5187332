"""The per-step particle update kernel, vectorized with numpy.

The kernel consumes pre-drawn standard-normal increments, one row per step;
all random number generation stays outside this module.  Each call allocates
one per-particle work array once and steps in place, so a step makes no
allocation.  The Euler update is fused into one affine map of x per step,

    x <- (1 + (a + b al) dt) x + b be m1 dt + s_sqdt z,

which is (a x + b u) dt added to x with u = al x + be m1 expanded.  The
running cost q dt u^2 is accumulated as one square, (sqrt(q dt) u)^2 with
sqrt(q dt) u = (sqrt(q dt) al) x + (sqrt(q dt) be) m1; the two agree in
exact arithmetic because q dt >= 0 (validation refuses Q <= 0), and differ
in rounding only.  A step is 11 numpy calls.  The arithmetic and its order
are those of the plain expressions in the comments, so results do not
depend on the work array.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "mc_chunk"]

BACKEND = "numpy"


def mc_chunk(x, run, z, a, b, s_sqdt, q_dt, al, be, dt, m1_out, m2_out):
    # One Euler step per row of z.  Moments are recorded for the pre-step
    # state; the caller appends the final state's moments itself.
    n = x.shape[0]
    w = np.empty_like(x)
    root_q = np.sqrt(q_dt)
    ral, rbe = ((root_q * c).tolist() for c in (al, be))
    a, b, s_sqdt, al, be = (np.asarray(c).tolist()
                            for c in (a, b, s_sqdt, al, be))
    for k in range(z.shape[0]):
        m1 = x.sum() / n
        m1_out[k] = m1
        np.multiply(x, x, out=w)
        m2_out[k] = w.sum() / n
        # run += (ral[k] * x + rbe[k] * m1) ** 2, with ral = sqrt(q_dt) al
        # and rbe = sqrt(q_dt) be
        np.multiply(x, ral[k], out=w)
        w += rbe[k] * m1
        w *= w
        run += w
        # x = (1 + (a[k] + b[k] * al[k]) * dt) * x + b[k] * be[k] * m1 * dt
        #     + s_sqdt[k] * z[k]
        x *= 1.0 + (a[k] + b[k] * al[k]) * dt
        x += b[k] * be[k] * m1 * dt
        np.multiply(z[k], s_sqdt[k], out=w)
        x += w
