"""Value function, optimal feedback law, and the value equation's residual.

Everything here is a direct readout of a Riccati solution:

    v(t, mu)        = phi1 m2 + phi2 m1^2 + phi3
    d_mu v(t, mu)(x) = 2 phi1 x + 2 phi2 m1
    u*(t, x, mu)    = alpha(t) x + beta(t) m1,   alpha = -B phi1 / Q,
                                                 beta  = -B phi2 / Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import MeasureMoments, ProblemSpec
from .riccati import RiccatiSolution, _write_csv

__all__ = [
    "FeedbackLaw",
    "value_function",
    "optimal_feedback",
    "residual_sweep",
    "law_to_csv",
    "residual_to_csv",
]


@dataclass(frozen=True, eq=False)
class FeedbackLaw:
    """Linear-in-(x, mean) feedback u(t, x, m1) = alpha(t) x + beta(t) m1.

    Gains are tabulated on a grid and interpolated linearly in between.
    """

    grid: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        for name in ("grid", "alpha", "beta"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.grid.size < 2:
            raise DomainError("feedback grid needs at least two points")
        if self.alpha.size != self.grid.size or self.beta.size != self.grid.size:
            raise DomainError("gain arrays must match the grid length")
        if not (np.isfinite(self.alpha).all() and np.isfinite(self.beta).all()):
            raise DomainError("feedback gains must be finite")

    @property
    def T(self) -> float:
        return float(self.grid[-1])

    def at(self, t: float) -> tuple[float, float]:
        t = float(t)
        g = self.grid
        if t < g[0] or t > g[-1]:
            raise DomainError(f"t = {t:.6g} outside [{g[0]:.6g}, {g[-1]:.6g}]")
        return (float(np.interp(t, g, self.alpha)), float(np.interp(t, g, self.beta)))

    def gains_on(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized gains for a batch of times inside the law's domain."""
        times = np.asarray(times, dtype=np.float64)
        if times.size and (times.min() < self.grid[0] or times.max() > self.grid[-1]):
            raise DomainError("requested times leave the feedback law's domain")
        return (np.interp(times, self.grid, self.alpha),
                np.interp(times, self.grid, self.beta))

    def shifted(self, d_alpha: float = 0.0, d_beta: float = 0.0) -> "FeedbackLaw":
        """The same law with constant offsets added to the gains."""
        return FeedbackLaw(
            grid=self.grid.copy(),
            alpha=self.alpha + float(d_alpha),
            beta=self.beta + float(d_beta),
        )


def value_function(sol: RiccatiSolution, t: float, mu: MeasureMoments) -> float:
    p1, p2, p3 = sol.at(t)
    return p1 * mu.m2 + p2 * mu.m1 * mu.m1 + p3


def optimal_feedback(spec: ProblemSpec, sol: RiccatiSolution) -> FeedbackLaw:
    """Gains alpha = -B phi1 / Q and beta = -B phi2 / Q on the solution grid."""
    grid = sol.grid
    ratio = spec.B.on(grid) / spec.control_weight_on(grid)
    return FeedbackLaw(grid=grid.copy(), alpha=-ratio * sol.phi1, beta=-ratio * sol.phi2)


def _stencil_nodes(spec: ProblemSpec, grid: np.ndarray) -> np.ndarray:
    """Indices of the grid nodes whose five-point stencil lies in [0, T]
    and has no knot of a tabulated coefficient strictly inside.

    Across such a knot phi has a jump in a higher derivative, and the
    stencil's error there is O(h) rather than O(h^4).
    """
    ok = np.zeros(grid.size, dtype=bool)
    ok[2:-2] = True
    for coef in (spec.A, spec.B, spec.sigma, spec.Q):
        if coef.kind == "table":
            for knot in coef.data[0]:
                ok[2:-2] &= ~((grid[:-4] < knot) & (knot < grid[4:]))
    return np.flatnonzero(ok)


def residual_sweep(spec: ProblemSpec, sol: RiccatiSolution, points) -> list[tuple]:
    """Defect of the value equation at each (t, mu) in points, with the
    phi-derivatives replaced by the fourth-order central difference

        (-f(t+2h) + 8 f(t+h) - 8 f(t-h) + f(t-2h)) / 12h

    of the tabulated solution at its own grid spacing h; rows (t, m1, m2,
    residual), where t is the grid node the residual was evaluated at.

    This recomputes the three defect operators from the problem coefficients
    directly, so it is an independent check on the integrated solution rather
    than a restatement of the integrator.  Each t must lie strictly inside
    (0, T); the defect is evaluated at the grid node nearest t whose stencil
    stays inside [0, T] and off the knots of tabulated coefficients, so no
    interpolation error enters.
    """
    g = sol.grid
    ts, m1, m2 = np.array([(t, mu.m1, mu.m2) for t, mu in points],
                          dtype=float).reshape(-1, 3).T
    outside = ~((0.0 < ts) & (ts < g[-1]))
    if outside.any():
        raise DomainError(f"t = {ts[outside][0]:.6g} must lie strictly inside "
                          f"(0, {g[-1]:.6g})")
    nodes = _stencil_nodes(spec, g)
    if not nodes.size:
        raise DomainError("no grid node has a five-point stencil inside [0, T] "
                          "clear of the coefficient table knots")
    k = nodes[np.abs(g[nodes] - ts[:, None]).argmin(axis=1)]
    f = np.stack([sol.phi1, sol.phi2, sol.phi3])
    d1, d2, d3 = (-f[:, k + 2] + 8.0 * f[:, k + 1] - 8.0 * f[:, k - 1]
                  + f[:, k - 2]) / (12.0 * float(g[1] - g[0]))
    t, p1, p2 = g[k], sol.phi1[k], sol.phi2[k]
    a, b, sig = spec.A.on(t), spec.B.on(t), spec.sigma.on(t)
    r = b * b / spec.control_weight_on(t)
    l1 = d1 - r * p1 * p1 + 2.0 * a * p1
    l2 = d2 - r * p2 * p2 - 2.0 * r * p1 * p2 + 2.0 * a * p2
    l3 = d3 + sig * sig * p1
    res = m2 * l1 + m1 * m1 * l2 + l3
    return list(zip(t.tolist(), m1.tolist(), m2.tolist(), res.tolist()))


def law_to_csv(law: FeedbackLaw, path) -> None:
    """Write columns t, alpha, beta."""
    _write_csv(path, ["t", "alpha", "beta"], [law.grid, law.alpha, law.beta])


def residual_to_csv(rows, path) -> None:
    """Write columns t, m1, m2, residual."""
    _write_csv(path, ["t", "m1", "m2", "residual"],
               np.asarray(rows, dtype=float).reshape(-1, 4).T)
