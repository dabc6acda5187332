"""Value function, optimal feedback law, and the value equation's residual.

Everything here is a direct readout of a Riccati solution, in any dimension
d (a scalar problem is d = 1):

    v(t, mu)        = tr(phi1 m2) + m1^T phi2 m1 + phi3
    u*(t, x, mu)    = alpha(t) x + beta(t) m1,   alpha = -Q^{-1} B^T phi1,
                                                 beta  = -Q^{-1} B^T phi2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import MeasureMoments
from .riccati import RiccatiSolution, _coefficients, _mm, _tr, _write_csv

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

    The gains are (k, d, d) tables on a grid of k nodes, interpolated
    linearly in between.
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
        shape = self.alpha.shape
        if len(shape) != 3 or shape[0] != self.grid.size or self.beta.shape != shape:
            raise DomainError("gain arrays must be (k, d, d) tables on the grid")
        if not (np.isfinite(self.alpha).all() and np.isfinite(self.beta).all()):
            raise DomainError("feedback gains must be finite")
        # Every entry of both gains as one row, for gains_on's interpolation.
        rows = np.concatenate([g.reshape(shape[0], -1) for g in (self.alpha, self.beta)], 1)
        object.__setattr__(self, "_rows", np.ascontiguousarray(rows.T))

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """The gains at t as two d x d matrices."""
        return self.gains_on(float(t))

    def gains_on(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The gains at a time or a batch of times inside the law's domain,
        each (*times.shape, d, d), every entry interpolated on its own."""
        times = np.asarray(times, dtype=np.float64)
        if times.size and (times.min() < self.grid[0] or times.max() > self.grid[-1]):
            raise DomainError("requested times leave the feedback law's domain")
        gains = np.array([np.interp(times, self.grid, row) for row in self._rows])
        gains = gains.T.reshape(*times.shape, 2, *self.alpha.shape[1:])
        return gains[..., 0, :, :], gains[..., 1, :, :]

    def shifted(self, d_alpha: float = 0.0, d_beta: float = 0.0) -> "FeedbackLaw":
        """The same law with d_alpha I and d_beta I added to the gains."""
        eye = np.eye(self.alpha.shape[1])
        return FeedbackLaw(self.grid.copy(), self.alpha + float(d_alpha) * eye,
                           self.beta + float(d_beta) * eye)


def value_function(sol: RiccatiSolution, mu: MeasureMoments) -> float:
    """v(0, mu) = tr(phi1 m2) + m1^T phi2 m1 + phi3, phi at t = 0."""
    p1, p2, p3 = sol.phi1[0], sol.phi2[0], sol.phi3[0]
    m1 = np.reshape(mu.m1, (1, -1))
    return float(_tr(p1, np.reshape(mu.m2, p1.shape))
                 + _mm(_mm(m1, p2), m1.T)[0, 0] + p3)


def optimal_feedback(spec, sol: RiccatiSolution) -> FeedbackLaw:
    """Gains alpha = -Q^{-1} B^T phi1 and beta = -Q^{-1} B^T phi2 on the
    solution grid."""
    g = _coefficients(spec, sol.grid)[5]
    return FeedbackLaw(sol.grid.copy(), -_mm(g, sol.phi1), -_mm(g, sol.phi2))


def _stencil_nodes(spec, grid: np.ndarray) -> np.ndarray:
    """Indices of the grid nodes in [0.1 T, 0.9 T] whose five-point stencil
    has no knot of spec strictly inside, where the stencil's error is O(h),
    not O(h^4)."""
    ok = np.zeros(grid.size, dtype=bool)
    ok[2:-2] = True
    for knot in spec.knots:
        ok[2:-2] &= ~((grid[:-4] < knot) & (knot < grid[4:]))
    T = grid[-1]
    return np.flatnonzero(ok & (0.1 * T <= grid) & (grid <= 0.9 * T))


def residual_sweep(spec, sol: RiccatiSolution) -> list[tuple]:
    """Rows (t, |L1|, |L2|, |L3|, bound) at every _stencil_nodes node: the
    value equation's defect tr(L1 m2) + m1^T L2 m1 + L3 is at most bound =
    1.25 |L1| + |L2| + |L3| (spectral norms) over |m1| <= 1, tr(m2 - m1 m1^T)
    <= 0.25, with

        L1 = phi1' - phi1 M phi1 + (A^T phi1 + phi1 A)
        L2 = phi2' - phi2 M phi2 - (phi1 M phi2 + phi2 M phi1) + (A^T phi2 + phi2 A)
        L3 = phi3' + tr(S phi1)

    and phi' the fourth-order central difference (-f(t+2h) + 8 f(t+h) -
    8 f(t-h) + f(t-2h)) / 12h.  The operators come from the problem
    coefficients, a check on the solution independent of the integrator.
    """
    g = sol.grid
    k = _stencil_nodes(spec, g)
    if not k.size:
        raise DomainError("no grid node of [0.1 T, 0.9 T] has a five-point "
                          "stencil clear of the coefficient table knots")
    d1, d2, d3 = ((-f[k + 2] + 8.0 * f[k + 1] - 8.0 * f[k - 1] + f[k - 2])
                  / (12.0 * float(g[1] - g[0]))
                  for f in (sol.phi1, sol.phi2, sol.phi3))
    a, m, ss = _coefficients(spec, g[k])[:3]
    p1, p2, at = sol.phi1[k], sol.phi2[k], a.swapaxes(1, 2)
    l1 = d1 - p1 @ m @ p1 + (at @ p1 + p1 @ a)
    l2 = d2 - p2 @ m @ p2 - (p1 @ m @ p2 + p2 @ m @ p1) + (at @ p2 + p2 @ a)
    l3 = np.abs(d3 + np.trace(ss @ p1, axis1=1, axis2=2))
    n1, n2 = (np.linalg.norm(op, 2, axis=(1, 2)) for op in (l1, l2))
    return list(zip(*(c.tolist() for c in (g[k], n1, n2, l3, 1.25 * n1 + n2 + l3))))


def law_to_csv(law: FeedbackLaw, path) -> None:
    """Write columns t, alpha, beta of a law of d = 1."""
    _write_csv(path, ["t", "alpha", "beta"],
               [law.grid, law.alpha[:, 0, 0], law.beta[:, 0, 0]])


def residual_to_csv(rows, path) -> None:
    """Write residual_sweep's rows as columns t, l1, l2, l3, residual."""
    _write_csv(path, ["t", "l1", "l2", "l3", "residual"],
               np.asarray(rows, dtype=float).reshape(-1, 5).T)
