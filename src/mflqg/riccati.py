"""Backward integration of the Riccati system behind the quadratic value ansatz.

The value of the control problem started at time t from a law with moments
(m1, m2) is v(t) = phi1(t) * m2 + phi2(t) * m1^2 + phi3(t), where the phi
solve, backwards from phi(T) = (D1, D2, 0),

    phi1' = (B^2/Q) phi1^2 - 2 A phi1
    phi2' = (B^2/Q) phi2^2 + 2 (B^2/Q) phi1 phi2 - 2 A phi2
    phi3' = -sigma^2 phi1

Solutions can blow up in finite time when a terminal weight is negative; the
integrator raises FiniteEscapeError as soon as any component leaves
[-1e12, 1e12], reporting the grid time at which that happened.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, DomainError, FiniteEscapeError
from .model import MatrixProblemSpec, ProblemSpec

__all__ = [
    "DIVERGENCE_LIMIT",
    "RiccatiSolution",
    "MatrixRiccatiSolution",
    "riccati_rhs",
    "solve_riccati",
    "sample_solution",
    "closed_form",
    "matrix_riccati_rhs",
    "solve_matrix_riccati",
    "solution_to_csv",
    "matrix_solution_to_csv",
]

DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """phi = (phi1, phi2, phi3) tabulated on a uniform grid over [0, T]."""

    grid: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    phi3: np.ndarray

    def __post_init__(self):
        for name in ("grid", "phi1", "phi2", "phi3"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.grid.size
        if n < 2:
            raise DomainError("solution grid needs at least two points")
        if any(getattr(self, k).size != n for k in ("phi1", "phi2", "phi3")):
            raise DomainError("phi arrays must match the grid length")

    @property
    def T(self) -> float:
        return float(self.grid[-1])

    def at(self, t: float) -> tuple[float, float, float]:
        return sample_solution(self, t)


def riccati_rhs(spec: ProblemSpec, t: float, phi) -> tuple[float, float, float]:
    """Right-hand side of the backward system at time t.

    Raises AssumptionError if Q(t) <= 0, since the quadratic-in-control
    minimization that produced these equations needs a positive weight.
    """
    p1, p2, p3 = phi
    a = spec.A(t)
    b = spec.B(t)
    q = spec.Q(t)
    sig = spec.sigma(t)
    if not q > 0.0:
        raise AssumptionError(
            f"assumption A1 (positive control weight) fails: Q({t:.6g}) = {q:.6g}"
        )
    r = b * b / q
    d1 = r * p1 * p1 - 2.0 * a * p1
    d2 = r * p2 * p2 + 2.0 * r * p1 * p2 - 2.0 * a * p2
    d3 = -sig * sig * p1
    return (d1, d2, d3)


def _check_escape(p1: float, p2: float, p3: float, t: float) -> None:
    for value, name in ((p1, "phi1"), (p2, "phi2"), (p3, "phi3")):
        if not math.isfinite(value) or abs(value) > DIVERGENCE_LIMIT:
            raise FiniteEscapeError(t, name)


def solve_riccati(spec: ProblemSpec, steps: int = 1000) -> RiccatiSolution:
    """Integrate backwards from phi(T) = (D1, D2, 0) with classical RK4.

    Fixed uniform grid of `steps` intervals; the terminal node stores the
    boundary data exactly.  Deterministic: the same spec and step count give
    bit-identical output.
    """
    steps = int(steps)
    if steps < 2:
        raise DomainError(f"steps must be >= 2, got {steps}")
    grid = np.linspace(0.0, spec.T, steps + 1)
    phi1 = np.empty(steps + 1)
    phi2 = np.empty(steps + 1)
    phi3 = np.empty(steps + 1)
    p1, p2, p3 = spec.D1, spec.D2, 0.0
    phi1[steps], phi2[steps], phi3[steps] = p1, p2, p3
    _check_escape(p1, p2, p3, spec.T)
    for k in range(steps, 0, -1):
        t1 = float(grid[k])
        h = float(grid[k - 1]) - t1  # negative
        a1, b1, c1 = riccati_rhs(spec, t1, (p1, p2, p3))
        a2, b2, c2 = riccati_rhs(
            spec, t1 + 0.5 * h, (p1 + 0.5 * h * a1, p2 + 0.5 * h * b1, p3 + 0.5 * h * c1)
        )
        a3, b3, c3 = riccati_rhs(
            spec, t1 + 0.5 * h, (p1 + 0.5 * h * a2, p2 + 0.5 * h * b2, p3 + 0.5 * h * c2)
        )
        a4, b4, c4 = riccati_rhs(
            spec, t1 + h, (p1 + h * a3, p2 + h * b3, p3 + h * c3)
        )
        p1 = p1 + h / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        p2 = p2 + h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        p3 = p3 + h / 6.0 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        _check_escape(p1, p2, p3, float(grid[k - 1]))
        phi1[k - 1], phi2[k - 1], phi3[k - 1] = p1, p2, p3
    return RiccatiSolution(grid=grid, phi1=phi1, phi2=phi2, phi3=phi3)


def sample_solution(sol: RiccatiSolution, t: float) -> tuple[float, float, float]:
    """Linear interpolation of phi at t in [0, T]; grid nodes are exact."""
    g = sol.grid
    t = float(t)
    if t < g[0] or t > g[-1]:
        raise DomainError(f"t = {t:.6g} outside [{g[0]:.6g}, {g[-1]:.6g}]")
    i = int(np.searchsorted(g, t, side="right")) - 1
    if i >= g.size - 1:
        return (float(sol.phi1[-1]), float(sol.phi2[-1]), float(sol.phi3[-1]))
    w = (t - g[i]) / (g[i + 1] - g[i])
    return (
        float(sol.phi1[i] + w * (sol.phi1[i + 1] - sol.phi1[i])),
        float(sol.phi2[i] + w * (sol.phi2[i + 1] - sol.phi2[i])),
        float(sol.phi3[i] + w * (sol.phi3[i + 1] - sol.phi3[i])),
    )


def closed_form(spec: ProblemSpec, steps: int = 1000) -> RiccatiSolution:
    """Closed-form phi on the solve_riccati grid, for constant coefficients
    with A = 0 and B != 0.

    With r = B^2/Q and tau = T - t, phi1 and Pi = phi1 + phi2 solve the same
    equation Pi' = r Pi^2 from D1 and D1 + D2, so

        phi1 = D1 / (1 + r D1 tau)
        phi2 = (D1 + D2) / (1 + r (D1 + D2) tau) - phi1
        phi3 = (sigma^2 / r) log(1 + r D1 tau)

    Any other spec raises DomainError; a negative weight that makes a
    denominator vanish on [0, T] raises FiniteEscapeError.
    """
    steps = int(steps)
    if steps < 2:
        raise DomainError(f"steps must be >= 2, got {steps}")
    coefs = (spec.A, spec.B, spec.sigma, spec.Q)
    if any(c.kind != "constant" for c in coefs) or spec.A(0.0) != 0.0 \
            or spec.B(0.0) == 0.0 or not spec.Q(0.0) > 0.0:
        raise DomainError("closed form needs constant coefficients with "
                          "A = 0, B != 0 and Q > 0")
    r = spec.B(0.0) ** 2 / spec.Q(0.0)
    for weight, name in ((spec.D1, "phi1"), (spec.D1 + spec.D2, "phi2")):
        if 1.0 + r * weight * spec.T <= 0.0:
            raise FiniteEscapeError(spec.T + 1.0 / (r * weight), name)
    grid = np.linspace(0.0, spec.T, steps + 1)
    tau = spec.T - grid
    d1 = spec.D1
    pi = spec.D1 + spec.D2
    phi1 = d1 / (1.0 + r * d1 * tau)
    phi2 = pi / (1.0 + r * pi * tau) - phi1
    phi3 = spec.sigma(0.0) ** 2 / r * np.log(1.0 + r * d1 * tau)
    return RiccatiSolution(grid=grid, phi1=phi1, phi2=phi2, phi3=phi3)


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


@dataclass(frozen=True, eq=False)
class MatrixRiccatiSolution:
    """Matrix-valued phi1, phi2 (shape (n, d, d)) and scalar phi3 on a grid."""

    grid: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    phi3: np.ndarray

    def __post_init__(self):
        for name in ("grid", "phi1", "phi2", "phi3"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.grid.size
        if self.phi1.shape[0] != n or self.phi2.shape[0] != n or self.phi3.size != n:
            raise DomainError("phi arrays must match the grid length")

    @property
    def d(self) -> int:
        return int(self.phi1.shape[1])

    @property
    def T(self) -> float:
        return float(self.grid[-1])

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray, float]:
        g = self.grid
        t = float(t)
        if t < g[0] or t > g[-1]:
            raise DomainError(f"t = {t:.6g} outside [{g[0]:.6g}, {g[-1]:.6g}]")
        i = int(np.searchsorted(g, t, side="right")) - 1
        if i >= g.size - 1:
            return (self.phi1[-1].copy(), self.phi2[-1].copy(), float(self.phi3[-1]))
        w = (t - g[i]) / (g[i + 1] - g[i])
        return (
            self.phi1[i] + w * (self.phi1[i + 1] - self.phi1[i]),
            self.phi2[i] + w * (self.phi2[i + 1] - self.phi2[i]),
            float(self.phi3[i] + w * (self.phi3[i + 1] - self.phi3[i])),
        )


def matrix_riccati_rhs(spec: MatrixProblemSpec, t: float, phi):
    """Matrix right-hand side; outputs for the two matrix components are
    symmetrized so symmetry errors cannot feed back through the quadratic terms.

    With M = B Q^{-1} B^T:
        phi1' = phi1^T M phi1 - 2 A^T phi1
        phi2' = 2 phi2^T M phi1 + phi2^T M phi2 - 2 A^T phi2
        phi3' = -tr(sigma sigma^T phi1)
    """
    p1, p2, p3 = phi
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    a = spec.A_at(t)
    b = spec.B_at(t)
    q = spec.Q_at(t)
    sig = spec.sigma_at(t)
    try:
        m = b @ np.linalg.solve(q, b.T)
    except np.linalg.LinAlgError as exc:
        raise AssumptionError(f"control weight Q({t:.6g}) is singular") from exc
    d1 = p1.T @ m @ p1 - 2.0 * (a.T @ p1)
    d2 = 2.0 * (p2.T @ m @ p1) + p2.T @ m @ p2 - 2.0 * (a.T @ p2)
    d3 = -float(np.trace(sig @ sig.T @ p1))
    return (_sym(d1), _sym(d2), d3)


def solve_matrix_riccati(spec: MatrixProblemSpec, steps: int = 1000) -> MatrixRiccatiSolution:
    """Backward RK4 for the matrix system from phi(T) = (D1, D2, 0).

    Every stage input and every accepted step is symmetrized, so the stored
    phi1, phi2 are symmetric to machine precision at all grid times.
    """
    steps = int(steps)
    if steps < 2:
        raise DomainError(f"steps must be >= 2, got {steps}")
    d = spec.d
    grid = np.linspace(0.0, spec.T, steps + 1)
    phi1 = np.empty((steps + 1, d, d))
    phi2 = np.empty((steps + 1, d, d))
    phi3 = np.empty(steps + 1)
    p1 = np.array(spec.D1, dtype=np.float64)
    p2 = np.array(spec.D2, dtype=np.float64)
    p3 = 0.0
    phi1[steps], phi2[steps], phi3[steps] = p1, p2, p3

    def guard(q1, q2, q3, t):
        worst = max(float(np.abs(q1).max()), float(np.abs(q2).max()), abs(q3))
        if not math.isfinite(worst) or worst > DIVERGENCE_LIMIT:
            raise FiniteEscapeError(t, "phi")

    guard(p1, p2, p3, spec.T)
    for k in range(steps, 0, -1):
        t1 = float(grid[k])
        h = float(grid[k - 1]) - t1
        k1 = matrix_riccati_rhs(spec, t1, (p1, p2, p3))
        y2 = (_sym(p1 + 0.5 * h * k1[0]), _sym(p2 + 0.5 * h * k1[1]), p3 + 0.5 * h * k1[2])
        k2 = matrix_riccati_rhs(spec, t1 + 0.5 * h, y2)
        y3 = (_sym(p1 + 0.5 * h * k2[0]), _sym(p2 + 0.5 * h * k2[1]), p3 + 0.5 * h * k2[2])
        k3 = matrix_riccati_rhs(spec, t1 + 0.5 * h, y3)
        y4 = (_sym(p1 + h * k3[0]), _sym(p2 + h * k3[1]), p3 + h * k3[2])
        k4 = matrix_riccati_rhs(spec, t1 + h, y4)
        p1 = _sym(p1 + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]))
        p2 = _sym(p2 + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]))
        p3 = p3 + h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        guard(p1, p2, p3, float(grid[k - 1]))
        phi1[k - 1], phi2[k - 1], phi3[k - 1] = p1, p2, p3
    return MatrixRiccatiSolution(grid=grid, phi1=phi1, phi2=phi2, phi3=phi3)


def solution_to_csv(sol: RiccatiSolution, path) -> None:
    """Write columns t, phi1, phi2, phi3."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "phi1", "phi2", "phi3"])
        for i in range(sol.grid.size):
            writer.writerow(
                [repr(float(sol.grid[i])), repr(float(sol.phi1[i])),
                 repr(float(sol.phi2[i])), repr(float(sol.phi3[i]))]
            )


def matrix_solution_to_csv(sol: MatrixRiccatiSolution, path) -> None:
    """Write t, row-major phi1 entries, row-major phi2 entries, phi3."""
    d = sol.d
    header = ["t"]
    header += [f"phi1_{i}{j}" for i in range(d) for j in range(d)]
    header += [f"phi2_{i}{j}" for i in range(d) for j in range(d)]
    header += ["phi3"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(sol.grid.size):
            row = [repr(float(sol.grid[k]))]
            row += [repr(float(v)) for v in sol.phi1[k].ravel()]
            row += [repr(float(v)) for v in sol.phi2[k].ravel()]
            row.append(repr(float(sol.phi3[k])))
            writer.writerow(row)
