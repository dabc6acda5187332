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

rk4 is the package's one ODE integrator: the scalar and matrix Riccati
systems here and the backward cost coefficients of simulate.cost_coefficients
all step through it, with coefficients and gains tabulated once at its stage
times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, DomainError, FiniteEscapeError
from .model import MatrixProblemSpec, ProblemSpec

__all__ = [
    "DIVERGENCE_LIMIT",
    "stage_times",
    "rk4",
    "RiccatiSolution",
    "MatrixRiccatiSolution",
    "solve_riccati",
    "sample_solution",
    "closed_form",
    "solve_matrix_riccati",
    "solution_to_csv",
    "matrix_solution_to_csv",
]

DIVERGENCE_LIMIT = 1e12


def _grid(T: float, steps: int) -> np.ndarray:
    """Uniform grid of `steps` intervals over [0, T]."""
    steps = int(steps)
    if steps < 2:
        raise DomainError(f"steps must be >= 2, got {steps}")
    return np.linspace(0.0, T, steps + 1)


def stage_times(nodes: np.ndarray) -> np.ndarray:
    """Times at which rk4 evaluates a right-hand side when it steps along
    `nodes`: node k at index 2k, the midpoint of step k at index 2k + 1."""
    times = np.empty(2 * nodes.size - 1)
    times[0::2] = nodes
    times[1::2] = nodes[:-1] + 0.5 * np.diff(nodes)
    return times


def rk4(rhs, y0, nodes: np.ndarray, names, limit: float = DIVERGENCE_LIMIT):
    """Classical fixed-step RK4 from y0 at nodes[0] along `nodes`, which may
    run backwards in time; yields the components at each node in turn, so a
    caller keeps only the nodes it reads.

    y0 is a list of components, each a float or a numpy array.  rhs(j, y)
    returns one derivative per component at index j of stage_times(nodes),
    so it can read coefficients tabulated there once.  A component that
    turns non-finite or leaves [-limit, limit] at a node raises
    FiniteEscapeError with that node's time and the component's entry in
    `names`.
    """
    hs = np.diff(nodes).tolist()
    y = y0
    for k, t in enumerate(nodes.tolist()):
        for c, name in zip(y, names):
            size = abs(c) if isinstance(c, float) else np.abs(c).max()
            if not size <= limit:
                raise FiniteEscapeError(t, name)
        yield y
        if k == len(hs):
            return
        h = hs[k]
        half = 0.5 * h
        sixth = h / 6.0
        k1 = rhs(2 * k, y)
        k2 = rhs(2 * k + 1, [c + half * d for c, d in zip(y, k1)])
        k3 = rhs(2 * k + 1, [c + half * d for c, d in zip(y, k2)])
        k4 = rhs(2 * k + 2, [c + h * d for c, d in zip(y, k3)])
        y = [c + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
             for c, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4)]


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


def _riccati_derivs(a, r, s2, p1, p2):
    """phi' from A, r = B^2/Q and sigma^2 at one time."""
    return (r * p1 * p1 - 2.0 * a * p1,
            r * p2 * p2 + 2.0 * r * p1 * p2 - 2.0 * a * p2,
            -s2 * p1)


def solve_riccati(spec: ProblemSpec, steps: int = 1000) -> RiccatiSolution:
    """Integrate backwards from phi(T) = (D1, D2, 0) with classical RK4.

    Fixed uniform grid of `steps` intervals; the terminal node stores the
    boundary data exactly.  Deterministic: the same spec and step count give
    bit-identical output.
    """
    grid = _grid(spec.T, steps)
    nodes = grid[::-1]
    times = stage_times(nodes)
    a = spec.A.on(times).tolist()
    b = spec.B.on(times)
    r = (b * b / spec.control_weight_on(times)).tolist()
    sig = spec.sigma.on(times)
    s2 = (sig * sig).tolist()

    def rhs(j, y):
        return _riccati_derivs(a[j], r[j], s2[j], y[0], y[1])

    phi = np.empty((nodes.size, 3))
    for k, y in enumerate(rk4(rhs, [spec.D1, spec.D2, 0.0], nodes,
                              ("phi1", "phi2", "phi3"))):
        phi[k] = y
    return RiccatiSolution(grid, *phi[::-1].T)


def _sample(grid: np.ndarray, t: float, *tables) -> list:
    """Linear interpolation of each node-indexed table at t; nodes are exact."""
    t = float(t)
    if t < grid[0] or t > grid[-1]:
        raise DomainError(f"t = {t:.6g} outside [{grid[0]:.6g}, {grid[-1]:.6g}]")
    i = int(np.searchsorted(grid, t, side="right")) - 1
    if i >= grid.size - 1:
        return [v[-1] for v in tables]
    w = (t - grid[i]) / (grid[i + 1] - grid[i])
    return [v[i] + w * (v[i + 1] - v[i]) for v in tables]


def sample_solution(sol: RiccatiSolution, t: float) -> tuple[float, float, float]:
    """Linear interpolation of phi at t in [0, T]; grid nodes are exact."""
    return tuple(float(v) for v in _sample(sol.grid, t, sol.phi1, sol.phi2, sol.phi3))


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
    coefs = (spec.A, spec.B, spec.sigma, spec.Q)
    if any(c.kind != "constant" for c in coefs) or spec.A(0.0) != 0.0 \
            or spec.B(0.0) == 0.0 or not spec.Q(0.0) > 0.0:
        raise DomainError("closed form needs constant coefficients with "
                          "A = 0, B != 0 and Q > 0")
    r = spec.B(0.0) ** 2 / spec.Q(0.0)
    for weight, name in ((spec.D1, "phi1"), (spec.D1 + spec.D2, "phi2")):
        if 1.0 + r * weight * spec.T <= 0.0:
            raise FiniteEscapeError(spec.T + 1.0 / (r * weight), name)
    grid = _grid(spec.T, steps)
    tau = spec.T - grid
    d1 = spec.D1
    pi = spec.D1 + spec.D2
    phi1 = d1 / (1.0 + r * d1 * tau)
    phi2 = pi / (1.0 + r * pi * tau) - phi1
    phi3 = spec.sigma(0.0) ** 2 / r * np.log(1.0 + r * d1 * tau)
    return RiccatiSolution(grid=grid, phi1=phi1, phi2=phi2, phi3=phi3)


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
        p1, p2, p3 = _sample(self.grid, t, self.phi1, self.phi2, self.phi3)
        return np.array(p1), np.array(p2), float(p3)


def _matrix_coefs(spec: MatrixProblemSpec):
    """A, M = B Q^{-1} B^T and sigma sigma^T."""
    b = spec.B
    try:
        m = b @ np.linalg.solve(spec.Q, b.T)
    except np.linalg.LinAlgError as exc:
        raise AssumptionError("control weight Q is singular") from exc
    return spec.A, m, spec.sigma @ spec.sigma.T


def _stack_derivs(a2t, m, ss, p):
    """phi' on the stack p = (phi1, phi2), from 2 A^T, M and sigma sigma^T:

        phi1' = phi1^T M phi1 - 2 A^T phi1
        phi2' = 2 phi2^T M phi1 + phi2^T M phi2 - 2 A^T phi2
        phi3' = -tr(sigma sigma^T phi1)

    Four products for the stack: P^T M, (P^T M) phi1, (phi2^T M) phi2 and
    (2 A^T) P.  The derivative stack is symmetrized so symmetry errors
    cannot feed back through the quadratic terms.
    """
    pm = p.transpose(0, 2, 1) @ m
    dp = pm @ p[0]
    dp[1] *= 2.0
    dp[1] += pm[1] @ p[1]
    dp -= a2t @ p
    return 0.5 * (dp + dp.transpose(0, 2, 1)), -float((ss @ p[0]).trace())


def solve_matrix_riccati(spec: MatrixProblemSpec, steps: int = 1000) -> MatrixRiccatiSolution:
    """Backward RK4 for the matrix system from phi(T) = (D1, D2, 0), with
    phi1 and phi2 stepped as one (2, d, d) stack.

    D1, D2 and every derivative are bitwise symmetric, and RK4 only adds and
    scales them entrywise, so every stage input and the stored phi1, phi2
    are bitwise symmetric at all grid times.
    """
    grid = _grid(spec.T, steps)
    a, m, ss = _matrix_coefs(spec)
    a2t = 2.0 * a.T

    def rhs(j, y):
        return _stack_derivs(a2t, m, ss, y[0])

    phi = np.empty((grid.size, 2, spec.d, spec.d))
    phi3 = np.empty(grid.size)
    for k, (p, p3) in enumerate(rk4(rhs, [np.array([spec.D1, spec.D2]), 0.0],
                                    grid[::-1], ("phi", "phi"))):
        phi[k], phi3[k] = p, p3
    return MatrixRiccatiSolution(grid, phi[::-1, 0], phi[::-1, 1], phi3[::-1])


def _write_csv(path, header, columns) -> None:
    """Write equal-length float columns under `header`, each value as its
    repr, in the bytes of csv.writer's default dialect (no field here needs
    quoting; lines end in \\r\\n).  Rows are formatted 512 at a time, so
    a long table never sits in memory as Python strings all at once."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for k in range(0, columns[0].size, 512):
            rows = zip(*(c[k:k + 512].tolist() for c in columns))
            fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def solution_to_csv(sol: RiccatiSolution, path) -> None:
    """Write columns t, phi1, phi2, phi3."""
    _write_csv(path, ["t", "phi1", "phi2", "phi3"],
               [sol.grid, sol.phi1, sol.phi2, sol.phi3])


def matrix_solution_to_csv(sol: MatrixRiccatiSolution, path) -> None:
    """Write t, row-major phi1 entries, row-major phi2 entries, phi3."""
    d = sol.d
    header = ["t"]
    header += [f"phi1_{i}{j}" for i in range(d) for j in range(d)]
    header += [f"phi2_{i}{j}" for i in range(d) for j in range(d)]
    header += ["phi3"]
    k = sol.grid.size
    _write_csv(path, header, [sol.grid, *sol.phi1.reshape(k, -1).T,
                              *sol.phi2.reshape(k, -1).T, sol.phi3])
