"""Backward integration of the Riccati system behind the quadratic value ansatz.

The value of the control problem started at time t from a law with moments
(m1, m2) is v(t) = phi1(t) * m2 + phi2(t) * m1^2 + phi3(t), where the phi
solve, backwards from phi(T) = (D1, D2, 0),

    phi1' = (B^2/Q) phi1^2 - 2 A phi1
    phi2' = (B^2/Q) phi2^2 + 2 (B^2/Q) phi1 phi2 - 2 A phi2
    phi3' = -sigma^2 phi1

and in dimension d the same system has d x d matrices (phi1' = phi1 M phi1 -
A^T phi1 - phi1 A, M = B Q^{-1} B^T).  By Radon's lemma phi1 = Y X^{-1} for
a linear system in [X; Y], and Pi = phi1 + phi2 likewise from D1 + D2, so
solve_riccati steps one linear system for every d (a scalar problem is
d = 1).  Where phi escapes in finite time, X turns singular; the solve
raises FiniteEscapeError there, or where a component leaves [-1e12, 1e12].

_linear_rk4, classical RK4 for y' = G(t) y as products of step matrices, is
the package's one ODE integrator: the Riccati solve and the cost
coefficients of simulate.cost_coefficients (which stop only on a
non-finite value) both step through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, DomainError, FiniteEscapeError
from .model import MatrixProblemSpec, ProblemSpec

__all__ = [
    "DIVERGENCE_LIMIT",
    "stage_times",
    "RiccatiSolution",
    "solve_riccati",
    "closed_form",
    "solution_to_csv",
]

DIVERGENCE_LIMIT = 1e12

# Steps per block of _linear_rk4: G and the step matrices are held for one
# block at a time, and solve_riccati restarts X from I at every block.
_BLOCK = 64


def _grid(T: float, steps: int) -> np.ndarray:
    """Uniform grid of `steps` intervals over [0, T]."""
    steps = int(steps)
    if steps < 2:
        raise DomainError(f"steps must be >= 2, got {steps}")
    return np.linspace(0.0, T, steps + 1)


def stage_times(nodes: np.ndarray) -> np.ndarray:
    """Times at which _linear_rk4 evaluates G when it steps along
    `nodes`: node k at index 2k, the midpoint of step k at index 2k + 1."""
    times = np.empty(2 * nodes.size - 1)
    times[0::2] = nodes
    times[1::2] = nodes[:-1] + 0.5 * np.diff(nodes)
    return times


def _linear_rk4(tabulate, y, nodes: np.ndarray, restart=None):
    """Classical RK4 for y' = G(t) y from y at nodes[0] along `nodes` (which
    may run backwards): y <- R y per step, R = I + h/6 (G1 + 2 K2 + 2 K3 +
    K4), K2 = Gm (I + h/2 G1), K3 = Gm (I + h/2 K2), K4 = G2 (I + h K3), from
    G at the step's start, midpoint and end.  Per block of _BLOCK steps,
    tabulate(sl) gives G at stage_times(nodes)[sl], the R are built in
    batched matmuls and applied one by one, and (k0, ys) is yielded, ys[j]
    being y at nodes[k0 + 1 + j]; the next block starts from restart() if
    given."""
    hs = np.diff(nodes)
    for k0 in range(0, hs.size, _BLOCK):
        h = hs[k0:k0 + _BLOCK]
        g = tabulate(slice(2 * k0, 2 * (k0 + h.size) + 1))
        h = h.reshape(-1, *(1,) * (g.ndim - 1))
        g1, gm, g2 = g[:-1:2], g[1::2], g[2::2]
        eye = np.eye(g.shape[-1])
        k2 = gm @ (eye + 0.5 * h * g1)
        k3 = gm @ (eye + 0.5 * h * k2)
        k4 = g2 @ (eye + h * k3)
        ys = np.empty((h.size,) + y.shape)
        for j, r in enumerate(eye + h / 6.0 * (g1 + 2.0 * k2 + 2.0 * k3 + k4)):
            y = ys[j] = r @ y
        yield k0, ys
        if restart is not None:
            y = restart()


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """phi = (phi1, phi2, phi3) tabulated on a uniform grid over [0, T]: one
    number per node, or for a matrix problem a d x d phi1 and phi2 per node."""

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
        if any(p.shape[:1] != (n,) for p in (self.phi1, self.phi2, self.phi3)):
            raise DomainError("phi arrays must match the grid length")

    @property
    def T(self) -> float:
        return float(self.grid[-1])

    def at(self, t: float):
        """Linear interpolation of phi at t in [0, T]; grid nodes are exact.
        Floats for a scalar solution, (array, array, float) for a matrix one."""
        grid = self.grid
        t = float(t)
        if t < grid[0] or t > grid[-1]:
            raise DomainError(f"t = {t:.6g} outside [{grid[0]:.6g}, {grid[-1]:.6g}]")
        i = int(np.searchsorted(grid, t, side="right")) - 1
        tables = (self.phi1, self.phi2, self.phi3)
        if i >= grid.size - 1:
            p1, p2, p3 = [v[-1] for v in tables]
        else:
            w = (t - grid[i]) / (grid[i + 1] - grid[i])
            p1, p2, p3 = [v[i] + w * (v[i + 1] - v[i]) for v in tables]
        if self.phi1.ndim == 1:
            return float(p1), float(p2), float(p3)
        return np.array(p1), np.array(p2), float(p3)


def _coefficients(spec, times: np.ndarray):
    """A, M = B Q^{-1} B^T, S = sigma sigma^T at `times`, (times.size, d, d)."""
    if isinstance(spec, MatrixProblemSpec):
        try:
            m = spec.B @ np.linalg.solve(spec.Q, spec.B.T)
        except np.linalg.LinAlgError as exc:
            raise AssumptionError("control weight Q is singular") from exc
        return [np.broadcast_to(c, (times.size, spec.d, spec.d))
                for c in (spec.A, m, spec.sigma @ spec.sigma.T)]
    a, b = spec.A.on(times), spec.B.on(times)
    m = b * b / spec.control_weight_on(times)
    sig = spec.sigma.on(times)
    return [c.reshape(-1, 1, 1) for c in (a, m, sig * sig)]


def _escape(values, names, times):
    """FiniteEscapeError at the first of `times` where `values` leave +-1e12."""
    out = np.array([(~(np.abs(v) <= DIVERGENCE_LIMIT)).any(axis=tuple(range(1, np.ndim(v))))
                    for v in values])
    if out.any():
        node = int(out.any(axis=0).argmax())
        raise FiniteEscapeError(float(times[node]), names[int(out[:, node].argmax())])


def solve_riccati(spec, steps: int = 1000) -> RiccatiSolution:
    """phi on a uniform grid of `steps` intervals over [0, T], for a
    ProblemSpec or a MatrixProblemSpec of any dimension d.

    Steps [X; Y]' = G [X; Y], G = [[A, -M], [0, -A^T]], backwards with
    _linear_rk4 from [I, I; D1, D1 + D2] at T: phi1 = Y X^{-1} on the first
    d columns, Pi = phi1 + phi2 on the last d, restarted from [I, I; phi1,
    Pi] at every block so X cannot overflow.  phi3 is Simpson's rule with
    phi1 at the midpoints by cubic Hermite interpolation, fourth order from
    the integrator's stage times alone.  phi1 is not symmetrized; phi(T) is
    (D1, D2, 0) exactly.  Deterministic.  FiniteEscapeError where X turns
    singular or phi1 or phi2 leaves [-1e12, 1e12] on the way (phi3: once
    phi1 and phi2 are through).
    """
    grid = _grid(spec.T, steps)
    nodes = grid[::-1]
    a, m, ss = _coefficients(spec, stage_times(nodes))
    d = a.shape[-1]
    eye, hs = np.eye(d), np.diff(nodes)
    _escape([[spec.D1], [spec.D2]], ("phi1", "phi2"), nodes[:1])
    phi = np.empty((nodes.size, 2, d, d))  # phi1 and Pi
    phi[0] = np.reshape([spec.D1, spec.D1 + spec.D2], (2, d, d))
    dlog = np.empty(hs.size)  # log det X over each step, for phi3
    start = lambda k: np.block([[eye, eye], [*phi[k]]])  # [I, I; phi1, Pi]

    def g_at(sl):
        g = np.zeros((a[sl].shape[0], 2 * d, 2 * d))
        g[:, :d, :d], g[:, :d, d:], g[:, d:, d:] = a[sl], -m[sl], -a[sl].swapaxes(1, 2)
        return g

    # Each block restarts from the phi this loop stored last, at node k1.
    for k0, ys in _linear_rk4(g_at, start(0), nodes, lambda: start(k1)):
        k1 = k0 + len(ys)
        # X and Y as (k, 2, d, d) stacks over the phi1 and Pi column groups.
        x, y = ys.reshape(-1, 2, d, 2, d).transpose(1, 0, 3, 2, 4)
        with np.errstate(all="ignore"):  # _escape reports what is not finite
            # phi is NaN where X or Y is not finite or X singular, or after a
            # transfer X_{k+1} X_k^{-1} (similar to X_k^{-1} X_{k+1}) with an
            # eigenvalue of real part <= 0, which none within max-row-sum
            # distance 1 of I has.
            det = np.linalg.det(x)
            cut = ~np.isfinite(det) | (det == 0.0) | ~np.isfinite(y).all(axis=(2, 3))
            x = np.where(cut[..., None, None], eye, x)
            tr = np.linalg.solve(np.concatenate([[[eye, eye]], x[:-1]]), x)
            cut |= ~np.isfinite(tr).all(axis=(2, 3))
            far = ~cut & ~(np.abs(tr - eye).sum(axis=3).max(axis=2) < 1.0)
            if far.any():
                cut[far] = (np.linalg.eigvals(tr[far]).real <= 0.0).any(axis=1)
            p = np.linalg.solve(x.swapaxes(2, 3), np.where(cut[..., None, None], 0.0, y)
                                .swapaxes(2, 3)).swapaxes(2, 3)  # Y X^{-1}
            p[cut] = np.nan
            dlog[k0:k1] = np.diff(np.log(np.concatenate([[1.0], det[:, 0]])))
        _escape([p[:, 0], p[:, 1] - p[:, 0]], ("phi1", "phi2"), nodes[k0 + 1:])
        phi[k0 + 1:k1 + 1] = p

    # phi1 at the midpoints by cubic Hermite interpolation, from the slopes
    # phi1' = phi1 M phi1 - A^T phi1 - phi1 A at the nodes.
    p1, nd, md = phi[:, 0], slice(0, None, 2), slice(1, None, 2)
    slope = p1 @ m[nd] @ p1 - a[nd].swapaxes(1, 2) @ p1 - p1 @ a[nd]
    mid = 0.5 * (p1[:-1] + p1[1:]) + hs[:, None, None] / 8.0 * (slope[:-1] - slope[1:])

    def simpson(c, traced=True):
        """Simpson's rule over each step for tr(C phi1), or for tr C."""
        f, fm = (np.trace(c[s] @ q if traced else c[s], axis1=1, axis2=2)
                 for s, q in ((nd, p1), (md, mid)))
        return hs / 6.0 * (f[:-1] + 4.0 * fm + f[1:])

    # tr(M phi1) integrates to tr A - (log det X)', exact up to RK4's
    # (h |A|)^5.  Where Simpson misses that by more (phi1 too steep for the
    # grid, as after a large terminal weight), the miss times
    # w = tr(S dphi1) / tr(M dphi1), dphi1 the step's change of phi1, is
    # taken out of Simpson's tr(S phi1): all of its error in a scalar
    # problem, and nearly all where one direction of phi1 is steep.
    miss = simpson(a, False) - simpson(m) - dlog
    steep = np.abs(miss) > (np.abs(hs) * np.abs(a[md]).sum(axis=2).max(axis=1)) ** 5
    ts, tm = (np.trace(c[md] @ (p1[1:] - p1[:-1]), axis1=1, axis2=2) for c in (ss, m))
    w = np.divide(ts, tm, out=np.zeros_like(ts), where=steep & (tm != 0.0))
    phi3 = np.cumsum(np.concatenate([[0.0], -(simpson(ss) + w * miss)]))
    _escape([phi3], ("phi3",), nodes)
    phi1, phi2 = phi[::-1, 0], phi[::-1, 1] - phi[::-1, 0]
    phi2[-1] = spec.D2
    if isinstance(spec, ProblemSpec):
        phi1, phi2 = phi1[:, 0, 0], phi2[:, 0, 0]
    return RiccatiSolution(grid, phi1, phi2, phi3[::-1])


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
    """Write columns t, phi1, phi2, phi3; a matrix solution writes phi1 and
    phi2 as row-major entry columns phi1_ij and phi2_ij."""
    k = sol.grid.size
    d = sol.phi1.shape[1] if sol.phi1.ndim == 3 else 0
    ij = [f"_{i}{j}" for i in range(d) for j in range(d)] or [""]
    header = ["t", *("phi1" + e for e in ij), *("phi2" + e for e in ij), "phi3"]
    _write_csv(path, header, [sol.grid, *sol.phi1.reshape(k, -1).T,
                              *sol.phi2.reshape(k, -1).T, sol.phi3])
