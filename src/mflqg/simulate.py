"""Cost verification: a deterministic cost oracle and Monte Carlo simulation.

A feedback u = alpha(t) x + beta(t) m1 keeps a coupled system of mean-field
particles inside the Gaussian family, and y = (m2, m1^2, 1) solves y' = L y,
L = [[2 (A + B alpha), 2 B beta, sigma^2], [0, 2 (A + B (alpha + beta)), 0],
[0, 0, 0]].  So the law's exact cost is J = c1 m2_0 + c2 m1_0^2 + c0 from
every initial law (the "oracle"), with c = e + r solving, backwards from T,

    e' = -L^T e,                                          e(T) = (D1, D2, 0)
    r' = -(L^T r + Q (alpha^2, 2 alpha beta + beta^2, 0)),   r(T) = 0

for the terminal and running parts, both linear: riccati's one RK4
integrator steps them as one homogeneous system; c = (phi1, phi2, phi3)(0)
for the optimal law.  The Monte Carlo route simulates n interacting particles with
Euler-Maruyama, coupling each through the empirical mean of the same cloud,
and estimates the cost with a left-endpoint quadrature of the running
integrand; its normal increments come from SFC64 streams keyed by numpy's
SeedSequence, one child key per block of steps (see evolve_cloud).  Both
routes accept the same FeedbackLaw, which is what makes the cross-check
meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import _kernels
from .control import FeedbackLaw
from .errors import DomainError, FiniteEscapeError, SimulationDivergedError
from .model import MeasureMoments, ProblemSpec
from .riccati import _grid, _linear_rk4, _write_csv, stage_times

__all__ = [
    "SimConfig",
    "CostReport",
    "CostCoefficients",
    "CloudTrajectory",
    "GaussianityReport",
    "cost_coefficients",
    "evolve_cloud",
    "stream_layout",
    "cost_from_cloud",
    "gaussianity_check",
    "trajectory_to_csv",
]

# Element count of the two increment buffers together.  Each buffer holds
# half of it, whole blocks only; the run allocates both once, and while the
# kernel steps over one, both threads refill the other.  That caps the
# increments at ~16 MB of float64 without changing results.
_CHUNK_ELEMENTS = 2_000_000

# Element count of one block of increments: the steps of block b come from
# their own SFC64 stream, keyed as child b + 1 of the seed's SeedSequence, so
# a block's bytes do not depend on which thread draws it or on the buffer
# shape.
_BLOCK_ELEMENTS = 50_000

InitialLaw = Union[float, int, tuple]


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run parameters.  The seed fully determines the run."""

    n_paths: int = 100_000
    dt: float = 1e-3
    seed: int = 42

    def __post_init__(self):
        object.__setattr__(self, "n_paths", int(self.n_paths))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "seed", int(self.seed))
        # One path has no standard error, which would leave the Monte Carlo
        # band as pure bias allowance.
        if self.n_paths < 2:
            raise DomainError(f"n_paths must be >= 2, got {self.n_paths}")
        if not self.dt > 0.0:
            raise DomainError(f"dt must be positive, got {self.dt:.6g}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class CostReport:
    """Cost split into running and terminal parts, with a standard error.

    The oracle reports std_error = 0 (it is exact up to the ODE grid); the
    Monte Carlo estimate carries a delta-method standard error combining the
    running-cost sample variance with the variance of the linearized terminal
    functional.
    """

    total: float
    running: float
    terminal: float
    std_error: float
    n_paths: int


@dataclass(frozen=True, eq=False)
class CloudTrajectory:
    """Empirical moments recorded at every step plus the final states."""

    times: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    states: np.ndarray
    run_costs: np.ndarray


@dataclass(frozen=True)
class GaussianityReport:
    """Moments of a cloud; degenerate when variance < variance_floor."""

    skewness: float
    excess_kurtosis: float
    degenerate: bool
    variance: float
    variance_floor: float


def _steps_for(horizon: float, dt: float) -> int:
    n = int(round(horizon / dt))
    if n < 1 or abs(n * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise DomainError(
            f"dt = {dt:.6g} does not divide the horizon {horizon:.6g} evenly"
        )
    return n


def _coefficient_pass(spec: ProblemSpec, laws: list, steps: int) -> np.ndarray:
    """One backward pass of the cost coefficients of every law: the terminal
    and running triples at t = 0 as a (2, 3, n) array.  Each law steps
    [c; w]' = [[-L^T, -Q u], [0, 0]] [c; w] on (c1, c2, c0, w), u = (alpha^2,
    2 alpha beta + beta^2, 0), from the terminal column (D1, D2, 0, 0) and
    the running one (0, 0, 0, 1); a law's coefficients are bit for bit those
    of its own pass."""
    nodes = _grid(spec.T, steps)[::-1]
    times = stage_times(nodes)
    a, b, sig, q = (c.on(times) for c in (spec.A, spec.B, spec.sigma, spec.Q))

    def g_at(sl):
        al, be = np.array([law.gains_on(times[sl]) for law in laws]).transpose(1, 2, 0)
        ak, bk, qk, z = a[sl, None], b[sl, None], q[sl, None], np.zeros_like(al)
        rows = [[-2.0 * (ak + bk * al), z, z, -(qk * (al * al))],
                [-2.0 * bk * be, -2.0 * (ak + bk * (al + be)), z,
                 -(qk * (2.0 * al * be + be * be))],
                [z - (sig[sl] * sig[sl])[:, None], z, z, z], [z, z, z, z]]
        return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)

    y = np.zeros((len(laws), 4, 2))
    y[:, 0, 0], y[:, 1, 0], y[:, 3, 1] = spec.D1, spec.D2, 1.0
    # Only a non-finite coefficient stops the pass, as a FiniteEscapeError
    # and not as a numpy warning too.
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, ys in _linear_rk4(g_at, y, nodes):
            bad = ~np.isfinite(ys).all(axis=(1, 2, 3))
            if bad.any():
                raise FiniteEscapeError(float(nodes[k0 + 1 + bad.argmax()]),
                                        "cost coefficients")
    return ys[-1, :, :3].transpose(2, 1, 0)


@dataclass(frozen=True)
class CostCoefficients:
    """A law's terminal and running cost coefficients on the basis
    (m2_0, m1_0^2, 1); their sum is phi(0) for the optimal law."""

    terminal: tuple[float, float, float]
    running: tuple[float, float, float]

    def cost(self, mu: MeasureMoments) -> CostReport:
        """The law's cost from an initial law with moments mu."""
        sq = mu.m1 * mu.m1
        terminal, running = (c1 * mu.m2 + c2 * sq + c0
                             for c1, c2, c0 in (self.terminal, self.running))
        return CostReport(running + terminal, running, terminal, 0.0, 0)


def cost_coefficients(spec: ProblemSpec, laws, steps: int = 2000) -> list[CostCoefficients]:
    """The cost coefficients of every law from one backward RK4 pass on a
    uniform grid of `steps` intervals over [0, T], each bit for bit those of
    its own pass; laws may differ in grid."""
    laws = list(laws)
    if not laws:
        return []
    e, r = _coefficient_pass(spec, laws, steps).tolist()
    return [CostCoefficients(te, ru) for te, ru in zip(zip(*e), zip(*r))]


def _resolve_initial(initial: InitialLaw, n_paths: int, rng) -> np.ndarray:
    """Build the initial cloud.  A number means a Dirac mass (no randomness),
    a (mean, var) pair means a Gaussian sample."""
    if isinstance(initial, tuple):
        if len(initial) != 2:
            raise DomainError("Gaussian initial law must be a (mean, var) pair")
        mean, var = float(initial[0]), float(initial[1])
        if var < 0.0:
            raise DomainError(f"initial variance must be >= 0, got {var:.6g}")
        return mean + math.sqrt(var) * rng.standard_normal(n_paths)
    if isinstance(initial, (int, float)) and not isinstance(initial, bool):
        return np.full(n_paths, float(initial))
    raise DomainError(f"cannot interpret {initial!r} as an initial law")


def evolve_cloud(spec: ProblemSpec, law: FeedbackLaw, initial: InitialLaw,
                 config: SimConfig, t_stop: float | None = None) -> CloudTrajectory:
    """Euler-Maruyama for the interacting particle system up to t_stop (default T).

    For a fixed config the result is bit-identical across runs, chunk sizes
    and thread timing.  Streams, all SFC64 keyed by numpy's SeedSequence:
    the initial cloud draws from SFC64(seed), the root key; the increments
    of steps [b S, (b + 1) S) come from child b + 1,
    SFC64(SeedSequence(seed, spawn_key=(b + 1,))), where
    S = max(1, _BLOCK_ELEMENTS // n_paths) (stream_layout's block_rows);
    partial_obs draws its estimation error from child 0.  Distinct keys hash
    to unrelated states, which is how SeedSequence keeps parallel streams
    apart for a generator with no jump.  The run is stepped in chunks of
    whole blocks through two buffers: while this thread steps the kernel
    over chunk i in one buffer, one helper thread claims the blocks of chunk
    i + 1 from a shared iterator and fills them into the other, and this
    thread claims the rest once its kernel call returns.
    """
    from concurrent.futures import ThreadPoolExecutor

    T = spec.T
    t_stop = T if t_stop is None else float(t_stop)
    if not 0.0 < t_stop <= T + 1e-12 * max(1.0, T):
        raise DomainError(f"t_stop = {t_stop:.6g} outside (0, {T:.6g}]")
    t_stop = min(t_stop, T)
    n_steps = _steps_for(t_stop, config.dt)
    n = config.n_paths
    dt = config.dt
    times = np.linspace(0.0, t_stop, n_steps + 1)
    left = times[:-1]

    a_k = spec.A.on(left)
    b_k = spec.B.on(left)
    s_sqdt = spec.sigma.on(left) * math.sqrt(dt)
    q_dt = spec.Q.on(left) * dt
    al_k, be_k = law.gains_on(left)

    x = _resolve_initial(initial, n,
                         np.random.Generator(np.random.SFC64(config.seed)))
    run = np.zeros(n)
    m1 = np.empty(n_steps + 1)
    m2 = np.empty(n_steps + 1)

    layout = stream_layout(n)
    block, chunk = layout["block_rows"], layout["chunk_rows"]
    bounds = [(k0, min(n_steps, k0 + chunk)) for k0 in range(0, n_steps, chunk)]
    claims = [iter(range(k0 // block, -(-k1 // block))) for k0, k1 in bounds]
    # Chunk i goes to buffer i % 2; the second buffer is only as large as
    # its largest chunk.
    rows = min(chunk, n_steps)
    buffers = (np.empty((rows, n)), np.empty((min(rows, n_steps - rows), n)))

    def fill(i):
        _fill_blocks(claims[i], config.seed, block, n_steps, bounds[i][0],
                     buffers[i % 2])

    with ThreadPoolExecutor(1) as helper:
        pending = helper.submit(fill, 0)
        fill(0)
        for i, (k0, k1) in enumerate(bounds):
            pending.result()
            if i + 1 < len(bounds):
                pending = helper.submit(fill, i + 1)
            _kernels.mc_chunk(x, run, buffers[i % 2][:k1 - k0], a_k[k0:k1],
                              b_k[k0:k1], s_sqdt[k0:k1], q_dt[k0:k1],
                              al_k[k0:k1], be_k[k0:k1], dt, m1[k0:k1], m2[k0:k1])
            if not np.isfinite(x).all():
                raise SimulationDivergedError(
                    f"particle state became non-finite before t = {times[k1]:.6g}"
                )
            if i + 1 < len(bounds):
                fill(i + 1)
    m1[n_steps] = x.sum() / n
    m2[n_steps] = (x * x).sum() / n
    return CloudTrajectory(times=times, m1=m1, m2=m2, states=x, run_costs=run)


def stream_layout(n_paths: int) -> dict:
    """What a run with n_paths particles depends on besides its problem and
    seed: the bit generator and the steps per keyed block (the streams),
    the steps per increment buffer (where a divergence is detected) and the
    numpy version (its normal sampler)."""
    block = max(1, _BLOCK_ELEMENTS // n_paths)
    chunk = block * max(1, _CHUNK_ELEMENTS // 2 // n_paths // block)
    return {"bit_generator": "SFC64", "block_rows": block,
            "chunk_rows": chunk, "numpy": np.__version__}


def _fill_blocks(claims, seed, block, n_steps, k_start, out) -> None:
    """Draw every block claimed from the shared iterator `claims` into its
    rows of `out`, whose first row is step k_start; block b from child
    b + 1 of SeedSequence(seed).  Both threads call this on the same
    iterator; next() on it is one C call under the interpreter lock, so
    each block is claimed once."""
    for b in claims:
        k0 = b * block
        k1 = min(k0 + block, n_steps)
        key = np.random.SeedSequence(seed, spawn_key=(b + 1,))
        np.random.Generator(np.random.SFC64(key)).standard_normal(
            out=out[k0 - k_start:k1 - k_start])


def cost_from_cloud(spec, states: np.ndarray, run_costs: np.ndarray) -> CostReport:
    """Monte Carlo cost of a terminal cloud and its per-path running costs.

    spec supplies the terminal weights D1 and D2.  The standard error is a
    delta-method estimate: D1 m2 + D2 m1^2 has influence function
    D1 x^2 + 2 D2 m1 x.
    """
    x = states
    run = run_costs
    n = x.size
    m1_T = float(x.sum() / n)
    m2_T = float((x * x).sum() / n)
    running = float(run.mean())
    terminal = spec.D1 * m2_T + spec.D2 * m1_T * m1_T
    g = spec.D1 * x * x + 2.0 * spec.D2 * m1_T * x
    se = math.sqrt(run.var(ddof=1) / n + g.var(ddof=1) / n)
    return CostReport(total=running + terminal, running=running,
                      terminal=terminal, std_error=se, n_paths=n)


def gaussianity_check(states: np.ndarray) -> GaussianityReport:
    """Sample skewness and excess kurtosis of a particle cloud.

    Under a linear law started from Gaussian or Dirac data both should vanish;
    a degenerate (numerically zero-variance) cloud is flagged instead of
    producing 0/0 noise.
    """
    x = states
    m = x.mean()
    c = x - m
    v = float((c * c).mean())
    floor = 1e-18 * max(1.0, float((x * x).mean()))
    if v < floor:
        return GaussianityReport(float("nan"), float("nan"), True, v, floor)
    skew = float((c ** 3).mean()) / v ** 1.5
    exk = float((c ** 4).mean()) / (v * v) - 3.0
    return GaussianityReport(skew, exk, False, v, floor)


def trajectory_to_csv(traj: CloudTrajectory, path) -> None:
    """Write columns t, m1, m2."""
    _write_csv(path, ["t", "m1", "m2"], [traj.times, traj.m1, traj.m2])
