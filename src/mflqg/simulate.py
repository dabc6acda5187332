"""Cost verification: a deterministic moment oracle and Monte Carlo simulation.

Any feedback of the form u = alpha(t) x + beta(t) m1 keeps a coupled system of
mean-field particles inside the Gaussian family, so the exact cost of such a
law is computable from two moment ODEs (the "oracle"):

    m1' = (A + B (alpha + beta)) m1
    m2' = 2 (A + B alpha) m2 + 2 B beta m1^2 + sigma^2

    running integrand  Q * (alpha^2 m2 + (2 alpha beta + beta^2) m1^2)
    terminal cost      D1 m2(T) + D2 m1(T)^2

The Monte Carlo route simulates n interacting particles with Euler-Maruyama,
coupling each through the empirical mean of the same cloud, and estimates the
cost with a left-endpoint quadrature of the running integrand.  Both routes
accept the same FeedbackLaw, which is what makes the cross-check meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import _kernels
from .control import FeedbackLaw
from .errors import DomainError, SimulationDivergedError
from .model import ProblemSpec
from .riccati import _grid, _write_csv, rk4, stage_times

__all__ = [
    "SimConfig",
    "CostReport",
    "CloudTrajectory",
    "GaussianityReport",
    "EM_BIAS_CONST",
    "cost_oracle",
    "cost_oracles",
    "evolve_cloud",
    "stream_layout",
    "cost_from_cloud",
    "simulate_mc",
    "gaussianity_check",
    "mc_tolerance",
    "trajectory_to_csv",
]

# Element count of the two increment buffers together.  Each buffer holds
# half of it, whole blocks only; the run allocates both once, and while the
# kernel steps over one, both threads refill the other.  That caps the
# increments at ~16 MB of float64 without changing results.
_CHUNK_ELEMENTS = 2_000_000

# Element count of one block of increments: the steps of block b come from
# their own Philox stream, the seed's stream jumped b + 1 times, so a block's
# bytes do not depend on which thread draws it or on the buffer shape.
_BLOCK_ELEMENTS = 50_000

# Euler-Maruyama carries an O(dt) weak bias on the cost; this constant sets
# how much of it the oracle-vs-MC comparison budgets for, per unit dt.
EM_BIAS_CONST = 10.0


def mc_tolerance(std_error: float, dt: float) -> float:
    """Acceptance band for |MC - oracle|: statistical noise plus weak bias."""
    return 3.0 * float(std_error) + EM_BIAS_CONST * float(dt)

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


def _moment_pass(spec: ProblemSpec, columns: list, steps: int) -> np.ndarray:
    """One RK4 pass of the moment ODEs for every column (law, m1_0, m2_0);
    returns (m1, m2, running cost) at T as a (3, n) array.

    One column steps Python floats, several times faster than width-1
    arrays; several step one (3, n) stack, each column with the operands
    and association of its own pass.  Coefficients and gains are tabulated
    once at the stage times and folded into the five factors the ODEs read.
    """
    nodes = _grid(spec.T, steps)
    y0 = np.array([[c[1] for c in columns], [c[2] for c in columns],
                   [0.0] * len(columns)], dtype=float)
    var = y0[1] - y0[0] * y0[0]
    if (var < -1e-12 * np.maximum(1.0, np.abs(y0[1]))).any():
        raise DomainError(f"inconsistent initial moments: m2 - m1^2 = {var.min():.3e}")
    T = spec.T
    if any(law.T < T - 1e-12 * max(1.0, T) for law, _, _ in columns):
        raise DomainError("feedback law does not cover the horizon")
    times = stage_times(nodes)
    a = spec.A.on(times)[:, None]
    b = spec.B.on(times)[:, None]
    sig = spec.sigma.on(times)
    s2 = (sig * sig).tolist()
    q = spec.Q.on(times).tolist()
    # The factors a + b (alpha + beta), 2 (a + b alpha), 2 b beta, alpha^2
    # and 2 alpha beta + beta^2 at every stage, formed in place, each with
    # the operations and association of the per-stage derivatives.
    f = np.empty((times.size, 5, len(columns)))
    al, be = f[:, 3], f[:, 4]
    for i, (law, _, _) in enumerate(columns):
        al[:, i], be[:, i] = law.gains_on(times)
    np.add(al, be, out=f[:, 0])
    f[:, 0] *= b
    f[:, 0] += a
    np.multiply(b, al, out=f[:, 1])
    f[:, 1] += a
    f[:, 1] *= 2.0
    np.multiply(2.0 * b, be, out=f[:, 2])
    cross = 2.0 * al
    cross *= be
    be *= be
    be += cross
    al *= al
    if len(columns) == 1:
        f1, f2, f3, f4, f5 = f[:, :, 0].T.tolist()

        def rhs(j, y):
            m1, m2, _ = y
            return (f1[j] * m1,
                    f2[j] * m2 + f3[j] * m1 * m1 + s2[j],
                    q[j] * (f4[j] * m2 + f5[j] * m1 * m1))

        y0, names = y0[:, 0].tolist(), ("moments",) * 3
    else:
        gather = np.array([0, 1, 0, 1, 0])

        def rhs(j, y):
            # Rows f1 m1, f2 m2, f3 m1, f4 m2, f5 m1; then the m1 m1 terms,
            # the sums f2 m2 + f3 m1 m1 and f4 m2 + f5 m1 m1, s2 and q.
            g = y[0].take(gather, axis=0)
            g *= f[j]
            g[2::2] *= y[0][0]
            g[1::2] += g[2::2]
            g[2] = g[3]
            g[1] += s2[j]
            g[2] *= q[j]
            return (g[:3],)

        y0, names = [y0], ("moments",)

    # Only a non-finite moment stops the pass: a large finite state is a
    # valid start, and the oracle's cost is finite with it.  An overflow is
    # reported as the FiniteEscapeError, not as a numpy warning too.
    with np.errstate(over="ignore", invalid="ignore"):
        path = rk4(rhs, y0, nodes, names, limit=np.finfo(float).max)
    return np.array([c[-1] for c in path]).reshape(3, -1)  # frees the table


def _costs(spec: ProblemSpec, columns: list, steps: int) -> list[CostReport]:
    if not columns:
        return []
    m1, m2, run = _moment_pass(spec, columns, steps)
    terminal = spec.D1 * m2 + spec.D2 * m1 * m1
    return [CostReport(total=t, running=r, terminal=e, std_error=0.0, n_paths=0)
            for t, r, e in zip((run + terminal).tolist(), run.tolist(),
                               terminal.tolist())]


def cost_oracle(spec: ProblemSpec, law: FeedbackLaw, m1_0: float, m2_0: float,
                steps: int = 2000) -> CostReport:
    """Exact cost of a linear feedback law via the moment ODEs, RK4 on a
    uniform grid of `steps` intervals over [0, T]."""
    return _costs(spec, [(law, m1_0, m2_0)], steps)[0]


def cost_oracles(spec: ProblemSpec, columns, steps: int = 2000) -> list[CostReport]:
    """cost_oracle of every column (law, m1_0, m2_0) in one moment pass,
    each bit for bit its own cost_oracle call; laws may differ in grid."""
    return _costs(spec, list(columns), steps)


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
    and thread timing.  Streams: the initial cloud draws from
    Philox(seed); the increments of steps [b S, (b + 1) S) come from
    Philox(seed).jumped(b + 1), where S = max(1, _BLOCK_ELEMENTS // n_paths)
    (stream_layout's block_rows).  A jump moves the counter by 2^128, so
    these streams never overlap; partial_obs draws its estimation error from
    the key of SeedSequence(seed).spawn(1)[0], distinct again.  The run is
    stepped in chunks of whole blocks through two buffers: while this thread
    steps the kernel over chunk i in one buffer, one helper thread claims the
    blocks of chunk i + 1 from a shared iterator and fills them into the
    other, and this thread claims the rest once its kernel call returns.
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
                         np.random.Generator(np.random.Philox(config.seed)))
    root = np.random.Philox(config.seed)  # only jumped, never drawn from
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
        _fill_blocks(claims[i], root, block, n_steps, bounds[i][0],
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
    seed: the bit generator and the steps per Philox block (the streams),
    the steps per increment buffer (where a divergence is detected) and the
    numpy version (its normal sampler)."""
    block = max(1, _BLOCK_ELEMENTS // n_paths)
    chunk = block * max(1, _CHUNK_ELEMENTS // 2 // n_paths // block)
    return {"bit_generator": "Philox", "block_rows": block,
            "chunk_rows": chunk, "numpy": np.__version__}


def _fill_blocks(claims, root, block, n_steps, k_start, out) -> None:
    """Draw every block claimed from the shared iterator `claims` into its
    rows of `out`, whose first row is step k_start.  Both threads call this
    on the same iterator; next() on it is one C call under the interpreter
    lock, so each block is claimed once."""
    # root.jumped(b + 1) would seed a throwaway Philox from OS entropy per
    # block; setting the root's state and advancing it is the same jump.
    start = root.state
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    for b in claims:
        k0 = b * block
        k1 = min(k0 + block, n_steps)
        bits.state = start
        bits.advance((b + 1) << 128)
        rng.standard_normal(out=out[k0 - k_start:k1 - k_start])


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


def simulate_mc(spec: ProblemSpec, law: FeedbackLaw, initial: InitialLaw,
                config: SimConfig) -> CostReport:
    """Monte Carlo estimate of the cost of a feedback law over [0, T]."""
    traj = evolve_cloud(spec, law, initial, config)
    return cost_from_cloud(spec, traj.states, traj.run_costs)


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
