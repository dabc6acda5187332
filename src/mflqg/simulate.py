"""Cost verification: a deterministic cost oracle and Monte Carlo simulation.

A feedback u = alpha(t) x + beta(t) m1 (d x d gains in dimension d) keeps a
coupled system of mean-field particles inside the Gaussian family: with
F = A + B alpha, G = A + B (alpha + beta) and S = sigma sigma^T, the moments
m2 = E[X X^T] and P = m1 m1^T solve m2' = F m2 + m2 F^T + B beta P +
P (B beta)^T + S and P' = G P + P G^T.  So a law's exact cost from every
initial law (the "oracle") is J = tr(C1 m2_0) + tr(C2 P_0) + c0, with

    C1' = -(F^T C1 + C1 F) - w alpha^T Q alpha
    C2' = -(C1 B beta + (B beta)^T C1) - (G^T C2 + C2 G)
          - w (alpha^T Q beta + beta^T Q alpha + beta^T Q beta)
    c0' = -tr(C1 S)

backwards from T, for the terminal part (w = 0, from (D1, D2, 0)) and the
running part (w = 1, from 0): riccati's one RK4 integrator steps both as
one homogeneous system, and C = phi(0) for the optimal law.  The Monte
Carlo route simulates n interacting particles with Euler-Maruyama, coupling
each through the empirical mean of the same cloud, and estimates the cost
with a left-endpoint quadrature of the running integrand; its normal
increments come from SFC64 streams keyed by numpy's SeedSequence, one child
key per block of steps (see evolve_cloud).  Both routes accept the same
FeedbackLaw, which is what makes the cross-check meaningful.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import _kernels
from .control import FeedbackLaw
from .errors import DomainError, FiniteEscapeError, SimulationDivergedError
from .model import MeasureMoments, ProblemSpec
from .riccati import (_coefficients, _grid, _linear_rk4, _mm, _tr, _write_csv,
                      stage_times)

__all__ = [
    "SimConfig",
    "CostReport",
    "CostCoefficients",
    "CloudTrajectory",
    "cost_coefficients",
    "evolve_cloud",
    "stream_layout",
    "cost_from_cloud",
    "trajectory_to_csv",
]

# Element count of one block of increments: the steps of block b come from
# their own SFC64 stream, keyed as child b + 1 of the seed's SeedSequence, so
# a block's bytes do not depend on which thread draws it or on the slot it
# is drawn into.
_BLOCK_ELEMENTS = 50_000

# Slots in the ring of increment blocks: a run holds at most this many
# blocks, each of at most max(n_paths, _BLOCK_ELEMENTS) floats, so the
# increments take at most 1.6 MB at 50 000 paths and 3.2 MB at 1e5.  Four
# let the drawing thread run up to three blocks ahead of the kernel.
_RING_SLOTS = 4

# Element count stepped between two divergence checks (stream_layout's
# chunk_rows); it decides where a divergence is reported, not the memory.
_CHECK_ELEMENTS = 1_000_000

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


def _steps_for(horizon: float, dt: float) -> int:
    n = int(round(horizon / dt))
    if n < 1 or abs(n * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise DomainError(
            f"dt = {dt:.6g} does not divide the horizon {horizon:.6g} evenly"
        )
    return n


def _pairs(x, y):
    """x_ij y_kl at axes (i, k, j, l) of batched d x d matrices: reshaped to
    d^2 x d^2, the Kronecker product.  At d = 1 the product of the numbers."""
    return x[..., :, None, :, None] * y[..., None, :, None, :]


def _coefficient_pass(spec, laws: list, steps: int) -> np.ndarray:
    """One backward pass of the cost coefficients of every law: y at t = 0,
    (laws, 2 d^2 + 2, 2).  Each law steps the module docstring's system on
    (vec C1, vec C2, c0, w), row-major, from the terminal column (vec D1,
    vec D2, 0, 0) and the running one (0, 0, 0, 1); a law's coefficients are
    bit for bit those of its own pass.  At d = 1 every entry is the scalar
    4 x 4 system's, bit for bit, zeros' signs included."""
    nodes = _grid(spec.T, steps)[::-1]
    times = stage_times(nodes)
    a, _, ss, b, q = (c[:, None] for c in _coefficients(spec, times)[:5])
    n2, eye = spec.d * spec.d, np.eye(spec.d)
    c1, c2, c0, w = slice(0, n2), slice(n2, 2 * n2), 2 * n2, 2 * n2 + 1

    def kron_sum(x):
        """K with vec(X^T C + C X) = K vec C."""
        xt = np.swapaxes(x, -1, -2)
        k = _pairs(xt, eye) + _pairs(eye, xt)
        return k.reshape(*k.shape[:-4], n2, n2)

    # Every law's gains at every stage time, (times, laws, d, d) each.
    gains = [np.stack(g, axis=1) for g in zip(*(law.gains_on(times) for law in laws))]

    def g_at(sl):
        al, be = (g[sl] for g in gains)
        ak, bk, qk = a[sl], b[sl], q[sl][..., None, None]
        # sum_ij Q_ij u_ia v_jb: Q weighs the products of the gains.
        r1, r2 = ((qk * p).sum(axis=(-4, -3), initial=-0.0) for p in (
            _pairs(al, al), _pairs(al, be) + _pairs(be, al) + _pairs(be, be)))
        g = np.zeros(al.shape[:2] + (w + 1, w + 1))
        g[..., c1, c1] = -kron_sum(ak + _mm(bk, al))
        g[..., c2, c1] = -kron_sum(_mm(bk, be))
        g[..., c2, c2] = -kron_sum(ak + _mm(bk, al + be))
        g[..., c0, c1] -= ss[sl].reshape(-1, 1, n2)  # S is symmetric
        g[..., c1, w] = -r1.reshape(*r1.shape[:2], n2)
        g[..., c2, w] = -r2.reshape(*r2.shape[:2], n2)
        return g

    y = np.zeros((len(laws), w + 1, 2))
    y[:, c1, 0], y[:, c2, 0], y[:, w, 1] = np.ravel(spec.D1), np.ravel(spec.D2), 1.0
    # Only a non-finite coefficient stops the pass, as a FiniteEscapeError
    # and not as a numpy warning too.
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, ys in _linear_rk4(g_at, y, nodes):
            bad = ~np.isfinite(ys).all(axis=(1, 2, 3))
            if bad.any():
                raise FiniteEscapeError(float(nodes[k0 + 1 + bad.argmax()]),
                                        "cost coefficients")
    return ys[-1]


@dataclass(frozen=True)
class CostCoefficients:
    """A law's terminal and running cost coefficients (C1, C2, c0), C1 and
    C2 d x d, on the basis (m2_0, m1_0 m1_0^T, 1); their sum is phi(0) for
    the optimal law."""

    terminal: tuple
    running: tuple

    def cost(self, mu: MeasureMoments) -> CostReport:
        """The law's cost from an initial law with moments mu."""
        m1 = np.reshape(mu.m1, -1)
        m2 = np.reshape(mu.m2, (m1.size, m1.size))
        sq = np.multiply.outer(m1, m1)
        terminal, running = (float(_tr(c1, m2) + _tr(c2, sq) + c0)
                             for c1, c2, c0 in (self.terminal, self.running))
        return CostReport(running + terminal, running, terminal, 0.0, 0)


def cost_coefficients(spec, laws, steps: int = 2000) -> list[CostCoefficients]:
    """The cost coefficients of every law from one backward RK4 pass on a
    uniform grid of `steps` intervals over [0, T], each bit for bit those of
    its own pass; laws may differ in grid."""
    laws = list(laws)
    if not laws:
        return []
    d = spec.d
    split = lambda c: (c[:d * d].reshape(d, d), c[d * d:-2].reshape(d, d), float(c[-2]))
    return [CostCoefficients(*map(split, y.T)) for y in _coefficient_pass(spec, laws, steps)]


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


def _scalar_engine(spec) -> None:
    """The particle engine steps d = 1 only: refuse a d x d spec by its
    dimension, not by a numpy broadcast error."""
    if np.ndim(spec.D1):
        raise DomainError(
            f"the particle engine runs d = 1 only, got d = {len(spec.D1)}")


def evolve_cloud(spec: ProblemSpec, law: FeedbackLaw, initial: InitialLaw,
                 config: SimConfig, t_stop: float | None = None) -> CloudTrajectory:
    """Euler-Maruyama for the interacting particle system up to t_stop (default T).

    For a fixed config the result is bit-identical across runs, ring sizes
    and thread timing.  Streams, all SFC64 keyed by numpy's SeedSequence:
    the initial cloud draws from SFC64(seed), the root key; the increments
    of steps [b S, (b + 1) S) come from child b + 1,
    SFC64(SeedSequence(seed, spawn_key=(b + 1,))), where
    S = max(1, _BLOCK_ELEMENTS // n_paths) (stream_layout's block_rows);
    partial_obs draws its estimation error from child 0.  Distinct keys hash
    to unrelated states, which is how SeedSequence keeps parallel streams
    apart for a generator with no jump.  The blocks pass through a ring of
    _RING_SLOTS one-block slots (see _Ring): this thread steps the kernel
    over each block in order as soon as it is drawn, and one helper thread
    draws the blocks ahead of it.  The state is checked for divergence every
    chunk_rows steps.
    """
    _scalar_engine(spec)
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
    al_k, be_k = (g[:, 0, 0] for g in law.gains_on(left))

    x = _resolve_initial(initial, n,
                         np.random.Generator(np.random.SFC64(config.seed)))
    run = np.zeros(n)
    m1 = np.empty(n_steps + 1)
    m2 = np.empty(n_steps + 1)

    layout = stream_layout(n)
    block, chunk = layout["block_rows"], layout["chunk_rows"]
    with _Ring(config.seed, block, n_steps, n) as ring:
        for b in range(ring.n_blocks):
            k0, k1 = b * block, min((b + 1) * block, n_steps)
            _kernels.mc_chunk(x, run, ring.take(b), a_k[k0:k1], b_k[k0:k1],
                              s_sqdt[k0:k1], q_dt[k0:k1], al_k[k0:k1],
                              be_k[k0:k1], dt, m1[k0:k1], m2[k0:k1])
            ring.stepped_through(b)
            if (k1 % chunk == 0 or k1 == n_steps) and not np.isfinite(x).all():
                raise SimulationDivergedError(
                    f"particle state became non-finite before t = {times[k1]:.6g}"
                )
    m1[n_steps] = x.sum() / n
    m2[n_steps] = (x * x).sum() / n
    return CloudTrajectory(times=times, m1=m1, m2=m2, states=x, run_costs=run)


def stream_layout(n_paths: int) -> dict:
    """What a run with n_paths particles depends on besides its problem and
    seed: the bit generator and the steps per keyed block (the streams),
    the steps between divergence checks (where a divergence is reported)
    and the numpy version (its normal sampler)."""
    block = max(1, _BLOCK_ELEMENTS // n_paths)
    chunk = block * max(1, _CHECK_ELEMENTS // n_paths // block)
    return {"bit_generator": "SFC64", "block_rows": block,
            "chunk_rows": chunk, "numpy": np.__version__}


class _Ring:
    """The increments of one run, block by block, through a ring of one-block
    slots that two threads fill.

    Block b is drawn whole by one thread from child b + 1 of
    SeedSequence(seed) into slot b % R, and only once block b - R's kernel
    call has returned.  Claims go in block order under one lock: the helper
    claims the lowest unclaimed block and waits for its slot; the stepping
    thread, while its next block is not drawn, claims the lowest unclaimed
    block whose slot is free, or waits.  As a context manager the ring runs
    the helper thread: on exit, also by an exception, close() stops it
    before its next claim and it is joined.
    """

    def __init__(self, seed: int, block: int, n_steps: int, n_paths: int):
        self.seed, self.block, self.n_steps = seed, block, n_steps
        self.n_blocks = -(-n_steps // block)
        rows = min(block, n_steps)
        self.slots = [np.empty((rows, n_paths))
                      for _ in range(min(_RING_SLOTS, self.n_blocks))]
        self.held = [-1] * len(self.slots)  # the block each slot holds
        self.claimed = 0                    # the lowest unclaimed block
        self.stepped = 0                    # blocks whose kernel call returned
        self.stop = False
        self.error = None                   # what the helper raised
        self.cond = threading.Condition()

    def _rows(self, b: int) -> np.ndarray:
        k0 = b * self.block
        return self.slots[b % len(self.slots)][:min(self.block, self.n_steps - k0)]

    def _claim_free(self):
        """The lowest unclaimed block if its slot is free, claimed; else
        None.  Called with the lock held."""
        b = self.claimed
        if b == self.n_blocks or b >= self.stepped + len(self.slots):
            return None
        self.claimed += 1
        return b

    def _draw(self, b: int) -> None:
        key = np.random.SeedSequence(self.seed, spawn_key=(b + 1,))
        np.random.Generator(np.random.SFC64(key)).standard_normal(out=self._rows(b))
        with self.cond:
            self.held[b % len(self.slots)] = b
            self.cond.notify_all()

    def helper(self) -> None:
        try:
            while True:
                with self.cond:
                    if self.stop or self.claimed == self.n_blocks:
                        return
                    b = self.claimed
                    self.claimed += 1
                    while not self.stop and b >= self.stepped + len(self.slots):
                        self.cond.wait()
                    if self.stop:
                        return
                self._draw(b)
        except BaseException as exc:
            with self.cond:
                self.error = exc
                self.cond.notify_all()

    def take(self, b: int) -> np.ndarray:
        """Block b's increments, once drawn; until then this thread draws."""
        while True:
            with self.cond:
                if self.held[b % len(self.slots)] == b:
                    return self._rows(b)
                if self.error is not None:
                    raise self.error
                c = self._claim_free()
                if c is None:
                    self.cond.wait()
                    continue
            self._draw(c)

    def stepped_through(self, b: int) -> None:
        """Block b's kernel call has returned: its slot may be refilled."""
        with self.cond:
            self.stepped = b + 1
            self.cond.notify_all()

    def close(self) -> None:
        with self.cond:
            self.stop = True
            self.cond.notify_all()

    def __enter__(self) -> "_Ring":
        self._thread = threading.Thread(target=self.helper)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        self._thread.join()


def cost_from_cloud(spec, states: np.ndarray, run_costs: np.ndarray) -> CostReport:
    """Monte Carlo cost of a terminal cloud and its per-path running costs.

    spec supplies the terminal weights D1 and D2.  The standard error is a
    delta-method estimate: D1 m2 + D2 m1^2 has influence function
    D1 x^2 + 2 D2 m1 x.
    """
    _scalar_engine(spec)
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


def trajectory_to_csv(traj: CloudTrajectory, path) -> None:
    """Write columns t, m1, m2."""
    _write_csv(path, ["t", "m1", "m2"], [traj.times, traj.m1, traj.m2])
