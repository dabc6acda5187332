"""Problem data: time-varying coefficients, problem definitions, and measures.

The controlled state is scalar (a matrix-valued variant lives in
:class:`MatrixProblemSpec`), the cost is quadratic in the control, and the
terminal cost depends on the state law through its first two moments:

    g(mu) = D1 * m2(mu) + D2 * m1(mu)**2

so a distribution enters every formula only through ``(m1, m2)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import AssumptionError, DomainError

__all__ = [
    "Coefficient",
    "ProblemSpec",
    "MatrixProblemSpec",
    "MeasureMoments",
    "ParticleCloud",
    "ValidationResult",
    "as_coefficient",
    "eval_coefficient",
    "moments_of",
    "validate_spec",
    "validate_matrix_spec",
]


@dataclass(frozen=True)
class Coefficient:
    """A scalar function of time, restricted to three closed-under-parsing forms.

    kind = "constant": data = (c,), value c everywhere.
    kind = "poly":     data = (c0, c1, ...), value sum(c_k * t**k).
    kind = "table":    data = (ts, vs) with strictly increasing knots; values
                       interpolate linearly and evaluation outside the knot
                       range raises DomainError.
    """

    kind: str
    data: tuple

    @staticmethod
    def constant(c: float) -> "Coefficient":
        return Coefficient("constant", (float(c),))

    @staticmethod
    def poly(coeffs: Sequence[float]) -> "Coefficient":
        cs = tuple(float(c) for c in coeffs)
        if not cs:
            raise DomainError("polynomial coefficient needs at least one term")
        return Coefficient("poly", cs)

    @staticmethod
    def table(ts: Sequence[float], vs: Sequence[float]) -> "Coefficient":
        t = tuple(float(x) for x in ts)
        v = tuple(float(x) for x in vs)
        if len(t) != len(v):
            raise DomainError("table knots and values differ in length")
        if len(t) < 2:
            raise DomainError("table coefficient needs at least two knots")
        if any(b <= a for a, b in zip(t, t[1:])):
            raise DomainError("table knots must be strictly increasing")
        return Coefficient("table", (t, v))

    def __call__(self, t: float) -> float:
        if self.kind == "constant":
            return self.data[0]
        if self.kind == "poly":
            acc = 0.0
            for c in reversed(self.data):
                acc = acc * t + c
            return acc
        ts, vs = self.data
        if t < ts[0] or t > ts[-1]:
            raise DomainError(
                f"t = {t:.6g} outside tabulated range [{ts[0]:.6g}, {ts[-1]:.6g}]"
            )
        # Linear interpolation; knot hits return the stored value exactly.
        lo, hi = 0, len(ts) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ts[mid] <= t:
                lo = mid
            else:
                hi = mid
        if t == ts[lo]:
            return vs[lo]
        w = (t - ts[lo]) / (ts[hi] - ts[lo])
        return vs[lo] + w * (vs[hi] - vs[lo])

    def on(self, times) -> np.ndarray:
        """Values at an array of times, bit for bit what calling at each gives."""
        t = np.asarray(times, dtype=np.float64)
        if self.kind == "constant":
            return np.full(t.shape, self.data[0])
        if self.kind == "poly":
            acc = np.zeros(t.shape)
            for c in reversed(self.data):
                acc = acc * t + c
            return acc
        ts, vs = (np.array(a) for a in self.data)
        outside = (t < ts[0]) | (t > ts[-1])
        if outside.any():
            self(float(t[outside][0]))  # raises DomainError with the message
        lo = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, ts.size - 2)
        w = (t - ts[lo]) / (ts[lo + 1] - ts[lo])
        return np.where(t == ts[lo], vs[lo], vs[lo] + w * (vs[lo + 1] - vs[lo]))


CoefficientLike = Union[Coefficient, float, int]


def as_coefficient(value: CoefficientLike) -> Coefficient:
    """Coerce a bare number to a constant coefficient; pass Coefficients through."""
    if isinstance(value, Coefficient):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return Coefficient.constant(float(value))
    raise DomainError(f"cannot interpret {value!r} as a coefficient")


def eval_coefficient(f: CoefficientLike, t: float) -> float:
    """Evaluate a coefficient (or bare number) at time t."""
    return as_coefficient(f)(float(t))


@dataclass(frozen=True)
class ProblemSpec:
    """Scalar mean-field LQG problem data.

    Dynamics  dX = (A(t) X + B(t) u) dt + sigma(t) dW, control cost Q(t) u^2,
    terminal cost D1 * m2 + D2 * m1^2 at time T.  Numbers passed for the
    time-varying fields are coerced to constant coefficients.
    """

    A: Coefficient
    B: Coefficient
    sigma: Coefficient
    Q: Coefficient
    D1: float
    D2: float
    T: float

    def __post_init__(self):
        object.__setattr__(self, "A", as_coefficient(self.A))
        object.__setattr__(self, "B", as_coefficient(self.B))
        object.__setattr__(self, "sigma", as_coefficient(self.sigma))
        object.__setattr__(self, "Q", as_coefficient(self.Q))
        object.__setattr__(self, "D1", float(self.D1))
        object.__setattr__(self, "D2", float(self.D2))
        object.__setattr__(self, "T", float(self.T))
        if not self.T > 0.0:
            raise AssumptionError(f"horizon T must be positive, got {self.T:.6g}")

    def control_weight_on(self, times) -> np.ndarray:
        """Q at `times`, checked against assumption A1 (Q > 0); the
        AssumptionError names the first of the times where it fails."""
        q = self.Q.on(times)
        bad = np.flatnonzero(~(q > 0.0))
        if bad.size:
            t, qt = float(np.ravel(times)[bad[0]]), float(np.ravel(q)[bad[0]])
            raise AssumptionError(
                f"assumption A1 (positive control weight) fails: Q({t:.6g}) = {qt:.6g}",
                t)
        return q


@dataclass(frozen=True)
class MeasureMoments:
    """First two moments (m1, m2) of a state law.

    m2 >= m1^2 must hold up to rounding: the constructor tolerates a defect of
    -1e-12 * max(1, m2) so that empirical moments from large clouds pass.
    """

    m1: float
    m2: float

    def __post_init__(self):
        object.__setattr__(self, "m1", float(self.m1))
        object.__setattr__(self, "m2", float(self.m2))
        slack = self.m2 - self.m1 * self.m1
        if slack < -1e-12 * max(1.0, abs(self.m2)):
            raise DomainError(
                f"inconsistent moments: m2 - m1^2 = {slack:.3e} < 0"
            )

    @classmethod
    def dirac(cls, x: float) -> "MeasureMoments":
        x = float(x)
        return cls(x, x * x)

    @property
    def variance(self) -> float:
        return self.m2 - self.m1 * self.m1


@dataclass(frozen=True, eq=False)
class ParticleCloud:
    """An empirical measure: a read-only float64 vector of particle states."""

    states: np.ndarray

    def __post_init__(self):
        arr = np.array(self.states, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise DomainError(f"particle states must be 1-d, got shape {arr.shape}")
        if arr.size == 0:
            raise DomainError("particle cloud must contain at least one particle")
        arr.setflags(write=False)
        object.__setattr__(self, "states", arr)

    def __len__(self) -> int:
        return int(self.states.size)

    def moments(self) -> MeasureMoments:
        return moments_of(self)


def moments_of(cloud: ParticleCloud) -> MeasureMoments:
    """Empirical (m1, m2) of a cloud: equal-weight averages of x and x^2."""
    x = cloud.states
    return MeasureMoments(float(x.mean()), float((x * x).mean()))


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    message: str
    t_violation: float | None = None


def validate_spec(spec: ProblemSpec, grid_points: int = 256) -> ValidationResult:
    """Check the standing assumptions on a uniform time grid.

    A1 (positive control weight) requires Q(t) > 0; it is checked at
    ``grid_points`` equally spaced times including both endpoints.  The other
    coefficients are probed at the endpoints so tabulated data covering less
    than [0, T] is reported rather than raising later, mid-integration.
    """
    if grid_points < 2:
        raise DomainError("grid_points must be at least 2")
    if not spec.T > 0.0:
        return ValidationResult(False, "horizon T must be positive", None)
    for name, coef in (("A", spec.A), ("B", spec.B), ("sigma", spec.sigma),
                       ("Q", spec.Q)):
        for t in (0.0, spec.T):
            try:
                coef(t)
            except DomainError as exc:
                return ValidationResult(
                    False, f"coefficient {name} not evaluable: {exc}", t
                )
    times = np.linspace(0.0, spec.T, grid_points)
    try:
        spec.control_weight_on(times)
    except AssumptionError as exc:
        return ValidationResult(False, str(exc), exc.time)
    return ValidationResult(True, "ok", None)


MatrixLike = Union[np.ndarray, Sequence[Sequence[float]], Callable[[float], np.ndarray]]


def _freeze_matrix(value: MatrixLike, d: int, name: str):
    """Normalize a matrix field: constant arrays are copied and locked."""
    if callable(value):
        return value
    arr = np.array(value, dtype=np.float64, copy=True)
    if arr.shape != (d, d):
        raise DomainError(f"{name} must have shape ({d}, {d}), got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MatrixProblemSpec:
    """Vector-state variant of :class:`ProblemSpec` in dimension d.

    A, B, sigma, Q are d x d matrices, either constant (array-like) or
    callables of time returning arrays.  D1 and D2 must be symmetric.
    """

    d: int
    A: MatrixLike
    B: MatrixLike
    sigma: MatrixLike
    Q: MatrixLike
    D1: np.ndarray
    D2: np.ndarray
    T: float

    def __post_init__(self):
        d = int(self.d)
        if d < 1:
            raise DomainError(f"dimension must be >= 1, got {d}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "T", float(self.T))
        if not self.T > 0.0:
            raise AssumptionError(f"horizon T must be positive, got {self.T:.6g}")
        for name in ("A", "B", "sigma", "Q"):
            object.__setattr__(self, name, _freeze_matrix(getattr(self, name), d, name))
        for name in ("D1", "D2"):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            if arr.shape != (d, d):
                raise DomainError(f"{name} must have shape ({d}, {d}), got {arr.shape}")
            if not np.allclose(arr, arr.T, rtol=0.0, atol=1e-12):
                raise AssumptionError(f"terminal weight {name} must be symmetric")
            arr = 0.5 * (arr + arr.T)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def _at(self, field: str, t: float) -> np.ndarray:
        value = getattr(self, field)
        if callable(value):
            arr = np.asarray(value(t), dtype=np.float64)
            if arr.shape != (self.d, self.d):
                raise DomainError(
                    f"{field}({t:.6g}) has shape {arr.shape}, expected ({self.d}, {self.d})"
                )
            return arr
        return value

    def A_at(self, t: float) -> np.ndarray:
        return self._at("A", t)

    def B_at(self, t: float) -> np.ndarray:
        return self._at("B", t)

    def sigma_at(self, t: float) -> np.ndarray:
        return self._at("sigma", t)

    def Q_at(self, t: float) -> np.ndarray:
        return self._at("Q", t)

    def __eq__(self, other):
        if not isinstance(other, MatrixProblemSpec):
            return NotImplemented
        if self.d != other.d or self.T != other.T:
            return False
        for name in ("A", "B", "sigma", "Q", "D1", "D2"):
            a, b = getattr(self, name), getattr(other, name)
            if callable(a) or callable(b):
                if a is not b:
                    return False
            elif not np.array_equal(a, b):
                return False
        return True


def validate_matrix_spec(spec: MatrixProblemSpec, grid_points: int = 64) -> ValidationResult:
    """Matrix analogue of :func:`validate_spec`: Q(t) must be symmetric positive
    definite at every grid time."""
    if grid_points < 2:
        raise DomainError("grid_points must be at least 2")
    for t in np.linspace(0.0, spec.T, grid_points):
        t = float(t)
        q = spec.Q_at(t)
        if not np.allclose(q, q.T, rtol=0.0, atol=1e-10):
            return ValidationResult(
                False, f"assumption A1: Q({t:.6g}) is not symmetric", t
            )
        lam = float(np.linalg.eigvalsh(0.5 * (q + q.T)).min())
        if not lam > 0.0:
            return ValidationResult(
                False,
                f"assumption A1 (positive definite control weight) fails: "
                f"min eig Q({t:.6g}) = {lam:.6g}",
                t,
            )
    return ValidationResult(True, "ok", None)
