"""Problem data: time-varying coefficients, problem definitions, and measures.

The controlled state is scalar (a matrix-valued variant lives in
:class:`MatrixProblemSpec`), the cost is quadratic in the control, and the
terminal cost depends on the state law through its first two moments:

    g(mu) = D1 * m2(mu) + D2 * m1(mu)**2

so a distribution enters every formula only through ``(m1, m2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import AssumptionError, DomainError

__all__ = [
    "Coefficient",
    "ProblemSpec",
    "MatrixProblemSpec",
    "MeasureMoments",
    "ValidationResult",
    "as_coefficient",
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

    Every number in data must be finite.
    """

    kind: str
    data: tuple

    def __post_init__(self):
        if self.kind == "table":
            _finite("table knots", *self.data[0])
            _finite("table values", *self.data[1])
        else:
            _finite(f"{self.kind} coefficient", *self.data)

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
        return float(self.on(t))

    def on(self, times) -> np.ndarray:
        """Values at a time or an array of times; knot hits of a table
        return the stored value exactly."""
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
            raise DomainError(
                f"t = {float(t[outside][0]):.6g} outside tabulated range "
                f"[{ts[0]:.6g}, {ts[-1]:.6g}]"
            )
        lo = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, ts.size - 2)
        w = (t - ts[lo]) / (ts[lo + 1] - ts[lo])
        return np.where(t == ts[lo], vs[lo], vs[lo] + w * (vs[lo + 1] - vs[lo]))


CoefficientLike = Union[Coefficient, float, int]


def _finite(name: str, *values: float) -> None:
    """Refuse a non-finite number where it enters, naming its field; it
    would otherwise surface later as a misleading finite escape."""
    for v in values:
        if not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v!r}")


def _finite_float(name: str, value) -> float:
    value = float(value)
    _finite(name, value)
    return value


def as_coefficient(value: CoefficientLike) -> Coefficient:
    """Coerce a bare number to a constant coefficient; pass Coefficients through."""
    if isinstance(value, Coefficient):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return Coefficient.constant(float(value))
    raise DomainError(f"cannot interpret {value!r} as a coefficient")


@dataclass(frozen=True)
class ProblemSpec:
    """Scalar mean-field LQG problem data.

    Dynamics  dX = (A(t) X + B(t) u) dt + sigma(t) dW, control cost Q(t) u^2,
    terminal cost D1 * m2 + D2 * m1^2 at time T.  Numbers passed for the
    time-varying fields are coerced to constant coefficients.  A non-finite
    number raises DomainError naming its field.
    """

    A: Coefficient
    B: Coefficient
    sigma: Coefficient
    Q: Coefficient
    D1: float
    D2: float
    T: float

    def __post_init__(self):
        for name in ("A", "B", "sigma", "Q"):
            try:
                coef = as_coefficient(getattr(self, name))
            except DomainError as exc:
                raise DomainError(f"{name}: {exc}") from None
            object.__setattr__(self, name, coef)
        for name in ("D1", "D2", "T"):
            object.__setattr__(self, name, _finite_float(name, getattr(self, name)))
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


@dataclass(frozen=True)
class ValidationResult:
    """Verdict on the standing assumptions.  q_min is the smallest control
    weight seen on the grid (for a matrix problem, the smallest eigenvalue of
    the symmetric part of Q), up to the first violation; None if the grid
    was not reached."""

    ok: bool
    message: str
    t_violation: float | None = None
    q_min: float | None = None


def validate_spec(spec: ProblemSpec) -> ValidationResult:
    """Check the standing assumptions on a time grid.

    A1 (positive control weight) requires Q(t) > 0; it is checked at 256
    equally spaced times including both endpoints, plus every time inside
    (0, T) where Q can have its minimum: a table knot, or the real part of
    a root of a polynomial's derivative.  The other coefficients are probed
    at the endpoints so tabulated data covering less than [0, T] is
    reported rather than raising later, mid-integration.
    """
    for name, coef in (("A", spec.A), ("B", spec.B), ("sigma", spec.sigma),
                       ("Q", spec.Q)):
        for t in (0.0, spec.T):
            try:
                coef(t)
            except DomainError as exc:
                return ValidationResult(
                    False, f"coefficient {name} not evaluable: {exc}", t
                )
    extra = (np.array(spec.Q.data[0]) if spec.Q.kind == "table" else
             np.roots([k * c for k, c in enumerate(spec.Q.data)][:0:-1]).real)
    times = np.sort(np.concatenate([np.linspace(0.0, spec.T, 256),
                                    extra[(0.0 < extra) & (extra < spec.T)]]))
    q_min = float(spec.Q.on(times).min())
    try:
        spec.control_weight_on(times)
    except AssumptionError as exc:
        return ValidationResult(False, str(exc), exc.time, q_min)
    return ValidationResult(True, "ok", None, q_min)


MatrixLike = Union[np.ndarray, Sequence[Sequence[float]]]


@dataclass(frozen=True, eq=False)
class MatrixProblemSpec:
    """Vector-state variant of :class:`ProblemSpec` in dimension d.

    A, B, sigma, Q, D1 and D2 are constant d x d matrices of finite
    numbers, copied and locked on construction.  D1 and D2 must be
    symmetric.
    """

    d: int
    A: MatrixLike
    B: MatrixLike
    sigma: MatrixLike
    Q: MatrixLike
    D1: MatrixLike
    D2: MatrixLike
    T: float

    def __post_init__(self):
        d = int(self.d)
        if d < 1:
            raise DomainError(f"dimension must be >= 1, got {d}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "T", _finite_float("T", self.T))
        if not self.T > 0.0:
            raise AssumptionError(f"horizon T must be positive, got {self.T:.6g}")
        for name in ("A", "B", "sigma", "Q", "D1", "D2"):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            if arr.shape != (d, d):
                raise DomainError(f"{name} must have shape ({d}, {d}), got {arr.shape}")
            _finite(name, *arr.ravel().tolist())
            if name in ("D1", "D2"):
                if not np.allclose(arr, arr.T, rtol=0.0, atol=1e-12):
                    raise AssumptionError(f"terminal weight {name} must be symmetric")
                arr = 0.5 * (arr + arr.T)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __eq__(self, other):
        if not isinstance(other, MatrixProblemSpec):
            return NotImplemented
        return self.d == other.d and self.T == other.T and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("A", "B", "sigma", "Q", "D1", "D2"))


def validate_matrix_spec(spec: MatrixProblemSpec) -> ValidationResult:
    """Matrix analogue of :func:`validate_spec`: Q must be symmetric positive
    definite."""
    q = spec.Q
    lam = float(np.linalg.eigvalsh(0.5 * (q + q.T)).min())
    if not np.allclose(q, q.T, rtol=0.0, atol=1e-10):
        return ValidationResult(False, "assumption A1: Q is not symmetric",
                                None, lam)
    if not lam > 0.0:
        return ValidationResult(
            False,
            f"assumption A1 (positive definite control weight) fails: "
            f"min eig Q = {lam:.6g}",
            None, lam,
        )
    return ValidationResult(True, "ok", None, lam)
