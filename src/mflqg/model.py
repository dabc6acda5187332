"""Problem data: coefficients of time, the problem definition, and measures.

The controlled state is a vector in dimension d.  One ProblemSpec holds
every problem: scalar coefficients of time at d = 1, constant d x d
matrices at d > 1, so a scalar problem is the d = 1 case of every formula.
The cost is quadratic in the control, and the terminal cost depends on the
state law through its first two moments:

    g(mu) = tr(D1 m2(mu)) + m1(mu)^T D2 m1(mu)

so a distribution enters every formula only through ``(m1, m2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AssumptionError, DomainError

__all__ = [
    "Coefficient",
    "ProblemSpec",
    "MeasureMoments",
    "ValidationResult",
    "as_coefficient",
    "validate_spec",
]


@dataclass(frozen=True)
class Coefficient:
    """A function of time, restricted to three closed-under-parsing forms.

    kind = "constant": data = (c,), value c everywhere; c is a number or a
                       d x d matrix held as a tuple of row tuples.
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
            _finite(f"{self.kind} coefficient", *np.ravel(self.data).tolist())

    @staticmethod
    def constant(c) -> "Coefficient":
        """c is a number or a square matrix; a 1 x 1 matrix is the number
        it holds."""
        try:
            arr = np.array(c, dtype=np.float64)
        except (TypeError, ValueError):
            raise DomainError(f"cannot interpret {c!r} as a coefficient") from None
        if arr.shape in ((), (1, 1)):
            return Coefficient("constant", (arr.item(),))
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
            raise DomainError(f"a coefficient is a number or a square matrix, "
                              f"got shape {arr.shape}")
        return Coefficient("constant", (tuple(map(tuple, arr.tolist())),))

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

    @property
    def shape(self) -> tuple:
        """The shape of a value: () for a number, (d, d) for a matrix."""
        return np.shape(self.data[0]) if self.kind == "constant" else ()

    def __call__(self, t: float) -> float:
        return float(self.on(t))

    def on(self, times) -> np.ndarray:
        """Values at a time or an array of times, times.shape + self.shape;
        knot hits of a table return the stored value exactly."""
        t = np.asarray(times, dtype=np.float64)
        if self.kind == "constant":
            return np.full(t.shape + self.shape, self.data[0])
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


def as_coefficient(value) -> Coefficient:
    """Coerce a number or a square matrix to a constant coefficient; pass
    Coefficients through."""
    if isinstance(value, Coefficient):
        return value
    if isinstance(value, (bool, str)):
        raise DomainError(f"cannot interpret {value!r} as a coefficient")
    return Coefficient.constant(value)


def _smallest_eigenvalues(q: np.ndarray) -> np.ndarray:
    """The smallest eigenvalue of the symmetric part of each of a stack of
    d x d matrices; at d = 1 the number itself.  Halved before the sum, so
    the part of a finite matrix is finite."""
    return np.linalg.eigvalsh(0.5 * q + 0.5 * q.swapaxes(1, 2))[:, 0]


_FIELDS = ("A", "B", "sigma", "Q", "D1", "D2")


@dataclass(frozen=True)
class ProblemSpec:
    """Mean-field LQG problem data in dimension d.

    Dynamics  dX = (A(t) X + B(t) u) dt + sigma(t) dW, control cost
    u^T Q(t) u, terminal cost tr(D1 m2) + m1^T D2 m1 at time T.  d is read
    from the shapes: numbers, coefficients of time and 1 x 1 matrices make
    d = 1, where A, B, sigma and Q are Coefficients and D1 and D2 floats; d x d
    matrices everywhere make dimension d, where A, B, sigma and Q are
    constant matrix Coefficients and D1 and D2 symmetric read-only arrays.
    A mix raises DomainError, as does a non-finite number (naming its
    field); a terminal weight that is not symmetric raises AssumptionError.
    """

    A: Coefficient
    B: Coefficient
    sigma: Coefficient
    Q: Coefficient
    D1: float | np.ndarray
    D2: float | np.ndarray
    T: float

    def __post_init__(self):
        for name in _FIELDS:
            try:  # a terminal weight is a number or a matrix, never of time
                coef = (Coefficient.constant if name[0] == "D" else as_coefficient)(
                    getattr(self, name))
            except DomainError as exc:
                raise DomainError(f"{name}: {exc}") from None
            object.__setattr__(self, name, coef)
        object.__setattr__(self, "T", _finite_float("T", self.T))
        if not self.T > 0.0:
            raise AssumptionError(f"horizon T must be positive, got {self.T:.6g}")
        # Each shape is () or (d, d) with d > 1, a 1 x 1 matrix being a number.
        shapes = {name: getattr(self, name).shape for name in _FIELDS}
        if len(set(shapes.values())) > 1:
            raise DomainError("A, B, sigma, Q, D1 and D2 must all be numbers or all "
                              "d x d matrices, got shapes " + ", ".join(
                                  f"{name} {shape}" for name, shape in shapes.items()))
        for name in ("D1", "D2"):
            weight = getattr(self, name).data[0]
            if shapes[name]:
                weight = np.array(weight)
                if not np.allclose(weight, weight.T, rtol=0.0, atol=1e-12):
                    raise AssumptionError(f"terminal weight {name} must be symmetric")
                weight = 0.5 * (weight + weight.T)
                weight.setflags(write=False)
            object.__setattr__(self, name, weight)

    def __eq__(self, other):
        if not isinstance(other, ProblemSpec):
            return NotImplemented
        return ((self.A, self.B, self.sigma, self.Q, self.T)
                == (other.A, other.B, other.sigma, other.Q, other.T)
                and np.array_equal(self.D1, other.D1)
                and np.array_equal(self.D2, other.D2))

    @property
    def d(self) -> int:
        """The dimension of the state."""
        return 1 if isinstance(self.D1, float) else self.D1.shape[0]

    @property
    def knots(self) -> tuple:
        """The knots of the tabulated coefficients, where phi has a kink."""
        return tuple(knot for coef in (self.A, self.B, self.sigma, self.Q)
                     if coef.kind == "table" for knot in coef.data[0])

    def control_weight_on(self, times) -> np.ndarray:
        """Q at each of `times`, (times.size, d, d), checked against
        assumption A1: Q symmetric (to 1e-10) and the smallest eigenvalue of
        its symmetric part > 0, which at d = 1 is Q > 0.  The AssumptionError
        names the first of the times where A1 fails."""
        times = np.ravel(times)
        d = self.d
        q = self.Q.on(times).reshape(-1, d, d)
        lam = _smallest_eigenvalues(q)
        skew = np.abs(q - q.swapaxes(1, 2)).max(axis=(1, 2)) > 1e-10
        bad = np.flatnonzero(skew | ~(lam > 0.0))
        if bad.size:
            k = bad[0]
            t = float(times[k])
            what = (f"Q({t:.6g}) is not symmetric" if skew[k] else
                    f"{'' if d == 1 else 'min eig '}Q({t:.6g}) = {lam[k]:.6g}")
            raise AssumptionError(f"assumption A1 (positive {'' if d == 1 else 'definite '}"
                                  f"control weight) fails: {what}", t)
        return q


@dataclass(frozen=True)
class MeasureMoments:
    """First two moments (m1, m2) of a state law: numbers for a scalar
    state, a d-vector m1 and a d x d matrix m2 = E[X X^T] for a vector one.

    m2 - m1 m1^T must be positive semidefinite up to rounding: the
    constructor tolerates a smallest eigenvalue of -1e-12 * max(1, max|m2|)
    so that empirical moments from large clouds pass.
    """

    m1: float | np.ndarray
    m2: float | np.ndarray

    def __post_init__(self):
        m1, m2 = (np.asarray(v, dtype=np.float64) for v in (self.m1, self.m2))
        for name, v in (("m1", m1), ("m2", m2)):
            object.__setattr__(self, name, float(v) if v.ndim == 0 else v)
        slack = float(np.linalg.eigvalsh(
            np.reshape(m2 - np.multiply.outer(m1, m1), (m1.size, m1.size))).min())
        if slack < -1e-12 * max(1.0, float(np.abs(m2).max())):
            raise DomainError(f"inconsistent moments: m2 - m1^2 = {slack:.3e} < 0")

    @classmethod
    def dirac(cls, x) -> "MeasureMoments":
        x = np.asarray(x, dtype=np.float64)
        return cls(x, np.multiply.outer(x, x))


@dataclass(frozen=True)
class ValidationResult:
    """Verdict on the standing assumptions.  q_min is the smallest control
    weight over every sampled time (the smallest eigenvalue of the
    symmetric part of Q, which at d = 1 is Q itself); None if no time was
    sampled."""

    ok: bool
    message: str
    t_violation: float | None = None
    q_min: float | None = None


def validate_spec(spec: ProblemSpec) -> ValidationResult:
    """Check the standing assumptions of a ProblemSpec.

    A1 (positive definite control weight, ProblemSpec.control_weight_on) is
    checked at 256 equally spaced times including both endpoints, plus every
    time inside (0, T) where a scalar Q can have its minimum: a table knot,
    or the real part of a root of a polynomial's derivative.  The
    coefficients are probed at the endpoints first, so tabulated data
    covering less than [0, T] is reported rather than raising later,
    mid-integration.
    """
    for name in ("A", "B", "sigma", "Q"):
        for t in (0.0, spec.T):
            try:
                getattr(spec, name).on(t)
            except DomainError as exc:
                return ValidationResult(
                    False, f"coefficient {name} not evaluable: {exc}", t
                )
    q = spec.Q
    extra = (np.array(q.data[0]) if q.kind == "table" else
             np.roots([k * c for k, c in enumerate(q.data)][:0:-1]).real
             if q.kind == "poly" else np.empty(0))
    times = np.sort(np.concatenate([np.linspace(0.0, spec.T, 256),
                                    extra[(0.0 < extra) & (extra < spec.T)]]))
    q_min = float(_smallest_eigenvalues(q.on(times).reshape(-1, spec.d, spec.d)).min())
    try:
        spec.control_weight_on(times)
    except AssumptionError as exc:
        return ValidationResult(False, str(exc), exc.time, q_min)
    return ValidationResult(True, "ok", None, q_min)
