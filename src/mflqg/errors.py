"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the domain a function is defined on."""


class AssumptionError(ValueError):
    """A standing model assumption fails (e.g. the control weight is not
    positive), at `time` when the assumption is about one time."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class FiniteEscapeError(RuntimeError):
    """A Riccati solve crossed the divergence threshold, or a backward cost
    coefficient pass turned non-finite."""

    def __init__(self, time: float, component: str = "phi"):
        self.time = float(time)
        self.component = component
        super().__init__(
            f"finite escape detected near t = {time:.6g} ({component} diverged)"
        )


class SimulationDivergedError(RuntimeError):
    """A Monte Carlo run diverged: a particle state, the cost total or its
    standard error, or a recorded m1 or m2 is not finite, or noise is lost in rounding."""


class ConfigError(ValueError):
    """Configuration text could not be parsed."""
