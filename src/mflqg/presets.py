"""Built-in worked examples with known closed-form solutions.

example1  fully observed, terminal cost m2          (D1=1, D2=0)
example2  fully observed, terminal cost m1^2        (D1=0, D2=1)
example3  partially observed counterpart of example1
example4  partially observed counterpart of example2

All four use unit coefficients A=0, B=1, Q=1 (and sigma=1 for the fully
observed pair), inside the regime riccati.closed_form covers: the scalar
presets directly, the partial ones through partial_obs.reduced_problem.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .model import ProblemSpec
from .partial_obs import PartialObsSpec

__all__ = ["PRESET_NAMES", "preset", "scalar_preset", "partial_preset"]

PRESET_NAMES = ("example1", "example2", "example3", "example4")

_TERMINAL = {
    "example1": (1.0, 0.0),
    "example2": (0.0, 1.0),
    "example3": (1.0, 0.0),
    "example4": (0.0, 1.0),
}


def scalar_preset(name: str, T: float = 1.0) -> ProblemSpec:
    """Fully observed preset (example1 or example2) on horizon T."""
    if name not in ("example1", "example2"):
        raise DomainError(f"{name!r} is not a fully observed preset")
    d1, d2 = _TERMINAL[name]
    return ProblemSpec(A=0.0, B=1.0, sigma=1.0, Q=1.0, D1=d1, D2=d2, T=T)


def partial_preset(name: str, *, sigma_hat2: float = 0.5, eta_hat2: float = 0.5,
                   s: float = 0.0, x: float = 1.0, T: float = 1.0) -> PartialObsSpec:
    """Partially observed preset (example3 or example4).

    The splits are given as squared weights (sigma_hat2 = sigma_hat^2, etc.)
    so callers can sweep them on an exact grid like {0, 0.25, 0.5, 0.75, 1}.
    """
    if name not in ("example3", "example4"):
        raise DomainError(f"{name!r} is not a partially observed preset")
    if not 0.0 <= sigma_hat2 <= 1.0:
        raise DomainError(f"sigma_hat2 must lie in [0, 1], got {sigma_hat2:.6g}")
    if not 0.0 <= eta_hat2 <= 1.0:
        raise DomainError(f"eta_hat2 must lie in [0, 1], got {eta_hat2:.6g}")
    d1, d2 = _TERMINAL[name]
    return PartialObsSpec(
        sigma_hat=math.sqrt(sigma_hat2),
        sigma_tilde=math.sqrt(1.0 - sigma_hat2),
        eta_hat=math.sqrt(eta_hat2),
        eta_tilde=math.sqrt(1.0 - eta_hat2),
        s=s, x=x, T=T, D1=d1, D2=d2,
    )


def preset(name: str, **overrides):
    """Build a preset by name; returns a ProblemSpec or a PartialObsSpec."""
    if name not in PRESET_NAMES:
        raise DomainError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    if name in ("example3", "example4"):
        return partial_preset(name, **overrides)
    return scalar_preset(name, **overrides)
