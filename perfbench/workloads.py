"""The benchmark's workloads: the CLI ops of one iteration and their checks.

Each op is one ``mflqg.cli.main(argv)`` call.  ``{seed}`` in an argv is the
benchmark seed, the only way the seed reaches the program; ``{inputs}`` is the
directory holding the benchmark-owned INI files below.  Every workload runs
all three subcommands, so ``solve_s``, ``simulate_s`` and ``verify_s`` are
measured on each of them.

Why these four (see README.md for the numbers behind each):

- mc-full: the particle engine at CLI defaults (1e5 paths x 1000 steps);
  Philox draws and the chunk kernel dominate, and each command re-runs the
  same seeded cloud twice.
- mc-partial: the two-stream partial-observation engine at the same size.
- mc-narrow: the same particle layer used the other way round (2000 paths x
  10 000 steps), where per-step numpy overhead and the 10 001-row
  trajectory.csv dominate.  beta != 0, so the empirical-mean coupling is live.
- deterministic: scalar RK4 loops (Riccati, moment oracle, perturbation
  sweep) and a d=3 matrix Riccati solve; Monte Carlo is small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SCALAR_INI = """\
[problem]
A = -0.3
B = poly 1 0.5
sigma = table 0:1 0.5:0.7 1:0.5
Q = poly 1 0.2
D1 = 1
D2 = 0.5
T = 1
"""

# A is not symmetric, Q = diag(1, 2, 1), D2 != 0.
MATRIX_INI = """\
[matrix_problem]
d = 3
A = -0.2 0.5 0; 0.1 -0.3 0.4; 0 -0.2 0.1
B = 1 0 0; 0 1 0; 0.2 0 1
sigma = 0.6 0 0; 0.1 0.5 0; 0 0.2 0.4
Q = 1 0 0; 0 2 0; 0 0 1
D1 = 1 0 0; 0 1 0; 0 0 1
D2 = 0.5 0.1 0; 0.1 0.3 0; 0 0 0.2
T = 1
"""

INPUT_FILES = {"scalar.ini": SCALAR_INI, "matrix.ini": MATRIX_INI}

# Values of the presets at x = 1 (unit coefficients, T = 1).
EXAMPLE1_VALUE = 0.5 + math.log(2.0)
EXAMPLE2_VALUE = 0.5
EXAMPLE3_VALUE = 1.0 + 0.5 * math.log(2.0)
CLOSED_FORM_TOL = 1e-8


@dataclass(frozen=True)
class Op:
    """One CLI call and what its outputs must show."""

    argv: tuple[str, ...]
    # Closed-form value expected at x = 1: solve's summary value for the
    # first --x, or simulate's oracle total.
    closed_form: float | None = None
    # The one verify check that is known to fail falsely on this op; it is
    # still counted as a failed op (see README.md, "Known false failure").
    known_false_failure: str | None = None
    # argv used by the harness self-test, small enough to run in seconds.
    tiny_argv: tuple[str, ...] | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    def path_steps(self, argv) -> int:
        """Particles x Euler steps a simulate op requests (T = 1 here)."""
        paths = int(_flag(argv, "--paths", 100_000))
        dt = float(_flag(argv, "--dt", 1e-3))
        return paths * int(round(1.0 / dt))


def _flag(argv, name, default):
    argv = list(argv)
    return argv[argv.index(name) + 1] if name in argv else default


def _op(*argv, closed_form=None, known_false_failure=None, tiny=None):
    return Op(tuple(argv), closed_form, known_false_failure,
              tuple(tiny) if tiny is not None else None)


SEED = "{seed}"
TINY_MC = ("--paths", "20000", "--dt", "0.05")
# A preset solve takes about 25 ms, too short to time alone above the
# machine's noise.  So the preset workloads issue it in three groups of this
# size, before simulate, between simulate and verify, and after verify: one
# burst of noise then cannot decide solve_s.
SOLVE_GROUP = 5


def _around(solve: Op, simulate: Op, verify: Op) -> tuple[Op, ...]:
    group = (solve,) * SOLVE_GROUP
    return (*group, simulate, *group, verify, *group)


WORKLOADS: dict[str, tuple[Op, ...]] = {
    "mc-full": _around(
        _op("solve", "--preset", "example1", "--x", "1",
            closed_form=EXAMPLE1_VALUE),
        _op("simulate", "--preset", "example1", "--seed", SEED,
            closed_form=EXAMPLE1_VALUE,
            tiny=("simulate", "--preset", "example1", "--seed", SEED) + TINY_MC),
        _op("verify", "--preset", "example1", "--seed", SEED,
            tiny=("verify", "--preset", "example1", "--seed", SEED) + TINY_MC),
    ),
    "mc-partial": _around(
        _op("solve", "--preset", "example3", "--x", "1",
            closed_form=EXAMPLE3_VALUE),
        _op("simulate", "--preset", "example3", "--seed", SEED,
            closed_form=EXAMPLE3_VALUE,
            tiny=("simulate", "--preset", "example3", "--seed", SEED) + TINY_MC),
        _op("verify", "--preset", "example3", "--seed", SEED,
            tiny=("verify", "--preset", "example3", "--seed", SEED) + TINY_MC),
    ),
    "mc-narrow": _around(
        _op("solve", "--preset", "example2", "--x", "1",
            closed_form=EXAMPLE2_VALUE),
        _op("simulate", "--preset", "example2", "--paths", "2000",
            "--dt", "1e-4", "--seed", SEED, closed_form=EXAMPLE2_VALUE,
            tiny=("simulate", "--preset", "example2", "--paths", "200",
                  "--dt", "1e-3", "--seed", SEED)),
        # At 2000 paths the skewness noise exceeds the Gaussianity band, so
        # verify runs at 50 000 paths on a coarser step.
        _op("verify", "--preset", "example2", "--paths", "50000",
            "--dt", "0.01", "--seed", SEED,
            tiny=("verify", "--preset", "example2", "--seed", SEED) + TINY_MC),
    ),
    "deterministic": (
        _op("solve", "--config", "{inputs}/scalar.ini", "--x", "0", "--x", "1"),
        _op("solve", "--config", "{inputs}/matrix.ini", "--steps", "4000",
            tiny=("solve", "--config", "{inputs}/matrix.ini", "--steps", "200")),
        _op("simulate", "--config", "{inputs}/scalar.ini", "--paths", "50000",
            "--dt", "0.01", "--seed", SEED,
            tiny=("simulate", "--config", "{inputs}/scalar.ini", "--seed",
                  SEED) + TINY_MC),
        _op("verify", "--config", "{inputs}/scalar.ini", "--paths", "50000",
            "--dt", "0.01", "--seed", SEED, known_false_failure="residual-sweep",
            tiny=("verify", "--config", "{inputs}/scalar.ini", "--seed",
                  SEED) + TINY_MC),
    ),
}

# Appended by the self-test to every iteration: a missing --config file must
# exit with code 6 and count as a failed op.
FORCED_FAILURE = _op("solve", "--config", "{inputs}/missing.ini")
