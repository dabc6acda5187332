"""Mutation tests of the checks a matrix problem's verify runs.

Each mutant is one exact text substitution in a copy of src/mflqg; the
mutated package runs ``verify --config matrix.ini`` (the benchmark's d = 3
problem, non-symmetric A) in its own process, and the named check must
fail.  A substitution whose text no longer occurs fails the test, so a
refactor that moves the code must move the mutant with it.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import MATRIX_INI  # noqa: E402

MUTANTS = {
    # A for A^T in the phi1 slopes of phi3's Hermite midpoints: phi1 and
    # phi2 stay right and so does the residual's tolerance, but phi3(0) no
    # longer equals the optimal law's cost constant.
    "hermite-slope": ("riccati.py",
                      "slope = p1 @ m[nd] @ p1 - a[nd].swapaxes(1, 2) @ p1 - p1 @ a[nd]",
                      "slope = p1 @ m[nd] @ p1 - a[nd] @ p1 - p1 @ a[nd]",
                      "oracle-vs-value"),
    # -A for -A^T in the step matrices: Y' = -A Y makes phi1 = Y X^{-1}
    # lose its symmetry.
    "step-matrix": ("riccati.py",
                    "-m[sl], -a[sl].swapaxes(1, 2)",
                    "-m[sl], -a[sl]",
                    "symmetry"),
    # The sign of the 2 A phi1 term (A^T phi1 + phi1 A at d > 1) of the
    # residual's phi1 operator.
    "residual-drift": ("control.py",
                       "l1 = d1 - p1 @ m @ p1 + (at @ p1 + p1 @ a)",
                       "l1 = d1 - p1 @ m @ p1 - (at @ p1 + p1 @ a)",
                       "residual-sweep"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_fails_its_check(name, tmp_path):
    module, old, new, check = MUTANTS[name]
    shutil.copytree(ROOT / "src" / "mflqg", tmp_path / "src" / "mflqg",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "mflqg" / module
    text = path.read_text()
    assert text.count(old) == 1, f"{name}: the mutated text no longer occurs once"
    path.write_text(text.replace(old, new))
    (tmp_path / "matrix.ini").write_text(MATRIX_INI)
    proc = subprocess.run(
        [sys.executable, "-m", "mflqg.cli", "verify", "--config", "matrix.ini",
         "--out", "out"], cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(tmp_path / "src"),
                 PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    checks = {c["name"]: c for c in
              json.loads((tmp_path / "out" / "verify.json").read_text())["checks"]}
    assert not checks[check]["passed"], checks[check]
