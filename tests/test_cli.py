import json
import math
import re
import time

import pytest

import mflqg.cli
import mflqg.partial_obs
import mflqg.riccati
import mflqg.simulate
from mflqg import FeedbackLaw, optimal_feedback
from mflqg.cli import RunManifest, main

SCALAR_CFG = """
[problem]
A = 0.0
B = 1.0
sigma = 1.0
Q = 1.0
D1 = 1.0
D2 = 0.0
T = 1.0
"""

BAD_Q_CFG = SCALAR_CFG.replace("Q = 1.0", "Q = -1.0")
ESCAPE_CFG = SCALAR_CFG.replace("D1 = 1.0", "D1 = -2.0")

MATRIX_CFG = """
[matrix_problem]
d = 2
A = 0 0; 0 0
B = 1 0; 0 1
sigma = 1 0; 0 1
Q = 1 0; 0 1
D1 = 1 0; 0 1
D2 = 0 0; 0 0
T = 1.0
"""

PARTIAL_CFG = """
[partial_obs]
sigma_hat = 0.6
sigma_tilde = 0.8
eta_hat = 0.8
eta_tilde = 0.6
s = 0.25
x = 1.0
T = 1.0
D1 = 0.8
D2 = 0.4
"""

# The check lists README.md documents for verify: every kind shares the
# assumptions -> terminal-exactness prefix, then runs its own checks.
PREFIX = ["assumptions", "terminal-exactness"]
SCALAR_CHECKS = PREFIX + ["residual-sweep", "value-consistency",
                          "oracle-vs-value", "perturbation-margin",
                          "mc-vs-oracle", "gaussianity"]
PRESET_CHECKS = PREFIX + ["analytic-phi"] + SCALAR_CHECKS[2:]
PARTIAL_CHECKS = PRESET_CHECKS + ["cost-decomposition"]
MATRIX_CHECKS = PREFIX + ["symmetry", "grid-refinement"]

SIM_CFG = SCALAR_CFG + """
[simulation]
n_paths = 777
dt = 0.01
seed = 5
"""


def _not_json(constant):
    raise ValueError(f"{constant} is not a JSON number")


def read_json(path):
    # Strict JSON: NaN and Infinity, which json.dump writes by default, are
    # no JSON numbers.
    with open(path) as fh:
        return json.load(fh, parse_constant=_not_json)


def test_solve_preset_writes_outputs(tmp_path):
    rc = main(["solve", "--preset", "example1", "--x", "1", "--x", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    for name in ("phi.csv", "gains.csv", "summary.json", "manifest.json"):
        assert (tmp_path / name).exists()
    summary = read_json(tmp_path / "summary.json")
    assert summary["kind"] == "scalar"
    assert summary["steps"] == 1000
    values = {v["x"]: v["value"] for v in summary["values"]}
    assert values[1.0] == pytest.approx(0.5 + math.log(2.0), abs=1e-9)
    assert values[2.0] == pytest.approx(2.0 + math.log(2.0), abs=1e-9)
    assert (tmp_path / "phi.csv").read_text().splitlines()[0] == "t,phi1,phi2,phi3"
    assert (tmp_path / "gains.csv").read_text().splitlines()[0] == "t,alpha,beta"


def test_solve_steps_override(tmp_path):
    rc = main(["solve", "--preset", "example2", "--steps", "200",
               "--out", str(tmp_path)])
    assert rc == 0
    assert read_json(tmp_path / "summary.json")["steps"] == 200


def test_solve_partial_preset(tmp_path):
    rc = main(["solve", "--preset", "example3", "--out", str(tmp_path)])
    assert rc == 0
    summary = read_json(tmp_path / "summary.json")
    assert summary["kind"] == "partial_obs"
    assert summary["error_compensation"] == pytest.approx(0.5)
    # phi1(0) x^2 + sigma_hat^2 log 2 + D1 P_T with the default even split
    assert summary["values"][0]["value"] == pytest.approx(
        1.0 + 0.5 * math.log(2.0), abs=1e-9)


def test_solve_matrix_config(tmp_path):
    cfg = tmp_path / "matrix.ini"
    cfg.write_text(MATRIX_CFG)
    rc = main(["solve", "--config", str(cfg), "--x", "1,1",
               "--out", str(tmp_path)])
    assert rc == 0
    summary = read_json(tmp_path / "summary.json")
    assert summary["kind"] == "matrix" and summary["d"] == 2
    # two decoupled unit problems: x' Phi1 x = 2 * 1/(1+T), phi3 = 2 log(1+T)
    assert summary["values"][0]["value"] == pytest.approx(
        1.0 + 2.0 * math.log(2.0), abs=1e-9)
    # Without --x a matrix problem is solved from ones.
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    summary = read_json(tmp_path / "summary.json")
    assert [v["x"] for v in summary["values"]] == [[1.0, 1.0]]
    assert read_json(tmp_path / "manifest.json")["params"]["x"] == [1.0, 1.0]


def test_solve_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--preset", "example1", "--out", str(a)]) == 0
    assert main(["solve", "--preset", "example1", "--out", str(b)]) == 0
    for name in ("phi.csv", "gains.csv", "summary.json", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# A time-varying scalar problem and a d = 3 matrix problem with a
# non-symmetric A and D2 != 0.
TIME_VARYING_CFG = """
[problem]
A = -0.3
B = poly 1 0.5
sigma = table 0:1 0.5:0.7 1:0.5
Q = poly 1 0.2
D1 = 1
D2 = 0.5
T = 1
"""

MATRIX_D3_CFG = """
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


def test_reruns_in_one_process_write_the_same_bytes(tmp_path, capsys):
    # Repeated main() calls in one interpreter must not leak state (a
    # stacked buffer, a tabulated factor) from one call into the next.
    scalar, matrix = tmp_path / "scalar.ini", tmp_path / "matrix.ini"
    scalar.write_text(TIME_VARYING_CFG)
    matrix.write_text(MATRIX_D3_CFG)
    ops = {
        "matrix": ["solve", "--config", str(matrix), "--steps", "4000"],
        "scalar": ["solve", "--config", str(scalar), "--x", "0", "--x", "1"],
        "verify": ["verify", "--config", str(scalar), "--paths", "500",
                   "--dt", "0.05", "--seed", "3"],
    }
    codes = {}
    for run in ("a", "b"):
        for name, argv in ops.items():
            codes[run, name] = main(argv + ["--out", str(tmp_path / run / name)])
    capsys.readouterr()
    for name in ops:
        assert codes["a", name] == codes["b", name]
        a, b = tmp_path / "a" / name, tmp_path / "b" / name
        files = sorted(f.name for f in a.iterdir())
        assert files == sorted(f.name for f in b.iterdir())
        for f in files:
            assert (a / f).read_bytes() == (b / f).read_bytes(), (name, f)
    assert codes["a", "matrix"] == codes["a", "scalar"] == 0


def test_manifest_shape(tmp_path):
    main(["solve", "--preset", "example1", "--out", str(tmp_path)])
    raw = read_json(tmp_path / "manifest.json")
    assert set(raw) == {"command", "source", "params", "outputs", "version"}
    manifest = RunManifest.read(tmp_path / "manifest.json")
    assert manifest.command == "solve"
    assert manifest.source == "preset:example1"
    assert manifest.outputs["summary"] == "summary.json"


def test_simulate_scalar(tmp_path):
    rc = main(["simulate", "--preset", "example1", "--paths", "2000",
               "--dt", "0.005", "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    summary = read_json(tmp_path / "summary.json")
    assert summary["within_threshold"] is True
    assert summary["discrepancy"] <= summary["threshold"]
    assert summary["n_paths"] == 2000
    assert (tmp_path / "trajectory.csv").read_text().splitlines()[0] == "t,m1,m2"


def test_simulate_partial(tmp_path):
    rc = main(["simulate", "--preset", "example3", "--paths", "2000",
               "--dt", "0.005", "--out", str(tmp_path)])
    assert rc == 0
    summary = read_json(tmp_path / "summary.json")
    assert summary["kind"] == "partial_obs"
    assert summary["within_threshold"] is True
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,P_t,m1_hat,m2_hat,m2"


def test_simulate_oracle_block_has_one_shape(tmp_path):
    # A partial oracle includes D1 P_T and reports the keys a scalar one does.
    keys = []
    for name in ("example1", "example3"):
        rc = main(["simulate", "--preset", name, "--paths", "200", "--dt", "0.05",
                   "--seed", "3", "--out", str(tmp_path / name)])
        assert rc == 0
        summary = read_json(tmp_path / name / "summary.json")
        keys.append(sorted(summary["oracle"]))
        assert summary["discrepancy"] == abs(summary["mc"]["total"]
                                             - summary["oracle"]["total"])
    assert keys[0] == keys[1]
    assert keys[0] == ["n_paths", "running", "std_error", "terminal", "total"]


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--preset", "example1", "--paths", "2000",
            "--dt", "0.005", "--seed", "11"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


def test_simulate_accepts_a_large_finite_state(tmp_path):
    # m2 starts at x^2 = 1e14, past the Riccati's divergence bound; the
    # moment oracle must still price it, and agree with solve's value.
    args = ["--preset", "example1", "--x", "1e7"]
    assert main(["solve", *args, "--out", str(tmp_path / "solve")]) == 0
    assert main(["simulate", *args, "--paths", "100", "--dt", "0.1",
                 "--out", str(tmp_path / "sim")]) == 0
    value = read_json(tmp_path / "solve" / "summary.json")["values"][0]["value"]
    oracle = read_json(tmp_path / "sim" / "summary.json")["oracle"]["total"]
    assert oracle == pytest.approx(value, rel=1e-9)


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("x, paths", [("1e153", "100"), ("1e100", "20000")])
def test_overflowing_monte_carlo_statistic_is_a_divergence(tmp_path, capsys,
                                                           command, x, paths):
    # At 1e153 the spread of D1 x^2 overflows.  At 1e100 the noise is lost
    # in rounding and every path is equal, but the variance squares the
    # rounding error of the mean (about 3e183).  An infinite std_error
    # would make an infinite mc-vs-oracle band, which cannot fail.
    rc = main([command, "--preset", "example1", "--x", x, "--paths", paths,
               "--dt", "0.1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 5
    assert err == (f"error: divergence: Monte Carlo std_error from x = "
                   f"{float(x)!r} is inf, not finite\n")
    for name in ("summary.json", "trajectory.csv", "verify.json", "manifest.json"):
        assert not (tmp_path / name).exists(), name


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_state_near_the_float_range_is_a_monte_carlo_divergence(tmp_path, capsys,
                                                               command):
    # At x = 1e154 the oracle's cost is the finite 5.0e307 that solve gives,
    # since no moment is integrated.  The particles' sum of x^2 overflows:
    # that is the Monte Carlo run's divergence, on one line of stderr.
    # With fewer than 8 paths the total and its std_error stay finite, but
    # the recorded m2 is inf: that too is a divergence, not a trajectory.csv.
    for paths, stat in (("100", "total from x = 1e+154 is inf"),
                        ("4", "m2 from x = 1e+154 reaches inf")):
        out = tmp_path / paths
        rc = main([command, "--preset", "example1", "--x", "1e154", "--paths",
                   paths, "--dt", "0.1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 5
        assert err == f"error: divergence: Monte Carlo {stat}, not finite\n"
        for name in ("summary.json", "trajectory.csv", "verify.json",
                     "manifest.json"):
            assert not (out / name).exists(), name


def test_manifests_record_what_decides_the_mc_bytes(tmp_path):
    import numpy as np

    layout = {"bit_generator": "Philox", "block_rows": 25, "chunk_rows": 500,
              "numpy": np.__version__}
    for command in ("simulate", "verify"):
        out = tmp_path / command
        main([command, "--preset", "example1", "--paths", "2000", "--dt", "0.01",
              "--seed", "3", "--out", str(out)])
        params = read_json(out / "manifest.json")["params"]
        assert {k: params[k] for k in layout} == layout
    cfg = tmp_path / "matrix.ini"
    cfg.write_text(MATRIX_CFG)
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert "block_rows" not in read_json(tmp_path / "manifest.json")["params"]


def test_simulate_sim_settings_from_config(tmp_path):
    cfg = tmp_path / "sim.ini"
    cfg.write_text(SIM_CFG)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    summary = read_json(tmp_path / "summary.json")
    assert (summary["n_paths"], summary["dt"], summary["seed"]) == (777, 0.01, 5)
    rc = main(["simulate", "--config", str(cfg), "--paths", "123",
               "--out", str(tmp_path)])
    assert rc == 0
    assert read_json(tmp_path / "summary.json")["n_paths"] == 123


def test_simulate_rejects_matrix_problems(tmp_path, capsys):
    cfg = tmp_path / "matrix.ini"
    cfg.write_text(MATRIX_CFG)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: argument:")
    # The kind is refused before --x is parsed, so a scalar --x (wrong
    # dimension here) still reads as the refusal.
    for extra in ([], ["--x", "1"]):
        rc = main(["simulate", "--config", str(cfg), *extra, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == ("error: argument: simulate supports "
                                           "scalar and partial_obs problems\n")


def test_verify_scalar_config(tmp_path, capsys):
    cfg = tmp_path / "problem.ini"
    cfg.write_text(SCALAR_CFG)
    rc = main(["verify", "--config", str(cfg), "--paths", "20000",
               "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert all(ln.startswith("[PASS]") for ln in lines)
    names = [ln.split("]")[1].split(":")[0].strip() for ln in lines]
    assert {"assumptions", "terminal-exactness", "residual-sweep",
            "value-consistency", "oracle-vs-value", "perturbation-margin",
            "mc-vs-oracle", "gaussianity"} <= set(names)
    assert "analytic-phi" not in names  # closed forms are checked on presets
    assert names == SCALAR_CHECKS
    payload = read_json(tmp_path / "verify.json")
    assert payload["passed"] is True
    margin = next(c for c in payload["checks"]
                  if c["name"] == "perturbation-margin")
    assert 0.0 < margin["measured"] < margin["threshold"] == 0.2
    assert "smallest margin" in margin["detail"]
    assert read_json(tmp_path / "manifest.json")["params"]["steps"] == 1000


def test_verify_partial_uses_first_x(tmp_path, capsys):
    rc = main(["verify", "--preset", "example3", "--x", "2", "--paths", "50000",
               "--dt", "0.01", "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    checks = {c["name"]: c for c in read_json(tmp_path / "verify.json")["checks"]}
    value = float(checks["value-consistency"]["detail"].split()[1].rstrip(","))
    # x^2 phi1(0) + sigma_hat^2 log 2 + D1 P_T with phi1(0) = 1/2
    assert value == pytest.approx(2.0 + 0.5 * math.log(2.0) + 0.5, abs=1e-8)


def test_verify_matrix_config(tmp_path, capsys):
    cfg = tmp_path / "matrix.ini"
    cfg.write_text(MATRIX_CFG)
    rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] symmetry" in out and "[PASS] grid-refinement" in out
    payload = read_json(tmp_path / "verify.json")
    assert payload["kind"] == "matrix"
    assert [c["name"] for c in payload["checks"]] == MATRIX_CHECKS


def test_verify_reports_failed_assumptions(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(BAD_Q_CFG)
    rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL] assumptions" in out
    assert "CHECKS FAILED" in out


# Q is negative only between sample points of a 256-point grid: on
# (0.50005, 0.5001) at a table knot, or on (0.5001, 0.5003) around the
# critical point 0.5002 of a quadratic.
DIPPING_Q = [SCALAR_CFG.replace("Q = 1.0", f"Q = {q}") for q in (
    "table 0:1 0.5:1 0.50005:-1 0.5001:1 1:1", "poly 0.25020003 -1.0004 1")]


@pytest.mark.parametrize("text", DIPPING_Q, ids=["table", "poly"])
def test_assumptions_see_q_between_sample_points(tmp_path, capsys, text):
    # The check samples Q where its minimum can lie, so verify fails
    # assumptions at any step count, before a solve can hit the dip
    # mid-battery, and solve refuses the problem.
    cfg = tmp_path / "dip.ini"
    cfg.write_text(text)
    for steps in ([], ["--steps", "10000"]):
        out = tmp_path / f"verify{len(steps)}"
        rc = main(["verify", "--config", str(cfg), "--out", str(out), *steps])
        assert rc == 1
        assert "[FAIL] assumptions" in capsys.readouterr().out
        assumptions, = read_json(out / "verify.json")["checks"]
        assert not assumptions["passed"] and assumptions["measured"] <= 0.0
        read_json(out / "manifest.json")
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "solve")])
    assert rc == 4
    assert capsys.readouterr().err.startswith("error: validation: assumption A1")


def test_verify_entries_carry_measured_values(tmp_path, capsys):
    # No check writes a placeholder 0.0/0.0: assumptions reads the smallest
    # Q against 0, terminal-exactness the terminal gap against its exact
    # tolerance, and a noise-free cloud its variance against the floor.
    def checks(text, *extra):
        cfg = tmp_path / "p.ini"
        cfg.write_text(text)
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        main(["verify", "--config", str(cfg), "--out", str(out), *extra])
        capsys.readouterr()
        return {c["name"]: c for c in read_json(out / "verify.json")["checks"]}

    still = checks(SCALAR_CFG.replace("sigma = 1.0", "sigma = 0.0").replace(
        "Q = 1.0", "Q = 2.0"), "--paths", "200", "--dt", "0.01")
    assert (still["assumptions"]["measured"], still["assumptions"]["threshold"]) == (2.0, 0.0)
    assert (still["terminal-exactness"]["measured"],
            still["terminal-exactness"]["threshold"]) == (0.0, 0.0)
    gauss = still["gaussianity"]
    assert gauss["passed"] and gauss["threshold"] == 1e-18
    assert 0.0 <= gauss["measured"] < gauss["threshold"]
    assert "degenerate" in gauss["detail"]

    bad = checks(BAD_Q_CFG)["assumptions"]
    assert not bad["passed"] and bad["measured"] == -1.0
    matrix = checks(MATRIX_CFG.replace("Q = 1 0; 0 1", "Q = 3 0; 0 0.5"))
    assert matrix["assumptions"]["measured"] == 0.5
    assert matrix["terminal-exactness"]["measured"] == 0.0


def test_gaussianity_records_the_statistic_that_decides():
    # measured and threshold agree with the verdict: a symmetric
    # heavy-tailed cloud (no skew, excess kurtosis 1.24) fails on its
    # kurtosis, a two-point cloud with p (1 - p) = 1/6 (skew 1.41, excess
    # kurtosis near 0) on its skew, and a passing cloud records the
    # statistic nearer its band.
    import numpy as np

    heavy = np.concatenate([np.full(900, 1.0), np.full(100, 4.0)])
    heavy = np.concatenate([heavy, -heavy])
    lopsided = np.concatenate([np.full(2113, 1.0), np.full(7887, 0.0)])
    normal = np.random.Generator(np.random.Philox(7)).standard_normal(200_000)
    for states, ok, threshold in ((heavy, False, 0.1), (lopsided, False, 0.05),
                                  (normal, True, None)):
        check = mflqg.cli._gaussianity_entry(states)
        assert check.passed is ok
        assert (check.measured < check.threshold) is ok
        if threshold is not None:
            assert check.threshold == threshold
    heavy_check = mflqg.cli._gaussianity_entry(heavy)
    assert heavy_check.measured == pytest.approx(1.24)
    assert "skew 0.0000" in heavy_check.detail


@pytest.mark.parametrize("text, measured", [
    (MATRIX_CFG.replace("Q = 1 0; 0 1", "Q = 1 0.5; 0 1"), pytest.approx(0.75)),
    (SCALAR_CFG.replace("sigma = 1.0", "sigma = table 0:1 0.5:1"), None)],
    ids=["asymmetric-Q", "short-sigma-table"])
def test_unmeasured_assumptions_write_strict_json(tmp_path, capsys, text,
                                                  measured):
    # Q is not symmetric: the smallest eigenvalue of its symmetric part is
    # still recorded.  sigma does not cover [0, T]: Q is never measured.
    cfg = tmp_path / "p.ini"
    cfg.write_text(text)
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    capsys.readouterr()
    read_json(tmp_path / "manifest.json")
    assumptions = read_json(tmp_path / "verify.json")["checks"][0]
    assert assumptions["name"] == "assumptions" and not assumptions["passed"]
    assert assumptions["measured"] == measured


def test_verify_all_presets_pass(tmp_path, capsys):
    start = time.monotonic()
    names = {}
    for name in ("example1", "example2", "example3", "example4"):
        rc = main(["verify", "--preset", name, "--out", str(tmp_path / name)])
        out = capsys.readouterr().out
        assert rc == 0, f"{name} failed:\n{out}"
        assert "all checks passed" in out
        payload = read_json(tmp_path / name / "verify.json")
        names[name] = [c["name"] for c in payload["checks"]]
    assert time.monotonic() - start < 300.0
    # One battery: a partially observed problem runs the scalar checks on
    # its reduced problem, in the same order, plus the cost decomposition.
    scalar = names["example1"]
    assert names["example2"] == scalar
    assert "perturbation-margin" in scalar and "value-consistency" in scalar
    for partial in ("example3", "example4"):
        assert names[partial] == scalar + ["cost-decomposition"]
    assert scalar == PRESET_CHECKS
    assert names["example3"] == names["example4"] == PARTIAL_CHECKS


@pytest.mark.parametrize("name", ["example1", "example3"])
def test_verify_is_deterministic(tmp_path, capsys, name):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["verify", "--preset", name, "--paths", "2000", "--dt", "0.05",
            "--seed", "11"]
    assert main(args + ["--out", str(a)]) in (0, 1)
    assert main(args + ["--out", str(b)]) in (0, 1)
    capsys.readouterr()
    for out_file in ("verify.json", "residual.csv", "manifest.json"):
        assert (a / out_file).read_bytes() == (b / out_file).read_bytes()


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("name", ["example1", "example3"])
def test_each_command_simulates_once(tmp_path, monkeypatch, capsys, command, name):
    # Every Monte Carlo result of one command comes from one seeded particle
    # cloud; a partially observed problem runs it on the reduced problem.
    calls = []
    original = mflqg.simulate.evolve_cloud

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in (mflqg.cli, mflqg.simulate, mflqg.partial_obs):
        if getattr(module, "evolve_cloud", None) is original:
            monkeypatch.setattr(module, "evolve_cloud", counted)
    rc = main([command, "--preset", name, "--paths", "2000", "--dt", "0.05",
               "--seed", "3", "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc in (0, 1)
    assert len(calls) == 1, calls


@pytest.mark.parametrize("name", ["example1", "example3"])
def test_verify_makes_few_moment_passes(tmp_path, monkeypatch, capsys, name):
    # One coefficient pass serves every oracle check, however many --x are
    # given: the refined-grid law under the zero offset and 16
    # perturbations, and mc-vs-oracle's working law.  The batch the CLI
    # calls looks _coefficient_pass up in mflqg.simulate.
    assert mflqg.cli.cost_coefficients is mflqg.simulate.cost_coefficients
    calls = []
    original = mflqg.simulate._coefficient_pass

    def counted(spec, laws, *args, **kwargs):
        calls.append(len(laws))
        return original(spec, laws, *args, **kwargs)

    monkeypatch.setattr(mflqg.simulate, "_coefficient_pass", counted)
    for xs in ([], ["--x", "0.5"], ["--x", "0", "--x", "2", "--x", "-3"]):
        rc = main(["verify", "--preset", name, "--paths", "2000", "--dt",
                   "0.05", "--seed", "3", "--out", str(tmp_path), *xs])
        capsys.readouterr()
        assert rc in (0, 1)
        assert calls == [17 + 1]
        calls.clear()


def test_value_bands_allow_for_rounding_at_large_values(tmp_path, capsys):
    # At x = 1e7 the value is 5e13, one ulp of which is 7.8e-3: the absolute
    # band of value-consistency would ask for less than an ulp, so it has a
    # floor relative to the value.  oracle-vs-value compares cost
    # coefficients, which do not grow with x; the bound it implies on
    # |oracle - value| at x, band (2 x^2 + 1), is still no wider than the
    # former max(1e-5, 1e-11 |v|).
    rc = main(["verify", "--preset", "example1", "--x", "1e7", "--paths", "100",
               "--dt", "0.1", "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc in (0, 1)
    checks = {c["name"]: c for c in read_json(tmp_path / "verify.json")["checks"]}
    consistency = checks["value-consistency"]
    assert consistency["passed"], consistency
    assert 1e-6 < consistency["measured"] <= consistency["threshold"]
    oracle = checks["oracle-vs-value"]
    assert oracle["passed"], oracle
    assert oracle["measured"] <= oracle["threshold"]
    value = 0.5e14 + math.log(2.0)
    assert oracle["threshold"] * (2e14 + 1.0) <= max(1e-5, 1e-11 * value)


def test_oracle_vs_value_catches_a_gain_missing_its_q(tmp_path, monkeypatch,
                                                     capsys):
    # beta = -B phi2 without the division by Q: on a problem with Q != 1
    # the oracle cost of that law misses the value by about 2e-4.
    def mutant(spec, sol):
        law = optimal_feedback(spec, sol)
        return FeedbackLaw(grid=law.grid, alpha=law.alpha,
                           beta=-spec.B.on(sol.grid) * sol.phi2)

    monkeypatch.setattr(mflqg.cli, "optimal_feedback", mutant)
    cfg = tmp_path / "scalar.ini"
    cfg.write_text(TIME_VARYING_CFG)
    main(["verify", "--config", str(cfg), "--paths", "2000", "--dt", "0.05",
          "--seed", "3", "--out", str(tmp_path)])
    capsys.readouterr()
    check = next(c for c in read_json(tmp_path / "verify.json")["checks"]
                 if c["name"] == "oracle-vs-value")
    assert not check["passed"]
    assert check["threshold"] <= 1e-11 < 1e-4 < check["measured"]


def test_oracle_vs_value_catches_a_flipped_riccati_sign(tmp_path, monkeypatch,
                                                       capsys):
    # phi1' with +2 A phi1 for -2 A phi1: on a problem with A = -0.3 the
    # solution is no longer the value of its own feedback law, which the
    # cost coefficients of that law show.
    original = mflqg.riccati._riccati_derivs

    def mutant(a, r, s2, p1, p2):
        d1, d2, d3 = original(a, r, s2, p1, p2)
        return r * p1 * p1 + 2.0 * a * p1, d2, d3

    monkeypatch.setattr(mflqg.riccati, "_riccati_derivs", mutant)
    cfg = tmp_path / "scalar.ini"
    cfg.write_text(TIME_VARYING_CFG)
    main(["verify", "--config", str(cfg), "--paths", "2000", "--dt", "0.05",
          "--seed", "3", "--out", str(tmp_path)])
    capsys.readouterr()
    check = next(c for c in read_json(tmp_path / "verify.json")["checks"]
                 if c["name"] == "oracle-vs-value")
    assert not check["passed"]
    assert check["measured"] > 1e6 * check["threshold"]


def test_report_merges_runs(tmp_path, capsys):
    solve_dir = tmp_path / "solve"
    sim_dir = tmp_path / "sim"
    main(["solve", "--preset", "example1", "--out", str(solve_dir)])
    main(["simulate", "--preset", "example1", "--paths", "2000",
          "--dt", "0.005", "--out", str(sim_dir)])
    capsys.readouterr()
    rc = main(["report", str(solve_dir / "manifest.json"),
               str(sim_dir / "manifest.json"), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "source,command,value,mc_total,std_error,status"
    assert len(lines) == 3
    assert lines[1].startswith("preset:example1,solve,")
    assert lines[2].split(",")[-1] == "ok"
    assert out.splitlines()[0].startswith("source")


def test_exit_code_argument_errors(tmp_path, capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["solve"]) == 2          # --preset/--config required
    capsys.readouterr()
    assert main(["solve", "--preset", "nope"]) == 2
    capsys.readouterr()
    rc = main(["solve", "--preset", "example1", "--x", "abc",
               "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: argument:")
    assert list(tmp_path.iterdir()) == []    # bad args leave no partial outputs
    # A state whose square overflows would give an infinite value.
    for bad in ("nan", "inf", "-inf", "1e200"):
        rc = main(["solve", "--preset", "example1", "--x", bad,
                   "--out", str(tmp_path)])
        assert rc == 2, bad
        assert capsys.readouterr().err.startswith("error: argument:")
    assert list(tmp_path.iterdir()) == []
    # verify parses --x for a matrix problem too, as d numbers each.
    cfg = tmp_path / "matrix.ini"
    cfg.write_text(MATRIX_CFG)
    out = tmp_path / "out"
    for bad in ("abc", "1"):
        rc = main(["verify", "--config", str(cfg), "--x", bad, "--out", str(out)])
        assert rc == 2, bad
        assert capsys.readouterr().err.startswith("error: argument: --x"), bad
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_too_few_paths_rejected(tmp_path, capsys, command):
    # With one path the standard error is zero and the band is all bias.  A
    # negative seed is refused by name, before any solve.
    for flags, name, value in ((("--paths", "1", "--seed", "3"), "n_paths", "1"),
                               (("--paths", "2", "--seed", "-1"), "seed", "-1")):
        rc = main([command, "--preset", "example1", "--dt", "0.1", *flags,
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: argument:") and name in err
        cfg = tmp_path / "bad_sim.ini"
        cfg.write_text(re.sub(rf"^{name} = .*$", f"{name} = {value}", SIM_CFG,
                              flags=re.M))
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: argument:") and name in err


def test_exit_code_config_error(tmp_path, capsys):
    cfg = tmp_path / "broken.ini"
    cfg.write_text("[problem]\nA = 0\n")
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: config:")
    # Non-finite numbers are refused at parse time, not reported later as a
    # finite escape.
    for bad in (SCALAR_CFG.replace("A = 0.0", "A = nan"),
                SCALAR_CFG.replace("D1 = 1.0", "D1 = inf")):
        cfg.write_text(bad)
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: config:")
    # Nor is a state whose square overflows reported as an infinite value.
    cfg.write_text(PARTIAL_CFG.replace("x = 1.0", "x = 1e200"))
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: config: [partial_obs] x:")


def test_exit_code_validation_error(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(BAD_Q_CFG)
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith("error: validation:")
    assert "assumption A1" in err


def test_exit_code_finite_escape(tmp_path, capsys):
    cfg = tmp_path / "escape.ini"
    cfg.write_text(ESCAPE_CFG)
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 5
    assert err.startswith("error: escape:")
    assert "finite escape" in err


def test_exit_code_io_errors(tmp_path, capsys):
    rc = main(["solve", "--config", str(tmp_path / "absent.ini"),
               "--out", str(tmp_path)])
    assert rc == 6
    capsys.readouterr()
    # Not JSON, or JSON that is no run manifest (no command or source): a
    # bad input file, not a failed check with a traceback.
    garbage = tmp_path / "manifest.json"
    for text in ("{not json", "{}", '{"command": "solve"}',
                 '{"source": "preset:example1"}', "[]"):
        garbage.write_text(text)
        rc = main(["report", str(garbage), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 6, text
        assert err.startswith("error: io:") and err.count("\n") == 1, text
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("summary", ["{}", '{"oracle": {}}', "[]",
                                     '{"oracle": [], "mc": {}}'])
def test_report_refuses_a_malformed_summary(tmp_path, capsys, summary):
    sim_dir = tmp_path / "sim"
    main(["simulate", "--preset", "example1", "--paths", "200", "--dt", "0.05",
          "--out", str(sim_dir)])
    (sim_dir / "summary.json").write_text(summary)
    capsys.readouterr()
    rc = main(["report", str(sim_dir / "manifest.json"), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 6
    assert err.startswith("error: io:") and err.count("\n") == 1
    assert str(sim_dir / "summary.json") in err
    assert not (tmp_path / "report.csv").exists()


def test_exceptions_outside_the_exit_code_table_propagate(monkeypatch):
    def broken(path):
        raise RuntimeError("not an mflqg error")

    monkeypatch.setattr(mflqg.cli, "load_config", broken)
    with pytest.raises(RuntimeError):
        main(["solve", "--config", "any.ini"])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("mflqg ")
