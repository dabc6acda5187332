import json
import math
import time

import pytest

import mflqg.cli
import mflqg.partial_obs
import mflqg.simulate
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

SIM_CFG = SCALAR_CFG + """
[simulation]
n_paths = 777
dt = 0.01
seed = 5
"""


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


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


def test_solve_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--preset", "example1", "--out", str(a)]) == 0
    assert main(["solve", "--preset", "example1", "--out", str(b)]) == 0
    for name in ("phi.csv", "gains.csv", "summary.json", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


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


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--preset", "example1", "--paths", "2000",
            "--dt", "0.005", "--seed", "11"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


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


def test_verify_scalar_config(tmp_path, capsys):
    cfg = tmp_path / "problem.ini"
    cfg.write_text(SCALAR_CFG)
    rc = main(["verify", "--config", str(cfg), "--paths", "20000",
               "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert all(ln.startswith("[PASS]") for ln in lines)
    names = {ln.split("]")[1].split(":")[0].strip() for ln in lines}
    assert {"assumptions", "terminal-exactness", "residual-sweep",
            "value-consistency", "oracle-vs-value", "perturbation-margin",
            "mc-vs-oracle", "gaussianity"} <= names
    assert "analytic-phi" not in names  # closed forms are checked on presets
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


def test_verify_reports_failed_assumptions(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(BAD_Q_CFG)
    rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL] assumptions" in out
    assert "CHECKS FAILED" in out


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
    # Oracle-vs-value takes one pass per probed x (two for example1), the
    # perturbation sweep one for all its offsets, mc-vs-oracle one.
    calls = []
    original = mflqg.simulate._moment_pass

    def counted(spec, laws, *args, **kwargs):
        calls.append(len(laws))
        return original(spec, laws, *args, **kwargs)

    monkeypatch.setattr(mflqg.simulate, "_moment_pass", counted)
    rc = main(["verify", "--preset", name, "--paths", "2000", "--dt", "0.05",
               "--seed", "3", "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc in (0, 1)
    assert len(calls) <= 4, calls
    assert sorted(calls)[-1] == 17  # the zero offset plus 16 perturbations


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
    for bad in ("nan", "inf", "-inf"):
        rc = main(["solve", "--preset", "example1", "--x", bad,
                   "--out", str(tmp_path)])
        assert rc == 2, bad
        assert capsys.readouterr().err.startswith("error: argument:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_too_few_paths_rejected(tmp_path, capsys, command):
    # With one path the standard error is zero and the band is all bias.
    rc = main([command, "--preset", "example1", "--paths", "1", "--dt", "0.1",
               "--seed", "3", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: argument:")
    cfg = tmp_path / "one_path.ini"
    cfg.write_text(SIM_CFG.replace("n_paths = 777", "n_paths = 1"))
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: argument:")


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
    garbage = tmp_path / "manifest.json"
    garbage.write_text("{not json")
    rc = main(["report", str(garbage), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 6
    assert err.startswith("error: io:")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("mflqg ")
