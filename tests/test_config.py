import dataclasses

import numpy as np
import pytest

from mflqg import (AssumptionError, ConfigError, PartialObsSpec, ProblemSpec,
                   load_config, parse_config)
from mflqg.config import ResolvedConfig
from mflqg.model import Coefficient

SCALAR = """
[problem]
A = 0.0
B = poly 1.0 0.5
sigma = table 0:1 1:0.5
Q = 2.0
D1 = 1.0
D2 = 0.5
T = 1.0

[simulation]
n_paths = 5000
dt = 0.001
seed = 7
"""

PARTIAL = """
[partial_obs]
sigma_hat = 0.7071067811865476
sigma_tilde = 0.7071067811865476
eta_hat = 1.0
eta_tilde = 0.0
s = 0.0
x = 1.0
T = 1.0
D1 = 1.0
D2 = 0.0
"""

MATRIX = """
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


def test_parse_scalar_problem():
    cfg = parse_config(SCALAR)
    p = cfg.problem
    assert p is not None
    assert p.A(0.7) == 0.0
    assert p.B(2.0) == 2.0          # 1 + 0.5 t
    assert p.sigma(0.5) == 0.75     # table midpoint
    assert p.Q.kind == "constant"
    assert (p.D1, p.D2, p.T) == (1.0, 0.5, 1.0)
    assert cfg.simulation.n_paths == 5000
    assert cfg.simulation.seed == 7


def test_parse_bare_number_is_constant():
    cfg = parse_config(SCALAR.replace("poly 1.0 0.5", "3"))
    assert cfg.problem.B.kind == "constant"
    assert cfg.problem.B(11.0) == 3.0


def test_parse_partial_obs():
    cfg = parse_config(PARTIAL)
    q = cfg.problem
    assert isinstance(q, PartialObsSpec)
    assert q.sigma_hat ** 2 == pytest.approx(0.5)
    assert q.eta_tilde == 0.0
    assert cfg.simulation is None


def test_parse_matrix_problem():
    cfg = parse_config(MATRIX)
    mp = cfg.problem
    assert mp.d == 2
    assert mp == ProblemSpec(A=np.zeros((2, 2)), B=np.eye(2), sigma=np.eye(2),
                             Q=np.eye(2), D1=np.eye(2), D2=np.zeros((2, 2)), T=1.0)
    assert mp != parse_config(MATRIX.replace("D2 = 0 0", "D2 = 1 0")).problem
    assert mp != parse_config(MATRIX.replace("A = 0 0", "A = 1 0")).problem


def test_matrix_problem_of_d1_is_the_scalar_problem():
    # One problem type: a 1 x 1 [matrix_problem] parses to the ProblemSpec
    # of the [problem] section with the same numbers, field for field.
    text = ("[matrix_problem]\nd = 1\nA = -0.3\nB = 1.2\nsigma = 0.5\nQ = 2\n"
            "D1 = 1\nD2 = 0.5\nT = 1\n")
    scalar = parse_config(text.replace("[matrix_problem]\nd = 1", "[problem]")).problem
    mp = parse_config(text).problem
    assert mp == scalar and mp.d == 1
    assert all(getattr(mp, name) == getattr(scalar, name) for name in
               ("A", "B", "sigma", "Q", "D1", "D2", "T"))
    assert isinstance(mp.D1, float) and mp.Q.kind == "constant"


def test_coefficient_text_forms():
    def coef(text):
        return parse_config(SCALAR.replace("poly 1.0 0.5", text)).problem.B

    assert coef("constant 1.5") == Coefficient.constant(1.5)
    assert coef("poly 1.0 2.0") == Coefficient.poly([1.0, 2.0])
    assert coef("table 0.0:1.0 1.0:0.5") == Coefficient.table([0.0, 1.0], [1.0, 0.5])


def test_missing_field_names_the_field():
    with pytest.raises(ConfigError) as err:
        parse_config("[problem]\nA = 0\n")
    msg = str(err.value)
    assert "[problem]" in msg and "missing" in msg and "Q" in msg


def test_unknown_field_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(SCALAR.replace("D2 = 0.5", "D2 = 0.5\nbogus = 1"))
    assert "bogus" in str(err.value)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        parse_config(SCALAR + "\n[extras]\nfoo = 1\n")


def test_requires_exactly_one_problem_section():
    with pytest.raises(ConfigError):
        parse_config("[simulation]\nn_paths = 10\ndt = 0.1\nseed = 0\n")
    with pytest.raises(ConfigError):
        parse_config(SCALAR + PARTIAL)


def test_bad_numbers_are_config_errors():
    with pytest.raises(ConfigError) as err:
        parse_config(SCALAR.replace("D1 = 1.0", "D1 = one"))
    assert "D1" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config(SCALAR.replace("Q = 2.0", "Q = poly"))
    with pytest.raises(ConfigError):
        parse_config(SCALAR.replace("table 0:1 1:0.5", "table 0:1 oops"))
    with pytest.raises(ConfigError):
        parse_config(SCALAR.replace("n_paths = 5000", "n_paths = many"))


@pytest.mark.parametrize("text,old,new", [
    (SCALAR, "D1 = 1.0", "D1 = nan"),
    (SCALAR, "T = 1.0", "T = inf"),
    (SCALAR, "A = 0.0", "A = -inf"),
    (SCALAR, "Q = 2.0", "Q = constant nan"),
    (SCALAR, "poly 1.0 0.5", "poly 1.0 inf"),
    (SCALAR, "table 0:1 1:0.5", "table 0:1 1:nan"),
    (SCALAR, "table 0:1 1:0.5", "table 0:1 inf:0.5"),
    (SCALAR, "dt = 0.001", "dt = inf"),
    (PARTIAL, "x = 1.0", "x = nan"),
    (MATRIX, "A = 0 0; 0 0", "A = 0 nan; 0 0"),
    (MATRIX, "D2 = 0 0; 0 0", "D2 = 0 0; 0 inf"),
], ids=lambda v: {SCALAR: "scalar", PARTIAL: "partial", MATRIX: "matrix"}.get(v, v))
def test_non_finite_numbers_are_config_errors(text, old, new):
    assert old in text
    with pytest.raises(ConfigError):
        parse_config(text.replace(old, new))


@pytest.mark.parametrize("text,old,new,where", [
    (SCALAR, "sigma = table 0:1 1:0.5", "sigma = table 0:1", "[problem] sigma:"),
    (SCALAR, "seed = 7", "seed = 7.5", "[simulation] seed:"),
    (PARTIAL, "eta_tilde = 0.0", "eta_tilde = zero", "[partial_obs] eta_tilde:"),
    (MATRIX, "Q = 1 0; 0 1", "Q = 1 0; 0", "[matrix_problem] Q:"),
    (MATRIX, "d = 2", "d = two", "[matrix_problem] d:"),
], ids=["problem", "simulation", "partial_obs", "matrix_problem", "matrix_d"])
def test_field_errors_name_section_and_field(text, old, new, where):
    assert old in text
    with pytest.raises(ConfigError) as err:
        parse_config(text.replace(old, new))
    assert str(err.value).startswith(where), str(err.value)


def test_malformed_ini_is_config_error():
    with pytest.raises(ConfigError):
        parse_config("problem]\nA = 0\n")
    with pytest.raises(ConfigError):
        parse_config("[problem]\nA 0\n")


def test_matrix_shape_errors():
    with pytest.raises(ConfigError):
        parse_config(MATRIX.replace("A = 0 0; 0 0", "A = 0 0 0; 0 0 0"))
    with pytest.raises(ConfigError):
        parse_config(MATRIX.replace("d = 2", "d = 0"))


def test_assumption_violations_come_from_the_spec():
    # the config parses fine; the constructed spec rejects T <= 0
    with pytest.raises(AssumptionError):
        parse_config(SCALAR.replace("T = 1.0", "T = -1.0"))
    with pytest.raises(AssumptionError):
        parse_config(PARTIAL.replace("eta_hat = 1.0", "eta_hat = 0.5"))


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "problem.ini"
    path.write_text(SCALAR)
    cfg = load_config(path)
    assert cfg.problem.T == 1.0
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "absent.ini")


def test_resolved_config_is_the_problem_and_the_simulation():
    # Every problem section fills the one problem field; [simulation] is
    # optional.
    for text, kind in ((SCALAR, ProblemSpec), (MATRIX, ProblemSpec),
                       (PARTIAL, PartialObsSpec)):
        cfg = parse_config(text)
        assert isinstance(cfg, ResolvedConfig) and isinstance(cfg.problem, kind)
        assert [f.name for f in dataclasses.fields(cfg)] == ["problem", "simulation"]
    assert parse_config(SCALAR).simulation.n_paths == 5000
    assert parse_config(MATRIX).simulation is None
