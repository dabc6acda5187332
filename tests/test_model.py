import numpy as np
import pytest

from mflqg import (AssumptionError, Coefficient, DomainError, MatrixProblemSpec,
                   MeasureMoments, ProblemSpec, as_coefficient,
                   validate_matrix_spec, validate_spec)


def test_constant_coefficient():
    c = Coefficient.constant(2.5)
    assert c(0.0) == 2.5
    assert c(17.3) == 2.5
    assert as_coefficient(2.5)(1.0) == 2.5  # bare numbers coerce


def test_poly_coefficient_horner():
    # 1 + 2t + 3t^2 at t = 2 -> 17
    p = Coefficient.poly([1.0, 2.0, 3.0])
    assert p(2.0) == 17.0
    assert p(0.0) == 1.0


def test_table_coefficient_interpolates():
    f = Coefficient.table([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
    assert f(0.5) == 1.0
    assert f(1.0) == 2.0  # knot hit is exact
    assert f(1.75) == 0.5


def test_table_outside_range_raises():
    f = Coefficient.table([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(DomainError):
        f(1.5)
    with pytest.raises(DomainError):
        f(-0.1)


def test_table_constructor_rejects_bad_knots():
    with pytest.raises(DomainError):
        Coefficient.table([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        Coefficient.table([0.0], [1.0])
    with pytest.raises(DomainError):
        Coefficient.table([0.0, 1.0], [1.0])


def test_as_coefficient_rejects_junk():
    with pytest.raises(DomainError):
        as_coefficient("fast")
    with pytest.raises(DomainError):
        as_coefficient(True)


def test_problem_spec_coerces_numbers():
    spec = ProblemSpec(A=0.0, B=1, sigma=1.0, Q=2, D1=1.0, D2=0.0, T=1.0)
    assert isinstance(spec.A, Coefficient)
    assert spec.Q(0.7) == 2.0


def test_problem_spec_rejects_nonpositive_horizon():
    with pytest.raises(AssumptionError):
        ProblemSpec(A=0.0, B=1.0, sigma=1.0, Q=1.0, D1=1.0, D2=0.0, T=0.0)
    with pytest.raises(AssumptionError):
        ProblemSpec(A=0.0, B=1.0, sigma=1.0, Q=1.0, D1=1.0, D2=0.0, T=-1.0)


NAN = float("nan")
INF = float("inf")
UNIT = dict(A=0.0, B=1.0, sigma=1.0, Q=1.0, D1=1.0, D2=0.0, T=1.0)
MATRIX_UNIT = dict(d=2, A=np.zeros((2, 2)), B=np.eye(2), sigma=np.eye(2),
                   Q=np.eye(2), D1=np.eye(2), D2=np.zeros((2, 2)), T=1.0)


@pytest.mark.parametrize("make, field", [
    (lambda: Coefficient.constant(NAN), "constant coefficient"),
    (lambda: Coefficient.poly([1.0, -INF]), "poly coefficient"),
    (lambda: Coefficient.table([0.0, NAN], [1.0, 1.0]), "table knots"),
    (lambda: Coefficient.table([0.0, 1.0], [1.0, INF]), "table values"),
], ids=["constant", "poly", "table-knots", "table-values"])
def test_coefficient_rejects_non_finite(make, field):
    with pytest.raises(DomainError, match=f"^{field} must be finite"):
        make()


@pytest.mark.parametrize("field, value", [
    ("A", NAN), ("B", INF), ("sigma", NAN), ("Q", -INF),
    ("D1", NAN), ("D2", INF), ("T", INF),
])
def test_problem_spec_rejects_non_finite(field, value):
    with pytest.raises(DomainError, match=f"^{field}[: ]"):
        ProblemSpec(**{**UNIT, field: value})


@pytest.mark.parametrize("field", ["A", "B", "sigma", "Q", "D1", "D2", "T"])
def test_matrix_spec_rejects_non_finite(field):
    value = NAN if field == "T" else [[1.0, 0.0], [0.0, NAN]]
    with pytest.raises(DomainError, match=f"^{field} must be finite"):
        MatrixProblemSpec(**{**MATRIX_UNIT, field: value})


def test_dirac_moments():
    mu = MeasureMoments.dirac(-3.0)
    assert (mu.m1, mu.m2) == (-3.0, 9.0)
    assert mu.variance == 0.0


def test_inconsistent_moments_raise():
    with pytest.raises(DomainError):
        MeasureMoments(1.0, 0.5)  # m2 < m1^2


def test_moment_tolerance_absorbs_rounding():
    # empirical moments can land a hair below m1^2
    MeasureMoments(1.0, 1.0 - 1e-13)


def test_validate_spec_accepts_positive_q():
    spec = ProblemSpec(A=0.0, B=1.0, sigma=1.0, Q=1.0, D1=1.0, D2=0.0, T=1.0)
    result = validate_spec(spec)
    assert result.ok, result.message


def test_validate_spec_catches_q_sign_change():
    # Q crosses zero at t = 0.5; the 256-point grid pins the violation nearby.
    q = Coefficient.table([0.0, 1.0], [1.0, -1.0])
    spec = ProblemSpec(A=0.0, B=1.0, sigma=1.0, Q=q, D1=1.0, D2=0.0, T=1.0)
    result = validate_spec(spec)
    assert not result.ok
    assert "A1" in result.message
    assert abs(result.t_violation - 0.5) <= 1.0 / 100.0


def test_validate_spec_reports_short_table():
    # sigma tabulated on [0, 0.5] cannot cover T = 1
    sig = Coefficient.table([0.0, 0.5], [1.0, 1.0])
    spec = ProblemSpec(A=0.0, B=1.0, sigma=sig, Q=1.0, D1=1.0, D2=0.0, T=1.0)
    result = validate_spec(spec)
    assert not result.ok
    assert "sigma" in result.message


def test_matrix_spec_rejects_asymmetric_terminal_weight():
    with pytest.raises(AssumptionError):
        MatrixProblemSpec(d=2, A=np.zeros((2, 2)), B=np.eye(2), sigma=np.eye(2),
                          Q=np.eye(2), D1=[[1.0, 0.5], [0.0, 1.0]],
                          D2=np.zeros((2, 2)), T=1.0)


def test_matrix_spec_shape_checks():
    with pytest.raises(DomainError):
        MatrixProblemSpec(d=2, A=np.zeros((2, 3)), B=np.eye(2), sigma=np.eye(2),
                          Q=np.eye(2), D1=np.eye(2), D2=np.zeros((2, 2)), T=1.0)
    with pytest.raises(DomainError):
        MatrixProblemSpec(d=0, A=np.zeros((0, 0)), B=np.zeros((0, 0)),
                          sigma=np.zeros((0, 0)), Q=np.zeros((0, 0)),
                          D1=np.zeros((0, 0)), D2=np.zeros((0, 0)), T=1.0)


def test_matrix_spec_time_dependent_callable():
    # Matrix fields are constant; a callable of time is refused.
    with pytest.raises(TypeError):
        MatrixProblemSpec(d=2, A=lambda t: t * np.eye(2), B=np.eye(2),
                          sigma=np.eye(2), Q=np.eye(2), D1=np.eye(2),
                          D2=np.zeros((2, 2)), T=1.0)


def test_validate_matrix_spec_flags_indefinite_q():
    spec = MatrixProblemSpec(d=2, A=np.zeros((2, 2)), B=np.eye(2),
                             sigma=np.eye(2), Q=np.diag([1.0, -1.0]),
                             D1=np.eye(2), D2=np.zeros((2, 2)), T=1.0)
    result = validate_matrix_spec(spec)
    assert not result.ok
    assert "A1" in result.message


def test_validate_matrix_spec_ok():
    spec = MatrixProblemSpec(d=2, A=np.zeros((2, 2)), B=np.eye(2),
                             sigma=np.eye(2), Q=np.eye(2), D1=np.eye(2),
                             D2=np.zeros((2, 2)), T=1.0)
    assert validate_matrix_spec(spec).ok


@pytest.mark.parametrize("coef", [
    Coefficient.constant(-0.7),
    Coefficient.poly([0.3, -1.1, 0.25, 2.0]),
    Coefficient.table([0.0, 0.3, 0.55, 1.0], [1.0, -0.2, 0.7, 0.45]),
], ids=["constant", "poly", "table"])
def test_vectorized_evaluation_matches_calls(coef):
    # knots, both endpoints and interior points, in no particular order
    times = np.concatenate([[1.0, 0.0, 0.3, 0.55], np.linspace(0.0, 1.0, 37),
                            np.random.default_rng(2).uniform(0.0, 1.0, 50)])
    got = coef.on(times)
    assert got.shape == times.shape
    assert got.tolist() == [coef(float(t)) for t in times]


def test_vectorized_table_evaluation_checks_domain():
    f = Coefficient.table([0.0, 0.5, 1.0], [1.0, 2.0, 0.0])
    for outside in ([-0.01, 0.5], [0.5, 1.0 + 1e-12]):
        with pytest.raises(DomainError, match="outside tabulated range"):
            f.on(np.array(outside))
