"""Model containers and assumption validation."""

import numpy as np
import pytest

from mcckf.bench import build_example1
from mcckf.linalg import cholesky_lower, triangular_inverse
from mcckf.model import (
    InitialCondition,
    StateSpaceModel,
    StepTerms,
    validate_model,
)


def tiny_model(q_var=1.0, r_var=1.0):
    return StateSpaceModel(
        F=[[1.0]], G=[[1.0]], H=[[1.0]], Q=[[q_var]], R=[[r_var]]
    )


def test_radar_model_validates_clean():
    model, init, _ = build_example1()
    assert validate_model(model, init, require_spd_init=True) == []


def test_radar_init_blocks_positive_determinants():
    _, init, _ = build_example1()
    pi0 = np.asarray(init.covariance)
    assert np.linalg.det(pi0[:2, :2]) > 0
    assert np.linalg.det(pi0[3:5, 3:5]) > 0


def test_spd_inputs_factor_after_validation():
    model, init, _ = build_example1()
    assert validate_model(model, init, require_spd_init=True) == []
    cholesky_lower(np.asarray(init.covariance))
    cholesky_lower(np.asarray(model.Q))
    cholesky_lower(np.asarray(model.R))


def test_zero_q_reported():
    model = tiny_model(q_var=0.0)
    init = InitialCondition(np.zeros(1), np.eye(1))
    report = validate_model(model, init)
    assert any("Q not positive definite" in v for v in report)


def test_wrong_h_shape_rejected_at_construction():
    with pytest.raises(ValueError):
        StateSpaceModel(F=np.eye(2), G=np.eye(2), H=np.ones((2, 3)), Q=np.eye(2), R=np.eye(2))


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("F", np.ones((2, 3)), r"F must be square, got shape \(2, 3\)"),
        ("G", np.ones((3, 2)), r"G must have 2 rows, got shape \(3, 2\)"),
        ("Q", np.eye(3), r"expected shape \(2, 2\), got \(3, 3\)"),
    ],
)
def test_other_wrong_shapes_rejected_at_construction(name, value, message):
    matrices = dict(F=np.eye(2), G=np.eye(2), H=np.eye(2), Q=np.eye(2), R=np.eye(2))
    matrices[name] = value
    with pytest.raises(ValueError, match=message):
        StateSpaceModel(**matrices)


@pytest.mark.parametrize(
    "q, init_cov, violation",
    [
        ([[1.0, 0.5], [0.0, 1.0]], np.eye(2), "Q not symmetric"),
        ([[1.0, 0.0], [0.0, np.nan]], np.eye(2), "Q contains non-finite entries"),
        (np.eye(2), [[1.0, 0.5], [0.0, 1.0]], "initial covariance not symmetric"),
    ],
)
def test_asymmetric_or_non_finite_covariance_reported(q, init_cov, violation):
    model = StateSpaceModel(F=np.eye(2), G=np.eye(2), H=np.eye(2), Q=q, R=np.eye(2))
    init = InitialCondition(np.zeros(2), init_cov)
    assert validate_model(model, init) == [violation]


@pytest.mark.parametrize(
    "mean, cov, violation",
    [
        ([np.nan, 0.0], np.eye(2), "initial mean contains non-finite entries"),
        ([0.0, np.inf], np.eye(2), "initial mean contains non-finite entries"),
        (np.zeros(2), [[1.0, 0.0], [0.0, np.nan]], "initial covariance contains non-finite entries"),
        (np.zeros(2), [[np.inf, 0.0], [0.0, 1.0]], "initial covariance contains non-finite entries"),
    ],
)
def test_non_finite_initial_condition_reported_once(mean, cov, violation):
    model = StateSpaceModel(F=np.eye(2), G=np.eye(2), H=np.eye(2), Q=np.eye(2), R=np.eye(2))
    init = InitialCondition(mean, cov)
    for require_spd_init in (False, True):
        assert validate_model(model, init, require_spd_init) == [violation]


def test_init_dimension_mismatch_reported():
    model = tiny_model()
    report = validate_model(model, InitialCondition(np.zeros(2), np.eye(2)))
    assert any("does not match state dim" in v for v in report)


def test_non_spd_init_only_flagged_when_required():
    model = tiny_model()
    init = InitialCondition(np.zeros(1), np.zeros((1, 1)))
    assert validate_model(model, init) == []
    assert validate_model(model, init, require_spd_init=True) != []


def test_validation_is_pure():
    model = tiny_model(q_var=0.0)
    init = InitialCondition(np.zeros(1), np.eye(1))
    assert validate_model(model, init) == validate_model(model, init)


def test_matrices_are_frozen():
    model = tiny_model()
    with pytest.raises(ValueError):
        model.F[0, 0] = 2.0


def test_cached_factors_match_direct_factorization():
    model, _, _ = build_example1()
    terms = model.terms
    np.testing.assert_array_equal(terms.q_sqrt, cholesky_lower(np.asarray(model.Q)))
    np.testing.assert_array_equal(terms.r_sqrt, cholesky_lower(np.asarray(model.R)))
    assert model.terms is model.terms
    np.testing.assert_allclose(terms.r_inv @ np.asarray(model.R), np.eye(2), atol=1e-12)


def test_r_inv_is_built_from_the_cached_inverse_r_factor():
    model, _, _ = build_example1()
    r = [[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]]
    wide = StateSpaceModel(F=np.eye(3), G=np.eye(3), H=np.eye(3), Q=np.eye(3), R=r)
    for mdl in (model, wide):
        inv_factor = triangular_inverse(cholesky_lower(np.asarray(mdl.R)))
        terms = StepTerms(mdl)
        np.testing.assert_array_equal(terms.r_sqrt_inv, inv_factor)
        assert terms.r_sqrt_inv is terms.r_sqrt_inv
        # r_inv's formula before the inverse factor was cached, bit for bit
        np.testing.assert_array_equal(terms.r_inv, inv_factor.mT @ inv_factor)
