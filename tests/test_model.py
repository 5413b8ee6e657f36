"""Model containers and assumption validation."""

import copy
import pickle

import numpy as np
import pytest

from mcckf.bench import build_example1
from mcckf.correntropy import KernelSpec
from mcckf.filters import run_batch, run_filter
from mcckf.linalg import cholesky_lower, triangular_inverse
from mcckf.model import (
    InitialCondition,
    StateSpaceModel,
    _ModelStack,
    validate_model,
)
from mcckf.sim import SeedSpec, _simulate, simulate


# the factors and products a model sets when it is made, which the filters and
# the simulator read
TERMS = "q_sqrt r_sqrt r_sqrt_inv g_q_sqrt g_q_g ht_r_inv ht_r_inv_h r_sqrt_inv_h".split()


def tiny_model(q_var=1.0, r_var=1.0):
    return StateSpaceModel(
        F=[[1.0]], G=[[1.0]], H=[[1.0]], Q=[[q_var]], R=[[r_var]]
    )


def rejection(build) -> str:
    """The message of the ``ValueError`` that ``build()`` raises."""
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


def test_radar_model_validates_clean():
    model, init, _ = build_example1()
    assert validate_model(model, init) == []


def test_radar_init_blocks_positive_determinants():
    _, init, _ = build_example1()
    pi0 = np.asarray(init.covariance)
    assert np.linalg.det(pi0[:2, :2]) > 0
    assert np.linalg.det(pi0[3:5, 3:5]) > 0


def test_spd_inputs_factor_after_validation():
    model, init, _ = build_example1()
    assert validate_model(model, init) == []
    cholesky_lower(np.asarray(init.covariance))
    cholesky_lower(np.asarray(model.Q))
    cholesky_lower(np.asarray(model.R))


def test_zero_q_reported():
    assert rejection(lambda: tiny_model(q_var=0.0)) == (
        "model validation failed: Q not positive definite"
    )


def test_wrong_h_shape_rejected_at_construction():
    with pytest.raises(ValueError):
        StateSpaceModel(F=np.eye(2), G=np.eye(2), H=np.ones((2, 3)), Q=np.eye(2), R=np.eye(2))


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("F", np.ones((2, 3)), r"F must be square, got shape \(2, 3\)"),
        ("G", np.ones((3, 2)), r"G must have 2 rows, got shape \(3, 2\)"),
        ("Q", np.eye(3), r"Q must have shape \(2, 2\), got \(3, 3\)"),
        ("R", np.eye(3), r"R must have shape \(2, 2\), got \(3, 3\)"),
        ("covariance", np.eye(3), r"initial covariance must have shape \(2, 2\), got \(3, 3\)"),
    ],
)
def test_other_wrong_shapes_rejected_at_construction(name, value, message):
    matrices = dict(F=np.eye(2), G=np.eye(2), H=np.eye(2), Q=np.eye(2), R=np.eye(2))
    init = dict(mean=np.zeros(2), covariance=np.eye(2))
    fields, cls = (init, InitialCondition) if name in init else (matrices, StateSpaceModel)
    fields[name] = value
    with pytest.raises(ValueError, match=message):
        cls(**fields)


@pytest.mark.parametrize(
    "q, init_cov, violation",
    [
        ([[1.0, 0.5], [0.0, 1.0]], np.eye(2), "Q not symmetric"),
        ([[1.0, 0.0], [0.0, np.nan]], np.eye(2), "Q contains non-finite entries"),
        (np.eye(2), [[1.0, 0.5], [0.0, 1.0]], "initial covariance not symmetric"),
        (np.eye(2), np.diag([1.0, -5.0]), "initial covariance not positive definite"),
        (np.eye(2), [[1.0, 2.0], [2.0, 1.0]], "initial covariance not positive definite"),
    ],
)
def test_asymmetric_or_non_finite_covariance_reported(q, init_cov, violation):
    def build():
        StateSpaceModel(F=np.eye(2), G=np.eye(2), H=np.eye(2), Q=q, R=np.eye(2))
        InitialCondition(np.zeros(2), init_cov)

    assert rejection(build) == f"model validation failed: {violation}"


@pytest.mark.parametrize("name", ["F", "G", "H"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_system_matrix_reported(name, bad):
    matrices = dict(F=np.eye(2), G=np.eye(2), H=np.eye(2), Q=np.eye(2), R=np.eye(2))
    matrices[name] = np.array([[1.0, 0.0], [bad, 1.0]])
    assert rejection(lambda: StateSpaceModel(**matrices)) == (
        f"model validation failed: {name} contains non-finite entries"
    )


@pytest.mark.parametrize(
    "mean, cov, violation",
    [
        ([np.nan, 0.0], np.eye(2), "initial mean contains non-finite entries"),
        ([0.0, np.inf], np.eye(2), "initial mean contains non-finite entries"),
        (
            np.zeros(2),
            [[1.0, 0.0], [0.0, np.nan]],
            "initial covariance contains non-finite entries",
        ),
        (
            np.zeros(2),
            [[np.inf, 0.0], [0.0, 1.0]],
            "initial covariance contains non-finite entries",
        ),
    ],
)
def test_non_finite_initial_condition_reported_once(mean, cov, violation):
    assert rejection(lambda: InitialCondition(mean, cov)) == (
        f"model validation failed: {violation}"
    )


def test_init_dimension_mismatch_reported():
    # the one violation neither object can see alone: the covariance is sized
    # by the mean, so only the mean's length is reported
    model = StateSpaceModel(F=np.eye(2), G=np.eye(2), H=np.eye(2), Q=np.eye(2), R=np.eye(2))
    for n in (1, 3):
        report = validate_model(model, InitialCondition(np.zeros(n), np.eye(n)))
        assert report == [f"initial mean length {n} does not match state dim 2"]


def test_filters_and_simulate_raise_the_dimension_mismatch():
    model, _, _ = build_example1()
    init = InitialCondition(np.zeros(4), np.eye(4))
    for call in (
        lambda: run_filter("sr1b", model, init, np.zeros((3, 2)), KernelSpec(3e4)),
        lambda: run_batch("sr1b", model, init, np.zeros((2, 3, 2)), KernelSpec(3e4)),
        lambda: simulate(model, init, 3, SeedSpec(1, 0)),
    ):
        assert rejection(call) == (
            "model validation failed: initial mean length 4 does not match state dim 6"
        )


@pytest.mark.parametrize("mean", [np.zeros((2, 3)), np.zeros((6, 1)), [[0.0]]])
def test_initial_mean_with_more_than_one_dimension_rejected(mean):
    # a (2, 3) mean was once flattened and passed for a six-state model
    with pytest.raises(ValueError, match=r"mean must be a vector, got shape \("):
        InitialCondition(mean, np.eye(np.size(mean)))


def test_validation_is_pure():
    model = tiny_model()
    init = InitialCondition(np.zeros(2), np.eye(2))
    assert validate_model(model, init) == validate_model(model, init) != []


def test_matrices_are_frozen():
    model = tiny_model()
    with pytest.raises(ValueError):
        model.F[0, 0] = 2.0


def test_construction_sets_every_term():
    # the products were once cached on first use, so a forked evaluation child
    # derived its own; now the model holds every term as soon as it is made
    model = StateSpaceModel(
        F=np.eye(3), G=np.ones((3, 2)), H=np.ones((2, 3)), Q=np.eye(2), R=2.0 * np.eye(2)
    )
    assert set(TERMS) <= set(vars(model))


@pytest.mark.parametrize("name", TERMS + ["factor"])
def test_cached_terms_are_read_only(name):
    # a term written in place would change every later run on its owner
    model, init, _ = build_example1()
    owner = init if name == "factor" else model
    term = getattr(owner, name)
    before = term.copy()
    with pytest.raises(ValueError):
        term[0, 0] *= 1e3
    assert np.array_equal(getattr(owner, name), before)


def test_a_cached_factor_cannot_go_stale():
    # a matrix reassigned after validation would leave its factor cached
    model, init, _ = build_example1()
    assert validate_model(model, init) == []
    for owner, name in ((model, "R"), (init, "covariance")):
        before = getattr(owner, name)
        with pytest.raises(AttributeError):
            setattr(owner, name, -before)
        assert getattr(owner, name) is before
    assert validate_model(model, init) == []


def test_initial_factor_is_cached_and_checked_by_validation():
    # construction is the check: it factors the covariance and keeps the factor
    model, init, _ = build_example1()
    np.testing.assert_array_equal(init.factor, cholesky_lower(init.covariance))
    assert init.factor is init.factor
    fresh = InitialCondition(init.mean, init.covariance)
    assert "factor" in vars(fresh) and validate_model(model, fresh) == []


@pytest.mark.parametrize(
    "duplicate",
    [copy.deepcopy, lambda owner: pickle.loads(pickle.dumps(owner))],
    ids=["deepcopy", "pickle"],
)
def test_a_copy_is_built_and_so_checked_again(duplicate):
    # a copy once restored the arrays writable, past the constructor's checks
    model, init, _ = build_example1()
    for owner, names in (
        (model, [*"FGHQR", *TERMS]),
        (init, ["mean", "covariance", "factor"]),
    ):
        twin = duplicate(owner)
        assert type(twin) is type(owner) and twin is not owner
        for name in names:
            mine, theirs = getattr(twin, name), getattr(owner, name)
            assert not mine.flags.writeable, name
            assert np.array_equal(mine, theirs), name


def test_cached_factors_match_direct_factorization():
    model, _, _ = build_example1()
    np.testing.assert_array_equal(model.q_sqrt, cholesky_lower(np.asarray(model.Q)))
    np.testing.assert_array_equal(model.r_sqrt, cholesky_lower(np.asarray(model.R)))
    assert model.ht_r_inv is model.ht_r_inv
    np.testing.assert_allclose(model.ht_r_inv @ np.asarray(model.R), model.H.T, atol=1e-12)


def test_r_inv_is_built_from_the_cached_inverse_r_factor():
    model, _, _ = build_example1()
    r = [[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]]
    wide = StateSpaceModel(F=np.eye(3), G=np.eye(3), H=np.eye(3), Q=np.eye(3), R=r)
    for mdl in (model, wide):
        inv_factor = triangular_inverse(cholesky_lower(np.asarray(mdl.R)))
        np.testing.assert_array_equal(mdl.r_sqrt_inv, inv_factor)
        assert mdl.r_sqrt_inv is mdl.r_sqrt_inv
        # R^-1 by its formula before the inverse factor was cached, then
        # H^T R^-1, bit for bit
        np.testing.assert_array_equal(mdl.ht_r_inv, mdl.H.mT @ (inv_factor.mT @ inv_factor))


def dims_model(n, q, m):
    return StateSpaceModel(
        F=np.eye(n), G=np.ones((n, q)), H=np.ones((m, n)), Q=np.eye(q), R=np.eye(m)
    )


class TestModelStack:
    def test_runs_sharing_a_model_object_give_one_distinct_entry(self):
        model, _, _ = build_example1()
        twin = StateSpaceModel(F=model.F, G=model.G, H=model.H, Q=model.Q, R=model.R)
        stack = _ModelStack([model, twin, model, model, twin], 5)
        assert len(stack.distinct) == 2
        assert stack.distinct[0] is model and stack.distinct[1] is twin
        assert stack.rows.tolist() == [0, 1, 0, 0, 1]
        shared = _ModelStack(model, 3)
        assert shared.distinct == [model] and shared.rows.tolist() == [0, 0, 0]
        for name in "FGHQR":
            assert np.array_equal(getattr(stack, name), np.stack([getattr(model, name)] * 5))
        kept = stack.take(np.array([False, True, False, True, True]))
        assert kept.distinct == [twin, model] and kept.rows.tolist() == [0, 1, 0]

    def test_stacked_terms_are_each_runs_own_bit_for_bit_and_cached(self):
        model, _, _ = build_example1()
        other = StateSpaceModel(
            F=model.F, G=model.G, H=model.H, Q=model.Q, R=[[2.0, -0.03], [-0.03, 5e-3]]
        )
        stack = _ModelStack([model, other, model], 3)
        for name in TERMS:
            stacked = getattr(stack, name)
            assert stacked.shape[0] == 3
            for row, mdl in zip(stacked, [model, other, model]):
                own = getattr(mdl, name)
                # bytes, so sign bits and zeros' signs too
                assert row.shape == own.shape and row.tobytes() == own.tobytes(), name
            assert getattr(stack, name) is stacked
            assert getattr(model, name) is getattr(model, name)
            assert getattr(other, name) is getattr(other, name)
        assert not np.array_equal(stack.r_sqrt[0], stack.r_sqrt[1])

    def test_stacks_only_public_attributes_of_the_models(self):
        model, _, _ = build_example1()
        stack = _ModelStack(model, 2)
        for name in ("_private", "__deepcopy__", "no_such_term"):
            with pytest.raises(AttributeError):
                getattr(stack, name)
        assert copy.copy(stack).rows is stack.rows

    @pytest.mark.parametrize("dims", [(5, 2, 2), (6, 1, 2), (6, 2, 1)])
    def test_run_batch_and_simulate_reject_unequal_dimensions_with_one_message(self, dims):
        model, init, _ = build_example1()
        models = [model, dims_model(*dims)]
        message = (
            "the models of a batch must have equal (state_dim, noise_dim, obs_dim), "
            f"got {sorted({(6, 2, 2), dims})}"
        )
        raised = []
        for call in (
            lambda: _ModelStack(models, 2),
            lambda: run_batch("sr1b", models, init, np.zeros((2, 3, 2)), KernelSpec(3e4)),
            lambda: _simulate(models, init, 3, [SeedSpec(1, 0), SeedSpec(1, 1)], None),
        ):
            with pytest.raises(ValueError) as info:
                call()
            raised.append(str(info.value))
        assert raised == [message] * 3

    def test_rejects_a_model_count_other_than_the_runs_and_no_runs(self):
        model, _, _ = build_example1()
        with pytest.raises(ValueError, match="got 3 models for 2 runs"):
            _ModelStack([model] * 3, 2)
        with pytest.raises(ValueError, match="at least one run is required"):
            _ModelStack(model, 0)
