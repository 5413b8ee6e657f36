"""Step updates, cross-implementation equivalence and the run driver."""

import warnings

import numpy as np
import pytest

from mcckf import filters as filters_module
from mcckf import linalg as linalg_module
from mcckf.bench import build_example1, build_example2
from mcckf.config import ExperimentConfig
from mcckf.correntropy import KernelSpec, compute_lambda
from mcckf.filters import (
    ALGORITHMS,
    FilterState,
    mcckf_measurement_update,
    mcckf_time_update,
    run_batch,
    run_filter,
    sr1a_measurement_update,
    sr1b_measurement_update,
    sr_time_update,
)
from mcckf.linalg import NonFiniteInput, cholesky_lower
from mcckf.model import InitialCondition, StateSpaceModel, _ModelStack
from mcckf.sim import SeedSpec, simulate
from oracles import (
    dims_model,
    gain_information_form,
    gain_innovation_form,
    random_spd,
    scalar_model,
)

RNG = np.random.default_rng(7321)


def random_model(rng, n, m, q):
    """Stable random model (spectral radius 0.9) with SPD Q and R."""
    f = rng.standard_normal((n, n))
    f *= 0.9 / np.abs(np.linalg.eigvals(f)).max()
    return StateSpaceModel(
        F=f,
        G=rng.standard_normal((n, q)),
        H=rng.standard_normal((m, n)),
        Q=random_spd(rng, q),
        R=random_spd(rng, m),
    )


def random_instance(rng, n, m):
    """Well-conditioned random model plus predicted state for one update."""
    f = rng.standard_normal((n, n)) * 0.5
    g = np.eye(n)
    h = rng.standard_normal((m, n))
    q, r, p = random_spd(rng, n), random_spd(rng, m), random_spd(rng, n, 0.5, 3.0)
    model = StateSpaceModel(F=f, G=g, H=h, Q=q, R=r)
    x = rng.standard_normal(n)
    y = rng.standard_normal(m)
    return model, x, p, y


class TestTimeUpdate:
    def test_identity_dynamics_no_noise_input(self):
        model = StateSpaceModel(
            F=np.eye(2), G=np.zeros((2, 1)), H=np.ones((1, 2)), Q=[[1.0]], R=[[1.0]]
        )
        prior = FilterState.full(0, np.array([1.0, -2.0]), np.diag([3.0, 4.0]))
        pred = mcckf_time_update(model, prior)
        np.testing.assert_array_equal(pred.estimate, prior.estimate)
        np.testing.assert_array_equal(pred.covariance, prior.covariance)

    def test_scalar(self):
        model = scalar_model(f=2.0, q=3.0)
        pred = mcckf_time_update(model, FilterState.full(0, np.zeros(1), np.eye(1)))
        assert pred.covariance[0, 0] == pytest.approx(7.0)

    def test_radar_first_step_dense_oracle(self):
        # expected values assembled from the printed constants, independently
        # of the scenario builder
        rho, t = 0.5, 10.0
        sr2, s1, s2 = 1000.0**2, (103.0 / 3.0) ** 2, 1.3e-8
        stheta = 0.017
        f = np.array(
            [
                [1, t, 0, 0, 0, 0],
                [0, 1, 1, 0, 0, 0],
                [0, 0, rho, 0, 0, 0],
                [0, 0, 0, 1, t, 0],
                [0, 0, 0, 0, 1, 1],
                [0, 0, 0, 0, 0, rho],
            ],
            dtype=float,
        )
        pi0 = np.zeros((6, 6))
        pi0[0, 0], pi0[0, 1], pi0[1, 0] = sr2, sr2 / t, sr2 / t
        pi0[1, 1] = 2 * sr2 / t**2 + s1
        pi0[2, 2] = s1
        pi0[3, 3], pi0[3, 4], pi0[4, 3] = stheta, stheta / t, stheta / t
        pi0[4, 4] = 2 * stheta / t**2 + s1
        pi0[5, 5] = s2
        gqg = np.zeros((6, 6))
        gqg[2, 2], gqg[5, 5] = s1, s2
        expected = f @ pi0 @ f.T + gqg

        model, init, _ = build_example1()
        pred = mcckf_time_update(
            model, FilterState.full(0, init.mean, init.covariance)
        )
        np.testing.assert_array_equal(pred.estimate, np.zeros(6))
        np.testing.assert_allclose(pred.covariance, expected, rtol=1e-14)

    def test_sr_matches_full_gram(self):
        model, init, _ = build_example1()
        full = mcckf_time_update(model, FilterState.full(0, init.mean, init.covariance))
        sr = sr_time_update(
            model,
            FilterState.square_root(0, init.mean, cholesky_lower(init.covariance)),
        )
        np.testing.assert_allclose(
            sr.factor @ sr.factor.T, full.covariance, rtol=1e-12
        )

    def test_sr_scalar_row_norm(self):
        model = scalar_model(f=2.0, q=3.0)
        sr = sr_time_update(model, FilterState.square_root(0, np.zeros(1), np.eye(1)))
        assert sr.factor[0, 0] == pytest.approx(np.sqrt(7.0), rel=1e-15)

    def test_sr_identity_keeps_factor(self):
        model = StateSpaceModel(
            F=np.eye(2), G=np.zeros((2, 1)), H=np.ones((1, 2)), Q=[[1.0]], R=[[1.0]]
        )
        factor = np.array([[2.0, 0.0], [0.5, 1.5]])
        sr = sr_time_update(model, FilterState.square_root(0, np.zeros(2), factor))
        np.testing.assert_array_equal(sr.factor, factor)

    def test_non_finite_raises_non_finite_input(self):
        model = scalar_model()
        with pytest.raises(NonFiniteInput, match="^non-finite predicted_estimate$") as info:
            mcckf_time_update(model, FilterState.full(0, np.array([np.inf]), np.eye(1)))
        assert info.value.failed == {}

    def test_batch_names_the_runs_of_the_first_non_finite_array(self):
        # run 0 fails the predicted estimate, run 2 only the later pre-array
        model = _ModelStack(build_example1()[0], 3)
        estimate, factor = np.zeros((3, 6)), np.stack([np.eye(6)] * 3)
        estimate[0, 1], factor[2, 4, 4] = np.nan, np.inf
        prior = FilterState.square_root(0, estimate, factor)
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteInput) as info:
            sr_time_update(model, prior)
        assert info.value.failed == {0: "non-finite predicted_estimate"}
        keep = np.array([False, True, True])
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteInput) as info:
            sr_time_update(model.take(keep), prior.take(keep))
        assert info.value.failed == {1: "non-finite time_update_pre_array"}


@pytest.mark.parametrize(
    "representations", [{}, {"covariance": np.eye(1), "factor": np.eye(1)}]
)
def test_filter_state_needs_exactly_one_representation(representations):
    with pytest.raises(ValueError, match="exactly one of covariance/factor"):
        FilterState(0, np.zeros(1), **representations)


class TestMeasurementUpdates:
    def test_conventional_reports_a_non_finite_information_matrix(self):
        # a 1e-310 predicted variance factors, but P^-1 overflows: the
        # information matrix fails cholesky_lower's finiteness check, with
        # its message, before any pivot
        model = scalar_model()
        tiny = FilterState.full(1, np.zeros((2, 1)), np.array([[[1.0]], [[1e-310]]]))
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteInput, match="^non-finite information matrix$"):
                mcckf_measurement_update(model, tiny.take(1), np.zeros(1), KernelSpec(1.0))
            with pytest.raises(NonFiniteInput) as info:
                mcckf_measurement_update(model, tiny, np.zeros((2, 1)), KernelSpec(1.0))
        assert info.value.failed == {1: "non-finite information matrix"}

    def test_scalar_pinned_gain_and_covariance(self):
        model = scalar_model()
        y = np.array([0.3])
        pred_full = FilterState.full(1, np.zeros(1), np.eye(1))
        pred_sr = FilterState.square_root(1, np.zeros(1), np.eye(1))
        st, rep = mcckf_measurement_update(model, pred_full, y, None, pin_weight=1.0)
        assert rep.gain[0, 0] == pytest.approx(0.5)
        assert st.covariance[0, 0] == pytest.approx(0.5)
        st_a, rep_a = sr1a_measurement_update(model, pred_sr, y, None, pin_weight=1.0)
        assert rep_a.gain[0, 0] == pytest.approx(0.5)
        assert (st_a.factor @ st_a.factor.T)[0, 0] == pytest.approx(0.5)
        st_b, rep_b = sr1b_measurement_update(model, pred_sr, y, None, pin_weight=1.0)
        assert rep_b.gain[0, 0] == pytest.approx(0.5)
        assert (st_b.factor @ st_b.factor.T)[0, 0] == pytest.approx(0.5)

    def test_zero_h_conventional_is_identity(self):
        model = scalar_model(h=0.0)
        pred = FilterState.full(1, np.array([2.0]), np.array([[3.0]]))
        st, rep = mcckf_measurement_update(model, pred, np.array([5.0]), KernelSpec(1.0))
        assert np.all(rep.gain == 0.0)
        np.testing.assert_array_equal(st.estimate, pred.estimate)
        np.testing.assert_allclose(st.covariance, pred.covariance, rtol=1e-15)

    def test_zero_h_sr1a_information_factor(self):
        model = scalar_model(h=0.0)
        factor = np.array([[2.0]])
        pred = FilterState.square_root(1, np.array([2.0]), factor)
        st, rep = sr1a_measurement_update(model, pred, np.array([5.0]), KernelSpec(1.0))
        assert np.all(rep.gain == 0.0)
        np.testing.assert_array_equal(st.estimate, pred.estimate)
        np.testing.assert_array_equal(st.factor, factor)

    def test_zero_weight_rejects_measurement_everywhere(self):
        model, init, _ = build_example1()
        pred_cov = mcckf_time_update(model, FilterState.full(0, init.mean, init.covariance))
        pred_sr = sr_time_update(
            model,
            FilterState.square_root(0, init.mean, cholesky_lower(init.covariance)),
        )
        y = np.array([100.0, 0.5])
        st, rep = mcckf_measurement_update(model, pred_cov, y, None, pin_weight=0.0)
        assert np.all(rep.gain == 0.0)
        np.testing.assert_array_equal(st.estimate, pred_cov.estimate)
        np.testing.assert_array_equal(st.covariance, pred_cov.covariance)
        st_a, rep_a = sr1a_measurement_update(model, pred_sr, y, None, pin_weight=0.0)
        assert np.all(rep_a.gain == 0.0)
        np.testing.assert_array_equal(st_a.estimate, pred_sr.estimate)
        np.testing.assert_array_equal(st_a.factor, pred_sr.factor)
        st_b, rep_b = sr1b_measurement_update(model, pred_sr, y, None, pin_weight=0.0)
        assert np.all(rep_b.gain == 0.0)
        np.testing.assert_array_equal(st_b.estimate, pred_sr.estimate)
        np.testing.assert_array_equal(st_b.factor, pred_sr.factor)

    def test_sr1b_zero_weight_innovation_factor_is_r_factor(self):
        model = scalar_model(r=4.0)
        pred = FilterState.square_root(1, np.zeros(1), np.array([[3.0]]))
        st, rep = sr1b_measurement_update(model, pred, np.array([1.0]), None, pin_weight=0.0)
        # R_e = lam H P H^T + R collapses to R
        assert np.all(rep.gain == 0.0)
        np.testing.assert_array_equal(st.factor, pred.factor)

    @pytest.mark.parametrize(
        "update", [mcckf_measurement_update, sr1a_measurement_update, sr1b_measurement_update]
    )
    @pytest.mark.parametrize(
        "y_shape", [(), (1,), (3,), (1, 1), (1, 3)], ids=["0d", "1", "3", "batch_1", "batch_3"]
    )
    def test_wrong_measurement_width_rejected(self, update, y_shape):
        # the radar model measures 2 components, so no y may broadcast against
        # H x. A 2-D y is the measurements of a batch of one run.
        model, init, _ = build_example1()
        if update is mcckf_measurement_update:
            pred = FilterState.full(1, init.mean, init.covariance)
        else:
            pred = FilterState.square_root(1, init.mean, cholesky_lower(init.covariance))
        if len(y_shape) == 2:
            pred = pred.take(np.newaxis)
        with pytest.raises(ValueError, match="measurement must have 2 components"):
            update(model, pred, np.full(y_shape, 5.0), KernelSpec(3e4))

    def test_cross_implementation_agreement_random(self):
        # conventional, sr1a and sr1b applied to the same predicted state
        for _ in range(60):
            n = int(RNG.integers(1, 7))
            m = int(RNG.integers(1, 4))
            model, x, p, y = random_instance(RNG, n, m)
            lam = float(RNG.choice([0.0, 0.3, 1.0]))
            factor = cholesky_lower(p)
            st_c, rep_c = mcckf_measurement_update(
                model, FilterState.full(1, x, p), y, None, pin_weight=lam
            )
            st_a, rep_a = sr1a_measurement_update(
                model, FilterState.square_root(1, x, factor), y, None, pin_weight=lam
            )
            st_b, rep_b = sr1b_measurement_update(
                model, FilterState.square_root(1, x, factor), y, None, pin_weight=lam
            )
            np.testing.assert_allclose(st_a.estimate, st_c.estimate, atol=1e-8)
            np.testing.assert_allclose(st_b.estimate, st_c.estimate, atol=1e-8)
            np.testing.assert_allclose(
                st_a.factor @ st_a.factor.T, st_c.covariance, rtol=1e-8, atol=1e-10
            )
            np.testing.assert_allclose(
                st_b.factor @ st_b.factor.T, st_c.covariance, rtol=1e-8, atol=1e-10
            )
            np.testing.assert_allclose(rep_a.gain, rep_c.gain, atol=1e-8)
            np.testing.assert_allclose(rep_b.gain, rep_c.gain, atol=1e-8)

    def test_pinned_one_matches_dense_reference_oracle(self):
        # textbook covariance-form update written out with dense inverses
        for _ in range(40):
            n = int(RNG.integers(1, 7))
            m = int(RNG.integers(1, 4))
            model, x, p, y = random_instance(RNG, n, m)
            h, r = np.asarray(model.H), np.asarray(model.R)
            k_oracle = p @ h.T @ np.linalg.inv(h @ p @ h.T + r)
            x_oracle = x + k_oracle @ (y - h @ x)
            i_kh = np.eye(n) - k_oracle @ h
            p_oracle = i_kh @ p @ i_kh.T + k_oracle @ r @ k_oracle.T
            st, rep = sr1b_measurement_update(
                model, FilterState.square_root(1, x, cholesky_lower(p)), y, None, pin_weight=1.0
            )
            np.testing.assert_allclose(st.estimate, x_oracle, atol=1e-9)
            np.testing.assert_allclose(
                st.factor @ st.factor.T, p_oracle, rtol=1e-8, atol=1e-11
            )

    def test_joseph_output_exactly_symmetric(self):
        model, x, p, y = random_instance(RNG, 4, 2)
        st, _ = mcckf_measurement_update(
            model, FilterState.full(1, x, p), y, None, pin_weight=0.7
        )
        assert np.array_equal(st.covariance, st.covariance.T)


class TestGainFormulaEquivalence:
    def test_dense_formulas_agree(self):
        for _ in range(200):
            n = int(RNG.integers(1, 7))
            m = int(RNG.integers(1, 4))
            _, _, p, _ = random_instance(RNG, n, m)
            model, _, _, _ = random_instance(RNG, n, m)
            h, r = np.asarray(model.H), np.asarray(model.R)
            for lam in (0.0, 0.3, 1.0):
                ka = gain_information_form(p, h, r, lam)
                kb = gain_innovation_form(p, h, r, lam)
                scale = max(np.linalg.norm(ka), np.linalg.norm(kb), 1e-300)
                assert np.linalg.norm(ka - kb) / scale < 1e-8 or (
                    lam == 0.0 and not ka.any() and not kb.any()
                )


class TestKfReference:
    def test_zero_h_is_pure_prediction(self):
        model = scalar_model(f=2.0, h=0.0)
        init = InitialCondition(np.array([1.0]), np.array([[1.0]]))
        state = run_filter("kf_reference", model, init, [[9.0]]).states[0]
        assert state.estimate[0] == pytest.approx(2.0)
        assert state.covariance[0, 0] == pytest.approx(5.0)

    def test_scalar_riccati_steady_state(self):
        f, q, r = 0.9, 0.2, 0.5
        model = scalar_model(f=f, q=q, r=r)
        # independent oracle: iterate the scalar recursion to its fixed point
        p = 1.0
        for _ in range(200):
            p_pred = f * f * p + q
            k = p_pred / (p_pred + r)
            p = (1 - k) ** 2 * p_pred + k * k * r
        k_oracle = (f * f * p + q) / ((f * f * p + q) + r)
        init = InitialCondition(np.zeros(1), np.eye(1))
        run = run_filter("kf_reference", model, init, np.zeros((200, 1)))
        assert run.status.completed
        assert run.reports[-1].gain[0, 0] == pytest.approx(k_oracle, rel=1e-12)

    def test_weighted_variants_reduce_to_reference(self):
        model, init, _ = build_example1()
        traj = simulate(model, init, 50, SeedSpec(3, 0), None)
        ref = run_filter("kf_reference", model, init, traj.measurements)
        for algorithm in ("conventional", "sr1a", "sr1b"):
            run = run_filter(algorithm, model, init, traj.measurements, pin_weight=1.0)
            diff = np.abs(run.estimates() - ref.estimates())
            scale = np.maximum(1.0, np.abs(ref.estimates()))
            assert (diff / scale).max() < 1e-10


class TestRunFilter:
    def test_empty_measurements_echo_initial(self):
        model = scalar_model()
        init = InitialCondition(np.zeros(1), np.eye(1))
        run = run_filter("conventional", model, init, [], KernelSpec(1.0))
        assert run.status.completed
        assert run.status.steps_completed == 0
        assert run.estimates().shape == (0, 1)
        np.testing.assert_array_equal(run.initial.estimate, init.mean)

    def test_radar_all_three_complete(self):
        model, init, shot = build_example1()
        traj = simulate(model, init, 300, SeedSpec(11, 0), shot)
        for algorithm in ("conventional", "sr1a", "sr1b"):
            run = run_filter(algorithm, model, init, traj.measurements, KernelSpec(3e4))
            assert run.status.completed
            assert run.status.steps_completed == 300

    def test_square_root_factors_stay_lower_with_nonneg_diagonal(self):
        model, init, shot = build_example1()
        traj = simulate(model, init, 80, SeedSpec(5, 0), shot)
        for algorithm in ("sr1a", "sr1b"):
            run = run_filter(algorithm, model, init, traj.measurements, KernelSpec(3e4))
            for state in run.states:
                assert np.allclose(np.triu(state.factor, 1), 0.0)
                assert (np.diag(state.factor) >= 0).all()

    def test_ill_conditioned_conventional_breaks(self):
        model, init = build_example2(1e-5)
        traj = simulate(model, init, 300, SeedSpec(7, 0), None)
        run = run_filter(
            "conventional", model, init, traj.measurements, KernelSpec(float("inf"))
        )
        assert not run.status.completed
        assert run.status.reason
        assert run.status.failed_step is not None

    def test_ill_conditioned_sr1b_survives(self):
        model, init = build_example2(1e-11)
        traj = simulate(model, init, 300, SeedSpec(7, 0), None)
        run = run_filter("sr1b", model, init, traj.measurements, KernelSpec(float("inf")))
        assert run.status.completed

    def test_divergence_limit_enforced(self):
        # an unstable noiseless system walks past the magnitude limit
        model = scalar_model(f=10.0, q=1e-6, r=1e6)
        init = InitialCondition(np.array([1.0]), np.eye(1))
        run = run_filter("conventional", model, init, np.zeros((40, 1)), None, pin_weight=0.0)
        assert not run.status.completed
        assert "magnitude" in run.status.reason

    def test_rejects_unknown_algorithm(self):
        model = scalar_model()
        init = InitialCondition(np.zeros(1), np.eye(1))
        with pytest.raises(ValueError, match="expected distinct algorithm names"):
            run_filter("fancy", model, init, [], KernelSpec(1.0))

    def test_spec_required_unless_pinned(self):
        model = scalar_model()
        init = InitialCondition(np.zeros(1), np.eye(1))
        with pytest.raises(ValueError, match="KernelSpec"):
            run_filter("sr1b", model, init, np.zeros((2, 1)))

    @pytest.mark.parametrize("algorithm", ["conventional", "sr1a", "sr1b"])
    def test_rejects_negative_pinned_weight(self, algorithm):
        model = scalar_model()
        init = InitialCondition(np.zeros(1), np.eye(1))
        for pin_weight in (-0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="pinned weight must be nonnegative"):
                run_filter(algorithm, model, init, np.zeros((2, 1)), None, pin_weight=pin_weight)

    def test_kf_reference_accepts_only_its_own_weight(self):
        model = scalar_model()
        init = InitialCondition(np.zeros(1), np.eye(1))
        for pin_weight in (np.nan, -1.0, 0.5):
            with pytest.raises(ValueError, match="kf_reference's weight is 1"):
                run_filter(
                    "kf_reference", model, init, np.zeros((2, 1)), None, pin_weight=pin_weight
                )
        run = run_filter("kf_reference", model, init, np.zeros((2, 1)), None, pin_weight=1.0)
        assert run.status.completed
        assert [r.lam for r in run.reports] == [1.0, 1.0]

    def test_rejects_measurements_that_are_not_one_vector_per_step(self):
        model, init, _ = build_example1()
        with pytest.raises(ValueError, match=r"one vector per step, got shape \(3, 2, 2\)"):
            run_filter("sr1b", model, init, np.zeros((3, 2, 2)), KernelSpec(3e4))

    def test_square_root_filters_start_from_the_read_only_initial_factor(self):
        model, init, shot = build_example1()
        ys = simulate(model, init, 5, SeedSpec(1, 0), shot).measurements
        run = run_filter("sr1b", model, init, ys, KernelSpec(3e4))
        assert run.initial.factor is init.factor
        with pytest.raises(ValueError):
            run.initial.factor[0, 0] = 0.0

    def test_conventional_symmetrizes_three_times_per_step(self, monkeypatch):
        # the time update, the information matrix and the Joseph form are
        # symmetrized; the predicted covariance is factored as the time
        # update returns it, not symmetrized again. The initial covariance
        # was symmetrized once, in the Cholesky check of its construction
        model, init, shot = build_example1()
        ys = simulate(model, init, 10, SeedSpec(3, 0), shot).measurements
        spec = KernelSpec(3e4)
        alone = run_filter("conventional", model, init, ys, spec)
        calls = []
        symmetrize = linalg_module.symmetrize

        def counted(a):
            calls.append(np.shape(a))
            return symmetrize(a)

        monkeypatch.setattr(linalg_module, "symmetrize", counted)
        run = run_filter("conventional", model, init, ys, spec)
        assert calls.count((6, 6)) == 3 * 10
        assert np.array_equal(run.estimates(), alone.estimates())

    def test_lambda_shared_across_algorithms(self):
        model, init, shot = build_example1()
        traj = simulate(model, init, 60, SeedSpec(2, 0), shot)
        spec = KernelSpec(3e4)
        lams = {}
        for algorithm in ("conventional", "sr1a", "sr1b"):
            run = run_filter(algorithm, model, init, traj.measurements, spec)
            lams[algorithm] = np.array([rep.lam for rep in run.reports])
        np.testing.assert_allclose(lams["conventional"], lams["sr1a"], rtol=1e-9)
        np.testing.assert_allclose(lams["conventional"], lams["sr1b"], rtol=1e-9)


def batch_measurements(model, init, horizon, seed, runs, shot=None):
    return np.stack(
        [simulate(model, init, horizon, SeedSpec(seed, i), shot).measurements for i in range(runs)]
    )


def assert_batch_matches_each_run(algorithm, model, init, measurements, spec):
    """run_batch gives every run exactly what run_filter gives it alone.

    ``model`` is one model for every run or a list with one model per run.
    """
    batch = run_batch(algorithm, model, init, measurements, spec)
    for i, ys in enumerate(measurements):
        model_i = model[i] if isinstance(model, list) else model
        alone = run_filter(algorithm, model_i, init, ys, spec)
        assert batch.statuses[i] == alone.status
        steps = alone.status.steps_completed
        assert np.array_equal(batch.estimates[i, :steps], alone.estimates())
        assert np.isnan(batch.estimates[i, steps:]).all()
    return batch


class TestRunBatch:
    def test_radar_with_live_weight_is_bit_identical(self):
        model, init, shot = build_example1()
        spec = KernelSpec(3e4)
        ys = batch_measurements(model, init, 300, 1, 4, shot)
        lams = np.array([rep.lam for rep in run_filter("sr1b", model, init, ys[0], spec).reports])
        assert 0.0 < lams.min() < 0.9  # the weight is live, neither 0 nor pinned at 1
        for algorithm in ("conventional", "sr1a", "sr1b", "kf_reference"):
            batch = assert_batch_matches_each_run(algorithm, model, init, ys, spec)
            assert all(status.completed for status in batch.statuses)
            # one run takes run_filter's path, without the runs axis
            assert_batch_matches_each_run(algorithm, model, init, ys[:1], spec)

    @pytest.mark.parametrize("delta", [1e-5, 1e-6, 1e-13])
    def test_sweep_model_failures_are_bit_identical(self, delta):
        model, init = build_example2(delta)
        ys = batch_measurements(model, init, 300, 1, 4)
        spec = KernelSpec(float("inf"))
        for algorithm in ("conventional", "sr1a", "sr1b", "kf_reference"):
            batch = assert_batch_matches_each_run(algorithm, model, init, ys, spec)
            if delta == 1e-13 and algorithm == "sr1b":
                # every run fails on the estimate bound, after the step-1
                # failures of conventional and sr1a; the steps depend on the
                # BLAS kernel ({19, 39} under SkylakeX, {9} under Haswell,
                # {17, 20} under Sandybridge)
                for status in batch.statuses:
                    assert status.failed_step > 1
                    assert "estimate magnitude exceeded" in status.reason
            assert_batch_matches_each_run(algorithm, model, init, ys[:1], spec)

    def test_sweep_deltas_in_one_batch_are_bit_identical(self):
        # one run per shipped sweep delta, each with its own model (H and R)
        deltas = ExperimentConfig.load(profile="sweep").sweep_deltas()
        models, ys = [], []
        for delta in deltas:
            model, init = build_example2(delta)
            models.append(model)
            ys.append(simulate(model, init, 300, SeedSpec(1, 0)).measurements)
        ys = np.stack(ys)
        spec = KernelSpec(float("inf"))
        failed = {}
        for algorithm in ("conventional", "sr1a", "sr1b", "kf_reference"):
            batch = assert_batch_matches_each_run(algorithm, models, init, ys, spec)
            failed[algorithm] = {
                delta: status.failed_step
                for delta, status in zip(deltas, batch.statuses)
                if not status.completed
            }
        for algorithm in ("conventional", "sr1a"):
            assert list(failed[algorithm]) == [d for d in deltas if d <= 1e-5]
            assert 1 <= min(failed[algorithm].values())
        # the steps depend on the BLAS kernel (sr1a at 1e-5: 46, 179 or 29;
        # sr1b at 1e-13 and 1e-14: 19 and 5, 9 and 7, or 20 and 7 under
        # SkylakeX, Haswell and Sandybridge); the order of the forms does not
        for delta, step in failed["sr1a"].items():
            assert step >= failed["conventional"][delta]
        assert list(failed["sr1b"]) == [1e-13, 1e-14]
        for delta, step in failed["sr1b"].items():
            assert step > max(failed["conventional"][delta], failed["sr1a"][delta])

    @pytest.mark.parametrize("seed", range(6))
    def test_random_models_one_per_run_are_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        if seed == 0:
            n, m, q = 8, 4, 4
        else:
            n, m, q = (int(rng.integers(1, high + 1)) for high in (8, 4, 4))
        models = [random_model(rng, n, m, q) for _ in range(4)]
        init = InitialCondition(rng.standard_normal(n), random_spd(rng, n))
        ys = np.stack(
            [
                simulate(mdl, init, 40, SeedSpec(seed, i)).measurements
                for i, mdl in enumerate(models)
            ]
        )
        spec = KernelSpec(2.0)
        reports = run_filter("sr1b", models[0], init, ys[0], spec).reports
        lams = np.array([rep.lam for rep in reports])
        assert 0.0 < lams.min() < 0.9  # the weight is live
        for algorithm in ("conventional", "sr1a", "sr1b", "kf_reference"):
            batch = assert_batch_matches_each_run(algorithm, models, init, ys, spec)
            assert all(status.completed for status in batch.statuses)

    def test_runs_failing_one_cholesky_at_different_columns(self, monkeypatch):
        # conventional's first Cholesky factors the predicted covariance
        # F P F^T + G Q G^T: zeroing row k of F and G zeroes its pivot k
        def model(zero_row):
            keep = np.ones(4)
            if zero_row is not None:
                keep[zero_row] = 0.0
            return StateSpaceModel(
                F=np.diag(0.9 * keep), G=np.diag(keep), H=np.ones((2, 4)), Q=np.eye(4), R=np.eye(2)
            )

        models = [model(None), model(3), model(None), model(1)]
        init = InitialCondition(np.zeros(4), np.eye(4))
        ys = np.random.default_rng(5).standard_normal((4, 6, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            batch = assert_batch_matches_each_run(
                "conventional", models, init, ys, KernelSpec(2.0)
            )
        assert [s.completed for s in batch.statuses] == [True, False, True, False]
        assert "NotPositiveDefinite: pivot 0.000000e+00 at index 3" in batch.statuses[1].reason
        assert "NotPositiveDefinite: pivot 0.000000e+00 at index 1" in batch.statuses[3].reason
        assert batch.statuses[1].failed_step == batch.statuses[3].failed_step == 1
        # both runs leave the batch together: step 1 is computed twice, not three times
        calls = []
        update = mcckf_measurement_update

        def counted(*args, **kwargs):
            calls.append(args[1].runs)
            return update(*args, **kwargs)

        monkeypatch.setattr(filters_module, "mcckf_measurement_update", counted)
        run_batch("conventional", models, init, ys, KernelSpec(2.0))
        assert calls == [4] + [2] * 6

    @pytest.mark.parametrize("algorithm", ["conventional", "sr1a", "sr1b"])
    def test_each_step_calls_the_weight_by_its_module_name(self, monkeypatch, algorithm):
        # the weight is looked up in mcckf.filters at call time, so a wrapper
        # bound to that name (a tracer, this double) sees every call
        model, init, shot = build_example1()
        spec = KernelSpec(3e4)
        ys = batch_measurements(model, init, 20, 6, 3, shot)
        alone = run_filter(algorithm, model, init, ys[0], spec)
        batch = run_batch(algorithm, model, init, ys, spec)
        calls = []

        def counted(spec, innovation, *args, **kwargs):
            calls.append(np.shape(innovation))
            return compute_lambda(spec, innovation, *args, **kwargs)

        monkeypatch.setattr(filters_module, "compute_lambda", counted)
        counted_alone = run_filter(algorithm, model, init, ys[0], spec)
        assert calls == [(2,)] * 20
        calls.clear()
        counted_batch = run_batch(algorithm, model, init, ys, spec)
        assert calls == [(3, 2)] * 20
        assert counted_alone.status == alone.status
        assert np.array_equal(counted_alone.estimates(), alone.estimates())
        assert [r.lam for r in counted_alone.reports] == [r.lam for r in alone.reports]
        assert counted_batch.statuses == batch.statuses
        assert np.array_equal(counted_batch.estimates, batch.estimates)

    @pytest.mark.parametrize("algorithm", ["conventional", "sr1a", "sr1b"])
    def test_inverse_r_factor_is_computed_once_and_read_at_every_step(
        self, monkeypatch, algorithm
    ):
        rng = np.random.default_rng(11)
        n, m = 4, 3
        inverted, read = [], []
        inverse = linalg_module.triangular_inverse

        def counted_inverse(l):
            if l.shape[-1] == m:  # sr1a also inverts the n x n predicted factor
                inverted.append(l.shape)
            return inverse(l)

        def counted_weight(spec, innovation, r_sqrt_inv, pin_weight=None):
            read.append(r_sqrt_inv)
            return compute_lambda(spec, innovation, r_sqrt_inv, pin_weight)

        monkeypatch.setattr(linalg_module, "triangular_inverse", counted_inverse)
        # each model inverts its R factor once, when it is made
        models = [random_model(rng, n, m, 2) for _ in range(3)]
        assert inverted == [(m, m)] * 3
        inverted.clear()
        init = InitialCondition(np.zeros(n), random_spd(rng, n))
        ys = np.stack(
            [simulate(mdl, init, 10, SeedSpec(11, i)).measurements for i, mdl in enumerate(models)]
        )
        monkeypatch.setattr(filters_module, "compute_lambda", counted_weight)
        assert run_filter(algorithm, models[0], init, ys[0], KernelSpec(2.0)).status.completed
        assert inverted == []
        assert len(read) == 10
        assert all(w is models[0].r_sqrt_inv for w in read)
        inverted.clear()
        read.clear()
        batch = run_batch(algorithm, models, init, ys, KernelSpec(2.0))
        assert all(status.completed for status in batch.statuses)
        # the batch stacks each model's own inverse R factor; no stack is inverted
        assert inverted == []
        assert len(read) == 10
        assert all(w is read[0] for w in read)
        assert np.array_equal(read[0], np.stack([mdl.r_sqrt_inv for mdl in models]))

    @pytest.mark.parametrize("algorithm", ["conventional", "sr1a", "sr1b"])
    def test_live_weights_of_runs_with_different_r_are_bit_identical(
        self, monkeypatch, algorithm
    ):
        rng = np.random.default_rng(12)
        models = [random_model(rng, 5, 3, 2) for _ in range(4)]
        assert all(not np.array_equal(a.R, b.R) for a, b in zip(models, models[1:]))
        init = InitialCondition(np.zeros(5), random_spd(rng, 5))
        ys = np.stack(
            [simulate(mdl, init, 30, SeedSpec(12, i)).measurements for i, mdl in enumerate(models)]
        )
        spec = KernelSpec(2.0)
        alone = [run_filter(algorithm, mdl, init, y, spec) for mdl, y in zip(models, ys)]
        weights = []

        def recorded(*args, **kwargs):
            lam = compute_lambda(*args, **kwargs)
            weights.append(lam)
            return lam

        monkeypatch.setattr(filters_module, "compute_lambda", recorded)
        batch = run_batch(algorithm, models, init, ys, spec)
        lams = np.array(weights)
        assert lams.shape == (30, 4)
        assert 0.0 < lams.min() < 0.9  # the weight is live
        for i, run in enumerate(alone):
            assert run.status.completed and batch.statuses[i] == run.status
            assert np.array_equal(batch.estimates[i], run.estimates())
            assert lams[:, i].tolist() == [report.lam for report in run.reports]

    # a solve against a factor whose diagonal the step has already checked
    # skips the check: conventional's Cholesky factors and the second solve
    # against sr1a's information factor and sr1b's innovation factor; sr1a
    # checks its predicted factor (inverted) and its information factor
    @pytest.mark.parametrize("algorithm, checked", [("conventional", 0), ("sr1a", 2), ("sr1b", 1)])
    def test_each_factor_is_checked_once_per_step(self, monkeypatch, algorithm, checked):
        model, init, shot = build_example1()
        ys = batch_measurements(model, init, 20, 4, 1, shot)[0]
        calls = []
        solve = linalg_module.triangular_solve

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return solve(*args, **kwargs)

        monkeypatch.setattr(linalg_module, "triangular_solve", counted)
        assert run_filter(algorithm, model, init, ys, KernelSpec(3e4)).status.completed
        assert len(calls) == checked * 20

    @pytest.mark.parametrize("algorithm", ["conventional", "sr1a", "sr1b"])
    def test_overflowing_innovation_norm_rejects_that_measurement_only(self, algorithm):
        model, init, shot = build_example1()
        spec = KernelSpec(3e4)
        ys = batch_measurements(model, init, 30, 1, 3, shot)
        ys[1, 2] = [1e200, 0.0]  # the R^-1 norm of run 1's step-3 innovation overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            batch = assert_batch_matches_each_run(algorithm, model, init, ys, spec)
            alone = run_filter(algorithm, model, init, ys[1], spec)
        assert all(status.completed for status in batch.statuses)
        # a zero weight rejects the measurement: the estimate is the prediction
        assert alone.reports[2].lam == 0.0
        prediction = np.matvec(model.F, alone.states[1].estimate)
        assert np.array_equal(alone.states[2].estimate, prediction)

    def test_kf_reference_fails_only_the_run_with_a_singular_innovation_covariance(self):
        # H P H^T + R rounds to [[1, 1], [1, 1]] at step 1 for run 1 only
        def model(h, r):
            return StateSpaceModel(F=[[0.5]], G=[[1.0]], H=h, Q=[[0.75]], R=r)

        singular = model([[1.0], [1.0]], np.diag([1e-300, 1e-300]))
        models = [model([[1.0], [2.0]], np.eye(2)), singular, model([[1.0], [1.0]], np.eye(2))]
        init = InitialCondition(np.zeros(1), np.eye(1))
        ys = np.random.default_rng(3).standard_normal((3, 5, 2))
        batch = assert_batch_matches_each_run("kf_reference", models, init, ys, None)
        assert [s.completed for s in batch.statuses] == [True, False, True]
        assert batch.statuses[1].reason == "step 1: LinalgError: singular innovation covariance"

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_runs_failing_different_checks_in_one_step(self, algorithm):
        model, init, shot = build_example1()
        spec = KernelSpec(float("inf"))  # weight 1: no measurement is rejected
        ys = batch_measurements(model, init, 6, 1, 4, shot)
        ys[0, 2] = np.nan  # fails the step's check of the innovation
        ys[2, 2] = 1e300  # passes the step, then fails the estimate bound
        batch = assert_batch_matches_each_run(algorithm, model, init, ys, spec)
        assert [s.failed_step for s in batch.statuses] == [3, None, 3, None]
        assert batch.statuses[2].reason == "step 3: estimate magnitude exceeded 1e+12"
        if algorithm != "kf_reference":  # which checks no innovation
            assert batch.statuses[0].reason == "step 3: NonFiniteInput: non-finite innovation"

    @pytest.mark.parametrize(
        "time_update, measurement_update",
        [
            (mcckf_time_update, mcckf_measurement_update),
            (sr_time_update, sr1a_measurement_update),
            (sr_time_update, sr1b_measurement_update),
        ],
    )
    def test_step_function_names_only_the_failing_runs(self, time_update, measurement_update):
        model, init, _ = build_example1()
        stack = _ModelStack(model, 4)
        estimate, covariance = np.zeros((4, 6)), np.stack([init.covariance] * 4)
        if time_update is sr_time_update:
            prior = FilterState.square_root(0, estimate, cholesky_lower(covariance))
        else:
            prior = FilterState.full(0, estimate, covariance)
        y = np.zeros((4, 2))
        y[0, 1], y[2] = np.nan, 1e300
        with pytest.raises(NonFiniteInput) as info:
            measurement_update(stack, time_update(stack, prior), y, KernelSpec(float("inf")))
        assert info.value.failed == {0: "non-finite innovation"}

    def test_rejects_wrong_shapes(self):
        model, init, _ = build_example1()
        with pytest.raises(ValueError, match="runs, steps, m"):
            run_batch("sr1b", model, init, np.zeros((3, 2)), KernelSpec(1.0))


class TestRunBatchInputs:
    def test_rejects_zero_runs_naming_the_shape(self):
        model, init, _ = build_example1()
        with pytest.raises(ValueError, match=r"at least one run, got shape \(0, 3, 2\)"):
            run_batch("sr1b", model, init, np.zeros((0, 3, 2)), KernelSpec(3e4))

    @pytest.mark.parametrize("count", [1, 3])
    def test_rejects_a_model_count_other_than_the_runs(self, count):
        model, init, _ = build_example1()
        with pytest.raises(ValueError, match=f"got {count} models for 2 runs"):
            run_batch("sr1b", [model] * count, init, np.zeros((2, 3, 2)), KernelSpec(3e4))

    @pytest.mark.parametrize("dims", [(5, 2, 2), (6, 1, 2), (6, 2, 1)])
    def test_rejects_models_of_unequal_dimensions(self, dims):
        model, init, _ = build_example1()
        other = dims_model(*dims)
        assert (other.state_dim, other.noise_dim, other.obs_dim) == dims
        with pytest.raises(ValueError, match="equal \\(state_dim, noise_dim, obs_dim\\)"):
            run_batch("sr1b", [model, other], init, np.zeros((2, 3, 2)), KernelSpec(3e4))


class TestMeasurementWidth:
    def test_run_filter_rejects_wrong_width(self):
        model, init, _ = build_example1()
        with pytest.raises(ValueError, match="2 components"):
            run_filter("sr1b", model, init, np.zeros((300, 1)), KernelSpec(3e4))

    def test_run_batch_rejects_wrong_width(self):
        model, init, _ = build_example1()
        with pytest.raises(ValueError, match="2 components"):
            run_batch("sr1b", model, init, np.zeros((2, 300, 1)), KernelSpec(3e4))

    def test_scalar_measurements_of_a_scalar_model(self):
        model = scalar_model()
        init = InitialCondition(np.zeros(1), np.eye(1))
        run = run_filter("sr1b", model, init, [0.5, 1.0], KernelSpec(1.0))
        assert run.status.completed and run.estimates().shape == (2, 1)
