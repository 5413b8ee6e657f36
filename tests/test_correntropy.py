"""The kernel bandwidth and the adjusting weight."""

import math
import warnings

import numpy as np
import pytest

from mcckf import linalg as linalg_module
from mcckf.bench import RadarConstants, Scenario, build_example1, run_monte_carlo
from mcckf.correntropy import KernelSpec, compute_lambda
from mcckf.linalg import cholesky_lower, triangular_inverse
from mcckf.model import InitialCondition
from mcckf.sim import SeedSpec, ShotNoiseSpec, simulate

RNG = np.random.default_rng(99)


def inverse_factor(w):
    """R_sqrt^{-1} of an SPD w, as the model's cached ``r_sqrt_inv`` is computed."""
    return triangular_inverse(cholesky_lower(np.asarray(w, dtype=float)))


def random_spd(dim, low=0.1, high=10.0):
    q, _ = np.linalg.qr(RNG.standard_normal((dim, dim)))
    return q @ np.diag(RNG.uniform(low, high, dim)) @ q.T


def overflowing_inverse_factor(m=8):
    """A valid inverse R factor whose second row, [-2, 2, 0, ...], applied to
    [1e308, 1e308, 0, ...] gives two products that each overflow, with
    opposite signs."""
    w = np.eye(m)
    w[1, :2] = [-2.0, 2.0]
    return w


class TestKernelSpec:
    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_rejects_a_bandwidth_that_is_not_positive(self, sigma):
        with pytest.raises(ValueError, match="kernel bandwidth must be"):
            KernelSpec(sigma)

    # float() would turn the string into a number; the kernel could not use it
    @pytest.mark.parametrize("sigma", ["3e4", "inf", None, 1j, np.array([3e4])])
    def test_rejects_a_bandwidth_that_is_not_a_real_number(self, sigma):
        with pytest.raises(ValueError, match="kernel bandwidth must be a real number"):
            KernelSpec(sigma)

    @pytest.mark.parametrize("sigma", [3e4, np.float64(3e4), np.float32(3e4), 30000, np.inf])
    def test_accepts_python_and_numpy_reals(self, sigma):
        assert KernelSpec(sigma).sigma == sigma

    # 2 sigma^2 underflows below the smallest normal double, or overflows
    @pytest.mark.parametrize("sigma", [1e-170, 1e-154, 9.5e153, 1e200, -np.inf, np.nan])
    def test_rejects_a_bandwidth_whose_scale_is_not_a_finite_normal_double(self, sigma):
        with pytest.raises(ValueError, match="kernel bandwidth must be"):
            KernelSpec(sigma)


class TestComputeLambda:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    def test_batch_matches_each_run(self, dim):
        spec = KernelSpec(1.5)
        factors = np.array([inverse_factor(random_spd(dim)) for _ in range(4)])
        innovations = RNG.standard_normal((4, dim)) * 3
        innovations[1] = 0.0
        weights = compute_lambda(spec, innovations, factors)
        for i in range(4):
            assert weights[i] == compute_lambda(spec, innovations[i], factors[i])

    # a zero innovation and one whose whitened norm overflows (see
    # test_a_norm_that_is_not_finite_gives_weight_zero), at the start, middle
    # and end of small and large batches
    @pytest.mark.parametrize("overflow", ["inf", "nan"])
    @pytest.mark.parametrize("size", [4, 32, 33, 1000])
    def test_a_batch_of_any_size_gives_each_run_its_weight(self, size, overflow):
        spec = KernelSpec(2.0)
        factors = np.array([inverse_factor(random_spd(8))] * size)
        beyond = np.zeros(8)
        if overflow == "inf":
            beyond[0] = 1e200
        else:
            beyond[:2] = 1e308
        for position in (0, size // 2, size - 1):
            innovations = RNG.uniform(-3.0, 3.0, (size, 8))
            innovations[position] = beyond
            if overflow == "nan":
                factors[position] = overflowing_inverse_factor()
            innovations[(position + 1) % size] = 0.0
            weights = compute_lambda(spec, innovations, factors)
            assert weights[position] == 0.0
            assert weights[(position + 1) % size] == 1.0
            alone = [compute_lambda(spec, e, w) for e, w in zip(innovations, factors)]
            assert np.array_equal(weights, alone)

    def test_zero_innovation_gives_one(self):
        w = inverse_factor(random_spd(3))
        for sigma in (0.1, 1.0, 3.0, 1e6):
            assert compute_lambda(KernelSpec(sigma), np.zeros(2), np.eye(2)) == 1.0
            assert compute_lambda(KernelSpec(sigma), np.zeros(3), w) == 1.0

    def test_closed_form(self):
        assert compute_lambda(KernelSpec(1.0), np.array([1.0]), np.eye(1)) == pytest.approx(
            np.exp(-0.5), rel=1e-15
        )
        # e^T R^{-1} e with R = 4 and e = 2 is 1; sigma = 2 scales it by 1/8
        lam = compute_lambda(KernelSpec(2.0), np.array([2.0]), inverse_factor([[4.0]]))
        assert lam == pytest.approx(np.exp(-1.0 / 8.0), rel=1e-15)

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_matches_dense_inverse_on_random_covariances(self, dim):
        spec = KernelSpec(2.0)
        for _ in range(20):
            r = random_spd(dim)
            e = RNG.standard_normal(dim)
            oracle = np.exp(-(e @ np.linalg.inv(r) @ e) / (2.0 * spec.sigma**2))
            assert compute_lambda(spec, e, inverse_factor(r)) == pytest.approx(oracle, rel=1e-10)

    def test_unit_interval_when_prediction_residual_zero(self):
        spec = KernelSpec(0.7)
        for _ in range(200):
            dim = int(RNG.integers(1, 4))
            lam = compute_lambda(spec, RNG.standard_normal(dim) * 10, np.eye(dim))
            assert 0.0 <= lam <= 1.0

    def test_one_iff_innovation_zero(self):
        spec = KernelSpec(2.0)
        assert compute_lambda(spec, np.zeros(2), np.eye(2)) == 1.0
        # any innovation that does not underflow the exponent drops it below 1
        assert compute_lambda(spec, np.array([1e-3, 0.0]), np.eye(2)) < 1.0
        w = inverse_factor(random_spd(4))
        for _ in range(50):
            assert compute_lambda(spec, RNG.standard_normal(4) * 1e-3, w) < 1.0

    def test_strictly_decreasing_in_distance(self):
        spec = KernelSpec(1.5)
        direction = np.array([0.6, 0.8])
        values = [compute_lambda(spec, t * direction, np.eye(2)) for t in np.linspace(0, 10, 25)]
        assert values[0] == 1.0
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.0

    def test_strictly_increasing_in_sigma(self):
        e, w = np.array([1.0, -1.5]), inverse_factor([[2.0, 0.3], [0.3, 1.0]])
        values = [compute_lambda(KernelSpec(s), e, w) for s in (0.5, 1.0, 2.0, 8.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_underflow_to_zero_is_permitted(self):
        assert compute_lambda(KernelSpec(1.0), np.array([1e6]), np.eye(1)) == 0.0

    @pytest.mark.parametrize("c", [0.01, 3.0, 1e4])
    def test_scale_consistency(self, c):
        # replacing (innovation, inverse factor) by (c e, W / c) leaves the weight alone
        spec = KernelSpec(1.3)
        e = np.array([0.4, -1.1])
        w = inverse_factor([[2.0, 0.3], [0.3, 1.0]])
        scaled = compute_lambda(spec, c * e, w / c)
        assert scaled == pytest.approx(compute_lambda(spec, e, w), rel=1e-12)

    def test_limit_sigma_to_infinity_is_one(self):
        e = np.array([5.0, -2.0])
        values = [compute_lambda(KernelSpec(s), e, np.eye(2)) for s in (1e2, 1e4, 1e8, 1e12)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0
        assert compute_lambda(KernelSpec(float("inf")), e, np.eye(2)) == 1.0

    def test_infinite_bandwidth_skips_the_norm(self):
        # a NaN inverse factor would give weight 0: the norm is never computed
        spec = KernelSpec(float("inf"))
        assert compute_lambda(spec, np.ones(2), np.full((2, 2), np.nan)) == 1.0
        batch = compute_lambda(spec, np.ones((3, 2)), np.full((3, 2, 2), np.nan))
        assert np.array_equal(batch, [1.0] * 3)

    def test_pinned_weight(self):
        assert compute_lambda(None, np.ones(2), np.eye(2), pin_weight=0.25) == 0.25
        pinned = compute_lambda(KernelSpec(1.0), np.ones((3, 2)), np.eye(2), pin_weight=0)
        assert np.array_equal(pinned, np.zeros(3))
        for pin_weight in (-0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="pinned weight must be nonnegative and finite"):
                compute_lambda(None, np.ones(2), np.eye(2), pin_weight=pin_weight)
        with pytest.raises(ValueError, match="KernelSpec is required unless the weight is pinned"):
            compute_lambda(None, np.ones(2), np.eye(2))

    def test_whitens_without_a_substitution(self, monkeypatch):
        w = inverse_factor(random_spd(5))
        calls = []
        solve = linalg_module.triangular_solve

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(linalg_module, "triangular_solve", counted)
        spec = KernelSpec(1.5)
        assert 0.0 < compute_lambda(spec, RNG.standard_normal(5), w) < 1.0
        weights = compute_lambda(spec, RNG.standard_normal((3, 5)), np.stack([w] * 3))
        assert ((0.0 < weights) & (weights < 1.0)).all()
        assert calls == []

    @pytest.mark.parametrize("sigma", [1.1e-154, 9.4e153])
    def test_bandwidth_at_either_end_keeps_the_weight_defined(self, sigma):
        spec = KernelSpec(sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert compute_lambda(spec, np.zeros(2), np.eye(2)) == 1.0
            assert compute_lambda(spec, np.array([1.0]), np.eye(1)) == (
                0.0 if sigma < 1.0 else 1.0
            )
            assert compute_lambda(spec, np.array([1e300]), np.eye(1)) == 0.0

    def test_a_squared_norm_that_overflows_is_zero_without_a_warning(self):
        spec = KernelSpec(9.4e153)
        innovations = np.array([[1e300], [0.0], [1.3e154], [1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = compute_lambda(spec, innovations, np.broadcast_to(np.eye(1), (4, 1, 1)))
            # 2 sigma^2 underflows no further than the smallest normal double
            assert compute_lambda(KernelSpec(1.1e-154), np.array([1.0]), np.eye(1)) == 0.0
            alone = [compute_lambda(spec, e, np.eye(1)) for e in innovations]
        assert np.array_equal(values, alone)
        assert values[[0, 1, 3]].tolist() == [0.0, 1.0, 0.0]
        assert 0.0 < values[2] < 1.0

    # finite inputs whose whitened norm overflows: to inf (the square of
    # 1e200), or to NaN (the second row's two products each overflow, with
    # opposite signs, and their sum is inf - inf; a BLAS that accumulates
    # them with a fused multiply-add gives -inf instead)
    @pytest.mark.parametrize("overflow", ["inf", "nan"])
    def test_a_norm_that_is_not_finite_gives_weight_zero(self, overflow):
        spec = KernelSpec(1.5)
        innovation = np.zeros(8)
        if overflow == "inf":
            factor, innovation[0] = np.eye(8), 1e200
        else:
            factor, innovation[:2] = overflowing_inverse_factor(), 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            z = np.matvec(factor, innovation)
            assert not np.isfinite(np.vecdot(z, z))
            if overflow == "nan":
                # each product rounded on its own, then summed
                products = factor[1] * innovation
                assert products[:2].tolist() == [-np.inf, np.inf]
                assert np.isnan(products.sum())
        factors = np.array([inverse_factor(np.eye(8) + 0.1 * np.ones((8, 8)))] * 4)
        factors[2] = factor
        innovations = RNG.standard_normal((4, 8))
        innovations[2] = innovation
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert compute_lambda(spec, innovation, factor) == 0.0
            weights = compute_lambda(spec, innovations, factors)
            alone = [compute_lambda(spec, innovations[i], factors[i]) for i in range(4)]
        assert weights[2] == 0.0
        assert np.array_equal(weights, alone)
        assert (weights[[0, 1, 3]] > 0.0).all()

    def test_radar_step1_dense_inverse_oracle(self):
        # straight-line transcription with an explicit matrix inverse; the
        # estimate before step 1 is zero, so the innovation is the measurement
        model, init, shot = build_example1()
        traj = simulate(model, init, 300, SeedSpec(42, 0), shot)
        innovation = traj.measurements[0]  # x_pred = F @ 0 = 0
        sigma = 3e4
        d2 = innovation @ np.linalg.inv(np.asarray(model.R)) @ innovation
        oracle = np.exp(-d2 / (2.0 * sigma**2))
        lam = compute_lambda(KernelSpec(sigma), innovation, model.r_sqrt_inv)
        assert lam == pytest.approx(oracle, rel=1e-12)
        assert lam == pytest.approx(0.5369533117480962, rel=1e-9)


def measurement_shot_scenario():
    """The radar with shots on the measurements only, and the bearing slots
    of its initial covariance filled as the range slots are: the bearing
    variance v at (4,4), v/t beside it and 2v/t^2 plus the second
    maneuvering variance at (5,5). The shipped ``build_example1`` keeps its
    quirks there."""
    c = RadarConstants()
    model, init, _ = build_example1(c)
    v, t = c.bearing_noise_var, c.sampling_period
    pi0 = np.array(init.covariance)
    pi0[3, 3], pi0[3, 4], pi0[4, 3] = v, v / t, v / t
    pi0[4, 4] = 2.0 * v / t**2 + c.maneuver_var_2
    shot = ShotNoiseSpec(targets="measurement")
    return Scenario("measurement_shots", model, InitialCondition(init.mean, pi0), c.horizon, shot)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_finite_bandwidth_rejects_measurement_shots_on_bearing(seed):
    """What the weight buys: only bearing sees the integer shots (up to 294
    of its standard deviations, against 0.005 on range), and at sigma = 10
    sr1b's bearing RMSE is at most 1/20 of the Kalman filter's (sigma = inf)
    with every run completing. The RMSE is over all steps and runs. Measured
    over seeds 1-3, 20 runs each: bearing 70.5-71.9 times lower, at a range cost
    of 999-1039 against 809-826 for sigma = inf."""
    scenario = measurement_shot_scenario()
    rmse = {}
    for sigma in (10.0, math.inf):
        report = run_monte_carlo(["sr1b"], scenario, 20, seed, KernelSpec(sigma))["sr1b"]
        assert report.diverged_runs == 0, sigma
        rmse[sigma] = np.sqrt((report.per_component**2).mean(axis=0))
    range_, bearing = 0, 3
    assert rmse[10.0][bearing] <= rmse[math.inf][bearing] / 20, rmse
    # the price: the one weight also discounts range's innovation at each shot
    assert rmse[math.inf][range_] < rmse[10.0][range_] < 1.5 * rmse[math.inf][range_], rmse
