"""Gaussian kernel, weighted norms and the adjusting weight."""

import warnings

import numpy as np
import pytest

from mcckf.bench import build_example1
from mcckf.correntropy import KernelSpec, compute_lambda, gaussian_kernel, weighted_norm
from mcckf.linalg import SingularFactor, cholesky_lower
from mcckf.sim import SeedSpec, simulate

RNG = np.random.default_rng(99)


class TestGaussianKernel:
    def test_zero_distance_is_one(self):
        for sigma in (0.1, 1.0, 1e6):
            assert gaussian_kernel(KernelSpec(sigma), 0.0) == 1.0

    def test_closed_form(self):
        assert gaussian_kernel(KernelSpec(1.0), 1.0) == pytest.approx(
            np.exp(-0.5), rel=1e-15
        )

    def test_scale_invariance(self):
        assert gaussian_kernel(KernelSpec(2.0), 2.0) == pytest.approx(
            np.exp(-0.5), rel=1e-15
        )

    def test_strictly_decreasing_in_distance(self):
        spec = KernelSpec(1.5)
        values = [gaussian_kernel(spec, d) for d in np.linspace(0, 10, 25)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_strictly_increasing_in_sigma(self):
        values = [gaussian_kernel(KernelSpec(s), 2.0) for s in (0.5, 1.0, 2.0, 8.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_underflow_to_zero_is_permitted(self):
        assert gaussian_kernel(KernelSpec(1.0), 1e6) == 0.0

    def test_infinite_bandwidth_pins_to_one(self):
        assert gaussian_kernel(KernelSpec(float("inf")), 1e300) == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            KernelSpec(0.0)
        with pytest.raises(ValueError):
            gaussian_kernel(KernelSpec(1.0), -1.0)
        with pytest.raises(ValueError):
            gaussian_kernel(KernelSpec(1.0), np.nan)

    # 2 sigma^2 underflows below the smallest normal double, or overflows
    @pytest.mark.parametrize("sigma", [1e-170, 1e-154, 9.5e153, 1e200, -np.inf, np.nan])
    def test_rejects_a_bandwidth_whose_scale_is_not_a_finite_normal_double(self, sigma):
        with pytest.raises(ValueError, match="kernel bandwidth must be"):
            KernelSpec(sigma)

    @pytest.mark.parametrize("sigma", [1.1e-154, 9.4e153])
    def test_bandwidth_at_either_end_keeps_the_kernel_defined(self, sigma):
        spec = KernelSpec(sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert gaussian_kernel(spec, 0.0) == 1.0
            assert gaussian_kernel(spec, np.inf) == 0.0
            assert gaussian_kernel(spec, 1.0) == (0.0 if sigma < 1.0 else 1.0)

    # a bad distance is found at the start, middle and end of small and large batches
    @pytest.mark.parametrize("size", [4, 32, 33, 1000])
    @pytest.mark.parametrize("bad", [np.nan, -1.0, -0.5e-300, -np.inf])
    def test_rejects_a_bad_distance_in_a_batch_of_any_size(self, size, bad):
        spec = KernelSpec(2.0)
        distances = RNG.uniform(0.0, 5.0, size)
        for position in (0, size // 2, size - 1):
            d = distances.copy()
            d[position] = bad
            with pytest.raises(ValueError, match="distance must be nonnegative"):
                gaussian_kernel(spec, d)

    # +inf gives the kernel's limit, 0, at the start, middle and end of a batch
    @pytest.mark.parametrize("size", [4, 32, 33, 1000])
    def test_infinite_distance_is_zero_in_a_batch_of_any_size(self, size):
        spec = KernelSpec(2.0)
        distances = RNG.uniform(0.0, 5.0, size)
        for position in (0, size // 2, size - 1):
            d = distances.copy()
            d[position] = np.inf
            values = gaussian_kernel(spec, d)
            assert values[position] == 0.0
            assert np.array_equal(values, [gaussian_kernel(spec, v) for v in d])

    def test_a_distance_whose_square_overflows_is_zero_without_a_warning(self):
        spec = KernelSpec(9.4e153)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gaussian_kernel(spec, 1e300) == 0.0
            values = gaussian_kernel(spec, np.array([1e300, 0.0, 1.3e154, np.inf]))
            # 2 sigma^2 underflows no further than the smallest normal double
            assert gaussian_kernel(KernelSpec(1.1e-154), 1.0) == 0.0
        assert np.array_equal(values, [0.0, 1.0, gaussian_kernel(spec, 1.3e154), 0.0])
        assert 0.0 < values[2] < 1.0

    @pytest.mark.parametrize("size", [4, 32, 33, 1000])
    def test_a_batch_of_any_size_gives_each_distance_its_value(self, size):
        spec = KernelSpec(2.0)
        distances = RNG.uniform(0.0, 5.0, size)
        distances[0] = 0.0
        values = gaussian_kernel(spec, distances)
        assert values[0] == 1.0
        assert np.array_equal(values, [gaussian_kernel(spec, d) for d in distances])


class TestWeightedNorm:
    def test_zero_residual(self):
        assert weighted_norm(np.zeros(3), np.eye(3)) == 0.0

    def test_identity_weight_is_euclidean(self):
        assert weighted_norm(np.array([3.0, 4.0]), np.eye(2)) == pytest.approx(5.0)

    def test_scalar_oracle(self):
        # explicit e^T W^-1 e with W = 4: 2 * 0.25 * 2 = 1
        factor = cholesky_lower(np.array([[4.0]]))
        direct = np.sqrt(np.array([2.0]) @ np.linalg.inv([[4.0]]) @ np.array([2.0]))
        assert weighted_norm(np.array([2.0]), factor) == pytest.approx(1.0)
        assert weighted_norm(np.array([2.0]), factor) == pytest.approx(direct)

    def test_matches_dense_inverse_on_random_weights(self):
        for _ in range(100):
            dim = int(RNG.integers(1, 6))
            q, _ = np.linalg.qr(RNG.standard_normal((dim, dim)))
            w = q @ np.diag(RNG.uniform(0.1, 10.0, dim)) @ q.T
            e = RNG.standard_normal(dim)
            expected = np.sqrt(e @ np.linalg.inv(w) @ e)
            got = weighted_norm(e, cholesky_lower(w))
            assert got == pytest.approx(expected, rel=1e-10)

    def test_singular_factor_propagates(self):
        with pytest.raises(SingularFactor):
            weighted_norm(np.ones(2), np.diag([1.0, 0.0]))
        # whatever the residual: a zero one takes the substitution too
        with pytest.raises(SingularFactor):
            weighted_norm(np.zeros(2), np.zeros((2, 2)))


class TestComputeLambda:
    def test_batch_matches_each_run(self):
        spec = KernelSpec(1.5)
        for dim in (1, 2, 5):
            factors = np.array(
                [cholesky_lower(np.eye(dim) + 0.1 * np.ones((dim, dim))) for _ in range(4)]
            )
            innovations = RNG.standard_normal((4, dim)) * 3
            innovations[1] = 0.0
            weights = compute_lambda(spec, innovations, factors)
            for i in range(4):
                assert weights[i] == compute_lambda(spec, innovations[i], factors[i])

    def test_both_zero_gives_one(self):
        assert compute_lambda(KernelSpec(3.0), np.zeros(2), np.eye(2)) == 1.0

    def test_closed_form_scalar(self):
        assert compute_lambda(KernelSpec(1.0), np.array([1.0]), np.eye(1)) == pytest.approx(
            np.exp(-0.5), rel=1e-15
        )

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
        lam = compute_lambda(spec, np.array([1e-3, 0.0]), np.eye(2))
        assert lam < 1.0

    def test_scale_consistency(self):
        # replacing (innovation, factor) by (c e, c factor) leaves the weight alone
        spec = KernelSpec(1.3)
        e = np.array([0.4, -1.1])
        factor = cholesky_lower(np.array([[2.0, 0.3], [0.3, 1.0]]))
        base = compute_lambda(spec, e, factor)
        for c in (0.01, 3.0, 1e4):
            scaled = compute_lambda(spec, c * e, c * factor)
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_limit_sigma_to_infinity_is_one(self):
        e = np.array([5.0, -2.0])
        values = [compute_lambda(KernelSpec(s), e, np.eye(2)) for s in (1e2, 1e4, 1e8, 1e12)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0
        assert compute_lambda(KernelSpec(float("inf")), e, np.eye(2)) == 1.0

    def test_infinite_bandwidth_skips_the_norm(self):
        # a singular factor would fail the solve: the norm is never computed
        spec = KernelSpec(float("inf"))
        assert compute_lambda(spec, np.ones(2), np.zeros((2, 2))) == 1.0
        batch = compute_lambda(spec, np.ones((3, 2)), np.zeros((3, 2, 2)))
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

    # finite inputs whose norm overflows: to inf (the square of 1e200), or to
    # NaN (the forward substitution's second row subtracts inf from inf)
    @pytest.mark.parametrize(
        "factor, innovation",
        [
            (np.eye(3), [1e200, 0.0, 0.0]),
            ([[1e-300, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]], [1e10, 0.0, 0.0]),
        ],
        ids=["inf", "nan"],
    )
    def test_a_norm_that_is_not_finite_gives_weight_zero(self, factor, innovation):
        spec = KernelSpec(1.5)
        factor, innovation = np.array(factor), np.array(innovation)
        with np.errstate(over="ignore", invalid="ignore"):
            norm = weighted_norm(innovation, factor)
        assert not np.isfinite(norm)
        factors = np.array([cholesky_lower(np.eye(3) + 0.1 * np.ones((3, 3)))] * 4)
        factors[2] = factor
        innovations = RNG.standard_normal((4, 3))
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
        lam = compute_lambda(KernelSpec(sigma), innovation, cholesky_lower(np.asarray(model.R)))
        assert lam == pytest.approx(oracle, rel=1e-12)
        assert lam == pytest.approx(0.5369533117480962, rel=1e-9)
