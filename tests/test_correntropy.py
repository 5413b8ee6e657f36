"""Gaussian kernel, weighted norms and the adjusting weight."""

import numpy as np
import pytest

from mcckf.bench import build_example1
from mcckf.correntropy import (
    DegenerateWeight,
    KernelSpec,
    LambdaInputs,
    compute_lambda,
    gaussian_kernel,
    weighted_norm,
)
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
            gaussian_kernel(KernelSpec(1.0), np.inf)


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


class TestComputeLambda:
    def make_inputs(self, innovation, r_factor, pred_residual=None, p_factor=None):
        n = 4
        return LambdaInputs(
            innovation=np.atleast_1d(innovation),
            innovation_weight_factor=r_factor,
            prediction_residual=np.zeros(n) if pred_residual is None else pred_residual,
            prediction_weight_factor=np.eye(n) if p_factor is None else p_factor,
        )

    def test_batch_matches_each_run(self):
        spec = KernelSpec(1.5)
        for dim in (1, 2, 5):
            factors = np.array(
                [cholesky_lower(np.eye(dim) + 0.1 * np.ones((dim, dim))) for _ in range(4)]
            )
            innovations = RNG.standard_normal((4, dim)) * 3
            innovations[1] = 0.0
            for residuals in (np.zeros((4, 3)), RNG.standard_normal((4, 3))):
                batch = LambdaInputs(innovations, factors, residuals, np.array([np.eye(3)] * 4))
                weights = compute_lambda(spec, batch)
                for i in range(4):
                    alone = LambdaInputs(innovations[i], factors[i], residuals[i], np.eye(3))
                    assert weights[i] == compute_lambda(spec, alone)

    def test_both_zero_gives_one(self):
        inputs = self.make_inputs(np.zeros(2), np.eye(2))
        assert compute_lambda(KernelSpec(3.0), inputs) == 1.0

    def test_closed_form_scalar(self):
        inputs = self.make_inputs(np.array([1.0]), np.eye(1))
        assert compute_lambda(KernelSpec(1.0), inputs) == pytest.approx(
            np.exp(-0.5), rel=1e-15
        )

    def test_unit_interval_when_prediction_residual_zero(self):
        spec = KernelSpec(0.7)
        for _ in range(200):
            dim = int(RNG.integers(1, 4))
            inputs = self.make_inputs(RNG.standard_normal(dim) * 10, np.eye(dim))
            lam = compute_lambda(spec, inputs)
            assert 0.0 <= lam <= 1.0

    def test_one_iff_innovation_zero(self):
        spec = KernelSpec(2.0)
        assert compute_lambda(spec, self.make_inputs(np.zeros(2), np.eye(2))) == 1.0
        # any innovation that does not underflow the exponent drops it below 1
        lam = compute_lambda(spec, self.make_inputs(np.array([1e-3, 0.0]), np.eye(2)))
        assert lam < 1.0

    def test_scale_consistency(self):
        # replacing (residual, factor) by (c r, c factor) leaves the weight alone
        spec = KernelSpec(1.3)
        e = np.array([0.4, -1.1])
        factor = cholesky_lower(np.array([[2.0, 0.3], [0.3, 1.0]]))
        base = compute_lambda(spec, self.make_inputs(e, factor))
        for c in (0.01, 3.0, 1e4):
            scaled = compute_lambda(spec, self.make_inputs(c * e, c * factor))
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_limit_sigma_to_infinity_is_one(self):
        e = np.array([5.0, -2.0])
        inputs = self.make_inputs(e, np.eye(2))
        values = [
            compute_lambda(KernelSpec(s), inputs) for s in (1e2, 1e4, 1e8, 1e12)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0
        assert compute_lambda(KernelSpec(float("inf")), inputs) == 1.0

    def test_degenerate_denominator(self):
        inputs = LambdaInputs(
            innovation=np.array([0.1]),
            innovation_weight_factor=np.eye(1),
            prediction_residual=np.array([1e6]),
            prediction_weight_factor=np.eye(1),
        )
        with pytest.raises(DegenerateWeight):
            compute_lambda(KernelSpec(1.0), inputs)

    def test_radar_step1_dense_inverse_oracle(self):
        # straight-line transcription with an explicit matrix inverse; the
        # prediction residual is zero at step 1 so the denominator is one
        model, init, shot = build_example1()
        traj = simulate(model, init, 300, SeedSpec(42, 0), shot)
        innovation = traj.measurements[0]  # x_pred = F @ 0 = 0
        sigma = 3e4
        d2 = innovation @ np.linalg.inv(np.asarray(model.R)) @ innovation
        oracle = np.exp(-d2 / (2.0 * sigma**2)) / np.exp(0.0)
        inputs = LambdaInputs(
            innovation=innovation,
            innovation_weight_factor=cholesky_lower(np.asarray(model.R)),
            prediction_residual=np.zeros(6),
            prediction_weight_factor=cholesky_lower(np.asarray(init.covariance)),
        )
        lam = compute_lambda(KernelSpec(sigma), inputs)
        assert lam == pytest.approx(oracle, rel=1e-12)
        assert lam == pytest.approx(0.5369533117480962, rel=1e-9)
