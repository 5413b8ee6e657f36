"""Factorization, triangularization and solve kernels."""

import warnings

import numpy as np
import pytest

import oracles
from mcckf.linalg import (
    LinalgError,
    NonFiniteInput,
    NotPositiveDefinite,
    NotSymmetric,
    SingularFactor,
    cholesky_lower,
    lower_triangularize,
    symmetrize,
    triangular_inverse,
    triangular_solve,
)
from oracles import condition_estimate

RNG = np.random.default_rng(20240517)


def random_spd(rng, dim, cond):
    """SPD matrix with prescribed condition number via a random rotation."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = np.logspace(0.0, -np.log10(cond), dim)
    return q @ np.diag(eigs) @ q.T


class TestCholeskyLower:
    def test_identity(self):
        assert np.array_equal(cholesky_lower(np.eye(3)), np.eye(3))

    def test_hand_2x2(self):
        # elimination by hand: l11 = 2, l21 = 2/2 = 1, l22 = sqrt(3 - 1)
        expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        l = cholesky_lower(np.array([[4.0, 2.0], [2.0, 3.0]]))
        np.testing.assert_allclose(l, expected, rtol=1e-15)
        np.testing.assert_allclose(l @ l.T, [[4.0, 2.0], [2.0, 3.0]], rtol=1e-15)

    def test_radar_measurement_noise_factor(self):
        # square root of a diagonal is the diagonal of square roots
        r = np.diag([1000.0**2, 0.017**2])
        np.testing.assert_allclose(
            cholesky_lower(r), np.diag([1000.0, 0.017]), rtol=1e-15
        )

    def test_reconstruction_property(self):
        for _ in range(200):
            dim = int(RNG.integers(1, 11))
            cond = 10.0 ** RNG.uniform(0, 6)
            a = random_spd(RNG, dim, cond)
            l = cholesky_lower(a)
            assert np.allclose(np.triu(l, 1), 0.0)
            assert (np.diag(l) > 0).all()
            err = np.linalg.norm(l @ l.T - a) / np.linalg.norm(a)
            assert err < 1e-12

    def test_rejects_zero_matrix(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_lower(np.zeros((2, 2)))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            cholesky_lower(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_tolerates_roundoff_asymmetry(self):
        a = np.array([[4.0, 2.0], [2.0 + 1e-12, 3.0]])
        l = cholesky_lower(a)
        np.testing.assert_allclose(l @ l.T, symmetrize(a), rtol=1e-12)

    def test_symmetrize_does_not_overflow(self):
        big = 1.5e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = symmetrize(np.array([[1.0, big], [big, big]]))
            stack = symmetrize(np.stack([np.diag([1.0, big]), [[2.0, 1.0], [3.0, 4.0]]]))
        assert np.array_equal(s, [[1.0, big], [big, big]])
        assert np.array_equal(stack, [np.diag([1.0, big]), [[2.0, 2.0], [2.0, 4.0]]])
        # a finite sum keeps the bits of (a + a.T) / 2, down to the subnormals
        a = RNG.standard_normal((3, 5, 5)) * np.array([1.0, 1e-310, 1e300])[:, None, None]
        assert np.array_equal(symmetrize(a), (a + a.mT) / 2.0)

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteInput):
            cholesky_lower(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 3)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="expected a square matrix"):
            cholesky_lower(np.ones(shape))

    def test_pivot_floor(self):
        # PD in exact arithmetic but far below the floor relative to its row
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-17]])
        with pytest.raises(NotPositiveDefinite):
            cholesky_lower(a)

    def test_pivot_floor_of_entries_whose_squares_overflow(self):
        # the row norm of 1e200 overflows when summed as squares
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            l = cholesky_lower(np.diag([1.0, 1e200]))
        assert np.array_equal(l, np.diag([1.0, 1e100]))

    def test_entries_whose_doubled_sum_overflows(self):
        # a + a.T overflows above about 9e307, its halves do not
        big = np.diag([1.0, 1.5e308])
        coupled = np.array([[1e308, 1e308], [1e308, 1.5e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            l = cholesky_lower(big)
            c = cholesky_lower(coupled)
        assert np.array_equal(l, np.diag([1.0, np.sqrt(1.5e308)]))
        assert np.array_equal(c[:, 0], [1e154, 1e154])
        assert c[1, 1] == np.sqrt(1.5e308 - 1e308)


class TestStackedCholeskyFailures:
    def test_entries_whose_doubled_sum_overflows(self):
        a = np.array([np.diag([1.0, 1.5e308]), np.diag([4.0, 9.0])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            l = cholesky_lower(a)
        assert np.array_equal(l, [np.diag([1.0, np.sqrt(1.5e308)]), np.diag([2.0, 3.0])])

    def test_every_failing_matrix_is_named_with_its_first_failed_pivot(self):
        a = np.array([random_spd(RNG, 4, 10.0) for _ in range(5)])
        # a negative pivot at index 2: its root is NaN
        a[1] = np.diag([1.0, 2.0, -1.0, 3.0])
        # a zero pivot at index 1 with a nonzero entry below it: the column
        # divides by a zero root
        a[3] = [[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0], [0.0, 1.0, 2.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
        alone = {}
        for i in (1, 3):
            with pytest.raises(NotPositiveDefinite) as exc:
                cholesky_lower(a[i])
            alone[i] = str(exc.value)
        assert "at index 2" in alone[1] and "at index 1" in alone[3]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite) as stacked:
                cholesky_lower(a)
        assert stacked.value.failed == alone
        assert str(stacked.value) == f"matrix 1: {alone[1]}; matrix 3: {alone[3]}"
        healthy = a[[0, 2, 4]]
        for got, want in zip(cholesky_lower(healthy), healthy):
            assert np.array_equal(got, cholesky_lower(want))


class TestStackedSolveChecks:
    def test_nan_diagonal_does_not_hide_a_zero_one(self):
        l = stack_of_factors(RNG, 3, 3)
        l[0, 0, 0] = np.nan
        l[2, 1, 1] = 0.0
        b = RNG.standard_normal((3, 3))
        with pytest.raises(SingularFactor) as alone:
            triangular_solve(np.diag([np.nan, 0.0, 1.0]), b[0])
        with pytest.raises(SingularFactor) as stacked:
            triangular_solve(l, b)
        assert stacked.value.failed == {2: str(alone.value)}
        with pytest.raises(SingularFactor) as inverse:
            triangular_inverse(l)
        assert inverse.value.failed == {2: str(alone.value)}


class TestLowerTriangularize:
    def test_already_triangular_padded(self):
        l = np.array([[2.0, 0.0], [1.0, 3.0]])
        pre = np.hstack([l, np.zeros((2, 3))])
        np.testing.assert_array_equal(lower_triangularize(pre), l)

    def test_row_vector(self):
        np.testing.assert_allclose(
            lower_triangularize(np.array([[3.0, 4.0]])), [[5.0]], rtol=1e-15
        )

    def test_gram_preservation_3x7(self):
        pre = RNG.standard_normal((3, 7))
        x = lower_triangularize(pre)
        np.testing.assert_allclose(x @ x.T, pre @ pre.T, rtol=1e-12, atol=1e-13)

    def test_gram_preservation_property(self):
        for _ in range(300):
            rows = int(RNG.integers(1, 7))
            cols = int(RNG.integers(rows, rows + 8))
            pre = RNG.standard_normal((rows, cols)) * 10.0 ** RNG.integers(-3, 4)
            x = lower_triangularize(pre)
            assert np.allclose(np.triu(x, 1), 0.0)
            assert (np.diag(x) >= 0).all()
            gram = pre @ pre.T
            scale = max(np.linalg.norm(gram), 1e-300)
            assert np.linalg.norm(x @ x.T - gram) / scale < 1e-12

    def test_idempotent_on_own_output(self):
        pre = RNG.standard_normal((4, 9))
        x = lower_triangularize(pre)
        again = lower_triangularize(np.hstack([x, np.zeros((4, 2))]))
        np.testing.assert_array_equal(again, x)

    def test_rank_deficient_gives_zero_diagonal(self):
        pre = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        x = lower_triangularize(pre)
        assert x[1, 1] == 0.0
        np.testing.assert_allclose(x @ x.T, pre @ pre.T, atol=1e-14)

    def test_is_the_signed_qr_factor_in_value_and_layout(self):
        # X is R^T of the QR of the transposed pre-array, as the transposed
        # view: products downstream depend on the layout too, since numpy may
        # take another BLAS path for a C-ordered operand. The kernel calls
        # LAPACK without np.linalg.qr's errstate, so extreme scales must not
        # warn either.
        rank_deficient = RNG.standard_normal((3, 6, 8))
        rank_deficient[1, 3] = rank_deficient[1, 1]
        pre_arrays = [
            RNG.standard_normal(shape)
            for shape in (
                (6, 8), (2, 4), (1, 3), (4, 6, 8), (12, 2, 4),
                (24, 28), (24, 32), (8, 32), (14, 6, 8),
            )
        ] + [rank_deficient]
        for base in pre_arrays:
            for scale in (1.0, 1e300, 1e-300, 1e-310):
                pre = base * scale
                pre[..., 0, :] = 0.0  # signed zeros on the first row
                r = np.linalg.qr(pre.mT, mode="r")
                signs = np.where(r.diagonal(0, -2, -1) < 0.0, -1.0, 1.0)
                expected = r.mT * signs[..., None, :]
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    x = lower_triangularize(pre)
                assert np.array_equal(x, expected), (base.shape, scale)
                assert np.array_equal(np.signbit(x), np.signbit(expected))
                assert x.strides == expected.strides

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteInput):
            lower_triangularize(np.array([[1.0, np.inf]]))

    def test_rejects_tall(self):
        with pytest.raises(ValueError):
            lower_triangularize(np.zeros((3, 2)))

    def test_rejects_one_dimensional(self):
        with pytest.raises(ValueError, match="expected a 2-D pre-array"):
            lower_triangularize(np.zeros(3))


class TestTriangularSolve:
    def test_identity(self):
        b = RNG.standard_normal(4)
        np.testing.assert_array_equal(triangular_solve(np.eye(4), b), b)

    def test_hand_forward(self):
        # forward substitution: x1 = 2/2 = 1, x2 = (1 + sqrt2 - 1) / sqrt2 = 1
        l = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        b = np.array([2.0, 1.0 + np.sqrt(2.0)])
        x = triangular_solve(l, b)
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-15)
        assert np.linalg.norm(l @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_radar_diagonal_inverse(self):
        l = np.diag([1000.0, 0.017])
        x = triangular_solve(l, np.eye(2))
        np.testing.assert_allclose(x, np.diag([1e-3, 1.0 / 0.017]), rtol=1e-15)

    def test_round_trip_property(self):
        for _ in range(300):
            dim = int(RNG.integers(1, 9))
            a = random_spd(RNG, dim, 10.0 ** RNG.uniform(0, 4))
            l = cholesky_lower(a)
            b = RNG.standard_normal((dim, int(RNG.integers(1, 4))))
            x = triangular_solve(l, b)
            assert np.linalg.norm(l @ x - b) <= 1e-12 * np.linalg.norm(b)
            xt = triangular_solve(l, b, transposed=True)
            assert np.linalg.norm(l.T @ xt - b) <= 1e-12 * np.linalg.norm(b)

    def test_rejects_zero_diagonal(self):
        with pytest.raises(SingularFactor):
            triangular_solve(np.array([[1.0, 0.0], [1.0, 0.0]]), np.ones(2))

    def test_rejects_subnormal_diagonal(self):
        tiny = np.finfo(float).tiny / 4.0
        with pytest.raises(SingularFactor):
            triangular_solve(np.diag([1.0, tiny, 1.0]), np.ones(3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            triangular_solve(np.eye(2), np.ones(3))


class TestTriangularInverse:
    def test_identity(self):
        np.testing.assert_array_equal(triangular_inverse(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_array_equal(
            triangular_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25])
        )

    def test_hand_2x2(self):
        l = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        expected = np.array(
            [[0.5, 0.0], [-1.0 / (2.0 * np.sqrt(2.0)), 1.0 / np.sqrt(2.0)]]
        )
        inv = triangular_inverse(l)
        np.testing.assert_allclose(inv, expected, rtol=1e-15)
        np.testing.assert_allclose(l @ inv, np.eye(2), atol=1e-15)

    def test_stays_lower_triangular(self):
        for _ in range(50):
            dim = int(RNG.integers(1, 8))
            l = cholesky_lower(random_spd(RNG, dim, 100.0))
            inv = triangular_inverse(l)
            assert np.array_equal(np.triu(inv, 1), np.zeros((dim, dim)))
            assert np.allclose(l @ inv, np.eye(dim), atol=1e-12)


class TestConditionEstimate:
    def test_identity(self):
        assert condition_estimate(np.eye(5)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert condition_estimate(np.diag([1.0, 1e-8])) == pytest.approx(1e8, rel=1e-9)

    def test_singular_is_inf(self):
        assert condition_estimate(np.zeros((2, 2))) == np.inf

    def test_non_finite_is_inf(self):
        assert condition_estimate(np.array([[np.nan, 0.0], [0.0, 1.0]])) == np.inf

    def test_nearly_collinear_rows_grow_like_delta_squared(self):
        # oracle: condition of H H^T from the singular values of H itself
        estimates = {}
        for delta in (1e-2, 1e-3, 1e-4):
            h = np.ones((2, 6))
            h[1, 5] += delta
            svals = np.linalg.svd(h, compute_uv=False)
            oracle = (svals[0] / svals[-1]) ** 2
            estimates[delta] = condition_estimate(h @ h.T)
            assert estimates[delta] == pytest.approx(oracle, rel=1e-6)
        # delta -> delta/10 inflates the condition number by about 100
        assert estimates[1e-3] / estimates[1e-2] == pytest.approx(100.0, rel=0.05)
        assert estimates[1e-4] / estimates[1e-3] == pytest.approx(100.0, rel=0.05)
        assert estimates[1e-4] >= 1e7


def stack_of_factors(rng, runs, dim):
    return np.array([cholesky_lower(random_spd(rng, dim, 100.0)) for _ in range(runs)])


class TestStackedKernels:
    """A stack gives every matrix the result of the 2-D call, bit for bit."""

    DIMS = (1, 2, 3, 6, 24)

    def test_cholesky_matches_each_slice(self):
        for dim in self.DIMS:
            for runs in (1, 2, 5):
                a = np.array([random_spd(RNG, dim, 1e4) for _ in range(runs)])
                stacked = cholesky_lower(a)
                for i in range(runs):
                    assert np.array_equal(stacked[i], cholesky_lower(a[i]))

    def test_solve_and_inverse_match_each_slice(self):
        for dim in self.DIMS:
            for runs in (1, 4):
                l = stack_of_factors(RNG, runs, dim)
                inverse = triangular_inverse(l)
                for rhs_shape in ((runs, dim), (runs, dim, 1), (runs, dim, 3)):
                    b = RNG.standard_normal(rhs_shape)
                    for transposed in (False, True):
                        x = triangular_solve(l, b, transposed=transposed)
                        for i in range(runs):
                            assert np.array_equal(
                                x[i], triangular_solve(l[i], b[i], transposed=transposed)
                            )
                for i in range(runs):
                    assert np.array_equal(inverse[i], triangular_inverse(l[i]))

    def test_lower_triangularize_matches_each_slice(self):
        for dim in self.DIMS:
            pre = RNG.standard_normal((3, dim, dim + 4))
            x = lower_triangularize(pre)
            for i in range(3):
                assert np.array_equal(x[i], lower_triangularize(pre[i]))

    def test_pivot_floor_names_the_failing_matrix(self):
        a = np.array([random_spd(RNG, 4, 10.0) for _ in range(4)])
        a[2] = np.ones((4, 4))
        with pytest.raises(NotPositiveDefinite) as stacked:
            cholesky_lower(a)
        with pytest.raises(NotPositiveDefinite) as alone:
            cholesky_lower(a[2])
        assert stacked.value.failed == {2: str(alone.value)}
        healthy = np.delete(a, 2, axis=0)
        for got, want in zip(cholesky_lower(healthy), healthy):
            assert np.array_equal(got, cholesky_lower(want))

    def test_pivot_floor_of_entries_whose_squares_overflow(self):
        a = np.array([np.diag([1.0, 1e200]), np.diag([4.0, 9.0])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            l = cholesky_lower(a)
        assert np.array_equal(l, [np.diag([1.0, 1e100]), np.diag([2.0, 3.0])])

    def test_stack_of_one_names_its_matrix(self):
        with pytest.raises(NotPositiveDefinite) as exc:
            cholesky_lower(np.ones((1, 3, 3)))
        assert list(exc.value.failed) == [0]

    def test_singular_diagonal_names_the_failing_factor(self):
        for dim in (1, 2, 5):
            l = stack_of_factors(RNG, 3, dim)
            l[1, dim - 1, dim - 1] = 0.0
            b = RNG.standard_normal((3, dim))
            with pytest.raises(SingularFactor) as stacked:
                triangular_solve(l, b)
            assert list(stacked.value.failed) == [1]
            for i in (0, 2):
                assert np.array_equal(
                    triangular_solve(l[[i]], b[[i]])[0], triangular_solve(l[i], b[i])
                )

    def test_non_finite_pre_array_names_the_failing_pre_array(self):
        pre = RNG.standard_normal((3, 2, 4))
        pre[0, 1, 3] = np.nan
        with pytest.raises(NonFiniteInput) as exc:
            lower_triangularize(pre)
        assert list(exc.value.failed) == [0]

    def test_rejects_mismatched_stacks(self):
        with pytest.raises(ValueError):
            triangular_solve(np.ones((2, 3, 3)), np.ones((3, 3)))


def outcome(call, *args):
    """What a call returns, or the class and message of the LinalgError it
    raises."""
    try:
        return call(*args)
    except LinalgError as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestLoopOracles:
    """The one-matrix kernels give the bits, the error class and the message
    of the loops they replaced, which made one ``@`` per row or element."""

    DIMS = range(1, 31)
    CONDITIONS = (1.0, 1e4, 1e8, 1e12, 1e15, 1e17)

    def test_cholesky(self):
        rng = np.random.default_rng(71)
        failures = 0
        for dim in self.DIMS:
            for cond in self.CONDITIONS:
                a = random_spd(rng, dim, cond) * 10.0 ** rng.uniform(-3.0, 3.0)
                want = outcome(oracles.cholesky_loop, a)
                assert_same_outcome(outcome(cholesky_lower, a), want)
                failures += isinstance(want, tuple)
        for a in (-np.eye(4), np.ones((5, 5)), np.zeros((3, 3))):
            assert_same_outcome(outcome(cholesky_lower, a), outcome(oracles.cholesky_loop, a))
        # the pivot floor rejects part of the ill-conditioned matrices
        assert 0 < failures < len(self.DIMS) * len(self.CONDITIONS)

    @staticmethod
    def factors(rng, dim, cond):
        """A C-ordered factor and the transposed view lower_triangularize
        returns, with columns scaled to a condition number of about cond."""
        scale = np.logspace(0.0, -np.log10(cond), dim)
        l = cholesky_lower(random_spd(rng, dim, 10.0)) * scale
        view = lower_triangularize(np.hstack([l, 1e-3 * rng.standard_normal((dim, 2))]))
        assert l.flags.c_contiguous and view.flags.f_contiguous
        return l, view

    def test_solve_and_inverse(self):
        rng = np.random.default_rng(72)
        for dim in self.DIMS:
            for cond in self.CONDITIONS:
                for l in self.factors(rng, dim, cond):
                    for shape in ((dim,), (dim, 1), (dim, 3)):
                        b = rng.standard_normal(shape)
                        for transposed in (False, True):
                            assert_same_outcome(
                                triangular_solve(l, b, transposed),
                                oracles.solve_loop(l, b, transposed),
                            )
                    assert_same_outcome(
                        triangular_inverse(l), oracles.solve_loop(l, np.eye(dim))
                    )

    def test_singular_factor(self):
        rng = np.random.default_rng(73)
        for dim in self.DIMS:
            for bad in (0.0, -0.0, 1e-310):
                for l in self.factors(rng, dim, 1e4):
                    l = l.copy(order="K")
                    k = int(rng.integers(dim))
                    l[k, k] = bad
                    b = rng.standard_normal(dim)
                    for transposed in (False, True):
                        want = outcome(oracles.solve_loop, l, b, transposed)
                        assert want[0] is SingularFactor
                        assert outcome(triangular_solve, l, b, transposed) == want
                    assert outcome(triangular_inverse, l) == want
