"""Roundoff accuracy against an extended-precision reference: the paper's
claim that sr1b, which inverts only the m x m innovation factor, keeps its
accuracy where the conventional filter and sr1a, which invert n x n
covariance factors, lose it."""

import math

import numpy as np
import pytest

from mcckf.bench import build_example2
from mcckf.correntropy import KernelSpec
from mcckf.filters import WEIGHTED_FILTERS, run_batch, run_filter
from mcckf.model import InitialCondition, StateSpaceModel
from mcckf.sim import SeedSpec, simulate
from oracles import cholesky_ld, forward_ld, sr_kalman_array, sr_kalman_longdouble

pytestmark = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18,
    reason="longdouble is no wider than double here, so it cannot serve as a reference",
)

SEEDS = (1, 2, 3)
DELTAS = (1e-2, 1e-3)


def dense_kalman_longdouble(model, init, measurements):
    """The textbook Kalman filter in longdouble: the reference's reference."""
    matrices = (model.F, model.G, model.H, model.Q, model.R)
    f, g, h, q, r = (np.asarray(a, dtype=np.longdouble) for a in matrices)
    x = np.asarray(init.mean, dtype=np.longdouble)
    p = np.asarray(init.covariance, dtype=np.longdouble)
    estimates, covariances = [], []
    for y in np.asarray(measurements, dtype=np.longdouble):
        x, p = f @ x, f @ p @ f.T + g @ q @ g.T
        innovation_inv_factor = forward_ld(cholesky_ld(h @ p @ h.T + r), np.eye(len(r)))
        gain = p @ h.T @ innovation_inv_factor.T @ innovation_inv_factor
        x = x + gain @ (y - h @ x)
        i_kh = np.eye(len(x)) - gain @ h
        p = i_kh @ p @ i_kh.T + gain @ r @ gain.T
        estimates.append(x)
        covariances.append(p)
    return np.array(estimates), np.array(covariances)


def random_model(rng, n=4, m=2, q=2):
    """A stable, well-conditioned random model and initial condition."""
    f = rng.standard_normal((n, n))
    f *= 0.9 / max(abs(np.linalg.eigvals(f)))
    noise = [rng.standard_normal((d, d)) for d in (q, m, n)]
    q_cov, r_cov, p0 = (a @ a.T + np.eye(len(a)) for a in noise)
    model = StateSpaceModel(
        F=f, G=rng.standard_normal((n, q)), H=rng.standard_normal((m, n)), Q=q_cov, R=r_cov
    )
    return model, InitialCondition(mean=rng.standard_normal(n), covariance=p0)


@pytest.mark.parametrize("seed", range(5))
def test_reference_matches_a_dense_longdouble_kalman_filter(seed):
    model, init = random_model(np.random.default_rng(seed))
    measurements = simulate(model, init, 40, SeedSpec(seed, 0)).measurements
    estimates, covariances = sr_kalman_longdouble(model, init, measurements)
    dense_estimates, dense_covariances = dense_kalman_longdouble(model, init, measurements)
    for ours, dense in ((estimates, dense_estimates), (covariances, dense_covariances)):
        assert ours.dtype == np.longdouble
        assert np.abs(ours - dense).max() <= 1e-15 * np.abs(dense).max()


def estimate_error(estimates, reference) -> float:
    """The largest error of a double-precision estimate against the
    reference's, in the reference's posterior standard deviations: max over
    steps and components of |x - x_ref| / sqrt(P_ref,ii)."""
    x_ref, p_ref = reference
    return float(np.max(np.abs(estimates - x_ref) / np.sqrt(np.diagonal(p_ref, 0, -2, -1))))


def estimate_errors(delta):
    """Per filter, each seed's ``estimate_error``."""
    model, init = build_example2(delta)
    runs = [simulate(model, init, 300, SeedSpec(seed, 0)).measurements for seed in SEEDS]
    references = [sr_kalman_longdouble(model, init, ys) for ys in runs]
    errors = {}
    for algorithm in ("conventional", "sr1a", "sr1b"):
        batch = run_batch(algorithm, model, init, np.array(runs), KernelSpec(math.inf))
        assert all(status.completed for status in batch.statuses), algorithm
        errors[algorithm] = [
            estimate_error(x, reference) for x, reference in zip(batch.estimates, references)
        ]
    return errors


@pytest.mark.parametrize("delta", DELTAS)
def test_sr1b_is_accurate_where_the_covariance_inverting_forms_are_not(delta):
    """At delta 1e-2 and 1e-3 all three filters complete and the sweep calls
    them healthy, but only sr1b keeps the reference's estimate to 1e-8
    standard deviations; conventional and sr1a are at least 1e4 times
    further off. Measured over seeds 1-3: sr1b at most 5.5e-10, and the
    smallest ratio 4.2e5; seed 1 gives 3.1e-5 / 1.4e-4 / 5.7e-11 at 1e-2 and
    9.3e-3 / 8.3e-3 / 3.9e-10 at 1e-3 (conventional / sr1a / sr1b)."""
    errors = estimate_errors(delta)
    for seed, sr1b in zip(SEEDS, errors["sr1b"]):
        assert sr1b <= 1e-8, (seed, errors)
    for algorithm in ("conventional", "sr1a"):
        for seed, theirs, sr1b in zip(SEEDS, errors[algorithm], errors["sr1b"]):
            assert theirs >= 1e4 * sr1b, (seed, algorithm, errors)


def test_sr1b_error_follows_its_roundoff_trend_down_to_delta_1e_9():
    """Where the other forms break (1e-6 and 1e-9 on the shipped sweep), sr1b
    completes and its estimate error follows about 5e-13 / delta standard
    deviations; it is asserted within 4 times that trend. Measured over
    seeds 1-3: 0.93-1.48 times the trend, 4.8e-7 to 7.4e-7 at 1e-6 and
    4.7e-4 to 5.5e-4 at 1e-9."""
    deltas = (1e-6, 1e-9)
    pairs = [build_example2(delta) for delta in deltas]
    init = pairs[0][1]  # the same at every delta
    cells = [(delta, model, seed) for delta, (model, _) in zip(deltas, pairs) for seed in SEEDS]
    runs = [simulate(model, init, 300, SeedSpec(seed, 0)).measurements for _, model, seed in cells]
    models = [model for _, model, _ in cells]
    batch = run_batch("sr1b", models, init, np.array(runs), KernelSpec(math.inf))
    for (delta, model, seed), ys, x, status in zip(cells, runs, batch.estimates, batch.statuses):
        assert status.completed, (delta, seed)
        error = estimate_error(x, sr_kalman_longdouble(model, init, ys))
        assert error <= 2e-12 / delta, (delta, seed, error)


def covariance_errors(delta):
    """Per filter, the largest error over the steps of the double-precision
    posterior covariance against the reference's: max |P - P_ref| over the
    entries, relative to that step's max |P_ref|. At sigma = inf the
    covariance recursion does not read the data, so one seed serves."""
    model, init = build_example2(delta)
    ys = simulate(model, init, 300, SeedSpec(1, 0)).measurements
    _, references = sr_kalman_longdouble(model, init, ys)
    errors = {}
    for algorithm in ("conventional", "sr1a", "sr1b"):
        run = run_filter(algorithm, model, init, ys, KernelSpec(math.inf))
        assert run.status.completed, algorithm
        errors[algorithm] = max(
            float(np.abs(state.covariance_matrix() - p_ref).max() / np.abs(p_ref).max())
            for state, p_ref in zip(run.states, references)
        )
    return errors


@pytest.mark.parametrize("delta", DELTAS)
def test_sr1b_keeps_the_reference_covariance_where_the_other_forms_do_not(delta):
    """The same claim for the posterior covariance: sr1b's is within 1e-12 of
    the reference's, and conventional's and sr1a's are at least 1e4 times
    further off. Measured at 1e-2 / 1e-3: conventional 5.0e-10 / 5.1e-5,
    sr1a 9.5e-9 / 7.5e-5, sr1b 5.7e-15 / 9.1e-15 (smallest ratio 8.8e4)."""
    errors = covariance_errors(delta)
    assert errors["sr1b"] <= 1e-12, errors
    for algorithm in ("conventional", "sr1a"):
        assert errors[algorithm] >= 1e4 * errors["sr1b"], (algorithm, errors)


def pinned_errors(delta):
    """Per filter, each seed's ``estimate_error`` at sigma 1e3 / delta (mean
    weight 0.89-0.90) against the reference pinned to that run's own
    weights, or None for a run that failed."""
    model, init = build_example2(delta)
    runs = [simulate(model, init, 300, SeedSpec(seed, 0)).measurements for seed in SEEDS]
    errors = {}
    for algorithm in WEIGHTED_FILTERS:
        errors[algorithm] = []
        for ys in runs:
            run = run_filter(algorithm, model, init, ys, KernelSpec(1e3 / delta))
            if not run.status.completed:
                errors[algorithm].append(None)
                continue
            weights = [report.lam for report in run.reports]
            reference = sr_kalman_longdouble(model, init, ys, weights)
            errors[algorithm].append(estimate_error(run.estimates(), reference))
    return errors


@pytest.mark.parametrize("delta", (1e-2, 1e-3, 1e-4))
def test_the_ordering_holds_against_a_reference_pinned_to_the_live_weight(delta):
    """With a live weight, the reference takes at each step the weight the
    run under test computed, so only the update's arithmetic is compared.
    sr1b keeps its weight-1 trend bound of 2e-12 / delta: measured at most
    6.9e-11, 5.4e-10 and 9.1e-9 at 1e-2, 1e-3 and 1e-4 over seeds 1-3, 2.2
    times under the bound or more. At 1e-2 and 1e-3 conventional and sr1a
    are at least 1e4 times further off (smallest measured ratio 3.6e5). At
    1e-4 sr1a completes, so the sweep calls it healthy, yet it is 0.52 to
    1.1 standard deviations off, asserted at 0.1; conventional fails there
    (steps 269-282) and is not asserted."""
    errors = pinned_errors(delta)
    for seed, sr1b in zip(SEEDS, errors["sr1b"]):
        assert sr1b is not None and sr1b <= 2e-12 / delta, (seed, errors)
    if delta == 1e-4:
        assert all(error is not None and error >= 0.1 for error in errors["sr1a"]), errors
        return
    for algorithm in ("conventional", "sr1a"):
        for seed, theirs, sr1b in zip(SEEDS, errors[algorithm], errors["sr1b"]):
            assert theirs is not None and theirs >= 1e4 * sr1b, (seed, algorithm, errors)


@pytest.mark.parametrize("delta", (1e-3, 1e-6, 1e-9))
def test_sr1b_is_within_a_hundredfold_of_the_textbook_array_filter(delta):
    """At weight 1, the array filter (one triangularization of [[R^1/2, H S],
    [0, S]], no explicit gain and no I - K H) in double precision, through
    the kernels sr1b uses, is more accurate than sr1b, and sr1b stays within
    100 times its error. Measured over seeds 1-3: sr1b is 3.8-15.4 times
    further off at these deltas, and 3.7-25.9 times down to 1e-12, so a
    change that widens the gap well beyond that fails."""
    model, init = build_example2(delta)
    for seed in SEEDS:
        ys = simulate(model, init, 300, SeedSpec(seed, 0)).measurements
        reference = sr_kalman_longdouble(model, init, ys)
        array = estimate_error(sr_kalman_array(model, init, ys), reference)
        run = run_filter("sr1b", model, init, ys, KernelSpec(math.inf))
        assert run.status.completed, seed
        sr1b = estimate_error(run.estimates(), reference)
        assert array <= sr1b <= 100 * array, (seed, array, sr1b)
