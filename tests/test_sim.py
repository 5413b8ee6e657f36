"""Trajectory simulation, seeding, shot-noise injection."""

import csv

import numpy as np
import pytest

from mcckf import linalg
from mcckf.bench import build_example1, build_example2
from mcckf.cli import main
from mcckf.model import InitialCondition, StateSpaceModel
from mcckf.sim import SeedSpec, ShotNoiseSpec, draw_gaussian, _simulate, simulate
from mcckf.filters import run_filter
from oracles import simulate_per_step


def test_seed_determinism_bit_identical():
    model, init, shot = build_example1()
    a = simulate(model, init, 120, SeedSpec(5, 3), shot)
    b = simulate(model, init, 120, SeedSpec(5, 3), shot)
    assert np.array_equal(a.truth, b.truth)
    assert np.array_equal(a.measurements, b.measurements)
    assert a.outlier_log == b.outlier_log


@pytest.mark.parametrize("targets", ["both", "process", "measurement"])
def test_one_noise_draw_matches_per_step_draws(targets):
    model, init, _ = build_example1()
    shot = ShotNoiseSpec(targets=targets)
    for run_index in range(3):
        a = simulate(model, init, 300, SeedSpec(11, run_index), shot)
        initial_state, truth, measurements = simulate_per_step(
            model, init, 300, SeedSpec(11, run_index), shot
        )
        assert np.array_equal(a.initial_state, initial_state)
        assert np.array_equal(a.truth, truth)
        assert np.array_equal(a.measurements, measurements)


def assert_per_step_draws(got, model, init, horizon, seed, shot):
    """One run's (initial state, truth, measurements) equal the per-step
    oracle's in value and sign bit."""
    expected = simulate_per_step(model, init, horizon, seed, shot)
    for a, b in zip(got, expected, strict=True):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def runs_of(batch):
    """Each run's (initial state, truth, measurements) from ``_simulate``'s
    stacked arrays."""
    return list(zip(*batch[:3]))


class TestSimulateBatch:
    @pytest.mark.parametrize("targets", ["both", "process", "measurement", None])
    def test_radar_runs_match_the_per_step_oracle(self, targets):
        model, init, _ = build_example1()
        shot = None if targets is None else ShotNoiseSpec(targets=targets)
        seeds = [SeedSpec(13, i) for i in range(3)]
        batch = _simulate([model] * 3, init, 300, seeds, shot)
        assert [a.shape for a in batch[:3]] == [(3, 6), (3, 300, 6), (3, 300, 2)]
        assert len(batch[3]) == 3
        for run, seed in zip(runs_of(batch), seeds, strict=True):
            assert_per_step_draws(run, model, init, 300, seed, shot)

    def test_one_sweep_model_per_run(self):
        deltas = [10.0**-k for k in range(1, 15)]
        pairs = [build_example2(delta) for delta in deltas]
        init = pairs[0][1]
        seeds = [SeedSpec(4, 0)] * len(pairs)
        batch = _simulate([model for model, _ in pairs], init, 300, seeds, None)
        for run, (model, _), seed in zip(runs_of(batch), pairs, seeds, strict=True):
            assert_per_step_draws(run, model, init, 300, seed, None)

    def test_one_run_is_simulate(self):
        model, init, shot = build_example1()
        (run,) = runs_of(_simulate([model], init, 80, [SeedSpec(6, 2)], shot))
        assert_per_step_draws(run, model, init, 80, SeedSpec(6, 2), shot)
        alone = simulate(model, init, 80, SeedSpec(6, 2), shot)
        assert np.array_equal(run[1], alone.truth)
        assert np.array_equal(run[2], alone.measurements)

    def test_rejects_bad_batches(self):
        model, init, _ = build_example1()
        wide = StateSpaceModel(F=np.eye(6), G=np.ones((6, 1)), H=np.eye(6), Q=[[1.0]], R=np.eye(6))
        with pytest.raises(ValueError, match="got 2 models for 1 runs"):
            _simulate([model, model], init, 10, [SeedSpec(1, 0)], None)
        with pytest.raises(ValueError, match="at least one run"):
            _simulate([], init, 10, [], None)
        with pytest.raises(ValueError, match=r"equal \(state_dim, noise_dim, obs_dim\)"):
            _simulate([model, wide], init, 10, [SeedSpec(1, 0), SeedSpec(1, 1)], None)
        with pytest.raises(ValueError, match="horizon must be >= 1, got 0"):
            _simulate([model], init, 0, [SeedSpec(1, 0)], None)

    def test_factors_each_distinct_model_once(self, monkeypatch):
        # runs share a model by passing the same object; each distinct model
        # factors its Q and R when it is made, and the runs draw from those
        # factors and the initial condition's, so simulating factors nothing
        model, init, shot = build_example1()
        factored, cholesky = [], linalg.cholesky_lower

        def counted(a):
            factored.append(a)
            return cholesky(a)

        monkeypatch.setattr(linalg, "cholesky_lower", counted)
        twin = StateSpaceModel(F=model.F, G=model.G, H=model.H, Q=model.Q, R=model.R)
        assert [id(a) for a in factored] == [id(twin.Q), id(twin.R)]
        factored.clear()
        seeds = [SeedSpec(3, i) for i in range(4)]
        batch = _simulate([model, twin, model, twin], init, 20, seeds, shot)
        assert factored == []
        for run, seed in zip(runs_of(batch), seeds, strict=True):
            assert_per_step_draws(run, model, init, 20, seed, shot)


def test_different_run_indices_differ():
    model, init, shot = build_example1()
    a = simulate(model, init, 50, SeedSpec(5, 0), shot)
    b = simulate(model, init, 50, SeedSpec(5, 1), shot)
    assert not np.array_equal(a.measurements, b.measurements)


def test_zero_fraction_matches_shot_absent():
    model, init, _ = build_example1()
    none = simulate(model, init, 60, SeedSpec(9, 2), None)
    zero = simulate(model, init, 60, SeedSpec(9, 2), ShotNoiseSpec(corrupted_fraction=0.0))
    assert np.array_equal(none.truth, zero.truth)
    assert np.array_equal(none.measurements, zero.measurements)
    assert zero.outlier_log == []


def test_outlier_counts_magnitudes_window():
    model, init, shot = build_example1()
    traj = simulate(model, init, 300, SeedSpec(17, 0), shot)
    w_steps = sorted({s for s, ch, _ in traj.outlier_log if ch.startswith("w")})
    v_steps = sorted({s for s, ch, _ in traj.outlier_log if ch.startswith("v")})
    # 20% of the 280 eligible steps, per channel group
    assert len(w_steps) == 56
    assert len(v_steps) == 56
    assert all(21 <= s <= 300 for s in w_steps + v_steps)
    assert all(mag in range(0, 6) for _, _, mag in traj.outlier_log)


def test_outlier_schedule_independent_of_model_values():
    model_a, init_a, shot = build_example1()
    model_b = StateSpaceModel(
        F=np.asarray(model_a.F) * 0.5,
        G=model_a.G,
        H=model_a.H,
        Q=np.asarray(model_a.Q) * 10.0,
        R=np.asarray(model_a.R) * 0.1,
    )
    a = simulate(model_a, init_a, 300, SeedSpec(21, 4), shot)
    b = simulate(model_b, init_a, 300, SeedSpec(21, 4), shot)
    assert a.outlier_log == b.outlier_log


def test_targets_selection():
    model, init, _ = build_example1()
    only_w = simulate(
        model, init, 300, SeedSpec(3, 0), ShotNoiseSpec(targets="process")
    )
    only_v = simulate(
        model, init, 300, SeedSpec(3, 0), ShotNoiseSpec(targets="measurement")
    )
    assert all(ch.startswith("w") for _, ch, _ in only_w.outlier_log)
    assert all(ch.startswith("v") for _, ch, _ in only_v.outlier_log)


@pytest.mark.parametrize("name", ["F", "G", "H"])
def test_simulate_rejects_a_non_finite_system_matrix(name):
    # it once returned a NaN trajectory without a word; now the model rejects
    # the matrix when it is made
    matrices = dict(F=np.eye(2), G=np.eye(2), H=np.eye(2), Q=np.eye(2), R=np.eye(2))
    matrices[name] = np.array([[1.0, 0.0], [np.nan, 1.0]])
    with pytest.raises(ValueError) as info:
        model = StateSpaceModel(**matrices)
        simulate(model, InitialCondition(np.zeros(2), np.eye(2)), 5, SeedSpec(1, 0))
    assert str(info.value) == f"model validation failed: {name} contains non-finite entries"


def test_simulate_rejects_zero_horizon():
    model, init, shot = build_example1()
    with pytest.raises(ValueError, match="horizon must be >= 1, got 0"):
        simulate(model, init, 0, SeedSpec(1, 0), shot)


def test_shot_spec_validation():
    with pytest.raises(ValueError):
        ShotNoiseSpec(corrupted_fraction=1.5)
    with pytest.raises(ValueError):
        ShotNoiseSpec(magnitude_low=6, magnitude_high=5)
    with pytest.raises(ValueError):
        ShotNoiseSpec(window_start=0)
    with pytest.raises(ValueError):
        ShotNoiseSpec(targets="everything")
    # int64's range, which Generator.integers takes: once accepted, then
    # rejected inside simulate
    with pytest.raises(ValueError, match="magnitude bounds must lie in"):
        ShotNoiseSpec(magnitude_high=2**63)
    with pytest.raises(ValueError, match="magnitude bounds must lie in"):
        ShotNoiseSpec(magnitude_low=-(2**63) - 1)


@pytest.mark.parametrize(
    "bounds",
    [
        # a fractional window once failed in simulate with a raw IndexError,
        # fractional magnitudes once drew integers outside [low, high]
        {"window_start": 1.5, "window_end": 30.2},
        {"window_end": 40.0},
        {"magnitude_low": 2.5, "magnitude_high": 3.5},
        {"magnitude_high": "5"},
    ],
)
def test_shot_spec_bounds_must_be_integers(bounds):
    with pytest.raises(ValueError, match="magnitude and window bounds must be integers"):
        ShotNoiseSpec(**bounds)


def test_shot_spec_accepts_numpy_integers():
    spec = ShotNoiseSpec(magnitude_high=np.int64(3), window_end=np.int32(40))
    assert spec.corrupted_count(60) == 4


def test_shot_spec_int64_extremes_simulate():
    model, init, _ = build_example1()
    shot = ShotNoiseSpec(magnitude_low=-(2**63), magnitude_high=2**63 - 1)
    traj = simulate(model, init, 40, SeedSpec(1, 0), shot)
    assert all(-(2**63) <= magnitude < 2**63 for _, _, magnitude in traj.outlier_log)


@pytest.mark.parametrize(
    "args, name",
    [
        ((1.5,), "master_seed"),
        (("1",), "master_seed"),
        ((-1,), "master_seed"),
        ((1, -1), "run_index"),
        ((1, 2.0), "run_index"),
    ],
)
def test_seed_spec_rejects_a_non_integer_or_negative_field(args, name):
    # once accepted, then rejected by numpy inside simulate
    with pytest.raises(ValueError, match=f"^{name} must be a nonnegative integer, got "):
        SeedSpec(*args)


def test_seed_spec_accepts_numpy_integers():
    noise, _, _ = SeedSpec(np.int64(5), np.int32(3)).streams()
    same, _, _ = SeedSpec(5, 3).streams()
    assert noise.random() == same.random()


class TestDrawGaussian:
    def test_zero_factor_returns_mean(self):
        rng = np.random.default_rng(0)
        mean = np.array([1.0, -2.0])
        np.testing.assert_array_equal(
            draw_gaussian(rng, mean, np.zeros((2, 2))), mean
        )

    def test_sample_mean_clt_bound(self):
        rng = np.random.default_rng(123)
        draws = np.array([draw_gaussian(rng, np.zeros(1), np.eye(1))[0] for _ in range(10**5)])
        assert abs(draws.mean()) < 4.0 / np.sqrt(10**5)

    def test_empirical_covariance_matches_factor_gram(self):
        rng = np.random.default_rng(77)
        factor = np.array([[2.0, 0.0], [1.0, 1.0]])
        draws = np.array([draw_gaussian(rng, np.zeros(2), factor) for _ in range(10**5)])
        emp = np.cov(draws.T)
        target = factor @ factor.T
        rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
        assert rel < 0.05


@pytest.mark.parametrize("name", ["Q", "R", "initial covariance"])
def test_simulation_names_the_covariance_that_is_not_semidefinite(name):
    # the model or the initial condition rejects it when it is made, so
    # neither simulate nor run_monte_carlo can be handed it
    matrices = {"Q": np.eye(2), "R": np.eye(2), "initial covariance": np.eye(2), name: -np.eye(2)}
    with pytest.raises(ValueError) as info:
        model = StateSpaceModel(
            F=np.eye(2), G=np.eye(2), H=np.eye(2), Q=matrices["Q"], R=matrices["R"]
        )
        init = InitialCondition(np.zeros(2), matrices["initial covariance"])
        simulate(model, init, 5, SeedSpec(1, 0))
    assert str(info.value) == f"model validation failed: {name} not positive definite"


def test_innovation_whiteness_of_reference_filter():
    # lag-1 autocorrelation of the reference filter's innovations on its own
    # simulated data, averaged over 100 clean runs
    model, init, _ = build_example1()
    rhos = []
    for run_index in range(100):
        traj = simulate(model, init, 300, SeedSpec(31, run_index), None)
        run = run_filter("kf_reference", model, init, traj.measurements)
        assert run.status.completed
        innovations = np.array([rep.innovation for rep in run.reports])
        for ch in range(innovations.shape[1]):
            x = innovations[:, ch]
            x = x - x.mean()
            rho = (x[1:] @ x[:-1]) / (x @ x)
            rhos.append(rho)
    assert abs(np.mean(rhos)) < 0.1


def test_trajectory_csv_round_trip(tmp_path):
    # the trajectory.csv of `mcckf simulate` holds the trajectory simulate returns
    args = ["simulate", "--out", str(tmp_path), "--seed", "1", "--set", "monte_carlo.horizon=40"]
    assert main(args) == 0
    model, init, shot = build_example1()
    traj = simulate(model, init, 40, SeedSpec(1, 0), shot)
    header, *rows = csv.reader((tmp_path / "trajectory.csv").read_text().splitlines())
    assert header == "step,x1,x2,x3,x4,x5,x6,y1,y2,shot_w,shot_v".split(",")
    assert [row[0] for row in rows] == [str(k) for k in range(1, 41)]
    cells = np.array([[float(cell) for cell in row[1:9]] for row in rows])
    np.testing.assert_array_equal(cells, np.hstack([traj.truth, traj.measurements]))
    for column, group in ((9, "w"), (10, "v")):
        shots = {k for k, channel, _ in traj.outlier_log if channel.startswith(group)}
        assert shots
        assert [row[column] for row in rows] == [str(int(k in shots)) for k in range(1, 41)]
