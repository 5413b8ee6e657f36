"""Scenario builders, Monte Carlo harness and CSV reports."""

import math

import numpy as np
import pytest

from mcckf.bench import (
    BLOWUP_FACTOR,
    RadarConstants,
    RmseReport,
    Scenario,
    SweepReport,
    _evaluate,
    build_example1,
    build_example2,
    ill_conditioned_scenario,
    radar_scenario,
    run_conditioning_sweep,
    run_monte_carlo,
    write_csv,
)
from mcckf.correntropy import KernelSpec
from mcckf.filters import run_filter
from mcckf.model import InitialCondition, StateSpaceModel, validate_model
from mcckf.sim import SeedSpec, ShotNoiseSpec, simulate
from oracles import condition_estimate


class TestBuildExample1:
    def test_printed_constants(self):
        model, init, shot = build_example1()
        f = np.asarray(model.F)
        assert f[0, 1] == 10.0
        assert f[2, 2] == 0.5
        assert f[3, 4] == 10.0
        assert f[5, 5] == 0.5
        pi0 = np.asarray(init.covariance)
        assert pi0[0, 0] == 1e6
        assert pi0[0, 1] == 1e5
        # deliberate quirks: standard deviation at the bearing slot, first
        # maneuvering variance added at the bearing-rate slot
        assert pi0[3, 3] == 0.017
        assert pi0[4, 4] == pytest.approx(2 * 0.017 / 100.0 + (103.0 / 3.0) ** 2)
        assert pi0[5, 5] == 1.3e-8
        r = np.asarray(model.R)
        assert r[0, 0] == 1e6
        assert r[1, 1] == pytest.approx(0.017**2)
        q = np.asarray(model.Q)
        assert q[0, 0] == pytest.approx((103.0 / 3.0) ** 2)
        assert q[1, 1] == 1.3e-8

    def test_noise_input_selects_maneuver_states(self):
        model, _, _ = build_example1()
        g = np.asarray(model.G)
        expected = np.zeros((6, 2))
        expected[2, 0] = 1.0
        expected[5, 1] = 1.0
        np.testing.assert_array_equal(g, expected)
        gqg = g @ np.asarray(model.Q) @ g.T
        assert gqg[2, 2] == pytest.approx((103.0 / 3.0) ** 2)
        assert gqg[5, 5] == 1.3e-8
        assert np.count_nonzero(gqg) == 2

    def test_validates_clean(self):
        model, init, _ = build_example1()
        assert validate_model(model, init, require_spd_init=True) == []

    def test_shot_spec_defaults(self):
        _, _, shot = build_example1()
        assert shot == ShotNoiseSpec()
        assert shot.corrupted_count(300) == 56


class TestBuildExample2:
    def test_measurement_rows(self):
        model, init = build_example2(1.0)
        h = np.asarray(model.H)
        assert h[1, 5] == 2.0
        np.testing.assert_array_equal(h[0], np.ones(6))
        np.testing.assert_array_equal(np.asarray(init.covariance), np.eye(6))
        np.testing.assert_array_equal(np.asarray(init.mean), np.zeros(6))

    def test_r_scales_with_delta_squared(self):
        delta = 1e-3
        model, _ = build_example2(delta)
        np.testing.assert_array_equal(np.asarray(model.R), delta**2 * np.eye(2))

    def test_conditioning_grows(self):
        model, _ = build_example2(1e-4)
        assert condition_estimate(np.asarray(model.H) @ np.asarray(model.H).T) >= 1e7

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            build_example2(0.0)


def tiny_scenario(horizon=4):
    model = StateSpaceModel(F=[[1.0]], G=[[1.0]], H=[[1.0]], Q=[[0.5]], R=[[0.2]])
    init = InitialCondition(np.zeros(1), np.eye(1))
    return Scenario("tiny", model, init, horizon)


class TestRunMonteCarlo:
    def test_perfect_estimator_scores_zero(self):
        def perfect(model, init, trajectory, spec):
            return trajectory.truth.copy()

        reports = run_monte_carlo([perfect], tiny_scenario(), 5, 2, KernelSpec(1.0))
        report = reports["perfect"]
        assert np.all(report.per_component == 0.0)
        assert np.all(report.total == 0.0)
        assert report.scalar_summary == 0.0

    def test_single_run_identity(self):
        def offset(model, init, trajectory, spec):
            est = trajectory.truth.copy()
            est[0, 0] -= 3.0
            est[1, 0] -= 4.0
            return est

        reports = run_monte_carlo([offset], tiny_scenario(horizon=2), 1, 2, KernelSpec(1.0))
        np.testing.assert_allclose(reports["offset"].total, [3.0, 4.0])
        assert reports["offset"].scalar_summary == pytest.approx(3.5)

    def test_perfect_beats_real_filter(self):
        def perfect(model, init, trajectory, spec):
            return trajectory.truth.copy()

        reports = run_monte_carlo(
            [perfect, "kf_reference"], tiny_scenario(horizon=30), 10, 2, KernelSpec(1.0)
        )
        assert reports["perfect"].scalar_summary < reports["kf_reference"].scalar_summary

    def test_equal_conditions_same_trajectory_objects(self):
        seen = {"a": [], "b": []}

        def make_recorder(tag):
            def recorder(model, init, trajectory, spec):
                seen[tag].append(id(trajectory))
                return trajectory.truth.copy()

            recorder.__name__ = tag
            return recorder

        run_monte_carlo(
            [make_recorder("a"), make_recorder("b")],
            tiny_scenario(),
            4,
            2,
            KernelSpec(1.0),
        )
        assert seen["a"] == seen["b"]
        assert len(set(seen["a"])) == 4

    def test_deterministic_with_same_seed(self):
        scenario = radar_scenario(RadarConstants(horizon=40))
        a = run_monte_carlo(["sr1b"], scenario, 3, 5, KernelSpec(3e4))
        b = run_monte_carlo(["sr1b"], scenario, 3, 5, KernelSpec(3e4))
        np.testing.assert_array_equal(a["sr1b"].total, b["sr1b"].total)

    def test_diverged_runs_excluded_and_counted(self):
        scenario = ill_conditioned_scenario(1e-5, RadarConstants(horizon=60))
        reports = run_monte_carlo(
            ["conventional", "sr1b"], scenario, 3, 7, KernelSpec(float("inf"))
        )
        conv = reports["conventional"]
        assert conv.diverged_runs > 0
        assert conv.completed_runs + conv.diverged_runs == 3
        if conv.completed_runs == 0:
            assert math.isnan(conv.scalar_summary)
        assert reports["sr1b"].diverged_runs == 0
        assert math.isfinite(reports["sr1b"].scalar_summary)

    @pytest.mark.parametrize(
        "scenario, spec",
        [
            (radar_scenario(), KernelSpec(3e4)),
            (ill_conditioned_scenario(1e-5), KernelSpec(float("inf"))),
            (ill_conditioned_scenario(1e-6), KernelSpec(float("inf"))),
            (ill_conditioned_scenario(1e-13), KernelSpec(float("inf"))),
        ],
    )
    def test_batched_runs_match_per_run_filters(self, scenario, spec):
        # the per-run loop and RMSE accumulation the harness is defined by
        runs, algorithms = 4, ("conventional", "sr1a", "sr1b")
        reports = run_monte_carlo(algorithms, scenario, runs, 1, spec)
        for algorithm in algorithms:
            sq_sum, completed, statuses = 0.0, 0, []
            for i in range(runs):
                trajectory = simulate(
                    scenario.model, scenario.init, scenario.horizon, SeedSpec(1, i), scenario.shot
                )
                run = run_filter(algorithm, scenario.model, scenario.init, trajectory.measurements, spec)
                statuses.append(run.status)
                if run.status.completed:
                    err = trajectory.truth - run.estimates()
                    sq_sum = sq_sum + err * err
                    completed += 1
            report = reports[algorithm]
            assert report.statuses == statuses
            assert report.completed_runs == completed
            if completed:
                assert np.array_equal(report.per_component, np.sqrt(sq_sum / completed))

    def test_failure_reasons_stay_typed_per_run(self):
        reports = run_monte_carlo(
            ["conventional", "sr1a", "sr1b"],
            ill_conditioned_scenario(1e-5),
            4,
            1,
            KernelSpec(float("inf")),
        )
        for status in reports["conventional"].statuses:
            assert status.failed_step == 3
            assert status.reason.startswith("step 3: NotPositiveDefinite: pivot ")
        for status in reports["sr1a"].statuses:
            assert status.failed_step == 46
            assert status.reason == "step 46: estimate magnitude exceeded 1e+12"
        assert all(status.completed for status in reports["sr1b"].statuses)

    def test_rejects_bad_runs_and_duplicates(self):
        with pytest.raises(ValueError):
            run_monte_carlo(["sr1b"], tiny_scenario(), 0, 1, KernelSpec(1.0))
        with pytest.raises(ValueError):
            run_monte_carlo(["sr1b", "sr1b"], tiny_scenario(), 1, 1, KernelSpec(1.0))
        with pytest.raises(ValueError, match="unknown algorithm 'fancy'"):
            run_monte_carlo(["fancy"], tiny_scenario(), 1, 1, KernelSpec(1.0))


class TestConditioningSweep:
    def test_breakdown_recording(self):
        report = run_conditioning_sweep(
            ["conventional", "sr1b"],
            [1e-1, 1e-5],
            2,
            7,
            KernelSpec(float("inf")),
            RadarConstants(horizon=80),
        )
        assert report.breakdown_delta["conventional"] == 1e-5
        assert report.breakdown_delta["sr1b"] is None
        blown = {
            (e.delta, e.algorithm): e.blown_up for e in report.entries
        }
        assert blown[(1e-1, "conventional")] is False
        assert blown[(1e-5, "conventional")] is True
        assert blown[(1e-5, "sr1b")] is False

    def test_matches_per_delta_monte_carlo(self):
        # the sweep batches every delta's runs into one run_batch per filter;
        # it must report what a Monte Carlo evaluation per delta gives
        def truth_plus_r(model, init, trajectory, spec):
            return trajectory.truth + model.R[0, 0]  # depends on the delta's model

        algorithms = ["conventional", "sr1a", "sr1b", "kf_reference", truth_plus_r]
        deltas = [1e-1, 1e-5, 1e-13]
        constants = RadarConstants(horizon=60)
        spec = KernelSpec(float("inf"))
        report = run_conditioning_sweep(algorithms, deltas, 2, 1, spec, constants)

        per_delta = [
            run_monte_carlo(algorithms, ill_conditioned_scenario(d, constants), 2, 1, spec)
            for d in deltas
        ]
        names = list(per_delta[0])
        baseline = {name: per_delta[0][name].scalar_summary for name in names}
        breakdown = dict.fromkeys(names)
        entries = iter(report.entries)
        for delta, reports in zip(deltas, per_delta):
            for name in names:
                mc, entry = reports[name], next(entries)
                blown = (
                    mc.diverged_runs > 0
                    or not math.isfinite(mc.scalar_summary)
                    or not math.isfinite(baseline[name])
                    or mc.scalar_summary > BLOWUP_FACTOR * baseline[name]
                )
                assert (entry.delta, entry.algorithm) == (delta, name)
                assert entry.completed_runs == mc.completed_runs
                assert entry.diverged_runs == mc.diverged_runs
                assert entry.blown_up == blown
                assert np.array_equal(entry.scalar_rmse, mc.scalar_summary, equal_nan=True)
                if blown and breakdown[name] is None:
                    breakdown[name] = delta
        assert next(entries, None) is None
        assert report.breakdown_delta == breakdown
        # failing runs are covered: conventional dies at 1e-5, sr1b at 1e-13
        assert breakdown["conventional"] == 1e-5 and breakdown["sr1b"] == 1e-13
        assert breakdown["truth_plus_r"] is None

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            run_conditioning_sweep(["sr1b"], [], 1, 1, KernelSpec(1.0))
        with pytest.raises(ValueError):
            run_conditioning_sweep(["sr1b"], [1e-3, 1e-2], 1, 1, KernelSpec(1.0))


@pytest.mark.parametrize(
    "other",
    [
        ill_conditioned_scenario(1e-2, RadarConstants(horizon=50)),
        Scenario("shot", *build_example2(1e-2), 60, ShotNoiseSpec()),
    ],
    ids=["horizon", "shot"],
)
def test_evaluation_scenarios_share_horizon_and_shot(other):
    # one simulate_batch call draws every scenario's runs
    with pytest.raises(ValueError, match="must share the horizon and shot spec"):
        first = ill_conditioned_scenario(1e-1, RadarConstants(horizon=60))
        _evaluate(["sr1b"], [first, other], 1, 1, KernelSpec(1.0))


class TestWriteCsv:
    def test_rmse_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        per_component = rng.standard_normal((3, 2)) ** 2
        total = np.sqrt((per_component**2).sum(axis=1))
        report = RmseReport(
            algorithm="sr1b",
            per_component=per_component,
            total=total,
            scalar_summary=float(total.mean()),
            completed_runs=1,
            diverged_runs=0,
        )
        path = tmp_path / "rmse.csv"
        write_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,rmse_x1,rmse_x2,total"
        assert len(lines) == 4
        for k, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == k + 1
            assert [float(c) for c in cells[1:3]] == list(per_component[k])
            assert float(cells[3]) == total[k]

    def test_sweep_round_trip_and_cardinality(self, tmp_path):
        report = run_conditioning_sweep(
            ["conventional", "sr1b"],
            [1e-1, 1e-2],
            1,
            3,
            KernelSpec(float("inf")),
            RadarConstants(horizon=20),
        )
        path = tmp_path / "sweep.csv"
        write_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "delta,algorithm,scalar_rmse,status,breakdown_flag"
        assert len(lines) == 1 + 2 * 2  # one row per (delta, algorithm)
        parsed = [line.split(",") for line in lines[1:]]
        by_key = {(float(c[0]), c[1]): c for c in parsed}
        for entry in report.entries:
            cells = by_key[(entry.delta, entry.algorithm)]
            assert float(cells[2]) == entry.scalar_rmse
            assert cells[4] == str(int(entry.blown_up))

    def test_empty_sweep_header_only(self, tmp_path):
        report = SweepReport(delta_grid=[], entries=[], baseline={}, breakdown_delta={})
        path = tmp_path / "empty.csv"
        write_csv(report, path)
        assert path.read_text().strip() == "delta,algorithm,scalar_rmse,status,breakdown_flag"

    def test_unknown_report_type(self, tmp_path):
        with pytest.raises(TypeError):
            write_csv({"not": "a report"}, tmp_path / "x.csv")

    def test_io_error_has_path_context(self, tmp_path):
        report = SweepReport(delta_grid=[], entries=[], baseline={}, breakdown_delta={})
        bad = tmp_path / "missing-dir" / "x.csv"
        with pytest.raises(OSError, match="x.csv"):
            write_csv(report, bad)
