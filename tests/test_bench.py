"""Scenario builders, Monte Carlo harness and CSV reports."""

import csv
import errno
import math
import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from mcckf import bench, linalg
from mcckf.bench import (
    BLOWUP_FACTOR,
    RadarConstants,
    Scenario,
    _evaluate,
    _rmse_report,
    build_example1,
    build_example2,
    ill_conditioned_scenario,
    radar_scenario,
    run_conditioning_sweep,
    run_monte_carlo,
)
from mcckf.cli import _write_rows, main
from mcckf.config import ExperimentConfig
from mcckf.correntropy import KernelSpec
from mcckf.filters import ALGORITHMS, WEIGHTED_FILTERS, RunStatus, run_batch, run_filter
from mcckf.linalg import NotPositiveDefinite
from mcckf.model import InitialCondition, StateSpaceModel, validate_model
from mcckf.sim import SeedSpec, ShotNoiseSpec, _simulate, simulate
from oracles import condition_estimate, rmse_loop


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
        assert validate_model(model, init) == []

    def test_negative_bearing_variance_fails_as_r(self):
        # its square root was once taken first, which raised a math domain error
        with pytest.raises(ValueError, match="^model validation failed: R not positive definite$"):
            build_example1(RadarConstants(bearing_noise_var=-1.0))

    @pytest.mark.parametrize(
        "constant, value, message",
        [
            ("rho", math.nan, "rho must be finite, got nan"),
            ("maneuver_var_2", math.inf, "maneuver_var_2 must be finite, got inf"),
            ("sampling_period", -10.0, "sampling_period must be positive, got -10.0"),
            ("sampling_period", 1e-200, "sampling period 1e-200 squared is 0"),
            ("sampling_period", 1e200, "sampling period 1e+200 squared is inf"),
        ],
    )
    def test_constants_check_themselves(self, constant, value, message):
        # the library refuses what the CLI refuses, before any model is built
        with pytest.raises(ValueError, match=re.escape(message)):
            RadarConstants(**{constant: value})

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


def tiny_truth(runs, horizon=4):
    """The stacked truth of ``runs`` runs of the tiny scenario, (runs, horizon, 1)."""
    sc = tiny_scenario(horizon)
    runs = [simulate(sc.model, sc.init, horizon, SeedSpec(2, i)) for i in range(runs)]
    return np.stack([trajectory.truth for trajectory in runs])


def completed(truth):
    return [RunStatus(completed=True, steps_completed=len(t)) for t in truth]


def assert_same_bits(a, b) -> None:
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


class TestRmseReport:
    def test_perfect_estimates_score_zero(self):
        truth = tiny_truth(5)
        report = _rmse_report("perfect", truth, truth.copy(), completed(truth))
        assert np.all(report.per_component == 0.0)
        assert np.all(report.total == 0.0)
        assert report.scalar_summary == 0.0
        assert (report.completed_runs, report.diverged_runs) == (5, 0)

    def test_single_run_identity(self):
        truth = tiny_truth(1, horizon=2)
        offset = truth.copy()
        offset[0, 0, 0] -= 3.0
        offset[0, 1, 0] -= 4.0
        report = _rmse_report("offset", truth, offset, completed(truth))
        np.testing.assert_allclose(report.total, [3.0, 4.0])
        assert report.scalar_summary == pytest.approx(3.5)

    def test_matches_the_per_run_accumulation_bit_for_bit(self):
        # the masked sum over the runs axis adds the completed runs' squared
        # errors in run order, as the per-run loop did
        rng = np.random.default_rng(20)
        for trial in range(200):
            runs, horizon, n = (int(k) for k in rng.integers(1, [21, 30, 7]))
            truth = rng.standard_normal((runs, horizon, n)) * 10.0 ** rng.integers(-3, 4)
            estimates = truth + rng.standard_normal((runs, horizon, n))
            estimates[rng.random((runs, horizon, n)) < 0.1] = truth[0, 0, 0]
            done = np.zeros(runs, dtype=bool) if trial == 0 else rng.random(runs) < 0.8
            statuses = []
            for i, ok in enumerate(done):
                failed = int(rng.integers(1, horizon + 1))
                if not ok:
                    estimates[i, failed - 1 :] = np.nan
                statuses.append(
                    RunStatus(True, horizon) if ok else RunStatus(False, failed - 1, failed, "x")
                )
            report = _rmse_report("random", truth, estimates, statuses)
            per_component, total, scalar, count = rmse_loop(truth, estimates, statuses)
            assert_same_bits(report.per_component, per_component)
            assert_same_bits(report.total, total)
            assert_same_bits(report.scalar_summary, scalar)
            assert (report.completed_runs, report.diverged_runs) == (count, runs - count)
            assert report.statuses == statuses
            if trial == 0:  # every run failed: the curves are NaN
                assert np.isnan(report.per_component).all() and np.isnan(report.scalar_summary)


def counted_cholesky(monkeypatch):
    """Record each matrix handed to the checked Cholesky from now on, in this
    process: the evaluation runs its batches here, not in workers."""
    factored, cholesky = [], linalg.cholesky_lower

    def counted(a):
        factored.append(a)
        return cholesky(a)

    monkeypatch.setattr(bench, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(linalg, "cholesky_lower", counted)
    return factored


class TestRunMonteCarlo:
    def test_equal_conditions_same_measurements(self, monkeypatch):
        # every algorithm filters the one stack of measurements, run i drawn
        # from SeedSpec(master seed, i)
        seen, batch = {}, bench.run_batch

        def recorder(algorithm, models, init, measurements, spec):
            seen[algorithm] = measurements
            return batch(algorithm, models, init, measurements, spec)

        monkeypatch.setattr(bench, "_usable_cpus", lambda: 1)  # record in this process
        monkeypatch.setattr(bench, "run_batch", recorder)
        scenario = tiny_scenario()
        run_monte_carlo(["sr1b", "kf_reference"], scenario, 4, 2, KernelSpec(1.0))
        assert seen["sr1b"] is seen["kf_reference"]
        for i, ys in enumerate(seen["sr1b"]):
            trajectory = simulate(scenario.model, scenario.init, scenario.horizon, SeedSpec(2, i))
            assert np.array_equal(ys, trajectory.measurements)

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
        runs, algorithms = 4, ("conventional", "sr1a", "sr1b", "kf_reference")
        reports = run_monte_carlo(algorithms, scenario, runs, 1, spec)
        for algorithm in algorithms:
            sq_sum, completed, statuses = 0.0, 0, []
            for i in range(runs):
                trajectory = simulate(
                    scenario.model, scenario.init, scenario.horizon, SeedSpec(1, i), scenario.shot
                )
                run = run_filter(
                    algorithm, scenario.model, scenario.init, trajectory.measurements, spec
                )
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
        # sr1a's step depends on the BLAS kernel: 46 under SkylakeX, 179 under
        # Haswell, 29 under Sandybridge; its class and place in the order do not
        for status in reports["sr1a"].statuses:
            assert status.failed_step > 3
            assert status.reason == f"step {status.failed_step}: estimate magnitude exceeded 1e+12"
        assert all(status.completed for status in reports["sr1b"].statuses)

    def test_noise_factors_are_computed_once_for_every_filter(self, monkeypatch):
        # a model factors its Q and R, and an initial condition its covariance,
        # when it is made; the simulation's draws and the filters read those
        # factors, and the filters factor their states through the unchecked
        # kernel, so an evaluation calls the checked Cholesky on nothing
        factored = counted_cholesky(monkeypatch)
        scenario = radar_scenario(RadarConstants(horizon=40))
        owned = [scenario.model.Q, scenario.model.R, scenario.init.covariance]
        assert [id(a) for a in factored] == [id(a) for a in owned]
        factored.clear()
        run_monte_carlo(WEIGHTED_FILTERS, scenario, 4, 1, KernelSpec(3e4))
        assert factored == []

    @pytest.mark.parametrize(
        "build, violation",
        [
            (
                lambda: Scenario(
                    "asymmetric_q",
                    StateSpaceModel(
                        F=np.eye(2), G=np.eye(2), H=np.eye(2), Q=[[1, 0.5], [0, 1]], R=np.eye(2)
                    ),
                    InitialCondition(np.zeros(2), np.eye(2)),
                    5,
                ),
                "Q not symmetric",
            ),
            (
                lambda: radar_scenario(RadarConstants(sampling_period=1e-160, horizon=5)),
                "initial covariance contains non-finite entries",
            ),
        ],
        ids=["asymmetric_q", "tiny_period"],
    )
    def test_unusable_scenario_fails_validation_before_it_is_simulated(self, build, violation):
        # building the scenario's model or initial condition checks it, so a
        # library caller gets the filters' message, not a kernel's unnamed
        # error, and no scenario to simulate
        with pytest.raises(ValueError) as info:
            run_monte_carlo(["sr1b"], build(), 2, 1, KernelSpec(3e4))
        assert str(info.value) == f"model validation failed: {violation}"

    def test_rejects_bad_runs_and_duplicates(self):
        # the rule has one home, the batch's model stack, which _simulate builds
        for runs in (0, -1):
            with pytest.raises(ValueError, match="^at least one run is required$"):
                run_monte_carlo(["sr1b"], tiny_scenario(), runs, 1, KernelSpec(1.0))
        with pytest.raises(ValueError):
            run_monte_carlo(["sr1b", "sr1b"], tiny_scenario(), 1, 1, KernelSpec(1.0))
        with pytest.raises(ValueError, match=r"expected distinct algorithm .*got \['fancy'\]"):
            run_monte_carlo(["fancy"], tiny_scenario(), 1, 1, KernelSpec(1.0))


def test_an_evaluation_factors_its_initial_covariance_once(monkeypatch):
    # each model factors its covariances when it is made, and every delta
    # shares one initial condition, factored once when the module was loaded;
    # a sweep evaluates the models it was handed and calls the checked
    # Cholesky on nothing
    factored = counted_cholesky(monkeypatch)
    cfg = ExperimentConfig.load(profile="sweep")
    constants = cfg.radar_constants()
    built = {delta: build_example2(delta, constants) for delta in cfg.sweep_deltas()}
    assert len(built) == 14
    assert len({id(init) for _, init in built.values()}) == 1
    noise = [a for model, _ in built.values() for a in (model.Q, model.R)]
    assert [id(a) for a in factored] == [id(a) for a in noise]
    factored.clear()
    # the sweep evaluates the models just built, not ones it builds itself
    monkeypatch.setattr(bench, "build_example2", lambda delta, _: built[delta])
    args = (list(built), 1, cfg.seed(), cfg.kernel_spec(), constants)
    run_conditioning_sweep(WEIGHTED_FILTERS, *args)
    assert factored == []


def test_shipped_sweep_factors_only_the_noise_covariances(tmp_path, monkeypatch):
    # every delta shares one initial condition, so the shipped sweep factors no
    # 6x6 matrix; each delta's model is built, and so factors its 2x2 Q and R,
    # once in the check before --out is made and once in the sweep
    factored = counted_cholesky(monkeypatch)
    assert main(["sweep", "--out", str(tmp_path / "sweep"), "--runs", "1"]) == 0
    assert [a.shape for a in factored] == [(2, 2)] * 56


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
        algorithms = ["conventional", "sr1a", "sr1b", "kf_reference"]
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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_breakdown_depends_on_the_horizon(self, seed):
        # the shipped 300 steps give 1e-5 / 1e-5 / 1e-13; over 1000 steps the
        # covariance-inverting forms break one decade earlier, sr1b no earlier
        deltas = ExperimentConfig.load(profile="sweep").sweep_deltas()
        constants, spec = RadarConstants(horizon=1000), KernelSpec(float("inf"))
        report = run_conditioning_sweep(WEIGHTED_FILTERS, deltas, 2, seed, spec, constants)
        assert report.breakdown_delta == {"conventional": 1e-4, "sr1a": 1e-4, "sr1b": 1e-13}
        # at sigma = inf the covariance recursion ignores the data, so the
        # conventional filter's failing step is the same for every seed;
        # sr1a's (606 or 607) is not, and only its decade is asserted above
        scenario = ill_conditioned_scenario(1e-4, constants)
        conventional = run_monte_carlo(["conventional"], scenario, 2, seed, spec)
        for status in conventional["conventional"].statuses:
            assert status.failed_step == 448
            assert status.reason.startswith("step 448: NotPositiveDefinite: ")

    def test_conventional_breaks_at_1e_3_over_3000_steps(self):
        # the 300- and 1000-step sweeps call conventional healthy at 1e-3; over
        # 3000 steps it fails there at the same step for every seed, and sr1b
        # completes
        model, init = build_example2(1e-3)
        seeds = [SeedSpec(seed, 0) for seed in (1, 2, 3)]
        _, _, measurements, _ = _simulate(model, init, 3000, seeds, None)
        spec = KernelSpec(float("inf"))
        for status in run_batch("conventional", model, init, measurements, spec).statuses:
            assert status.failed_step == 2258
            assert status.reason.startswith("step 2258: NotPositiveDefinite: ")
        sr1b = run_batch("sr1b", model, init, measurements, spec)
        assert all(status.completed for status in sr1b.statuses)

    def test_unusable_constants_fail_validation(self):
        with pytest.raises(ValueError, match="^model validation failed: Q not positive definite$"):
            run_conditioning_sweep(
                ["sr1b"], [1e-1], 1, 1, KernelSpec(1.0), RadarConstants(maneuver_var_1=-1.0)
            )

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            run_conditioning_sweep(["sr1b"], [], 1, 1, KernelSpec(1.0))
        with pytest.raises(ValueError):
            run_conditioning_sweep(["sr1b"], [1e-3, 1e-2], 1, 1, KernelSpec(1.0))
        for grid in ([1e-1, math.nan], [math.inf, 1e-1], [1e-1, -1e-2], [1e-1, 1e-1]):
            with pytest.raises(ValueError, match="finite, positive and strictly decreasing"):
                run_conditioning_sweep(["sr1b"], grid, 1, 1, KernelSpec(1.0))


def assert_same_reports(a: dict, b: dict) -> None:
    """Equal reports, in value and sign bit, with equal statuses and reasons."""
    assert list(a) == list(b)
    for name in a:
        x, y = a[name], b[name]
        for u, v in (
            (x.per_component, y.per_component),
            (x.total, y.total),
            (x.scalar_summary, y.scalar_summary),
        ):
            assert np.array_equal(u, v, equal_nan=True)
            assert np.array_equal(np.signbit(u), np.signbit(v))
        assert (x.completed_runs, x.diverged_runs) == (y.completed_runs, y.diverged_runs)
        assert x.statuses == y.statuses


def assert_no_children() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked while the test runs."""
    pids, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


class TestParallelEvaluation:
    """An evaluation runs the first P-1 named algorithms (costliest first) in
    forked children, P = min(usable CPUs, named algorithms); one usable CPU
    gives the serial loop."""

    @staticmethod
    def with_cpus(monkeypatch, cpus, function, *args):
        monkeypatch.setattr(bench, "_usable_cpus", lambda: cpus)
        return function(*args)

    @pytest.mark.parametrize(
        "sigma, algorithms",
        [
            (3e4, ["conventional", "sr1a", "sr1b", "kf_reference"]),
            (math.inf, ["kf_reference", "sr1b", "sr1a", "conventional"]),
        ],
    )
    def test_monte_carlo_matches_serial(self, monkeypatch, forks, sigma, algorithms):
        args = (algorithms, radar_scenario(), 4, 1, KernelSpec(sigma))
        usable = bench._usable_cpus()
        reports = run_monte_carlo(*args)
        assert len(forks) == min(usable, 4) - 1
        serial = self.with_cpus(monkeypatch, 1, run_monte_carlo, *args)
        assert list(serial) == algorithms
        assert_same_reports(reports, serial)
        for cpus in (2, 3, 4, 8):
            forks.clear()
            assert_same_reports(self.with_cpus(monkeypatch, cpus, run_monte_carlo, *args), serial)
            assert len(forks) == min(cpus, 4) - 1
            assert_no_children()

    def test_sweep_matches_serial(self, monkeypatch, forks):
        cfg = ExperimentConfig.load(profile="sweep")
        algorithms, deltas = ["conventional", "sr1a", "sr1b"], cfg.sweep_deltas()
        args = (algorithms, deltas, 2, cfg.seed(), cfg.kernel_spec(), cfg.radar_constants())
        serial = self.with_cpus(monkeypatch, 1, run_conditioning_sweep, *args)
        assert forks == []
        # the shipped grid covers the failure paths
        assert serial.breakdown_delta == {"conventional": 1e-5, "sr1a": 1e-5, "sr1b": 1e-13}
        failed = [e.delta for e in serial.entries if e.algorithm == "sr1b" and e.diverged_runs]
        assert failed == [1e-13, 1e-14]
        parallel = self.with_cpus(monkeypatch, 2, run_conditioning_sweep, *args)
        assert len(forks) == 1
        assert parallel.breakdown_delta == serial.breakdown_delta
        assert len(parallel.entries) == len(serial.entries)
        for p, s in zip(parallel.entries, serial.entries):
            assert (p.delta, p.algorithm, p.completed_runs, p.diverged_runs, p.blown_up) == (
                s.delta,
                s.algorithm,
                s.completed_runs,
                s.diverged_runs,
                s.blown_up,
            )
            assert np.array_equal(p.scalar_rmse, s.scalar_rmse, equal_nan=True)
            assert np.signbit(p.scalar_rmse) == np.signbit(s.scalar_rmse)
        # the statuses the sweep summarizes, reasons included
        constants = cfg.radar_constants()
        models = [build_example2(d, constants)[0] for d in deltas]
        _, init = build_example2(deltas[0], constants)
        evaluation = (
            algorithms, models, init, constants.horizon, None, 2, cfg.seed(), cfg.kernel_spec()
        )
        serial = self.with_cpus(monkeypatch, 1, _evaluate, *evaluation)
        parallel = self.with_cpus(monkeypatch, 2, _evaluate, *evaluation)
        for p, s in zip(parallel, serial, strict=True):
            assert_same_reports(p, s)
        assert_no_children()

    @pytest.mark.parametrize(
        "error",
        [
            lambda algorithm: ValueError(f"{algorithm} cannot run"),
            lambda algorithm: NotPositiveDefinite(
                f"{algorithm} cannot run", {1: f"{algorithm}'s run 1 cannot run"}
            ),
        ],
        ids=["ValueError", "LinalgError"],
    )
    def test_error_surfaces_as_in_the_serial_loop(self, monkeypatch, forks, error):
        batch = bench.run_batch

        def failing(algorithm, *args):
            if algorithm in ("conventional", "sr1b"):
                raise error(algorithm)
            return batch(algorithm, *args)

        monkeypatch.setattr(bench, "run_batch", failing)
        scenario = radar_scenario(RadarConstants(horizon=20))
        for algorithms in (["conventional", "sr1a", "sr1b"], ["sr1b", "sr1a", "conventional"]):
            args = (algorithms, scenario, 2, 1, KernelSpec(3e4))
            raised = []
            for cpus in (1, 2, 3):
                with pytest.raises(type(error("x"))) as info:
                    self.with_cpus(monkeypatch, cpus, run_monte_carlo, *args)
                raised.append((type(info.value), str(info.value), vars(info.value)))
            # the first failing algorithm in the caller's order, as the serial loop raises it
            assert raised[0][1] == str(error(algorithms[0]))
            assert raised == [raised[0]] * 3
        # conventional, then conventional and sr1a ran in children
        assert len(forks) == 2 * (1 + 2)
        assert_no_children()

    def test_child_without_result(self, monkeypatch, forks):
        # the share of a child that sends nothing runs here, as in the serial loop
        parent, batch = os.getpid(), bench.run_batch

        def exiting(algorithm, *args):
            if os.getpid() != parent:
                os._exit(3)
            return batch(algorithm, *args)

        monkeypatch.setattr(bench, "run_batch", exiting)
        scenario = radar_scenario(RadarConstants(horizon=20))
        args = (["sr1b", "conventional"], scenario, 2, 1, KernelSpec(3e4))
        serial = self.with_cpus(monkeypatch, 1, run_monte_carlo, *args)
        assert_same_reports(self.with_cpus(monkeypatch, 2, run_monte_carlo, *args), serial)
        assert len(forks) == 1
        assert_no_children()

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    def test_parent_runs_only_the_shares_not_forked(self, monkeypatch, forks, cpus):
        # a child that always failed would only cost time; this catches it
        calls, batch = [], bench.run_batch

        def counting(algorithm, *args):
            calls.append(algorithm)  # a child's append stays in the child
            return batch(algorithm, *args)

        algorithms = ["kf_reference", "sr1b", "sr1a", "conventional"]
        args = (algorithms, tiny_scenario(), 2, 1, KernelSpec(1.0))
        serial = self.with_cpus(monkeypatch, 1, run_monte_carlo, *args)
        monkeypatch.setattr(bench, "run_batch", counting)
        assert_same_reports(self.with_cpus(monkeypatch, cpus, run_monte_carlo, *args), serial)
        assert len(forks) == cpus - 1
        assert calls == [a for a in algorithms if a not in ALGORITHMS[: cpus - 1]]
        assert_no_children()

    def test_middle_child_without_result(self, monkeypatch, forks):
        # a sibling's copy of a read end must not delay the end of a pipe
        parent, batch, calls = os.getpid(), bench.run_batch, []

        def exiting(algorithm, *args):
            if os.getpid() != parent and algorithm == "sr1a":
                os._exit(3)
            calls.append(algorithm)
            return batch(algorithm, *args)

        def hung(signum, frame):
            raise TimeoutError("the evaluation hangs")

        scenario = radar_scenario(RadarConstants(horizon=20))
        args = (list(ALGORITHMS), scenario, 2, 1, KernelSpec(3e4))
        serial = self.with_cpus(monkeypatch, 1, run_monte_carlo, *args)
        monkeypatch.setattr(bench, "run_batch", exiting)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            reports = self.with_cpus(monkeypatch, 4, run_monte_carlo, *args)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert_same_reports(reports, serial)
        assert len(forks) == 3
        assert calls == ["kf_reference", "sr1a"]
        assert_no_children()

    def test_children_reaped_when_interrupted(self, monkeypatch, forks):
        parent = os.getpid()

        def interrupted(algorithm, *args):
            if os.getpid() != parent:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(bench, "run_batch", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            self.with_cpus(
                monkeypatch,
                3,
                run_monte_carlo,
                ["conventional", "sr1a", "sr1b"],
                tiny_scenario(),
                1,
                1,
                KernelSpec(1.0),
            )
        assert len(forks) == 2
        assert time.monotonic() - start < 30  # killed, not waited for
        assert_no_children()

    @pytest.fixture
    def sigchld_ignored(self):
        """SIGCHLD ignored, as in many daemons: the kernel reaps each child
        itself, so waiting on it raises ChildProcessError."""
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        yield
        signal.signal(signal.SIGCHLD, previous)

    def test_sigchld_ignored(self, monkeypatch, forks, sigchld_ignored):
        args = (["sr1b", "sr1a", "conventional"], radar_scenario(), 4, 1, KernelSpec(3e4))
        serial = self.with_cpus(monkeypatch, 1, run_monte_carlo, *args)
        assert_same_reports(self.with_cpus(monkeypatch, 3, run_monte_carlo, *args), serial)
        assert len(forks) == 2
        assert_no_children()
        parent, batch = os.getpid(), bench.run_batch

        def failing(algorithm, *args):
            if os.getpid() != parent:
                if algorithm == "sr1a":
                    os._exit(3)
                raise ValueError(f"{algorithm} cannot run")
            return batch(algorithm, *args)

        monkeypatch.setattr(bench, "run_batch", failing)
        # children that raise or exit without a result: their shares run here
        for algorithms in (["conventional", "sr1b"], ["sr1a", "conventional", "sr1b"]):
            args = (algorithms, tiny_scenario(), 2, 1, KernelSpec(1.0))
            serial = self.with_cpus(monkeypatch, 1, run_monte_carlo, *args)
            assert_same_reports(self.with_cpus(monkeypatch, 3, run_monte_carlo, *args), serial)
            assert_no_children()

    @pytest.mark.parametrize("failing_fork", [1, 2], ids=["first", "second"])
    def test_fork_failure_runs_the_share_here(self, monkeypatch, failing_fork):
        fork, calls = os.fork, []

        def fork_until_the_limit():
            calls.append(None)
            if len(calls) >= failing_fork:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        args = (["conventional", "sr1a", "sr1b"], radar_scenario(), 4, 1, KernelSpec(3e4))
        serial = self.with_cpus(monkeypatch, 1, run_monte_carlo, *args)
        descriptors = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        monkeypatch.setattr(os, "fork", fork_until_the_limit)
        assert_same_reports(self.with_cpus(monkeypatch, 3, run_monte_carlo, *args), serial)
        assert len(calls) == failing_fork  # no fork is tried after one failed
        assert_no_children()
        if descriptors is not None:  # the failed fork's pipe is closed
            assert set(os.listdir("/proc/self/fd")) == descriptors

    def test_other_threads_mean_serial(self, monkeypatch, forks):
        args = (["conventional", "sr1a", "sr1b"], tiny_scenario(), 3, 1, KernelSpec(1.0))
        serial = self.with_cpus(monkeypatch, 1, run_monte_carlo, *args)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert_same_reports(self.with_cpus(monkeypatch, 3, run_monte_carlo, *args), serial)
        finally:
            release.set()
            thread.join()
        assert forks == []
        assert_same_reports(self.with_cpus(monkeypatch, 3, run_monte_carlo, *args), serial)
        assert len(forks) == 2

    def test_no_fork_stays_in_this_process(self, monkeypatch, forks):
        args = (["kf_reference", "sr1b", "conventional"], tiny_scenario(), 3, 1, KernelSpec(1.0))
        serial = self.with_cpus(monkeypatch, 1, run_monte_carlo, *args)
        assert_same_reports(self.with_cpus(monkeypatch, 4, run_monte_carlo, *args), serial)
        assert len(forks) == 2
        monkeypatch.delattr(os, "fork")
        assert_same_reports(run_monte_carlo(*args), serial)
        assert len(forks) == 2

    def test_buffered_output_printed_once(self):
        # text buffered before the fork must not be inherited and printed twice
        code = textwrap.dedent(
            """
            from mcckf import bench
            from mcckf.correntropy import KernelSpec

            bench._usable_cpus = lambda: 3
            scenario = bench.radar_scenario(bench.RadarConstants(horizon=20))
            print("before", end="")
            bench.run_monte_carlo(["conventional", "sr1b"], scenario, 2, 1, KernelSpec(3e4))
            print("|after", end="")
            """
        )
        src = str(Path(bench.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        env.pop("PYTHONUNBUFFERED", None)  # stdout is a block-buffered pipe
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=False
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "before|after"


class TestWriteCsv:
    """The CSV files ``mcckf`` writes for the reports: each cell parses back
    to the value the library call returns for the same seed."""

    def test_rmse_round_trip_exact(self, tmp_path):
        overrides = ["monte_carlo.runs=3", "monte_carlo.horizon=40", "monte_carlo.seed=3"]
        sets = [arg for key in overrides for arg in ("--set", key)]
        assert main(["example1", "--out", str(tmp_path), *sets]) == 0
        cfg = ExperimentConfig.load(None, overrides, profile="example1")
        scenario = radar_scenario(cfg.radar_constants(), cfg.shot_spec())
        reports = run_monte_carlo(WEIGHTED_FILTERS, scenario, 3, 3, cfg.kernel_spec())
        for name, report in reports.items():
            header, *rows = csv.reader((tmp_path / f"rmse_{name}.csv").read_text().splitlines())
            assert header == ["step", *(f"rmse_x{i}" for i in range(1, 7)), "total"]
            assert [row[0] for row in rows] == [str(k) for k in range(1, 41)]
            cells = np.array([[float(cell) for cell in row[1:]] for row in rows])
            np.testing.assert_array_equal(cells[:, :-1], report.per_component)
            np.testing.assert_array_equal(cells[:, -1], report.total)

    def test_sweep_round_trip_and_cardinality(self, tmp_path):
        overrides = [
            "sweep.deltas=1e-1 1e-13", "monte_carlo.runs=2", "monte_carlo.horizon=20",
            "monte_carlo.seed=3",
        ]
        sets = [arg for key in overrides for arg in ("--set", key)]
        args = ["sweep", "--out", str(tmp_path), "--algorithms", "conventional,sr1b", *sets]
        cfg = ExperimentConfig.load(None, overrides, profile="sweep")
        report = run_conditioning_sweep(
            ["conventional", "sr1b"], cfg.sweep_deltas(), 2, 3, cfg.kernel_spec(),
            cfg.radar_constants(),
        )
        # the ordering check fails unless sr1b breaks at a smaller delta than
        # conventional, or never; both break at 1e-13 under the kernels measured
        broke = report.breakdown_delta
        violated = broke["sr1b"] is not None and (broke["conventional"] or 0.0) <= broke["sr1b"]
        assert main(args) == int(violated)
        header, *rows = csv.reader((tmp_path / "sweep.csv").read_text().splitlines())
        assert header == ["delta", "algorithm", "scalar_rmse", "status", "breakdown_flag"]
        assert len(rows) == 2 * 2  # one row per (delta, algorithm)
        for (delta, algorithm, rmse, status, flag), entry in zip(rows, report.entries):
            assert (float(delta), algorithm) == (entry.delta, entry.algorithm)
            np.testing.assert_array_equal(float(rmse), entry.scalar_rmse)
            runs = f"{entry.diverged_runs}/{entry.diverged_runs + entry.completed_runs}"
            assert status == (f"diverged {runs}" if entry.diverged_runs else "ok")
            assert flag == str(int(entry.blown_up))
        # one of sr1b's two runs at 1e-13 completes under Haswell
        assert [row[3] for row in rows[:3]] == ["ok", "ok", "diverged 2/2"]
        assert rows[3][3].startswith("diverged ")

    def test_floats_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        values = [*rng.standard_normal(4) * 10.0 ** rng.integers(-300, 300, 4), 0.1, 5e-324]
        path = tmp_path / "x.csv"
        _write_rows(path, ["k", "name", "value"], ([k, "sr1b", v] for k, v in enumerate(values)))
        header, *rows = csv.reader(path.read_text().splitlines())
        assert header == ["k", "name", "value"]
        assert [row[:2] for row in rows] == [[str(k), "sr1b"] for k in range(len(values))]
        assert [float(row[2]) for row in rows] == values

    def test_io_error_has_path_context(self, tmp_path):
        bad = tmp_path / "missing-dir" / "x.csv"
        with pytest.raises(OSError, match="failed writing CSV to .*x.csv"):
            _write_rows(bad, ["delta"], [])
