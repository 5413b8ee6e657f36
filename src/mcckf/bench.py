"""Benchmark scenarios, Monte Carlo RMSE evaluation and the conditioning sweep.

Two scenarios are provided: a six-state radar tracking problem with impulsive
(shot) measurement and process noise, and an ill-conditioned variant of the
same dynamics whose nearly collinear measurement rows and delta-scaled noise
drive the innovation covariance toward singularity as delta shrinks.
Both experiments, the radar Monte Carlo and the sweep over delta, go through
one evaluation (``_evaluate``): the sweep is ``run_monte_carlo`` with one
scenario per delta. An evaluation runs its filters in up to as many processes
as the process may use CPUs (``_all_estimates``). A filter whose child sends
no result runs in the calling process, so a crashed child costs time, not an
error.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .correntropy import KernelSpec
# called by this module-level name, so a test double bound to it runs every filter
from .filters import ALGORITHMS, run_batch
from .model import InitialCondition, StateSpaceModel
from .sim import SeedSpec, ShotNoiseSpec, simulate_batch, write_rows

__all__ = [
    "RadarConstants",
    "Scenario",
    "RmseReport",
    "SweepEntry",
    "SweepReport",
    "BLOWUP_FACTOR",
    "build_example1",
    "build_example2",
    "radar_scenario",
    "ill_conditioned_scenario",
    "run_monte_carlo",
    "run_conditioning_sweep",
    "write_csv",
]

# An algorithm's summary RMSE beyond BLOWUP_FACTOR times its own value at the
# largest (easiest) delta counts as blown up, as does any diverged run. A
# relative threshold keeps the sweep portable across platforms.
BLOWUP_FACTOR = 1e3


@dataclass(frozen=True)
class RadarConstants:
    """Constants of the six-state radar tracking benchmark.

    The state is (range, range rate, maneuver noise 1, bearing, bearing rate,
    maneuver noise 2); range and bearing are measured directly. Two quirks of
    the initial covariance are deliberate and fixed: the bearing slot (4,4)
    carries the bearing noise standard deviation rather than the variance,
    and the bearing-rate slot (5,5) adds the first (not the second)
    maneuvering noise variance.

    Maps one-to-one onto the ``[model]`` section of the experiment
    configuration file plus ``horizon`` from ``[monte_carlo]``
    (see ``mcckf.config`` and the README for the full schema).
    """

    rho: float = 0.5
    sampling_period: float = 10.0
    range_noise_var: float = 1000.0**2
    bearing_noise_var: float = 0.017**2
    maneuver_var_1: float = (103.0 / 3.0) ** 2
    maneuver_var_2: float = 1.3e-8
    horizon: int = 300


def _radar_dynamics(c: RadarConstants):
    t = c.sampling_period
    f = np.array(
        [
            [1.0, t, 0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, c.rho, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, t, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0, 1.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, c.rho],
        ]
    )
    g = np.zeros((6, 2))
    g[2, 0] = 1.0
    g[5, 1] = 1.0
    q = np.diag([c.maneuver_var_1, c.maneuver_var_2])
    return f, g, q


def build_example1(
    constants: RadarConstants = RadarConstants(),
) -> tuple[StateSpaceModel, InitialCondition, ShotNoiseSpec]:
    """Radar tracking model with shot noise on both noise groups.

    The process noise enters through a 6x2 selector on the two maneuvering
    states with a 2x2 positive definite covariance, which is algebraically
    identical to a 6x6 covariance with four zero diagonal entries but keeps
    every noise covariance factorable.
    """
    c = constants
    f, g, q = _radar_dynamics(c)
    h = np.zeros((2, 6))
    h[0, 0] = 1.0
    h[1, 3] = 1.0
    r = np.diag([c.range_noise_var, c.bearing_noise_var])
    t = c.sampling_period
    if t**2 == 0.0:  # the 1/t**2 entries below would divide by zero
        raise ValueError(f"initial covariance is not finite: sampling period {t:g} squared is 0")
    sr2 = c.range_noise_var
    # the deliberate quirks of RadarConstants: a standard deviation at (4,4)
    # and the first maneuvering variance at (5,5)
    stheta = math.sqrt(c.bearing_noise_var)
    pi0 = np.array(
        [
            [sr2, sr2 / t, 0.0, 0.0, 0.0, 0.0],
            [sr2 / t, 2.0 * sr2 / t**2 + c.maneuver_var_1, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, c.maneuver_var_1, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, stheta, stheta / t, 0.0],
            [0.0, 0.0, 0.0, stheta / t, 2.0 * stheta / t**2 + c.maneuver_var_1, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, c.maneuver_var_2],
        ]
    )
    if not np.isfinite(pi0).all():
        raise ValueError("initial covariance is not finite")
    model = StateSpaceModel(F=f, G=g, H=h, Q=q, R=r)
    init = InitialCondition(mean=np.zeros(6), covariance=pi0)
    # the eligible window is clamped to the horizon at simulation time
    return model, init, ShotNoiseSpec()


def build_example2(
    delta: float, constants: RadarConstants = RadarConstants()
) -> tuple[StateSpaceModel, InitialCondition]:
    """Ill-conditioned variant: all-ones measurement rows differing by delta
    in the last column, R = delta^2 I, standard normal initial state."""
    try:
        variance = delta**2
    except OverflowError:
        variance = math.inf
    if not 0.0 < delta < math.inf or variance == math.inf:
        raise ValueError(f"delta must be positive with a finite square, got {delta:g}")
    f, g, q = _radar_dynamics(constants)
    h = np.ones((2, 6))
    h[1, 5] = 1.0 + delta
    r = variance * np.eye(2)
    model = StateSpaceModel(F=f, G=g, H=h, Q=q, R=r)
    init = InitialCondition(mean=np.zeros(6), covariance=np.eye(6))
    return model, init


@dataclass(frozen=True)
class Scenario:
    """A model, its initial condition and simulation settings, bundled."""

    name: str
    model: StateSpaceModel
    init: InitialCondition
    horizon: int
    shot: ShotNoiseSpec | None = None


def radar_scenario(
    constants: RadarConstants = RadarConstants(), shot: ShotNoiseSpec = ShotNoiseSpec()
) -> Scenario:
    model, init, _ = build_example1(constants)
    return Scenario("radar_tracking", model, init, constants.horizon, shot)


def ill_conditioned_scenario(
    delta: float, constants: RadarConstants = RadarConstants()
) -> Scenario:
    model, init = build_example2(delta, constants)
    return Scenario(f"ill_conditioned_{delta:g}", model, init, constants.horizon)


@dataclass
class RmseReport:
    """Monte Carlo accuracy curves for one algorithm.

    ``per_component[k-1, i]`` is the RMSE of state component i at step k over
    the completed runs; ``total`` is the l2 norm across components per step;
    ``scalar_summary`` its time mean. Diverged runs are excluded from the
    averages and counted instead of poisoning them with NaN; with no
    completed runs every cell is NaN.
    """

    algorithm: str
    per_component: np.ndarray
    total: np.ndarray
    scalar_summary: float
    completed_runs: int
    diverged_runs: int
    statuses: list = field(default_factory=list)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_share(algorithm, args) -> tuple[int, object]:
    """Fork a child that sends ``run_batch(algorithm, *args)`` back pickled
    through a pipe: (child pid, read end of the pipe). A child whose
    ``run_batch`` raises sends nothing, and a child leaves only through
    ``os._exit``. Raises ``OSError`` and leaves no descriptor open if no
    child was made.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.close(read_fd)
            payload = pickle.dumps(run_batch(algorithm, *args), pickle.HIGHEST_PROTOCOL)
            sys.stdout.flush()  # before the result: once it has that, the parent may kill this
            sys.stderr.flush()
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _reap(pid: int) -> None:
    """Kill a child unless it has exited, and wait for it. A child reaped
    already (while SIGCHLD is ignored, the kernel reaps children itself) is
    left alone: its pid may belong to another process by now."""
    with contextlib.suppress(ChildProcessError):
        if os.waitpid(pid, os.WNOHANG) == (0, 0):  # still running
            import signal  # only here: importing mcckf stays as cheap as before

            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _all_estimates(algorithms, models, init, measurements, spec) -> list:
    """The ``run_batch(algorithm, models, init, measurements, spec)`` of each
    algorithm, in ``algorithms`` order, as the serial loop returns or raises
    them.

    With P = min(usable CPUs, algorithms), the first P-1 algorithms in
    ``ALGORITHMS`` order (the weighted filters costliest first) each run in a
    forked child while this process runs the others. A process without
    ``os.fork`` or with other Python threads (a child could block forever on
    a lock one of them held) forks nothing. A share whose fork fails, or
    whose child sends no result for any reason (it raised, exited or was
    killed), runs in this process, so every result and every error is the
    serial loop's: the error is the first in ``algorithms`` order. Every
    child is reaped before this returns or raises.
    """
    args = (models, init, measurements, spec)
    processes = min(_usable_cpus(), len(algorithms))
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    shares = sorted(algorithms, key=ALGORITHMS.index)[: processes - 1] if forkable else []
    results = {}  # algorithm -> its BatchRun, or the exception it raised here
    children = {}  # algorithm -> (pid, read end of its pipe)
    sys.stdout.flush()  # a child must not inherit, and later print, buffered text
    sys.stderr.flush()
    try:
        for algorithm in shares:
            try:
                children[algorithm] = _fork_share(algorithm, args)
            except OSError:  # no process to spare: this process runs the rest
                break
        for algorithm in algorithms:
            if algorithm not in children:
                try:
                    results[algorithm] = run_batch(algorithm, *args)
                except Exception as exc:
                    results[algorithm] = exc  # the serial loop would stop here
                    break
        for algorithm, (_, pipe) in children.items():
            with contextlib.suppress(Exception):  # no result, or bytes that do not unpickle
                results[algorithm] = pickle.loads(pipe.read())
    finally:
        for pid, pipe in children.values():
            pipe.close()
            _reap(pid)
    batches = []
    for algorithm in algorithms:
        if isinstance(results.get(algorithm), Exception):
            raise results[algorithm]
        batches.append(results[algorithm] if algorithm in results else run_batch(algorithm, *args))
    return batches


def _rmse_report(name: str, trajectories, estimates, statuses) -> RmseReport:
    """Accumulate the RMSE curves of one estimator over its completed runs."""
    horizon, n = trajectories[0].truth.shape
    sq_sum = np.zeros((horizon, n))
    completed = 0
    for trajectory, run_estimates, status in zip(trajectories, estimates, statuses):
        if status.completed:
            err = trajectory.truth - run_estimates
            sq_sum += err * err
            completed += 1
    if completed > 0:
        per_component = np.sqrt(sq_sum / completed)
        total = np.sqrt((per_component**2).sum(axis=1))
        scalar = float(total.mean())
    else:
        per_component = np.full((horizon, n), np.nan)
        total = np.full(horizon, np.nan)
        scalar = float("nan")
    return RmseReport(
        algorithm=name,
        per_component=per_component,
        total=total,
        scalar_summary=scalar,
        completed_runs=completed,
        diverged_runs=len(statuses) - completed,
        statuses=list(statuses),
    )


def _check_algorithms(algorithms: list, runs: int) -> None:
    """Reject runs < 1, unknown names and duplicate names."""
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
    if len(set(algorithms)) != len(algorithms):
        raise ValueError(f"duplicate algorithm names in {algorithms}")


def _evaluate(algorithms, scenarios, runs: int, master_seed: int, spec) -> list[dict]:
    """One dict of ``RmseReport`` per scenario, each over run indices
    0..runs-1 of ``master_seed``. One ``simulate_batch`` call draws the
    trajectories of every run of every scenario, and each filter advances
    them as one batch, with one model per run; the filters run in parallel
    processes where the CPUs allow (``_all_estimates``). The scenarios must
    share the initial condition, the horizon and the shot spec. Every run
    gets the numbers it gets alone, bit for bit.
    """
    algorithms = list(algorithms)
    _check_algorithms(algorithms, runs)
    first = scenarios[0]
    if any(sc.horizon != first.horizon or sc.shot != first.shot for sc in scenarios):
        raise ValueError("the scenarios of one evaluation must share the horizon and shot spec")
    if any(
        not np.array_equal(sc.init.mean, first.init.mean)
        or not np.array_equal(sc.init.covariance, first.init.covariance)
        for sc in scenarios
    ):
        raise ValueError("the scenarios of one evaluation must share the initial condition")
    models = [sc.model for sc in scenarios for _ in range(runs)]
    seeds = [SeedSpec(master_seed, run_index) for _ in scenarios for run_index in range(runs)]
    trajectories = simulate_batch(models, first.init, first.horizon, seeds, first.shot)
    measurements = np.stack([t.measurements for t in trajectories])
    per_scenario = [{} for _ in scenarios]
    batches = _all_estimates(algorithms, models, first.init, measurements, spec)
    for name, batch in zip(algorithms, batches):
        for i, report in enumerate(per_scenario):
            rows = slice(i * runs, (i + 1) * runs)
            report[name] = _rmse_report(
                name, trajectories[rows], batch.estimates[rows], batch.statuses[rows]
            )
    return per_scenario


def run_monte_carlo(
    algorithms,
    scenario: Scenario,
    runs: int,
    master_seed: int,
    spec: KernelSpec,
) -> dict[str, RmseReport]:
    """Monte Carlo RMSE evaluation under equal conditions.

    Each run index produces one trajectory from (master_seed, run index) that
    every algorithm consumes identically. ``algorithms`` are names from
    ``filters.ALGORITHMS``. Each filter, the dense oracle included, advances
    all runs as one batch (``run_batch``), which gives every run the
    estimates ``run_filter`` gives it alone, bit for bit.
    """
    return _evaluate(algorithms, [scenario], runs, master_seed, spec)[0]


@dataclass(frozen=True)
class SweepEntry:
    """Outcome of one (delta, algorithm) cell of the conditioning sweep."""

    delta: float
    algorithm: str
    scalar_rmse: float
    completed_runs: int
    diverged_runs: int
    blown_up: bool


@dataclass
class SweepReport:
    """Per-delta summaries and the breakdown delta of each algorithm.

    ``breakdown_delta[name]`` is the largest delta at which the algorithm
    diverged or exceeded the blow-up threshold, or None if it never did.
    """

    delta_grid: list
    entries: list
    baseline: dict
    breakdown_delta: dict


def run_conditioning_sweep(
    algorithms,
    delta_grid,
    runs: int,
    master_seed: int,
    spec: KernelSpec,
    constants: RadarConstants = RadarConstants(),
) -> SweepReport:
    """Sweep the ill-conditioning parameter over a descending grid.

    Every delta is one scenario of ``run_monte_carlo``'s evaluation, which
    advances the runs of all deltas as one batch per filter: the same run
    indices and seeds at every delta, and the same RMSE accumulation. An
    entry is blown up when any run diverged or when its summary RMSE exceeds
    ``BLOWUP_FACTOR`` times the same algorithm's value at the first
    (largest) grid point.
    """
    delta_grid = [float(d) for d in delta_grid]
    if not delta_grid:
        raise ValueError("delta grid must not be empty")
    if any(b >= a for a, b in zip(delta_grid, delta_grid[1:])):
        raise ValueError("delta grid must be strictly decreasing")
    # the standard normal initial state of build_example2 is the same at every delta
    scenarios = [ill_conditioned_scenario(delta, constants) for delta in delta_grid]
    per_delta = _evaluate(algorithms, scenarios, runs, master_seed, spec)
    baseline = {name: report.scalar_summary for name, report in per_delta[0].items()}
    entries = []
    breakdown: dict = {name: None for name in baseline}
    for delta, reports in zip(delta_grid, per_delta):
        for name, report in reports.items():
            scalar = report.scalar_summary
            blown = (
                report.diverged_runs > 0
                or not math.isfinite(scalar)
                or not math.isfinite(baseline[name])
                or scalar > BLOWUP_FACTOR * baseline[name]
            )
            entries.append(
                SweepEntry(
                    delta=delta,
                    algorithm=name,
                    scalar_rmse=scalar,
                    completed_runs=report.completed_runs,
                    diverged_runs=report.diverged_runs,
                    blown_up=blown,
                )
            )
            # the grid is decreasing, so the first blown delta is the largest
            if blown and breakdown[name] is None:
                breakdown[name] = delta
    return SweepReport(
        delta_grid=delta_grid,
        entries=entries,
        baseline=baseline,
        breakdown_delta=breakdown,
    )


def write_csv(report, path) -> None:
    """Write an RmseReport or SweepReport as CSV with 17 significant digits.

    Deterministic row ordering; parsing the file back recovers the in-memory
    values exactly.
    """
    if isinstance(report, RmseReport):
        n = report.per_component.shape[1]
        header = ["step"] + [f"rmse_x{i + 1}" for i in range(n)] + ["total"]
        pairs = zip(report.per_component, report.total)
        rows = ([k, *cells, total] for k, (cells, total) in enumerate(pairs, start=1))
    elif isinstance(report, SweepReport):
        header = ["delta", "algorithm", "scalar_rmse", "status", "breakdown_flag"]
        rows = (
            [
                e.delta,
                e.algorithm,
                e.scalar_rmse,
                f"diverged {e.diverged_runs}/{e.diverged_runs + e.completed_runs}"
                if e.diverged_runs
                else "ok",
                int(e.blown_up),
            ]
            for e in report.entries
        )
    else:
        raise TypeError(f"cannot serialize report of type {type(report)!r}")
    write_rows(path, header, rows)
