"""Benchmark scenarios, Monte Carlo RMSE evaluation and the conditioning sweep.

Two scenarios are provided: a six-state radar tracking problem with impulsive
(shot) measurement and process noise, and an ill-conditioned variant of the
same dynamics whose nearly collinear measurement rows and delta-scaled noise
drive the innovation covariance toward singularity as delta shrinks.
Both experiments, the radar Monte Carlo and the sweep over delta, go through
one evaluation (``_evaluate``): the sweep is ``run_monte_carlo`` with one
model per delta. An evaluation simulates all of its runs at once, hands the
stacked measurements to the filters and the stacked truth to the RMSE, and
runs its filters in up to as many processes as the process may use CPUs
(``_all_estimates``). A filter whose child sends no result runs in the
calling process, so a crashed child costs time, not an error.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import sys
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from .correntropy import KernelSpec
# called by this module-level name, so a test double bound to it runs every filter
from .filters import ALGORITHMS, _check_algorithms, run_batch
from .model import InitialCondition, StateSpaceModel
from .sim import SeedSpec, ShotNoiseSpec, _simulate

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

    Construction rejects a float constant that is not finite, and a sampling
    period that is not positive or whose square is 0 or overflows, with a
    ``ValueError``. The model's Q and R check the variances' signs.
    """

    rho: float = 0.5
    sampling_period: float = 10.0
    range_noise_var: float = 1000.0**2
    bearing_noise_var: float = 0.017**2
    maneuver_var_1: float = (103.0 / 3.0) ** 2
    maneuver_var_2: float = 1.3e-8
    horizon: int = 300

    def __post_init__(self):
        for item in fields(self):
            value = getattr(self, item.name)
            if isinstance(item.default, float) and not math.isfinite(value):
                raise ValueError(f"{item.name} must be finite, got {value!r}")
        t = self.sampling_period
        if not t > 0.0:
            raise ValueError(f"sampling_period must be positive, got {t!r}")
        if not 0.0 < t * t < math.inf:
            raise ValueError(
                f"initial covariance is not finite: sampling period {t:g} squared is {t * t:g}"
            )


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
    # built first, so a negative bearing variance fails as R, not as its root
    model = StateSpaceModel(F=f, G=g, H=h, Q=q, R=r)
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
    init = InitialCondition(mean=np.zeros(6), covariance=pi0)
    # the eligible window is clamped to the horizon at simulation time
    return model, init, ShotNoiseSpec()


# every delta of the ill-conditioned variant starts from this one, read-only
# initial condition, so a sweep factors no initial covariance
_STANDARD_NORMAL = InitialCondition(mean=np.zeros(6), covariance=np.eye(6))


def _delta_grid(deltas) -> list[float]:
    """``deltas`` as floats, or a ``ValueError`` unless they are non-empty,
    finite, positive and strictly decreasing, each with a positive finite
    square. That is every rule ``build_example2`` has for a delta: R = d^2 I
    is then positive definite, subnormal or not, and the model's other terms
    come from the constants."""
    grid = [float(d) for d in deltas]
    bounds = zip([math.inf, *grid], grid)
    if not grid or not all(0.0 < b < a and 0.0 < b * b < math.inf for a, b in bounds):
        raise ValueError(
            "delta grid must be non-empty, finite, positive and strictly decreasing, "
            f"each with a positive finite square, got {grid}"
        )
    return grid


def build_example2(
    delta: float, constants: RadarConstants = RadarConstants()
) -> tuple[StateSpaceModel, InitialCondition]:
    """Ill-conditioned variant: all-ones measurement rows differing by delta
    in the last column, R = delta^2 I, and the standard normal initial state
    that every delta shares; a delta ``_delta_grid`` rejects raises its error."""
    (delta,) = _delta_grid([delta])
    f, g, q = _radar_dynamics(constants)
    h = np.ones((2, 6))
    h[1, 5] = 1.0 + delta
    r = delta * delta * np.eye(2)
    return StateSpaceModel(F=f, G=g, H=h, Q=q, R=r), _STANDARD_NORMAL


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
    ``scalar_summary`` its time mean. Failed runs are excluded from the
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
    """Each algorithm's ``run_batch(algorithm, models, init, measurements,
    spec)``, in ``algorithms`` order, as the serial loop returns or raises it.

    With P = min(usable CPUs, algorithms), the first P-1 algorithms in
    ``ALGORITHMS`` order (the weighted filters costliest first) each run in a
    forked child while this process runs the others, up to its first error.
    A process without ``os.fork`` or with other Python threads (a child could
    block forever on a lock one of them held) forks nothing. The closing loop
    then runs, in ``algorithms`` order, every algorithm without a result: a
    share whose fork failed or whose child sent none (it raised, exited or
    was killed), and any at or after this process's first error. So every
    result and the first error are the serial loop's; the failing batch runs
    a second time to raise it. Every child is reaped before this returns or
    raises. With two CPUs, ``conventional`` runs in a child while this
    process runs ``sr1a`` and ``sr1b``.

    The children's memory is not in this process's
    ``resource.getrusage(RUSAGE_SELF)``; it is in ``RUSAGE_CHILDREN``.
    ``import numpy`` starts OpenBLAS threads, so on Python 3.12 and later
    ``os.fork`` is expected to issue its ``DeprecationWarning`` about a
    multi-threaded process, although no Python thread runs. Python's default
    filters show it only when ``__main__`` triggers it, so the CLI prints
    nothing, and pytest lists it in its warnings summary; CI runs the suite
    on Python 3.13 to show it. With ``OPENBLAS_NUM_THREADS=1`` one OS thread
    is left, and ``mcckf sweep`` and ``mcckf equivalence`` write the same
    bytes.
    """
    args = (models, init, measurements, spec)
    processes = min(_usable_cpus(), len(algorithms))
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    shares = sorted(algorithms, key=ALGORITHMS.index)[: processes - 1] if forkable else []
    results = {}  # algorithm -> its BatchRun
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
                except Exception:  # raised again, in order, by the closing loop
                    break
        for algorithm, (_, pipe) in children.items():
            with contextlib.suppress(Exception):  # no result, or bytes that do not unpickle
                results[algorithm] = pickle.loads(pipe.read())
    finally:
        for pid, pipe in children.values():
            pipe.close()
            _reap(pid)
    return [results[a] if a in results else run_batch(a, *args) for a in algorithms]


def _rmse_report(name: str, truth, estimates, statuses) -> RmseReport:
    """The RMSE curves of one estimator over its completed runs, from the
    truth and estimates of every run, each (runs, horizon, n)."""
    completed = np.array([status.completed for status in statuses])
    count = int(completed.sum())
    per_component = np.full(truth.shape[1:], np.nan)  # NaN throughout without a completed run
    if count > 0:
        err = truth[completed] - estimates[completed]
        per_component = np.sqrt((err * err).sum(axis=0) / count)
    total = np.sqrt((per_component**2).sum(axis=1))
    return RmseReport(
        algorithm=name,
        per_component=per_component,
        total=total,
        scalar_summary=float(total.mean()),
        completed_runs=count,
        diverged_runs=len(statuses) - count,
        statuses=list(statuses),
    )


def _evaluate(algorithms, models, init, horizon, shot, runs: int, master_seed: int, spec):
    """One dict of ``RmseReport`` per model, each over run indices 0..runs-1
    of ``master_seed``, from ``init`` over ``horizon`` steps with ``shot``.

    One batch holds the runs of every model: it is simulated at once, and
    each filter advances it as one ``run_batch`` (in parallel processes
    where the CPUs allow, ``_all_estimates``). Every run gets the numbers it
    gets alone, bit for bit.
    """
    algorithms = list(algorithms)
    _check_algorithms(algorithms)
    run_models = [model for model in models for _ in range(runs)]
    seeds = [SeedSpec(master_seed, run_index) for _ in models for run_index in range(runs)]
    _, truth, measurements, _ = _simulate(run_models, init, horizon, seeds, shot)
    batches = _all_estimates(algorithms, run_models, init, measurements, spec)
    per_model = [{} for _ in models]
    for name, batch in zip(algorithms, batches):
        for i, report in enumerate(per_model):
            rows = slice(i * runs, (i + 1) * runs)
            report[name] = _rmse_report(
                name, truth[rows], batch.estimates[rows], batch.statuses[rows]
            )
    return per_model


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
    shared = (scenario.init, scenario.horizon, scenario.shot)
    return _evaluate(algorithms, [scenario.model], *shared, runs, master_seed, spec)[0]


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

    ``entries`` holds one ``SweepEntry`` per (delta, algorithm) cell, delta
    by delta down the grid. ``breakdown_delta[name]`` is the largest delta
    at which the algorithm diverged or exceeded the blow-up threshold, or
    None if it never did.
    """

    entries: list
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

    Every delta is one model (``build_example2``) of ``run_monte_carlo``'s
    evaluation, which advances the runs of all deltas as one batch per
    filter: the same run indices and seeds at every delta, and the same RMSE
    accumulation. An
    entry is blown up when any run diverged or when its summary RMSE exceeds
    ``BLOWUP_FACTOR`` times the same algorithm's value at the first
    (largest) grid point.
    """
    delta_grid = _delta_grid(delta_grid)
    pairs = [build_example2(delta, constants) for delta in delta_grid]
    # build_example2 hands every delta the same initial condition
    models, init = [model for model, _ in pairs], pairs[0][1]
    horizon = constants.horizon
    per_delta = _evaluate(algorithms, models, init, horizon, None, runs, master_seed, spec)
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
    return SweepReport(entries=entries, breakdown_delta=breakdown)
