"""Ground-truth trajectory and measurement generation with outlier injection.

Noise, outlier placement and outlier magnitudes come from three independent
child streams spawned from one seed, so the impulse schedule depends only on
the seed and the shot-noise parameters, never on model values, and disabling
shot noise leaves the Gaussian draws untouched. ``simulate_batch`` simulates
many runs at once, each from its own seed, and ``simulate`` is its one-run
case.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .model import InitialCondition

__all__ = [
    "SeedSpec",
    "ShotNoiseSpec",
    "Trajectory",
    "draw_gaussian",
    "psd_factor",
    "simulate",
    "simulate_batch",
    "write_rows",
    "write_trajectory_csv",
]

SHOT_TARGETS = ("process", "measurement", "both")

# The eigenvalues of an n x n PSD matrix computed in floating point may come
# out negative by about n * eps times the largest; psd_factor allows 100 times
# that before it rejects the matrix.
_ROUNDOFF = 100.0 * float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class SeedSpec:
    """Reproducible, mutually independent per-run random streams."""

    master_seed: int
    run_index: int = 0

    def streams(self):
        """(noise, schedule, magnitude) generators, independent by construction."""
        root = np.random.SeedSequence(self.master_seed, spawn_key=(self.run_index,))
        children = root.spawn(3)
        return tuple(np.random.default_rng(child) for child in children)


@dataclass(frozen=True)
class ShotNoiseSpec:
    """Impulsive-outlier injection parameters.

    A fraction of the steps inside [window_start, window_end] receive additive
    impulses on every channel of each targeted noise group; magnitudes are
    drawn from the discrete uniform distribution on the integers
    {magnitude_low, ..., magnitude_high}. The two groups (process and
    measurement noise) get independently chosen schedules.
    """

    corrupted_fraction: float = 0.20
    magnitude_low: int = 0
    magnitude_high: int = 5
    window_start: int = 21
    window_end: int = 300
    targets: str = "both"

    def __post_init__(self):
        if not 0.0 <= self.corrupted_fraction <= 1.0:
            raise ValueError(f"fraction must lie in [0, 1], got {self.corrupted_fraction}")
        if self.magnitude_low > self.magnitude_high:
            raise ValueError("magnitude_low must not exceed magnitude_high")
        if not 1 <= self.window_start <= self.window_end:
            raise ValueError(
                f"bad window [{self.window_start}, {self.window_end}]"
            )
        if self.targets not in SHOT_TARGETS:
            raise ValueError(f"targets must be one of {SHOT_TARGETS}")

    def corrupted_count(self, horizon: int) -> int:
        window = self.window_steps(horizon)
        return int(round(self.corrupted_fraction * len(window)))

    def window_steps(self, horizon: int) -> np.ndarray:
        return np.arange(self.window_start, min(self.window_end, horizon) + 1)


@dataclass
class Trajectory:
    """Simulated truth, measurements and the injected-outlier log; the log
    is None for the runs of ``simulate_batch``, which does not build it."""

    initial_state: np.ndarray
    truth: np.ndarray
    measurements: np.ndarray
    outlier_log: list | None = field(default_factory=list)

    @property
    def horizon(self) -> int:
        return self.truth.shape[0]


def draw_gaussian(stream, mean, covariance_factor) -> np.ndarray:
    """Sample mean + factor @ z with z standard normal."""
    mean = np.asarray(mean, dtype=float)
    factor = np.asarray(covariance_factor, dtype=float)
    return mean + factor @ stream.standard_normal(mean.shape[0])


def psd_factor(a: np.ndarray) -> np.ndarray:
    """Lower-triangular factor of a PSD matrix, tolerating semidefiniteness.

    Falls back to an eigendecomposition when the strict Cholesky floor
    rejects the matrix (e.g. a zero noise covariance in a noiseless test
    model). Negative eigenvalues of roundoff size are clipped to zero; a
    larger one raises ``ValueError``, since the matrix is not a covariance.
    """
    a = np.asarray(a, dtype=float)
    try:
        return linalg.cholesky_lower(a)
    except linalg.NotPositiveDefinite:
        w, v = np.linalg.eigh(linalg.symmetrize(a))
        floor = -len(w) * _ROUNDOFF * np.abs(w).max(initial=0.0)
        if w.min(initial=0.0) < floor:
            raise ValueError(
                f"covariance is not positive semidefinite: eigenvalue {w.min():.6e} "
                f"is below {floor:.6e}"
            ) from None
        root = v * np.sqrt(np.clip(w, 0.0, None))
        return linalg.lower_triangularize(root)


def _impulse_schedule(shot, horizon, schedule_rng, magnitude_rng, channels):
    """The corrupted steps of one noise group, ascending, and their
    magnitudes (one row per step), fully seed-determined."""
    window = shot.window_steps(horizon)
    count = shot.corrupted_count(horizon)
    if count == 0 or channels == 0:
        return np.empty(0, dtype=int), np.empty((0, channels), dtype=int)
    steps = np.sort(schedule_rng.choice(window, size=count, replace=False))
    magnitudes = magnitude_rng.integers(
        shot.magnitude_low, shot.magnitude_high + 1, size=(len(steps), channels)
    )
    return steps, magnitudes


def _simulate(models, init, horizon, seeds, shot):
    """The trajectories of ``simulate_batch`` and each run's
    ``((process steps, magnitudes), (measurement steps, magnitudes))``."""
    models, seeds = list(models), list(seeds)
    if len(models) != len(seeds):
        raise ValueError(f"got {len(models)} models for {len(seeds)} seeds")
    if not models:
        raise ValueError("at least one run is required")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    dims = {(m.state_dim, m.noise_dim, m.obs_dim) for m in models}
    if len(dims) > 1:
        raise ValueError(f"the models of one batch must share their dimensions, got {sorted(dims)}")
    ((n, q_dim, m_dim),) = dims
    runs = len(models)
    no_shots = (np.empty(0, dtype=int), np.empty((0, 0), dtype=int))

    init_factor = psd_factor(init.covariance)
    noise_factors = {}
    initial_state = np.empty((runs, n))
    g_w = np.empty((runs, horizon, n))
    v = np.empty((runs, horizon, m_dim))
    impulses = []
    for i, (model, seed) in enumerate(zip(models, seeds)):
        if id(model) not in noise_factors:
            noise_factors[id(model)] = psd_factor(model.Q), psd_factor(model.R)
        q_factor, r_factor = noise_factors[id(model)]
        # each run draws from its own streams: its initial state, then all of
        # its noise in one draw, which yields the numbers per-step draws would
        # (w_1, v_1, w_2, v_2, ...), and the per-step products as stacked ones
        # of the same shapes
        noise_rng, schedule_rng, magnitude_rng = seed.streams()
        initial_state[i] = draw_gaussian(noise_rng, init.mean, init_factor)
        z = noise_rng.standard_normal((horizon, q_dim + m_dim))
        w = np.zeros(q_dim) + np.matvec(q_factor, z[:, :q_dim])
        v[i] = np.zeros(m_dim) + np.matvec(r_factor, z[:, q_dim:])
        process = measurement = no_shots
        if shot is not None:
            if shot.targets in ("process", "both"):
                process = _impulse_schedule(shot, horizon, schedule_rng, magnitude_rng, q_dim)
                w[process[0] - 1] += process[1]
            if shot.targets in ("measurement", "both"):
                measurement = _impulse_schedule(shot, horizon, schedule_rng, magnitude_rng, m_dim)
                v[i, measurement[0] - 1] += measurement[1]
        impulses.append((process, measurement))
        g_w[i] = np.matvec(model.G, w)

    f = np.stack([model.F for model in models])
    truth = np.empty((runs, horizon, n))
    x = initial_state
    for k in range(horizon):
        x = np.matvec(f, x) + g_w[:, k]
        truth[:, k] = x
    # the measurements overwrite v: H x_k + v_k
    for i, model in enumerate(models):
        v[i] += np.matvec(model.H, truth[i])
    trajectories = [
        Trajectory(initial_state[i], truth[i], v[i], outlier_log=None) for i in range(runs)
    ]
    return trajectories, impulses


def simulate_batch(
    models,
    init: InitialCondition,
    horizon: int,
    seeds,
    shot: ShotNoiseSpec | None = None,
) -> list[Trajectory]:
    """Simulate run i with ``models[i]`` and ``seeds[i]``, every run at once.

    Each run draws from the streams of its own ``SeedSpec``, so its
    trajectory is bit for bit the one ``simulate`` gives it alone. Q, R and
    the initial covariance are factored once per distinct model (runs share
    a model by passing the same object), and the truth recursion advances
    every run per ``np.matvec``. The outlier log is not built: each
    trajectory's ``outlier_log`` is None.

    Raises ``ValueError`` when the counts of models and seeds differ, when
    there are no runs, when the models' dimensions differ, or when
    ``horizon < 1``.
    """
    return _simulate(models, init, horizon, seeds, shot)[0]


def simulate(
    model,
    init: InitialCondition,
    horizon: int,
    seed: SeedSpec,
    shot: ShotNoiseSpec | None = None,
) -> Trajectory:
    """Simulate truth and measurements over steps 1..horizon.

    Truth follows x_k = F x_{k-1} + G w_{k-1} with w ~ N(0, Q), measurements
    y_k = H x_k + v_k with v ~ N(0, R); when ``shot`` is given, the targeted
    noise groups receive additive integer impulses on the scheduled steps,
    which ``outlier_log`` lists as (step, channel, magnitude). Identical
    ``SeedSpec`` inputs reproduce the trajectory bit for bit. This is the
    one-run case of ``simulate_batch``.
    """
    (trajectory,), ((process, measurement),) = _simulate([model], init, horizon, [seed], shot)
    trajectory.outlier_log = sorted(
        (int(k), f"{group}{j + 1}", int(mag))
        for group, (steps, magnitudes) in (("w", process), ("v", measurement))
        for k, row in zip(steps, magnitudes)
        for j, mag in enumerate(row)
    )
    return trajectory


def write_rows(path, header, rows) -> None:
    """Write a header and rows as CSV. Floats get 17 significant digits, so
    parsing the file back recovers them exactly; other cells go through
    ``str``."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(
                [f"{v:.17g}" if isinstance(v, float) else str(v) for v in row]
                for row in rows
            )
    except OSError as exc:
        raise OSError(f"failed writing CSV to {path}: {exc}") from exc


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Write step, truth components, measurement components and outlier flags."""
    n = trajectory.truth.shape[1]
    m = trajectory.measurements.shape[1]
    process_steps = {s for s, ch, _ in trajectory.outlier_log if ch.startswith("w")}
    measurement_steps = {s for s, ch, _ in trajectory.outlier_log if ch.startswith("v")}
    header = ["step"] + [f"x{i + 1}" for i in range(n)] + [f"y{j + 1}" for j in range(m)]
    rows = (
        [k, *x, *y, int(k in process_steps), int(k in measurement_steps)]
        for k, (x, y) in enumerate(zip(trajectory.truth, trajectory.measurements), start=1)
    )
    write_rows(path, header + ["shot_w", "shot_v"], rows)
