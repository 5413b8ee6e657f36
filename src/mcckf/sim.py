"""Ground-truth trajectory and measurement generation with outlier injection.

Noise, outlier placement and outlier magnitudes come from three independent
child streams spawned from one seed, so the impulse schedule depends only on
the seed and the shot-noise parameters, never on model values, and disabling
shot noise leaves the Gaussian draws untouched. A model and an initial
condition check and factor their covariances when they are made; a
simulation checks only their pairing, with ``validate_model`` as the filters
do, and draws from the factors the filters read: the model's Q and R factors
and the initial condition's factor. The Monte Carlo evaluation simulates all
of its runs at once, each from its own seed, and hands the stacked arrays to
the filters; ``simulate`` is the one-run case and the only one that builds a
``Trajectory`` with its outlier log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import InitialCondition, _ModelStack, _require_valid

__all__ = [
    "SeedSpec",
    "ShotNoiseSpec",
    "Trajectory",
    "draw_gaussian",
    "simulate",
]

SHOT_TARGETS = ("process", "measurement", "both")

# Generator.integers(low, high + 1) draws the magnitudes in int64
_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class SeedSpec:
    """Reproducible, mutually independent per-run random streams.

    Construction rejects a ``master_seed`` or ``run_index`` that is not a
    nonnegative integer with a ``ValueError`` naming the field.
    """

    master_seed: int
    run_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "run_index"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")

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
        bounds = (self.magnitude_low, self.magnitude_high, self.window_start, self.window_end)
        if not all(isinstance(bound, (int, np.integer)) for bound in bounds):
            raise ValueError(f"magnitude and window bounds must be integers, got {bounds}")
        if self.magnitude_low > self.magnitude_high:
            raise ValueError("magnitude_low must not exceed magnitude_high")
        if self.magnitude_low < _INT64.min or self.magnitude_high > _INT64.max:
            raise ValueError(
                f"magnitude bounds must lie in [{_INT64.min}, {_INT64.max}], "
                f"got [{self.magnitude_low}, {self.magnitude_high}]"
            )
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
    """Simulated truth, measurements and the injected-outlier log."""

    initial_state: np.ndarray
    truth: np.ndarray
    measurements: np.ndarray
    outlier_log: list = field(default_factory=list)

    @property
    def horizon(self) -> int:
        return self.truth.shape[0]


def draw_gaussian(stream, mean, covariance_factor) -> np.ndarray:
    """Sample mean + factor @ z with z standard normal."""
    mean = np.asarray(mean, dtype=float)
    factor = np.asarray(covariance_factor, dtype=float)
    return mean + factor @ stream.standard_normal(mean.shape[0])


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
    """Simulate run i with ``models[i]`` (or one model for every run) and
    ``seeds[i]``, every run at once: the stacked initial states (runs, n),
    truth (runs, horizon, n) and measurements (runs, horizon, m), and each
    run's ``((process steps, magnitudes), (measurement steps, magnitudes))``.
    Each distinct model of the ``_ModelStack`` is paired with ``init`` by
    ``validate_model`` first; its runs draw from its Q and R factors and
    ``init.factor``. ``G w``, the truth recursion and ``H x`` are each one
    stacked ``np.matvec``, which gives each run the bits of its one-run
    product; ``tests/test_sim.py`` checks every run bit for bit against the
    per-step oracle ``simulate_per_step`` in ``tests/oracles.py``.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    seeds = list(seeds)
    stack = _ModelStack(models, len(seeds))
    for model in stack.distinct:
        _require_valid(model, init)
    (runs, n, q_dim), m_dim = stack.G.shape, stack.H.shape[1]
    no_shots = (np.empty(0, dtype=int), np.empty((0, 0), dtype=int))
    initial_state = np.empty((runs, n))
    w = np.empty((runs, horizon, q_dim))
    v = np.empty((runs, horizon, m_dim))
    impulses = []
    for i, (model, seed) in enumerate(zip(stack.models, seeds)):
        # each run draws from its own streams: its initial state, then all of
        # its noise in one draw, which yields the numbers per-step draws would
        # (w_1, v_1, w_2, v_2, ...), and the per-step products as stacked ones
        # of the same shapes
        noise_rng, schedule_rng, magnitude_rng = seed.streams()
        initial_state[i] = draw_gaussian(noise_rng, init.mean, init.factor)
        z = noise_rng.standard_normal((horizon, q_dim + m_dim))
        w[i] = np.zeros(q_dim) + np.matvec(model.q_sqrt, z[:, :q_dim])
        v[i] = np.zeros(m_dim) + np.matvec(model.r_sqrt, z[:, q_dim:])
        process = measurement = no_shots
        if shot is not None:
            if shot.targets in ("process", "both"):
                process = _impulse_schedule(shot, horizon, schedule_rng, magnitude_rng, q_dim)
                w[i, process[0] - 1] += process[1]
            if shot.targets in ("measurement", "both"):
                measurement = _impulse_schedule(shot, horizon, schedule_rng, magnitude_rng, m_dim)
                v[i, measurement[0] - 1] += measurement[1]
        impulses.append((process, measurement))

    g_w = np.matvec(stack.G[:, None], w)
    truth = np.empty((runs, horizon, n))
    x = initial_state
    for k in range(horizon):
        x = np.matvec(stack.F, x) + g_w[:, k]
        truth[:, k] = x
    # the measurements overwrite v: H x_k + v_k
    v += np.matvec(stack.H[:, None], truth)
    return initial_state, truth, v, impulses


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
    ``SeedSpec`` inputs reproduce the trajectory bit for bit. An ``init``
    whose mean does not fit the model raises ``validate_model``'s violation
    as ``ValueError``, as the filters do. This is the one-run case of the
    batch simulation the Monte Carlo evaluation makes.
    """
    (x0,), (truth,), (measurements,), ((process, measurement),) = _simulate(
        model, init, horizon, [seed], shot
    )
    outlier_log = sorted(
        (int(k), f"{group}{j + 1}", int(mag))
        for group, (steps, magnitudes) in (("w", process), ("v", measurement))
        for k, row in zip(steps, magnitudes)
        for j, mag in enumerate(row)
    )
    return Trajectory(x0, truth, measurements, outlier_log)
