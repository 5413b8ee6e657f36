"""Correntropy-weighted Kalman filtering in conventional and square-root forms.

Three algebraically equivalent measurement updates are provided:

* ``conventional`` recursively processes the full error covariance with the
  Joseph stabilized update;
* ``sr1a`` propagates a lower Cholesky factor of the covariance but assembles
  the gain through a factor of the information matrix, which requires
  inverting n x n triangular factors at every step;
* ``sr1b`` also propagates the covariance factor but needs the inverse of the
  m x m innovation-covariance factor only, which is what makes it robust in
  ill-conditioned problems.

All three compute the scalar adjusting weight through the same function,
``correntropy.compute_lambda``, so equivalence tests isolate linear-algebra
differences. A dense textbook Kalman filter (``kf_reference``) serves as an
independent oracle: pinning the weight to 1 reduces every variant to it. No
explicit matrix inverse is materialized anywhere except the transposed factor
inverse that the sr1a pre-array is defined with.

Every step function takes the state of one run or of a batch of runs, in
which each array of the state gains a leading runs axis; ``run_batch``
advances many Monte Carlo runs per numpy call, ``run_filter`` one run without
the runs axis. One table maps each algorithm to its two step functions. The
weighted filters' step functions read the model's ``terms``: one run reads
its model's 2-D ``StepTerms``, a batch the ``StepTerms`` of every run's
matrices stacked with a leading runs axis, whether the runs share one model
or each has its own. The dense oracle reads the matrices themselves, stacked
the same way. A batch's numbers come from stacked kernels and numpy calls
that compute each run's numbers with the same operations, in the same
order, as that run alone (see ``mcckf.linalg``), so a run's estimates do not
depend on the batch it ran in, bit for bit. A run that fails a check leaves
the batch at that step with its own typed reason; the step is then
recomputed for the runs that remain. The drivers record a failed
linear-algebra check as a ``Diverged`` of the runs concerned; a step
function called directly raises the ``LinalgError`` itself.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
# the steps call the weight by this module-level name, so a wrapper bound to
# it (a tracer, a test double) sees every call
from .correntropy import KernelSpec, compute_lambda
from .model import InitialCondition, StepTerms, validate_model

__all__ = [
    "ALGORITHMS",
    "WEIGHTED_FILTERS",
    "DIVERGENCE_LIMIT",
    "Diverged",
    "FilterState",
    "StepReport",
    "RunStatus",
    "FilterRun",
    "BatchRun",
    "mcckf_time_update",
    "mcckf_measurement_update",
    "sr_time_update",
    "sr1a_measurement_update",
    "sr1b_measurement_update",
    "run_filter",
    "run_batch",
]


@dataclass(frozen=True)
class _Filter:
    """An algorithm's covariance family and its step functions."""

    square_root: bool  # propagates a Cholesky factor, not the full covariance
    time_update: str
    measurement_update: str


# Every algorithm's step functions, which run_filter and run_batch drive. They
# are stored by name and looked up in this module at call time, so a wrapper
# bound to that name (a tracer, a test double) is called.
_FILTERS = {
    "conventional": _Filter(False, "mcckf_time_update", "mcckf_measurement_update"),
    "sr1a": _Filter(True, "sr_time_update", "sr1a_measurement_update"),
    "sr1b": _Filter(True, "sr_time_update", "sr1b_measurement_update"),
    "kf_reference": _Filter(False, "_kf_time_update", "_kf_measurement_update"),
}
ALGORITHMS = tuple(_FILTERS)
# the paper's three weighted forms: every algorithm but the dense oracle
WEIGHTED_FILTERS = ALGORITHMS[:-1]

# An estimate component beyond this magnitude marks the run diverged even if
# still finite; it makes the breakdown sweep deterministic.
DIVERGENCE_LIMIT = 1e12


class Diverged(Exception):
    """A filter step produced an unusable state (numerical breakdown).

    ``reasons`` maps the position in the batch of each run that failed to
    why it failed; a single run is position 0.
    """

    def __init__(self, reasons: dict[int, str], step: int | None = None):
        self.reasons = reasons
        self.step = step
        super().__init__("; ".join(self.reason_for(i) for i in reasons))

    def reason_for(self, run: int) -> str:
        """The reason of the run at ``run``, prefixed with the step."""
        reason = self.reasons[run]
        return reason if self.step is None else f"step {self.step}: {reason}"


@dataclass
class FilterState:
    """Estimate plus covariance representation at one step.

    Exactly one of ``covariance`` (full symmetric P) or ``factor`` (lower
    Cholesky S with S @ S.T == P) is set, depending on the algorithm family.
    The state of a batch of runs has a leading runs axis on every array:
    estimate (runs, n) and covariance or factor (runs, n, n).
    """

    step: int
    estimate: np.ndarray
    covariance: np.ndarray | None = None
    factor: np.ndarray | None = None

    def __post_init__(self):
        self.estimate = np.asarray(self.estimate, dtype=float)
        if (self.covariance is None) == (self.factor is None):
            raise ValueError("exactly one of covariance/factor must be set")

    @classmethod
    def full(cls, step, estimate, covariance) -> "FilterState":
        return cls(step, estimate, covariance=np.asarray(covariance, dtype=float))

    @classmethod
    def square_root(cls, step, estimate, factor) -> "FilterState":
        return cls(step, estimate, factor=np.asarray(factor, dtype=float))

    @property
    def runs(self) -> int | None:
        """Number of runs of a batch; None for one run's state."""
        return None if self.estimate.ndim == 1 else len(self.estimate)

    def covariance_matrix(self) -> np.ndarray:
        """Full covariance, reconstructing factor @ factor.T if needed."""
        if self.covariance is not None:
            return self.covariance
        return self.factor @ self.factor.mT

    def take(self, index) -> "FilterState":
        """Index the runs axis: an integer gives one run's state, a mask or
        index array a smaller batch, and ``np.newaxis`` makes one run's state
        a batch of one."""
        def pick(a):
            return None if a is None else a[index]

        return FilterState(
            self.step, self.estimate[index], pick(self.covariance), pick(self.factor)
        )


@dataclass
class StepReport:
    """Per-step diagnostics: adjusting weight, gain and innovation.

    For a batch, ``lam`` holds one weight per run and the arrays carry a
    leading runs axis.
    """

    lam: float | np.ndarray
    gain: np.ndarray
    innovation: np.ndarray


@dataclass
class RunStatus:
    """Terminal status of a filtering run."""

    completed: bool
    steps_completed: int
    failed_step: int | None = None
    reason: str | None = None


@dataclass
class FilterRun:
    """Trajectory of posterior states and reports plus terminal status."""

    initial: FilterState
    states: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    status: RunStatus | None = None

    def estimates(self) -> np.ndarray:
        """Posterior estimates stacked per step, shape (steps, n)."""
        n = self.initial.estimate.shape[0]
        if not self.states:
            return np.zeros((0, n))
        return np.array([s.estimate for s in self.states])


@dataclass
class BatchRun:
    """Posterior estimates of a batch of runs plus each run's status.

    ``estimates[i, k - 1]`` is run i's estimate after step k; it is NaN from
    the step at which the run failed.
    """

    estimates: np.ndarray
    statuses: list


def _times(lam, a: np.ndarray) -> np.ndarray:
    """lam * a, with one weight per matrix of a batch."""
    return lam * a if np.ndim(lam) == 0 else lam[:, None, None] * a


def _require_finite(step: int, runs: int | None, **named_arrays):
    """Raise ``Diverged`` for each run with a non-finite entry in one of the
    arrays (leading runs axis unless ``runs`` is None); its reason names the
    first such array."""
    reasons = {}
    for name, arr in named_arrays.items():
        if np.isfinite(arr).all():
            continue
        if runs is None:
            raise Diverged({0: f"non-finite {name}"}, step)
        bad = ~np.isfinite(arr).reshape(runs, -1).all(axis=1)
        for run in np.flatnonzero(bad).tolist():
            reasons.setdefault(run, f"non-finite {name}")
    if reasons:
        raise Diverged(reasons, step)


def _innovation(terms, pred: FilterState, y) -> np.ndarray:
    y, m = np.asarray(y, dtype=float), terms.H.shape[-2]
    if y.shape[-1:] != (m,):
        raise ValueError(f"measurement must have {m} components, got shape {y.shape}")
    innovation = y - np.matvec(terms.H, pred.estimate)
    _require_finite(pred.step, pred.runs, innovation=innovation)
    return innovation


def _information_gain(terms, info_factor, lam, solve) -> np.ndarray:
    """lam * X^{-T} X^{-1} H^T R^{-1} by two triangular solves with ``solve``,
    for the lower factor X of the updated information matrix (conventional
    and sr1a)."""
    half = solve(info_factor, terms.ht_r_inv)
    return _times(lam, solve(info_factor, half, transposed=True))


def mcckf_time_update(model, prior: FilterState) -> FilterState:
    """Propagate estimate and full covariance one step forward."""
    step = prior.step + 1
    t = model.terms
    x = np.matvec(t.F, prior.estimate)
    p = linalg.symmetrize(t.F @ prior.covariance @ t.F.mT + t.g_q_g)
    _require_finite(step, prior.runs, predicted_estimate=x, predicted_covariance=p)
    return FilterState.full(step, x, p)


def mcckf_measurement_update(
    model,
    pred: FilterState,
    y,
    spec: KernelSpec | None,
    pin_weight: float | None = None,
):
    """Conventional weighted measurement update with the Joseph covariance form.

    The gain is lam * (P^{-1} + lam H^T R^{-1} H)^{-1} H^T R^{-1}, realized
    through Cholesky factors and triangular solves; the predicted covariance
    is inverted here, which is where this form breaks down first under
    ill-conditioning of P.
    """
    step, runs = pred.step, pred.runs
    t = model.terms
    innovation = _innovation(t, pred, y)
    # pred.covariance is symmetrized by construction; skip the recheck
    p_factor = linalg.cholesky_lower(pred.covariance, check_symmetry=False)
    lam = compute_lambda(spec, innovation, t.r_sqrt, pin_weight)
    # p_factor and info_factor skip the singular-diagonal check: a pivot above
    # its floor (>= 0) is at least 4.9e-324, so its root, the diagonal entry,
    # is at least 2.2e-162, far above the smallest normal double.
    inv_factor = linalg._inverse_unchecked(p_factor)
    p_inv = inv_factor.mT @ inv_factor
    # cholesky_lower factors the symmetric part of info
    info = p_inv + _times(lam, t.ht_r_inv_h)
    info_factor = linalg.cholesky_lower(info, check_symmetry=False)
    gain = _information_gain(t, info_factor, lam, linalg._solve_unchecked)
    i_kh = linalg._identity(t.H.shape[-1]) - gain @ t.H
    p_new = linalg.symmetrize(
        i_kh @ pred.covariance @ i_kh.mT
        + gain @ t.R @ gain.mT
    )
    x_new = pred.estimate + np.matvec(gain, innovation)
    _require_finite(step, runs, estimate=x_new, covariance=p_new, gain=gain)
    return FilterState.full(step, x_new, p_new), StepReport(lam, gain, innovation)


def sr_time_update(model, prior: FilterState) -> FilterState:
    """Square-root time update via the pre-array [F S, G Q_sqrt]."""
    step, runs = prior.step + 1, prior.runs
    t = model.terms
    x = np.matvec(t.F, prior.estimate)
    pre = np.concatenate([t.F @ prior.factor, t.g_q_sqrt], axis=-1)
    _require_finite(step, runs, predicted_estimate=x, time_update_pre_array=pre)
    # pre is finite on the line above: lower_triangularize's check would repeat it
    return FilterState.square_root(step, x, linalg._triangularize(pre))


def _sr_posterior(t, pred: FilterState, gain, lam, innovation):
    """Estimate and factor update shared by sr1a and sr1b: the Joseph form
    triangularized from [(I - K H) S_pred, K R_sqrt]."""
    step = pred.step
    x_new = pred.estimate + np.matvec(gain, innovation)
    i_kh = linalg._identity(t.H.shape[-1]) - gain @ t.H
    joseph_pre = np.concatenate([i_kh @ pred.factor, gain @ t.r_sqrt], axis=-1)
    _require_finite(step, pred.runs, estimate=x_new, joseph_pre_array=joseph_pre, gain=gain)
    # joseph_pre is finite on the line above
    factor_new = linalg._triangularize(joseph_pre)
    return FilterState.square_root(step, x_new, factor_new), StepReport(
        lam, gain, innovation
    )


def sr1a_measurement_update(
    model,
    pred: FilterState,
    y,
    spec: KernelSpec | None,
    pin_weight: float | None = None,
):
    """Square-root measurement update through an information-matrix factor.

    Triangularizes [S_pred^{-T}, sqrt(lam) H^T R_sqrt^{-T}] into the lower
    factor X with X @ X.T equal to the inverse of the updated covariance, then
    realizes the gain by two n-dimensional triangular solves against X. The
    predicted factor is inverted every step, so conditioning of the n x n
    factors governs this form's breakdown.
    """
    step, runs = pred.step, pred.runs
    t = model.terms
    innovation = _innovation(t, pred, y)
    lam = compute_lambda(spec, innovation, t.r_sqrt, pin_weight)
    pred_inv = linalg.triangular_inverse(pred.factor)
    pre = np.concatenate([pred_inv.mT, _times(np.sqrt(lam), t.r_sqrt_inv_h.mT)], axis=-1)
    _require_finite(step, runs, **{"information pre-array": pre})
    # pre is finite on the line above; a rank-deficient pre gives a zero
    # diagonal in info_factor, which the solves still check
    info_factor = linalg._triangularize(pre)
    gain = _information_gain(t, info_factor, lam, linalg.triangular_solve)
    return _sr_posterior(t, pred, gain, lam, innovation)


def sr1b_measurement_update(
    model,
    pred: FilterState,
    y,
    spec: KernelSpec | None,
    pin_weight: float | None = None,
):
    """Square-root measurement update through the innovation-covariance factor.

    Triangularizes [sqrt(lam) H S_pred, R_sqrt] into the m x m innovation
    factor and realizes the gain by two m-dimensional triangular solves
    applied to lam * P_pred H^T, with P_pred reconstructed from its factor.
    No n x n factor is ever inverted.
    """
    step, runs = pred.step, pred.runs
    t = model.terms
    innovation = _innovation(t, pred, y)
    lam = compute_lambda(spec, innovation, t.r_sqrt, pin_weight)
    pre = np.concatenate(
        [_times(np.sqrt(lam), t.H @ pred.factor), t.r_sqrt], axis=-1
    )
    _require_finite(step, runs, **{"innovation pre-array": pre})
    # pre is finite on the line above; the solves below check the diagonal
    innov_factor = linalg._triangularize(pre)
    p_pred = pred.factor @ pred.factor.mT
    weighted = _times(lam, t.H @ p_pred)
    half = linalg.triangular_solve(innov_factor, weighted)
    gain = linalg.triangular_solve(innov_factor, half, transposed=True).mT
    return _sr_posterior(t, pred, gain, lam, innovation)


def _kf_time_update(model, prior: FilterState) -> FilterState:
    """The dense oracle's prediction, from the model's own matrices; its
    measurement update checks the result."""
    f, g, q = model.F, model.G, model.Q
    x_pred = np.matvec(f, prior.estimate)
    p_pred = linalg.symmetrize(f @ prior.covariance @ f.mT + g @ q @ g.mT)
    return FilterState.full(prior.step + 1, x_pred, p_pred)


def _singular_runs(a: np.ndarray, b: np.ndarray) -> list[int]:
    """The runs of a stack whose own ``np.linalg.solve`` fails."""
    singular = []
    for run, (a_run, b_run) in enumerate(zip(a, b)):
        try:
            np.linalg.solve(a_run, b_run)
        except np.linalg.LinAlgError:
            singular.append(run)
    return singular


def _kf_measurement_update(model, pred: FilterState, y, spec, pin_weight):
    """The dense oracle's update: the classical Kalman filter, whose weight
    is 1 whatever ``spec`` says; a ``pin_weight`` other than 1 is rejected.
    The gain is solved by LU from the model's own matrices, and only the
    step's results are checked.
    """
    if pin_weight is not None and pin_weight != 1.0:
        raise ValueError(f"kf_reference's weight is 1, got a pinned weight of {pin_weight}")
    step, runs = pred.step, pred.runs
    h, r, p_pred = model.H, model.R, pred.covariance
    innovation = y - np.matvec(h, pred.estimate)
    innov_cov = h @ p_pred @ h.mT + r
    rhs = h @ p_pred
    try:
        # a stack's solve fails as a whole; each run's own solve finds its runs
        gain = np.linalg.solve(innov_cov, rhs).mT
    except np.linalg.LinAlgError as exc:
        singular = [0] if runs is None else _singular_runs(innov_cov, rhs)
        raise Diverged(dict.fromkeys(singular, "singular innovation covariance"), step) from exc
    x_new = pred.estimate + np.matvec(gain, innovation)
    i_kh = linalg._identity(h.shape[-1]) - gain @ h
    p_new = linalg.symmetrize(i_kh @ p_pred @ i_kh.mT + gain @ r @ gain.mT)
    _require_finite(step, runs, estimate=x_new, covariance=p_new, gain=gain)
    lam = 1.0 if runs is None else np.ones(runs)
    return FilterState.full(step, x_new, p_new), StepReport(lam, gain, innovation)


def _advance(algorithm, model, state: FilterState, y, spec, pin_weight):
    """Time plus measurement update of one run or of every run of a batch.

    A failed linear-algebra check fails the runs whose matrices failed it
    (``LinalgError.failed``; one run's 2-D error names no matrix), with the
    error class and its message as the reason.
    """
    entry = _FILTERS[algorithm]
    step_functions = globals()
    try:
        pred = step_functions[entry.time_update](model, state)
        return step_functions[entry.measurement_update](model, pred, y, spec, pin_weight)
    except linalg.LinalgError as exc:
        name = type(exc).__name__
        failed = exc.failed or {0: str(exc)}
        reasons = {run: f"{name}: {msg}" for run, msg in failed.items()}
        raise Diverged(reasons, state.step + 1) from exc


class _ModelStack:
    """The model of each run of a batch, read by the step functions through
    ``terms`` like a single model; runs may share a model."""

    def __init__(self, models: list):
        self.models = models
        distinct = {id(m): m for m in models}
        position = {key: i for i, key in enumerate(distinct)}
        self.distinct = list(distinct.values())
        rows = np.array([position[id(m)] for m in models])
        self.F, self.G, self.H, self.Q, self.R = (
            np.stack([getattr(m, name) for m in self.distinct])[rows] for name in "FGHQR"
        )

    @cached_property
    def terms(self) -> StepTerms:
        """The ``StepTerms`` of every run's stacked matrices."""
        return StepTerms(self)

    def take(self, keep: np.ndarray) -> "_ModelStack":
        """The models of the runs that ``keep`` (a mask) selects."""
        return _ModelStack([m for m, k in zip(self.models, keep) if k])


def _require_bounded(estimate: np.ndarray, step: int):
    if np.abs(estimate).max() > DIVERGENCE_LIMIT:
        big = np.abs(estimate).max(axis=-1) > DIVERGENCE_LIMIT
        raise Diverged(
            dict.fromkeys(
                np.flatnonzero(big).tolist(),
                f"estimate magnitude exceeded {DIVERGENCE_LIMIT:.0e}",
            ),
            step,
        )


def _steps(algorithm, model, state, ys, spec, pin_weight, statuses):
    """Advance ``state``, one run or a batch, over the step-major measurements
    ``ys`` ((steps, m), or (steps, runs, m) for a batch), yielding
    ``(live, state, report)`` after each step.

    ``live`` holds the indices of the runs still in the batch, one per row of
    ``state``. A run that fails a check, or whose estimate leaves
    ``DIVERGENCE_LIMIT``, gets its status in ``statuses`` and leaves the
    batch, with its model if each run has its own; the step is then
    recomputed for the others.
    """
    live = np.arange(len(statuses))
    for k in range(1, len(ys) + 1):
        while True:
            try:
                new_state, report = _advance(
                    algorithm, model, state, ys[k - 1], spec, pin_weight
                )
                _require_bounded(new_state.estimate, k)
                break
            except Diverged as exc:
                for row in exc.reasons:
                    statuses[live[row]] = RunStatus(
                        completed=False,
                        steps_completed=k - 1,
                        failed_step=k,
                        reason=exc.reason_for(row),
                    )
                if len(exc.reasons) == len(live):
                    return
                keep = np.ones(len(live), dtype=bool)
                keep[list(exc.reasons)] = False
                live, state, ys = live[keep], state.take(keep), ys[:, keep]
                model = model.take(keep)
        state = new_state
        yield live, state, report


def _check_inputs(algorithm, model, init, measurements) -> None:
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    violations = validate_model(model, init, require_spd_init=_FILTERS[algorithm].square_root)
    if violations:
        raise ValueError("model validation failed: " + "; ".join(violations))
    m = model.obs_dim
    if measurements.shape[-1] != m:
        raise ValueError(
            f"measurements must have {m} components each, got shape {measurements.shape}"
        )


def _initial_state(algorithm: str, init: InitialCondition) -> FilterState:
    if _FILTERS[algorithm].square_root:
        return FilterState.square_root(0, init.mean, linalg.cholesky_lower(init.covariance))
    return FilterState.full(0, init.mean, init.covariance)


def run_filter(
    algorithm: str,
    model,
    init: InitialCondition,
    measurements,
    spec: KernelSpec | None = None,
    pin_weight: float | None = None,
) -> FilterRun:
    """Drive one algorithm over a measurement sequence.

    Args:
        algorithm: one of ``conventional``, ``sr1a``, ``sr1b``, ``kf_reference``.
        model: state-space model.
        init: initial mean and covariance; must be positive definite for the
            square-root variants.
        measurements: sequence of measurement vectors, one per step
            k = 1..N, each with the model's output dimension (or a scalar
            per step for a one-output model).
        spec: kernel bandwidth for the adjusting weight; may be omitted when
            ``pin_weight`` is given or for ``kf_reference``.
        pin_weight: fix the adjusting weight (e.g. 1.0 reduces every variant
            to the classical filter, 0.0 rejects every measurement);
            ``kf_reference`` accepts only 1.0.

    Returns:
        ``FilterRun`` with per-step posterior states and reports up to
        completion or the first divergence; a non-finite estimate or one with
        any component beyond ``DIVERGENCE_LIMIT`` is recorded as divergence,
        never silently propagated.
    """
    rows = [np.atleast_1d(np.asarray(y, dtype=float)) for y in measurements]
    ys = np.array(rows, dtype=float) if rows else np.zeros((0, model.obs_dim))
    if ys.ndim != 2:
        raise ValueError(f"measurements must be one vector per step, got shape {ys.shape}")
    _check_inputs(algorithm, model, init, ys)
    run = FilterRun(initial=_initial_state(algorithm, init))
    statuses = [None]
    for _, state, report in _steps(
        algorithm, model, run.initial, ys, spec, pin_weight, statuses
    ):
        run.states.append(state)
        run.reports.append(report)
    run.status = statuses[0] or RunStatus(completed=True, steps_completed=len(run.states))
    return run


def run_batch(
    algorithm: str,
    model,
    init: InitialCondition,
    measurements,
    spec: KernelSpec | None = None,
) -> BatchRun:
    """Drive one algorithm over several runs' measurement sequences at once.

    ``measurements`` has shape (runs, steps, m). ``model`` is one model for
    every run, or a sequence with one model per run; per-run models must
    have equal dimensions and share ``init``. The runs advance together,
    one numpy call per operation for the whole batch, and each run's
    estimates and status equal, bit for bit, what ``run_filter`` returns for
    it alone with its model. Arguments are as for ``run_filter``, without a
    pinned weight.
    """
    ys = np.asarray(measurements, dtype=float)
    if ys.ndim != 3:
        raise ValueError(f"measurements must have shape (runs, steps, m), got {ys.shape}")
    if len(ys) == 0:
        raise ValueError(f"measurements must hold at least one run, got shape {ys.shape}")
    runs, horizon, _ = ys.shape
    stack = _ModelStack(_models_of_runs(model, runs))
    for distinct in stack.distinct:
        _check_inputs(algorithm, distinct, init, ys)
    estimates = np.full((runs, horizon, stack.distinct[0].state_dim), np.nan)
    statuses = [None] * runs
    initial = _initial_state(algorithm, init)
    ys = np.swapaxes(ys, 0, 1)
    if runs == 1:  # one run takes run_filter's path, without the runs axis
        model, ys = stack.distinct[0], ys[:, 0]
    else:
        model, initial = stack, initial.take(np.newaxis).take(np.zeros(runs, dtype=int))
    for k, (live, state, _) in enumerate(
        _steps(algorithm, model, initial, ys, spec, None, statuses)
    ):
        estimates[live, k] = state.estimate
    statuses = [s or RunStatus(completed=True, steps_completed=horizon) for s in statuses]
    return BatchRun(estimates, statuses)


def _models_of_runs(model, runs: int) -> list:
    """One model per run, from one shared model or a per-run sequence."""
    if not isinstance(model, Sequence):
        return [model] * runs
    models = list(model)
    if len(models) != runs:
        raise ValueError(f"got {len(models)} models for {runs} runs")
    dims = {(m.state_dim, m.noise_dim, m.obs_dim) for m in models}
    if len(dims) > 1:
        raise ValueError(
            "the models of a batch must have equal (state_dim, noise_dim, obs_dim), "
            f"got {sorted(dims)}"
        )
    return models
