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
independent oracle: pinning the weight to 1 reduces every variant to it. The
weighted filters invert triangular factors only: the R factor once per model
(the model's ``r_sqrt_inv``, which whitens the innovation in the weight),
and the predicted factor at every step in the conventional and sr1a
updates.

Every step function takes the state of one run or of a batch of runs, in
which each array of the state gains a leading runs axis; ``run_batch``
advances many Monte Carlo runs per numpy call, ``run_filter`` one run without
the runs axis. One table maps each algorithm to its two step functions. The
weighted filters' step functions read the model's matrices and the noise
factors and products it set when it was made: one run reads its 2-D model, a
batch its ``model._ModelStack``, which stacks every run's matrices and terms
with a leading runs axis, whether the runs share one model or each has its
own. The dense oracle reads the matrices only. No operation mixes runs, so a
run's estimates do not depend on the batch it ran in, bit for bit (the tests
compare with ``np.array_equal``, not a tolerance), where the stacked kernels
keep each matrix's bits (``mcckf.linalg`` states on which BLAS kernels). A
run that fails a check leaves the batch at that step with its own typed
reason; the step is then recomputed for the runs that remain. Every failed
check inside a step raises a ``linalg.LinalgError`` (``NonFiniteInput`` for a
non-finite array, whose message names it); on a batch, its ``failed`` names
the runs that failed it. The drivers record it, with its class, as those
runs' reason (``step 3: NotPositiveDefinite: pivot ...``); an estimate beyond
``DIVERGENCE_LIMIT`` gives ``step 46: estimate magnitude exceeded 1e+12``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
# the steps call the weight by this module-level name, so a wrapper bound to
# it (a tracer, a test double) sees every call
from .correntropy import KernelSpec, compute_lambda
from .model import InitialCondition, _ModelStack, validate_model

__all__ = [
    "ALGORITHMS",
    "WEIGHTED_FILTERS",
    "DIVERGENCE_LIMIT",
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


def _require_finite(runs: int | None, **named_arrays):
    """Raise ``NonFiniteInput``, naming the first of the arrays (leading runs
    axis unless ``runs`` is None) with a non-finite entry; on a batch,
    ``failed`` names its runs with one. A run that fails only a later array
    is named when the step is recomputed without them."""
    for name, arr in named_arrays.items():
        linalg._require_finite(arr, f"non-finite {name}", lead=0 if runs is None else 1)


def _innovation(model, pred: FilterState, y) -> np.ndarray:
    y, m = np.asarray(y, dtype=float), model.H.shape[-2]
    if y.shape[-1:] != (m,):
        raise ValueError(f"measurement must have {m} components, got shape {y.shape}")
    innovation = y - np.matvec(model.H, pred.estimate)
    _require_finite(pred.runs, innovation=innovation)
    return innovation


def _information_gain(model, info_factor, lam, solve) -> np.ndarray:
    """lam * X^{-T} X^{-1} H^T R^{-1} by two triangular solves, for the lower
    factor X of the updated information matrix (conventional and sr1a).
    ``solve`` makes the first; the second reuses the diagonal it checked."""
    half = solve(info_factor, model.ht_r_inv)
    return _times(lam, linalg._solve_unchecked(info_factor, half, transposed=True))


def mcckf_time_update(model, prior: FilterState) -> FilterState:
    """Propagate estimate and full covariance one step forward."""
    x = np.matvec(model.F, prior.estimate)
    p = linalg.symmetrize(model.F @ prior.covariance @ model.F.mT + model.g_q_g)
    _require_finite(prior.runs, predicted_estimate=x, predicted_covariance=p)
    return FilterState.full(prior.step + 1, x, p)


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
    ill-conditioning of P. ``pred.covariance`` must be symmetric and finite,
    as ``mcckf_time_update`` returns it; this step symmetrizes the
    information matrix and the Joseph-form covariance.
    """
    innovation = _innovation(model, pred, y)
    # mcckf_time_update has symmetrized pred.covariance and checked it finite
    p_factor = linalg._cholesky_unchecked(pred.covariance)
    lam = compute_lambda(spec, innovation, model.r_sqrt_inv, pin_weight)
    # p_factor and info_factor skip the singular-diagonal check: a pivot above
    # its floor (>= 0) is at least 4.9e-324, so its root, the diagonal entry,
    # is at least 2.2e-162, far above the smallest normal double.
    inv_factor = linalg._solve_unchecked(p_factor, linalg._eye_like(p_factor))
    p_inv = inv_factor.mT @ inv_factor
    # H^T R^-1 H is checked before a weight of 0 can multiply it: R^-1 may overflow
    linalg._require_finite(model.ht_r_inv_h, "non-finite H^T R^-1 H")
    # info is symmetric in exact arithmetic: its symmetric part is factored
    # after a finiteness check, without cholesky_lower's symmetry check
    info = p_inv + _times(lam, model.ht_r_inv_h)
    linalg._require_finite(info, "non-finite information matrix")
    info_factor = linalg._cholesky_unchecked(linalg.symmetrize(info))
    gain = _information_gain(model, info_factor, lam, linalg._solve_unchecked)
    i_kh = linalg._identity(model.H.shape[-1]) - gain @ model.H
    p_new = linalg.symmetrize(i_kh @ pred.covariance @ i_kh.mT + gain @ model.R @ gain.mT)
    x_new = pred.estimate + np.matvec(gain, innovation)
    _require_finite(pred.runs, estimate=x_new, covariance=p_new, gain=gain)
    return FilterState.full(pred.step, x_new, p_new), StepReport(lam, gain, innovation)


def sr_time_update(model, prior: FilterState) -> FilterState:
    """Square-root time update via the pre-array [F S, G Q_sqrt]."""
    x = np.matvec(model.F, prior.estimate)
    pre = np.concatenate([model.F @ prior.factor, model.g_q_sqrt], axis=-1)
    _require_finite(prior.runs, predicted_estimate=x, time_update_pre_array=pre)
    # pre is finite on the line above: lower_triangularize's check would repeat it
    return FilterState.square_root(prior.step + 1, x, linalg._triangularize(pre))


def _sr_posterior(model, pred: FilterState, gain, lam, innovation):
    """Estimate and factor update shared by sr1a and sr1b: the Joseph form
    triangularized from [(I - K H) S_pred, K R_sqrt]."""
    x_new = pred.estimate + np.matvec(gain, innovation)
    i_kh = linalg._identity(model.H.shape[-1]) - gain @ model.H
    joseph_pre = np.concatenate([i_kh @ pred.factor, gain @ model.r_sqrt], axis=-1)
    _require_finite(pred.runs, estimate=x_new, joseph_pre_array=joseph_pre, gain=gain)
    # joseph_pre is finite on the line above
    factor_new = linalg._triangularize(joseph_pre)
    return FilterState.square_root(pred.step, x_new, factor_new), StepReport(
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
    innovation = _innovation(model, pred, y)
    lam = compute_lambda(spec, innovation, model.r_sqrt_inv, pin_weight)
    pred_inv = linalg.triangular_inverse(pred.factor)
    pre = np.concatenate([pred_inv.mT, _times(np.sqrt(lam), model.r_sqrt_inv_h.mT)], axis=-1)
    # H^T R^-1 is checked too: the gain solves read it, and R^-1 may overflow
    _require_finite(pred.runs, **{"information pre-array": pre, "H^T R^-1": model.ht_r_inv})
    # pre is finite on the line above; a rank-deficient pre gives a zero
    # diagonal in info_factor, which the first gain solve still checks
    info_factor = linalg._triangularize(pre)
    gain = _information_gain(model, info_factor, lam, linalg.triangular_solve)
    return _sr_posterior(model, pred, gain, lam, innovation)


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
    innovation = _innovation(model, pred, y)
    lam = compute_lambda(spec, innovation, model.r_sqrt_inv, pin_weight)
    pre = np.concatenate([_times(np.sqrt(lam), model.H @ pred.factor), model.r_sqrt], axis=-1)
    _require_finite(pred.runs, **{"innovation pre-array": pre})
    # pre is finite on the line above; the first solve below checks the diagonal
    innov_factor = linalg._triangularize(pre)
    p_pred = pred.factor @ pred.factor.mT
    weighted = _times(lam, model.H @ p_pred)
    half = linalg.triangular_solve(innov_factor, weighted)
    gain = linalg._solve_unchecked(innov_factor, half, transposed=True).mT
    return _sr_posterior(model, pred, gain, lam, innovation)


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
    runs = pred.runs
    h, r, p_pred = model.H, model.R, pred.covariance
    innovation = y - np.matvec(h, pred.estimate)
    innov_cov = h @ p_pred @ h.mT + r
    rhs = h @ p_pred
    try:
        gain = np.linalg.solve(innov_cov, rhs).mT
    except np.linalg.LinAlgError as exc:
        message = "singular innovation covariance"
        if runs is None:
            raise linalg.LinalgError(message) from exc
        # a stack's solve fails as a whole; each run's own solve finds its runs
        singular = dict.fromkeys(_singular_runs(innov_cov, rhs), message)
        raise linalg._stack_error(linalg.LinalgError, singular) from exc
    x_new = pred.estimate + np.matvec(gain, innovation)
    i_kh = linalg._identity(h.shape[-1]) - gain @ h
    p_new = linalg.symmetrize(i_kh @ p_pred @ i_kh.mT + gain @ r @ gain.mT)
    _require_finite(runs, estimate=x_new, covariance=p_new, gain=gain)
    lam = 1.0 if runs is None else np.ones(runs)
    return FilterState.full(pred.step, x_new, p_new), StepReport(lam, gain, innovation)


def _steps(algorithm, model, state, ys, spec, pin_weight, statuses):
    """Advance ``state``, one run or a batch, over the step-major measurements
    ``ys`` ((steps, m), or (steps, runs, m) for a batch), yielding
    ``(live, state, report)`` after each step.

    ``live`` holds the indices of the runs still in the batch, one per row of
    ``state``. A run that fails a check (a ``LinalgError``, whose ``failed``
    names the rows of a batch; one run's names none), or whose estimate
    leaves ``DIVERGENCE_LIMIT``, gets its status in ``statuses`` and leaves
    the batch, with its model if each run has its own; the step is then
    recomputed for the others.
    """
    entry, step_functions = _FILTERS[algorithm], globals()
    time_update = step_functions[entry.time_update]
    measurement_update = step_functions[entry.measurement_update]
    live = np.arange(len(statuses))
    for k in range(1, len(ys) + 1):
        while True:
            try:
                pred = time_update(model, state)
                new_state, report = measurement_update(model, pred, ys[k - 1], spec, pin_weight)
            except linalg.LinalgError as exc:
                kind, failed = type(exc).__name__, exc.failed or {0: str(exc)}
                failed = {row: f"{kind}: {message}" for row, message in failed.items()}
            else:
                magnitude = np.abs(new_state.estimate)
                if not magnitude.max() > DIVERGENCE_LIMIT:
                    break
                big = np.flatnonzero(magnitude.max(axis=-1) > DIVERGENCE_LIMIT).tolist()
                failed = dict.fromkeys(big, f"estimate magnitude exceeded {DIVERGENCE_LIMIT:.0e}")
            for row, reason in failed.items():
                statuses[live[row]] = RunStatus(False, k - 1, k, f"step {k}: {reason}")
            if len(failed) == len(live):
                return
            keep = np.ones(len(live), dtype=bool)
            keep[list(failed)] = False
            live, state, ys = live[keep], state.take(keep), ys[:, keep]
            model = model.take(keep)
        state = new_state
        yield live, state, report


def _check_algorithms(names: list) -> None:
    """Reject a list of algorithm names with one outside ``ALGORITHMS`` or
    one named twice; every caller that takes names checks them here."""
    if any(name not in ALGORITHMS or names.count(name) > 1 for name in names):
        raise ValueError(f"expected distinct algorithm names from {ALGORITHMS}, got {names}")


def _check_inputs(algorithm, model, init, measurements) -> None:
    _check_algorithms([algorithm])
    validate_model(model, init)
    m = model.obs_dim
    if measurements.shape[-1] != m:
        raise ValueError(
            f"measurements must have {m} components each, got shape {measurements.shape}"
        )


def _initial_state(algorithm: str, init: InitialCondition) -> FilterState:
    if _FILTERS[algorithm].square_root:
        return FilterState.square_root(0, init.mean, init.factor)
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
        init: initial mean and positive definite covariance, factored when
            it was made; the square-root variants start from that factor,
            ``init.factor``. ``validate_model`` raises ``ValueError`` if
            its mean does not fit the model.
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
    have equal dimensions and share ``init``, so the algorithm name, the
    pairing (``validate_model``) and the measurement width are checked once,
    against the first model. The runs advance together, one numpy call per
    operation for the whole batch, and each run's estimates and status
    equal, bit for bit, what ``run_filter`` returns for it alone with its
    model. Arguments are as for ``run_filter``, without a pinned weight.
    """
    ys = np.asarray(measurements, dtype=float)
    if ys.ndim != 3:
        raise ValueError(f"measurements must have shape (runs, steps, m), got {ys.shape}")
    if len(ys) == 0:
        raise ValueError(f"measurements must hold at least one run, got shape {ys.shape}")
    runs, horizon, _ = ys.shape
    stack = _ModelStack(model, runs)
    _check_inputs(algorithm, stack.distinct[0], init, ys)
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
