"""Reference formulas used as test oracles: the weighted gain, the condition
number, the one-matrix Cholesky and substitution loops as they were first
written, one ``@`` per element or row, the simulation's per-step noise
draws, the per-run RMSE accumulation, and the array square-root Kalman
filter: in extended precision, at weight 1 or at pinned weights, to measure
the filters' roundoff, and in double precision, as the textbook baseline."""

import numpy as np

from mcckf.linalg import (
    _EPS,
    _TINY,
    PIVOT_FLOOR_FACTOR,
    NotPositiveDefinite,
    SingularFactor,
    cholesky_lower,
    lower_triangularize,
    symmetrize,
    triangular_solve,
)
from mcckf.sim import _impulse_schedule, draw_gaussian


def gain_information_form(p, h, r, lam: float) -> np.ndarray:
    """Dense gain lam * (P^{-1} + lam H^T R^{-1} H)^{-1} H^T R^{-1}."""
    p = np.asarray(p, dtype=float)
    r_inv = np.linalg.inv(np.asarray(r, dtype=float))
    h = np.asarray(h, dtype=float)
    info = np.linalg.inv(p) + lam * (h.T @ r_inv @ h)
    return lam * np.linalg.solve(info, h.T @ r_inv)


def gain_innovation_form(p, h, r, lam: float) -> np.ndarray:
    """Dense gain lam * P H^T (lam H P H^T + R)^{-1}."""
    p = np.asarray(p, dtype=float)
    h = np.asarray(h, dtype=float)
    innov_cov = lam * (h @ p @ h.T) + np.asarray(r, dtype=float)
    return lam * np.linalg.solve(innov_cov.T, h @ p.T).T


def condition_estimate(m: np.ndarray) -> float:
    """2-norm condition number of a square matrix; +inf when singular
    or non-finite."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        return float("inf")
    try:
        c = float(np.linalg.cond(m, 2))
    except np.linalg.LinAlgError:
        return float("inf")
    return float("inf") if np.isnan(c) else c


def cholesky_loop(a: np.ndarray) -> np.ndarray:
    """The column-by-column Cholesky loop behind ``cholesky_lower`` for one
    matrix, with its pivot floor and message, without the input checks."""
    s = symmetrize(a)
    n = s.shape[0]
    row_norms = np.linalg.norm(s, axis=1)
    lower = np.zeros_like(s)
    for j in range(n):
        pivot = s[j, j] - lower[j, :j] @ lower[j, :j]
        floor = PIVOT_FLOOR_FACTOR * _EPS * row_norms[j]
        if pivot <= floor:
            raise NotPositiveDefinite(
                f"pivot {pivot:.6e} at index {j} is at or below floor {floor:.6e}"
            )
        lower[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            lower[j + 1 :, j] = (
                s[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]
            ) / lower[j, j]
    return lower


def solve_loop(l: np.ndarray, b: np.ndarray, transposed: bool = False) -> np.ndarray:
    """The row-by-row substitution loop behind ``triangular_solve`` for one
    factor, at every n."""
    n = l.shape[0]
    vector = b.ndim == 1
    if np.any(np.abs(np.diagonal(l)) < _TINY):
        raise SingularFactor("factor has a zero or subnormal diagonal entry")
    x = b[:, None].copy() if vector else b.copy()
    if not transposed:
        for i in range(n):
            if i:
                x[i] -= l[i, :i] @ x[:i]
            x[i] /= l[i, i]
    else:
        for i in range(n - 1, -1, -1):
            if i < n - 1:
                x[i] -= l[i + 1 :, i] @ x[i + 1 :]
            x[i] /= l[i, i]
    return x[:, 0] if vector else x


def simulate_per_step(model, init, horizon: int, seed, shot=None):
    """The trajectory ``simulate`` draws, one w_k and one v_k per step in
    the order w_1, v_1, w_2, v_2, ...; returns (initial state, truth,
    measurements)."""
    noise_rng, schedule_rng, magnitude_rng = seed.streams()
    process, measurement = {}, {}

    def schedule(channels):
        steps, magnitudes = _impulse_schedule(
            shot, horizon, schedule_rng, magnitude_rng, channels
        )
        return dict(zip(steps.tolist(), magnitudes))

    if shot is not None:
        if shot.targets in ("process", "both"):
            process = schedule(model.noise_dim)
        if shot.targets in ("measurement", "both"):
            measurement = schedule(model.obs_dim)
    x = draw_gaussian(noise_rng, init.mean, cholesky_lower(init.covariance))
    initial_state = x.copy()
    truth = np.zeros((horizon, model.state_dim))
    measurements = np.zeros((horizon, model.obs_dim))
    for k in range(1, horizon + 1):
        w = draw_gaussian(noise_rng, np.zeros(model.noise_dim), cholesky_lower(model.Q))
        if k in process:
            w = w + process[k]
        x = model.F @ x + model.G @ w
        v = draw_gaussian(noise_rng, np.zeros(model.obs_dim), cholesky_lower(model.R))
        if k in measurement:
            v = v + measurement[k]
        truth[k - 1] = x
        measurements[k - 1] = model.H @ x + v
    return initial_state, truth, measurements


def rmse_loop(truth, estimates, statuses):
    """The RMSE curves as the evaluation first accumulated them, one run at
    a time: (per-component RMSE, total, its time mean, completed runs)."""
    horizon, n = truth[0].shape
    sq_sum = np.zeros((horizon, n))
    completed = 0
    for run_truth, run_estimates, status in zip(truth, estimates, statuses):
        if status.completed:
            err = run_truth - run_estimates
            sq_sum += err * err
            completed += 1
    if completed == 0:
        return np.full((horizon, n), np.nan), np.full(horizon, np.nan), float("nan"), 0
    per_component = np.sqrt(sq_sum / completed)
    total = np.sqrt((per_component**2).sum(axis=1))
    return per_component, total, float(total.mean()), completed


def cholesky_ld(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a positive definite matrix, in longdouble."""
    a = np.asarray(a, dtype=np.longdouble)
    lower = np.zeros_like(a)
    for j in range(a.shape[0]):
        lower[j, j] = np.sqrt(a[j, j] - lower[j, :j] @ lower[j, :j])
        lower[j + 1 :, j] = (a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def _triangularize_ld(a: np.ndarray) -> np.ndarray:
    """Lower-triangular L with a non-negative diagonal and L L^T = A A^T, for
    a (r, c) pre-array with r <= c, by Householder reflections from the right,
    in longdouble."""
    a = np.array(a, dtype=np.longdouble)
    rows = a.shape[0]
    for i in range(rows):
        v = a[i, i:].copy()
        norm = np.sqrt(v @ v)
        if norm == 0:
            continue
        v[0] += norm if v[0] >= 0 else -norm  # v = row - alpha e1, alpha = -sign(row_0) |row|
        a[i:, i:] -= np.outer(a[i:, i:] @ v, (2 / (v @ v)) * v)
    lower = np.tril(a[:, :rows])  # drop the roundoff left above the diagonal
    return lower * np.where(np.diagonal(lower) < 0, -1, 1).astype(np.longdouble)


def forward_ld(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with l x = b for a lower-triangular l, by forward substitution."""
    x = np.array(b, dtype=np.longdouble)
    for i in range(len(x)):
        x[i] = (x[i] - l[i, :i] @ x[:i]) / l[i, i]
    return x


def sr_kalman_longdouble(model, init, measurements, weights=None):
    """The square-root Kalman filter (weight 1) in longdouble, as a roundoff
    reference for the double-precision filters: (estimates, covariances),
    shape (steps, n) and (steps, n, n).

    The time update triangularizes [F S, G Q^1/2]; the array measurement
    update triangularizes [[R^1/2, H S], [0, S]] into [[Re^1/2, 0],
    [Kbar, S+]] and sets x += Kbar Re^-1/2 (y - H x). It takes the model's
    double entries as exact and uses no ``np.linalg``, which rejects
    longdouble.

    With ``weights``, one pinned weight lam per step, it is the weighted
    filter's update instead: the same triangularization of [[R^1/2,
    sqrt(lam) H S], [0, S]] gives the gain K = sqrt(lam) Kbar Re^-1/2, and
    the posterior factor comes from triangularizing the Joseph pre-array
    [(I - K H) S, K R^1/2], which is not the Kalman filter with R / lam.
    """
    f, g, h = (np.asarray(m, dtype=np.longdouble) for m in (model.F, model.G, model.H))
    g_q_sqrt, r_sqrt = g @ cholesky_ld(model.Q), cholesky_ld(model.R)
    m, n = h.shape
    x = np.asarray(init.mean, dtype=np.longdouble)
    s = cholesky_ld(init.covariance)
    ys = np.asarray(measurements, dtype=np.longdouble)
    estimates, covariances = [], []
    for y, lam in zip(ys, [None] * len(ys) if weights is None else weights, strict=True):
        x, s = f @ x, _triangularize_ld(np.hstack([f @ s, g_q_sqrt]))
        root = np.longdouble(1) if lam is None else np.sqrt(np.longdouble(lam))
        post = _triangularize_ld(np.block([[r_sqrt, root * (h @ s)], [np.zeros((n, m)), s]]))
        innovation_factor, kbar = post[:m, :m], post[m:, :m]
        if lam is None:
            x, s = x + kbar @ forward_ld(innovation_factor, y - h @ x), post[m:, m:]
        else:
            gain = root * (kbar @ forward_ld(innovation_factor, np.eye(m)))
            x = x + gain @ (y - h @ x)
            s = _triangularize_ld(np.hstack([(np.eye(n) - gain @ h) @ s, gain @ r_sqrt]))
        estimates.append(x)
        covariances.append(s @ s.T)
    return np.array(estimates), np.array(covariances)


def sr_kalman_array(model, init, measurements) -> np.ndarray:
    """The weight-1 array filter of ``sr_kalman_longdouble`` in double
    precision, through the package's kernels and the model's cached
    factors, as sr1b reads them: its estimates, shape (steps, n)."""
    f, h = model.F, model.H
    m, n = h.shape
    x, s = init.mean, init.factor
    estimates = []
    for y in np.asarray(measurements, dtype=float):
        x, s = f @ x, lower_triangularize(np.hstack([f @ s, model.g_q_sqrt]))
        post = lower_triangularize(np.block([[model.r_sqrt, h @ s], [np.zeros((n, m)), s]]))
        innovation_factor, kbar, s = post[:m, :m], post[m:, :m], post[m:, m:]
        x = x + kbar @ triangular_solve(innovation_factor, y - h @ x)
        estimates.append(x)
    return np.array(estimates)
