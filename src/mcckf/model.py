"""Linear Gaussian state-space model containers and validation.

The model is x_k = F x_{k-1} + G w_{k-1}, y_k = H x_k + v_k with
w ~ N(0, Q), v ~ N(0, R), x_0 ~ (mean, covariance). Matrices are frozen
read-only at construction so model objects can be shared freely across
concurrent Monte Carlo runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import linalg

__all__ = [
    "StepTerms",
    "StateSpaceModel",
    "TimeVaryingModel",
    "InitialCondition",
    "validate_model",
]


def _frozen(a, shape=None) -> np.ndarray:
    arr = np.array(a, dtype=float)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


class StepTerms:
    """System matrices of one step, their noise factors and the products the
    filters reuse.

    ``model.matrices(step)`` gives one model's 2-D matrices or, for a batch,
    every run's stacked with a leading runs axis; each term is then one
    run's or the stack of every run's. Each term is computed on first use,
    with the operations and the association order of the filter-step
    expression it stands for, so reusing it changes no bit of any result. The noise factors are computed
    inside the filter steps, so a Q_k or R_k that is not positive definite
    fails the runs at step k instead of the call; Q is factored whenever R
    is, so every filter fails at the same step.
    """

    def __init__(self, model, step: int):
        self.step = step
        self.F, self.G, self.H, self.Q, self.R = model.matrices(step)

    @cached_property
    def _noise_factors(self) -> tuple[np.ndarray, np.ndarray]:
        return linalg.cholesky_lower(self.Q), linalg.cholesky_lower(self.R)

    @property
    def q_sqrt(self) -> np.ndarray:
        """Lower Cholesky factor of Q."""
        return self._noise_factors[0]

    @property
    def r_sqrt(self) -> np.ndarray:
        """Lower Cholesky factor of R."""
        return self._noise_factors[1]

    @cached_property
    def r_inv(self) -> np.ndarray:
        """R^{-1}, assembled from the R factor by triangular solves."""
        inv_factor = linalg.triangular_inverse(self.r_sqrt)
        return inv_factor.mT @ inv_factor

    @cached_property
    def g_q_sqrt(self) -> np.ndarray:
        """G Q_sqrt, the noise block of the square-root time update."""
        return self.G @ self.q_sqrt

    @cached_property
    def g_q_g(self) -> np.ndarray:
        """G Q G^T."""
        return self.G @ self.Q @ self.G.mT

    @cached_property
    def ht_r_inv(self) -> np.ndarray:
        """H^T R^{-1}, the right-hand side of the information-form gain."""
        return self.H.mT @ self.r_inv

    @cached_property
    def ht_r_inv_h(self) -> np.ndarray:
        """H^T R^{-1} H."""
        return self.ht_r_inv @ self.H

    @cached_property
    def r_sqrt_inv_h(self) -> np.ndarray:
        """R_sqrt^{-1} H, the measurement block of the sr1a pre-array."""
        return linalg.triangular_solve(self.r_sqrt, self.H)


@dataclass(eq=False)
class StateSpaceModel:
    """Time-invariant system matrices F, G, H and noise covariances Q, R.

    Q must be strictly positive definite. R is also required strictly
    positive definite here, which is stricter than the estimation problem
    itself demands: every algorithm in this package applies R^{-1} or a
    factor of it, so a semidefinite R would be unusable anyway.
    """

    F: np.ndarray
    G: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        self.F = _frozen(self.F)
        if self.F.ndim != 2 or self.F.shape[0] != self.F.shape[1]:
            raise ValueError(f"F must be square, got shape {self.F.shape}")
        n = self.F.shape[0]
        self.G = _frozen(self.G)
        if self.G.ndim != 2 or self.G.shape[0] != n:
            raise ValueError(f"G must have {n} rows, got shape {self.G.shape}")
        q = self.G.shape[1]
        self.H = _frozen(self.H)
        if self.H.ndim != 2 or self.H.shape[1] != n:
            raise ValueError(f"H must have {n} columns, got shape {self.H.shape}")
        m = self.H.shape[0]
        self.Q = _frozen(self.Q, (q, q))
        self.R = _frozen(self.R, (m, m))
        self._step_terms = None

    @property
    def state_dim(self) -> int:
        return self.F.shape[0]

    @property
    def noise_dim(self) -> int:
        return self.G.shape[1]

    @property
    def obs_dim(self) -> int:
        return self.H.shape[0]

    def matrices(self, step: int):
        """System matrices for the given step (constant here)."""
        return self.F, self.G, self.H, self.Q, self.R

    def step_terms(self, step: int) -> StepTerms:
        """Cached ``StepTerms``, shared by every step."""
        if self._step_terms is None:
            self._step_terms = StepTerms(self, step)
        return self._step_terms


class TimeVaryingModel:
    """Step-indexed provider of system matrices.

    ``provider(step)`` must return (F, G, H, Q, R) for step k >= 1 and be
    deterministic in k.
    """

    def __init__(self, provider: Callable, state_dim: int, noise_dim: int, obs_dim: int):
        self.provider = provider
        self._dims = (state_dim, noise_dim, obs_dim)
        self._step_terms = None

    @property
    def state_dim(self) -> int:
        return self._dims[0]

    @property
    def noise_dim(self) -> int:
        return self._dims[1]

    @property
    def obs_dim(self) -> int:
        return self._dims[2]

    def matrices(self, step: int):
        n, q, m = self._dims
        f, g, h, qc, rc = (np.asarray(x, dtype=float) for x in self.provider(step))
        if f.shape != (n, n) or g.shape != (n, q) or h.shape != (m, n):
            raise ValueError(f"provider returned inconsistent shapes at step {step}")
        if qc.shape != (q, q) or rc.shape != (m, m):
            raise ValueError(f"provider returned inconsistent shapes at step {step}")
        return f, g, h, qc, rc

    def step_terms(self, step: int) -> StepTerms:
        """``StepTerms`` of ``step``; the last one asked for is kept, so the
        provider is called once per step of a run."""
        terms = self._step_terms
        if terms is None or terms.step != step:
            terms = self._step_terms = StepTerms(self, step)
        return terms


@dataclass(eq=False)
class InitialCondition:
    """Initial state mean and error covariance."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        self.mean = _frozen(np.ravel(self.mean))
        n = self.mean.shape[0]
        self.covariance = _frozen(self.covariance, (n, n))


def _spd_violation(name: str, a: np.ndarray) -> str | None:
    try:
        linalg.cholesky_lower(a)
    except linalg.NotSymmetric:
        return f"{name} not symmetric"
    except linalg.NotPositiveDefinite:
        return f"{name} not positive definite"
    except linalg.NonFiniteInput:
        return f"{name} contains non-finite entries"
    return None


def validate_model(
    model, init: InitialCondition, require_spd_init: bool = False
) -> list[str]:
    """Check model assumptions; return a list of violations (empty = usable).

    Verifies symmetry and positive definiteness of Q and R, and of the
    initial covariance when ``require_spd_init`` is set (the square-root
    algorithms factor it), and the initial condition's dimension and
    finiteness. The
    matrices' shapes are checked where they are made: by ``StateSpaceModel``
    at construction, by ``TimeVaryingModel.matrices``, whose ``ValueError``
    is reported here. Pure report, never raises for a bad model.
    """
    try:
        f, g, h, q, r = model.matrices(1)
    except ValueError as exc:
        return [str(exc)]
    n = f.shape[0]
    violations: list[str] = []
    for name, mat in (("Q", q), ("R", r)):
        msg = _spd_violation(name, mat)
        if msg:
            violations.append(msg)
    if init.mean.shape[0] != n:
        violations.append(
            f"initial mean length {init.mean.shape[0]} does not match state dim {n}"
        )
    if not np.isfinite(init.mean).all():
        violations.append("initial mean contains non-finite entries")
    if init.covariance.shape != (n, n):
        violations.append(
            f"initial covariance shape {init.covariance.shape} does not match state dim {n}"
        )
    elif not np.isfinite(init.covariance).all():
        violations.append("initial covariance contains non-finite entries")
    else:
        scale = np.abs(init.covariance).max(initial=0.0)
        asymmetry = np.abs(init.covariance - init.covariance.T).max(initial=0.0)
        if asymmetry > linalg.SYMMETRY_RTOL * scale:
            violations.append("initial covariance not symmetric")
        elif require_spd_init:
            msg = _spd_violation("initial covariance", init.covariance)
            if msg:
                violations.append(msg)
    return violations
