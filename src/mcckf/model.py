"""Linear Gaussian state-space model containers and validation.

The model is x_k = F x_{k-1} + G w_{k-1}, y_k = H x_k + v_k with
w ~ N(0, Q), v ~ N(0, R), x_0 ~ (mean, covariance). Matrices are frozen
read-only at construction so model objects can be shared freely across
concurrent Monte Carlo runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg

__all__ = [
    "StepTerms",
    "StateSpaceModel",
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
    """System matrices, their noise factors and the products the filters
    reuse.

    ``model`` is one ``StateSpaceModel``, whose terms are 2-D, or a batch's
    stack of every run's matrices with a leading runs axis, whose terms are
    stacked the same way. Each term is computed on first use, once per model
    or batch, with the operations and the association order of the
    filter-step expression it stands for, so reusing it changes no bit of the
    covariance and gain recursions. ``r_sqrt_inv`` is the exception: the
    weight multiplies the innovation by it, which rounds differently from a
    substitution against ``r_sqrt``.
    """

    def __init__(self, model):
        self.F, self.G, self.H, self.Q, self.R = model.F, model.G, model.H, model.Q, model.R

    @cached_property
    def q_sqrt(self) -> np.ndarray:
        """Lower Cholesky factor of Q."""
        return linalg.cholesky_lower(self.Q)

    @cached_property
    def r_sqrt(self) -> np.ndarray:
        """Lower Cholesky factor of R."""
        return linalg.cholesky_lower(self.R)

    @cached_property
    def r_sqrt_inv(self) -> np.ndarray:
        """R_sqrt^{-1}, which whitens the innovation in the weight."""
        return linalg.triangular_inverse(self.r_sqrt)

    @cached_property
    def r_inv(self) -> np.ndarray:
        """R^{-1}, assembled from the inverse R factor."""
        return self.r_sqrt_inv.mT @ self.r_sqrt_inv

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

    @property
    def state_dim(self) -> int:
        return self.F.shape[0]

    @property
    def noise_dim(self) -> int:
        return self.G.shape[1]

    @property
    def obs_dim(self) -> int:
        return self.H.shape[0]

    @cached_property
    def terms(self) -> StepTerms:
        """The ``StepTerms`` shared by every step."""
        return StepTerms(self)


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
    finiteness. The matrices' shapes are checked by ``StateSpaceModel`` at
    construction. Pure report, never raises for a bad model.
    """
    n = model.state_dim
    violations: list[str] = []
    for name, mat in (("Q", model.Q), ("R", model.R)):
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
