"""Linear Gaussian state-space model containers and validation.

The model is x_k = F x_{k-1} + G w_{k-1}, y_k = H x_k + v_k with
w ~ N(0, Q), v ~ N(0, R), x_0 ~ (mean, covariance). Q, R and the initial
covariance must be positive definite, as every algorithm and the simulator
factor them. A model caches the noise factors and products that the filters
and the simulator reuse, and an initial condition its covariance's factor;
validation computes them. Both are frozen, and their matrices and cached
arrays read-only, so they can be shared freely across runs. A batch of runs
reads its models through one ``_ModelStack``, which the simulator and the
filters both build: it decides which runs share a model and stacks each
run's own arrays.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg

__all__ = [
    "StateSpaceModel",
    "InitialCondition",
    "validate_model",
]


def _frozen(a, shape=None, name=None) -> np.ndarray:
    """A read-only float copy of ``a``; with ``shape``, the matrix ``name``
    must have it."""
    arr = np.array(a, dtype=float)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """Time-invariant system matrices F, G, H and noise covariances Q, R.

    Q must be strictly positive definite. R is also required strictly
    positive definite here, which is stricter than the estimation problem
    itself demands: every algorithm in this package applies R^{-1} or a
    factor of it, so a semidefinite R would be unusable anyway.

    The noise factors and products the filters reuse are cached read-only
    on first use, each computed with the operations and association order of
    the filter-step expression it stands for, so reusing one changes no bit
    of the covariance and gain recursions. ``r_sqrt_inv`` is the exception:
    the weight multiplies the innovation by it, which rounds differently
    from a substitution against ``r_sqrt``.
    """

    F: np.ndarray
    G: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "F", _frozen(self.F))
        if self.F.ndim != 2 or self.F.shape[0] != self.F.shape[1]:
            raise ValueError(f"F must be square, got shape {self.F.shape}")
        n = self.F.shape[0]
        object.__setattr__(self, "G", _frozen(self.G))
        if self.G.ndim != 2 or self.G.shape[0] != n:
            raise ValueError(f"G must have {n} rows, got shape {self.G.shape}")
        q = self.G.shape[1]
        object.__setattr__(self, "H", _frozen(self.H))
        if self.H.ndim != 2 or self.H.shape[1] != n:
            raise ValueError(f"H must have {n} columns, got shape {self.H.shape}")
        m = self.H.shape[0]
        object.__setattr__(self, "Q", _frozen(self.Q, (q, q), "Q"))
        object.__setattr__(self, "R", _frozen(self.R, (m, m), "R"))

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
    def q_sqrt(self) -> np.ndarray:
        """Lower Cholesky factor of Q."""
        return _frozen(linalg.cholesky_lower(self.Q))

    @cached_property
    def r_sqrt(self) -> np.ndarray:
        """Lower Cholesky factor of R."""
        return _frozen(linalg.cholesky_lower(self.R))

    @cached_property
    def r_sqrt_inv(self) -> np.ndarray:
        """R_sqrt^{-1}, which whitens the innovation in the weight."""
        return _frozen(linalg.triangular_inverse(self.r_sqrt))

    @cached_property
    def r_inv(self) -> np.ndarray:
        """R^{-1}, assembled from the inverse R factor."""
        return _frozen(self.r_sqrt_inv.mT @ self.r_sqrt_inv)

    @cached_property
    def g_q_sqrt(self) -> np.ndarray:
        """G Q_sqrt, the noise block of the square-root time update."""
        return _frozen(self.G @ self.q_sqrt)

    @cached_property
    def g_q_g(self) -> np.ndarray:
        """G Q G^T."""
        return _frozen(self.G @ self.Q @ self.G.mT)

    @cached_property
    def ht_r_inv(self) -> np.ndarray:
        """H^T R^{-1}, the right-hand side of the information-form gain."""
        return _frozen(self.H.mT @ self.r_inv)

    @cached_property
    def ht_r_inv_h(self) -> np.ndarray:
        """H^T R^{-1} H."""
        return _frozen(self.ht_r_inv @ self.H)

    @cached_property
    def r_sqrt_inv_h(self) -> np.ndarray:
        """R_sqrt^{-1} H, the measurement block of the sr1a pre-array."""
        return _frozen(linalg.triangular_solve(self.r_sqrt, self.H))


@dataclass(frozen=True, eq=False)
class InitialCondition:
    """Initial state mean and error covariance; the covariance's lower
    Cholesky factor is cached read-only on first use."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        if np.ndim(self.mean) > 1:
            raise ValueError(f"mean must be a vector, got shape {np.shape(self.mean)}")
        object.__setattr__(self, "mean", _frozen(np.ravel(self.mean)))
        n = self.mean.shape[0]
        covariance = _frozen(self.covariance, (n, n), "initial covariance")
        object.__setattr__(self, "covariance", covariance)

    @cached_property
    def factor(self) -> np.ndarray:
        """Lower Cholesky factor of the covariance."""
        return _frozen(linalg.cholesky_lower(self.covariance))


class _ModelStack:
    """The model of each run of a batch, read like one model.

    ``model`` is one model for all ``runs`` runs, or one per run, of equal
    dimensions; runs share a model by passing the same object. ``distinct``
    lists each model once, and ``rows[i]`` is the position there of run i's
    model. Any other public attribute of the models, a matrix or a term,
    stacks every run's own array on first use and is cached.
    """

    def __init__(self, model, runs: int):
        self.models = list(model) if isinstance(model, Sequence) else [model] * runs
        if len(self.models) != runs:
            raise ValueError(f"got {len(self.models)} models for {runs} runs")
        if not self.models:
            raise ValueError("at least one run is required")
        distinct = {id(m): m for m in self.models}
        self.distinct = list(distinct.values())
        dims = {(m.state_dim, m.noise_dim, m.obs_dim) for m in self.distinct}
        if len(dims) > 1:
            raise ValueError(
                "the models of a batch must have equal (state_dim, noise_dim, obs_dim), "
                f"got {sorted(dims)}"
            )
        position = {key: i for i, key in enumerate(distinct)}
        self.rows = np.array([position[id(m)] for m in self.models])

    def __getattr__(self, name: str) -> np.ndarray:
        # reached only for a name not set on the stack; a private name, such as
        # a copy or pickle probe, is no model attribute
        if name.startswith("_"):
            raise AttributeError(name)
        stacked = np.stack([getattr(m, name) for m in self.distinct])[self.rows]
        setattr(self, name, stacked)
        return stacked

    def take(self, keep: np.ndarray) -> "_ModelStack":
        """The models of the runs that ``keep`` (a mask) selects."""
        kept = [m for m, k in zip(self.models, keep) if k]
        return _ModelStack(kept, len(kept))


def _covariance_violation(name: str, factor) -> str | None:
    """Why the covariance ``name`` is unusable, from the failure of
    ``factor()``, which factors it, or None."""
    try:
        factor()
    except linalg.NotSymmetric:
        return f"{name} not symmetric"
    except linalg.NotPositiveDefinite:
        return f"{name} not positive definite"
    except linalg.NonFiniteInput:
        return f"{name} contains non-finite entries"
    return None


def validate_model(model, init: InitialCondition) -> list[str]:
    """Check model assumptions; return a list of violations (empty = usable).

    Verifies that F, G and H are finite, the initial condition's dimension
    and finiteness, and that Q, R and the initial covariance are symmetric
    and positive definite, through the cached factors that the filters and
    the simulator read. The matrices' shapes are checked by
    ``StateSpaceModel`` at construction. Never raises for a bad model.
    """
    n = model.state_dim
    violations = [
        f"{name} contains non-finite entries"
        for name in "FGH"
        if not np.isfinite(getattr(model, name)).all()
    ]
    violations += [
        _covariance_violation("Q", lambda: model.q_sqrt),
        _covariance_violation("R", lambda: model.r_sqrt),
    ]
    if init.mean.shape[0] != n:
        violations.append(
            f"initial mean length {init.mean.shape[0]} does not match state dim {n}"
        )
    if not np.isfinite(init.mean).all():
        violations.append("initial mean contains non-finite entries")
    # InitialCondition sizes its covariance by the mean, reported above if wrong
    if init.mean.shape[0] == n:
        violations.append(_covariance_violation("initial covariance", lambda: init.factor))
    return [violation for violation in violations if violation]


def _require_valid(model, init: InitialCondition) -> None:
    """Raise ``ValueError`` listing the violations ``validate_model`` reports."""
    violations = validate_model(model, init)
    if violations:
        raise ValueError("model validation failed: " + "; ".join(violations))
