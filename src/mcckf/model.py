"""Linear Gaussian state-space model containers and validation.

The model is x_k = F x_{k-1} + G w_{k-1}, y_k = H x_k + v_k with
w ~ N(0, Q), v ~ N(0, R), x_0 ~ (mean, covariance). Q, R and the initial
covariance must be positive definite, as every algorithm and the simulator
factor them. Construction is the check: a model rejects a non-finite
matrix and factors Q and R, an initial condition rejects a non-finite mean
and factors its covariance, and either raises ``ValueError`` naming the
violation. A model also sets the products that the filters reuse when it is
made. Both are frozen, and their matrices, factors and products read-only,
so they can be shared freely across runs, and a forked evaluation child
inherits them all; a copy or an unpickled object is built, and so checked,
again. ``validate_model`` checks only what neither
object knows alone: that the mean's length matches the model's state
dimension. A batch of runs reads its models through one ``_ModelStack``,
which the simulator and the filters both build: it decides which runs share
a model and stacks each run's own arrays.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import linalg

__all__ = [
    "StateSpaceModel",
    "InitialCondition",
    "validate_model",
]


def _frozen(a, shape=None, name=None) -> np.ndarray:
    """A read-only float copy of ``a``; with ``name``, the matrix ``name``
    must be finite and, with ``shape``, have that shape."""
    arr = np.array(a, dtype=float)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if name is not None and not np.isfinite(arr).all():
        raise ValueError(f"model validation failed: {name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _factor(name: str, a: np.ndarray) -> np.ndarray:
    """The read-only lower Cholesky factor of the finite covariance ``name``,
    or a ``ValueError`` naming why it has none."""
    try:
        return _frozen(linalg.cholesky_lower(a))
    except linalg.NotSymmetric:
        violation = "not symmetric"
    except linalg.NotPositiveDefinite:
        violation = "not positive definite"
    raise ValueError(f"model validation failed: {name} {violation}")


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """Time-invariant system matrices F, G, H and noise covariances Q, R.

    Q must be strictly positive definite. R is also required strictly
    positive definite here, which is stricter than the estimation problem
    itself demands: every algorithm in this package applies R^{-1} or a
    factor of it, so a semidefinite R would be unusable anyway.

    Construction rejects a non-finite F, G or H and sets ``q_sqrt`` and
    ``r_sqrt``, the lower Cholesky factors of Q and R, read-only; a
    covariance without one raises ``ValueError``. It then sets the products
    the filters reuse, read-only, each computed with the operations and
    association order of the filter-step expression it stands for, so
    reusing one changes no bit of the covariance and gain recursions:

    - ``r_sqrt_inv``: R_sqrt^{-1}, which whitens the innovation in the
      weight. It is the exception: multiplying by it rounds differently
      from a substitution against ``r_sqrt``.
    - ``g_q_sqrt``: G Q_sqrt, the noise block of the square-root time update.
    - ``g_q_g``: G Q G^T.
    - ``ht_r_inv``: H^T R^{-1}, the right-hand side of the information-form
      gain, with R^{-1} assembled from the inverse R factor.
    - ``ht_r_inv_h``: H^T R^{-1} H.
    - ``r_sqrt_inv_h``: R_sqrt^{-1} H, the measurement block of the sr1a
      pre-array.
    """

    F: np.ndarray
    G: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "F", _frozen(self.F, name="F"))
        if self.F.ndim != 2 or self.F.shape[0] != self.F.shape[1]:
            raise ValueError(f"F must be square, got shape {self.F.shape}")
        n = self.F.shape[0]
        object.__setattr__(self, "G", _frozen(self.G, name="G"))
        if self.G.ndim != 2 or self.G.shape[0] != n:
            raise ValueError(f"G must have {n} rows, got shape {self.G.shape}")
        q = self.G.shape[1]
        object.__setattr__(self, "H", _frozen(self.H, name="H"))
        if self.H.ndim != 2 or self.H.shape[1] != n:
            raise ValueError(f"H must have {n} columns, got shape {self.H.shape}")
        m = self.H.shape[0]
        object.__setattr__(self, "Q", _frozen(self.Q, (q, q), "Q"))
        object.__setattr__(self, "R", _frozen(self.R, (m, m), "R"))
        object.__setattr__(self, "q_sqrt", _factor("Q", self.Q))
        object.__setattr__(self, "r_sqrt", _factor("R", self.R))

        def term(name, value):  # each term reads the ones set before it
            object.__setattr__(self, name, _frozen(value))

        term("r_sqrt_inv", linalg.triangular_inverse(self.r_sqrt))
        term("g_q_sqrt", self.G @ self.q_sqrt)
        term("g_q_g", self.G @ self.Q @ self.G.mT)
        r_inv = self.r_sqrt_inv.mT @ self.r_sqrt_inv
        term("ht_r_inv", self.H.mT @ r_inv)
        term("ht_r_inv_h", self.ht_r_inv @ self.H)
        term("r_sqrt_inv_h", linalg.triangular_solve(self.r_sqrt, self.H))

    def __reduce__(self):
        # a copy or an unpickled model is built, and so checked, again
        return type(self), (self.F, self.G, self.H, self.Q, self.R)

    @property
    def state_dim(self) -> int:
        return self.F.shape[0]

    @property
    def noise_dim(self) -> int:
        return self.G.shape[1]

    @property
    def obs_dim(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True, eq=False)
class InitialCondition:
    """Initial state mean and error covariance. Construction rejects a
    non-finite mean and sets ``factor``, the covariance's lower Cholesky
    factor, read-only; a covariance without one raises ``ValueError``."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        if np.ndim(self.mean) > 1:
            raise ValueError(f"mean must be a vector, got shape {np.shape(self.mean)}")
        object.__setattr__(self, "mean", _frozen(np.ravel(self.mean), name="initial mean"))
        n = self.mean.shape[0]
        covariance = _frozen(self.covariance, (n, n), "initial covariance")
        object.__setattr__(self, "covariance", covariance)
        object.__setattr__(self, "factor", _factor("initial covariance", covariance))

    def __reduce__(self):
        # a copy or an unpickled initial condition is built, and so checked, again
        return type(self), (self.mean, self.covariance)


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


def validate_model(model, init: InitialCondition) -> list[str]:
    """Check that ``init`` fits ``model``; return a list of violations
    (empty = usable).

    Each object checked its own matrices when it was made, so only the
    pairing is left: the initial mean's length against the model's state
    dimension. Never raises for a bad pairing.
    """
    n, length = model.state_dim, init.mean.shape[0]
    if length != n:
        return [f"initial mean length {length} does not match state dim {n}"]
    return []


def _require_valid(model, init: InitialCondition) -> None:
    """Raise ``ValueError`` listing the violations ``validate_model`` reports."""
    violations = validate_model(model, init)
    if violations:
        raise ValueError("model validation failed: " + "; ".join(violations))
