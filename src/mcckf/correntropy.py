"""Gaussian-kernel weighting that rescales the Kalman gain to reject outliers.

The scalar adjusting weight is the ratio of kernel values of two weighted
residual norms: the innovation in the R^{-1} metric over the prediction
residual in the P^{-1} metric. With the standard one-iterate update the
prediction residual is identically zero, so the denominator is exactly one
and the weight lies in [0, 1].

The functions also take a batch of runs (a leading runs axis on every input)
and then return one value per run, each equal bit for bit to the value of
that run alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg

__all__ = [
    "KernelSpec",
    "LambdaInputs",
    "DegenerateWeight",
    "gaussian_kernel",
    "weighted_norm",
    "compute_lambda",
]


class DegenerateWeight(Exception):
    """The weight denominator underflowed to zero."""


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel bandwidth. ``sigma = inf`` pins the weight to 1."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError(f"kernel bandwidth must be positive, got {self.sigma}")


def gaussian_kernel(spec: KernelSpec, distance):
    """exp(-distance^2 / (2 sigma^2)); equals 1 iff distance == 0.

    May underflow to exactly 0 for extreme distances, which is permitted:
    downstream it yields a zero gain, i.e. full rejection of the measurement.
    A 1-D array of distances gives an array of kernel values.
    """
    d = np.asarray(distance, dtype=float)
    # a Python loop is the cheapest check for the few distances of a batch
    if not all(0.0 <= v < math.inf for v in d.ravel().tolist()):
        raise ValueError(f"distance must be finite and nonnegative, got {distance}")
    if math.isinf(spec.sigma):
        return 1.0 if d.ndim == 0 else np.ones(d.shape)
    # equals -(d * d) / (2 sigma^2) bit for bit: rounding is sign-symmetric
    value = np.exp(d * d / (-2.0 * spec.sigma * spec.sigma))
    return float(value) if d.ndim == 0 else value


def weighted_norm(residual: np.ndarray, weight_factor: np.ndarray):
    """sqrt(e^T W^{-1} e) with W = factor @ factor.T, without forming W^{-1}.

    Solves factor @ z = residual by forward substitution and returns ||z||.
    An exactly zero residual short-circuits to 0.0. Residuals (runs, m) with
    factors (runs, m, m) give one norm per run.
    """
    r = np.asarray(residual, dtype=float)
    if not np.any(r):
        return 0.0 if r.ndim == 1 else np.zeros(len(r))
    z = linalg.triangular_solve(weight_factor, r)
    norm = np.sqrt(np.vecdot(z, z))
    return float(norm) if r.ndim == 1 else norm


@dataclass
class LambdaInputs:
    """Residuals and the Cholesky factors of their weighting matrices."""

    innovation: np.ndarray
    innovation_weight_factor: np.ndarray
    prediction_residual: np.ndarray
    prediction_weight_factor: np.ndarray


def compute_lambda(spec: KernelSpec, inputs: LambdaInputs) -> float:
    """Scalar adjusting weight: kernel(innovation norm) / kernel(prediction norm).

    Raises ``DegenerateWeight`` if the denominator underflows to zero; this
    cannot happen in the filters, where the prediction residual is zero and
    the denominator is exactly one. Batched inputs give one weight per run.
    """
    num = gaussian_kernel(
        spec, weighted_norm(inputs.innovation, inputs.innovation_weight_factor)
    )
    if not np.any(inputs.prediction_residual):
        return num  # the denominator is the kernel of a zero norm: exactly one
    den = gaussian_kernel(
        spec,
        weighted_norm(inputs.prediction_residual, inputs.prediction_weight_factor),
    )
    if np.any(den == 0.0):
        raise DegenerateWeight(
            "prediction-residual kernel underflowed to zero; weight is undefined"
        )
    return num / den
