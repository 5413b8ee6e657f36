"""Gaussian-kernel weighting that rescales the Kalman gain to reject outliers.

Every filter scales its gain by one scalar weight, ``compute_lambda``: the
kernel of the innovation's norm in the R^{-1} metric. It lies in [0, 1],
equals 1 iff the innovation is zero and is exactly 0 where the norm is
beyond the kernel's support.

The functions also take a batch of runs (a leading runs axis on every input)
and then return one value per run, each equal bit for bit to the value of
that run alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import linalg

__all__ = [
    "KernelSpec",
    "gaussian_kernel",
    "weighted_norm",
    "compute_lambda",
]


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel bandwidth. ``sigma = inf`` pins the weight to 1.

    A finite bandwidth must keep the kernel's scale 2 sigma^2 a finite normal
    double (sigma between about 1.05e-154 and 9.48e153): outside that range
    the kernel of a zero or an infinite distance is 0/0 or inf/inf.
    """

    sigma: float

    def __post_init__(self):
        sigma = float(self.sigma)  # a Python float overflows without a warning
        finite = sigma > 0.0 and sys.float_info.min <= 2.0 * sigma * sigma < math.inf
        if not (finite or sigma == math.inf):
            raise ValueError(
                "kernel bandwidth must be inf or positive with 2 sigma^2 a finite "
                f"normal double, got {self.sigma}"
            )


def gaussian_kernel(spec: KernelSpec, distance):
    """exp(-distance^2 / (2 sigma^2)); equals 1 iff distance == 0.

    May underflow to exactly 0 for extreme distances, which is permitted:
    downstream it yields a zero gain, i.e. full rejection of the measurement.
    A distance whose square overflows, or an infinite one, gives the
    kernel's limit, 0, without a warning. A 1-D array of distances gives an
    array of kernel values.
    """
    d = np.asarray(distance, dtype=float)
    # a Python loop is the cheapest check for the few distances of a batch
    if not all(0.0 <= v <= math.inf for v in d.ravel().tolist()):
        raise ValueError(f"distance must be nonnegative, got {distance}")
    if math.isinf(spec.sigma):
        return 1.0 if d.ndim == 0 else np.ones(d.shape)
    # equals -(d * d) / (2 sigma^2) bit for bit: rounding is sign-symmetric;
    # an exponent that overflows to -inf gives exactly 0
    with np.errstate(over="ignore"):
        value = np.exp(d * d / (-2.0 * spec.sigma * spec.sigma))
    return float(value) if d.ndim == 0 else value


def weighted_norm(residual: np.ndarray, weight_factor: np.ndarray):
    """sqrt(e^T W^{-1} e) with W = factor @ factor.T, without forming W^{-1}.

    Solves factor @ z = residual by forward substitution and returns ||z||;
    a singular factor raises ``SingularFactor`` whatever the residual.
    Residuals (runs, m) with factors (runs, m, m) give one norm per run.
    """
    r = np.asarray(residual, dtype=float)
    z = linalg.triangular_solve(weight_factor, r)
    norm = np.sqrt(np.vecdot(z, z))
    return float(norm) if r.ndim == 1 else norm


def compute_lambda(spec: KernelSpec | None, innovation, r_factor, pin_weight=None):
    """The filters' weight: the kernel of the innovation's R^{-1} norm.

    ``r_factor`` is the lower Cholesky factor of R. ``pin_weight`` replaces
    the weight by a fixed value, and then ``spec`` may be None. Innovations
    (runs, m) with factors (runs, m, m) give one weight per run.
    """
    batch = np.ndim(innovation) == 2
    if pin_weight is not None:
        if not 0.0 <= pin_weight < math.inf:
            raise ValueError(f"pinned weight must be nonnegative and finite, got {pin_weight}")
        return np.full(len(innovation), float(pin_weight)) if batch else float(pin_weight)
    if spec is None:
        raise ValueError("a KernelSpec is required unless the weight is pinned")
    if math.isinf(spec.sigma):
        # the kernel is exactly one at every distance
        return np.ones(len(innovation)) if batch else 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        distance = weighted_norm(innovation, r_factor)
    # the innovation and the R factor are finite, so a norm that is not
    # finite overflowed (a NaN is inf - inf in the substitution): it lies
    # beyond the kernel's support, where the kernel is 0
    return gaussian_kernel(spec, np.fmin(distance, math.inf))
