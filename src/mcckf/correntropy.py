"""Gaussian-kernel weighting that rescales the Kalman gain to reject outliers.

Every filter scales its gain by one scalar weight, ``compute_lambda``: the
kernel of the innovation's norm in the R^{-1} metric. It lies in [0, 1],
equals 1 iff the innovation is zero and is exactly 0 where the norm is
beyond the kernel's support (an extreme outlier, or a norm that overflows),
which the filters accept as a zero gain.

The norm is taken of the whitened innovation R_sqrt^{-1} e, one matrix-vector
product with the inverse R factor, which the model computes once when it
is made (the model's ``r_sqrt_inv``), not a substitution per step. The
weight checks no factor: the model factored R when it was made, so every
pivot of its factor is above its floor and every diagonal entry a normal
double, and the inverse exists.

A batch of runs (a leading runs axis on every input) gives one weight per
run, each equal bit for bit to the weight of that run alone.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelSpec",
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
        if not isinstance(self.sigma, numbers.Real):  # float() would take a str
            raise ValueError(f"kernel bandwidth must be a real number, got {self.sigma!r}")
        sigma = float(self.sigma)  # a Python float overflows without a warning
        finite = sigma > 0.0 and sys.float_info.min <= 2.0 * sigma * sigma < math.inf
        if not (finite or sigma == math.inf):
            raise ValueError(
                "kernel bandwidth must be inf or positive with 2 sigma^2 a finite "
                f"normal double, got {self.sigma}"
            )


def compute_lambda(spec: KernelSpec | None, innovation, r_sqrt_inv, pin_weight=None):
    """The filters' weight: the kernel of the innovation's R^{-1} norm,
    exp(-e^T R^{-1} e / (2 sigma^2)) with R^{-1} = r_sqrt_inv.T @ r_sqrt_inv.

    ``r_sqrt_inv`` is the inverse of the lower Cholesky factor of R, the
    model's ``r_sqrt_inv``. ``pin_weight`` replaces the weight by a fixed
    value, and then ``spec`` may be None. Innovations (runs, m) with
    inverse factors (runs, m, m) give one weight per run.
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
        z = np.matvec(r_sqrt_inv, innovation)
        # the innovation and the inverse factor are finite, so a squared norm
        # that is not finite overflowed (a NaN is inf - inf in the product):
        # it lies beyond the kernel's support, where the kernel is exactly 0
        d2 = np.fmin(np.vecdot(z, z), math.inf)
        value = np.exp(d2 / (-2.0 * spec.sigma * spec.sigma))
    return value if batch else float(value)
