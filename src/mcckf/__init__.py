"""Correntropy-weighted Kalman filtering in conventional and square-root forms.

The package provides three algebraically equivalent implementations of the
weighted filter (full-covariance Joseph form plus two Cholesky square-root
array forms), a dense reference Kalman filter, a seeded trajectory simulator
with impulsive outlier injection, and a Monte Carlo harness that measures
estimation accuracy and numerical breakdown under ill-conditioning.
"""

__version__ = "0.1.0"

# The README's Library names and the error types. Step functions, kernels,
# run_batch and the rest come from their submodules (mcckf.filters,
# mcckf.linalg, ...).
from .bench import build_example1, radar_scenario, run_monte_carlo
from .correntropy import KernelSpec
from .filters import run_filter
from .linalg import (
    LinalgError,
    NonFiniteInput,
    NotPositiveDefinite,
    NotSymmetric,
    SingularFactor,
)
from .sim import SeedSpec, simulate

__all__ = [
    "__version__",
    "KernelSpec",
    "SeedSpec",
    "build_example1",
    "radar_scenario",
    "run_filter",
    "run_monte_carlo",
    "simulate",
    "LinalgError",
    "NonFiniteInput",
    "NotPositiveDefinite",
    "NotSymmetric",
    "SingularFactor",
]
