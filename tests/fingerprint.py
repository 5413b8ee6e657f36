"""Print a short hash of the package's results, one line per group, so two
versions of the code (or two BLAS kernels) can be compared bit for bit.

Run from the repository root as ``PYTHONPATH=src python tests/fingerprint.py``.
It takes no options. The first two lines name the numpy version and the
OpenBLAS kernel numpy's bundled library runs (``unknown`` where it cannot
be read), since the bits depend on both. Then each group prints its name and
the first 16 hex digits of a sha256 over the bytes of its estimates and the
statuses of its runs with their reasons:

- ``radar_monte_carlo``: ``run_monte_carlo`` of the radar scenario, every
  algorithm, 4 runs, at sigma 3e4 and inf; the estimates of each filter's
  batch and the RMSE reports.
- ``sweep``: ``run_conditioning_sweep`` over the shipped 14 deltas, every
  algorithm, 2 runs; the estimates of each filter's batch and the entries.
- ``random_run_filter``: ``run_filter`` of every algorithm on three random
  stable models (n=24, m=8, q=4) over 60 steps, at sigma 20, 2 and inf; the
  estimates, every step's weight and the status.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
from pathlib import Path

import numpy as np

from mcckf import bench
from mcckf.config import ExperimentConfig
from mcckf.correntropy import KernelSpec
from mcckf.filters import ALGORITHMS, run_filter
from mcckf.model import InitialCondition, StateSpaceModel
from mcckf.sim import SeedSpec, simulate


def openblas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS picked, or ``unknown``."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


class _Digest:
    def __init__(self):
        self._sha = hashlib.sha256()

    def array(self, a) -> None:
        a = np.ascontiguousarray(a, dtype=float)
        self._sha.update(repr(a.shape).encode())
        self._sha.update(a.tobytes())  # sign bits and NaNs included

    def text(self, value) -> None:
        self._sha.update(f"{value!r}\n".encode())

    def hexdigest(self) -> str:
        return self._sha.hexdigest()[:16]


@contextlib.contextmanager
def _batches_into(digest: _Digest):
    """Feed ``digest`` each evaluation's batches, built in this process or
    sent back by a forked child, by wrapping ``bench._all_estimates``."""
    original = bench._all_estimates

    def recorded(*args):
        batches = original(*args)
        for batch in batches:
            digest.array(batch.estimates)
            digest.text(batch.statuses)
        return batches

    bench._all_estimates = recorded
    try:
        yield
    finally:
        bench._all_estimates = original


def radar_monte_carlo() -> str:
    digest = _Digest()
    with _batches_into(digest):
        for sigma in (3e4, math.inf):
            reports = bench.run_monte_carlo(
                ALGORITHMS, bench.radar_scenario(), 4, 1, KernelSpec(sigma)
            )
            for report in reports.values():
                digest.array(report.per_component)
                digest.text((report.scalar_summary, report.statuses))
    return digest.hexdigest()


def sweep() -> str:
    cfg = ExperimentConfig.load(profile="sweep")
    digest = _Digest()
    with _batches_into(digest):
        report = bench.run_conditioning_sweep(
            ALGORITHMS, cfg.sweep_deltas(), 2, cfg.seed(), cfg.kernel_spec(),
            cfg.radar_constants(),
        )
    digest.text(report.entries)
    return digest.hexdigest()


def random_run_filter() -> str:
    digest = _Digest()
    for seed in range(3):
        rng = np.random.default_rng(seed)

        def spd(k):
            b = rng.standard_normal((k, k))
            return b @ b.T / k + np.eye(k)

        a = rng.standard_normal((24, 24))
        model = StateSpaceModel(
            F=0.95 * a / np.abs(np.linalg.eigvals(a)).max(),
            G=rng.standard_normal((24, 4)),
            H=rng.standard_normal((8, 24)),
            Q=spd(4),
            R=spd(8),
        )
        init = InitialCondition(np.zeros(24), spd(24))
        ys = simulate(model, init, 60, SeedSpec(seed, 0)).measurements
        for sigma in (20.0, 2.0, math.inf):
            for algorithm in ALGORITHMS:
                run = run_filter(algorithm, model, init, ys, KernelSpec(sigma))
                digest.array(run.estimates())
                digest.array([report.lam for report in run.reports])
                digest.text(run.status)
    return digest.hexdigest()


GROUPS = (radar_monte_carlo, sweep, random_run_filter)


def main() -> None:
    print(f"numpy {np.__version__}")
    print(f"openblas_kernel {openblas_kernel()}")
    for group in GROUPS:
        print(f"{group.__name__} {group()}", flush=True)


if __name__ == "__main__":
    main()
