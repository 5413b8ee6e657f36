"""Dense and triangular linear algebra for square-root covariance filtering.

All routines operate on float64 numpy arrays. Triangular factors follow a
fixed sign convention (nonnegative diagonal), which makes the factor of a
given SPD matrix unique and therefore directly comparable across the
filtering algorithms that propagate them.

The factorization, triangularization and solve kernels also take a stack of
matrices with a leading axis, one matrix per Monte Carlo run. Each matrix of
a stack gets bit for bit the result of the call on that matrix alone: every
product is a stacked ``@``, ``np.vecdot``, ``np.matvec`` or ``np.vecmat``
with the per-matrix shapes and association order of the 2-D call, which
numpy evaluates with the same BLAS call per matrix, and nothing sums across
the stack. The one-matrix loops write their products as ``ndarray.dot``,
which calls the same BLAS routine over the same slices as ``@`` with less
interpreter work; the tests compare them with the ``@`` loops they replaced
(``tests/oracles.py``) bit for bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "LinalgError",
    "NotSymmetric",
    "NotPositiveDefinite",
    "NonFiniteInput",
    "SingularFactor",
    "symmetrize",
    "cholesky_lower",
    "lower_triangularize",
    "triangular_solve",
    "triangular_inverse",
]

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)

# Relative tolerance for the symmetry precheck in cholesky_lower. Joseph-form
# covariance updates accumulate asymmetry of roundoff order, so the check must
# not be exact.
SYMMETRY_RTOL = 1e-9

# A Cholesky pivot at or below PIVOT_FLOOR_FACTOR * eps * row_norm is treated
# as a positive-definiteness failure instead of producing a garbage factor.
PIVOT_FLOOR_FACTOR = 100.0


class LinalgError(Exception):
    """Base class for factorization and solve failures.

    Raised for a stack of matrices, ``failed`` maps the index in the stack of
    each matrix that failed the check to the message the call on that matrix
    alone raises; the other matrices passed every check up to that point.
    """

    def __init__(self, message: str, failed: dict[int, str] | None = None):
        super().__init__(message)
        self.failed = {} if failed is None else failed


class NotSymmetric(LinalgError):
    """Input expected to be symmetric is not, beyond tolerance."""


class NotPositiveDefinite(LinalgError):
    """A Cholesky pivot fell at or below the positive-definiteness floor."""


class NonFiniteInput(LinalgError):
    """Input contains NaN or Inf."""


class SingularFactor(LinalgError):
    """A triangular factor has a zero or subnormal diagonal entry."""


def _raise_where(cls, bad: np.ndarray, message) -> None:
    """Raise ``cls`` if a check failed: ``bad`` is a flag for one matrix or
    one flag per matrix of a stack, and ``message(i)`` is the message for
    matrix i (``i = ()`` for one matrix)."""
    if not bad.any():
        return
    if bad.ndim == 0:
        raise cls(message(()))
    failed = {int(i): message(i) for i in np.flatnonzero(bad)}
    raise cls("; ".join(f"matrix {i}: {m}" for i, m in failed.items()), failed)


def _require_finite(a: np.ndarray, message: str) -> None:
    if not np.isfinite(a).all():
        _raise_where(NonFiniteInput, ~np.isfinite(a).all(axis=(-2, -1)), lambda i: message)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part (a + a.T) / 2 of a matrix or of each matrix
    of a stack."""
    a = np.asarray(a, dtype=float)
    return (a + a.mT) / 2.0


def cholesky_lower(a: np.ndarray, check_symmetry: bool = True) -> np.ndarray:
    """Factor a symmetric positive definite matrix as L @ L.T, L lower.

    The input is symmetrized before factoring. Pivots are compared against
    a floor of ``PIVOT_FLOOR_FACTOR * eps * row_norm`` so that a nearly
    indefinite matrix raises instead of yielding a meaningless factor; the
    filters rely on that signal to detect divergence.

    Parameters
    ----------
    a : ndarray, shape (n, n) or (runs, n, n)
        Matrix, or stack of matrices, to factor. Must be symmetric to within
        ``SYMMETRY_RTOL`` (relative, max-norm) unless ``check_symmetry`` is
        disabled.
    check_symmetry : bool
        Skip the symmetry precheck when the caller guarantees it.

    Returns
    -------
    ndarray, shape of ``a``
        Lower-triangular L with nonnegative diagonal and L @ L.T == a to
        within roundoff.

    Raises
    ------
    NotSymmetric
        If the symmetry check fails.
    NotPositiveDefinite
        If any pivot is at or below the floor.
    NonFiniteInput
        If the input contains NaN or Inf.

    On a stack, each error names the failing matrices in ``failed``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    _require_finite(a, "matrix contains non-finite entries")
    if check_symmetry:
        scale = np.abs(a).max(axis=(-2, -1), initial=0.0)
        asymmetry = np.abs(a - a.mT).max(axis=(-2, -1), initial=0.0)
        _raise_where(
            NotSymmetric,
            asymmetry > SYMMETRY_RTOL * scale,
            lambda i: f"asymmetry {asymmetry[i]:.3e} exceeds "
            f"{SYMMETRY_RTOL:g} * {scale[i]:.3e}",
        )
    return _cholesky(a) if a.ndim == 2 else _cholesky_stack(a)


def _pivot_floors(s: np.ndarray) -> np.ndarray:
    """``PIVOT_FLOOR_FACTOR * eps`` times the 2-norm of each row of s, or of
    each matrix of a stack. The norm is ``np.linalg.norm``'s formula; a row
    of finite entries whose sum of squares overflows is scaled by its
    largest entry first. A row with an infinite entry keeps an infinite
    floor, which no pivot passes."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(s * s, axis=-1))
    floors = PIVOT_FLOOR_FACTOR * _EPS * norms
    if np.isinf(norms).any():
        big = np.isinf(norms) & np.isfinite(s).all(axis=-1)
        rows = s[big]
        scale = np.abs(rows).max(axis=-1)
        unit_norms = np.linalg.norm(rows / scale[:, None], axis=-1)
        floors[big] = PIVOT_FLOOR_FACTOR * _EPS * scale * unit_norms
    return floors


def _cholesky(a: np.ndarray) -> np.ndarray:
    s = symmetrize(a)
    n = s.shape[0]
    floors = _pivot_floors(s).tolist()
    diag = s.diagonal().tolist()
    lower = np.zeros_like(s)
    for j, full_row in enumerate(lower):
        row = full_row[:j]
        pivot = diag[j] - float(row.dot(row))
        if pivot <= floors[j]:
            raise NotPositiveDefinite(
                f"pivot {pivot:.6e} at index {j} is at or below floor {floors[j]:.6e}"
            )
        root = lower[j, j] = math.sqrt(pivot)
        if j + 1 < n:
            lower[j + 1 :, j] = (s[j + 1 :, j] - lower[j + 1 :, :j].dot(row)) / root
    return lower


def _cholesky_stack(a: np.ndarray) -> np.ndarray:
    """The loop of ``_cholesky`` over every matrix of a stack at once."""
    s = symmetrize(a)
    n = s.shape[-1]
    floors = _pivot_floors(s)
    lower = np.zeros_like(s)
    for j in range(n):
        pivot = s[:, j, j] - np.vecdot(lower[:, j, :j], lower[:, j, :j])
        floor = floors[:, j]
        _raise_where(
            NotPositiveDefinite,
            pivot <= floor,
            lambda i: f"pivot {pivot[i]:.6e} at index {j} is at or below "
            f"floor {floor[i]:.6e}",
        )
        lower[:, j, j] = np.sqrt(pivot)
        if j + 1 < n:
            lower[:, j + 1 :, j] = (
                s[:, j + 1 :, j] - np.matvec(lower[:, j + 1 :, :j], lower[:, j, :j])
            ) / lower[:, j, j, None]
    return lower


@functools.cache
def _upper_mask(n: int) -> np.ndarray:
    """Read-only mask of the upper triangle, diagonal included, of n x n."""
    mask = ~np.tri(n, k=-1, dtype=bool)
    mask.setflags(write=False)
    return mask


def lower_triangularize(pre_array: np.ndarray) -> np.ndarray:
    """Reduce a wide pre-array A (rows <= cols) to its lower-triangular X.

    Applies an orthogonal transformation from the right so that
    ``A @ Q = [X, 0]`` with X square lower triangular, which preserves the
    Gram matrix: ``X @ X.T == A @ A.T``. Realized as the orthogonal-triangular
    decomposition of the transposed pre-array (Householder reflections),
    transposed back. Column signs are flipped so the diagonal of X is
    nonnegative; rank-deficient inputs yield zero diagonal entries.

    A stack of pre-arrays (runs, rows, cols) is reduced one pre-array at a
    time by the same LAPACK call.

    Raises
    ------
    NonFiniteInput
        If the pre-array contains NaN or Inf; on a stack, ``failed`` names
        the failing pre-arrays.
    """
    a = np.asarray(pre_array, dtype=float)
    if a.ndim not in (2, 3):
        raise ValueError(f"expected a 2-D pre-array or a stack of them, got shape {a.shape}")
    rows, cols = a.shape[-2:]
    if rows > cols:
        raise ValueError(f"pre-array must have rows <= cols, got shape {a.shape}")
    _require_finite(a, "pre-array contains non-finite entries")
    # mode="raw" skips the triu copy of mode="r": h.mT is the LAPACK output,
    # with R on and above the diagonal of its leading rows and reflectors
    # below. Masking it there, not in h, keeps the memory layout of R^T that
    # the products downstream were computed with.
    h, _ = np.linalg.qr(a.mT, mode="raw")
    x = np.where(_upper_mask(rows), h.mT[..., :rows, :], 0.0).mT
    signs = np.where(x.diagonal(0, -2, -1) < 0.0, -1.0, 1.0)
    return x * signs[..., None, :]


def triangular_solve(
    l: np.ndarray, b: np.ndarray, transposed: bool = False
) -> np.ndarray:
    """Solve l @ x = b (or l.T @ x = b when ``transposed``) by substitution.

    ``l`` must be lower triangular with a strictly positive (normal) diagonal;
    a zero or subnormal diagonal entry raises ``SingularFactor``, the signal
    the ill-conditioning sweep uses to record breakdown. ``b`` may be a vector
    or a matrix of stacked right-hand sides.

    A stack of factors (runs, n, n) solves each run's system: ``b`` is then
    (runs, n) for vectors or (runs, n, k) for matrices, and ``SingularFactor``
    names the failing factors in ``failed``.
    """
    l = np.asarray(l, dtype=float)
    b = np.asarray(b, dtype=float)
    if l.ndim == 2:
        return _solve(l, b, transposed)
    if l.ndim != 3 or b.ndim not in (2, 3) or b.shape[:2] != l.shape[:2]:
        raise ValueError(f"dimension mismatch: factors {l.shape}, rhs {b.shape}")
    return _solve_stack(l, b, transposed)


def _solve(l: np.ndarray, b: np.ndarray, transposed: bool) -> np.ndarray:
    n = l.shape[0]
    if b.shape[0] != n:
        raise ValueError(f"dimension mismatch: factor {l.shape}, rhs {b.shape}")
    vector = b.ndim == 1
    # closed forms for the tiny systems the filters solve in their inner loop
    if n == 1:
        if abs(l[0, 0]) < _TINY:
            raise SingularFactor("factor has a zero or subnormal diagonal entry")
        return b / l[0, 0]
    if n == 2:
        if abs(l[0, 0]) < _TINY or abs(l[1, 1]) < _TINY:
            raise SingularFactor("factor has a zero or subnormal diagonal entry")
        x = np.empty_like(b)
        if not transposed:
            x[0] = b[0] / l[0, 0]
            x[1] = (b[1] - l[1, 0] * x[0]) / l[1, 1]
        else:
            x[1] = b[1] / l[1, 1]
            x[0] = (b[0] - l[1, 0] * x[1]) / l[0, 0]
        return x
    if np.any(np.abs(np.diagonal(l)) < _TINY):
        raise SingularFactor("factor has a zero or subnormal diagonal entry")
    x = b[:, None].copy() if vector else b.copy()
    rows = list(x)
    diag = l.diagonal().tolist()
    if not transposed:
        lrows = list(l)
        for i in range(n):
            if i:
                rows[i] -= lrows[i][:i].dot(x[:i])
            rows[i] /= diag[i]
    else:
        lrows = list(l.T)
        for i in range(n - 1, -1, -1):
            if i < n - 1:
                rows[i] -= lrows[i][i + 1 :].dot(x[i + 1 :])
            rows[i] /= diag[i]
    return x[:, 0] if vector else x


def _solve_stack(l: np.ndarray, b: np.ndarray, transposed: bool) -> np.ndarray:
    """The loop of ``_solve`` over every factor of a stack at once."""
    n = l.shape[-1]
    vector = b.ndim == 2
    _raise_where(
        SingularFactor,
        (np.abs(l.diagonal(0, 1, 2)) < _TINY).any(axis=1),
        lambda i: "factor has a zero or subnormal diagonal entry",
    )
    x = b[..., None].copy() if vector else b.copy()
    if not transposed:
        for i in range(n):
            if i:
                x[:, i] -= np.vecmat(l[:, i, :i], x[:, :i])
            x[:, i] /= l[:, i, i, None]
    else:
        for i in range(n - 1, -1, -1):
            if i < n - 1:
                x[:, i] -= np.vecmat(l[:, i + 1 :, i], x[:, i + 1 :])
            x[:, i] /= l[:, i, i, None]
    return x[..., 0] if vector else x


def triangular_inverse(l: np.ndarray) -> np.ndarray:
    """Invert a lower-triangular factor, or each factor of a stack; the
    result is lower triangular."""
    l = np.asarray(l, dtype=float)
    eye = np.eye(l.shape[-1])
    return triangular_solve(l, eye if l.ndim == 2 else eye[None].repeat(len(l), axis=0))

