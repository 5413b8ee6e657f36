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
the stack. The Cholesky and substitution loops run once over the whole
stack, column by column, with the per-matrix arithmetic of the one-matrix
loop, so a stack of one gives the bits of the 2-D call. There is one loop
per orientation at every n, with no closed forms for n = 1 or 2. The
one-matrix loops write their products as ``ndarray.dot``, which calls the
same BLAS routine over the same slices as ``@`` with less interpreter work;
the tests compare them with the ``@`` loops they replaced
(``tests/oracles.py``) bit for bit.

Scope: the same BLAS call can still round differently by operand alignment.
The guarantee holds on the OpenBLAS kernels measured, SkylakeX, Haswell and
Sandybridge. It fails on Prescott (``OPENBLAS_CORETYPE=Prescott``), where a
product with stack matrix i differs from one with an aligned copy exactly
when i is odd and the matrix has an odd number of entries, so it starts 8
bytes off a 16-byte boundary. The runs at odd positions of a batch then
differ from the same runs alone.

Nothing here uses ``einsum``, ``np.linalg.cholesky`` or anything else that
reorders sums: under ill-conditioning that moves results by far more than
rounding, and ``np.linalg.cholesky`` also skips the pivot floor that
detects breakdown.

Checks. Every public kernel checks its input for a direct caller:

* ``cholesky_lower``: shape, finiteness, symmetry, then the pivot floor at
  every column;
* ``lower_triangularize``: shape, rows <= cols, finiteness;
* ``triangular_solve`` and ``triangular_inverse``: shapes, and a zero or
  subnormal diagonal entry (``SingularFactor``).

The filters check each matrix once per step. Where the same step has just
established what a check tests, they call a private entry point without it:

* ``_triangularize`` for the four pre-arrays, which the step checked for
  finiteness on the line before;
* ``_cholesky_unchecked`` for the conventional filter's predicted
  covariance, which its time update has symmetrized and checked for
  finiteness, and, after ``_require_finite`` and ``symmetrize``, for its
  information matrix, which is symmetric in exact arithmetic;
* ``_solve_unchecked`` and ``_inverse_unchecked`` against the conventional
  filter's two Cholesky factors: a pivot above its floor (which is at least
  0) is at least 4.9e-324, so its root on the diagonal is at least 2.2e-162
  and cannot trip the singular-diagonal check;
* ``_solve_unchecked`` for the second solve against a QR-produced factor
  (sr1a's information factor, sr1b's innovation factor), whose diagonal the
  first solve of the step has just checked.

Every other check stays: those on a step function's input state, which a
direct caller may pass, sr1a's inverse of its input factor, and the first
solve against each QR-produced factor, where rank deficiency gives a zero
diagonal. ``triangular_solve`` tests a factor and a stack with the same
shape and diagonal tests, and a factor alone raises the message that its
stack of one names in ``failed[0]``.

A stacked Cholesky compares all pivots with their floors once, after its
loop; ``NotPositiveDefinite.failed`` then names every failing matrix of the
stack, each with the message of its own first failed pivot.

QR. ``_triangularize`` makes one LAPACK Householder QR (``dgeqrf``) per
pre-array or stack, through numpy's ``qr_r_raw`` gufunc, on the buffer that
``np.linalg.qr(a.mT, mode="raw")`` makes: a float64 copy of the transposed
pre-array. It skips that wrapper's dtype dispatch and ``errstate``, which
cost about as much per call as the factorization itself on these small
pre-arrays. Neither is needed. Every pre-array is a finite float64 array,
so the wrapper's ``LinAlgError`` path (LAPACK rejecting an argument)
cannot fire, and the gufunc clears the floating-point flags that LAPACK
raises, so no warning can escape either. ``tests/test_linalg.py`` compares
the result with ``np.linalg.qr``'s in value, sign bit and strides, at
entries scaled up to 1e300 and down to 1e-310, with every warning an error.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.linalg import _umath_linalg

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

_SINGULAR = "factor has a zero or subnormal diagonal entry"

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
    every matrix that failed the check to the message the call on that
    matrix alone raises; the other matrices passed every check up to that
    point.
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


def _stack_error(cls, failed: dict[int, str]) -> LinalgError:
    """``cls`` for a stack whose matrices ``failed`` maps to their messages."""
    return cls("; ".join(f"matrix {i}: {m}" for i, m in failed.items()), failed)


def _raise_where(cls, bad: np.ndarray, message) -> None:
    """Raise ``cls`` if a check failed: ``bad`` is a flag for one matrix or
    one flag per matrix of a stack, and ``message(i)`` is the message for
    matrix i (``i = ()`` for one matrix)."""
    if not bad.any():
        return
    if bad.ndim == 0:
        raise cls(message(()))
    raise _stack_error(cls, {int(i): message(i) for i in np.flatnonzero(bad)})


def _require_finite(
    a: np.ndarray, message: str = "matrix contains non-finite entries", lead: int | None = None
) -> None:
    """Raise ``NonFiniteInput`` if ``a`` has a non-finite entry. Its ``lead``
    leading axes (default: all but the last two) index the arrays of a stack,
    and ``failed`` names the arrays with one."""
    if not np.isfinite(a).all():
        axes = tuple(range(a.ndim - 2 if lead is None else lead, a.ndim))
        _raise_where(NonFiniteInput, ~np.isfinite(a).all(axis=axes), lambda i: message)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part (a + a.T) / 2 of a matrix or of each matrix
    of a stack. An entry whose ``a_ij + a_ji`` overflows is taken as
    ``a_ij / 2 + a_ji / 2``: both terms are then far above the subnormals, so
    the halves are exact and their sum rounds to the value of
    ``(a_ij + a_ji) / 2``, which every other entry keeps bit for bit.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        s = (a + a.mT) / 2.0
    if np.isinf(s).any():
        s = np.where(np.isinf(s), a / 2.0 + a.mT / 2.0, s)
    return s


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Factor a symmetric positive definite matrix as L @ L.T, L lower.

    The input is symmetrized before factoring. Pivots are compared against
    a floor of ``PIVOT_FLOOR_FACTOR * eps * row_norm`` so that a nearly
    indefinite matrix raises instead of yielding a meaningless factor; the
    filters rely on that signal to detect divergence.

    Parameters
    ----------
    a : ndarray, shape (n, n) or (runs, n, n)
        Matrix, or stack of matrices, to factor. Must be symmetric to within
        ``SYMMETRY_RTOL`` (relative, max-norm).

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

    On a stack, each error names the failing matrices in ``failed``; a
    ``NotPositiveDefinite`` names every matrix with a failed pivot, each
    with the message of its first one.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    _require_finite(a)
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)
    asymmetry = np.abs(a - a.mT).max(axis=(-2, -1), initial=0.0)
    _raise_where(
        NotSymmetric,
        asymmetry > SYMMETRY_RTOL * scale,
        lambda i: f"asymmetry {asymmetry[i]:.3e} exceeds {SYMMETRY_RTOL:g} * {scale[i]:.3e}",
    )
    return _cholesky_unchecked(symmetrize(a))


def _cholesky_unchecked(s: np.ndarray) -> np.ndarray:
    """``cholesky_lower`` of a finite symmetric float matrix or stack,
    without the checks and without symmetrizing it again.

    The pivot floors are ``PIVOT_FLOOR_FACTOR * eps`` times the 2-norm of
    each row, by ``np.linalg.norm``'s formula; a row whose sum of squares
    overflows is scaled by its largest entry first.
    """
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(s * s, axis=-1))
    floors = PIVOT_FLOOR_FACTOR * _EPS * norms
    big = np.isinf(norms)
    if big.any():
        rows = s[big]
        scale = np.abs(rows).max(axis=-1)
        unit_norms = np.linalg.norm(rows / scale[:, None], axis=-1)
        floors[big] = PIVOT_FLOOR_FACTOR * _EPS * scale * unit_norms
    return _cholesky(s, floors) if s.ndim == 2 else _cholesky_stack(s, floors)


def _pivot_failure(pivot: float, j: int, floor: float) -> str:
    return f"pivot {pivot:.6e} at index {j} is at or below floor {floor:.6e}"


def _cholesky(s: np.ndarray, floors: np.ndarray) -> np.ndarray:
    n = s.shape[0]
    floors = floors.tolist()
    diag = s.diagonal().tolist()
    lower = np.zeros_like(s)
    for j, full_row in enumerate(lower):
        row = full_row[:j]
        pivot = diag[j] - float(row.dot(row))
        if pivot <= floors[j]:
            raise NotPositiveDefinite(_pivot_failure(pivot, j, floors[j]))
        root = lower[j, j] = math.sqrt(pivot)
        if j + 1 < n:
            lower[j + 1 :, j] = (s[j + 1 :, j] - lower[j + 1 :, :j].dot(row)) / root
    return lower


def _cholesky_stack(s: np.ndarray, floors: np.ndarray) -> np.ndarray:
    """The loop of ``_cholesky`` over every matrix of a stack at once.

    The loop runs to the end and the pivots are compared with their floors
    once, after it. A failed pivot's root is NaN, zero or tiny, and what
    follows from it in its own matrix is ignored: each matrix's columns up
    to its first failed pivot are exactly those of the one-matrix call,
    which raises at that pivot with the same message.
    """
    n = s.shape[-1]
    lower = np.zeros_like(s)
    pivots = np.empty(s.shape[:-1])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j in range(n):
            row = lower[:, j, :j]
            pivot = pivots[:, j] = s[:, j, j] - np.vecdot(row, row)
            root = lower[:, j, j] = np.sqrt(pivot)
            if j + 1 < n:
                lower[:, j + 1 :, j] = (
                    s[:, j + 1 :, j] - np.matvec(lower[:, j + 1 :, :j], row)
                ) / root[:, None]
    bad = pivots <= floors
    if bad.any():
        first = bad.argmax(axis=1).tolist()
        raise _stack_error(
            NotPositiveDefinite,
            {
                i: _pivot_failure(pivots[i, j], j, floors[i, j])
                for i, j in enumerate(first)
                if bad[i, j]
            },
        )
    return lower


@functools.cache
def _upper_mask(n: int) -> np.ndarray:
    """Read-only mask of the upper triangle, diagonal included, of n x n."""
    mask = ~np.tri(n, k=-1, dtype=bool)
    mask.setflags(write=False)
    return mask


@functools.cache
def _identity(n: int) -> np.ndarray:
    """Read-only n x n identity."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


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
    return _triangularize(a)


def _triangularize(a: np.ndarray) -> np.ndarray:
    """``lower_triangularize`` of a finite float pre-array or stack of them,
    rows <= cols, without the checks."""
    rows = a.shape[-2]
    # the buffer and call of np.linalg.qr(a.mT, mode="raw") (see the module
    # docstring): LAPACK overwrites h with R on and above the diagonal of its
    # leading rows and reflectors below. Masking h there keeps the memory
    # layout of R^T that the products downstream were computed with: numpy
    # may take another BLAS path for a C-ordered operand, and returning the
    # same values in C order moved sr1a's breakdown at delta 1e-5 from step
    # 46 to 57.
    h = a.mT.astype(np.float64, copy=True)
    _umath_linalg.qr_r_raw(h, signature="d->d")
    r = np.where(_upper_mask(rows), h[..., :rows, :], 0.0)
    np.negative(r, out=r, where=(r.diagonal(0, -2, -1) < 0.0)[..., :, None])
    return r.mT


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
    lead = l.ndim - 1  # the axes b shares with l
    square = lead in (1, 2) and l.shape[-1] == l.shape[-2]
    if not square or b.ndim not in (lead, lead + 1) or b.shape[:lead] != l.shape[:-1]:
        raise ValueError(f"dimension mismatch: factor {l.shape}, rhs {b.shape}")
    # a NaN diagonal entry compares False, and on a stack does not hide a
    # zero entry of another factor
    tiny = np.abs(l.diagonal(0, -2, -1)) < _TINY
    if tiny.any():
        _raise_where(SingularFactor, tiny.any(axis=-1), lambda i: _SINGULAR)
    return _solve_unchecked(l, b, transposed)


def _solve_unchecked(l: np.ndarray, b: np.ndarray, transposed: bool = False) -> np.ndarray:
    """``triangular_solve`` of float arrays of matching shapes, without the
    singular-diagonal check, for a factor whose diagonal the caller knows to
    be normal."""
    return _solve(l, b, transposed) if l.ndim == 2 else _solve_stack(l, b, transposed)


def _solve(l: np.ndarray, b: np.ndarray, transposed: bool) -> np.ndarray:
    n = l.shape[0]
    vector = b.ndim == 1
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


def _eye_like(l: np.ndarray) -> np.ndarray:
    """The identity right-hand side that inverts l, or each factor of a stack."""
    eye = _identity(l.shape[-1])
    return eye if l.ndim == 2 else np.broadcast_to(eye, l.shape)


def triangular_inverse(l: np.ndarray) -> np.ndarray:
    """Invert a lower-triangular factor, or each factor of a stack; the
    result is lower triangular."""
    l = np.asarray(l, dtype=float)
    if l.ndim not in (2, 3) or l.shape[-1] != l.shape[-2]:
        raise ValueError(f"dimension mismatch: factor {l.shape} is not square")
    return triangular_solve(l, _eye_like(l))


def _inverse_unchecked(l: np.ndarray) -> np.ndarray:
    """``triangular_inverse`` of a float factor or stack without the
    singular-diagonal check, as ``_solve_unchecked``."""
    return _solve_unchecked(l, _eye_like(l))
