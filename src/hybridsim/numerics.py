"""Complex dense linear-algebra kernels shared by the rest of the library.

Matrices are plain ``numpy.ndarray`` objects with complex entries; no wrapper
type is imposed.  The design and rating code relies on two backend-facing
kernels, ``svd`` (the SVD baseline's fallback) and the checked solve below,
so swapping the LAPACK-backed implementations for something else only
requires keeping their contracts.  ``logdet_eval`` is not on any sweep path:
it is the direct Cholesky log-determinant that the tests check the rate
evaluation against.

The systems here are tiny (n_rf <= 4 for the solves), so the cost of a call
is set by how LAPACK is driven, not by flops.  The checked solve therefore
takes its right-hand sides as rows, ``X = C A^-1``: it inverts each checked
matrix and applies the inverse from the right, so all right-hand sides of a
slice sit on the rows of one product, where a stacked LU solve pays for
every right-hand-side column.  ``_solve_rows`` is that kernel; the dense
ADMM loop holds its operands as rows and calls it directly, and
``solve_hpd`` is the column-form wrapper ``X^H = B^H A^-1``.  The kernel
drives NumPy's LAPACK gufuncs without the ``numpy.linalg`` wrappers, whose
Python-level checks cost more than the factorizations on these sizes.
"""

import numpy as np

__all__ = ["svd", "solve_hpd", "logdet_eval"]

# Relative pivot-ratio threshold below which a Cholesky factor is treated as
# numerically rank deficient.
_RANK_TOL = 1e-14

# The gufuncs behind np.linalg.cholesky and np.linalg.inv.  They return NaN
# for a failed slice instead of raising, which _solve_rows checks for; a NumPy
# without them falls back to the wrappers, which raise LinAlgError.
try:
    from numpy.linalg import _umath_linalg

    _cholesky_lo, _inv = _umath_linalg.cholesky_lo, _umath_linalg.inv
except (ImportError, AttributeError):  # pragma: no cover - depends on NumPy
    _cholesky_lo, _inv = np.linalg.cholesky, np.linalg.inv

_NOT_PD = "matrix is not positive definite: Matrix is not positive definite"


def _require_finite(a, name):
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries (corrupted data)")


def svd(a):
    """Singular value decomposition A = U @ diag(s) @ V^H.

    Parameters
    ----------
    a : ndarray, shape (..., m, n)
        Complex matrix, or a stack of them, to factor.  Leading axes are
        batch axes: each slice is factored on its own, bitwise as it would
        be alone.

    Returns
    -------
    u : ndarray, shape (..., m, k)
        Left singular vectors, orthonormal columns, k = min(m, n).
    s : ndarray, shape (..., k)
        Singular values in decreasing order.
    v : ndarray, shape (..., n, k)
        Right singular vectors, orthonormal columns.  Note this is V, not
        V^H; reconstruct with ``u @ np.diag(s) @ v.conj().T``.
    """
    a = np.asarray(a)
    _require_finite(a, "svd input")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return u, s, vh.conj().swapaxes(-1, -2)


def solve_hpd(a, b):
    """Solve A @ X = B for Hermitian positive definite A.

    ``a`` is one (n, n) matrix or a batch of shape (B, n, n).  For one
    matrix, ``b`` is a vector, an (n, m) matrix or a stack of K right-hand
    sides of shape (K, n, m); a batch takes the same shapes with the leading
    B axis, (B, n, m) or (B, K, n, m), slice i solved against ``a[i]``.  The
    result has the shape of ``b``.

    The column form of ``_solve_rows``, which checks every slice of A:
    finite entries, a Cholesky factor (positive definite) and its pivot
    ratio (numerical rank).  Each slice is then inverted, and the inverse is
    applied from the right, ``X^H = B^H A^-1``: every right-hand side of a
    slice becomes one row of a single product against its inverse.  On
    these tiny matrices the right-hand sides, not flops, set the cost of a
    stacked LAPACK solve:
    ``np.linalg.solve`` on a (32, 4, 4) batch took 240 us with 64 columns
    per slice against 45 us with 2 (timeit, one BLAS thread).  Rows rather
    than columns, because a GEMM computes equal rows of its left operand
    into bitwise equal rows of the result, so identical right-hand sides get
    identical solutions; a lone right-hand side is a matrix-vector product
    and may differ from the same one among others in the last bits.  Each
    slice is computed on its own, so slice i does not depend on the other
    slices of the batch.

    Raises ``numpy.linalg.LinAlgError`` when a slice of A is not positive
    definite within tolerance (rank-deficient Gram matrices land here).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a batch of them, got {a.shape}")
    batched = a.ndim == 3
    n = a.shape[-1]
    a3 = a if batched else a[None]
    # right-hand sides as (B, K, n, m)
    b4 = b if batched else b[None]
    if b4.ndim == 2:
        b4 = b4[:, None, :, None]
    elif b4.ndim == 3:
        b4 = b4[:, None]
    if b4.ndim != 4 or b4.shape[0] != a3.shape[0] or b4.shape[2] != n:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    # the K*m right-hand sides of a slice as the rows of B^H, (B, K*m, n)
    n_b, k, _, m = b4.shape
    b_h = b4.swapaxes(-1, -2).conj().reshape(n_b, k * m, n)
    x_h = _solve_rows(a3, b_h)
    return x_h.conj().reshape(n_b, k, m, n).swapaxes(-1, -2).reshape(b.shape)


def _solve_rows(a, c):
    """``X = C A^-1`` for a (B, n, n) stack of HPD matrices and rows (B, m, n).

    The checks of :func:`solve_hpd`, with its exceptions and messages: finite
    A and C (ValueError), then a Cholesky factor of every slice of A and its
    squared pivot ratio against ``_RANK_TOL`` (LinAlgError).  Slice i of the
    result is ``c[i] @ inv(a[i])``, one product per slice, so it does not
    depend on the other slices and equal rows of ``c[i]`` give bitwise equal
    rows of the result.
    """
    _require_finite(a, "solve_hpd matrix")
    _require_finite(c, "solve_hpd right-hand side")
    try:
        # a failed gufunc slice is NaN and raises the invalid flag
        with np.errstate(invalid="ignore"):
            factor = _cholesky_lo(a)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(_NOT_PD) from exc
    # a Cholesky factor has a real positive diagonal; NaN marks a failed one
    diag = factor.diagonal(axis1=-2, axis2=-1).real
    worst = ((diag.min(axis=-1) / diag.max(axis=-1)) ** 2).min()
    if not worst >= _RANK_TOL:
        if np.isnan(worst):
            raise np.linalg.LinAlgError(_NOT_PD)
        raise np.linalg.LinAlgError(
            "matrix is numerically rank deficient (Cholesky pivot ratio "
            f"{worst:.3e})"
        )
    return c @ _inv(a)


def logdet_eval(a):
    """log2 det(A) for Hermitian positive definite A, via Cholesky.

    Never forms the determinant directly, so it stays finite for the
    well-scaled Gram-type arguments it is meant for.
    """
    a = np.asarray(a)
    _require_finite(a, "logdet input")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected square matrix, got shape {a.shape}")
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.conj().T).max() > 1e-10 * scale:
        raise np.linalg.LinAlgError("matrix is not Hermitian")
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"matrix is not positive definite: {exc}"
        ) from exc
    return 2.0 * float(np.sum(np.log2(np.real(np.diag(chol)))))
