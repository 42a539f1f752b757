"""Complex dense linear-algebra kernels shared by the rest of the library.

Matrices are plain ``numpy.ndarray`` objects with complex entries; no wrapper
type is imposed.  The three kernels below are the only backend-facing
operations the design algorithms rely on, so swapping the LAPACK-backed
implementations for something else only requires keeping these contracts.

The systems here are tiny (n_rf <= 4 for the solves), so the cost of a call
is set by how LAPACK is driven, not by flops.  ``solve_hpd`` therefore
inverts each checked matrix and applies the inverse from the right,
``X^H = B^H A^-1``: all right-hand sides of a slice sit on the rows of one
product, where a stacked LU solve pays for every right-hand-side column.
"""

import numpy as np

__all__ = ["svd", "solve_hpd", "logdet_eval"]

# Relative pivot-ratio threshold below which a Cholesky factor is treated as
# numerically rank deficient.
_RANK_TOL = 1e-14


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

    Every slice of A is checked, all in this one place: finite entries, a
    Cholesky factor (positive definite) and its pivot ratio (numerical
    rank).  Each slice is then inverted, and the inverse is applied from the
    right, ``X^H = B^H A^-1``: every right-hand side of a slice becomes one
    row of a single product against its inverse.  On these tiny matrices the
    right-hand sides, not flops, set the cost of a stacked LAPACK solve:
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
    _require_finite(a, "solve_hpd matrix")
    _require_finite(b, "solve_hpd right-hand side")
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
    try:
        factor = np.linalg.cholesky(a3)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"matrix is not positive definite: {exc}") from exc
    # a Cholesky factor has a real positive diagonal
    diag = factor.diagonal(axis1=1, axis2=2).real
    ratio = (diag.min(axis=1) / diag.max(axis=1)) ** 2
    if (ratio < _RANK_TOL).any():
        raise np.linalg.LinAlgError(
            "matrix is numerically rank deficient (Cholesky pivot ratio "
            f"{ratio.min():.3e})"
        )
    # the K*m right-hand sides of a slice as the rows of B^H, (B, K*m, n)
    n_b, k, _, m = b4.shape
    b_h = b4.swapaxes(-1, -2).conj().reshape(n_b, k * m, n)
    x_h = b_h @ np.linalg.inv(a3)
    return x_h.conj().reshape(n_b, k, m, n).swapaxes(-1, -2).reshape(b.shape)


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
