"""Complex dense linear-algebra kernels shared by the rest of the library.

Matrices are plain ``numpy.ndarray`` objects with complex entries; no wrapper
type is imposed.  The three kernels below are the only backend-facing
operations the design algorithms rely on, so swapping the LAPACK-backed
implementations for something else only requires keeping these contracts.
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

    Every slice of A is checked: finite entries, a Cholesky factor (positive
    definite) and its pivot ratio (numerical rank).  The systems are then
    solved by LU in one stacked LAPACK call rather than by two triangular
    solves against the factor: on these tiny matrices the number of calls,
    not a second factorization, sets the cost.  Each slice is computed on
    its own, so slice i does not depend on the other slices of the batch.

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
    # the K stacked systems of a slice share its matrix: solve them as the
    # columns of one (n, K*m) right-hand side
    n_b, k, _, m = b4.shape
    x = np.linalg.solve(a3, b4.transpose(0, 2, 1, 3).reshape(n_b, n, k * m))
    return x.reshape(n_b, n, k, m).transpose(0, 2, 1, 3).reshape(b.shape)


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
