"""Complex dense linear-algebra kernels shared by the rest of the library.

Matrices are plain ``numpy.ndarray`` objects with complex entries; no wrapper
type is imposed.  The three kernels below are the only backend-facing
operations the design algorithms rely on, so swapping the LAPACK-backed
implementations for something else only requires keeping these contracts.
"""

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

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
    a : ndarray, shape (m, n)
        Complex matrix to factor.

    Returns
    -------
    u : ndarray, shape (m, k)
        Left singular vectors, orthonormal columns, k = min(m, n).
    s : ndarray, shape (k,)
        Singular values in decreasing order.
    v : ndarray, shape (n, k)
        Right singular vectors, orthonormal columns.  Note this is V, not
        V^H; reconstruct with ``u @ np.diag(s) @ v.conj().T``.
    """
    a = np.asarray(a)
    _require_finite(a, "svd input")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return u, s, vh.conj().T


def solve_hpd(a, b):
    """Solve A @ X = B for Hermitian positive definite A via Cholesky.

    ``b`` is a vector, an (n, m) matrix or a stack of K right-hand sides of
    shape (K, n, m); A is factored once and every right-hand side is solved
    against that factor in one LAPACK ``potrs`` call.  The result has the
    shape of ``b``.

    Raises ``numpy.linalg.LinAlgError`` when A is not positive definite
    within tolerance (rank-deficient Gram matrices land here).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    _require_finite(a, "solve_hpd matrix")
    _require_finite(b, "solve_hpd right-hand side")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected square matrix, got shape {a.shape}")
    n = a.shape[0]
    stacked = b.ndim == 3
    if b.ndim > 3 or b.shape[-2 if stacked else 0] != n:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    potrf, potrs = get_lapack_funcs(("potrf", "potrs"), (a, b))
    factor, info = potrf(a, lower=True, clean=False)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"matrix is not positive definite: leading minor of order {info} "
            "is not positive"
        )
    # a successful potrf leaves a real positive diagonal
    diag = factor.diagonal().real.tolist()
    if min(diag) ** 2 < _RANK_TOL * max(diag) ** 2:
        raise np.linalg.LinAlgError(
            "matrix is numerically rank deficient (Cholesky pivot ratio "
            f"{(min(diag) / max(diag)) ** 2:.3e})"
        )
    if stacked:
        # (K, n, m) -> columns of one (n, K*m) system, and back
        k, _, m = b.shape
        x, _ = potrs(factor, b.transpose(1, 0, 2).reshape(n, k * m), lower=True)
        return x.reshape(n, k, m).transpose(1, 0, 2)
    x, _ = potrs(factor, b, lower=True)
    return x


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
