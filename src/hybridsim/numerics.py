"""``logdet_eval``, the direct Cholesky log-determinant that the tests check
rate evaluation against; it is on no sweep path.  The checked solve of the
ADMM updates is ``admm._solve_rows``, beside its callers.
"""

import numpy as np

from .admm import _require_finite

__all__ = ["logdet_eval"]


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
