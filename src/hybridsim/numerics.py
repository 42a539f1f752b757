"""Complex dense linear-algebra kernels shared by the rest of the library.

Matrices are plain ``numpy.ndarray`` objects with complex entries; no wrapper
type is imposed.  The module holds the checked solve that both least-squares
updates of the ADMM iteration run through, ``_solve_rows``, and
``logdet_eval``, which is not on any sweep path: it is the direct Cholesky
log-determinant that the tests check the rate evaluation against.

The systems here are tiny (n_rf <= 4 for the solves), so the cost of a call
is set by how LAPACK is driven, not by flops.  The checked solve therefore
takes its right-hand sides as rows, ``X = C A^-1``: it inverts each checked
matrix and applies the inverse from the right, so all right-hand sides of a
slice sit on the rows of one product, where a stacked LU solve pays for
every right-hand-side column.  The dense ADMM loop holds its operands as
rows and calls the kernel directly.  The kernel drives NumPy's LAPACK
gufuncs without the ``numpy.linalg`` wrappers, whose Python-level checks
cost more than the factorizations on these sizes.
"""

import numpy as np

__all__ = ["logdet_eval"]

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


def _solve_rows(a, c):
    """``X = C A^-1`` for a (B, n, n) stack of HPD matrices and rows (B, m, n).

    Checks finite A and C (ValueError), then a Cholesky factor of every
    slice of A and its squared pivot ratio against ``_RANK_TOL``
    (LinAlgError: a rank-deficient Gram matrix lands here).  Slice i of the
    result is ``c[i] @ inv(a[i])``, one product per slice, so it does not
    depend on the other slices.  Rows rather than columns, because a GEMM
    computes equal rows of its left operand into bitwise equal rows of the
    result, so identical right-hand sides get identical solutions; a lone
    row is a matrix-vector product and may differ from the same row among
    others in the last bits.  On these sizes the right-hand sides, not
    flops, set the cost of a stacked LAPACK solve: ``np.linalg.solve`` on a
    (32, 4, 4) batch took 240 us with 64 columns per slice against 45 us
    with 2 (timeit, one BLAS thread).
    """
    # tests pin these messages, which keep the solve's former public name
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
