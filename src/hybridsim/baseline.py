"""Unconstrained digital precoder/combiner and the spectral-efficiency rate.

The digital baseline takes the leading right/left singular vectors of the
channel as precoder/combiner; with orthonormal columns the precoder already
meets the total-power constraint ||F||_F^2 = n_s, so no extra power loading
is applied (equal power across streams, no water-filling).
"""

from dataclasses import dataclass

import numpy as np

from .numerics import svd

__all__ = ["OptimalFactors", "optimal_factors", "spectral_efficiency"]

# Combiners whose singular-value ratio falls below this are rejected as
# degenerate (the noise covariance would be numerically singular).
_COMBINER_RANK_TOL = 1e-10


@dataclass(frozen=True)
class OptimalFactors:
    """Leading singular-vector blocks of one channel matrix."""

    f_opt: np.ndarray
    w_opt: np.ndarray
    singular_values: np.ndarray


def optimal_factors(h, n_s):
    """Unconstrained rate-maximizing precoder/combiner from the channel SVD.

    Parameters
    ----------
    h : ndarray, shape (n_rx, n_tx)
    n_s : int
        Number of data streams; must not exceed min(n_rx, n_tx).

    Returns
    -------
    OptimalFactors
        ``f_opt`` is the first n_s right singular vectors (n_tx x n_s),
        ``w_opt`` the first n_s left singular vectors (n_rx x n_s), ordered
        by decreasing singular value.
    """
    h = np.asarray(h)
    if h.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {h.shape}")
    if not 1 <= n_s <= min(h.shape):
        raise ValueError(f"n_s={n_s} out of range for channel shape {h.shape}")
    u, s, v = svd(h)
    return OptimalFactors(
        f_opt=v[:, :n_s].copy(), w_opt=u[:, :n_s].copy(), singular_values=s
    )


def spectral_efficiency(h, f, wc, snr, n_s):
    """Achievable rate in bits/s/Hz under Gaussian signaling.

    Evaluates ``log2 det(I + (snr/n_s) * Rn^-1 Wc^H H F F^H H^H Wc)`` with
    ``Rn = Wc^H Wc``, where ``snr`` is the ratio of average received power to
    noise variance.  Whitening by the Cholesky factor ``L`` of ``Rn`` turns
    the determinant into ``prod(1 + snr/n_s * sigma_i^2)`` over the singular
    values ``sigma`` of ``L^-1 Wc^H H F``, so a whole list of SNR points
    costs one factorization and one SVD.

    Parameters
    ----------
    h : ndarray, shape (n_rx, n_tx)
    f : ndarray, shape (n_tx, n_s)
        Composite precoder (digital, or analog times baseband).
    wc : ndarray, shape (n_rx, n_s)
        Composite combiner; must have full column rank.
    snr : float or 1-D array of floats
    n_s : int

    Returns
    -------
    float, or an ndarray with one rate per SNR point for an array ``snr``
    """
    h = np.asarray(h)
    f = np.asarray(f)
    wc = np.asarray(wc)
    snr = np.asarray(snr, dtype=float)
    if snr.ndim > 1:
        raise ValueError(f"snr must be a scalar or a 1-D array, got shape {snr.shape}")
    if (snr < 0).any():
        raise ValueError("snr must be nonnegative")
    if f.shape != (h.shape[1], n_s) or wc.shape != (h.shape[0], n_s):
        raise ValueError(
            f"inconsistent shapes: H {h.shape}, F {f.shape}, Wc {wc.shape}, "
            f"n_s={n_s}"
        )
    for name, a in (("channel", h), ("precoder", f), ("combiner", wc)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} contains non-finite entries")
    sv = np.linalg.svd(wc, compute_uv=False)
    if sv[-1] < _COMBINER_RANK_TOL * sv[0]:
        raise np.linalg.LinAlgError(
            f"combiner is rank deficient (singular-value ratio {sv[-1] / sv[0]:.3e})"
        )
    wc_h = wc.conj().T
    try:
        chol = np.linalg.cholesky(wc_h @ wc)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"noise covariance is not positive definite: {exc}"
        ) from exc
    sigma = np.linalg.svd(np.linalg.solve(chol, wc_h @ h @ f), compute_uv=False)
    rates = np.log1p((snr[..., None] / n_s) * sigma**2).sum(axis=-1) / np.log(2.0)
    return float(rates) if rates.ndim == 0 else rates
