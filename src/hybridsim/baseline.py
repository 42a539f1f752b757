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
    """Leading singular-vector blocks of one channel matrix, or of a stack.

    Every field carries the leading (batch) axes of the channel it came
    from.
    """

    f_opt: np.ndarray
    w_opt: np.ndarray
    singular_values: np.ndarray


def optimal_factors(h, n_s):
    """Unconstrained rate-maximizing precoder/combiner from the channel SVD.

    Parameters
    ----------
    h : ndarray, shape (..., n_rx, n_tx)
        A channel matrix, or a stack of them (say, the K subcarriers of one
        draw); each slice is factored on its own.
    n_s : int
        Number of data streams; must not exceed min(n_rx, n_tx).

    Returns
    -------
    OptimalFactors
        ``f_opt`` is the first n_s right singular vectors (..., n_tx, n_s),
        ``w_opt`` the first n_s left singular vectors (..., n_rx, n_s),
        ordered by decreasing singular value, and ``singular_values`` has
        shape (..., min(n_rx, n_tx)).
    """
    h = np.asarray(h)
    if h.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of them, got shape {h.shape}")
    if not 1 <= n_s <= min(h.shape[-2:]):
        raise ValueError(f"n_s={n_s} out of range for channel shape {h.shape}")
    u, s, v = svd(h)
    return OptimalFactors(
        f_opt=v[..., :n_s].copy(), w_opt=u[..., :n_s].copy(), singular_values=s
    )


def spectral_efficiency(h, f, wc, snr, n_s):
    """Achievable rate in bits/s/Hz under Gaussian signaling.

    Evaluates ``log2 det(I + (snr/n_s) * Rn^-1 Wc^H H F F^H H^H Wc)`` with
    ``Rn = Wc^H Wc``, where ``snr`` is the ratio of average received power to
    noise variance.  Whitening by the Cholesky factor ``L`` of ``Rn`` turns
    the determinant into ``prod(1 + snr/n_s * sigma_i^2)`` over the singular
    values ``sigma`` of ``L^-1 Wc^H H F``, so a whole list of SNR points
    costs one factorization and one SVD.

    Leading axes of ``h``, ``f`` and ``wc`` are batch axes, equal on all
    three: a block of runs and subcarriers is rated in one stacked pass,
    each slice bitwise as it would be alone.  Every slice is checked, and
    one bad slice makes the whole call raise.

    Parameters
    ----------
    h : ndarray, shape (..., n_rx, n_tx)
    f : ndarray, shape (..., n_tx, n_s)
        Composite precoder (digital, or analog times baseband).
    wc : ndarray, shape (..., n_rx, n_s)
        Composite combiner; every slice must have full column rank.
    snr : float or 1-D array of floats
    n_s : int

    Returns
    -------
    ndarray of shape (...) for a scalar ``snr`` and (..., n_snr) for an
    array; a single matrix with a scalar ``snr`` gives a float.

    Raises
    ------
    ValueError
        On inconsistent shapes, a negative SNR or non-finite entries.
    numpy.linalg.LinAlgError
        When a combiner is rank deficient or ``Wc^H Wc`` is not positive
        definite.
    """
    h = np.asarray(h)
    f = np.asarray(f)
    wc = np.asarray(wc)
    snr = np.asarray(snr, dtype=float)
    if snr.ndim > 1:
        raise ValueError(f"snr must be a scalar or a 1-D array, got shape {snr.shape}")
    if (snr < 0).any():
        raise ValueError("snr must be nonnegative")
    batch = h.shape[:-2]
    if (
        h.ndim < 2
        or f.shape != (*batch, h.shape[-1], n_s)
        or wc.shape != (*batch, h.shape[-2], n_s)
    ):
        raise ValueError(
            f"inconsistent shapes: H {h.shape}, F {f.shape}, Wc {wc.shape}, "
            f"n_s={n_s}"
        )
    for name, a in (("channel", h), ("precoder", f), ("combiner", wc)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} contains non-finite entries")
    sv = np.linalg.svd(wc, compute_uv=False)
    deficient = sv[..., -1] < _COMBINER_RANK_TOL * sv[..., 0]
    if deficient.any():
        ratio = (sv[..., -1] / sv[..., 0])[deficient].min()
        raise np.linalg.LinAlgError(
            f"combiner is rank deficient (singular-value ratio {ratio:.3e})"
        )
    wc_h = wc.conj().swapaxes(-1, -2)
    try:
        chol = np.linalg.cholesky(wc_h @ wc)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"noise covariance is not positive definite: {exc}"
        ) from exc
    sigma2 = np.linalg.svd(np.linalg.solve(chol, wc_h @ h @ f), compute_uv=False) ** 2
    if snr.ndim:
        # (..., n_snr, n_s): one row of stream gains per SNR point
        sigma2 = sigma2[..., None, :]
    rates = np.log1p((snr[..., None] / n_s) * sigma2).sum(axis=-1) / np.log(2.0)
    return float(rates) if rates.ndim == 0 else rates
