"""Unconstrained digital precoder/combiner and the spectral-efficiency rate.

The digital baseline takes the leading right/left singular vectors of the
channel as precoder/combiner; with orthonormal columns the precoder already
meets the total-power constraint ||F||_F^2 = n_s, so no extra power loading
is applied (equal power across streams, no water-filling).
"""

from dataclasses import dataclass

import numpy as np

from .admm import check_int

__all__ = ["OptimalFactors", "optimal_factors", "spectral_efficiency"]

# Combiners whose singular-value ratio falls below this, or that are zero, are
# rejected as degenerate (the noise covariance Wc^H Wc would be numerically
# singular); the rate whitens by the combiner's SVD and never forms it.
_COMBINER_RANK_TOL = 1e-10

# A channel slice whose ratio sigma_ns / sigma_1 falls below this takes its
# factors from the SVD instead of the Gram eigendecomposition: squaring the
# channel squares its condition number, and the recovered vectors lose about
# eps / ratio^2 of accuracy.
_GRAM_RATIO_TOL = 1e-2


@dataclass(frozen=True)
class OptimalFactors:
    """Leading singular-vector blocks of one channel matrix, or of a stack.

    Every field carries the leading (batch) axes of the channel it came
    from.  ``singular_values`` are the square roots of the eigenvalues of
    the smaller Gram matrix (clipped at 0), or the SVD's singular values on
    a slice that took the fallback of ``optimal_factors``.
    """

    f_opt: np.ndarray
    w_opt: np.ndarray
    singular_values: np.ndarray


def optimal_factors(h, n_s):
    """Unconstrained rate-maximizing precoder/combiner from the channel SVD.

    The singular vectors come from ``eigh`` of the smaller Gram matrix,
    ``H H^H`` when n_rx <= n_tx and ``H^H H`` otherwise; the other side is
    recovered as ``V = H^H U / s`` (or ``U = H V / s``), so each pair meets
    ``H v_i = s_i u_i``.  A slice with ``sigma_ns / sigma_1`` below
    ``_GRAM_RATIO_TOL`` (1e-2) takes all its fields from ``np.linalg.svd``
    instead.  The test and the fallback are per slice, so a slice's factors
    never depend on its neighbours in the stack.

    Parameters
    ----------
    h : ndarray, shape (..., n_rx, n_tx)
        A channel matrix, or a stack of them (say, the K subcarriers of one
        draw); each slice is factored on its own.
    n_s : int
        Number of data streams, an integral number (2.0 is 2); must not
        exceed min(n_rx, n_tx).

    Returns
    -------
    OptimalFactors
        ``f_opt`` is the first n_s right singular vectors (..., n_tx, n_s),
        ``w_opt`` the first n_s left singular vectors (..., n_rx, n_s),
        ordered by decreasing singular value, and ``singular_values`` has
        shape (..., min(n_rx, n_tx)).  Singular values far below
        ``sqrt(eps) * sigma_1`` carry only that absolute accuracy.
    """
    h = np.asarray(h)
    n_s = check_int(n_s, "n_s")
    if h.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of them, got shape {h.shape}")
    if not 1 <= n_s <= min(h.shape[-2:]):
        raise ValueError(f"n_s={n_s} out of range for channel shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("channel contains non-finite entries")
    h_h = h.conj().swapaxes(-1, -2)
    wide = h.shape[-2] <= h.shape[-1]
    lam, vecs = np.linalg.eigh(h @ h_h if wide else h_h @ h)
    # eigh sorts increasingly: reverse into singular-value order
    s = np.sqrt(np.maximum(lam[..., ::-1], 0.0))
    near = np.ascontiguousarray(vecs[..., ::-1][..., :n_s])
    ok = s[..., n_s - 1] > _GRAM_RATIO_TOL * s[..., 0]
    # a slice that falls back never divides by its (maybe zero) values
    scale = np.where(ok[..., None], s[..., :n_s], 1.0)
    far = ((h_h if wide else h) @ near) / scale[..., None, :]
    u, v = (near, far) if wide else (far, near)
    if not ok.all():
        bad = ~ok
        u_bad, s[bad], vh_bad = np.linalg.svd(h[bad], full_matrices=False)
        u[bad] = u_bad[..., :n_s]
        v[bad] = vh_bad[..., :n_s, :].conj().swapaxes(-1, -2)
    return OptimalFactors(f_opt=v, w_opt=u, singular_values=s)


def spectral_efficiency(h, f, wc, snr, n_s):
    """Achievable rate in bits/s/Hz under Gaussian signaling.

    Evaluates ``log2 det(I + (snr/n_s) * Rn^-1 Wc^H H F F^H H^H Wc)`` with
    ``Rn = Wc^H Wc``, where ``snr`` is the ratio of average received power to
    noise variance.  With the thin SVD ``Wc = U S V^H``, ``Rn^-1/2 Wc^H = V U^H``,
    so the determinant is ``prod(1 + snr/n_s * sigma_i^2)`` over the singular
    values ``sigma`` of ``U^H H F``: a list of SNR points costs two SVDs, and
    ``Wc^H Wc``, which squares the combiner's condition number, is never formed.

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
        Number of data streams, an integral number (2.0 is 2), at least 1.

    Returns
    -------
    ndarray of shape (...) for a scalar ``snr`` and (..., n_snr) for an
    array; a single matrix with a scalar ``snr`` gives a float.  A stream
    gain ``snr/n_s * sigma_i^2`` beyond float range makes its rate ``inf``,
    without a warning.

    Raises
    ------
    ValueError
        On ``n_s < 1``, inconsistent shapes, a negative or NaN SNR or
        non-finite entries.
    numpy.linalg.LinAlgError
        When a combiner is rank deficient.
    """
    h = np.asarray(h)
    f = np.asarray(f)
    wc = np.asarray(wc)
    snr = np.asarray(snr, dtype=float)
    n_s = check_int(n_s, "n_s")
    if n_s < 1:
        raise ValueError(f"n_s must be >= 1, got {n_s}")
    if snr.ndim > 1:
        raise ValueError(f"snr must be a scalar or a 1-D array, got shape {snr.shape}")
    if not (snr >= 0).all():
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
    if wc.shape[-2] < n_s:
        raise np.linalg.LinAlgError(
            f"combiner is rank deficient ({wc.shape[-2]} rows for {n_s} streams)"
        )
    u, sv, _ = np.linalg.svd(wc, full_matrices=False)
    top = sv[..., 0]
    deficient = (sv[..., -1] < _COMBINER_RANK_TOL * top) | (top == 0)
    if deficient.any():
        ratio = (sv[..., -1] / np.maximum(top, np.finfo(float).tiny))[deficient].min()
        raise np.linalg.LinAlgError(
            f"combiner is rank deficient (singular-value ratio {ratio:.3e})"
        )
    sigma2 = np.linalg.svd(u.conj().swapaxes(-1, -2) @ h @ f, compute_uv=False) ** 2
    rates = _stream_rates(sigma2, snr, n_s)
    return float(rates) if rates.ndim == 0 else rates


def _stream_rates(sigma2, snr, n_s):
    """``sum_i log2(1 + snr/n_s * sigma2_i)`` over the last axis of ``sigma2``.

    ``sigma2`` holds the squared singular values of the effective channels,
    (..., n_s); ``snr`` is a float or a 1-D array (already checked), which
    gives rates of shape (...) or (..., n_snr).  A stream gain beyond float
    range is ``inf``, and so is its rate, without a warning.
    """
    if snr.ndim:
        # (..., n_snr, n_s): one row of stream gains per SNR point
        sigma2 = sigma2[..., None, :]
    with np.errstate(over="ignore"):
        gains = (snr[..., None] / n_s) * sigma2
    return np.log1p(gains).sum(axis=-1) / np.log(2.0)
