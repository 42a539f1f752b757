"""Reference designs that the tests compare the package's designs against.

Not collected by pytest; the test modules import it from this directory.
"""

import numpy as np


def pe_altmin(targets, start, iters, normalize_power):
    """PE-AltMin, the phase-extraction alternating minimization of Yu, Shen,
    Zhang and Letaief, "Alternating Minimization Algorithms for Hybrid
    Precoding in Millimeter Wave MIMO Systems", IEEE JSTSP 10(3), 2016.

    The digital matrix is ``F_BB = a F_DD`` with a semi-unitary ``F_DD``
    (``F_DD^H F_DD = I``), and each update maximizes the correlation
    ``Re tr(F_opt^H F_RF F_DD)`` over its own variable: with the analog
    matrix ``F_RF`` fixed, ``F_DD`` is the orthogonal Procrustes solution
    ``F_DD = V_1 U^H`` of the thin SVD ``F_opt^H F_RF = U S V_1^H``; with
    ``F_DD`` fixed, the unit-modulus ``F_RF`` is the phase of
    ``F_opt F_DD^H``.  ``iters`` pairs of updates run from the unit-modulus
    ``start``.  With ``normalize_power`` the digital matrix is
    scaled so ``||F_RF F_BB||_F^2 = n_s``; otherwise ``F_BB = F_DD``.

    ``targets`` is (..., n_tx, n_s) and ``start`` (..., n_tx, n_rf); returns
    ``(f_rf, f_bb)``, (..., n_tx, n_rf) and (..., n_rf, n_s).
    """
    targets = np.asarray(targets, dtype=complex)
    f_rf = np.asarray(start, dtype=complex)
    f_dd = _procrustes(targets, f_rf)
    for _ in range(iters):
        f_rf = np.exp(1j * np.angle(targets @ _hermitian(f_dd)))
        f_dd = _procrustes(targets, f_rf)
    if not normalize_power:
        return f_rf, f_dd
    n_s = targets.shape[-1]
    power = np.linalg.norm(f_rf @ f_dd, axis=(-2, -1))
    return f_rf, f_dd * (np.sqrt(n_s) / power)[..., None, None]


def _hermitian(x):
    return x.conj().swapaxes(-1, -2)


def _procrustes(targets, f_rf):
    """The semi-unitary ``F_DD`` maximizing ``Re tr(F_opt^H F_RF F_DD)``."""
    u, _, v_h = np.linalg.svd(_hermitian(targets) @ f_rf, full_matrices=False)
    return _hermitian(u @ v_h)
