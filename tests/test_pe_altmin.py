"""ADMM against a published competitor: PE-AltMin (``oracles.pe_altmin``).

The fully digital design is an upper bound that no hybrid design reaches;
PE-AltMin is a hybrid design from the literature, so ADMM falling below it
would show a fault that the digital bound cannot.
"""

import numpy as np

from hybridsim.admm import AdmmConfig, design_fully_connected, scale_matched_rho
from hybridsim.baseline import optimal_factors, spectral_efficiency
from hybridsim.channel import ArrayGeometry, ClusterParams, gen_narrowband
from oracles import pe_altmin


def unit_phases(rng, *shape):
    return np.exp(2j * np.pi * rng.random(shape))


def test_pe_altmin_updates_raise_the_correlation():
    # each half-step maximizes Re tr(F_opt^H F_RF F_DD) over its variable,
    # so the correlation of the unnormalized pair never falls; the pair is
    # unit modulus and semi-unitary, and normalization meets the power target
    rng = np.random.default_rng(0)
    shape = (4, 32, 2)
    q, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    start = unit_phases(rng, 4, 32, 3)
    previous = -np.inf
    for iters in range(8):
        f_rf, f_dd = pe_altmin(q, start, iters, normalize_power=False)
        assert np.max(np.abs(np.abs(f_rf) - 1.0)) < 1e-14
        gram = f_dd.conj().swapaxes(-1, -2) @ f_dd
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12
        product = q.conj().swapaxes(-1, -2) @ f_rf @ f_dd
        correlation = np.trace(product, axis1=-2, axis2=-1).real
        assert np.all(correlation >= previous - 1e-12 * np.abs(correlation))
        previous = correlation
    f_rf, f_bb = pe_altmin(q, start, 7, normalize_power=True)
    power = np.linalg.norm(f_rf @ f_bb, axis=(-2, -1)) ** 2
    assert np.max(np.abs(power - 2.0)) < 1e-12


def test_admm_rate_is_not_below_pe_altmin_on_the_c2_shape():
    # criterion 02's shape: 64x16 (8x8 and 4x4 planar arrays), n_s = 2,
    # n_rf = 4, at 0 dB, with its ADMM settings shared by both sides
    runs, n_s, n_rf = 50, 2, 4
    tx, rx = ArrayGeometry(8), ArrayGeometry(4)
    h = np.stack([gen_narrowband(s, tx, rx, ClusterParams()) for s in range(runs)])
    factors = optimal_factors(h, n_s)
    rho = scale_matched_rho(64, n_rf, n_s)
    cfg = AdmmConfig(rho=rho, max_iters=30, tau=1e-3, seed=0)
    pre = design_fully_connected(factors.f_opt, n_rf, cfg, normalize_power=True)
    comb = design_fully_connected(factors.w_opt, n_rf, cfg, normalize_power=False)
    admm = spectral_efficiency(
        h,
        np.stack([d.f_rf @ d.f_bb for d in pre]),
        np.stack([d.f_rf @ d.f_bb for d in comb]),
        1.0,
        n_s,
    )
    rng = np.random.default_rng(1)
    f_rf, f_bb = pe_altmin(factors.f_opt, unit_phases(rng, runs, 64, n_rf), 100, True)
    w_rf, w_bb = pe_altmin(factors.w_opt, unit_phases(rng, runs, 16, n_rf), 100, False)
    reference = spectral_efficiency(h, f_rf @ f_bb, w_rf @ w_bb, 1.0, n_s)
    diff = admm - reference
    stderr = diff.std(ddof=1) / np.sqrt(runs)
    print(
        f"ADMM {admm.mean():.3f}, PE-AltMin {reference.mean():.3f} bits/s/Hz, "
        f"paired difference {diff.mean():.3f} (se {stderr:.3f})"
    )
    assert diff.mean() >= -2.0 * stderr
