"""Rate versus RF chain count: how many chains until the hybrid design
matches fully digital.  Averages a few channel draws per point."""

import numpy as np

from hybridsim import (
    AdmmConfig,
    ArrayGeometry,
    ClusterParams,
    design_fully_connected,
    gen_narrowband,
    optimal_factors,
    scale_matched_rho,
    spectral_efficiency,
)

N_S = 2
TX, RX = ArrayGeometry(8), ArrayGeometry(4)
SNR = 1.0  # 0 dB
RUNS = 8

rates = {}
digital = []
for run in range(RUNS):
    h = gen_narrowband(run, TX, RX, ClusterParams())
    fo = optimal_factors(h, N_S)
    digital.append(spectral_efficiency(h, fo.f_opt, fo.w_opt, SNR, N_S))
    for n_rf in (2, 3, 4, 6, 8):
        cfg = AdmmConfig(
            rho=scale_matched_rho(TX.n_elements, n_rf, N_S), seed=run
        )
        pre = design_fully_connected(fo.f_opt, n_rf, cfg, normalize_power=True)
        comb = design_fully_connected(fo.w_opt, n_rf, cfg, normalize_power=False)
        se = spectral_efficiency(
            h, pre.f_rf @ pre.f_bb, comb.f_rf @ comb.f_bb, SNR, N_S
        )
        rates.setdefault(n_rf, []).append(se)

base = np.mean(digital)
print(f"digital baseline: {base:.3f} bits/s/Hz ({RUNS} draws, 0 dB)")
print("chains  rate      fraction of digital")
for n_rf, vals in sorted(rates.items()):
    m = np.mean(vals)
    print(f"  {n_rf}     {m:6.3f}    {100 * m / base:5.1f}%")
