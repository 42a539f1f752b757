"""Finite-resolution phase shifters: rate cost of quantizing the analog
entries to 1..4 bits versus continuous phases."""

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
N_RF = 4
TX, RX = ArrayGeometry(8), ArrayGeometry(4)
SNR = 1.0
RUNS = 10

rho = scale_matched_rho(TX.n_elements, N_RF, N_S)
rows = {bits: [] for bits in (1, 2, 3, 4, None)}
digital = []
for run in range(RUNS):
    h = gen_narrowband(100 + run, TX, RX, ClusterParams())
    fo = optimal_factors(h, N_S)
    digital.append(spectral_efficiency(h, fo.f_opt, fo.w_opt, SNR, N_S))
    for bits in rows:
        cfg = AdmmConfig(rho=rho, phase_bits=bits, seed=run)
        pre = design_fully_connected(fo.f_opt, N_RF, cfg, normalize_power=True)
        comb = design_fully_connected(fo.w_opt, N_RF, cfg, normalize_power=False)
        rows[bits].append(
            spectral_efficiency(
                h, pre.f_rf @ pre.f_bb, comb.f_rf @ comb.f_bb, SNR, N_S
            )
        )

base = np.mean(digital)
print(f"digital baseline {base:.3f} bits/s/Hz; {RUNS} draws at 0 dB")
print("phase resolution   rate     fraction of digital")
for bits in (1, 2, 3, 4, None):
    m = np.mean(rows[bits])
    label = "continuous" if bits is None else f"{bits} bit"
    print(f"  {label:<12}   {m:6.3f}       {100 * m / base:5.1f}%")
