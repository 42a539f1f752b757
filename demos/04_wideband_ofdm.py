"""Wideband design: one shared analog matrix serving all subcarriers of a
frequency-selective channel, per-subcarrier digital matrices."""

import numpy as np

from hybridsim import (
    AdmmConfig,
    ArrayGeometry,
    ClusterParams,
    design_wideband,
    gen_wideband,
    optimal_factors,
    scale_matched_rho,
    spectral_efficiency,
)

N_S = 3
N_RF = 4
K = 16
TX, RX = ArrayGeometry(6), ArrayGeometry(4)
SNR = 1.0

channel = gen_wideband(3, TX, RX, ClusterParams(), K)
factors = optimal_factors(channel, N_S)

# the summed objective has K data terms, so the penalty scales with K too
rho = scale_matched_rho(TX.n_elements, N_RF, N_S, n_subcarriers=K)
cfg = AdmmConfig(rho=rho, seed=0)
pre = design_wideband(factors.f_opt, N_RF, cfg, normalize_power=True)
comb = design_wideband(factors.w_opt, N_RF, cfg, normalize_power=False)
print(f"{K} subcarriers, shared {pre.f_rf.shape[0]}x{pre.f_rf.shape[1]} analog "
      f"matrix, objective {pre.final_objective:.3e} after {pre.iterations} iters")

dig = spectral_efficiency(channel, factors.f_opt, factors.w_opt, SNR, N_S)
hyb = spectral_efficiency(channel, pre.f_rf @ pre.f_bb, comb.f_rf @ comb.f_bb, SNR, N_S)
print("subcarrier rates (digital / hybrid, bits/s/Hz):")
for k in range(0, K, 4):
    print(f"  k={k:2d}: {dig[k]:6.3f} / {hyb[k]:6.3f}")
print(f"mean over subcarriers: digital {np.mean(dig):.3f}, hybrid {np.mean(hyb):.3f} "
      f"({100 * np.mean(hyb) / np.mean(dig):.1f}%)")
