"""Design a hybrid precoder/combiner for one narrowband channel draw and
compare its rate against the unconstrained digital baseline."""

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
TX = ArrayGeometry(8)   # 64-element square array
RX = ArrayGeometry(4)   # 16 elements
SNR_DB = 0.0
SEED = 7

h = gen_narrowband(SEED, TX, RX, ClusterParams())
print(f"channel: {h.shape[0]}x{h.shape[1]}, ||H||_F^2 = {np.linalg.norm(h)**2:.1f}")

fo = optimal_factors(h, N_S)
snr = 10 ** (SNR_DB / 10)
se_digital = spectral_efficiency(h, fo.f_opt, fo.w_opt, snr, N_S)
print(f"digital baseline: {se_digital:.3f} bits/s/Hz at {SNR_DB:.0f} dB")

# penalty on the scale of the per-entry data curvature; the default of 1.0
# is far too stiff for a 64x4 analog matrix
cfg = AdmmConfig(rho=scale_matched_rho(TX.n_elements, N_RF, N_S), seed=0)
pre = design_fully_connected(fo.f_opt, N_RF, cfg, normalize_power=True)
comb = design_fully_connected(fo.w_opt, N_RF, cfg, normalize_power=False)

print(f"precoder factorization: {pre.iterations} iterations, "
      f"objective {pre.final_objective:.2e}")
for it, obj, res in pre.trace[:: max(1, len(pre.trace) // 6)]:
    print(f"  iter {it:2d}  objective {obj:.4e}  primal residual {res:.2e}")

se_hybrid = spectral_efficiency(
    h, pre.f_rf @ pre.f_bb, comb.f_rf @ comb.f_bb, snr, N_S
)
print(f"hybrid ({N_RF} RF chains): {se_hybrid:.3f} bits/s/Hz "
      f"({100 * se_hybrid / se_digital:.1f}% of digital)")
