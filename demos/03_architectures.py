"""Fully-connected versus partially-connected analog networks across SNR,
run through the sweep harness (same code path as the CLI)."""

import tempfile
from pathlib import Path

from hybridsim import AdmmConfig, SweepSpec, run_sweep, scale_matched_rho

N_S = 2
N_RF = 2
RUNS = 40
SNRS = [-10.0, 0.0, 10.0]

common = dict(
    n_s=N_S,
    n_rf=N_RF,
    n_tx_side=10,
    n_rx_side=4,
    n_subcarriers=1,
    snr_db_list=SNRS,
    runs=RUNS,
    base_seed=0,
)

full = SweepSpec(
    scenario="narrowband_full",
    admm=AdmmConfig(rho=scale_matched_rho(100, N_RF, N_S), tau=1e-3, seed=0),
    **common,
)
part = SweepSpec(
    scenario="narrowband_partial",
    admm=AdmmConfig(
        rho=scale_matched_rho(100, N_RF, N_S, structure="partially_connected"),
        tau=1e-3,
        seed=0,
    ),
    **common,
)

# mean rate per (method, SNR), from each sweep's meta.json aggregates; the
# two sweeps draw the same channels, so their digital_opt means agree
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    metas = [run_sweep(full, out / "full.csv"), run_sweep(part, out / "partial.csv")]
means = {
    (agg["method"], agg["snr_db"]): agg["mean_spectral_efficiency"]
    for meta in metas
    for agg in meta["aggregates"]
}

print(f"100 tx antennas, {N_RF} chains, {RUNS} runs; rates in bits/s/Hz")
print("  SNR     digital    fully-conn   partially-conn")
for snr in SNRS:
    dig, fc, pc = (
        means[name, snr] for name in ("digital_opt", "hybrid_full", "hybrid_partial")
    )
    print(f"{snr:+5.0f} dB   {dig:7.3f}    {fc:7.3f}      {pc:7.3f}")
