"""Sweep workloads of the benchmark and the configs generated for them.

Each workload is a ``hybridsim run`` config that stresses a different part
of the program.  The benchmark derives every input from its ``--seed``: a
sweep process ``c`` of a run gets its own block of channel seeds, so the
processes of one run draw different channels and the same seed always
gives the same configs.

``rho`` values are ``scale_matched_rho`` of each shape, written out here so
that the generated configs do not depend on the program under test.
"""

from dataclasses import dataclass

# Channel seeds of run ``seed`` start at ``seed * SEED_STRIDE``; a run makes
# far fewer than SEED_STRIDE Monte Carlo runs, so seeds never share draws.
SEED_STRIDE = 1_000_000


@dataclass(frozen=True)
class Workload:
    """A sweep config template.

    ``runs`` Monte Carlo runs make one sweep of about two seconds, short
    enough that a run makes many sweeps.  An untraced run makes at least
    ``window`` sweeps, and ``se_gap_pct`` pools them: enough runs that its
    spread across seeds stays well inside its bound.
    """

    name: str
    why: str
    runs: int
    window: int
    spec: dict

    def config(self, seed, sweep, runs=None):
        """The config of sweep process ``sweep`` of a run with ``seed``."""
        runs = self.runs if runs is None else runs
        doc = dict(self.spec)
        doc["runs"] = runs
        doc["base_seed"] = seed * SEED_STRIDE + sweep * runs
        doc["admm"] = dict(self.spec["admm"], seed=seed * 1000 + sweep)
        return doc

    def points(self):
        """Sweep points as (n_rf, snr_db) pairs."""
        return [
            (n_rf, float(snr)) for n_rf in self.spec["n_rf"]
            for snr in self.spec["snr_db_list"]
        ]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="nb_full",
            why=(
                "narrowband fully connected 64x16: many tiny dense designs "
                "that stop early, half the time in solve_hpd call overhead; "
                "the kernel and batching target"
            ),
            runs=100,
            window=4,
            spec={
                "scenario": "narrowband_full",
                "n_s": 2,
                "n_rf": [2, 4],
                "n_tx_side": 8,
                "n_rx_side": 4,
                "n_subcarriers": 1,
                "snr_db_list": [-10.0, 0.0, 10.0],
                # scale_matched_rho(64, 4, 2)
                "admm": {"rho": 2 / (64 * 4), "max_iters": 30, "tau": 1e-3},
                "multistart": 1,
            },
        ),
        Workload(
            name="wideband_ofdm",
            why=(
                "wideband 36x16, K=16 subcarriers, 2 starts: nearly all designs "
                "run to the iteration cap; per-subcarrier least_squares_fbb "
                "refactors of one Gram matrix dominate"
            ),
            runs=10,
            window=12,
            spec={
                "scenario": "wideband",
                "n_s": 3,
                "n_rf": [4],
                "n_tx_side": 6,
                "n_rx_side": 4,
                "n_subcarriers": 16,
                "snr_db_list": [0.0],
                # scale_matched_rho(36, 4, 3, n_subcarriers=16)
                "admm": {"rho": 16 * 3 / (36 * 4), "max_iters": 30, "tau": 1e-3},
                "multistart": 2,
            },
        ),
        Workload(
            name="partial_snr_sweep",
            why=(
                "partially connected 64x16, 3-bit phases, 21 SNR points: no "
                "solve_hpd calls; rate evaluation and row handling dominate; "
                "bypasses the dense kernels"
            ),
            runs=100,
            window=4,
            spec={
                "scenario": "narrowband_partial",
                "n_s": 2,
                "n_rf": [2, 4],
                "n_tx_side": 8,
                "n_rx_side": 4,
                "n_subcarriers": 1,
                "snr_db_list": [float(db) for db in range(-20, 21, 2)],
                # scale_matched_rho(64, 4, 2, structure=PARTIALLY_CONNECTED)
                "admm": {
                    "rho": 2 / 64,
                    "max_iters": 30,
                    "tau": 1e-3,
                    "phase_bits": 3,
                },
                "multistart": 1,
            },
        ),
    ]
}
