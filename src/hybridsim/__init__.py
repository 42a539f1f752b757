"""Hybrid analog/digital beamforming design for large mmWave arrays.

The package factors a fully digital precoder (or combiner) into an analog
phase-shifter matrix and a small digital matrix by operator splitting,
covering fully-connected, partially-connected (subarray) and OFDM wideband
architectures, plus the clustered channel model and rate evaluation needed
to reproduce standard Monte Carlo comparisons.
"""

from .admm import (
    FULLY_CONNECTED,
    PARTIALLY_CONNECTED,
    AdmmConfig,
    DesignBatch,
    HybridFactors,
    assemble_block_diag,
    design_fully_connected,
    design_partially_connected,
    design_wideband,
    least_squares_fbb,
    project_unit_modulus,
    scale_matched_rho,
    step_frf,
)
from .baseline import OptimalFactors, optimal_factors, spectral_efficiency
from .channel import (
    ArrayGeometry,
    ChannelRealization,
    ClusterAngles,
    ClusterParams,
    array_response,
    gen_narrowband,
    gen_wideband,
    load_channel,
    sample_cluster_angles,
    save_channel,
)
from .harness import SweepSpec, load_config, run_sweep
from .numerics import logdet_eval

__version__ = "0.1.0"

__all__ = [
    "AdmmConfig",
    "ArrayGeometry",
    "ChannelRealization",
    "ClusterAngles",
    "ClusterParams",
    "DesignBatch",
    "FULLY_CONNECTED",
    "HybridFactors",
    "OptimalFactors",
    "PARTIALLY_CONNECTED",
    "SweepSpec",
    "array_response",
    "assemble_block_diag",
    "design_fully_connected",
    "design_partially_connected",
    "design_wideband",
    "gen_narrowband",
    "gen_wideband",
    "least_squares_fbb",
    "load_channel",
    "load_config",
    "logdet_eval",
    "optimal_factors",
    "project_unit_modulus",
    "run_sweep",
    "sample_cluster_angles",
    "save_channel",
    "scale_matched_rho",
    "spectral_efficiency",
    "step_frf",
    "__version__",
]
