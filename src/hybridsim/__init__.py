"""Hybrid analog/digital beamforming design for large mmWave arrays.

The package factors a fully digital precoder (or combiner) into an analog
phase-shifter matrix and a small digital matrix by operator splitting,
covering fully-connected, partially-connected (subarray) and OFDM wideband
architectures, plus the clustered channel model and rate evaluation needed
to reproduce standard Monte Carlo comparisons.

The package exports what each module lists in its ``__all__``.
"""

from . import admm, baseline, channel, harness, numerics
from .admm import *  # noqa: F403
from .baseline import *  # noqa: F403
from .channel import *  # noqa: F403
from .harness import *  # noqa: F403
from .numerics import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *admm.__all__,
    *baseline.__all__,
    *channel.__all__,
    *harness.__all__,
    *numerics.__all__,
    "__version__",
]
