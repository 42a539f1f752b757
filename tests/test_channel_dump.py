"""Property test of the channel dump: ``load_channel(save_channel(...))``
returns bitwise the matrices, geometry, cluster parameters and seed."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hybridsim.channel import (  # noqa: E402
    ArrayGeometry,
    ClusterParams,
    gen_wideband,
    load_channel,
    save_channel,
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    tx_side=st.integers(1, 4),
    rx_side=st.integers(1, 4),
    spacing=st.floats(0.1, 2.0),
    n_subcarriers=st.integers(1, 5),
    n_clusters=st.integers(1, 6),
    n_rays=st.integers(1, 6),
    spread=st.floats(0.0, 1.0),
)
def test_round_trip_bitwise(
    tmp_path_factory,
    seed,
    tx_side,
    rx_side,
    spacing,
    n_subcarriers,
    n_clusters,
    n_rays,
    spread,
):
    tx = ArrayGeometry(tx_side, spacing)
    rx = ArrayGeometry(rx_side)
    params = ClusterParams(n_clusters, n_rays, spread)
    real = gen_wideband(seed, tx, rx, params, n_subcarriers)
    path = tmp_path_factory.mktemp("dump") / "chan.json"
    save_channel(real, path)
    back = load_channel(path)
    assert len(back.matrices) == n_subcarriers
    for h, h2 in zip(real.matrices, back.matrices):
        assert h2.dtype == h.dtype and h2.shape == h.shape
        assert h2.tobytes() == h.tobytes()
    assert type(back.seed) is int and back.seed == real.seed == seed
    assert back.n_subcarriers == n_subcarriers
    assert back.tx_geometry == tx
    assert back.rx_geometry == rx
    assert back.params == params
