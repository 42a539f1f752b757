"""Property tests of the sweep's columnar writer.

A sweep joins its blocks' result columns and walks them in row order,
joining each CSV line from field texts formatted once.  These properties
pin the lines it writes to ``_ROW_FORMAT`` of the reference rows built from
the columns the walk received, in sorted row order, and its ``meta.json``
to a direct group-by over those rows, for any axis order, block size and
failing run.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hybridsim import harness  # noqa: E402
from hybridsim.admm import AdmmConfig  # noqa: E402
from hybridsim.harness import SweepSpec, run_sweep  # noqa: E402
from sweep_rows import (  # noqa: E402
    group_by,
    read_meta,
    reference_lines,
    reference_rows,
    spy_columns,
)

PROPERTY = settings(max_examples=12, deadline=None)

# array sides, subcarriers and the n_rf values each scenario admits at n_s=2
SHAPES = {
    "narrowband_full": (3, 1, [2, 3]),
    "narrowband_partial": (4, 1, [2, 4]),
    "wideband": (3, 2, [2, 3]),
}


@st.composite
def sweeps(draw):
    scenario = draw(st.sampled_from(sorted(SHAPES)))
    side, n_subcarriers, n_rf_values = SHAPES[scenario]
    unique = dict(min_size=1, unique=True)
    spec = SweepSpec(
        scenario=scenario,
        n_s=2,
        n_rf=draw(st.lists(st.sampled_from(n_rf_values), max_size=2, **unique)),
        n_tx_side=side,
        n_rx_side=side,
        n_subcarriers=n_subcarriers,
        snr_db_list=draw(
            st.lists(
                st.sampled_from([-10.0, -2.5, 0.0, 7.0, 20.0]), max_size=4, **unique
            )
        ),
        runs=draw(st.integers(1, 5)),
        base_seed=draw(st.integers(0, 1000)),
        admm=AdmmConfig(rho=n_subcarriers * 2 / 18, max_iters=5, tau=1e-2, seed=0),
    )
    failing = draw(st.none() | st.integers(0, spec.runs - 1))
    return spec, draw(st.integers(1, 3)), failing


@PROPERTY
@given(sweeps())
def test_lines_order_and_aggregates_match_records(case):
    spec, block_runs, failing = case
    real = harness._design_block

    def flaky(spec, factors, n_rf, first_run, draws):
        if failing is not None and 0 <= failing - first_run < len(factors.f_opt):
            raise np.linalg.LinAlgError("synthetic failure")
        return real(spec, factors, n_rf, first_run, draws)

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_BLOCK_RUNS", block_runs)
        mp.setattr(harness, "_design_block", flaky)
        seen = spy_columns(mp)
        out = Path(tmp) / "sweep.csv"
        meta = run_sweep(spec, out)
        lines = out.read_text().splitlines(keepends=True)
        assert read_meta(str(out) + ".meta.json") == meta

    (columns,) = seen
    rows = reference_rows(spec, columns)
    assert len(rows) == 2 * spec.runs * len(spec.n_rf) * len(spec.snr_db_list)
    assert lines == reference_lines(rows)
    assert meta["rows"] == len(rows)
    assert meta["aggregates"] == group_by(rows)
    nan_rows = sum(np.isnan(r.spectral_efficiency) for r in rows)
    assert meta["error_rows"] == nan_rows
    lost = 0 if failing is None else len(spec.n_rf) * len(spec.snr_db_list)
    assert nan_rows == lost
