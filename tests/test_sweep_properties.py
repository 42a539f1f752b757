"""Property tests of the sweep's columnar writer.

A sweep joins its blocks' result columns and walks them in row order,
joining each CSV line from field texts formatted once.  These properties
pin that walk to the one-row reference ``_format_row``, to the sorted row
order, and to a direct group-by over the returned records, for any axis
order, block size and failing run.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hybridsim import harness  # noqa: E402
from hybridsim.admm import AdmmConfig  # noqa: E402
from hybridsim.harness import SweepSpec, run_sweep  # noqa: E402

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


def group_by(records):
    """Per-point aggregates over the records, as ``meta.json`` holds them."""
    groups = {}
    for rec in records:
        if not math.isnan(rec.spectral_efficiency):
            groups.setdefault(
                (rec.scenario, rec.snr_db, rec.n_rf, rec.method), []
            ).append(rec.spectral_efficiency)
    out = []
    for (scenario, snr_db, n_rf, method), vals in sorted(groups.items()):
        arr = np.asarray(vals)
        stderr = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
        out.append(
            {
                "scenario": scenario,
                "snr_db": snr_db,
                "n_rf": n_rf,
                "method": method,
                "mean_spectral_efficiency": float(arr.mean()),
                "stderr": stderr,
                "n": int(arr.size),
            }
        )
    return out


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
        out = Path(tmp) / "sweep.csv"
        records = run_sweep(spec, out)
        lines = out.read_text().splitlines(keepends=True)
        with open(str(out) + ".meta.json") as fh:
            meta = json.load(fh)

    assert len(records) == 2 * spec.runs * len(spec.n_rf) * len(spec.snr_db_list)
    assert lines[1:] == [harness._format_row(rec) for rec in records]
    keys = [(r.n_rf, r.snr_db, r.run_index, r.method) for r in records]
    assert keys == sorted(keys)
    assert meta["rows"] == len(records)
    assert meta["aggregates"] == group_by(records)
    nan_rows = sum(math.isnan(r.spectral_efficiency) for r in records)
    assert meta["error_rows"] == nan_rows
    lost = 0 if failing is None else len(spec.n_rf) * len(spec.snr_db_list)
    assert nan_rows == lost
