"""Golden outputs of small sweep cuts: a change that claims to leave a sweep's
outputs alone is checked here, not by hand.

Each ``*.json`` config in ``tests/data/golden`` is a cut of one sweep: the
``nb_full``, ``wideband_ofdm`` and ``partial_snr_sweep`` benchmark configs
as ``bench/workloads.py`` writes them at seed 1, sweep 0, and acceptance
config C5's wideband sweep (2 starts), each cut to 4 runs at 2 SNR points.
Every cut is swept at its own ``tau = 1e-3`` and at ``tau = 0``, which runs
every design to the iteration cap; ``nb_full`` is swept once more on 2
workers, and ``wideband_ofdm``'s ``hybridsim trace`` is kept too.  The
outputs sit in ``tests/data/golden/expected``, and
``tests/data/golden/regenerate.py`` rewrites them from the current code.

Compared exactly: the CSV header, the row order and every text field of a
row (scenario, snr_db, n_rf, run_index, seed, method, iterations_used), the
row counts of ``meta.json`` and each aggregate's key and ``n``, and the
trace's iteration numbers.  ``wall_time_ms`` is not stored.  Compared to a
relative tolerance of 1e-9: spectral efficiencies, final objectives,
aggregate means and standard errors, and the trace's objectives and primal
residuals.  The tolerance comes from a measurement: the three benchmark
configs, swept at seed 1, sweep 0, under OpenBLAS's SkylakeX and Haswell
core types on one host, gave identical iteration counts and rates at most
2.3e-11 apart (relative), since some BLAS products round differently on
the two kernels; 1e-9 leaves a margin of about 40.
"""

import csv
import math
from dataclasses import replace
from pathlib import Path

import pytest

from hybridsim.cli import main
from hybridsim.harness import load_config, run_sweep
from sweep_rows import read_meta

GOLDEN = Path(__file__).parent / "data" / "golden"
EXPECTED = GOLDEN / "expected"
CUTS = ("nb_full", "wideband_ofdm", "partial_snr_sweep", "c5_wideband")
# file label -> tau
TAUS = {"1e-3": 1e-3, "0": 0.0}
PARALLEL_CUT = "nb_full"
TRACE_CUT = "wideband_ofdm"

RTOL = 1e-9
_ROW_FLOATS = ("spectral_efficiency", "final_objective")
_AGGREGATE_FLOATS = ("mean_spectral_efficiency", "stderr")


def sweep(cut, tau, out_dir, workers=1):
    """One cut's CSV rows without ``wall_time_ms`` (header first) and the row
    counts and aggregates of its ``meta.json``."""
    spec = load_config(GOLDEN / f"{cut}.json")
    spec = replace(spec, admm=replace(spec.admm, tau=tau))
    out = Path(out_dir) / f"{cut}.csv"
    run_sweep(spec, out, workers=workers)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_time_ms")
    rows = [row[:drop] + row[drop + 1 :] for row in rows]
    meta = read_meta(str(out) + ".meta.json")
    return rows, {key: meta[key] for key in ("rows", "error_rows", "aggregates")}


def trace(cut, out_dir):
    """The rows of ``hybridsim trace`` on one cut's config, header first."""
    out = Path(out_dir) / "trace.csv"
    if main(["trace", "--config", str(GOLDEN / f"{cut}.json"), "--out", str(out)]):
        raise RuntimeError(f"hybridsim trace failed on {cut}")
    with open(out, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def expected_paths(cut, tau_label):
    stem = EXPECTED / f"{cut}.tau{tau_label}"
    return Path(f"{stem}.csv"), Path(f"{stem}.meta.json")


def _close(got, want):
    got, want = float(got), float(want)
    if math.isnan(want):
        return math.isnan(got)
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)


def _row_mismatches(label, got, want):
    header = want[0]
    if got[0] != header:
        return [f"{label}: header {got[0]} != {header}"]
    out = []
    if len(got) != len(want):
        out.append(f"{label}: {len(got) - 1} rows, expected {len(want) - 1}")
    for i, (g, w) in enumerate(zip(got[1:], want[1:]), 1):
        fields = dict(zip(header, w))
        name = (
            f"{label} row {i} (n_rf={fields['n_rf']}, snr_db={fields['snr_db']}, "
            f"run {fields['run_index']}, {fields['method']})"
        )
        for col, gv, wv in zip(header, g, w):
            same = _close(gv, wv) if col in _ROW_FLOATS else gv == wv
            if not same:
                out.append(f"{name}: {col} {gv} != {wv}")
    return out


def _meta_mismatches(label, got, want):
    out = [
        f"{label}: {key} {got[key]} != {want[key]}"
        for key in ("rows", "error_rows")
        if got[key] != want[key]
    ]
    counts = len(got["aggregates"]), len(want["aggregates"])
    if counts[0] != counts[1]:
        out.append(f"{label}: %d aggregates, expected %d" % counts)
    for g, w in zip(got["aggregates"], want["aggregates"]):
        for key, wv in w.items():
            same = _close(g[key], wv) if key in _AGGREGATE_FLOATS else g[key] == wv
            if not same:
                out.append(
                    f"{label} aggregate (n_rf={w['n_rf']}, snr_db={w['snr_db']}, "
                    f"{w['method']}): {key} {g[key]} != {wv}"
                )
    return out


def _check_sweep(label, cut, tau_label, rows, meta):
    csv_path, meta_path = expected_paths(cut, tau_label)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        want_rows = list(csv.reader(fh))
    want_meta = read_meta(meta_path)
    bad = _row_mismatches(label, rows, want_rows)
    bad += _meta_mismatches(label, meta, want_meta)
    assert not bad, "\n".join(bad[:20])


@pytest.mark.parametrize("tau_label", TAUS)
@pytest.mark.parametrize("cut", CUTS)
def test_sweep_matches_golden(tmp_path, cut, tau_label):
    rows, meta = sweep(cut, TAUS[tau_label], tmp_path)
    _check_sweep(f"{cut} tau={tau_label}", cut, tau_label, rows, meta)


def test_two_worker_sweep_matches_golden(tmp_path):
    rows, meta = sweep(PARALLEL_CUT, TAUS["1e-3"], tmp_path, workers=2)
    _check_sweep(f"{PARALLEL_CUT} tau=1e-3 workers=2", PARALLEL_CUT, "1e-3", rows, meta)


def test_trace_matches_golden(tmp_path):
    got = trace(TRACE_CUT, tmp_path)
    with open(EXPECTED / f"{TRACE_CUT}.trace.csv", newline="", encoding="utf-8") as fh:
        want = list(csv.reader(fh))
    assert got[0] == want[0]
    assert len(got) == len(want)
    bad = [
        f"{TRACE_CUT} trace row {i}: {g} != {w}"
        for i, (g, w) in enumerate(zip(got[1:], want[1:]), 1)
        if g[0] != w[0] or not all(map(_close, g[1:], w[1:]))
    ]
    assert not bad, "\n".join(bad[:20])
