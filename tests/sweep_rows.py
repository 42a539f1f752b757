"""Sweep rows as tests read them: parsed from the CSV a sweep writes, or built
from the result columns the sweep walked into that CSV.

``read_sweep`` gives the typed rows of a sweep CSV, the sweep's one output,
and ``read_meta`` its ``meta.json``, parsed as strict JSON.
``spy_columns`` records the ``_Columns`` each ``run_sweep`` hands
``harness._rows``, and ``reference_rows`` builds the rows of those columns
with their exact values, in row order, by plain loops: the reference that
the CSV lines (``_ROW_FORMAT`` of each row) and the ``meta.json``
aggregates (``group_by``) are checked against.
"""

import csv
import json
from collections import namedtuple

import numpy as np

from hybridsim import harness

Row = namedtuple("Row", harness._CSV_FIELDS)

# the type of each non-text field, as the sweep formats it
_TYPES = {
    "snr_db": float,
    "n_rf": int,
    "run_index": int,
    "seed": int,
    "spectral_efficiency": float,
    "final_objective": float,
    "iterations_used": int,
    "wall_time_ms": float,
}


def read_sweep(path):
    """The rows of a finished sweep's CSV, in file order, as typed ``Row``s."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *body = csv.reader(fh)
    assert header == harness._CSV_FIELDS
    types = [_TYPES.get(name, str) for name in header]
    return [Row(*(t(text) for t, text in zip(types, line))) for line in body]


def _reject_constant(name):
    raise ValueError(f"meta.json is not strict JSON: it holds {name}")


def read_meta(path):
    """The document of a ``meta.json``; a ``NaN``, ``Infinity`` or
    ``-Infinity`` in it is a ValueError."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def spy_columns(monkeypatch):
    """A list that gains the columns of each sweep run under ``monkeypatch``."""
    seen = []
    real = harness._rows

    def spied(spec, columns):
        seen.append(columns)
        return real(spec, columns)

    monkeypatch.setattr(harness, "_rows", spied)
    return seen


def reference_rows(spec, columns):
    """The rows of ``columns`` with their exact values, sorted by (n_rf,
    snr_db, run_index, method)."""
    rows = []
    for k, n_rf in enumerate(spec.n_rf):
        for j, snr_db in enumerate(spec.snr_db_list):
            for i in range(len(columns.digital_se)):
                point = (spec.scenario, snr_db, n_rf, i, spec.base_seed + i)
                rows.append(
                    Row(
                        *point,
                        "digital_opt",
                        float(columns.digital_se[i, j]),
                        0.0,
                        0,
                        float(columns.digital_ms[i]),
                    )
                )
                rows.append(
                    Row(
                        *point,
                        harness._HYBRID_METHOD[spec.scenario],
                        float(columns.hybrid_se[i, k, j]),
                        float(columns.final_objective[i, k]),
                        int(columns.iterations[i, k]),
                        float(columns.design_ms[i, k]),
                    )
                )
    return sorted(rows, key=lambda r: (r.n_rf, r.snr_db, r.run_index, r.method))


def reference_lines(rows):
    """The CSV lines of ``rows``, header first."""
    return [",".join(harness._CSV_FIELDS) + "\n"] + [
        harness._ROW_FORMAT % row for row in rows
    ]


def group_by(rows):
    """Per-point aggregates of ``rows``' finite rates, as ``meta.json`` holds
    them."""
    groups = {}
    for row in rows:
        if np.isfinite(row.spectral_efficiency):
            groups.setdefault(
                (row.scenario, row.snr_db, row.n_rf, row.method), []
            ).append(row.spectral_efficiency)
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
