"""Rewrite the golden sweep outputs that ``tests/test_golden.py`` compares.

Run from the repository root::

    PYTHONPATH=src python tests/data/golden/regenerate.py

It sweeps each cut config beside this script at every tau of the test and
writes ``expected/<cut>.tau<tau>.csv`` (the CSV without ``wall_time_ms``),
``expected/<cut>.tau<tau>.meta.json`` (row counts and aggregates) and
``expected/<trace cut>.trace.csv``.  Rewriting them changes a check: a
change that does so says which rows moved, by how much and why.
"""

import csv
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

import test_golden as golden  # noqa: E402


def _write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def main():
    golden.EXPECTED.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for cut in golden.CUTS:
            for label, tau in golden.TAUS.items():
                rows, meta = golden.sweep(cut, tau, scratch)
                csv_path, meta_path = golden.expected_paths(cut, label)
                _write_rows(csv_path, rows)
                with open(meta_path, "w", encoding="utf-8") as fh:
                    json.dump(meta, fh, indent=2)
                    fh.write("\n")
        rows = golden.trace(golden.TRACE_CUT, scratch)
        _write_rows(golden.EXPECTED / f"{golden.TRACE_CUT}.trace.csv", rows)


if __name__ == "__main__":
    main()
