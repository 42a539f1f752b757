"""Monte Carlo sweeps: channel draws -> designs -> rate evaluation -> CSV.

Each run is an independent work item seeded as ``base_seed + run_index``.
The sweep's unit of work is a block of up to ``_BLOCK_RUNS`` consecutive
run indices: a block draws the channel of each of its runs into one
(runs, K, n_rx, n_tx) stack and takes each run's SVD factors over its K
subcarriers in one call, then designs all runs in one batched designer call
per (n_rf, precoder or combiner), with runs x multistarts as the batch
axis.  Rates are taken on the block's stacks: one ``spectral_efficiency``
call for the digital rates of the block, and one per n_rf for its hybrid
rates; each run's rate is the mean over its subcarriers.  Design call s of
run r uses ADMM seed ``admm.seed + r * multistart + s``, so a block's
instances have contiguous seeds, and the start with the lowest final
factorization objective is kept (the first start wins a tie).

Determinism: a batched design returns, for every instance, bitwise the
design that instance gets alone.  Rows are therefore the same for any block
layout and any number of workers; row order is normalized by sorting, and
wall-clock timings are the only nondeterministic output.  If the batched
design or the stacked hybrid rating of a block at one n_rf fails, both are
done again one run at a time (``_hybrid_block``), so only a failing run gets
NaN hybrid rows.  Each CSV row is written from one format string.
"""

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .admm import (
    AdmmConfig,
    check_finite,
    check_int,
    design_fully_connected,
    design_partially_connected,
    design_wideband,
)
from .baseline import optimal_factors, spectral_efficiency
from .channel import ArrayGeometry, ClusterParams, gen_wideband

__all__ = [
    "SCENARIOS",
    "SweepSpec",
    "ResultRecord",
    "load_config",
    "run_single",
    "run_sweep",
]

SCENARIOS = ("narrowband_full", "narrowband_partial", "wideband")

_HYBRID_METHOD = {
    "narrowband_full": "hybrid_full",
    "narrowband_partial": "hybrid_partial",
    "wideband": "hybrid_wideband",
}

# SweepSpec fields that must hold integers
_INT_FIELDS = (
    "n_s",
    "n_tx_side",
    "n_rx_side",
    "n_subcarriers",
    "runs",
    "base_seed",
    "multistart",
)

# Runs per block: one batched design call covers this many runs times the
# multistart count.  The batching gain levels off near 32, which also caps
# the memory a block holds.
_BLOCK_RUNS = 32

_CSV_FIELDS = [
    "scenario",
    "snr_db",
    "n_rf",
    "run_index",
    "seed",
    "method",
    "spectral_efficiency",
    "final_objective",
    "iterations_used",
    "wall_time_ms",
]

# One CSV line, field by field as in _CSV_FIELDS
_ROW_FORMAT = "%s,%.12e,%d,%d,%d,%s,%.12e,%.12e,%d,%.3f\n"


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one Monte Carlo sweep.

    ``n_rf`` may be a single value or a list (sweep axis); ``n_subcarriers``
    must be 1 for the narrowband scenarios.  Channel parameters are the
    standard clustered-model defaults (8 clusters, 10 rays, 10 degree
    spread, half-wavelength square arrays).
    """

    scenario: str
    n_s: int
    n_rf: tuple
    n_tx_side: int
    n_rx_side: int
    n_subcarriers: int
    snr_db_list: tuple
    runs: int
    base_seed: int
    admm: AdmmConfig
    multistart: int = 1

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}"
            )
        for name in _INT_FIELDS:
            object.__setattr__(self, name, check_int(getattr(self, name), name))
        object.__setattr__(
            self, "n_rf", tuple(check_int(v, "n_rf") for v in _as_tuple(self.n_rf))
        )
        object.__setattr__(
            self,
            "snr_db_list",
            tuple(
                float(check_finite(s, "snr_db"))
                for s in _as_tuple(self.snr_db_list)
            ),
        )
        for axis in ("snr_db_list", "n_rf"):
            values = getattr(self, axis)
            if len(values) == 0:
                raise ValueError(f"empty sweep axis: {axis} has no entries")
            # a repeated value would pool each run twice into one sweep point
            if len(set(values)) < len(values):
                raise ValueError(f"duplicate values in sweep axis {axis}: {values}")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.multistart < 1:
            raise ValueError("multistart must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be nonnegative")
        if self.n_s < 1:
            raise ValueError("n_s must be >= 1")
        if self.n_tx_side < 1 or self.n_rx_side < 1:
            raise ValueError("array sides must be >= 1")
        n_tx = self.n_tx_side**2
        n_rx = self.n_rx_side**2
        for n_rf in self.n_rf:
            if not self.n_s <= n_rf <= min(n_tx, n_rx):
                raise ValueError(
                    f"need n_s <= n_rf <= min(n_tx, n_rx); got n_rf={n_rf} with "
                    f"n_s={self.n_s}, n_tx={n_tx}, n_rx={n_rx}"
                )
            if self.scenario == "narrowband_partial" and (
                n_tx % n_rf != 0 or n_rx % n_rf != 0
            ):
                raise ValueError(
                    f"partially-connected subarrays must divide both arrays: "
                    f"n_rf={n_rf}, n_tx={n_tx}, n_rx={n_rx}"
                )
        if self.scenario == "wideband":
            if self.n_subcarriers < 1:
                raise ValueError("n_subcarriers must be >= 1")
        elif self.n_subcarriers != 1:
            raise ValueError("narrowband scenarios require n_subcarriers = 1")

    @property
    def n_tx(self):
        return self.n_tx_side**2

    @property
    def n_rx(self):
        return self.n_rx_side**2

    @classmethod
    def from_dict(cls, doc):
        """Build a spec from a JSON-style mapping; unknown keys are errors.

        The document and its ``"admm"`` entry must be objects (dicts).
        """
        if not isinstance(doc, dict):
            raise ValueError(
                f"config must be a JSON object, got {type(doc).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        required = {f.name for f in fields(cls) if f.default is MISSING}
        missing = required - set(doc) - {"admm"}
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        admm_doc = doc.get("admm", {})
        if not isinstance(admm_doc, dict):
            raise ValueError(
                f"admm must be a JSON object, got {type(admm_doc).__name__}"
            )
        admm_unknown = set(admm_doc) - {f.name for f in fields(AdmmConfig)}
        if admm_unknown:
            raise ValueError(f"unknown admm config keys: {sorted(admm_unknown)}")
        return cls(**{**doc, "admm": AdmmConfig(**admm_doc)})

    def to_dict(self):
        doc = asdict(self)
        doc["n_rf"] = list(self.n_rf)
        doc["snr_db_list"] = list(self.snr_db_list)
        return doc


def _as_tuple(value):
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


@dataclass(frozen=True, init=False, repr=False, eq=False)
class ResultRecord(NamedTuple):
    """One CSV row: the rate of one method at one sweep point in one run.

    ``final_objective`` and ``iterations_used`` describe the precoder-side
    design (zero for the digital baseline); failed designs are recorded
    with NaN rate so the sweep continues.  ``wall_time_ms`` is the run's
    SVD time on digital rows; on hybrid rows it is the design time of the
    run's block at that n_rf (precoders and combiners, all starts) divided
    by the runs of the block, or, where the block fell back to one run at a
    time, the run's own redesign time.

    A sweep makes one record per row, so a record is a tuple: cheap to
    build and formatted as a row in one ``%`` operation.  The dataclass
    decorator adds no ``__init__``, ``__repr__`` or ``__eq__``; it makes
    ``dataclasses.replace``, ``asdict`` and ``fields`` work on records and
    raises ``FrozenInstanceError`` on assignment.
    """

    scenario: str
    snr_db: float
    n_rf: int
    run_index: int
    seed: int
    method: str
    spectral_efficiency: float
    final_objective: float
    iterations_used: int
    wall_time_ms: float


def load_config(path):
    """Read a SweepSpec from a JSON config file."""
    with open(path, "r", encoding="utf-8") as fh:
        return SweepSpec.from_dict(json.load(fh))


def run_single(spec, run_index):
    """Execute one Monte Carlo run: one channel draw, all sweep points.

    This is a block of one run.  Returns one ResultRecord per (snr, n_rf,
    method) combination.  Rates for the wideband scenario are averaged over
    subcarriers.
    """
    return _run_block(spec, run_index, run_index + 1)


def _run_block(spec, first_run, stop_run):
    """Execute runs ``first_run .. stop_run - 1`` with batched designs."""
    snrs = np.array([10.0 ** (db / 10.0) for db in spec.snr_db_list])
    n_runs = stop_run - first_run
    channels = np.empty(
        (n_runs, spec.n_subcarriers, spec.n_rx, spec.n_tx), dtype=complex
    )
    factors, digital_ms = [], []
    for offset in range(n_runs):
        channels[offset] = gen_wideband(
            spec.base_seed + first_run + offset,
            ArrayGeometry(spec.n_tx_side),
            ArrayGeometry(spec.n_rx_side),
            ClusterParams(),
            spec.n_subcarriers,
        ).matrices
        t0 = time.perf_counter()
        factors.append(optimal_factors(channels[offset], spec.n_s))
        digital_ms.append(1e3 * (time.perf_counter() - t0))
    digital_se = _mean_rates(
        spec,
        channels,
        np.stack([fo.f_opt for fo in factors]),
        np.stack([fo.w_opt for fo in factors]),
        snrs,
    )

    scenario = spec.scenario
    method = _HYBRID_METHOD[scenario]
    records = []
    for n_rf in spec.n_rf:
        hybrid = _hybrid_block(spec, channels, factors, n_rf, first_run, snrs)
        for offset, (hybrid_se, final_obj, iters, design_ms) in enumerate(hybrid):
            run_index = first_run + offset
            seed = spec.base_seed + run_index
            dig_ms = digital_ms[offset]
            for snr_db, dig_se, hyb_se in zip(
                spec.snr_db_list, digital_se[offset], hybrid_se
            ):
                records.append(
                    ResultRecord(
                        scenario, snr_db, n_rf, run_index, seed,
                        "digital_opt", dig_se, 0.0, 0, dig_ms,
                    )
                )
                records.append(
                    ResultRecord(
                        scenario, snr_db, n_rf, run_index, seed,
                        method, hyb_se, final_obj, iters, design_ms,
                    )
                )
    return records


def _mean_rates(spec, channels, precoders, combiners, snrs):
    """Per-SNR rates of each run averaged over subcarriers, as lists.

    ``channels`` is the (runs, K, n_rx, n_tx) stack of a block and the
    composites the matching (runs, K, n, n_s) stacks: one stacked rate call.
    """
    rates = spectral_efficiency(channels, precoders, combiners, snrs, spec.n_s)
    return rates.mean(axis=1).tolist()


def _hybrid_block(spec, channels, factors, n_rf, first_run, snrs):
    """Design and rate every run of a block at ``n_rf``.

    Returns one ``(rates, final_objective, iterations, design_ms)`` per run:
    its per-SNR hybrid rates, its precoder's objective and iterations, and
    the block's design time per run.  The block is designed in one
    ``_design_block`` call and rated in one stacked call.  If either raises,
    the block is done again one run at a time, each run redesigned to the
    same factors with its own design time, and a run that still fails gets
    NaN rates, a NaN objective and 0 iterations.
    """
    t0 = time.perf_counter()
    try:
        pairs = _design_block(spec, factors, n_rf, first_run)
        design_ms = 1e3 * (time.perf_counter() - t0) / len(factors)
        # composites per subcarrier; wideband f_bb is a (K, n_rf, n_s) stack
        shape = (len(pairs), spec.n_subcarriers, -1, spec.n_s)
        precoders = np.reshape([pre.f_rf @ pre.f_bb for pre, _ in pairs], shape)
        combiners = np.reshape([comb.f_rf @ comb.f_bb for _, comb in pairs], shape)
        rates = _mean_rates(spec, channels, precoders, combiners, snrs)
    except (np.linalg.LinAlgError, ValueError):
        if len(factors) == 1:
            failed_ms = 1e3 * (time.perf_counter() - t0)
            return [([math.nan] * len(snrs), math.nan, 0, failed_ms)]
        return [
            _hybrid_block(
                spec, channels[i : i + 1], [run_factors], n_rf, first_run + i, snrs
            )[0]
            for i, run_factors in enumerate(factors)
        ]
    return [
        (run_rates, pre.final_objective, pre.iterations, design_ms)
        for run_rates, (pre, _) in zip(rates, pairs)
    ]


def scenario_design(spec, factors, side):
    """The designer of ``spec.scenario`` and the target it factors.

    ``factors`` holds the SVD factors of one run, an ``OptimalFactors``
    with a leading K (subcarrier) axis; ``side`` names the target,
    ``"f_opt"`` (precoder) or ``"w_opt"`` (combiner).  The wideband
    designer gets the (K, n, n_s) stack of per-subcarrier targets, the
    narrowband ones the single target.
    """
    targets = getattr(factors, side)
    if spec.scenario == "wideband":
        return design_wideband, targets
    if spec.scenario == "narrowband_partial":
        return design_partially_connected, targets[0]
    return design_fully_connected, targets[0]


def _design_block(spec, factors, n_rf, first_run):
    """Design every run of a block in one batched call per side.

    ``factors`` lists the SVD factors of each run, K-stacked.  Returns
    one (precoder, combiner) pair per run, each the best of its starts.
    """
    starts = spec.multistart
    cfg = replace(spec.admm, seed=spec.admm.seed + first_run * starts)
    sides = []
    for side, normalize_power in (("f_opt", True), ("w_opt", False)):
        picks = [scenario_design(spec, run_factors, side) for run_factors in factors]
        designer = picks[0][0]
        targets = np.repeat(np.stack([target for _, target in picks]), starts, axis=0)
        designs = designer(targets, n_rf, cfg, normalize_power)
        # min keeps the first of equal objectives
        sides.append(
            [
                min(designs[i : i + starts], key=lambda d: d.final_objective)
                for i in range(0, len(designs), starts)
            ]
        )
    return list(zip(*sides))


def run_sweep(spec, out_csv, workers=1):
    """Execute a full sweep, write the CSV and a metadata JSON.

    Runs are executed in blocks of ``_BLOCK_RUNS`` consecutive run indices,
    serially or across ``workers`` processes.  Rows are sorted by (n_rf,
    snr_db, run_index, method) so output is deterministic for any worker
    count.  Metadata lands next to the CSV (``<out_csv>.meta.json``) and
    carries the resolved spec plus per-point aggregate means and standard
    errors.
    """
    workers = check_int(workers, "workers")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    firsts = range(0, spec.runs, _BLOCK_RUNS)
    stops = [min(first + _BLOCK_RUNS, spec.runs) for first in firsts]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_block = list(pool.map(partial(_run_block, spec), firsts, stops))
    else:
        per_block = [_run_block(spec, a, b) for a, b in zip(firsts, stops)]
    records = [rec for block in per_block for rec in block]
    records.sort(key=lambda r: (r.n_rf, r.snr_db, r.run_index, r.method))

    try:
        with open(out_csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(_CSV_FIELDS) + "\n")
            fh.writelines(map(_format_row, records))
    except OSError:
        _mark_partial(out_csv)
        raise

    meta = {
        "spec": spec.to_dict(),
        "version": _package_version(),
        "rows": len(records),
        "error_rows": sum(1 for r in records if math.isnan(r.spectral_efficiency)),
        "wideband_se_convention": "mean over subcarriers",
        "aggregates": _aggregate(records),
    }
    with open(str(out_csv) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
    return records


def _format_row(rec):
    """One CSV line of a record.

    No field ever needs quoting (identifiers and numbers only), so this is
    the line ``csv.writer`` would write for the same fields.
    """
    return _ROW_FORMAT % rec


def _mark_partial(out_csv):
    try:
        with open(out_csv, "a", encoding="utf-8", newline="\n") as fh:
            fh.write("# PARTIAL: sweep aborted before completion\n")
    except OSError:
        pass


def _aggregate(records):
    groups = {}
    for rec in records:
        if math.isnan(rec.spectral_efficiency):
            continue
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


def _package_version():
    from . import __version__

    return __version__
