"""Monte Carlo sweeps: channel draws -> designs -> rate evaluation -> CSV.

Each run is an independent work item seeded as ``base_seed + run_index``,
so a sweep executed with any number of workers produces the same rows as a
serial execution (row order is normalized by sorting; wall-clock timings
are the only nondeterministic output).  Analog-matrix initializations are
also deterministic: design call s of run r uses ADMM seed
``admm.seed + r * multistart + s`` and the start with the lowest final
factorization objective is kept.
"""

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import partial

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
        if len(self.snr_db_list) == 0:
            raise ValueError("empty sweep axis: snr_db_list has no entries")
        if len(self.n_rf) == 0:
            raise ValueError("empty sweep axis: n_rf has no entries")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.multistart < 1:
            raise ValueError("multistart must be >= 1")
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
        """Build a spec from a JSON-style mapping; unknown keys are errors."""
        known = {
            "scenario",
            "n_s",
            "n_rf",
            "n_tx_side",
            "n_rx_side",
            "n_subcarriers",
            "snr_db_list",
            "runs",
            "base_seed",
            "admm",
            "multistart",
        }
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = known - set(doc) - {"multistart", "admm"}
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        admm_doc = dict(doc.get("admm", {}))
        admm_known = {"rho", "max_iters", "tau", "phase_bits", "seed"}
        admm_unknown = set(admm_doc) - admm_known
        if admm_unknown:
            raise ValueError(f"unknown admm config keys: {sorted(admm_unknown)}")
        return cls(
            **{key: doc[key] for key in known - {"admm"} if key in doc},
            admm=AdmmConfig(**admm_doc),
        )

    def to_dict(self):
        doc = asdict(self)
        doc["n_rf"] = list(self.n_rf)
        doc["snr_db_list"] = list(self.snr_db_list)
        return doc


def _as_tuple(value):
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


@dataclass(frozen=True)
class ResultRecord:
    """One CSV row: the rate of one method at one sweep point in one run.

    ``final_objective`` and ``iterations_used`` describe the precoder-side
    design (zero for the digital baseline); failed designs are recorded
    with NaN rate so the sweep continues.
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


def _design_multistart(designer, target, n_rf, cfg, normalize_power, run_index, spec):
    best = None
    for s in range(spec.multistart):
        start_cfg = replace(cfg, seed=cfg.seed + run_index * spec.multistart + s)
        cand = designer(target, n_rf, start_cfg, normalize_power)
        if best is None or cand.final_objective < best.final_objective:
            best = cand
    return best


def run_single(spec, run_index):
    """Execute one Monte Carlo run: one channel draw, all sweep points.

    Returns one ResultRecord per (snr, n_rf, method) combination.  Rates for
    the wideband scenario are averaged over subcarriers.
    """
    seed = spec.base_seed + run_index
    realization = gen_wideband(
        seed,
        ArrayGeometry(spec.n_tx_side),
        ArrayGeometry(spec.n_rx_side),
        ClusterParams(),
        spec.n_subcarriers,
    )
    t0 = time.perf_counter()
    factors = [optimal_factors(h, spec.n_s) for h in realization.matrices]
    digital_ms = 1e3 * (time.perf_counter() - t0)
    snrs = [10.0 ** (db / 10.0) for db in spec.snr_db_list]
    digital_se = [
        float(
            np.mean(
                [
                    spectral_efficiency(h, fo.f_opt, fo.w_opt, snr, spec.n_s)
                    for h, fo in zip(realization.matrices, factors)
                ]
            )
        )
        for snr in snrs
    ]

    method = _HYBRID_METHOD[spec.scenario]
    records = []
    for n_rf in spec.n_rf:
        # a failed design, or a design whose rate cannot be evaluated, gives
        # NaN hybrid rows instead of aborting the sweep
        t0 = time.perf_counter()
        try:
            pre, comb = _design_pair(spec, factors, n_rf, run_index)
            design_ms = 1e3 * (time.perf_counter() - t0)
            hybrid_se = [
                float(
                    np.mean(
                        [
                            spectral_efficiency(
                                h,
                                pre.f_rf @ _bb(pre, k),
                                comb.f_rf @ _bb(comb, k),
                                snr,
                                spec.n_s,
                            )
                            for k, h in enumerate(realization.matrices)
                        ]
                    )
                )
                for snr in snrs
            ]
            final_obj = pre.final_objective
            iters = pre.iterations
        except (np.linalg.LinAlgError, ValueError):
            design_ms = 1e3 * (time.perf_counter() - t0)
            hybrid_se = [float("nan")] * len(snrs)
            final_obj = float("nan")
            iters = 0

        for snr_db, dig_se, hyb_se in zip(spec.snr_db_list, digital_se, hybrid_se):
            records.append(
                ResultRecord(
                    scenario=spec.scenario,
                    snr_db=snr_db,
                    n_rf=n_rf,
                    run_index=run_index,
                    seed=seed,
                    method="digital_opt",
                    spectral_efficiency=dig_se,
                    final_objective=0.0,
                    iterations_used=0,
                    wall_time_ms=digital_ms,
                )
            )
            records.append(
                ResultRecord(
                    scenario=spec.scenario,
                    snr_db=snr_db,
                    n_rf=n_rf,
                    run_index=run_index,
                    seed=seed,
                    method=method,
                    spectral_efficiency=hyb_se,
                    final_objective=final_obj,
                    iterations_used=iters,
                    wall_time_ms=design_ms,
                )
            )
    return records


def _bb(design, k):
    # wideband digital matrices are stacked per subcarrier
    return design.f_bb[k] if design.f_bb.ndim == 3 else design.f_bb


def scenario_design(spec, factors, side):
    """The designer of ``spec.scenario`` and the target it factors.

    ``factors`` holds the SVD factors of each subcarrier; ``side`` names the
    target, ``"f_opt"`` (precoder) or ``"w_opt"`` (combiner).  The wideband
    designer gets the (K, n, n_s) stack of per-subcarrier targets, the
    narrowband ones the single target.
    """
    targets = [getattr(fo, side) for fo in factors]
    if spec.scenario == "wideband":
        return design_wideband, np.stack(targets)
    if spec.scenario == "narrowband_partial":
        return design_partially_connected, targets[0]
    return design_fully_connected, targets[0]


def _design_pair(spec, factors, n_rf, run_index):
    designer, f_target = scenario_design(spec, factors, "f_opt")
    pre = _design_multistart(
        designer, f_target, n_rf, spec.admm, True, run_index, spec
    )
    designer, w_target = scenario_design(spec, factors, "w_opt")
    comb = _design_multistart(
        designer, w_target, n_rf, spec.admm, False, run_index, spec
    )
    return pre, comb


def run_sweep(spec, out_csv, metadata_out=None, workers=1):
    """Execute a full sweep, write the CSV and a metadata JSON.

    Rows are sorted by (n_rf, snr_db, run_index, method) so output is
    deterministic for any worker count.  Metadata lands next to the CSV
    (``<out_csv>.meta.json``) unless ``metadata_out`` is given, and carries
    the resolved spec plus per-point aggregate means and standard errors.
    """
    if metadata_out is None:
        metadata_out = str(out_csv) + ".meta.json"
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_run = list(pool.map(partial(run_single, spec), range(spec.runs)))
    else:
        per_run = [run_single(spec, i) for i in range(spec.runs)]
    records = [rec for batch in per_run for rec in batch]
    records.sort(key=lambda r: (r.n_rf, r.snr_db, r.run_index, r.method))

    try:
        with open(out_csv, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_CSV_FIELDS)
            for rec in records:
                writer.writerow(_format_row(rec))
    except OSError:
        _mark_partial(out_csv)
        raise

    meta = {
        "spec": spec.to_dict(),
        "version": _package_version(),
        "rows": len(records),
        "error_rows": sum(1 for r in records if np.isnan(r.spectral_efficiency)),
        "wideband_se_convention": "mean over subcarriers",
        "aggregates": _aggregate(records),
    }
    with open(metadata_out, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
    return records


def _format_row(rec):
    return [
        rec.scenario,
        f"{rec.snr_db:.12e}",
        rec.n_rf,
        rec.run_index,
        rec.seed,
        rec.method,
        f"{rec.spectral_efficiency:.12e}",
        f"{rec.final_objective:.12e}",
        rec.iterations_used,
        f"{rec.wall_time_ms:.3f}",
    ]


def _mark_partial(out_csv):
    try:
        with open(out_csv, "a", encoding="utf-8", newline="\n") as fh:
            fh.write("# PARTIAL: sweep aborted before completion\n")
    except OSError:
        pass


def _aggregate(records):
    groups = {}
    for rec in records:
        if np.isnan(rec.spectral_efficiency):
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
