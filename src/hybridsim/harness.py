"""Monte Carlo sweeps: channel draws -> designs -> rate evaluation -> CSV.

Each run is an independent work item seeded as ``base_seed + run_index``.
The sweep's unit of work is a block of consecutive run indices
(``_blocks``): the fewest blocks that keep each within ``_BLOCK_RUNS`` runs
and within the designers' working-set budget ``_BLOCK_ENTRIES``, with the
runs split evenly among them.  A block draws its runs' channels into one
(runs, K, n_rx, n_tx) stack (``draw_channels``, shared with ``hybridsim
trace``), takes the SVD factors of the stack in one call, then designs all
runs on those stacked factors in one batched designer call per (n_rf,
side), with runs x multistarts as the batch axis.  Rates are taken on the
block's stacks: the digital rates from the SVD factors' own leading
singular values, since ``U_ns^H H V_ns = diag(s_ns)``, with no second SVD,
and the hybrid rates from one ``spectral_efficiency`` call per n_rf; each
run's rate is the mean over its subcarriers.  Start s of run r is seeded
``admm.seed + r * multistart + s``: the block draws that seed's stream
once, as many uniform doubles as the largest start of the sweep takes, and
every designer call of the block starts that instance from a prefix of the
same row, so the start is the one a design seeded alone would draw.  Of
each run's starts, the one with the lowest final factorization objective
is kept (the first start wins a tie).

A block returns its results as columns (``_Columns``), one array per
quantity with runs first, not as rows.  The sweep joins the blocks' columns
and walks them once in row order, sorted n_rf -> sorted snr_db -> run ->
method, so the rows need no sort; the walk yields each row's CSV line, and
each field's text is formatted once and shared by every line that holds it.
The lines and ``meta.json`` are the sweep's one output, and no row is kept
once written; the ``meta.json`` aggregates read each sweep point's run
vector straight from the columns.

Determinism: a batched design returns, for every instance, bitwise the
design that instance gets alone.  Rows are therefore the same for any block
layout and any number of workers, and wall-clock timings are the only
nondeterministic output.  If any stage of a block fails, from its channel
draws to its hybrid rates, the whole block is done again one run at a time
(``_run_block``), so only a failing run gets NaN rows.
"""

import json
import math
import time
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .admm import (
    AdmmConfig,
    _start_draws,
    check_finite,
    check_int,
    design_partially_connected,
    design_wideband,
)
from .baseline import _stream_rates, optimal_factors, spectral_efficiency
from .channel import ArrayGeometry, ClusterParams, gen_wideband

__all__ = [
    "SCENARIOS",
    "SweepSpec",
    "draw_channels",
    "load_config",
    "run_sweep",
]

_HYBRID_METHOD = {
    "narrowband_full": "hybrid_full",
    "narrowband_partial": "hybrid_partial",
    "wideband": "hybrid_wideband",
}

SCENARIOS = tuple(_HYBRID_METHOD)

# Most runs in a block: one batched design call covers this many runs times
# the multistart count.  A block pays a fixed cost in every batched ADMM
# iteration, so fewer, fuller blocks are faster, and the caps are set by
# memory.  Measured on a 2-vCPU Xeon with one BLAS thread: a batched
# iteration of 64x4 designs took 81 us for one instance and 517 us for 32;
# 100 narrowband 64x16 runs in one block were 8% faster than in two of 50,
# but the sweep's peak memory was 11% higher.
_BLOCK_RUNS = 64

# Most complex entries the designers of one block may hold, counted per run
# as multistart * (n_tx + n_rx) * (2 K n_s + 15 max(n_rf)): the targets twice
# over, and some fifteen n x n_rf iterates and temporaries.  It admits two
# blocks of 50 for 100 narrowband 64x16 runs (5,120 entries a run) but not
# one of 100, and holds wideband 36x16 runs with 16 subcarriers and 2 starts
# (16,224 entries) to 18 a block: 64 such runs peaked at 47 MB in blocks of
# 16, against 56 MB in blocks of 32 and 73 MB in one block.
_BLOCK_ENTRIES = 300_000


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
        # this module does not postpone annotations, so an int field's type is int
        for name in (f.name for f in fields(self) if f.type is int):
            low = 0 if name == "base_seed" else 1
            object.__setattr__(self, name, check_int(getattr(self, name), name, low))
        object.__setattr__(
            self, "n_rf", tuple(check_int(v, "n_rf") for v in _as_tuple(self.n_rf))
        )
        object.__setattr__(
            self, "snr_db_list", tuple(_snr_db(s) for s in _as_tuple(self.snr_db_list))
        )
        for axis in ("snr_db_list", "n_rf"):
            values = getattr(self, axis)
            if len(values) == 0:
                raise ValueError(f"empty sweep axis: {axis} has no entries")
            # a repeated value would pool each run twice into one sweep point
            if len(set(values)) < len(values):
                raise ValueError(f"duplicate values in sweep axis {axis}: {values}")
        n_tx, n_rx = self.n_tx, self.n_rx
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
        if self.scenario != "wideband" and self.n_subcarriers != 1:
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


def _snr_db(value):
    """``value`` as a float SNR in dB, checked as ``_run_block`` takes it:
    finite, with a linear SNR ``10.0 ** (snr_db / 10.0)`` in float range."""
    db = float(check_finite(value, "snr_db"))
    try:
        10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(
            f"snr_db {db} overflows as a linear SNR 10 ** (snr_db / 10)"
        ) from None
    return db


def _as_tuple(value):
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


# The CSV header: one row is the rate of one method at one sweep point in
# one run.  final_objective and iterations_used describe the precoder-side
# design, 0 on digital_opt rows; a failed design is a row with NaN rate, so
# the sweep continues.  wall_time_ms is the time of the run's block in one
# call, divided by the runs of the block: on digital rows the block's SVD
# factors, on hybrid rows its designs at that n_rf (precoders and combiners,
# all starts); where a block fell back to one run at a time, every row has
# its own run's time.
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

# One CSV line, field by field as in _CSV_FIELDS.  No field ever needs
# quoting (identifiers and numbers only), so this is the line csv.writer
# writes for the same fields; _rows joins its lines from the same pieces.
_ROW_FORMAT = "%s,%.12e,%d,%d,%d,%s,%.12e,%.12e,%d,%.3f\n"


def load_config(path):
    """Read a SweepSpec from a JSON config file."""
    with open(path, "r", encoding="utf-8") as fh:
        return SweepSpec.from_dict(json.load(fh))


class _Columns(NamedTuple):
    """The results of consecutive runs, one array per quantity, runs first.

    ``digital_se`` is (runs, n_snr) and ``digital_ms`` (runs,); the hybrid
    arrays have an n_rf axis of length ``len(spec.n_rf)``, in the order of
    ``spec.n_rf``: ``hybrid_se`` is (runs, len(n_rf), n_snr) and
    ``final_objective``, ``iterations`` and ``design_ms`` are (runs,
    len(n_rf)).  The SNR axis is in the order of ``spec.snr_db_list``.  A
    block returns the columns of its own runs, and a sweep joins its blocks'
    run-wise into the columns of runs 0 onward, which ``_rows`` walks into
    lines; the columns carry no run index, so row and seed
    numbers count from run 0.
    """

    digital_se: np.ndarray
    digital_ms: np.ndarray
    hybrid_se: np.ndarray
    final_objective: np.ndarray
    iterations: np.ndarray
    design_ms: np.ndarray


def draw_channels(spec, first_run, stop_run):
    """The (runs, K, n_rx, n_tx) channels of runs ``first_run .. stop_run - 1``.

    Run i is the (K, n_rx, n_tx) array ``gen_wideband`` returns for seed
    ``spec.base_seed + i`` on the spec's square arrays, with the default
    cluster parameters.
    """
    tx, rx = ArrayGeometry(spec.n_tx_side), ArrayGeometry(spec.n_rx_side)
    draws = [
        gen_wideband(spec.base_seed + i, tx, rx, ClusterParams(), spec.n_subcarriers)
        for i in range(first_run, stop_run)
    ]
    return np.stack(draws)


def _blocks(spec, workers):
    """The first runs and the stop runs of a sweep's blocks, in run order.

    A block holds at most ``_BLOCK_RUNS`` runs, and no more than keep its
    designers within ``_BLOCK_ENTRIES`` complex entries.  The sweep takes the
    fewest blocks under that cap, rounded up to a multiple of ``workers``
    where there are enough runs, so that each worker gets an equal share,
    and splits the runs evenly among them: block sizes differ by at most one
    run, and the larger blocks come first.
    """
    per_run = spec.multistart * (spec.n_tx + spec.n_rx) * (
        2 * spec.n_subcarriers * spec.n_s + 15 * max(spec.n_rf)
    )
    cap = max(1, min(_BLOCK_RUNS, _BLOCK_ENTRIES // per_run))
    count = -(-spec.runs // cap)
    count = min(spec.runs, -(-count // workers) * workers)
    size, extra = divmod(spec.runs, count)
    stops = [(i + 1) * size + min(i + 1, extra) for i in range(count)]
    return [0, *stops[:-1]], stops


def _run_block(spec, first_run, stop_run):
    """Execute runs ``first_run .. stop_run - 1``; return their ``_Columns``.

    The digital rates are the stream rates of ``optimal_factors``' leading
    ``n_s`` singular values: since ``U_ns^H H V_ns = diag(s_ns)``, these are
    the gains ``spectral_efficiency`` would find for the factors' own
    precoder and combiner, without its two SVDs.
    The block's ADMM starts are drawn here, once: row ``(r - first_run) *
    multistart + s`` holds ``max(n_tx, n_rx) * max(n_rf)`` uniform doubles,
    the longest start of the sweep, from ``default_rng(admm.seed + r *
    multistart + s)``, and every designer call of the block takes its
    starts from these rows.
    Each n_rf is designed in one ``_design_block`` call and rated in one
    stacked ``spectral_efficiency`` call; its objectives and iterations are
    the precoders', and its time is the block's design time per run.
    The columns start as a failed run's: NaN rates and objectives, 0
    iterations; a stage that succeeds overwrites its slice.  A block of
    several runs in which a stage raises ``LinAlgError`` or ``ValueError``
    is redone one run at a time.  There a failed design or rating costs the
    run only that n_rf, with its design time, and a failed draw or factors
    cost it every n_rf, with its elapsed time on every row.
    """
    snrs = np.array([10.0 ** (db / 10.0) for db in spec.snr_db_list])
    n_runs = stop_run - first_run
    per_n_rf = (n_runs, len(spec.n_rf))
    columns = _Columns(
        np.full((n_runs, len(snrs)), math.nan),
        np.zeros(n_runs),
        np.full((*per_n_rf, len(snrs)), math.nan),
        np.full(per_n_rf, math.nan),
        np.zeros(per_n_rf, dtype=int),
        np.zeros(per_n_rf),
    )
    start = time.perf_counter()
    try:
        channels = draw_channels(spec, first_run, stop_run)
        draws = _start_draws(
            spec.admm.seed + first_run * spec.multistart,
            n_runs * spec.multistart,
            max(spec.n_tx, spec.n_rx) * max(spec.n_rf),
        )
        t0 = time.perf_counter()
        factors = optimal_factors(channels, spec.n_s)
        columns.digital_ms[:] = 1e3 * (time.perf_counter() - t0) / n_runs
        sigma2 = factors.singular_values[..., : spec.n_s] ** 2
        columns.digital_se[:] = _stream_rates(sigma2, snrs, spec.n_s).mean(axis=1)
        # composites per subcarrier; wideband f_bb is a (K, n_rf, n_s) stack
        shape = (n_runs, spec.n_subcarriers, -1, spec.n_s)
        for j, n_rf in enumerate(spec.n_rf):
            t0 = time.perf_counter()
            try:
                pairs = _design_block(spec, factors, n_rf, first_run, draws)
                columns.design_ms[:, j] = 1e3 * (time.perf_counter() - t0) / n_runs
                precoders = np.reshape([f.f_rf @ f.f_bb for f, _ in pairs], shape)
                combiners = np.reshape([w.f_rf @ w.f_bb for _, w in pairs], shape)
                columns.hybrid_se[:, j] = spectral_efficiency(
                    channels, precoders, combiners, snrs, spec.n_s
                ).mean(axis=1)
            except (np.linalg.LinAlgError, ValueError):
                if n_runs > 1:
                    raise
                columns.design_ms[:, j] = 1e3 * (time.perf_counter() - t0)
                continue
            columns.final_objective[:, j] = [pre.final_objective for pre, _ in pairs]
            columns.iterations[:, j] = [pre.iterations for pre, _ in pairs]
            # freed before the next n_rf's designs: the block peaks at one n_rf's
            del pairs, precoders, combiners
    except (np.linalg.LinAlgError, ValueError):
        if n_runs > 1:
            runs = [_run_block(spec, r, r + 1) for r in range(first_run, stop_run)]
            return _Columns(*map(np.concatenate, zip(*runs)))
        failed_ms = 1e3 * (time.perf_counter() - start)
        columns.digital_ms[:] = failed_ms
        columns.design_ms[:] = failed_ms
    return columns


def scenario_design(spec, factors, side):
    """The designer of ``spec.scenario`` and the targets it factors.

    ``factors`` is an ``OptimalFactors`` of (..., K, n, n_s) targets, with
    any leading axes; ``side`` names the target, ``"f_opt"`` (precoder) or
    ``"w_opt"`` (combiner).  The partially connected designer gets the
    targets of subcarrier 0; every dense scenario gets ``design_wideband``
    and the targets as they are, since the fully connected design is the
    K = 1 wideband design.  The designer is looked up at each call, so a
    rebound module attribute is the one used.
    """
    targets = getattr(factors, side)
    if spec.scenario == "narrowband_partial":
        return design_partially_connected, targets[..., 0, :, :]
    return design_wideband, targets


def _design_block(spec, factors, n_rf, first_run, draws):
    """Design every run of a block in one batched call per side.

    ``factors`` holds the block's stacked SVD factors, (runs, K, n, n_s)
    per side; each run's targets are repeated once per start.  ``draws``
    holds one row of uniform doubles per instance, runs x starts, at least
    as long as the longest start at ``n_rf``; both sides start from its
    rows, each designer from the prefix its start takes.  The designers'
    ``cfg`` carries the seed of the block's first instance, the seed its
    row was drawn from.  Returns one (precoder, combiner) pair per run,
    each the best of its starts.
    """
    starts = spec.multistart
    cfg = replace(spec.admm, seed=spec.admm.seed + first_run * starts)
    sides = []
    for side, normalize_power in (("f_opt", True), ("w_opt", False)):
        designer, targets = scenario_design(spec, factors, side)
        targets = np.repeat(targets, starts, axis=0)
        designs = designer(targets, n_rf, cfg, normalize_power, draws=draws)
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

    Runs are executed in blocks of consecutive run indices (``_blocks``):
    the fewest blocks under the block caps, their count a multiple of
    ``workers`` where there are enough runs, with sizes that differ by at
    most one run; serially, or across ``workers`` processes.  Rows come in
    (n_rf, snr_db, run_index, method) order, so output is deterministic for
    any worker count.  The CSV, with its header, and the metadata file
    beside it (``<out_csv>.meta.json``) are opened before the first block,
    so an unwritable path for either fails before any run; a sweep that
    raises after that leaves the rows written so far, a ``# PARTIAL``
    marker and an empty metadata file, never an earlier sweep's.  The
    metadata is written last and carries the resolved spec, the row count,
    the count of rows with a non-finite rate (``error_rows``) and per-point
    aggregate means and standard errors of the finite rates; it is strict
    JSON, with no NaN or Infinity.
    Returns that metadata, the dict the JSON file holds; no row is kept
    once written.
    """
    # imported here: the package imports this module before it sets the version
    from . import __version__

    workers = check_int(workers, "workers", 1)
    fh = open(out_csv, "w", encoding="utf-8", newline="\n")
    try:
        with fh, open(f"{out_csv}.meta.json", "w", encoding="utf-8") as meta_fh:
            fh.write(",".join(_CSV_FIELDS) + "\n")
            # before any run: a failing write shows now, and forked workers
            # inherit no buffered text
            fh.flush()
            firsts, stops = _blocks(spec, workers)
            if workers > 1:
                # imported here: the pool's modules cost every serial sweep
                # about 20 ms of start-up
                from concurrent.futures import ProcessPoolExecutor

                # a forking pool starts all its workers at its first task, so
                # it gets none beyond the blocks
                processes = min(workers, len(firsts))
                with ProcessPoolExecutor(max_workers=processes) as pool:
                    blocks = list(pool.map(partial(_run_block, spec), firsts, stops))
            else:
                blocks = [_run_block(spec, a, b) for a, b in zip(firsts, stops)]
            # the blocks' columns joined run-wise; the sweep starts at run 0
            columns = _Columns(*map(np.concatenate, zip(*blocks)))
            fh.writelines(_rows(spec, columns))
            # a digital rate is the row of its (run, snr) at every n_rf
            bad_digital = int((~np.isfinite(columns.digital_se)).sum())
            bad_hybrid = int((~np.isfinite(columns.hybrid_se)).sum())
            meta = {
                "spec": spec.to_dict(),
                "version": __version__,
                "rows": 2 * columns.hybrid_se.size,
                "error_rows": len(spec.n_rf) * bad_digital + bad_hybrid,
                "wideband_se_convention": "mean over subcarriers",
                "aggregates": _aggregate(spec, columns),
            }
            # formed whole before it is written, so a failure leaves it empty
            meta_fh.write(json.dumps(meta, indent=2, allow_nan=False))
    except BaseException:
        _mark_partial(out_csv)
        raise
    return meta


def _sorted_positions(values):
    """Positions of ``values`` in increasing order of value."""
    return sorted(range(len(values)), key=values.__getitem__)


def _rows(spec, columns):
    """The CSV line of each row of ``columns``, in row order.

    Each line is ``_ROW_FORMAT`` of its row's fields, but is joined from
    field texts formatted once each: the (scenario, snr_db, n_rf) head once
    per sweep point, (run_index, seed) once per run, the hybrid
    (final_objective, iterations_used, wall_time_ms) tail once per (run,
    n_rf), and a digital row's text after its run fields, which is the same
    at every n_rf, once per (run, snr).
    """
    scenario, method = spec.scenario, _HYBRID_METHOD[spec.scenario]
    runs = range(len(columns.digital_se))
    run_text = ["%d,%d," % (i, spec.base_seed + i) for i in runs]
    digital_tail = [
        ",%.12e,%d,%.3f\n" % (0.0, 0, ms) for ms in columns.digital_ms.tolist()
    ]
    # indexed [snr][run], [n_rf][run] and [n_rf][snr][run]: the runs of a
    # sweep point are one list
    digital_se = columns.digital_se.T.tolist()
    digital_text = [
        ["digital_opt,%.12e%s" % fields for fields in zip(rates, digital_tail)]
        for rates in digital_se
    ]
    hybrid_tail = [
        [",%.12e,%d,%.3f\n" % fields for fields in zip(*point_fields)]
        for point_fields in zip(
            columns.final_objective.T.tolist(),
            columns.iterations.T.tolist(),
            columns.design_ms.T.tolist(),
        )
    ]
    hybrid_se = columns.hybrid_se.transpose(1, 2, 0).tolist()
    for k in _sorted_positions(spec.n_rf):
        for j in _sorted_positions(spec.snr_db_list):
            head = "%s,%.12e,%d," % (scenario, spec.snr_db_list[j], spec.n_rf[k])
            for i, tail in enumerate(hybrid_tail[k]):
                lead = head + run_text[i]
                yield lead + digital_text[j][i]
                yield "%s%s,%.12e%s" % (lead, method, hybrid_se[k][j][i], tail)


def _mark_partial(out_csv):
    try:
        with open(out_csv, "a", encoding="utf-8", newline="\n") as fh:
            fh.write("# PARTIAL: sweep aborted before completion\n")
    except OSError:
        pass


def _aggregate(spec, columns):
    """Mean rate and standard error per (scenario, snr_db, n_rf, method).

    A group holds the finite rates of one sweep point's runs, in run order,
    and a group with none is left out.  Groups come in sorted key order.
    """
    method = _HYBRID_METHOD[spec.scenario]
    out = []
    for j in _sorted_positions(spec.snr_db_list):
        digital = _point_stats(columns.digital_se[:, j])
        for k in _sorted_positions(spec.n_rf):
            hybrid = _point_stats(columns.hybrid_se[:, k, j])
            # "digital_opt" sorts before every hybrid method name
            for name, stats in (("digital_opt", digital), (method, hybrid)):
                if stats is not None:
                    out.append(
                        {
                            "scenario": spec.scenario,
                            "snr_db": spec.snr_db_list[j],
                            "n_rf": spec.n_rf[k],
                            "method": name,
                            **stats,
                        }
                    )
    return out


def _point_stats(rates):
    """Mean and standard error of the finite entries of ``rates``, or None."""
    arr = rates[np.isfinite(rates)]
    if arr.size == 0:
        return None
    stderr = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return {
        "mean_spectral_efficiency": float(arr.mean()),
        "stderr": stderr,
        "n": int(arr.size),
    }
