"""Sweep benchmark of hybridsim: end-to-end metrics, or a per-layer trace.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sweep is a fresh ``python3`` process that calls the ``hybridsim run``
entry on a generated config with one worker and BLAS pinned to one thread,
as a user would run it.  Sweeps repeat, each on its own channel draws,
until ``--seconds`` have passed and a minimum number of sweeps is done.
The program sees only the generated configs.

``--trace 0`` reports the end-to-end metrics:
  runs_per_s   Monte Carlo runs per second of sweep wall time, from the
               ``run_sweep`` call to CSV and meta.json written, of the
               run's fastest sweep: contention from other tenants of a
               shared host only ever slows a sweep, and drifts over
               minutes, so the best sweep is the steadiest estimate
  setup_s      process spawn to sweep start: interpreter, imports, config
               load and validation (median over sweeps)
  peak_rss_mb  peak resident memory of a sweep process (median)
  finite_frac  hybrid rows with a finite rate / hybrid rows attempted
  se_gap_pct   mean over sweep points of (digital_opt - hybrid) /
               digital_opt, over the workload's first ``window`` sweeps,
               so it is fixed per seed

``--trace 1`` runs each sweep twice, untraced and traced on the same
inputs, and reports the per-layer metrics of ``layertrace`` summed over
the first TRACE_WINDOW traced sweeps, plus the tracing overhead.

Every sweep's output is checked: CSV and meta.json row counts, one row
per method, point and run, finite digital rates, and traced rows equal
to untraced rows.  For the seeds and sweeps in ``reference.json`` a sweep
must also reproduce the recorded per-point mean rates and iteration
totals within RATE_RTOL and ITER_RTOL.  A failed check prints the result
with ``"correct": false`` and exits 1.  The last stdout line is the JSON
result.
"""

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

# Output check against reference.json, per sweep: per-point mean rates
# within a relative 1e-4, iteration totals within 0.5%.  Both admit
# floating-point reordering that flips a stopping decision or two; a
# change of algorithm, penalty or stopping rule moves many designs and
# exceeds them.
RATE_RTOL = 1e-4
ITER_RTOL = 5e-3

# Traced sweeps whose spans make the per-layer metrics.
TRACE_WINDOW = 4

# A run ends within this many seconds however slow the program is.
RUN_LIMIT_S = 170.0

PINNED_THREADS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

END_TO_END = {
    "runs_per_s": "runs/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "finite_frac": "ratio",
    "se_gap_pct": "%",
}

PER_LAYER = {
    "numerics.solve_hpd.calls": "count",
    "numerics.solve_hpd.self_s": "s",
    "numerics.solve_hpd.us_per_call": "us",
    "numerics.logdet_eval.calls": "count",
    "numerics.logdet_eval.self_s": "s",
    "numerics.svd.self_s": "s",
    "admm.design.calls": "count",
    "admm.design.self_s": "s",
    "admm.iterations": "count",
    "admm.iters_per_design": "iters",
    "admm.capped_frac": "ratio",
    "admm.least_squares_fbb.calls": "count",
    "admm.least_squares_fbb.self_s": "s",
    "admm.project_unit_modulus.calls": "count",
    "admm.project_unit_modulus.self_s": "s",
    "baseline.spectral_efficiency.calls": "count",
    "baseline.spectral_efficiency.self_s": "s",
    "baseline.optimal_factors.self_s": "s",
    "channel.gen_wideband.calls": "count",
    "channel.gen_wideband.self_s": "s",
    "harness.run_single.calls": "count",
    "harness.run_single.self_s": "s",
    "harness.run_sweep.self_s": "s",
    "harness.csv_bytes": "bytes",
    "harness.unattributed_s": "s",
    "cli.self_s": "s",
    "trace.overhead_pct": "%",
}


class CheckFailed(Exception):
    """The program's output is wrong or a sweep process failed."""


class SetupError(Exception):
    """The checkout cannot run the benchmark at all."""


def child_env():
    env = dict(os.environ, **PINNED_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def probe():
    """Import the package once in a pinned process; return its stamp."""
    if not (SRC / "hybridsim" / "__init__.py").is_file():
        raise SetupError(f"no hybridsim package under {SRC}")
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "sweep_child.py"), "--probe", str(SRC)],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    if proc.returncode != 0:
        raise SetupError(f"cannot import hybridsim:\n{proc.stderr.strip()}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(info["package_file"]).is_relative_to(SRC):
        raise SetupError(f"hybridsim imported from {info['package_file']}")
    return info


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Sweep:
    """One sweep process: its config, checked outputs and measurements."""

    def __init__(self, workdir, tag, config, trace):
        self.config_path = workdir / f"{tag}.config.json"
        self.csv_path = workdir / f"{tag}.csv"
        self.result_path = workdir / f"{tag}.result.json"
        self.config = config
        self.trace = trace
        self.config_path.write_text(json.dumps(config))

    def run(self, deadline):
        cmd = [
            sys.executable,
            str(BENCH_DIR / "sweep_child.py"),
            str(SRC),
            str(self.config_path),
            str(self.csv_path),
            str(self.result_path),
            "1" if self.trace else "0",
        ]
        spawn = time.monotonic()
        try:
            proc = subprocess.run(
                cmd,
                env=child_env(),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise CheckFailed("sweep process did not finish in time")
        if proc.returncode != 0:
            raise CheckFailed(f"sweep process failed:\n{proc.stderr.strip()}")
        self.result = json.loads(self.result_path.read_text())
        self.setup_s = self.result["sweep_start"] - spawn
        self.sweep_s = self.result["sweep_end"] - self.result["sweep_start"]
        self.rows = self._read_rows()
        self.csv_bytes = self.csv_path.stat().st_size

    def _read_rows(self):
        with open(self.csv_path, encoding="utf-8", newline="") as fh:
            lines = fh.read().splitlines()
        if any(line.startswith("#") for line in lines):
            raise CheckFailed(f"{self.csv_path.name}: partial CSV")
        rows = list(csv.DictReader(lines))
        meta = json.loads(Path(str(self.csv_path) + ".meta.json").read_text())
        if meta["rows"] != len(rows):
            raise CheckFailed(
                f"meta.json counts {meta['rows']} rows, CSV has {len(rows)}"
            )
        return rows

    def check(self, workload):
        """Check the row structure; return (hybrid rows, non-finite ones).

        Also sets ``points``, the per-point mean rates as
        [n_rf, snr_db, digital mean, hybrid mean], and
        ``precoder_iterations``, the CSV's iteration total over designs.
        """
        runs = self.config["runs"]
        rates = {}
        iterations = {}
        for row in self.rows:
            point = (int(row["n_rf"]), float(row["snr_db"]))
            method = row["method"]
            rates.setdefault(point, {}).setdefault(method, {})[
                int(row["run_index"])
            ] = float(row["spectral_efficiency"])
            if method != "digital_opt":
                iterations[(point[0], row["run_index"])] = int(row["iterations_used"])
        if sorted(rates) != sorted(workload.points()):
            raise CheckFailed(f"sweep points {sorted(rates)} differ from the config")
        if len(self.rows) != 2 * runs * len(rates):
            raise CheckFailed(f"{len(self.rows)} rows for {runs} runs")
        hybrid = failed = 0
        self.points = []
        for point, methods in sorted(rates.items()):
            if len(methods) != 2 or "digital_opt" not in methods:
                raise CheckFailed(f"point {point}: methods {sorted(methods)}")
            means = {}
            for method, by_run in methods.items():
                if sorted(by_run) != list(range(runs)):
                    raise CheckFailed(f"point {point} {method}: missing runs")
                bad = sum(1 for r in by_run.values() if not math.isfinite(r))
                if method == "digital_opt" and bad:
                    raise CheckFailed(f"point {point}: non-finite digital rate")
                if method != "digital_opt":
                    hybrid += len(by_run)
                    failed += bad
                finite = [r for r in by_run.values() if math.isfinite(r)]
                if not finite:
                    raise CheckFailed(f"point {point}: no finite {method} rate")
                means[method != "digital_opt"] = statistics.fmean(finite)
            self.points.append([*point, means[False], means[True]])
        self.precoder_iterations = sum(iterations.values())
        return hybrid, failed

    def reference_entry(self, traced=None):
        return {
            "points": self.points,
            "precoder_iterations": self.precoder_iterations,
            "admm_iterations": traced.result["trace"]["iterations"] if traced else None,
        }


def check_reference(ref, entry):
    """Compare one sweep's outputs with its recorded reference."""
    for got, want in zip(entry["points"], ref["points"], strict=True):
        if got[:2] != want[:2]:
            raise CheckFailed(f"point {got[:2]} where reference has {want[:2]}")
        for g, w in zip(got[2:], want[2:]):
            if not math.isclose(g, w, rel_tol=RATE_RTOL):
                raise CheckFailed(f"point {got[:2]}: mean rate {g!r}, reference {w!r}")
    for key in ("precoder_iterations", "admm_iterations"):
        if entry[key] is not None and not math.isclose(
            entry[key], ref[key], rel_tol=ITER_RTOL
        ):
            raise CheckFailed(f"{key} {entry[key]}, reference {ref[key]}")


def se_gap_pct(sweeps):
    """Mean relative gap to digital_opt over the points, runs pooled."""
    gaps = []
    for column in zip(*(s.points for s in sweeps)):
        digital = statistics.fmean(p[2] for p in column)
        hybrid = statistics.fmean(p[3] for p in column)
        gaps.append((digital - hybrid) / digital)
    return 100.0 * statistics.fmean(gaps)


def same_rows(a, b):
    return [dict(r, wall_time_ms=None) for r in a] == [
        dict(r, wall_time_ms=None) for r in b
    ]


class Measurement:
    """The sweeps of one benchmark run, each checked as it finishes."""

    def __init__(
        self, name, seed, seconds, trace, runs=None, min_sweeps=None, record=False
    ):
        self.workload = workloads.WORKLOADS[name]
        self.seed = seed
        self.trace = trace
        self.runs = runs
        if min_sweeps is None:
            min_sweeps = TRACE_WINDOW if trace else self.workload.window
        self.untraced, self.traced, self.overheads = [], [], []
        self.entries = []  # reference_entry() of each sweep, in order
        self.attempted = self.failed = self.checked = 0
        self.references = []  # reference.json entries of this seed's sweeps
        if runs is None and not record:
            refs = json.loads(REFERENCE.read_text()).get(name, {})
            self.references = refs.get(str(seed), [])
        start = time.monotonic()
        deadline = start + RUN_LIMIT_S
        workdir = BENCH_DIR / ".work" / f"{name}-{seed}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            longest = 0.0
            while len(self.untraced) < min_sweeps or (
                time.monotonic() - start + longest <= seconds
            ):
                t0 = time.monotonic()
                self._sweep(workdir, deadline)
                longest = max(longest, time.monotonic() - t0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _sweep(self, workdir, deadline):
        c = len(self.untraced)
        config = self.workload.config(self.seed, c, self.runs)
        sweep = Sweep(workdir, f"u{c}", config, trace=False)
        sweep.run(deadline)
        hybrid, bad = sweep.check(self.workload)
        self.attempted += hybrid
        self.failed += bad
        self.untraced.append(sweep)
        traced = None
        if self.trace:
            traced = Sweep(workdir, f"t{c}", config, trace=True)
            traced.run(deadline)
            if not same_rows(sweep.rows, traced.rows):
                raise CheckFailed("traced sweep rows differ from untraced rows")
            traced.rows = None
            self.traced.append(traced)
            self.overheads.append(
                100.0
                * (traced.result["main_wall_s"] / sweep.result["main_wall_s"] - 1.0)
            )
        sweep.rows = None  # checked; a run keeps only what its metrics need
        self.entries.append(sweep.reference_entry(traced))
        if c < len(self.references):
            check_reference(self.references[c], self.entries[-1])
            self.checked += 1

    def end_to_end(self):
        sweeps = self.untraced
        return {
            "runs_per_s": max(s.config["runs"] / s.sweep_s for s in sweeps),
            "setup_s": statistics.median(s.setup_s for s in sweeps),
            "peak_rss_mb": statistics.median(
                s.result["peak_rss_kb"] / 1024.0 for s in sweeps
            ),
            "finite_frac": (self.attempted - self.failed) / self.attempted,
            "se_gap_pct": se_gap_pct(sweeps[: self.workload.window]),
        }

    def spans(self):
        """Span calls and self seconds, and the traced wall time, summed
        over the first TRACE_WINDOW traced sweeps."""
        traced = [s.result["trace"] for s in self.traced[:TRACE_WINDOW]]
        calls = {k: sum(t["calls"][k] for t in traced) for k in traced[0]["calls"]}
        self_s = {k: sum(t["self_s"][k] for t in traced) for k in calls}
        wall = sum(s.result["main_wall_s"] for s in self.traced[:TRACE_WINDOW])
        if wall - sum(self_s.values()) < -1e-6 or min(self_s.values()) < -1e-6:
            raise CheckFailed("span self times exceed the traced wall time")
        return calls, self_s, wall

    def per_layer(self):
        """Per-layer metrics and a report of the traced wall time's split."""
        traced = self.traced[:TRACE_WINDOW]
        spans = [s.result["trace"] for s in traced]
        calls, self_s, wall = self.spans()
        unattributed = wall - sum(self_s.values())
        designs = sum(t["designs"] for t in spans)
        iterations = sum(t["iterations"] for t in spans)
        capped = sum(t["capped"] for t in spans)
        hpd = calls["numerics.solve_hpd"]
        metrics = {
            "numerics.solve_hpd.us_per_call": (
                1e6 * self_s["numerics.solve_hpd"] / hpd if hpd else 0.0
            ),
            "admm.iterations": iterations,
            "admm.iters_per_design": iterations / designs if designs else 0.0,
            "admm.capped_frac": capped / designs if designs else 0.0,
            "harness.csv_bytes": sum(s.csv_bytes for s in traced),
            "harness.unattributed_s": unattributed,
            "trace.overhead_pct": statistics.median(self.overheads),
        }
        for name in PER_LAYER:  # the rest are "<span>.calls" and "<span>.self_s"
            span, _, kind = name.rpartition(".")
            if name not in metrics:
                metrics[name] = (calls if kind == "calls" else self_s)[span]
        lines = [
            f"traced wall {wall:.4f} s over {len(traced)} sweeps; self time by span:"
        ]
        for span, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
            if calls[span] == 0:
                lines.append(f"  {span:30s} absent")
                continue
            lines.append(
                f"  {span:30s} {value:9.4f} s {100 * value / wall:6.2f}%"
                f"  calls {calls[span]}"
            )
        lines.append(
            f"  {'unattributed':30s} {unattributed:9.4f} s"
            f" {100 * unattributed / wall:6.2f}%"
        )
        absent = sorted({a for t in spans for a in t["absent"]})
        if absent:
            lines.append("absent: " + ", ".join(absent))
        return metrics, lines


def run_benchmark(name, seed, seconds, trace, runs=None):
    """Run the sweeps and check them; return (result dict, report lines)."""
    stamp = probe()
    stamp.update(
        git_sha=git_sha(),
        seed=seed,
        workload=name,
        trace=trace,
        threads=PINNED_THREADS,
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
    )
    m = Measurement(name, seed, seconds, trace, runs)
    lines = [
        "stamp: " + json.dumps(stamp),
        f"{len(m.untraced)} sweeps of {m.untraced[0].config['runs']} runs; "
        f"{m.checked} matched reference.json",
    ]
    if trace:
        metrics, layer_lines = m.per_layer()
        lines += layer_lines
        units = PER_LAYER
    else:
        metrics = m.end_to_end()
        units = END_TO_END
    result = {
        "correct": True,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, lines


def main(argv=None, runs=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.WORKLOADS)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace), runs
        )
    except SetupError as exc:
        print(f"setup error: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        failed = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        print(json.dumps(failed))
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
