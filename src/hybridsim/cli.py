"""Command-line front end: run sweeps, dump design traces, check configs."""

import argparse
import csv
import json
import sys
from dataclasses import replace

import numpy as np

from .baseline import optimal_factors
from .harness import draw_channels, load_config, run_sweep, scenario_design


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hybridsim",
        description="Hybrid analog/digital precoder design sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a Monte Carlo sweep")
    p_run.add_argument("--config", required=True, help="sweep config JSON")
    p_run.add_argument("--out", required=True, help="output CSV path")
    p_run.add_argument("--runs", type=int, default=None, help="override run count")
    p_run.add_argument("--seed", type=int, default=None, help="override base seed")
    p_run.add_argument("--workers", type=int, default=1, help="parallel processes")

    p_trace = sub.add_parser(
        "trace", help="dump the per-iteration trace of one precoder design"
    )
    p_trace.add_argument("--config", required=True, help="sweep config JSON")
    p_trace.add_argument("--out", required=True, help="output CSV path")

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("--config", required=True, help="sweep config JSON")

    args = parser.parse_args(argv)
    try:
        spec = load_config(args.config)
        if args.command == "run":
            if args.workers < 1:
                raise ValueError(f"--workers must be >= 1, got {args.workers}")
            if args.runs is not None:
                spec = replace(spec, runs=args.runs)
            if args.seed is not None:
                spec = replace(spec, base_seed=args.seed)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print("config OK")
        return 0
    if args.command == "trace":
        return _trace(spec, args.out)
    return _run(spec, args)


def _run(spec, args):
    try:
        meta = run_sweep(spec, args.out, workers=args.workers)
    except OSError as exc:
        # the CSV or the meta.json beside it
        print(f"error: cannot write {exc.filename or args.out}: {exc}", file=sys.stderr)
        return 1
    rows, ok = meta["rows"], meta["rows"] - meta["error_rows"]
    print(f"wrote {rows} rows to {args.out} ({ok} with finite rate)")
    return 0


def _trace(spec, out_path):
    """Dump the trace of run 0's start-0 precoder design at the first n_rf.

    The file is opened first: an unwritable path fails before any design,
    and a design that raises is reported on stderr, not traced.
    """
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            factors = optimal_factors(draw_channels(spec, 0, 1), spec.n_s)
            designer, targets = scenario_design(spec, factors, "f_opt")
            design = designer(targets, spec.n_rf[0], spec.admm, normalize_power=True)[0]
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["iteration", "objective", "primal_residual"])
            for it, obj, res in design.trace:
                writer.writerow([it, f"{obj:.12e}", f"{res:.12e}"])
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return 1
    except (np.linalg.LinAlgError, ValueError) as exc:
        print(f"error: design failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"wrote {len(design.trace)} trace rows to {out_path} "
        f"(final objective {design.final_objective:.3e})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
