"""Record the benchmark's output reference and per-layer shares.

Usage (from the repository root):

    python3 bench/record_reference.py [--seeds 0-10]

For each workload and seed, runs the workload's first ``window`` sweeps
traced (tracing does not change the rows; the benchmark checks that) and
stores each sweep's per-point mean rates and iteration totals in
``reference.json``.  Seed 0's traced self times, as shares of the traced
wall time, go to ``layer_shares.json`` together with each workload's
reason and the commit they were taken at.  Re-record only in a change
that alters no program code.
"""

import argparse
import json
import os
import statistics
import sys

import run
import workloads

SHARES = run.BENCH_DIR / "layer_shares.json"


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def shares(m):
    """Self time per span, and unattributed time, in % of the traced wall."""
    _, self_s, wall = m.spans()
    self_s["unattributed"] = wall - sum(self_s.values())
    ranked = sorted(self_s.items(), key=lambda kv: -kv[1])
    return {span: round(100 * v / wall, 2) for span, v in ranked}


def dump_by_seed(reference):
    """JSON text with one line per workload and seed."""
    blocks = []
    for name, seeds in reference.items():
        lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in seeds.items()]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-10"))
    args = parser.parse_args(argv)
    stamp = run.probe()
    reference, layer_shares = {}, {}
    for name, workload in workloads.WORKLOADS.items():
        reference[name] = {}
        for seed in args.seeds:
            m = run.Measurement(
                name, seed, 0, trace=True, min_sweeps=workload.window, record=True
            )
            reference[name][str(seed)] = m.entries
            print(name, seed, [e["admm_iterations"] for e in m.entries], flush=True)
            if seed == 0:
                layer_shares[name] = {
                    "why": workload.why,
                    "git_sha": run.git_sha(),
                    "python": stamp["python"],
                    "numpy": stamp["numpy"],
                    "scipy": stamp["scipy"],
                    "blas": stamp["blas"],
                    "nproc": os.cpu_count(),
                    "traced_sweeps": run.TRACE_WINDOW,
                    "self_time_pct": shares(m),
                    "trace_overhead_pct": round(statistics.median(m.overheads), 2),
                }
    run.REFERENCE.write_text(dump_by_seed(reference))
    if layer_shares:
        SHARES.write_text(json.dumps(layer_shares, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
