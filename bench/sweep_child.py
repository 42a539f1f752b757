"""One sweep process of the benchmark: ``hybridsim run`` on a generated config.

Usage: python3 sweep_child.py SRC_DIR CONFIG OUT_CSV RESULT_JSON TRACE
       python3 sweep_child.py --probe SRC_DIR

Imports the package from SRC_DIR, optionally installs the layer trace, and
calls the ``hybridsim run`` entry with one worker.  RESULT_JSON receives the
monotonic clock at sweep entry and exit (the clock is shared between
processes, so the parent measures set-up from its own spawn time), the
wall time of the entry call, the peak resident memory and, when traced,
the span aggregates.

``--probe`` imports the package once, which also leaves its bytecode cached
as an installed package would have it, and prints the package location and
the numeric stack's versions as JSON.
"""

import json
import os
import resource
import sys
import time


def probe(src_dir):
    sys.path.insert(0, src_dir)
    import hybridsim.cli
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    print(
        json.dumps(
            {
                "package_file": os.path.abspath(hybridsim.cli.__file__),
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "blas": blas_name,
            }
        )
    )
    return 0


def peak_rss_kb():
    """Peak resident memory of this process's own address space.

    ``getrusage`` is not used: across fork and exec Linux folds the
    parent's peak into the child's ``ru_maxrss``.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(src_dir, config, out_csv, result_json, trace):
    sys.path.insert(0, src_dir)
    from hybridsim import cli

    tracer = None
    if trace == "1":
        import layertrace

        tracer = layertrace.install()

    stamps = {}
    run_sweep = cli.run_sweep

    def timed_run_sweep(*args, **kwargs):
        stamps["sweep_start"] = time.monotonic()
        try:
            return run_sweep(*args, **kwargs)
        finally:
            stamps["sweep_end"] = time.monotonic()

    cli.run_sweep = timed_run_sweep
    t0 = time.perf_counter()
    rc = cli.main(
        ["run", "--config", config, "--out", out_csv, "--workers", "1"]
    )
    main_wall = time.perf_counter() - t0
    result = dict(
        stamps,
        rc=rc,
        main_wall_s=main_wall,
        peak_rss_kb=peak_rss_kb(),
        trace=tracer.report() if tracer else None,
    )
    with open(result_json, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    if sys.argv[1] == "--probe":
        sys.exit(probe(sys.argv[2]))
    sys.exit(main(*sys.argv[1:]))
