"""Mutation check: each mutant below must make tier-1 fail.

Each mutant is an exact ``(file, old text, new text)`` edit that tier-1 once
let through, paired with the test that now kills it.  The script copies the
repository into a temporary directory, checks that tier-1 passes on the
unchanged copy, then applies one mutant at a time and runs tier-1 there with
``-x -q``.  It prints ``killed`` or ``survived`` per mutant and exits
non-zero if a mutant survives, if its old text does not occur exactly once
(so the list cannot go stale silently), or if the unchanged copy fails.

Run from anywhere: ``python3 tests/mutants.py``.  Pytest does not collect
this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    (
        # killed by TestBlockLayout::test_even_contiguous_blocks_under_the_cap
        "src/hybridsim/harness.py",
        "stops = [(i + 1) * size + min(i + 1, extra) for i in range(count)]",
        "stops = [(i + 1) * size + max(0, i + 1 - (count - extra)) "
        "for i in range(count)]",
    ),
    (
        # killed by TestRunSweep::test_multistart_keeps_the_first_of_equal_objectives
        "src/hybridsim/harness.py",
        "min(designs[i : i + starts], key=lambda d: d.final_objective)",
        "min(designs[i : i + starts][::-1], key=lambda d: d.final_objective)",
    ),
    (
        # killed by TestRunSweep::test_digital_wall_time_is_the_block_svd_time_per_run
        "src/hybridsim/harness.py",
        "digital_ms = 1e3 * (time.perf_counter() - t0) / len(channels)",
        "digital_ms = 1e3 * (time.perf_counter() - t0)",
    ),
    (
        # killed by TestOptimalFactors::test_gram_route_threshold
        "src/hybridsim/baseline.py",
        "_GRAM_RATIO_TOL = 1e-2",
        "_GRAM_RATIO_TOL = 1e-1",
    ),
]


def tier1_passes(copy):
    """Whether tier-1 passes in ``copy``, stopping at the first failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(copy / "src"), env.get("PYTHONPATH")])
    )
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    return done.returncode == 0


def main():
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__")
        )
        if not tier1_passes(copy):
            print("tier-1 fails on the unchanged copy; no mutant was run")
            return 2
        for path, old, new in MUTANTS:
            target = copy / path
            text = target.read_text()
            if text.count(old) != 1:
                print(f"stale     {path}: {old!r} occurs {text.count(old)} times")
                failures += 1
                continue
            target.write_text(text.replace(old, new))
            t0 = time.perf_counter()
            killed = not tier1_passes(copy)
            target.write_text(text)
            verdict = "killed" if killed else "survived"
            print(f"{verdict:<9} {path}: {new!r} ({time.perf_counter() - t0:.0f} s)")
            failures += not killed
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
