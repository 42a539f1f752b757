"""Mutation check: each mutant below must make tier-1 fail.

Each mutant is an exact ``(file, old text, new text)`` edit, paired with a
test that kills it.  The first four once passed tier-1 and each got its
test; the rest were killed by tier-1 when they were listed, some by a test
added with them, and are listed so that a change that weakens their tests
shows.  The script copies the repository into a temporary directory,
checks that tier-1 passes on the unchanged copy, then applies one mutant at
a time and runs tier-1 there with ``-x -q``.  It prints ``killed`` or
``survived`` per mutant and exits non-zero if a mutant survives, if its old
text does not occur exactly once (so the list cannot go stale silently), or
if the unchanged copy fails.

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
        "columns.digital_ms[:] = 1e3 * (time.perf_counter() - t0) / n_runs",
        "columns.digital_ms[:] = 1e3 * (time.perf_counter() - t0)",
    ),
    (
        # killed by TestOptimalFactors::test_gram_route_threshold
        "src/hybridsim/baseline.py",
        "_GRAM_RATIO_TOL = 1e-2",
        "_GRAM_RATIO_TOL = 1e-1",
    ),
    (
        # killed by test_admm_full.py::TestDesignFullyConnected::
        # test_full_rank_gram_matrix_designs_at_a_tiny_rho
        "src/hybridsim/admm.py",
        "stop = np.abs(previous - state.objective) < cfg.tau",
        "stop = np.abs(previous - state.objective) <= cfg.tau",
    ),
    (
        # killed by test_admm_partial.py::
        # test_trace_objective_is_the_residual_of_its_iterate
        "src/hybridsim/admm.py",
        "primal = np.sqrt(_sqnorm(w))",
        "primal = _sqnorm(w)",
    ),
    (
        # killed by test_batch.py::
        # test_designs_from_longer_draws_equal_seeded_designs
        "src/hybridsim/admm.py",
        "f_rf = project_unit_modulus(f_rf, cfg.phase_bits)",
        "f_rf = f_rf",
    ),
    (
        # killed by TestDesignPartiallyConnected::test_power_normalization
        "src/hybridsim/admm.py",
        "f_bb_hat *= (np.sqrt(n_s * n_rf / n_tx) / norm)[:, None, None]",
        "f_bb_hat *= (np.sqrt(n_s) / norm)[:, None, None]",
    ),
    (
        # killed by TestGenerator::test_mean_frobenius_normalization
        "src/hybridsim/channel.py",
        "gamma = np.sqrt(n_tx * n_rx / (n_clusters * n_rays))",
        "gamma = np.sqrt(n_tx * n_rx / n_clusters)",
    ),
    (
        # killed by TestGenerator::test_matches_replay_reference
        "src/hybridsim/channel.py",
        "-2j * np.pi * np.arange(n_clusters)",
        "2j * np.pi * np.arange(n_clusters)",
    ),
    (
        # killed by test_sweep_matches_golden[wideband_ofdm-0]
        "src/hybridsim/harness.py",
        "min(designs[i : i + starts], key=lambda d: d.final_objective)",
        "designs[i]",
    ),
    (
        # killed by TestRunSweep::
        # test_one_failing_instance_spares_the_rest_of_its_block
        "src/hybridsim/harness.py",
        "                if n_runs > 1:\n"
        "                    raise\n"
        "                columns.design_ms[:, j] = 1e3 * (time.perf_counter() - t0)\n",
        "                columns.design_ms[:, j] = "
        "1e3 * (time.perf_counter() - t0) / n_runs\n",
    ),
    (
        # killed by TestRunSweep::test_failed_draw_or_factors_cost_only_their_run
        "src/hybridsim/harness.py",
        "        if n_runs > 1:\n"
        "            runs = [_run_block(spec, r, r + 1) "
        "for r in range(first_run, stop_run)]\n"
        "            return _Columns(*map(np.concatenate, zip(*runs)))\n"
        "        failed_ms = 1e3 * (time.perf_counter() - start)\n",
        "        failed_ms = 1e3 * (time.perf_counter() - start) / n_runs\n",
    ),
    (
        # killed by TestRunSweep::
        # test_failed_design_at_one_n_rf_spares_the_other_n_rf
        "src/hybridsim/harness.py",
        "                columns.design_ms[:, j] = 1e3 * (time.perf_counter() - t0)\n"
        "                continue\n",
        "                columns.design_ms[:, j] = 1e3 * (time.perf_counter() - t0)\n"
        "                break\n",
    ),
    (
        # killed by TestRunSweep::test_block_frees_each_n_rf_designs_before_the_next
        "src/hybridsim/harness.py",
        "            del pairs, precoders, combiners\n",
        "",
    ),
    (
        # killed by TestRunSweep::test_overflowing_rates_are_error_rows
        "src/hybridsim/harness.py",
        '"error_rows": len(spec.n_rf) * bad_digital + bad_hybrid,',
        '"error_rows": bad_hybrid,',
    ),
    (
        # killed by TestRunSweep::test_marker_failure_does_not_mask_the_block_error
        "src/hybridsim/harness.py",
        "    except OSError:\n        pass\n",
        "    except FileExistsError:\n        pass\n",
    ),
    (
        # killed by TestRunSweep::test_metadata_contents
        "src/hybridsim/harness.py",
        "stderr = float(arr.std(ddof=1) / np.sqrt(arr.size))",
        "stderr = float(arr.std(ddof=0) / np.sqrt(arr.size))",
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
