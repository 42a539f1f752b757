"""Smoke test of the benchmark at a tiny run count.

Run from the repository root: python3 -m pytest bench/test_smoke.py
It is not part of the tier-1 suite (``testpaths`` names ``tests`` only).
"""

import copy
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0"]
    assert run.main(argv + ["--trace", str(trace)], runs=2) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("stamp: ")
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    w = workloads.WORKLOADS[workload]
    sweeps = run.TRACE_WINDOW if trace else w.window
    assert result["attempted"] == 2 * sweeps * len(w.points())
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in wanted}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if trace:
        # every span's self time is a metric; with the unattributed time
        # they add up to the traced wall time the report prints
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        wall = float(next(x for x in out if x.startswith("traced wall")).split()[2])
        spans = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        unattributed = metrics["harness.unattributed_s"]
        assert unattributed >= 0
        assert spans + unattributed == pytest.approx(wall, abs=1e-3)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


def test_reference_check_rejects_a_changed_output():
    ref = json.loads(run.REFERENCE.read_text())["nb_full"]["0"][0]
    run.check_reference(ref, ref)
    rates = copy.deepcopy(ref)
    rates["points"][0][3] *= 1 + 10 * run.RATE_RTOL
    iterations = dict(ref, admm_iterations=round(ref["admm_iterations"] * 1.02))
    for changed in (rates, iterations):
        with pytest.raises(run.CheckFailed):
            run.check_reference(ref, changed)


def test_missing_and_uncalled_functions_reported_absent(monkeypatch):
    sys.path.insert(0, str(run.SRC))
    spans = dict(layertrace.SPANS, **{"admm.merged": [("hybridsim.admm", "gone")]})
    monkeypatch.setattr(layertrace, "SPANS", spans)
    for m in layertrace.MODULES:
        importlib.import_module(m)
    import hybridsim.admm

    saved = {m: dict(vars(sys.modules[m])) for m in layertrace.MODULES}
    try:
        tracer = layertrace.install()
        hybridsim.admm.project_unit_modulus([1j])
    finally:
        for m, attrs in saved.items():
            vars(sys.modules[m]).update(attrs)
    absent = tracer.absent()
    assert "hybridsim.admm.gone" in absent
    assert "admm.merged (never called)" in absent
    assert "numerics.solve_hpd (never called)" in absent
    assert not any(a.startswith("admm.project_unit_modulus") for a in absent)
    assert tracer.calls["admm.project_unit_modulus"] == 1


def test_fails_without_the_program():
    """A directory holding only BENCHMARK.json and bench/ gives no result."""
    bare = BENCH_DIR / ".work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(
            BENCH_DIR, bare / "bench",
            ignore=shutil.ignore_patterns(".work", "__pycache__"),
        )
        shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "nb_full",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
