import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hybridsim
from hybridsim import cli, harness
from hybridsim.admm import AdmmConfig
from hybridsim.cli import main
from hybridsim.harness import SweepSpec
from sweep_rows import read_meta


def write_config(tmp_path, **overrides):
    base = dict(
        scenario="narrowband_full",
        n_s=2,
        n_rf=2,
        n_tx_side=3,
        n_rx_side=3,
        n_subcarriers=1,
        snr_db_list=[0.0],
        runs=2,
        base_seed=7,
        admm=AdmmConfig(rho=2 / 18, max_iters=8, tau=0.0, seed=0),
    )
    base.update(overrides)
    doc = SweepSpec(**base).to_dict()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


class TestValidate:
    def test_good_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["validate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.strip() == "config OK"

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["carrier_ghz"] = 28
        cfg.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["validate", "--config", str(missing)]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value",
        [
            (("admm", "rho"), float("nan")),
            (("admm", "tau"), float("nan")),
            (("admm", "max_iters"), 2.5),
            (("runs",), 2.5),
            (("snr_db_list",), [0.0, float("nan")]),
        ],
    )
    def test_nonfinite_or_nonint_value_is_config_error(
        self, tmp_path, capsys, path, value
    ):
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg.write_text(json.dumps(doc))  # NaN is written as the JSON token NaN
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("path", [("admm", "seed"), ("base_seed",)])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, path):
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = -1
        cfg.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("value", [None, [1, 2], "fast", 3])
    def test_mistyped_admm_section_is_config_error(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["admm"] = value
        cfg.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("doc", [None, [], ["runs", "n_s"], 7, "cfg"])
    def test_non_object_document_is_config_error(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize(
        "axis, values", [("snr_db_list", [10.0, 10.0]), ("n_rf", [2, 2])]
    )
    def test_duplicate_axis_value_is_config_error(
        self, tmp_path, capsys, axis, values
    ):
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc[axis] = values
        cfg.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("bits", [49, 1024, 2000])
    def test_phase_grid_finer_than_float_is_config_error(self, tmp_path, capsys, bits):
        # from 1024 bits the grid step is not a float, and the projection
        # would raise OverflowError in the middle of a sweep
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["admm"]["phase_bits"] = bits
        cfg.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "phase_bits" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, code",
        [
            # 401 digits: no float holds it, so a float field rejects it
            (("admm", "rho"), 2),
            (("admm", "tau"), 2),
            (("snr_db_list",), 2),
            # a seed is taken as the integer it is
            (("base_seed",), 0),
            (("admm", "seed"), 0),
        ],
    )
    def test_integer_beyond_float_range(self, tmp_path, capsys, path, code):
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = 10**400
        cfg.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(cfg)]) == code
        out = capsys.readouterr()
        if code:
            assert out.err.startswith("config error:")
        else:
            assert out.out.strip() == "config OK"

    def test_malformed_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken")
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "config error:" in capsys.readouterr().err


class TestRun:
    def test_writes_rows_and_reports(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "res.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        msg = capsys.readouterr().out
        assert f"wrote 4 rows to {out} (4 with finite rate)" in msg
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 5  # header + 1 snr x 2 runs x 2 methods

    def test_reports_no_finite_rate(self, tmp_path, capsys):
        # at 3080 dB every rate overflows to inf, which is not a finite rate
        cfg = write_config(
            tmp_path, n_s=1, n_tx_side=2, n_rx_side=2, snr_db_list=[3080.0]
        )
        out = tmp_path / "res.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        msg = capsys.readouterr().out
        assert f"wrote 4 rows to {out} (0 with finite rate)" in msg
        assert read_meta(str(out) + ".meta.json")["error_rows"] == 4

    def test_runs_and_seed_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "res.csv"
        code = main(
            [
                "run",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--runs",
                "1",
                "--seed",
                "42",
            ]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        body = rows[1:]
        assert len(body) == 2
        assert all(r[4] == "42" for r in body)  # seed column

    def test_unwritable_out_fails_before_any_run(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []
        real = harness._run_block

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(harness, "_run_block", counted)
        cfg = write_config(tmp_path)
        out = tmp_path / "missing_dir" / "x.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in err
        assert calls == []

    def test_unwritable_meta_fails_before_any_run(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []
        real = harness._run_block

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(harness, "_run_block", counted)
        cfg = write_config(tmp_path)
        out = tmp_path / "x.csv"
        meta = tmp_path / "x.csv.meta.json"
        meta.mkdir()
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {meta}: ")
        assert "Traceback" not in err
        assert calls == []
        last = out.read_text().splitlines()[-1]
        assert last == "# PARTIAL: sweep aborted before completion"

    @pytest.mark.parametrize(
        "flags",
        [["--runs", "0"], ["--seed", "-1"], ["--workers", "0"], ["--workers", "-3"]],
    )
    def test_bad_override_is_config_error(self, tmp_path, capsys, flags):
        cfg = write_config(tmp_path)
        out = tmp_path / "res.csv"
        argv = ["run", "--config", str(cfg), "--out", str(out), *flags]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_snr_beyond_float_range_is_config_error(self, tmp_path, capsys):
        # 4000 dB is a finite number whose linear SNR overflows
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["snr_db_list"] = [4000.0]
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "res.csv"
        for argv in (["validate"], ["run", "--out", str(out)]):
            assert main([*argv, "--config", str(cfg)]) == 2
            assert "snr_db 4000.0 overflows" in capsys.readouterr().err
        assert not out.exists()


class TestTrace:
    def test_trace_csv_shape(self, tmp_path, capsys):
        cfg = write_config(tmp_path, admm=AdmmConfig(rho=2 / 18, max_iters=12, tau=0.0))
        out = tmp_path / "trace.csv"
        assert main(["trace", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "objective", "primal_residual"]
        body = rows[1:]
        assert len(body) == 13  # start plus 12 iterations at tau = 0
        assert [int(r[0]) for r in body] == list(range(13))
        objs = [float(r[1]) for r in body]
        assert objs[-1] <= objs[0]
        assert "trace rows" in capsys.readouterr().out

    @pytest.mark.parametrize("multistart", [1, 2])
    @pytest.mark.parametrize(
        "scenario, designer, overrides",
        [
            ("narrowband_full", "design_wideband", {"n_rf": [3, 2]}),
            (
                "narrowband_partial",
                "design_partially_connected",
                {"n_tx_side": 4, "n_rx_side": 2, "n_rf": [4, 2]},
            ),
            ("wideband", "design_wideband", {"n_rf": [3, 2], "n_subcarriers": 3}),
        ],
    )
    def test_trace_is_run_zero_start_zero_precoder_of_a_sweep(
        self, tmp_path, capsys, monkeypatch, scenario, designer, overrides, multistart
    ):
        # the first designer call of a one-run sweep is run 0's precoder
        # batch at the first listed n_rf; its instance 0 is start 0
        cfg = write_config(
            tmp_path,
            scenario=scenario,
            runs=1,
            multistart=multistart,
            admm=AdmmConfig(rho=2 / 18, max_iters=6, tau=0.0, seed=3),
            **overrides,
        )
        spec = harness.load_config(cfg)
        calls = []
        real = getattr(harness, designer)

        def recorded(targets, n_rf, cfg, normalize_power, draws):
            designs = real(targets, n_rf, cfg, normalize_power, draws=draws)
            calls.append((n_rf, normalize_power, designs))
            return designs

        with monkeypatch.context() as mp:
            mp.setattr(harness, designer, recorded)
            harness.run_sweep(spec, tmp_path / "sweep.csv")
        n_rf, normalize_power, designs = calls[0]
        assert (n_rf, normalize_power) == (spec.n_rf[0], True)
        want = designs[0]

        out = tmp_path / "trace.csv"
        assert main(["trace", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == [
            [str(it), f"{obj:.12e}", f"{res:.12e}"] for it, obj, res in want.trace
        ]
        printed = capsys.readouterr().out
        assert f"(final objective {want.final_objective:.3e})" in printed
        if multistart == 1:
            # the sweep row's objective is the trace design's, to the last
            # digit the CSV holds
            with open(tmp_path / "sweep.csv", newline="") as fh:
                (row,) = [
                    r
                    for r in csv.DictReader(fh)
                    if r["method"] != "digital_opt" and int(r["n_rf"]) == spec.n_rf[0]
                ]
            assert row["final_objective"] == f"{want.final_objective:.12e}"

    def test_failed_design_is_an_error_not_a_traceback(self, tmp_path, capsys):
        # at so small a rho the analog update's Gram matrix is not positive
        # definite, so run 0's design raises; a sweep of this config writes
        # NaN hybrid rows, and trace reports the failure
        cfg = write_config(
            tmp_path,
            n_s=1,
            n_rf=4,
            n_tx_side=4,
            n_rx_side=2,
            base_seed=0,
            admm=AdmmConfig(rho=1e-300, max_iters=5),
        )
        out = tmp_path / "trace.csv"
        assert main(["trace", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: design failed: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_unwritable_out_fails_before_any_design(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []
        real_draw = cli.draw_channels
        real_design = harness.design_wideband

        def counted_draw(*args):
            calls.append("draw")
            return real_draw(*args)

        def counted_design(*args, **kwargs):
            calls.append("design")
            return real_design(*args, **kwargs)

        monkeypatch.setattr(cli, "draw_channels", counted_draw)
        monkeypatch.setattr(harness, "design_wideband", counted_design)
        cfg = write_config(tmp_path)
        out = tmp_path / "missing_dir" / "trace.csv"
        assert main(["trace", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in err
        assert calls == []


@pytest.mark.skipif(
    shutil.which("hybridsim") is None, reason="console script not installed"
)
def test_console_script_end_to_end(tmp_path):
    cfg = write_config(tmp_path)
    res = subprocess.run(
        ["hybridsim", "validate", "--config", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0
    assert res.stdout.strip() == "config OK"


def test_cli_sweep_rows_equal_for_one_and_two_workers(tmp_path):
    # 7 runs split unevenly; two workers take the process pool, each in a
    # fresh interpreter started as a user starts the command
    src = str(Path(hybridsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    cfg = write_config(
        tmp_path,
        runs=7,
        snr_db_list=[-10.0, 10.0],
        admm=AdmmConfig(rho=2 / 18, max_iters=15, tau=3e-2, seed=3),
    )
    outputs = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}.csv"
        argv = ["run", "--config", str(cfg), "--out", str(out), "--workers"]
        res = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "hybridsim.cli"]
            + [*argv, str(workers)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert res.returncode == 0, res.stderr
        with open(out, newline="") as fh:
            rows = [row[:-1] for row in csv.reader(fh)]  # all but wall_time_ms
        outputs[workers] = rows, read_meta(str(out) + ".meta.json")
    rows, meta = outputs[1]
    assert len(rows) == 1 + 2 * 7 * 2
    assert len({row[8] for row in rows[1:]}) > 2  # varied iterations
    assert outputs[2] == (rows, meta)


def test_import_leaves_process_pool_unloaded():
    # a serial sweep never needs the pool; its modules cost every start-up
    src = str(Path(hybridsim.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import hybridsim.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') "
        "if m in sys.modules])"
    )
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
