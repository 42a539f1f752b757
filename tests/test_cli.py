import csv
import json
import shutil
import subprocess

import pytest

from hybridsim.admm import AdmmConfig
from hybridsim.cli import main
from hybridsim.harness import SweepSpec


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
